"""Sequence Graph Transform embedding of rDNA sequences.

A base string is first binned into non-overlapping bigram tokens, so a
length-L sequence becomes roughly L/2 symbols over the 16-token
alphabet AA..TT.  The SGT then summarizes, for every ordered token pair
(u, v), the exponentially decayed mass of all occurrences of v after u:

    W(u, v)   = sum over index pairs l < m with s_l = u, s_m = v
                of exp(-kappa * (m - l))
    |Lam_u|   = number of positions l in 1..L-1 with s_l = u
    psi(u, v) = W(u, v) / |Lam_u|      (0 when u never starts a pair)

The result is psi flattened row-major, a 256-vector over the 16
bigram tokens.  This is the length-sensitive SGT variant; kappa
(default 1.0) sets how fast long-range co-occurrence decays.

embed_sequences runs the O(L * |V|) recurrence over blocks of _BLOCK
sequences at once, one numpy step per position for the whole block;
sgt_embed is the same kernel on one sequence.

Per-taxon genetic anchors are elementwise medians of the taxon's
embeddings, so single outlier sequences cannot drag the anchor.  Every
anchor is built and looked up here: genetic_table embeds labelled
sequences, anchor_table reduces them to one row per taxon (id anchorTT)
and anchor_rows lines the anchors up with a list of taxa.
"""

from typing import NamedTuple

import numpy as np

from . import dataio

BASES = "ACGT"

# 16 bigram tokens in lexicographic order: AA, AC, AG, AT, CA, ..., TT.
BIGRAM_ALPHABET = [a + b for a in BASES for b in BASES]
_BIGRAM_INDEX = {tok: i for i, tok in enumerate(BIGRAM_ALPHABET)}

# byte -> its base's index in BASES; 4 for every other byte
_BASE_CODE = np.full(256, 4, dtype=np.uint8)
_BASE_CODE[np.frombuffer(BASES.encode(), dtype=np.uint8)] = np.arange(4)


def _bigram_indices(residues):
    """tokenize_bigrams' tokens as indices into BIGRAM_ALPHABET."""
    # one byte per character, so byte pairs are character pairs
    text = residues.encode("ascii", "replace")
    codes = _BASE_CODE[np.frombuffer(text, dtype=np.uint8)]
    first, second = codes[0:len(codes) - 1:2], codes[1::2]
    keep = (first < 4) & (second < 4)
    seq = 4 * first[keep] + second[keep]
    if len(seq) < 2:
        raise ValueError(
            f"sequence yields {len(seq)} usable bigram(s), need at least 2"
            " (too short or too ambiguous)"
        )
    return seq


def tokenize_bigrams(residues):
    """Bin a base string into non-overlapping bigram tokens.

    Pairs are taken at positions 1-2, 3-4, ...; a trailing odd base is
    dropped, and any pair containing a letter outside ACGT (IUPAC
    ambiguity codes, N) is skipped entirely.
    """
    return [BIGRAM_ALPHABET[i] for i in _bigram_indices(residues).tolist()]


# sequences embedded together by embed_sequences; the block's arrays,
# not the FASTA file, set the size of every temporary
_BLOCK = 128


def _psi_rows(seqs, v, kappa):
    """psi rows, shape (len(seqs), v*v), of `seqs`, a list of symbol-index
    arrays over an alphabet of `v` symbols, each of length >= 2.

    The recurrence runs over the whole block at once.  Each sequence is
    padded with a dummy symbol v after its end; a pad touches only the
    dummy's row and column of W, so every real entry gets the float
    operations of the one-sequence recurrence in the same order.
    """
    n = len(seqs)
    # idx[m, b]: symbol m of sequence b; starts[b, u] = |Lam_u| of sequence b
    idx = np.full((max(len(s) for s in seqs), n), v,
                  dtype=np.min_scalar_type(v))
    starts = np.empty((n, v, 1))
    for b, s in enumerate(seqs):
        idx[:len(s), b] = s
        starts[b, :, 0] = np.bincount(s[:-1], minlength=v)
    rows = np.arange(n)
    decay = np.exp(-kappa)
    W = np.zeros((n, v + 1, v + 1))
    # reach[b, u] = sum of exp(-kappa*(m - l)) over earlier positions l of
    # sequence b with s_l = u, evaluated at the current position m
    reach = np.zeros((n, v + 1))
    for s in idx:
        W[rows, :, s] += reach
        reach *= decay
        reach[rows, s] += decay
    psi = np.divide(W[:, :v, :v], starts, out=np.zeros((n, v, v)),
                    where=starts > 0)
    return psi.reshape(n, v * v)


def _check_kappa(kappa):
    kappa = float(kappa)
    if not 0 < kappa < np.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    return kappa


def sgt_embed(symbols, kappa=1.0):
    """Embed a list of bigram tokens as the flattened 16 x 16 psi matrix.

    `symbols` are tokens of BIGRAM_ALPHABET, as tokenize_bigrams gives
    them.  Returns a float64 vector of length 256, row-major by (u, v)
    in alphabet order.

    Runs in O(L * |V|) by keeping, per symbol u, the decayed mass of
    all its occurrences before the current position; equals the
    all-pairs double loop to ~1e-15.  It is embed_sequences' block
    recurrence run on one row.
    """
    if len(symbols) < 2:
        raise ValueError(f"need at least 2 symbols, got {len(symbols)}")
    kappa = _check_kappa(kappa)
    try:
        seq = np.array([_BIGRAM_INDEX[s] for s in symbols], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"symbol {exc.args[0]!r} not in alphabet") from None
    return _psi_rows([seq], len(BIGRAM_ALPHABET), kappa)[0]


def embed_sequences(records, kappa=1.0):
    """SGT-embed a list of SequenceRecord -> (ids, N x 256 matrix).

    Sequences are embedded _BLOCK at a time (see _psi_rows), in order of
    length, so that a block's sequences are about as long as each other
    and a long one does not make a block of short ones run its length;
    each row is written back to its record's place.  Sequences that are
    too short or too ambiguous to tokenize raise, identifying the first
    such record in file order.
    """
    kappa = _check_kappa(kappa)
    v = len(BIGRAM_ALPHABET)
    matrix = np.empty((len(records), v * v))
    order = np.argsort([len(rec.residues) for rec in records], kind="stable")
    for lo in range(0, len(records), _BLOCK):
        block = order[lo:lo + _BLOCK]
        try:
            seqs = [_bigram_indices(records[i].residues) for i in block]
        except ValueError:
            for rec in records:
                try:
                    _bigram_indices(rec.residues)
                except ValueError as exc:
                    raise ValueError(f"sequence {rec.id!r}: {exc}") from None
        matrix[block] = _psi_rows(seqs, v, kappa)
    return [rec.id for rec in records], matrix


class GeneticAnchor(NamedTuple):
    """One taxon's genetic anchor."""

    taxon: int
    vector: np.ndarray


def anchors_from_table(ids, matrix, labels):
    """One anchor per distinct taxon of a labelled embedding matrix, sorted
    by taxon id: the elementwise median of the taxon's rows (for even
    counts each coordinate is the midpoint of the two middle values).

    `ids` and `labels` (taxon ids) align with the rows of `matrix`.
    """
    labels = np.asarray(labels)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or not len(ids) == len(labels) == matrix.shape[0]:
        raise ValueError(
            f"anchor table sizes differ: {len(ids)} ids, {len(labels)}"
            f" labels, matrix of shape {matrix.shape}")
    return [GeneticAnchor(int(t), np.median(matrix[labels == t], axis=0))
            for t in np.unique(labels)]


def genetic_table(records, labels, kappa):
    """SGT-embed `records` -> FeatureTable labelled by `labels[id]`."""
    missing = [r.id for r in records if r.id not in labels]
    if missing:
        raise ValueError(f"no taxon label for sequences {missing[:5]}")
    ids, matrix = embed_sequences(records, kappa)
    return dataio.FeatureTable(ids, [labels[i] for i in ids], matrix)


def anchor_table(genetic):
    """Per-taxon median anchors of a genetic FeatureTable: one row each,
    sorted by taxon, with id anchorTT."""
    anchors = anchors_from_table(genetic.ids, genetic.matrix, genetic.labels)
    taxa = [a.taxon for a in anchors]
    return dataio.FeatureTable([f"anchor{t:02d}" for t in taxa], taxa,
                               [a.vector for a in anchors])


def anchors_by_taxon(table):
    """{taxon: vector} of an anchor table, which has one row per taxon."""
    taxa, counts = np.unique(table.labels, return_counts=True)
    if np.any(counts > 1):
        raise ValueError(
            f"anchor table has more than one row for taxa"
            f" {taxa[counts > 1][:5].tolist()}")
    return {int(lbl): table.matrix[i] for i, lbl in enumerate(table.labels)}


def anchor_rows(anchors, taxa):
    """{taxon: vector} anchors -> (T, E) matrix whose row i is the anchor
    of the i-th taxon of sorted `taxa`, so its size never follows the
    taxon ids.  Every taxon in `taxa` must have an anchor."""
    by_taxon = {int(t): np.asarray(vec, dtype=np.float64)
                for t, vec in anchors.items()}
    missing = [int(t) for t in taxa if int(t) not in by_taxon]
    if missing:
        raise ValueError(f"missing anchors for present taxa {missing}")
    dim = len(next(iter(by_taxon.values())))
    if any(vec.shape != (dim,) for vec in by_taxon.values()):
        raise ValueError("anchor vectors must share one dimension")
    return np.array([by_taxon[t] for t in sorted(int(t) for t in taxa)])
