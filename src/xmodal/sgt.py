"""Sequence Graph Transform embedding of rDNA sequences.

A base string is first binned into non-overlapping bigram tokens, so a
length-L sequence becomes roughly L/2 symbols over the 16-token
alphabet AA..TT.  The SGT then summarizes, for every ordered token pair
(u, v), the exponentially decayed mass of all occurrences of v after u:

    W(u, v)   = sum over index pairs l < m with s_l = u, s_m = v
                of exp(-kappa * (m - l))
    |Lam_u|   = number of positions l in 1..L-1 with s_l = u
    psi(u, v) = W(u, v) / |Lam_u|      (0 when u never starts a pair)

The result is psi flattened row-major, a 256-vector for the bigram
alphabet.  This is the length-sensitive SGT variant; kappa (default
1.0) sets how fast long-range co-occurrence decays.

Per-taxon genetic anchors are elementwise medians of the taxon's
embeddings, so single outlier sequences cannot drag the anchor.
"""

from typing import NamedTuple

import numpy as np

BASES = "ACGT"

# 16 bigram tokens in lexicographic order: AA, AC, AG, AT, CA, ..., TT.
BIGRAM_ALPHABET = [a + b for a in BASES for b in BASES]

_BIGRAM_INDEX = {sym: i for i, sym in enumerate(BIGRAM_ALPHABET)}


def tokenize_bigrams(residues):
    """Bin a base string into non-overlapping bigram tokens.

    Pairs are taken at positions 1-2, 3-4, ...; a trailing odd base is
    dropped, and any pair containing a letter outside ACGT (IUPAC
    ambiguity codes, N) is skipped entirely.
    """
    symbols = []
    for i in range(0, len(residues) - 1, 2):
        pair = residues[i : i + 2]
        if pair in _BIGRAM_INDEX:
            symbols.append(pair)
    if len(symbols) < 2:
        raise ValueError(
            f"sequence yields {len(symbols)} usable bigram(s), need at least 2"
            " (too short or too ambiguous)"
        )
    return symbols


def sgt_embed(symbols, kappa=1.0, alphabet=None):
    """Embed a symbol sequence as the flattened |V| x |V| psi matrix.

    `symbols` is a list of tokens over `alphabet` (the 16-bigram
    alphabet by default; any symbol list works, which keeps the math
    checkable on tiny hand examples).  Returns a float64 vector of
    length |V|**2, row-major by (u, v) in alphabet order.

    Runs in O(L * |V|) by keeping, per symbol u, the decayed mass of
    all its occurrences before the current position; equals the
    all-pairs double loop to ~1e-15.
    """
    if alphabet is None:
        alphabet = BIGRAM_ALPHABET
    index = {sym: i for i, sym in enumerate(alphabet)}
    if len(index) != len(alphabet):
        raise ValueError("alphabet contains duplicate symbols")
    if len(symbols) < 2:
        raise ValueError(f"need at least 2 symbols, got {len(symbols)}")
    kappa = float(kappa)
    if not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")

    try:
        seq = np.array([index[s] for s in symbols], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"symbol {exc.args[0]!r} not in alphabet") from None

    v = len(alphabet)
    decay = np.exp(-kappa)
    W = np.zeros((v, v))
    # reach[u] = sum of exp(-kappa*(m - l)) over earlier positions l with s_l = u,
    # evaluated at the current position m
    reach = np.zeros(v)
    for s in seq:
        W[:, s] += reach
        reach *= decay
        reach[s] += decay

    starts = np.bincount(seq[:-1], minlength=v).astype(np.float64)
    psi = np.divide(W, starts[:, None], out=np.zeros_like(W),
                    where=starts[:, None] > 0)
    return psi.reshape(-1)


def embed_sequences(records, kappa=1.0):
    """SGT-embed a list of SequenceRecord -> (ids, N x 256 matrix).

    Sequences that are too short or too ambiguous to tokenize raise,
    identifying the offending record.
    """
    ids, rows = [], []
    for rec in records:
        try:
            rows.append(sgt_embed(tokenize_bigrams(rec.residues), kappa))
        except ValueError as exc:
            raise ValueError(f"sequence {rec.id!r}: {exc}") from None
        ids.append(rec.id)
    return ids, np.array(rows)


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
