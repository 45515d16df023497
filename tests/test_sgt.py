"""Sequence-graph-transform embedding tests."""

import tracemalloc

import numpy as np
import pytest

from xmodal import sgt
from xmodal.sgt import (
    BIGRAM_ALPHABET,
    GeneticAnchor,
    anchors_from_table,
    embed_sequences,
    sgt_embed,
    tokenize_bigrams,
)
from xmodal.dataio import FeatureTable, SequenceRecord

from oracles import bigram_tokens_oracle, sgt_oracle, sgt_recurrence_oracle


def random_bigram_sequence(rng, length):
    return [BIGRAM_ALPHABET[i] for i in rng.integers(0, 16, size=length)]


def test_three_symbol_hand_example():
    # sequence X Y X at kappa=1: W(X,Y)=e^-1, W(Y,X)=e^-1, W(X,X)=e^-2,
    # X starts twice in positions 1..L-1? no: positions 1..2 are X,Y so
    # |Lambda_X|=1, |Lambda_Y|=1.
    alphabet = ["X", "Y"]
    psi = sgt_embed(["X", "Y", "X"], kappa=1.0, alphabet=alphabet)
    e1 = np.exp(-1.0)
    e2 = np.exp(-2.0)
    expected = np.array([e2, e1, e1, 0.0])
    assert np.allclose(psi, expected, atol=1e-15)


def test_matches_double_loop_oracle_on_random_sequences():
    rng = np.random.default_rng(7)
    for trial in range(20):
        length = int(rng.integers(2, 40))
        seq = random_bigram_sequence(rng, length)
        kappa = float(rng.uniform(0.2, 2.5))
        fast = sgt_embed(seq, kappa=kappa)
        slow = sgt_oracle(seq, kappa, BIGRAM_ALPHABET)
        assert np.max(np.abs(fast - slow)) < 1e-12


def test_row_major_layout():
    # only AC appears as a start symbol, so the nonzero entry sits in
    # the AC row: index 16 * idx(AC) + idx(GT).
    seq = ["AC", "GT"]
    psi = sgt_embed(seq, kappa=1.0)
    row = BIGRAM_ALPHABET.index("AC")
    col = BIGRAM_ALPHABET.index("GT")
    expected = np.zeros(256)
    expected[16 * row + col] = np.exp(-1.0)
    assert np.allclose(psi, expected)


def test_kappa_controls_reach():
    seq = random_bigram_sequence(np.random.default_rng(3), 30)
    tight = sgt_embed(seq, kappa=5.0)
    loose = sgt_embed(seq, kappa=0.1)
    # heavier damping shrinks total mass
    assert tight.sum() < loose.sum()


def test_short_sequence_rejected():
    with pytest.raises(ValueError):
        sgt_embed(["AC"], kappa=1.0)
    with pytest.raises(ValueError):
        sgt_embed([], kappa=1.0)


def test_bad_kappa_rejected():
    with pytest.raises(ValueError):
        sgt_embed(["AC", "GT", "AA"], kappa=0.0)
    with pytest.raises(ValueError):
        sgt_embed(["AC", "GT", "AA"], kappa=-1.0)


def test_unknown_symbol_rejected():
    with pytest.raises(ValueError):
        sgt_embed(["AC", "ZZ"], kappa=1.0)


def test_tokenize_bigrams_basic():
    assert tokenize_bigrams("ACGTAC") == ["AC", "GT", "AC"]


def test_tokenize_drops_trailing_odd_base():
    assert tokenize_bigrams("ACGTA") == ["AC", "GT"]


def test_tokenize_skips_pairs_with_ambiguity_codes():
    # NA pair is skipped, frame does not shift
    assert tokenize_bigrams("ACNAGT") == ["AC", "GT"]


def test_tokenize_too_short_rejected():
    with pytest.raises(ValueError):
        tokenize_bigrams("ACN")
    with pytest.raises(ValueError):
        tokenize_bigrams("A")


def test_embed_sequences_shapes_and_order():
    records = [
        SequenceRecord("s1", "ACGTACGTACGT"),
        SequenceRecord("s2", "TTTTCCCCGGGGAAAA"),
    ]
    ids, matrix = embed_sequences(records, kappa=1.0)
    assert ids == ["s1", "s2"]
    assert matrix.shape == (2, 256)
    assert np.allclose(matrix[0], sgt_embed(tokenize_bigrams("ACGTACGTACGT")))


def test_anchors_from_table_is_componentwise_median():
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(5, 256))
    (anchor,) = anchors_from_table([f"s{i}" for i in range(5)], rows, [7] * 5)
    assert isinstance(anchor, GeneticAnchor)
    assert anchor.taxon == 7
    assert np.allclose(anchor.vector, np.median(rows, axis=0))


def test_anchors_from_table_resists_one_outlier():
    rows = np.zeros((5, 3))
    rows[4] = 1e6
    (anchor,) = anchors_from_table(list("abcde"), rows, [0] * 5)
    assert np.all(anchor.vector == 0.0)


def test_anchors_from_table_groups_by_label():
    rng = np.random.default_rng(2)
    matrix = rng.normal(size=(6, 256))
    ids = [f"s{i}" for i in range(6)]
    labels = np.array([2, 1, 2, 1, 1, 0])
    anchors = anchors_from_table(ids, matrix, labels)
    assert [a.taxon for a in anchors] == [0, 1, 2]
    assert np.array_equal(anchors[0].vector, matrix[5])
    assert np.allclose(anchors[1].vector, np.median(matrix[[1, 3, 4]], axis=0))
    # an even count takes the midpoint of the two middle values
    assert np.allclose(anchors[2].vector, (matrix[0] + matrix[2]) / 2)


def test_anchors_from_table_rejects_misaligned_inputs():
    matrix = np.ones((3, 4))
    with pytest.raises(ValueError, match="2 ids, 3 labels"):
        anchors_from_table(["a", "b"], matrix, [0, 0, 1])
    with pytest.raises(ValueError, match="3 ids, 2 labels"):
        anchors_from_table(["a", "b", "c"], matrix, [0, 1])


def test_anchor_table_has_one_median_row_per_taxon():
    rng = np.random.default_rng(4)
    matrix = rng.normal(size=(6, 3))
    genetic = FeatureTable([f"s{i}" for i in range(6)], [7, 0, 7, 0, 0, 123],
                           matrix)
    table = sgt.anchor_table(genetic)
    assert table.ids == ["anchor00", "anchor07", "anchor123"]
    assert table.labels.tolist() == [0, 7, 123]
    assert np.array_equal(table.matrix, [a.vector for a in anchors_from_table(
        genetic.ids, genetic.matrix, genetic.labels)])
    by_taxon = sgt.anchors_by_taxon(table)
    assert list(by_taxon) == [0, 7, 123]
    assert np.array_equal(by_taxon[7], np.median(matrix[[0, 2]], axis=0))


def test_anchor_rows_has_one_row_per_present_taxon():
    vecs = {0: np.array([1.0, 0.0]), 2: np.array([0.0, 2.0]),
            5: np.array([3.0, 3.0])}
    mat = sgt.anchor_rows(vecs, [2, 0])
    assert mat.shape == (2, 2)  # one row per present taxon, in sorted order
    assert np.array_equal(mat, [[1.0, 0.0], [0.0, 2.0]])


def test_anchor_rows_rejects_bad_tables():
    a = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="missing anchors"):
        sgt.anchor_rows({0: a}, [0, 1])
    with pytest.raises(ValueError, match="dimension"):
        sgt.anchor_rows({0: a, 1: np.ones(3)}, [0, 1])


def _random_residues(rng, length, letters="ACGT"):
    return "".join(rng.choice(list(letters), size=length))


@pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0])
def test_embed_sequences_is_bit_identical_to_the_recurrence(kappa):
    rng = np.random.default_rng(17)
    lengths = rng.integers(4, 160, size=sgt._BLOCK + 5)
    lengths[7] = 5000  # one long sequence among short ones
    records = [SequenceRecord(f"s{i}", _random_residues(rng, n))
               for i, n in enumerate(lengths)]
    records[0] = SequenceRecord("two-tokens", "ACGT")
    records[1] = SequenceRecord("ambiguous", "ACNAGTRYTTSWGGKMAC")
    # the block boundary falls inside this run of ambiguous sequences
    for i in range(sgt._BLOCK - 2, sgt._BLOCK + 2):
        records[i] = SequenceRecord(f"n{i}", _random_residues(rng, 90, "ACGTN"))
    ids, matrix = embed_sequences(records, kappa)
    assert ids == [r.id for r in records]
    want = np.array([sgt_recurrence_oracle(
        bigram_tokens_oracle(r.residues, BIGRAM_ALPHABET), kappa,
        BIGRAM_ALPHABET) for r in records])
    assert matrix.tobytes() == want.tobytes()


@pytest.mark.parametrize("kappa", [0.25, 1.0, 4.0])
def test_sgt_embed_is_bit_identical_to_the_recurrence_on_any_alphabet(kappa):
    rng = np.random.default_rng(19)
    alphabet = ["x", "yy", "z", "w0", "\u6728"]
    for length in (2, 3, 17, 400):
        symbols = [alphabet[i] for i in rng.integers(0, 5, size=length)]
        got = sgt_embed(symbols, kappa, alphabet)
        want = sgt_recurrence_oracle(symbols, kappa, alphabet)
        assert got.tobytes() == want.tobytes()


def test_tokenize_bigrams_equals_the_pair_scan():
    rng = np.random.default_rng(23)
    for length in range(4, 60):
        residues = _random_residues(rng, length, "ACGTNRYacgt\u00e9")
        want = bigram_tokens_oracle(residues, BIGRAM_ALPHABET)
        if len(want) >= 2:
            assert tokenize_bigrams(residues) == want
        else:
            with pytest.raises(ValueError, match=f"yields {len(want)} usable"):
                tokenize_bigrams(residues)


def test_embed_sequences_memory_is_bounded_by_a_block():
    """1,000 sequences of 1.8 kb: the peak stays well below one padded
    index matrix for the whole FASTA, the (sequences, tokens) intp array
    a whole-file recurrence would build."""
    rng = np.random.default_rng(29)
    records = [SequenceRecord(f"s{i}", _random_residues(rng, 1800))
               for i in range(1000)]
    whole = len(records) * 900 * np.dtype(np.intp).itemsize
    tracemalloc.start()
    try:
        _, matrix = embed_sequences(records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole / 2
    # beyond the result itself, a block's worth
    assert peak - matrix.nbytes < whole / 4


def test_embed_sequences_cuts_blocks_in_order_of_length(monkeypatch):
    """Long and short sequences alternate in the file; each block holds
    sequences of one length, so no block of short ones runs a long one's
    length, and every row still lands at its record's place."""
    rng = np.random.default_rng(31)
    records = [SequenceRecord(f"s{i}", _random_residues(rng, 400 if i % 2 else 40))
               for i in range(2 * sgt._BLOCK)]
    block_lengths = []
    psi_rows = sgt._psi_rows

    def spy(seqs, v, kappa):
        block_lengths.append(sorted({len(s) for s in seqs}))
        return psi_rows(seqs, v, kappa)

    monkeypatch.setattr(sgt, "_psi_rows", spy)
    ids, matrix = embed_sequences(records)
    assert block_lengths == [[20], [200]]
    assert ids == [r.id for r in records]
    want = np.array([sgt_recurrence_oracle(
        bigram_tokens_oracle(r.residues, BIGRAM_ALPHABET), 1.0,
        BIGRAM_ALPHABET) for r in records])
    assert matrix.tobytes() == want.tobytes()


def test_embed_sequences_names_the_first_bad_record_in_file_order():
    # "late" is shorter, so its block runs first; the error still names
    # "early", the first record a per-record loop would reject
    records = [SequenceRecord("ok", "ACGT" * 50),
               SequenceRecord("early", "NNNN" * 20),
               SequenceRecord("late", "AC")]
    with pytest.raises(ValueError, match=r"^sequence 'early': sequence yields 0"):
        embed_sequences(records)
