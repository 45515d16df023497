"""Sequence-graph-transform embedding tests."""

import numpy as np
import pytest

from xmodal.sgt import (
    BIGRAM_ALPHABET,
    GeneticAnchor,
    anchors_from_table,
    embed_sequences,
    sgt_embed,
    tokenize_bigrams,
)
from xmodal.dataio import SequenceRecord

from oracles import sgt_oracle


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
