"""The benchmark's references against the slow oracles in tests/oracles.py.

    python3 -m pytest bench/test_reference.py

Inputs are small and plant the ties the documented rules decide:
duplicate gallery rows (equal similarities, ordered by gallery index)
and vote ties with equal and unequal mean distances.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
from oracles import knn_oracle, sgt_oracle  # noqa: E402
from xmodal.sgt import BIGRAM_ALPHABET, tokenize_bigrams  # noqa: E402


def planted_knn_case():
    rng = np.random.default_rng(7)
    gallery = rng.normal(size=(30, 5))
    labels = rng.integers(0, 4, size=30)
    # exact similarity ties: rows 3 and 17 duplicate rows 11 and 2
    gallery[3] = gallery[11]
    gallery[17] = gallery[2]
    queries = [rng.normal(size=(8, 5)), gallery[[2, 11]] * 1.5]
    # vote ties: classes 1 and 2 mirror each other about the query axis, so
    # their members' similarities are bit-identical (equal mean distance,
    # the smaller class wins); class 3 sits closer in a second pair
    q = np.zeros(5)
    q[0] = 1.0
    extra, extra_labels = [], []
    for angle, label in ((0.3, 2), (-0.3, 1), (0.5, 2), (-0.5, 1),
                         (0.1, 3), (0.7, 0)):
        row = np.zeros(5)
        row[0], row[1] = np.cos(angle), np.sin(angle)
        extra.append(row)
        extra_labels.append(label)
    gallery = np.vstack([gallery, extra])
    labels = np.concatenate([labels, extra_labels])
    queries = np.vstack(queries + [q[None, :]])
    return gallery, labels, queries


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7])
def test_knn_matches_oracle_with_planted_ties(k):
    gallery, labels, queries = planted_knn_case()
    preds, fragile, tied = ref.knn(gallery, labels, queries, k, chunk=3)
    np.testing.assert_array_equal(preds, knn_oracle(gallery, labels, queries, k))
    assert preds.shape == fragile.shape == tied.shape == (len(queries),)


def test_knn_flags_planted_ties():
    gallery, labels, queries = planted_knn_case()
    # the duplicated rows tie at similarity 1 with each other: with k=1 the
    # neighbour set is decided by the index rule alone
    _, fragile, _ = ref.knn(gallery, labels, queries, 1)
    assert fragile[8] and fragile[9]
    # the mirrored pairs give a 2-2 vote tie at equal mean distance, which
    # goes to the smaller class id
    preds, fragile, tied = ref.knn(gallery, labels, queries, 5)
    assert tied[-1] and fragile[-1] and preds[-1] == 1


def test_sgt_matches_all_pairs_oracle():
    rng = np.random.default_rng(3)
    for length in (4, 9, 60, 301):
        residues = "".join(rng.choice(list("ACGT"), size=length))
        if length > 9:
            residues = residues[:6] + "NA" + residues[8:]
        tokens = tokenize_bigrams(residues)
        for kappa in (0.5, 1.0, 2.0):
            np.testing.assert_allclose(
                ref.sgt(residues, kappa),
                sgt_oracle(tokens, kappa, BIGRAM_ALPHABET), rtol=1e-12,
                atol=1e-15)


def test_taxon_medians_and_accuracies():
    matrix = np.array([[1.0, 5.0], [3.0, 1.0], [2.0, 4.0], [7.0, 0.0],
                       [9.0, 2.0]])
    labels = np.array([0, 0, 0, 1, 1])
    medians = ref.taxon_medians(matrix, labels)
    np.testing.assert_array_equal(medians[0], [2.0, 4.0])
    np.testing.assert_array_equal(medians[1], [8.0, 1.0])

    conf = np.array([[3, 1, 0], [0, 1, 1], [0, 0, 0]])
    overall, macro, tail, head = ref.accuracies(conf, [2000, 50, 10], 100, 1000)
    assert overall == pytest.approx(4 / 6)
    assert macro == pytest.approx((0.75 + 0.5) / 2)
    assert tail == pytest.approx(0.5)  # class 2 has no test sample
    assert head == pytest.approx(0.75)
    assert ref.accuracies(conf, [500, 500, 500], 100, 1000)[2:] == (None, None)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    import json

    import run

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
