"""Evaluation tests: KNN vs the exhaustive oracle, metrics, 2-D layout."""

import tracemalloc

import numpy as np
import pytest

from xmodal import embednet, evalkit
from xmodal.dataio import FeatureTable
from xmodal.evalkit import (
    EmbeddingTable,
    anchor_centroid_cosines,
    centroid_distance_matrix,
    class_centroids,
    compute_metrics,
    embed_features,
    kamada_kawai_layout,
    knn_predict,
    write_layout_csv,
)
from xmodal.sgt import GeneticAnchor

from oracles import knn_oracle


def table(matrix, labels, prefix="g"):
    matrix = np.asarray(matrix, dtype=np.float64)
    ids = [f"{prefix}{i}" for i in range(matrix.shape[0])]
    return EmbeddingTable(ids, labels, matrix)


def test_embedding_table_validation():
    with pytest.raises(ValueError, match="aligned"):
        EmbeddingTable(["a"], [0, 1], np.ones((2, 2)))
    with pytest.raises(ValueError, match="zero-norm"):
        EmbeddingTable(["a", "b"], [0, 1], np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingTable(["a"], [0], np.array([[np.nan, 1.0]]))
    assert table(np.eye(3), [0, 1, 2]).n == 3


def test_embed_features_matches_forward():
    params = embednet.init_head(4, 6, 3, 2, seed=0)
    feats = FeatureTable(["a", "b"], [0, 1], np.random.default_rng(1).normal(size=(2, 4)))
    out = embed_features(params, feats)
    direct, _, _ = embednet.forward(params, feats.matrix)
    assert out.matrix.dtype == direct.dtype == np.float64
    assert np.array_equal(out.matrix, direct)
    assert out.ids == feats.ids and np.array_equal(out.labels, feats.labels)


def test_knn_basic_and_scale_invariance():
    gallery = table([[1, 0], [0.9, 0.1], [0, 1], [-0.1, 0.9]], [0, 0, 1, 1])
    queries = table([[2, 0.1], [0.1, 3]], [0, 1], prefix="q")
    assert knn_predict(gallery, queries, 3).tolist() == [0, 1]
    scaled = table(gallery.matrix * np.array([[7.0], [0.01], [3.0], [100.0]]),
                   gallery.labels)
    assert knn_predict(scaled, queries, 3).tolist() == [0, 1]


def test_knn_similarity_tie_goes_to_lower_gallery_index():
    # two identical gallery rows, different labels: stable order keeps index 0
    gallery = table([[1.0, 0.0], [1.0, 0.0]], [1, 0])
    queries = table([[1.0, 0.0]], [0], prefix="q")
    assert knn_predict(gallery, queries, 1).tolist() == [1]


def test_knn_vote_tie_mean_distance_then_class_id():
    # k=2, one neighbor per class: class 5 sits closer, so class 5 wins
    gallery = table([[1.0, 0.0], [np.cos(0.5), np.sin(0.5)]], [7, 5])
    queries = table([[1.0, 0.0]], [0], prefix="q")
    assert knn_predict(gallery, queries, 2).tolist() == [7]
    # exactly equal distances: smaller class id wins
    even = table([[1.0, 0.0], [1.0, 0.0]], [7, 5])
    assert knn_predict(even, queries, 2).tolist() == [5]


def test_knn_matches_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for trial in range(10):
        n_g = int(rng.integers(5, 20))
        n_q = int(rng.integers(1, 8))
        dim = int(rng.integers(2, 6))
        g = rng.normal(size=(n_g, dim))
        # plant exact duplicates to force similarity ties
        if n_g > 6:
            g[1] = g[0]
            g[3] = g[2] * 2.5
        g_labels = rng.integers(0, 4, size=n_g)
        q = rng.normal(size=(n_q, dim))
        q[0] = g[0] * 1.7
        gallery = table(g, g_labels)
        queries = table(q, np.zeros(n_q, dtype=int), prefix="q")
        for k in (1, 3, 5):
            if k > n_g:
                continue
            got = knn_predict(gallery, queries, k)
            want = knn_oracle(g, g_labels.tolist(), q, k)
            assert got.tolist() == list(want), f"trial {trial} k={k}"


# Directions with at most two nonzero components, scaled by powers of two:
# rows of one direction normalize to the same bits, so their similarities
# tie exactly, and every similarity equals the oracle's bit for bit.
TIE_GALLERY = np.array([
    [1, 0, 0], [2, 0, 0],        # similarity tie across classes 2 and 1
    [0, 1, 0], [0, 0.5, 0],      # similarity tie across classes 1 and 2
    [0, 0, 1], [1, 1, 0],
    [0, 2, 2], [0, 0, 4],        # row 7 ties row 4 across classes 1 and 0
], dtype=np.float64)
TIE_LABELS = np.array([2, 1, 1, 2, 0, 0, 2, 1])
TIE_DIRECTIONS = np.array([
    [1, 1, 0], [1, 0, 0], [0, 1, 0], [1, 0, 1], [0, 0, 1], [0, 1, 1],
], dtype=np.float64)


def tie_queries(n_q):
    # all queries tie gallery rows; k = 2, 3, 5 and n give vote ties
    scale = 2.0 ** (np.arange(n_q) % 3)
    return TIE_DIRECTIONS[np.arange(n_q) % len(TIE_DIRECTIONS)] * scale[:, None]


def test_knn_chunk_boundaries_keep_tie_rules(monkeypatch):
    # 11 queries in chunks of at most 3: ties sit on both sides of every
    # boundary, and k == gallery.n makes the whole gallery vote
    q = tie_queries(11)
    gallery = table(TIE_GALLERY, TIE_LABELS)
    queries = table(q, np.zeros(len(q), dtype=int), prefix="q")
    ks = (1, 2, 3, 4, 5, gallery.n)
    one_block = {k: knn_predict(gallery, queries, k) for k in ks}
    monkeypatch.setattr(evalkit, "KNN_CHUNK", 3)
    for k in ks:
        got = knn_predict(gallery, queries, k)
        want = knn_oracle(TIE_GALLERY, TIE_LABELS, q, k)
        assert got.tolist() == list(want), f"k={k}"
        assert np.array_equal(got, one_block[k]), f"k={k}"


def test_knn_sparse_taxon_ids():
    ids = np.array([7 * 10**12, 0, 10**9])
    labels = ids[TIE_LABELS]
    gallery = table(TIE_GALLERY, labels)
    q = tie_queries(9)
    queries = table(q, np.zeros(len(q), dtype=int), prefix="q")
    for k in (1, 2, 5, gallery.n):
        want = knn_oracle(TIE_GALLERY, labels, q, k)
        assert knn_predict(gallery, queries, k).tolist() == list(want), f"k={k}"


def test_knn_peak_memory_does_not_grow_with_queries():
    rng = np.random.default_rng(3)
    gallery = table(rng.normal(size=(4000, 8)), rng.integers(0, 8, size=4000))

    def peak(n_q):
        queries = table(rng.normal(size=(n_q, 8)), np.zeros(n_q, dtype=int), prefix="q")
        tracemalloc.start()
        try:
            knn_predict(gallery, queries, 5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) / peak(500) <= 1.25


def test_knn_validates_inputs():
    gallery = table(np.eye(3), [0, 1, 2])
    queries = table(np.eye(3)[:1], [0], prefix="q")
    with pytest.raises(ValueError, match="k must be"):
        knn_predict(gallery, queries, 0)
    with pytest.raises(ValueError, match="exceeds gallery"):
        knn_predict(gallery, queries, 4)
    with pytest.raises(ValueError, match="dims differ"):
        knn_predict(gallery, table(np.ones((1, 2)), [0], prefix="q"), 1)


def test_compute_metrics_hand_case():
    truth = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
    preds = np.array([0, 0, 1, 1, 1, 2, 2, 0, 0])
    counts = np.array([2000, 50, 500])
    report = compute_metrics(preds, truth, counts)
    assert report.overall == pytest.approx(6 / 9)
    assert report.per_class[0] == pytest.approx(2 / 3)
    assert report.per_class[1] == pytest.approx(1.0)
    assert report.per_class[2] == pytest.approx(0.5)
    assert report.macro == pytest.approx((2 / 3 + 1.0 + 0.5) / 3)
    assert report.tail == pytest.approx(1.0)
    assert report.head == pytest.approx(2 / 3)
    assert report.confusion[2, 0] == 2
    assert report.n_test == 9


def test_compute_metrics_absent_class_and_empty_groups():
    # class 1 never appears in the test set
    report = compute_metrics([0, 2], [0, 2], np.array([200, 200, 300]))
    assert report.per_class[1] is None
    assert report.macro == pytest.approx(1.0)
    assert report.tail is None and report.head is None
    d = report.to_dict()
    assert d["tail"] is None and d["confusion"][0][0] == 1 and d["k"] is None


def test_compute_metrics_validation():
    counts = np.array([10, 10])
    with pytest.raises(ValueError, match="equal-length"):
        compute_metrics([0, 1], [0], counts)
    with pytest.raises(ValueError, match="no test items"):
        compute_metrics([], [], counts)
    with pytest.raises(ValueError, match="out of range"):
        compute_metrics([2], [0], counts)
    with pytest.raises(ValueError, match="negative"):
        compute_metrics([-1], [0], counts)


def test_centroids_and_distance_matrix():
    t = table([[2, 0], [4, 0], [0, 1], [0, 3]], [3, 3, 1, 1])
    ids, cents = class_centroids(t)
    assert ids == [1, 3]
    assert np.allclose(cents, [[0, 2], [3, 0]])
    ids, dist = centroid_distance_matrix(t)
    assert dist.shape == (2, 2)
    assert np.allclose(np.diag(dist), 0)
    assert dist[0, 1] == pytest.approx(1.0)  # orthogonal centroids
    assert dist[0, 1] == dist[1, 0]


def test_centroid_distance_rejects_zero_centroid():
    t = table([[1.0, 0.0], [-1.0, 0.0]], [0, 0])
    with pytest.raises(ValueError, match="zero norm"):
        centroid_distance_matrix(t)


def test_anchor_centroid_cosines():
    t = table([[1, 0], [3, 0], [0, 2]], [0, 0, 1])
    anchors = {0: np.array([5.0, 0.0]), 1: np.array([0.0, 0.1])}
    mean, per = anchor_centroid_cosines(t, anchors)
    assert per[0] == pytest.approx(1.0) and per[1] == pytest.approx(1.0)
    assert mean == pytest.approx(1.0)
    as_list = [GeneticAnchor(0, [5.0, 0.0], 1), GeneticAnchor(1, [0.0, 0.1], 1)]
    assert anchor_centroid_cosines(t, as_list)[0] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="no anchor"):
        anchor_centroid_cosines(t, {0: np.array([1.0, 0.0])})


def test_layout_recovers_realizable_configuration():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8], [0.9, 1.1]])
    diff = points[:, None] - points[None, :]
    dist = np.linalg.norm(diff, axis=2)
    layout = kamada_kawai_layout(dist, iters=5000, tol=0.0, seed=2)
    assert layout.stress < 1e-6
    got = np.linalg.norm(layout.coords[:, None] - layout.coords[None, :], axis=2)
    assert np.allclose(got, dist, atol=1e-3)


def test_layout_determinism_and_edge_cases():
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    one = kamada_kawai_layout(dist, seed=5)
    two = kamada_kawai_layout(dist, seed=5)
    assert one.coords.tobytes() == two.coords.tobytes()
    single = kamada_kawai_layout(np.zeros((1, 1)))
    assert single.stress == 0.0 and single.coords.shape == (1, 2)
    # zero-distance pairs carry no weight and must not produce nans
    dup = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    out = kamada_kawai_layout(dup, iters=200)
    assert np.all(np.isfinite(out.coords))


def test_layout_validates_matrix():
    with pytest.raises(ValueError, match="square"):
        kamada_kawai_layout(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="negative"):
        kamada_kawai_layout(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        kamada_kawai_layout(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        kamada_kawai_layout(np.array([[1.0, 1.0], [1.0, 0.0]]))


def test_write_layout_csv(tmp_path):
    layout = kamada_kawai_layout(np.array([[0.0, 2.0], [2.0, 0.0]]), seed=0)
    path = tmp_path / "layout.csv"
    write_layout_csv([4, 9], layout, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "class_id,x,y,stress"
    first = lines[1].split(",")
    assert first[0] == "4"
    assert float(first[1]) == layout.coords[0, 0]
    assert float(first[3]) == layout.stress
