"""Inference and reporting: cosine KNN, long-tailed metrics, 2-D layouts.

Classification is visual-only at test time: train-set embeddings form
the gallery, each query votes among its k most cosine-similar gallery
items.  Queries are scored in chunks of at most KNN_CHUNK rows, so KNN
memory is bounded by one chunk's similarity block (KNN_CHUNK x N x 8
bytes for an N-row gallery), and about as much again for the sort,
whatever the number of queries.  The k-th largest of a row's
column-group maxima bounds its k-th largest similarity from below, so
only the groups that reach it are sorted.
Metrics are reported overall and per class, with the
per-class means additionally restricted to tail classes (train count
below 100) and head classes (above 1000), the split that makes
imbalance damage visible.  Class-centroid cosine distance matrices can
be pressed into 2-D with a Kamada-Kawai style stress minimizer for
figures.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import dataio, embednet, sgt

TAIL_THRESHOLD = 100
HEAD_THRESHOLD = 1000
KNN_CHUNK = 512  # queries per similarity block in knn_predict
EMBED_BLOCK = 4096  # feature rows per forward pass in embed_features
LAYOUT_RESTARTS = 8  # seeded starts tried by kamada_kawai_layout


class EmbeddingTable(dataio.FeatureTable):
    """A FeatureTable of embedding rows; zero rows rejected (cosine needs
    a direction)."""

    def __post_init__(self):
        super().__post_init__()
        norms = np.linalg.norm(self.matrix, axis=1)
        if np.any(norms == 0):
            bad = self.ids[int(np.argmin(norms))]
            raise ValueError(f"zero-norm embedding row {bad!r}")


def _blocks(n, size):
    """Near-equal [lo, hi) blocks of at most `size` of n rows; one block
    when n <= size.  No block is a single row unless n is 1: numpy hands a
    one-row product to BLAS gemv, whose sums can differ in the last bit
    from the gemm of a larger block."""
    count = max(1, -(-n // size))
    return [(i * n // count, (i + 1) * n // count) for i in range(count)]


def embed_features(params, table):
    """Push a FeatureTable through the head -> EmbeddingTable, in blocks
    of at most EMBED_BLOCK rows written into one (N, E) float64 array, so
    the hidden activations are bounded by a block; each row's embedding
    is bit for bit the one a single pass over the whole table gives."""
    params.check_width(table.dim)
    emb = np.empty((table.n, params.dims[2]))
    for lo, hi in _blocks(table.n, EMBED_BLOCK):
        emb[lo:hi] = embednet.forward(params, table.matrix[lo:hi])[0]
    return EmbeddingTable(table.ids, table.labels, emb)


def _normalize_rows(matrix):
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def _group_width(n, k):
    """Width w of the column groups knn_predict bounds each row with:
    about sqrt(n / k), and never so wide that fewer than k groups of w
    fit in n columns."""
    return math.isqrt(n // k)


def _nearest(sims, hits, bound, w, spare, k):
    """(similarities, gallery columns) of each row's k neighbors in order,
    from the similarity rows `sims`, their group hits and bounds."""
    rows, g = hits.shape
    # candidates: every column of a group that reaches the bound, and
    # every column past the groups, kept if at or above the bound
    hit_rows, hit_groups = np.nonzero(hits)
    cand_rows = np.concatenate([np.repeat(hit_rows, w),
                                np.repeat(np.arange(rows), len(spare))])
    cand_cols = np.concatenate([
        (hit_groups[:, None] + g * np.arange(w)).ravel(),
        np.tile(spare, rows)])
    cand_sims = sims[cand_rows, cand_cols]
    above = cand_sims >= bound[cand_rows]
    cand_rows, cand_cols = cand_rows[above], cand_cols[above]
    cand_sims = cand_sims[above]
    # ordered by (row, -similarity, gallery index): the first k of a
    # row are its neighbors, so similarity ties keep the lower index; a
    # row's candidates start after those of the rows before it
    order = np.lexsort((cand_cols, -cand_sims, cand_rows))
    counts = np.bincount(cand_rows, minlength=rows)
    keep = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return cand_sims[keep], cand_cols[keep]


def knn_predict(gallery, queries, k):
    """Majority vote among the k most cosine-similar gallery items.

    Neighbor order is by descending similarity with gallery index as
    the tie key.  Vote ties go to the class whose in-k members sit at
    the smaller mean cosine distance, then to the smaller class id.

    Queries run in near-equal chunks of at most KNN_CHUNK rows, through
    one KNN_CHUNK x N float64 similarity block allocated once per call.
    The first g*w columns fall into g interleaved groups of width w
    (column i*g + j is in group j, w from _group_width), and one max over
    each group gives g group maxima per row.  k distinct groups hold an
    item at or above the k-th largest group maximum, so it bounds the
    row's k-th largest similarity from below: every neighbor sits in a
    group whose maximum reaches the bound or in the last n - g*w
    columns, and only those items are sorted.  A chunk holding more than
    one candidate per eight slots of the block, as when every group of
    a tied gallery reaches the bound, is sorted in runs of rows that
    keep within that budget, so the candidates' arrays (about eight
    8-byte values each) fit in about one block.  Votes count over the
    distinct gallery labels, so taxon ids may be arbitrary.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if gallery.n == 0:
        raise ValueError("empty gallery")
    if k > gallery.n:
        raise ValueError(f"k={k} exceeds gallery size {gallery.n}")
    if gallery.matrix.shape[1] != queries.matrix.shape[1]:
        raise ValueError("gallery/query embedding dims differ")

    n = gallery.n
    w = _group_width(n, k)
    g = n // w
    grouped, spare = g * w, np.arange(g * w, n)
    normed = _normalize_rows(gallery.matrix)
    # compact class codes: votes are sized by the distinct labels, never
    # by the largest taxon id; codes sort like the ids they stand for
    classes, codes = np.unique(gallery.labels, return_inverse=True)
    out = np.empty(queries.n, dtype=np.int64)
    sims_block = np.empty((min(queries.n, KNN_CHUNK), n))
    budget = sims_block.size // 8  # candidates sorted at once
    for lo, hi in _blocks(queries.n, KNN_CHUNK):
        rows = hi - lo
        sims = sims_block[:rows]
        np.matmul(_normalize_rows(queries.matrix[lo:hi]), normed.T, out=sims)
        group_max = sims[:, :grouped].reshape(rows, w, g).max(axis=1)
        bound = np.partition(group_max, g - k, axis=1)[:, g - k]
        hits = group_max >= bound[:, None]
        neigh_sims, neigh_cols = np.empty((rows, k)), np.empty((rows, k), int)
        # candidates per row; a chunk over the budget is sorted in runs
        sizes = hits.sum(axis=1) * w + len(spare)
        step = max(1, rows if sizes.sum() <= budget else budget // sizes.max())
        for a in range(0, rows, step):
            run = slice(a, a + step)
            neigh_sims[run], neigh_cols[run] = _nearest(
                sims[run], hits[run], bound[run], w, spare, k)
        neigh_codes = codes[neigh_cols]
        votes = np.zeros((rows, len(classes)), dtype=np.int64)
        np.add.at(votes, (np.arange(rows)[:, None], neigh_codes), 1)
        top = votes == votes.max(axis=1, keepdims=True)
        pred = np.argmax(top, axis=1)
        for r in np.flatnonzero(top.sum(axis=1) > 1):
            # vote tie: smaller mean cosine distance of the tied classes'
            # members within the k, then smaller class id
            pred[r] = min(np.flatnonzero(top[r]), key=lambda c: (
                float(np.mean(1.0 - neigh_sims[r][neigh_codes[r] == c])), c))
        out[lo:hi] = classes[pred]
    return out


@dataclass
class MetricsReport:
    """Accuracy breakdown; tail/head are None when no class qualifies.
    Row i of `confusion` and entry i of `per_class` are taxon `taxa[i]`."""

    overall: float
    macro: float
    tail: object
    head: object
    per_class: list
    confusion: np.ndarray
    tail_threshold: int
    head_threshold: int
    n_test: int
    taxa: list
    k: object = None
    alignment: dict = field(default_factory=dict)

    def to_dict(self):
        """The fields as JSON values; `alignment` only when set."""
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["confusion"] = self.confusion.tolist()
        if not self.alignment:
            del obj["alignment"]
        return obj


def compute_metrics(predictions, truth, train_counts, k=None):
    """Confusion matrix plus overall/macro/tail/head accuracy.

    Classes are 0..len(train_counts)-1, which the report's `taxa` lists
    (a caller that coded its taxon ids sets `taxa` to them).
    `train_counts[c]` is class c's training sample count; it decides
    tail (< TAIL_THRESHOLD) and head (> HEAD_THRESHOLD) membership.
    Macro-style means run over classes with at least one test sample;
    an empty tail or head set is reported as None, never as 0.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    train_counts = np.asarray(train_counts, dtype=np.int64)
    if predictions.shape != truth.shape or predictions.ndim != 1:
        raise ValueError("predictions and truth must be equal-length vectors")
    if predictions.size == 0:
        raise ValueError("no test items")
    n_classes = len(train_counts)
    if truth.max() >= n_classes or predictions.max() >= n_classes:
        raise ValueError("class id out of range of train_counts")
    if truth.min() < 0 or predictions.min() < 0:
        raise ValueError("negative class id")

    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (truth, predictions), 1)

    test_counts = confusion.sum(axis=1)
    present = test_counts > 0
    recalls = np.full(n_classes, np.nan)
    recalls[present] = np.diag(confusion)[present] / test_counts[present]

    overall = float(np.trace(confusion) / confusion.sum())
    macro = float(np.mean(recalls[present]))

    def group_mean(mask):
        mask = mask & present
        return float(np.mean(recalls[mask])) if np.any(mask) else None

    tail = group_mean(train_counts < TAIL_THRESHOLD)
    head = group_mean(train_counts > HEAD_THRESHOLD)
    per_class = [None if np.isnan(r) else float(r) for r in recalls]
    return MetricsReport(overall, macro, tail, head, per_class, confusion,
                         TAIL_THRESHOLD, HEAD_THRESHOLD,
                         int(predictions.size), list(range(n_classes)), k)


def class_centroids(table):
    """Per-class arithmetic-mean embeddings -> (sorted class ids, (C, E))."""
    class_ids = sorted(int(c) for c in np.unique(table.labels))
    cents = np.stack([table.matrix[table.labels == c].mean(axis=0)
                      for c in class_ids])
    return class_ids, cents


def centroid_distance_matrix(table):
    """Cosine distance (1 - cos) between class centroids.

    Returns (sorted class ids, C x C symmetric matrix with zero diagonal).
    """
    class_ids, cents = class_centroids(table)
    norms = np.linalg.norm(cents, axis=1)
    if np.any(norms == 0):
        bad = class_ids[int(np.argmin(norms))]
        raise ValueError(f"class {bad} centroid has zero norm; cosine undefined")
    normed = cents / norms[:, None]
    dist = 1.0 - normed @ normed.T
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return class_ids, dist


def anchor_centroid_cosines(table, anchors):
    """Mean cosine between each class centroid and its genetic anchor.

    `anchors` is a {taxon: 256-vector} dict.  Returns (mean cosine,
    {taxon: cosine}).  The quantity stage 2 is supposed to push up.
    """
    class_ids, cents = class_centroids(table)
    cosines = {}
    for cid, a, cent in zip(class_ids, sgt.anchor_rows(anchors, class_ids),
                            cents):
        denom = np.linalg.norm(a) * np.linalg.norm(cent)
        if denom == 0:
            raise ValueError(f"zero-norm centroid or anchor for class {cid}")
        cosines[cid] = float(np.dot(a, cent) / denom)
    mean = float(np.mean([cosines[c] for c in class_ids]))
    return mean, cosines


@dataclass
class Layout2D:
    coords: np.ndarray
    stress: float
    n_iters: int

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("non-finite layout coordinates")
        if self.stress < 0:
            raise ValueError("stress cannot be negative")


def _stress_and_grad(points, dist, weights):
    diff = points[:, None, :] - points[None, :, :]
    norms = np.linalg.norm(diff, axis=2)
    err = norms - dist
    stress = 0.5 * float(np.sum(weights * err ** 2))  # each pair counted twice
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(norms[:, :, None] > 0, diff / norms[:, :, None], 0.0)
    grad = 2.0 * np.sum((weights * err)[:, :, None] * unit, axis=1)
    return stress, grad


def _descend(points, dist, weights, iters, tol):
    """Gradient descent with a backtracking line search from one start.
    Returns (points, stress, iterations taken); accepted steps never
    increase the stress."""
    stress, grad = _stress_and_grad(points, dist, weights)
    step = 0.1
    done_iters = 0
    for it in range(int(iters)):
        gnorm2 = float(np.sum(grad ** 2))
        if gnorm2 == 0:
            break
        # sufficient decrease: f(p - s g) <= f(p) - 1e-4 s |g|^2
        accepted = False
        s = step
        while s > 1e-18:
            cand = points - s * grad
            cand_stress, cand_grad = _stress_and_grad(cand, dist, weights)
            if cand_stress <= stress - 1e-4 * s * gnorm2:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
        done_iters = it + 1
        improvement = stress - cand_stress
        rel = improvement / stress if stress > 0 else 0.0
        points, stress, grad = cand, cand_stress, cand_grad
        step = s * 2.0
        if rel < tol or stress == 0.0:
            break
    return points, stress, done_iters


def kamada_kawai_layout(dist, iters=2000, tol=1e-12, seed=0):
    """Press a distance matrix into 2-D by minimizing weighted stress.

    E = sum over pairs i<j of w_ij (||p_i - p_j|| - d_ij)^2 with
    w_ij = d_ij^-2 (zero-distance pairs get weight 0, they carry no
    scale information).  Each start is a seeded draw on the unit disk
    followed by gradient descent with a backtracking line search
    (sufficient-decrease test, step halving, step doubling after each
    accepted move), stopping at `iters` or when the relative improvement
    drops below `tol`.  The stress landscape has local minima (a square
    can collapse into a crossed quadrilateral), so up to LAYOUT_RESTARTS
    starts are tried, all drawn from one generator seeded with `seed`,
    and the lowest-stress layout wins; the search ends early once a
    start lands at machine-zero stress.  n_iters on the result sums the
    iterations over every start actually run.  `iters` and `tol` must be
    >= 0 (a NaN `tol` is refused too).
    """
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    dist = np.asarray(dist, dtype=np.float64)
    n = dist.shape[0]
    if dist.ndim != 2 or dist.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if np.any(dist < 0):
        raise ValueError("negative distances")
    if not np.allclose(dist, dist.T, atol=1e-12):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.diag(dist) != 0):
        raise ValueError("distance matrix diagonal must be zero")
    if n == 1:
        return Layout2D(np.zeros((1, 2)), 0.0, 0)

    with np.errstate(divide="ignore"):
        weights = np.where(dist > 0, dist ** -2.0, 0.0)
    np.fill_diagonal(weights, 0.0)

    rng = np.random.default_rng(seed)
    best_points, best_stress = None, np.inf
    total_iters = 0
    for _ in range(LAYOUT_RESTARTS):
        # uniform on the unit disk
        radius = np.sqrt(rng.random(n))
        angle = 2.0 * np.pi * rng.random(n)
        points = np.column_stack([radius * np.cos(angle),
                                  radius * np.sin(angle)])
        points, stress, done_iters = _descend(points, dist, weights,
                                              iters, tol)
        total_iters += done_iters
        if stress < best_stress:
            best_points, best_stress = points, stress
        if best_stress <= 1e-12:
            break
    return Layout2D(best_points, best_stress, total_iters)


def write_layout_csv(class_ids, layout, path):
    """CSV rows ``class_id,x,y,stress`` (stress repeated, it is global)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("class_id,x,y,stress\n")
        for cid, (x, y) in zip(class_ids, layout.coords):
            fh.write(f"{cid},{float(x)!r},{float(y)!r},{layout.stress!r}\n")
