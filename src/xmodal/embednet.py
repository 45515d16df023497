"""The trainable projection head.

Three fully connected layers map backbone visual features to the shared
embedding space and to class logits:

    a1 = relu(W1 x + b1)        (D -> H)
    e  = W2 a1 + b2             (H -> E, linear: the embedding must be
                                 free to point anywhere for cosine
                                 geometry, so no activation here)
    z  = Wc e + bc              (E -> C class logits)

Defaults follow the 2048 -> 1000 -> 256 shape.  Everything is float64;
forward/backward are exact (checked against finite differences), and
backward SUMS gradients over the batch.  Callers wanting a batch mean
scale the upstream gradients by 1/B, which keeps the chain rule plain.

sgd_step applies weight decay to the three weight matrices only, never
to biases.  maxnorm_project caps the L2 norm of each classifier row at
delta, the balance device that stops head classes from growing
oversized logit scales.
"""

import json
from dataclasses import dataclass

import numpy as np


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {name}")


@dataclass
class HeadParams:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    Wc: np.ndarray
    bc: np.ndarray

    def __post_init__(self):
        for name in FIELDS:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, arr)
            _check_finite(name, arr)
        h, d = self.W1.shape
        e = self.W2.shape[0]
        c = self.Wc.shape[0]
        if (self.b1.shape != (h,) or self.W2.shape != (e, h)
                or self.b2.shape != (e,) or self.Wc.shape != (c, e)
                or self.bc.shape != (c,)):
            raise ValueError("inconsistent parameter shapes")

    @property
    def dims(self):
        """(D, H, E, C)"""
        h, d = self.W1.shape
        return d, h, self.W2.shape[0], self.Wc.shape[0]

    def copy(self):
        return HeadParams(*(getattr(self, n).copy() for n in FIELDS))


FIELDS = ("W1", "b1", "W2", "b2", "Wc", "bc")


@dataclass
class GradientSet:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    Wc: np.ndarray
    bc: np.ndarray

    def __post_init__(self):
        for name in FIELDS:
            _check_finite(name, getattr(self, name))


@dataclass
class ForwardCache:
    """Everything backward needs: the params and each layer's tensors."""

    params: HeadParams
    x: np.ndarray
    z1: np.ndarray
    a1: np.ndarray
    embedding: np.ndarray
    logits: np.ndarray


def init_head(d_in, hidden, embed_dim, n_classes, seed, scale=1.0,
              classifier_scale=1.0):
    """Glorot-uniform weights (drawn W1, W2, Wc in that order from one
    seeded generator), zero biases.  Same seed, same params, bit for bit.

    scale multiplies the two projection matrices W1 and W2 only.  Under
    direction-sensitive losses the angular step size of a relu layer grows
    as its weight norm shrinks, so a scale below 1 lets short alignment
    schedules rotate the embedding much further, while leaving every
    cosine-based readout of the fresh head unchanged (relu is positively
    homogeneous, so scaling W1 and W2 rescales embeddings without moving
    their directions).

    classifier_scale multiplies Wc only.  Plain Glorot rows for a 256->16
    classifier start at norm ~1.4, already past a unit max-norm radius, so
    the projection would flatten every row on the first step.  A scale
    below 1 starts the rows inside the radius; norms then grow with class
    frequency during training and the cap engages only as rows reach it,
    which is the regime the balancing device is meant for.  Embeddings and
    any cosine readout of them are unaffected by this knob.
    """
    dims = (d_in, hidden, embed_dim, n_classes)
    if any(int(v) < 1 for v in dims):
        raise ValueError(f"all dimensions must be >= 1, got {dims}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if not classifier_scale > 0:
        raise ValueError(
            f"classifier_scale must be positive, got {classifier_scale}")
    d, h, e, c = (int(v) for v in dims)
    rng = np.random.default_rng(seed)

    def glorot(rows, cols):
        limit = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    return HeadParams(
        W1=scale * glorot(h, d), b1=np.zeros(h),
        W2=scale * glorot(e, h), b2=np.zeros(e),
        Wc=classifier_scale * glorot(c, e), bc=np.zeros(c),
    )


def forward(params, features):
    """Run the head on a (B, D) batch (a single D-vector is promoted to a
    batch of one).  Returns (embedding (B, E), logits (B, C), cache)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.dims[0]:
        raise ValueError(
            f"features must be (B, {params.dims[0]}), got {x.shape}"
        )
    _check_finite("features", x)
    z1 = x @ params.W1.T + params.b1
    a1 = np.maximum(z1, 0.0)
    embedding = a1 @ params.W2.T + params.b2
    logits = embedding @ params.Wc.T + params.bc
    return embedding, logits, ForwardCache(params, x, z1, a1, embedding, logits)


def backward(cache, d_embedding, d_logits):
    """Exact gradients of the forward map, summed over the batch.

    Either upstream gradient may be all zeros (e.g. a loss that never
    looks at logits).  The relu subgradient at exactly 0 is taken as 0.
    """
    p = cache.params
    d_e = np.asarray(d_embedding, dtype=np.float64)
    d_z = np.asarray(d_logits, dtype=np.float64)
    if d_e.ndim == 1:
        d_e = d_e[None, :]
    if d_z.ndim == 1:
        d_z = d_z[None, :]
    if d_e.shape != cache.embedding.shape or d_z.shape != cache.logits.shape:
        raise ValueError("upstream gradient shapes do not match the forward pass")

    d_Wc = d_z.T @ cache.embedding
    d_bc = d_z.sum(axis=0)
    d_e_total = d_e + d_z @ p.Wc

    d_W2 = d_e_total.T @ cache.a1
    d_b2 = d_e_total.sum(axis=0)

    d_a1 = d_e_total @ p.W2
    d_z1 = d_a1 * (cache.z1 > 0)
    d_W1 = d_z1.T @ cache.x
    d_b1 = d_z1.sum(axis=0)
    return GradientSet(d_W1, d_b1, d_W2, d_b2, d_Wc, d_bc)


WEIGHT_FIELDS = ("W1", "W2", "Wc")


def sgd_step(params, grads, lr, weight_decay=0.0):
    """One SGD update: p <- p - lr*(g + wd*p) on weight matrices, biases get
    no decay.  Returns new params; the input is untouched."""
    if lr < 0:
        raise ValueError(f"learning rate must be non-negative, got {lr}")
    if weight_decay < 0:
        raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
    out = {}
    for name in FIELDS:
        p = getattr(params, name)
        g = getattr(grads, name)
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch on {name}")
        wd = weight_decay if name in WEIGHT_FIELDS else 0.0
        out[name] = p - lr * (g + wd * p)
    return HeadParams(**out)


def maxnorm_rows(matrix, delta):
    """Rows with L2 norm above delta rescaled to norm delta; others kept.

    The tiny relative guard keeps the projection exactly idempotent: a
    freshly rescaled row lands within a few ulp of delta and must not be
    touched again.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    norms = np.linalg.norm(matrix, axis=1)
    over = norms > delta * (1.0 + 1e-12)
    if not np.any(over):
        return matrix
    out = matrix.copy()
    out[over] *= (delta / norms[over])[:, None]
    return out


def maxnorm_project(params, delta):
    """Cap the L2 norm of each classifier row at delta; other layers kept."""
    Wc = maxnorm_rows(params.Wc, delta)
    if Wc is params.Wc:
        return params
    return HeadParams(params.W1, params.b1, params.W2, params.b2, Wc, params.bc)


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def save_checkpoint(params, path, stage, seed_lineage=None):
    """Write params as JSON: dims, stage tag, seed lineage, full arrays.

    Floats are serialized via repr so load(save(p)) reproduces every bit.
    The file is the sorted-key, compact JSON of the whole checkpoint,
    written one array row at a time: json.dump of the whole object runs
    the pure-Python encoder, and one json.dumps holds all of its text
    (49 MB for a 2048 -> 1000 -> 256 head) in memory at once.
    """
    if stage not in ("stage1", "stage2"):
        raise ValueError(f"stage must be 'stage1' or 'stage2', got {stage!r}")
    d, h, e, c = params.dims
    dims = {"d_in": d, "hidden": h, "embed_dim": e, "n_classes": c}
    with open(path, "w", encoding="utf-8") as fh:
        # top-level keys in sorted order: dims, params, seed_lineage, stage
        fh.write('{"dims":' + _dumps(dims) + ',"params":{')
        for i, name in enumerate(sorted(FIELDS)):
            fh.write(("," if i else "") + _dumps(name) + ":[")
            for j, row in enumerate(getattr(params, name)):
                fh.write(("," if j else "") + _dumps(row.tolist()))
            fh.write("]")
        fh.write('},"seed_lineage":' + _dumps(seed_lineage or {})
                 + ',"stage":' + _dumps(stage) + "}\n")


def load_checkpoint(path, expect_dims=None):
    """Read a checkpoint -> (HeadParams, stage, seed_lineage).

    `expect_dims` is an optional (D, H, E, C) tuple; a mismatch against
    the stored dims raises rather than returning a head the caller's
    config cannot drive.  A file that is not valid JSON, lacks a field
    or holds arrays of the wrong shape raises one ValueError naming
    `path`.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        dims = obj["dims"]
        stored = (dims["d_in"], dims["hidden"], dims["embed_dim"],
                  dims["n_classes"])
        arrays = {name: np.array(obj["params"][name], dtype=np.float64)
                  for name in FIELDS}
        for name in ("b1", "b2", "bc"):
            arrays[name] = arrays[name].reshape(-1)
        params = HeadParams(**arrays)
        stage = obj["stage"]
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint has no field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint: {exc}") from None
    if expect_dims is not None and tuple(expect_dims) != stored:
        raise ValueError(
            f"checkpoint dims {stored} do not match expected {tuple(expect_dims)}"
        )
    if params.dims != stored:
        raise ValueError(f"{path}: stored arrays disagree with recorded dims")
    return params, stage, obj.get("seed_lineage", {})
