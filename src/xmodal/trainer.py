"""Two-stage training of the projection head.

The losses live in `losses` (softmax_rtl_batch, cosine_align_batch);
this module samples the batches and runs the one SGD loop that both
stages call, each with its own batch draw and batch loss.

Stage 1 (metric pretraining): uniform random triplets, per batch the
anchor's logits feed a cross-entropy term and the three embeddings feed
a reciprocal-triplet term, mixed with weight lambda.  With LTR enabled
every SGD step applies weight decay and is followed by a max-norm
projection of the classifier rows, the pair of balance devices that
keeps head classes from crowding out the tail.

Stage 2 (cross-modal alignment): each triplet pairs a fixed genetic
anchor, given as a {taxon: vector} dict, with one same-taxon and one
different-taxon visual embedding under the cosine loss.  Taxa are
sampled uniformly, so a taxon with ten images gets the same pull toward
its anchor as one with a thousand, which is where the tail recovery
comes from.  The classifier layer is frozen throughout stage 2; only
the projection layers move.

A run holds one float64 master head and trains it in place: stage 1
builds its head with init_head, and stage 2 trains the head it is given
and returns that same object, so a caller that still needs the stage-1
head copies or saves it first.  Forward and backward run in float32 on
a working copy of the master: copied once per run, then kept equal to
the master's float32 cast by sgd_step, which writes each updated block
into it, and by writing the Wc of each capping max-norm into both heads;
no step copies a whole head.  The SGD update, max-norm and the returned
head stay float64 (the usual mixed-precision split).  Both stages enter
through _class_index, which checks features and labels before anything
is drawn, init_head's weights included, and builds the one class index
both draw from.  No float32 copy of the features is held: the range
check is a whole-array min and max; each batch casts the rows it gathers.

Everything is driven by seeded generators in a documented draw order
(per triplet: anchor, positive, negative in stage 1; taxon, positive,
negative in stage 2), so a (config, data, seed) tuple fully determines
the resulting checkpoint.  The loop draws each batch right before its
step, so a run holds one batch at a time whatever its epochs.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import dataio, embednet, losses, sgt
from .seeds import derive_seed


@dataclass
class TrainConfig(dataio.JsonConfig):
    limits = {"lr": (">= 0",), "batch_size": (">= 1",),
              "epochs_stage1": (">= 0",), "epochs_stage2": (">= 0",),
              "mix_lambda": (">= 0",), "weight_decay": (">= 0",),
              "maxnorm_delta": ("> 0",), "d_in": (">= 1",), "hidden": (">= 1",),
              "embed_dim": (">= 1",), "init_scale": ("> 0",),
              "classifier_init_scale": ("> 0",)}

    lr: float = 0.01
    batch_size: int = 64
    epochs_stage1: int = 20
    epochs_stage2: int = 5
    mix_lambda: float = 0.01
    margin_m: float = 0.5
    weight_decay: float = 5e-3
    maxnorm_delta: float = 1.0
    ltr_enabled: bool = True
    align_enabled: bool = True
    seed: int = 0
    d_in: int = 2048
    hidden: int = 1000
    embed_dim: int = 256
    init_scale: float = 0.18
    classifier_init_scale: float = 0.35

    def __post_init__(self):
        super().__post_init__()
        if self.align_enabled and self.embed_dim != 256:
            raise ValueError(
                "alignment needs embed_dim equal to the genetic embedding"
                f" dim 256, got {self.embed_dim}")


@dataclass
class TrainHistory:
    stage: str
    entries: list = field(default_factory=list)

    def record(self, epoch, mean_loss, components):
        if not np.isfinite(mean_loss):
            raise ValueError(f"non-finite epoch loss {mean_loss}")
        self.entries.append({
            "epoch": int(epoch),
            "mean_loss": float(mean_loss),
            "components": {k: float(v) for k, v in components.items()},
        })


# float64 values at or beyond this one round to +-inf in float32: it is
# halfway between float32's largest value, 2**128 - 2**104, and 2**128
_FLOAT32_LIMIT = 2.0**128 - 2.0**103
# doubles of feature rows taken at a time (256 KB): a block of a batch
# stays in cache between its gather and its float32 cast
_ROW_BLOCK = 1 << 15
ClassIndex = namedtuple("ClassIndex", "taxa codes members others eligible")


def _class_index(train_features, labels, d_in):
    """Both stages' checked front door: (float64 features, ClassIndex).
    Before anything is drawn it refuses, in order, labels not aligned
    with the rows, a width other than `d_in` (embednet's one check), a
    value that a batch's float32 cast makes non-finite (a whole-array
    min and max, which NaN fails; an empty table passes) and one class.
    The index holds the sorted taxa, each item's code (its taxon's place
    in taxa), each class's ascending members and complement, and the
    stage-1 anchors: the items whose class has >= 2 members."""
    x = np.asarray(train_features, dtype=np.float64)
    if x.ndim != 2 or np.shape(labels) != x.shape[:1]:
        raise ValueError("features must be (N, D) aligned with labels")
    embednet._check_width(x.shape[1], d_in)
    if not (-_FLOAT32_LIMIT < x.min(initial=0.0)
            and x.max(initial=0.0) < _FLOAT32_LIMIT):
        raise ValueError(
            "training features are non-finite or exceed the float32 range")
    taxa, codes, counts = np.unique(labels, return_inverse=True,
                                    return_counts=True)
    if taxa.size < 2:
        raise ValueError("training needs >= 2 classes")
    return x, ClassIndex(
        taxa, codes, [np.flatnonzero(codes == c) for c in range(taxa.size)],
        [np.flatnonzero(codes != c) for c in range(taxa.size)],
        np.flatnonzero(counts[codes] >= 2))


def sample_triplets(index, batch_size, rng):
    """Uniform random triplets (anchor_idx, pos_idx, neg_idx) from the
    class index that _class_index builds once per run.

    Anchors are uniform over items whose class has at least 2 samples,
    the positive is uniform over the anchor's classmates, the negative
    uniform over everything else.  Draw order per triplet: anchor,
    positive, negative.
    """
    triplets = []
    for _ in range(int(batch_size)):
        a = int(index.eligible[rng.integers(index.eligible.size)])
        c = index.codes[a]
        same = index.members[c]
        # j indexes the classmates with `a` left out
        j = int(rng.integers(same.size - 1))
        p = int(same[j] if same[j] < a else same[j + 1])
        diff = index.others[c]
        n = int(diff[rng.integers(diff.size)])
        triplets.append((a, p, n))
    return triplets


def _float32_rows(x, rows):
    """x[rows] cast to float32, with the bits x[rows].astype(np.float32)
    gives, but gathered a block of rows at a time, so no float64 copy of
    the whole batch is made."""
    out = np.empty((rows.size, x.shape[1]), np.float32)
    step = max(1, _ROW_BLOCK // x.shape[1])
    for lo in range(0, rows.size, step):
        out[lo:lo + step] = x[rows[lo:lo + step]]
    return out


def _apply_maxnorm(params, delta, scope):
    """The stage-1 cap on classifier rows (`scope` is "classifier"):
    `params` itself when no row is over delta, else the capped Wc alone
    (embednet.maxnorm_project); `params` is never written here."""
    return embednet.maxnorm_project(params, delta)


def _check_loss(value, stage, epoch, batch_idx, components):
    if not np.isfinite(value):
        parts = ", ".join(f"{k}={v!r}" for k, v in components.items())
        raise ArithmeticError(
            f"{stage}: non-finite loss {value!r} at epoch {epoch},"
            f" batch {batch_idx} ({parts})")


def _sgd_loop(stage, config, params, x, draw, batch_loss,
              frozen_classifier=False):
    """Train the head `params` in place on the (N, D) float64 features
    `x` for the stage's epochs; returns (params, TrainHistory).  `draw()`
    gives one batch, (rows of `x`, key), and is called right before that
    batch's step.  `batch_loss(key, embedding, logits)` gives
    (loss, {component: value}, d_embedding row blocks, d_logits).
    ltr_enabled turns on weight decay and, unless the classifier is
    frozen, the max-norm cap after each step.  `x` comes checked from
    _class_index."""
    epochs = getattr(config, f"epochs_{stage}")
    batches = -(-x.shape[0] // config.batch_size)
    wd = config.weight_decay if config.ltr_enabled else 0.0
    work = embednet.HeadParams.empty(params.dims, np.float32)
    grads = embednet.HeadParams.empty(params.dims, np.float32)
    scratch = np.empty(embednet.SGD_BLOCK)
    np.copyto(work.flat, params.flat)
    history = TrainHistory(stage)
    for epoch in range(epochs):
        sums = 0.0  # the loss, then each component
        for batch_idx in range(batches):
            rows, key = draw()
            emb, logits, cache = embednet.forward(
                work, _float32_rows(x, rows))
            loss, parts, d_emb, d_log = batch_loss(key, emb, logits)
            _check_loss(loss, stage, epoch, batch_idx, parts)
            embednet.backward(cache, np.concatenate(d_emb), d_log, out=grads)
            embednet.sgd_step(params, grads, config.lr, wd,
                              projection_only=frozen_classifier,
                              scratch=scratch, work=work)
            if config.ltr_enabled and not frozen_classifier:
                capped = _apply_maxnorm(params, config.maxnorm_delta,
                                        "classifier")
                if capped is not params:  # the cap moves Wc alone
                    np.copyto(params.Wc, capped.Wc)
                    np.copyto(work.Wc, capped.Wc)
            sums += np.array((loss, *parts.values()))
        mean = sums / batches
        history.record(epoch, mean[0], dict(zip(parts, mean[1:])))
    return params, history


def train_stage1(config, train_features, labels):
    """Metric pretraining; returns (HeadParams, TrainHistory).

    Classifier row i is the i-th smallest taxon id in `labels`.  The head
    is built by init_head from the config's dims, scales and
    derive_seed(seed, 'init'), then trained in place; the features need
    its d_in columns.  With ltr_enabled, weight decay is applied in every
    step and the max-norm projection follows each step; without it both
    devices are off, which is the naive baseline.
    """
    x, index = _class_index(train_features, labels, config.d_in)
    if index.eligible.size == 0:
        raise ValueError("no class has >= 2 samples; cannot form a positive pair")
    params = embednet.init_head(
        config.d_in, config.hidden, config.embed_dim, index.taxa.size,
        derive_seed(config.seed, "init"), scale=config.init_scale,
        classifier_scale=config.classifier_init_scale)
    rng = np.random.default_rng(derive_seed(config.seed, "stage1"))
    b = config.batch_size

    def draw():  # anchors, positives, negatives, and the anchors' classes
        rows = np.array(sample_triplets(index, b, rng)).T.ravel()
        return rows, index.codes[rows[:b]]

    def batch_loss(classes, emb, logits):
        loss, ce_part, rtl_part, d_logits_a, *d_emb = (
            losses.softmax_rtl_batch(logits[:b], classes, *np.split(emb, 3),
                                     config.mix_lambda))
        d_log = np.zeros_like(logits)
        d_log[:b] = d_logits_a
        return loss, {"softmax": ce_part, "rtl": rtl_part}, d_emb, d_log

    return _sgd_loop("stage1", config, params, x, draw, batch_loss)


def align_stage2(config, params, anchors, train_features, labels):
    """Cross-modal alignment of `params`, trained in place; returns
    (params, TrainHistory), the head being the object passed in.

    Per triplet a taxon is drawn uniformly among taxa present in the
    visual training set, its genetic anchor is the fixed anchor, and a
    same/different-taxon embedding pair completes the cosine triplet.
    Wc/bc never move here (stage 1's class geometry is kept intact for
    comparison); with ltr_enabled the projection weights keep their
    weight decay, but no max-norm is applied in this stage.
    """
    x, index = _class_index(train_features, labels, params.dims[0])
    anchor_mat = sgt.anchor_rows(anchors, index.taxa)
    if anchor_mat.shape[1] != params.dims[2]:
        raise ValueError(
            f"anchor dim {anchor_mat.shape[1]} != embedding dim {params.dims[2]}")
    if np.any(np.linalg.norm(anchor_mat, axis=1) == 0):
        raise ValueError("zero-norm genetic anchor has no direction")
    anchor32 = anchor_mat.astype(np.float32)
    rng = np.random.default_rng(derive_seed(config.seed, "stage2"))

    def draw():  # positives and negatives, and the anchors' taxon indices
        drawn = []  # (taxon index, positive, negative), in draw order
        for _ in range(config.batch_size):
            j = rng.integers(index.taxa.size)
            same, diff = index.members[j], index.others[j]
            drawn.append((j, same[rng.integers(same.size)],
                          diff[rng.integers(diff.size)]))
        taxa, *pos_neg = np.array(drawn).T
        return np.concatenate(pos_neg), taxa

    def batch_loss(taxa, emb, logits):
        loss, *d_emb = losses.cosine_align_batch(
            anchor32[taxa], *np.split(emb, 2), config.margin_m)
        return loss, {"cosine": loss}, d_emb, np.zeros_like(logits)

    return _sgd_loop("stage2", config, params, x, draw, batch_loss,
                     frozen_classifier=True)


def write_history(histories, path):
    """Write a list of TrainHistory objects as history.json."""
    dataio.write_json({h.stage: h.entries for h in histories}, path)
