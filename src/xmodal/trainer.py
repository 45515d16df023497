"""Two-stage training of the projection head.

The losses live in `losses` (softmax_rtl_batch, cosine_align_batch);
this module samples the batches, runs the head and steps the weights.

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

Forward and backward run in float32 on a working copy of the float64
master head: copied once per run, then kept equal to the master's
float32 cast by sgd_step, which writes each updated block into it, and
by a refresh of its Wc after each capping max-norm.  The SGD update,
max-norm and the returned head stay float64 (the usual mixed-precision
split).

Everything is driven by seeded generators in a documented draw order
(per triplet: anchor, positive, negative in stage 1; taxon, positive,
negative in stage 2), so a (config, data, seed) tuple fully determines
the resulting checkpoint.  Each stage draws its whole schedule of
batches before its first step.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dataio, embednet, losses
from .seeds import derive_seed


@dataclass
class TrainConfig:
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
        dataio.check_field_types(self)
        if self.lr < 0:
            raise ValueError("lr must be non-negative")
        for name in ("batch_size", "d_in", "hidden", "embed_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("epochs_stage1", "epochs_stage2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("mix_lambda", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("maxnorm_delta", "init_scale", "classifier_init_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.align_enabled and self.embed_dim != 256:
            raise ValueError(
                "alignment needs embed_dim equal to the genetic embedding"
                f" dim 256, got {self.embed_dim}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, obj):
        unknown = set(obj) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


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

    def to_json(self):
        return {"stage": self.stage, "entries": self.entries}


def _triplet_tables(labels):
    """Validated index tables for sample_triplets: (labels, eligible
    anchors, ascending members and complement of each anchor class)."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size < 2:
        raise ValueError("need a 1-D label array with >= 2 items")
    classes, counts = np.unique(labels, return_counts=True)
    if classes.size < 2:
        raise ValueError("triplet sampling needs >= 2 classes")
    anchor_classes = classes[counts >= 2]
    eligible = np.flatnonzero(np.isin(labels, anchor_classes))
    if eligible.size == 0:
        raise ValueError("no class has >= 2 samples; cannot form a positive pair")
    members = {int(c): np.flatnonzero(labels == c) for c in anchor_classes}
    others = {int(c): np.flatnonzero(labels != c) for c in anchor_classes}
    return labels, eligible, members, others


def sample_triplets(labels, batch_size, rng, tables=None):
    """Uniform random triplets (anchor_idx, pos_idx, neg_idx).

    Anchors are uniform over items whose class has at least 2 samples,
    the positive is uniform over the anchor's classmates, the negative
    uniform over everything else.  Draw order per triplet: anchor,
    positive, negative.  `tables` is _triplet_tables(labels), which a
    training run builds once; without it they are built here.
    """
    labels, eligible, members, others = (
        _triplet_tables(labels) if tables is None else tables)
    triplets = []
    for _ in range(int(batch_size)):
        a = int(eligible[rng.integers(eligible.size)])
        c = int(labels[a])
        same = members[c]
        # j indexes the classmates with `a` left out
        j = int(rng.integers(same.size - 1))
        p = int(same[j] if same[j] < a else same[j + 1])
        diff = others[c]
        n = int(diff[rng.integers(diff.size)])
        triplets.append((a, p, n))
    return triplets


def _run_setup(params, epochs, batch_size, n_items):
    """(float64 master head, float32 working head, float32 gradient head,
    SGD scratch, batches per epoch) of one run; a run with epochs trains
    a copy of the master, so `params` is never written."""
    return (params.copy() if epochs else params,
            embednet.HeadParams.empty(params.dims, np.float32),
            embednet.HeadParams.empty(params.dims, np.float32),
            np.empty(embednet.SGD_BLOCK), -(-int(n_items) // int(batch_size)))


def _float32_features(x):
    """The (N, D) training features as float32, cast once per run."""
    with np.errstate(over="ignore"):
        x32 = x.astype(np.float32)
    if not np.all(np.isfinite(x32)):
        raise ValueError(
            "training features are non-finite or exceed the float32 range")
    return x32


def _apply_maxnorm(params, delta, scope):
    """The stage-1 cap on classifier rows (`scope` is "classifier"); a
    capping step returns a copy, so `params` is never written."""
    return embednet.maxnorm_project(params, delta)


def _check_loss(value, stage, epoch, batch_idx, components):
    if not np.isfinite(value):
        parts = ", ".join(f"{k}={v!r}" for k, v in components.items())
        raise ArithmeticError(
            f"{stage}: non-finite loss {value!r} at epoch {epoch},"
            f" batch {batch_idx} ({parts})")


def train_stage1(config, train_features, labels, params=None):
    """Metric pretraining; returns (HeadParams, TrainHistory).

    Classifier row i is the i-th smallest taxon id in `labels`.  The head
    is initialized from derive_seed(seed, 'init') unless an existing
    `params` is passed in.  With ltr_enabled, weight decay is applied in
    every step and the max-norm projection follows each step; without it
    both devices are off, which is the naive baseline.
    """
    x = np.asarray(train_features, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] != labels.shape[0]:
        raise ValueError("features must be (N, D) aligned with labels")
    if x.shape[1] != config.d_in:
        raise ValueError(f"feature dim {x.shape[1]} != config d_in {config.d_in}")
    taxa, codes = np.unique(labels, return_inverse=True)
    if taxa.size < 2:
        raise ValueError("stage 1 needs >= 2 classes")

    if params is None:
        params = embednet.init_head(config.d_in, config.hidden, config.embed_dim,
                                    taxa.size, derive_seed(config.seed, "init"),
                                    scale=config.init_scale,
                                    classifier_scale=config.classifier_init_scale)
    params, work, grads, scratch, batches = _run_setup(
        params, config.epochs_stage1, config.batch_size, x.shape[0])
    x32 = _float32_features(x)
    tables = _triplet_tables(codes)
    rng = np.random.default_rng(derive_seed(config.seed, "stage1"))
    wd = config.weight_decay if config.ltr_enabled else 0.0
    history = TrainHistory("stage1")

    # the whole run's batches, drawn before any step: anchors, positives,
    # negatives of each batch
    schedule = [np.array(sample_triplets(codes, config.batch_size, rng,
                                         tables)).T.ravel()
                for _ in range(config.epochs_stage1 * batches)]
    np.copyto(work.flat, params.flat)
    for epoch in range(config.epochs_stage1):
        sums = np.zeros(3)  # loss, softmax part, rtl part
        for batch_idx in range(batches):
            rows = schedule[epoch * batches + batch_idx]
            emb, logits, cache = embednet.forward(work, x32[rows])
            b = config.batch_size
            loss, ce_part, rtl_part, d_logits_a, *d_emb = (
                losses.softmax_rtl_batch(logits[:b], codes[rows[:b]],
                                         *np.split(emb, 3), config.mix_lambda))
            _check_loss(loss, "stage1", epoch, batch_idx,
                        {"softmax": ce_part, "rtl": rtl_part})
            d_log = np.zeros_like(logits)
            d_log[:b] = d_logits_a
            embednet.backward(cache, np.concatenate(d_emb), d_log, out=grads)
            embednet.sgd_step(params, grads, config.lr, wd, scratch=scratch,
                              work=work)
            if config.ltr_enabled:
                params = _apply_maxnorm(params, config.maxnorm_delta,
                                        "classifier")
                np.copyto(work.Wc, params.Wc)  # the cap moves Wc alone
            sums += (loss, ce_part, rtl_part)
        mean = sums / batches
        history.record(epoch, mean[0], {"softmax": mean[1], "rtl": mean[2]})
    return params, history


def _anchor_matrix(anchors, present_taxa):
    """{taxon: vector} anchors -> (T, E) matrix whose row i is the anchor
    of the i-th taxon of sorted `present_taxa`, so its size never follows
    the taxon ids.  Every present taxon must have an anchor."""
    by_taxon = {int(t): np.asarray(vec, dtype=np.float64)
                for t, vec in anchors.items()}
    missing = [int(t) for t in present_taxa if int(t) not in by_taxon]
    if missing:
        raise ValueError(f"missing anchors for present taxa {missing}")
    dim = len(next(iter(by_taxon.values())))
    if any(vec.shape != (dim,) for vec in by_taxon.values()):
        raise ValueError("anchor vectors must share one dimension")
    return np.array([by_taxon[t] for t in sorted(int(t) for t in present_taxa)])


def align_stage2(config, params, anchors, train_features, labels):
    """Cross-modal alignment; returns (HeadParams, TrainHistory).

    Per triplet a taxon is drawn uniformly among taxa present in the
    visual training set, its genetic anchor is the fixed anchor, and a
    same/different-taxon embedding pair completes the cosine triplet.
    Wc/bc never move here (stage 1's class geometry is kept intact for
    comparison); with ltr_enabled the projection weights keep their
    weight decay, but no max-norm is applied in this stage.
    """
    x = np.asarray(train_features, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] != labels.shape[0]:
        raise ValueError("features must be (N, D) aligned with labels")
    present = np.unique(labels)
    if present.size < 2:
        raise ValueError("stage 2 needs >= 2 taxa present")
    anchor_mat = _anchor_matrix(anchors, present)
    if anchor_mat.shape[1] != params.dims[2]:
        raise ValueError(
            f"anchor dim {anchor_mat.shape[1]} != embedding dim {params.dims[2]}")
    if np.any(np.linalg.norm(anchor_mat, axis=1) == 0):
        raise ValueError("zero-norm genetic anchor has no direction")
    per_taxon = {int(t): np.flatnonzero(labels == t) for t in present}
    other_taxa = {int(t): np.flatnonzero(labels != t) for t in present}

    params, work, grads, scratch, batches = _run_setup(
        params, config.epochs_stage2, config.batch_size, x.shape[0])
    x32, anchor32 = _float32_features(x), anchor_mat.astype(np.float32)
    rng = np.random.default_rng(derive_seed(config.seed, "stage2"))
    wd = config.weight_decay if config.ltr_enabled else 0.0
    history = TrainHistory("stage2")

    def draw_batch():
        drawn = []  # (taxon index, positive, negative), in draw order
        for _ in range(config.batch_size):
            j = rng.integers(present.size)
            t = int(present[j])
            p = per_taxon[t][rng.integers(per_taxon[t].size)]
            drawn.append((j, p, other_taxa[t][rng.integers(other_taxa[t].size)]))
        return np.array(drawn).T

    # the whole run's batches, drawn before any step
    schedule = [draw_batch() for _ in range(config.epochs_stage2 * batches)]
    np.copyto(work.flat, params.flat)
    for epoch in range(config.epochs_stage2):
        loss_sum = 0.0
        for batch_idx in range(batches):
            taxa, *pos_neg = schedule[epoch * batches + batch_idx]
            emb, _, cache = embednet.forward(work, x32[np.concatenate(pos_neg)])
            loss, *d_emb = losses.cosine_align_batch(
                anchor32[taxa], *np.split(emb, 2), config.margin_m)
            _check_loss(loss, "stage2", epoch, batch_idx, {"cosine": loss})
            embednet.backward(cache, np.concatenate(d_emb),
                              np.zeros_like(cache.logits), out=grads)
            embednet.sgd_step(params, grads, config.lr, wd,
                              projection_only=True, scratch=scratch, work=work)
            loss_sum += loss
        history.record(epoch, loss_sum / batches, {"cosine": loss_sum / batches})
    return params, history


def write_history(histories, path):
    """Write one or more TrainHistory objects as history.json."""
    if isinstance(histories, TrainHistory):
        histories = [histories]
    obj = {h.stage: h.to_json()["entries"] for h in histories}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
