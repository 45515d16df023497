"""Two-stage training of the projection head.

Stage 1 (metric pretraining): uniform random triplets, per batch the
anchor's logits feed a cross-entropy term and the three embeddings feed
a reciprocal-triplet term, mixed with weight lambda.  With LTR enabled
every SGD step applies weight decay and is followed by a max-norm
projection of the classifier rows, the pair of balance devices that
keeps head classes from crowding out the tail.

Stage 2 (cross-modal alignment): each triplet pairs a fixed genetic
anchor with one same-taxon and one different-taxon visual embedding
under the cosine loss.  Taxa are sampled uniformly, so a taxon with ten
images gets the same pull toward its anchor as one with a thousand,
which is where the tail recovery comes from.  The classifier layer is
frozen throughout stage 2; only the projection layers move.

Forward and backward run in float32 on a working copy refreshed from
the float64 master head before every step; the SGD update, max-norm and
the returned head stay float64 (the usual mixed-precision split).

Everything is driven by seeded generators in a documented draw order
(per triplet: anchor, positive, negative in stage 1; taxon, positive,
negative in stage 2), so a (config, data, seed) tuple fully determines
the resulting checkpoint.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import embednet, losses
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
        if self.lr < 0:
            raise ValueError("lr must be non-negative")
        for name in ("batch_size", "d_in", "hidden", "embed_dim"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("epochs_stage1", "epochs_stage2"):
            if int(getattr(self, name)) < 0:
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


def _stage1_batch_grads(logits_a, class_ids, e_a, e_p, e_n, mix_lambda):
    """Mean Eq.-style loss over a triplet batch plus upstream gradients.

    Vectorized equivalent of calling losses.softmax_rtl per triplet and
    averaging (tests pin the equivalence).  Returns (mean loss, mean
    softmax part, mean rtl part, d_logits_a, d_e_a, d_e_p, d_e_n), the
    gradients already carrying the 1/B batch factor.
    """
    b = logits_a.shape[0]
    shifted = logits_a - logits_a.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    probs = np.exp(shifted - log_norm[:, None])
    rows = np.arange(b)
    ce = log_norm - shifted[rows, class_ids]

    diff_ap = e_a - e_p
    diff_an = e_a - e_n
    d_ap = np.linalg.norm(diff_ap, axis=1)
    d_an = np.linalg.norm(diff_an, axis=1)
    inv = 1.0 / (d_an + losses.RTL_EPS)
    rtl_vals = d_ap + inv

    # unit direction vectors; zero at coincident points (hinge-style subgradient)
    u_ap = np.divide(diff_ap, d_ap[:, None], out=np.zeros_like(diff_ap),
                     where=d_ap[:, None] > 0)
    u_an = np.divide(diff_an, d_an[:, None], out=np.zeros_like(diff_an),
                     where=d_an[:, None] > 0)

    d_logits = probs.copy()
    d_logits[rows, class_ids] -= 1.0
    d_logits /= b

    scale = mix_lambda / b
    inv2 = (inv * inv)[:, None]
    d_e_a = scale * (u_ap - inv2 * u_an)
    d_e_p = scale * (-u_ap)
    d_e_n = scale * (inv2 * u_an)

    mean_ce = float(ce.mean())
    mean_rtl = float(rtl_vals.mean())
    return (mean_ce + mix_lambda * mean_rtl, mean_ce, mean_rtl,
            d_logits, d_e_a, d_e_p, d_e_n)


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

    The head is initialized from derive_seed(seed, 'init') unless an
    existing `params` is passed in.  With ltr_enabled, weight decay is
    applied in every step and the max-norm projection follows each step;
    without it both devices are off, which is the naive baseline.
    """
    x = np.asarray(train_features, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] != labels.shape[0]:
        raise ValueError("features must be (N, D) aligned with labels")
    if x.shape[1] != config.d_in:
        raise ValueError(f"feature dim {x.shape[1]} != config d_in {config.d_in}")
    n_classes = int(labels.max()) + 1
    if n_classes < 2:
        raise ValueError("stage 1 needs >= 2 classes")

    if params is None:
        params = embednet.init_head(config.d_in, config.hidden, config.embed_dim,
                                    n_classes, derive_seed(config.seed, "init"),
                                    scale=config.init_scale,
                                    classifier_scale=config.classifier_init_scale)
    params, work, grads, scratch, batches = _run_setup(
        params, config.epochs_stage1, config.batch_size, x.shape[0])
    x32 = _float32_features(x)
    tables = _triplet_tables(labels)
    rng = np.random.default_rng(derive_seed(config.seed, "stage1"))
    wd = config.weight_decay if config.ltr_enabled else 0.0
    history = TrainHistory("stage1")

    for epoch in range(config.epochs_stage1):
        sums = np.zeros(3)  # loss, softmax part, rtl part
        for batch_idx in range(batches):
            trip = sample_triplets(labels, config.batch_size, rng, tables)
            rows = np.array(trip).T.ravel()  # anchors, positives, negatives
            np.copyto(work.flat, params.flat)
            emb, logits, cache = embednet.forward(work, x32[rows])
            b = len(trip)
            loss, ce_part, rtl_part, d_logits_a, *d_emb = _stage1_batch_grads(
                logits[:b], labels[rows[:b]], *np.split(emb, 3),
                config.mix_lambda)
            _check_loss(loss, "stage1", epoch, batch_idx,
                        {"softmax": ce_part, "rtl": rtl_part})
            d_log = np.zeros_like(logits)
            d_log[:b] = d_logits_a
            embednet.backward(cache, np.concatenate(d_emb), d_log, out=grads)
            embednet.sgd_step(params, grads, config.lr, wd, scratch=scratch)
            if config.ltr_enabled:
                params = _apply_maxnorm(params, config.maxnorm_delta,
                                        "classifier")
            sums += (loss, ce_part, rtl_part)
        mean = sums / batches
        history.record(epoch, mean[0], {"softmax": mean[1], "rtl": mean[2]})
    return params, history


def _anchor_matrix(anchors, present_taxa):
    """Anchors (list of GeneticAnchor or {taxon: vector}) -> (T, E) matrix
    indexable by taxon id.  Every taxon in `present_taxa` must have one."""
    items = (list(anchors.items()) if isinstance(anchors, dict)
             else [(a.taxon, a.vector) for a in anchors])
    by_taxon = {}
    for taxon, vec in items:
        taxon = int(taxon)
        if taxon in by_taxon:
            raise ValueError(f"duplicate anchor for taxon {taxon}")
        by_taxon[taxon] = np.asarray(vec, dtype=np.float64)
    missing = [int(t) for t in present_taxa if int(t) not in by_taxon]
    if missing:
        raise ValueError(f"missing anchors for present taxa {missing}")
    dim = len(next(iter(by_taxon.values())))
    size = max(max(by_taxon), max(int(t) for t in present_taxa)) + 1
    mat = np.zeros((size, dim))
    for taxon, vec in by_taxon.items():
        if vec.shape != (dim,):
            raise ValueError("anchor vectors must share one dimension")
        mat[taxon] = vec
    return mat


def _stage2_batch_grads(anchor_vecs, e_p, e_n, margin_m):
    """Mean cosine alignment loss over a batch plus gradients wrt pos/neg.

    Vectorized twin of losses.cosine_align (anchors constant); gradients
    carry the 1/B factor.
    """
    b = e_p.shape[0]
    na = np.linalg.norm(anchor_vecs, axis=1)
    npos = np.linalg.norm(e_p, axis=1)
    nneg = np.linalg.norm(e_n, axis=1)
    if np.any(npos == 0) or np.any(nneg == 0):
        raise ArithmeticError("zero-norm embedding in alignment batch")
    cos_p = np.einsum("ij,ij->i", anchor_vecs, e_p) / (na * npos)
    cos_n = np.einsum("ij,ij->i", anchor_vecs, e_n) / (na * nneg)
    hinge_on = cos_n > margin_m
    values = (1.0 - cos_p) + np.where(hinge_on, cos_n - margin_m, 0.0)

    grad_p = anchor_vecs / (na * npos)[:, None] - cos_p[:, None] * e_p / (npos ** 2)[:, None]
    grad_n = anchor_vecs / (na * nneg)[:, None] - cos_n[:, None] * e_n / (nneg ** 2)[:, None]
    d_e_p = -grad_p / b
    d_e_n = np.where(hinge_on[:, None], grad_n, 0.0) / b
    return float(values.mean()), d_e_p, d_e_n


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
    if np.any(np.linalg.norm(anchor_mat[present], axis=1) == 0):
        raise ValueError("zero-norm genetic anchor has no direction")
    per_taxon = {int(t): np.flatnonzero(labels == t) for t in present}
    other_taxa = {int(t): np.flatnonzero(labels != t) for t in present}

    params, work, grads, scratch, batches = _run_setup(
        params, config.epochs_stage2, config.batch_size, x.shape[0])
    x32, anchor32 = _float32_features(x), anchor_mat.astype(np.float32)
    rng = np.random.default_rng(derive_seed(config.seed, "stage2"))
    wd = config.weight_decay if config.ltr_enabled else 0.0
    history = TrainHistory("stage2")

    for epoch in range(config.epochs_stage2):
        loss_sum = 0.0
        for batch_idx in range(batches):
            drawn = []  # (taxon, positive, negative), drawn in that order
            for _ in range(config.batch_size):
                t = int(present[rng.integers(present.size)])
                p = per_taxon[t][rng.integers(per_taxon[t].size)]
                drawn.append((t, p, other_taxa[t][rng.integers(other_taxa[t].size)]))
            taxa, *pos_neg = np.array(drawn).T
            np.copyto(work.flat, params.flat)
            emb, _, cache = embednet.forward(work, x32[np.concatenate(pos_neg)])
            loss, *d_emb = _stage2_batch_grads(
                anchor32[taxa], *np.split(emb, 2), config.margin_m)
            _check_loss(loss, "stage2", epoch, batch_idx, {"cosine": loss})
            embednet.backward(cache, np.concatenate(d_emb),
                              np.zeros_like(cache.logits), out=grads)
            embednet.sgd_step(params, grads, config.lr, wd,
                              projection_only=True, scratch=scratch)
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
