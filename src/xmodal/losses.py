"""Loss functions with exact gradients, each written once.

The two training losses are batch forms over B triplets, the code the
trainer runs: `softmax_rtl_batch` (stage 1) and `cosine_align_batch`
(stage 2).  They return the mean loss and gradients that already carry
the 1/B batch factor, and compute in the dtype of the embeddings they
are given.  The scalar `rtl`, `softmax_rtl` and `cosine_align` check
their arguments, then call the same code on a batch of one in float64,
so the finite-difference gate checks the arithmetic that trains.
Distances are Euclidean unless a loss says otherwise.  Hinge terms use
the inactive-side convention: the gradient at the kink is 0.

The five losses:

  contrastive   ((1-Y)/2) d + (Y/2) max(0, alpha - d), Y=1 for a
                different-class pair
  triplet       max(0, d_ap - d_an + alpha)
  rtl           d_ap + 1/(d_an + eps), the margin-free reciprocal form
  softmax_rtl   cross-entropy on logits plus lambda * rtl
  cosine_align  (1 - cos(anchor, pos)) + max(0, cos(anchor, neg) - m),
                anchor held constant
"""

from dataclasses import dataclass, field

import numpy as np

RTL_EPS = 1e-8


@dataclass
class LossValue:
    """Scalar loss plus gradients keyed by input name."""

    value: float
    grads: dict = field(default_factory=dict)

    def __post_init__(self):
        self.value = float(self.value)
        if not np.isfinite(self.value):
            raise ValueError(f"non-finite loss value {self.value}")


def _vectors(what, *xs):
    """`xs` as float64 vectors of one shape; ValueError naming `what`."""
    xs = [np.asarray(x, dtype=np.float64) for x in xs]
    if xs[0].ndim != 1 or any(x.shape != xs[0].shape for x in xs):
        raise ValueError(f"{what} must share one dimension,"
                         f" got shapes {[x.shape for x in xs]}")
    return xs


def _units(diff):
    """Row norms of `diff` and its unit rows; a zero row gets a zero
    direction (the subgradient at coincident points)."""
    d = np.linalg.norm(diff, axis=1)
    return d, np.divide(diff, d[:, None], out=np.zeros_like(diff),
                        where=d[:, None] > 0)


def contrastive(x1, x2, y, alpha):
    """Pairwise loss; y=0 pulls same-class pairs, y=1 pushes different-class
    pairs apart until their distance reaches alpha."""
    x1, x2 = _vectors("x1/x2", x1, x2)
    if y not in (0, 1):
        raise ValueError(f"Y must be 0 or 1, got {y!r}")
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    (d,), (dgrad,) = _units((x1 - x2)[None])
    if y == 0:
        value = 0.5 * d
        g1 = 0.5 * dgrad
    else:
        hinge = alpha - d
        if hinge > 0:
            value = 0.5 * hinge
            g1 = -0.5 * dgrad
        else:
            value = 0.0
            g1 = np.zeros_like(x1)
    return LossValue(value, {"x1": g1, "x2": -g1})


def triplet(x_a, x_p, x_n, alpha):
    """Margin triplet loss max(0, d_ap - d_an + alpha)."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    x_a, x_p, x_n = _vectors("anchor/positive/negative", x_a, x_p, x_n)
    (d_ap, d_an), (g_ap, g_an) = _units(np.stack([x_a - x_p, x_a - x_n]))
    raw = d_ap - d_an + alpha
    if raw > 0:
        return LossValue(raw, {
            "x_a": g_ap - g_an,
            "x_p": -g_ap,
            "x_n": g_an,
        })
    zero = np.zeros_like(x_a)
    return LossValue(0.0, {"x_a": zero, "x_p": zero.copy(), "x_n": zero.copy()})


def rtl_rows(e_a, e_p, e_n):
    """Row-wise reciprocal triplet loss d_ap + 1/(d_an + eps) of (B, E)
    anchors, positives and negatives: (values, d/de_a, d/de_p, d/de_n)."""
    d_ap, u_ap = _units(e_a - e_p)
    d_an, u_an = _units(e_a - e_n)
    inv = 1.0 / (d_an + RTL_EPS)
    # d/d(d_an) of 1/(d_an+eps) = -inv^2
    inv2 = (inv * inv)[:, None]
    return d_ap + inv, u_ap - inv2 * u_an, -u_ap, inv2 * u_an


def softmax_rtl_batch(logits, class_ids, e_a, e_p, e_n, mix_lambda):
    """Stage-1 loss over a triplet batch: mean cross-entropy of the
    anchors' (B, C) logits plus lambda times the mean RTL.

    Returns (mean loss, mean softmax part, mean rtl part, d_logits,
    d_e_a, d_e_p, d_e_n), the gradients already carrying the 1/B factor.
    """
    b = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    probs = np.exp(shifted - log_norm[:, None])
    rows = np.arange(b)
    ce = log_norm - shifted[rows, class_ids]
    rtl_vals, g_a, g_p, g_n = rtl_rows(e_a, e_p, e_n)

    d_logits = probs.copy()
    d_logits[rows, class_ids] -= 1.0
    d_logits /= b

    scale = mix_lambda / b
    mean_ce = float(ce.mean())
    mean_rtl = float(rtl_vals.mean())
    return (mean_ce + mix_lambda * mean_rtl, mean_ce, mean_rtl,
            d_logits, scale * g_a, scale * g_p, scale * g_n)


def cosine_align_batch(anchors, e_p, e_n, m):
    """Stage-2 loss over a batch: mean cosine alignment of (B, E)
    positives and negatives to their fixed anchors.

    Returns (mean loss, d_e_p, d_e_n), the gradients carrying the 1/B
    factor; a zero-norm embedding raises ArithmeticError.
    """
    b = e_p.shape[0]
    na = np.linalg.norm(anchors, axis=1)
    npos = np.linalg.norm(e_p, axis=1)
    nneg = np.linalg.norm(e_n, axis=1)
    if np.any(npos == 0) or np.any(nneg == 0):
        raise ArithmeticError("zero-norm embedding in alignment batch")
    cos_p = np.einsum("ij,ij->i", anchors, e_p) / (na * npos)
    cos_n = np.einsum("ij,ij->i", anchors, e_n) / (na * nneg)
    hinge_on = cos_n > m
    values = (1.0 - cos_p) + np.where(hinge_on, cos_n - m, 0.0)

    # d cos(a, x)/dx = a/(|a||x|) - cos * x/|x|^2
    grad_p = anchors / (na * npos)[:, None] - cos_p[:, None] * e_p / (npos ** 2)[:, None]
    grad_n = anchors / (na * nneg)[:, None] - cos_n[:, None] * e_n / (nneg ** 2)[:, None]
    d_e_p = -grad_p / b
    d_e_n = np.where(hinge_on[:, None], grad_n, 0.0) / b
    return float(values.mean()), d_e_p, d_e_n


def rtl(x_a, x_p, x_n):
    """Reciprocal triplet loss d_ap + 1/(d_an + eps): margin-free, pushes the
    negative away with force falling off as the square of its distance."""
    rows = _vectors("anchor/positive/negative", x_a, x_p, x_n)
    values, *grads = rtl_rows(*(r[None] for r in rows))
    return LossValue(values[0], {k: g[0] for k, g in
                                 zip(("x_a", "x_p", "x_n"), grads)})


def softmax_rtl(logits, class_id, x_a, x_p, x_n, mix_lambda):
    """Cross-entropy plus lambda-weighted RTL, the stage-1 training loss."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("logits must be a vector")
    class_id = int(class_id)
    if not 0 <= class_id < z.shape[0]:
        raise ValueError(f"class {class_id} out of range for {z.shape[0]} logits")
    if mix_lambda < 0:
        raise ValueError(f"lambda must be non-negative, got {mix_lambda}")
    rows = _vectors("anchor/positive/negative", x_a, x_p, x_n)
    value, _, _, *grads = softmax_rtl_batch(
        z[None], [class_id], *(r[None] for r in rows), mix_lambda)
    return LossValue(value, {k: g[0] for k, g in
                             zip(("logits", "x_a", "x_p", "x_n"), grads)})


def cosine_align(anchor, pos, neg, m):
    """Alignment loss: pull pos toward the anchor's direction, push neg away
    once its cosine exceeds the margin m.  The anchor is a fixed target;
    gradients flow to pos and neg only."""
    anchor, pos, neg = _vectors("anchor/pos/neg", anchor, pos, neg)
    if np.linalg.norm(anchor) == 0:
        raise ValueError("zero-norm anchor has no direction to align to")
    if np.linalg.norm(pos) == 0 or np.linalg.norm(neg) == 0:
        raise ValueError("zero-norm embedding: cosine undefined")
    value, g_pos, g_neg = cosine_align_batch(anchor[None], pos[None],
                                             neg[None], m)
    return LossValue(value, {"pos": g_pos[0], "neg": g_neg[0]})
