"""Loss value and gradient tests against finite differences."""

import numpy as np
import pytest

from xmodal import losses, trainer
from xmodal.losses import (
    RTL_EPS,
    contrastive,
    cosine_align,
    cosine_align_batch,
    rtl,
    softmax_rtl,
    softmax_rtl_batch,
    triplet,
)

from oracles import finite_difference, relative_error

TOL = 1e-6


def test_contrastive_values():
    a = np.array([0.0, 0.0])
    b = np.array([3.0, 4.0])
    same = contrastive(a, b, y=0, alpha=1.0)
    assert same.value == pytest.approx(2.5)
    near_push = contrastive(a, b, y=1, alpha=6.0)
    assert near_push.value == pytest.approx(0.5)
    far_push = contrastive(a, b, y=1, alpha=2.0)
    assert far_push.value == 0.0
    assert np.all(far_push.grads["x1"] == 0.0)


def test_contrastive_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    for y in (0, 1):
        for _ in range(5):
            x1 = rng.normal(size=4)
            x2 = rng.normal(size=4)
            out = contrastive(x1, x2, y=y, alpha=3.0)
            fd1 = finite_difference(lambda v: contrastive(v, x2, y, 3.0).value, x1)
            fd2 = finite_difference(lambda v: contrastive(x1, v, y, 3.0).value, x2)
            assert relative_error(out.grads["x1"], fd1) < TOL
            assert relative_error(out.grads["x2"], fd2) < TOL


def test_contrastive_input_validation():
    a = np.zeros(3)
    with pytest.raises(ValueError):
        contrastive(a, a, y=2, alpha=1.0)
    with pytest.raises(ValueError):
        contrastive(a, a, y=0, alpha=0.0)
    with pytest.raises(ValueError):
        contrastive(a, np.zeros(4), y=0, alpha=1.0)


def test_triplet_values_and_inactive_region():
    a = np.array([0.0, 0.0])
    p = np.array([1.0, 0.0])
    n = np.array([5.0, 0.0])
    active = triplet(a, p, n, alpha=10.0)
    assert active.value == pytest.approx(1.0 - 5.0 + 10.0)
    inactive = triplet(a, p, n, alpha=0.5)
    assert inactive.value == 0.0
    for g in inactive.grads.values():
        assert np.all(g == 0.0)


def test_triplet_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(8):
        a, p, n = rng.normal(size=(3, 5))
        out = triplet(a, p, n, alpha=2.0)
        if out.value == 0.0:
            continue
        for name, point in (("x_a", a), ("x_p", p), ("x_n", n)):
            def f(v, name=name):
                args = {"x_a": a, "x_p": p, "x_n": n}
                args[name] = v
                return triplet(args["x_a"], args["x_p"], args["x_n"], 2.0).value
            assert relative_error(out.grads[name], finite_difference(f, point)) < TOL


def test_rtl_value():
    a = np.array([0.0, 0.0])
    p = np.array([2.0, 0.0])
    n = np.array([0.0, 4.0])
    out = rtl(a, p, n)
    assert out.value == pytest.approx(2.0 + 1.0 / (4.0 + RTL_EPS))


def test_rtl_has_no_margin_plateau():
    # even a very distant negative still contributes gradient
    a = np.zeros(3)
    p = np.ones(3)
    n = np.full(3, 100.0)
    out = rtl(a, p, n)
    assert np.any(out.grads["x_n"] != 0.0)


def test_rtl_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(8):
        a, p, n = rng.normal(size=(3, 6))
        out = rtl(a, p, n)
        for name, point in (("x_a", a), ("x_p", p), ("x_n", n)):
            def f(v, name=name):
                args = {"x_a": a, "x_p": p, "x_n": n}
                args[name] = v
                return rtl(args["x_a"], args["x_p"], args["x_n"]).value
            assert relative_error(out.grads[name], finite_difference(f, point)) < TOL


def log_softmax(logits):
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def test_log_softmax_stability():
    logits = np.array([1000.0, 1000.0, 999.0])
    a, p, n = np.eye(3)
    out = softmax_rtl(logits, 2, a, p, n, 0.0)
    assert out.value == pytest.approx(-log_softmax(logits)[2])
    probs = out.grads["logits"] + np.eye(3)[2]
    assert np.all(np.isfinite(probs)) and probs.sum() == pytest.approx(1.0)


def test_softmax_rtl_combines_terms():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=5)
    a, p, n = rng.normal(size=(3, 4))
    lam = 0.01
    out = softmax_rtl(logits, 2, a, p, n, lam)
    assert out.value == pytest.approx(-log_softmax(logits)[2]
                                      + lam * rtl(a, p, n).value)


def test_softmax_rtl_logit_gradient():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=6)
    a, p, n = rng.normal(size=(3, 4))
    out = softmax_rtl(logits, 1, a, p, n, 0.01)
    fd = finite_difference(
        lambda z: softmax_rtl(z, 1, a, p, n, 0.01).value, logits
    )
    assert relative_error(out.grads["logits"], fd) < TOL


def test_softmax_rtl_embedding_gradients_scaled_by_lambda():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=4)
    a, p, n = rng.normal(size=(3, 4))
    lam = 0.25
    out = softmax_rtl(logits, 0, a, p, n, lam)
    plain = rtl(a, p, n)
    for key in ("x_a", "x_p", "x_n"):
        assert np.allclose(out.grads[key], lam * plain.grads[key])


def test_softmax_rtl_validation():
    a = np.zeros(3)
    with pytest.raises(ValueError):
        softmax_rtl(np.zeros(4), 4, a, a, a, 0.01)
    with pytest.raises(ValueError):
        softmax_rtl(np.zeros(4), 0, a, a, a, -0.1)


def test_cosine_align_perfect_alignment_is_zero():
    anchor = np.array([1.0, 0.0, 0.0])
    pos = np.array([2.0, 0.0, 0.0])
    neg = np.array([-1.0, 0.0, 0.0])
    out = cosine_align(anchor, pos, neg, m=0.5)
    assert out.value == pytest.approx(0.0)
    assert np.all(out.grads["neg"] == 0.0)


def test_cosine_align_hinge_activates_above_margin():
    anchor = np.array([1.0, 0.0])
    pos = np.array([1.0, 0.0])
    neg = np.array([1.0, 0.1])
    out = cosine_align(anchor, pos, neg, m=0.5)
    cos_n = 1.0 / np.sqrt(1.01)
    assert out.value == pytest.approx(cos_n - 0.5)
    assert np.any(out.grads["neg"] != 0.0)


def test_cosine_align_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    for _ in range(8):
        anchor, pos, neg = rng.normal(size=(3, 5))
        out = cosine_align(anchor, pos, neg, m=0.5)
        fd_pos = finite_difference(
            lambda v: cosine_align(anchor, v, neg, 0.5).value, pos
        )
        fd_neg = finite_difference(
            lambda v: cosine_align(anchor, pos, v, 0.5).value, neg
        )
        assert relative_error(out.grads["pos"], fd_pos) < TOL
        assert relative_error(out.grads["neg"], fd_neg) < TOL


def test_cosine_align_gradient_is_scale_invariant_in_direction():
    # cosine only sees direction, so the loss value must not change when
    # pos is rescaled
    anchor = np.array([1.0, 2.0, 3.0])
    pos = np.array([0.5, -1.0, 2.0])
    neg = np.array([1.0, 1.0, 1.0])
    v1 = cosine_align(anchor, pos, neg, m=0.5).value
    v2 = cosine_align(anchor, 10.0 * pos, neg, m=0.5).value
    assert v1 == pytest.approx(v2)


def test_cosine_align_rejects_zero_norm():
    anchor = np.array([1.0, 0.0])
    z = np.zeros(2)
    with pytest.raises(ValueError):
        cosine_align(z, anchor, anchor, m=0.5)
    with pytest.raises(ValueError):
        cosine_align(anchor, z, anchor, m=0.5)
    with pytest.raises(ValueError):
        cosine_align(anchor, anchor, z, m=0.5)


def test_stage1_batch_matches_per_triplet_losses():
    rng = np.random.default_rng(5)
    b, e_dim, c = 6, 4, 3
    logits = rng.normal(size=(b, c)) * 2
    class_ids = rng.integers(c, size=b)
    e_a, e_p, e_n = (rng.normal(size=(b, e_dim)) for _ in range(3))
    lam = 0.01

    loss, ce, rtl_part, d_logits, d_e_a, d_e_p, d_e_n = softmax_rtl_batch(
        logits, class_ids, e_a, e_p, e_n, lam)

    singles = [softmax_rtl(logits[i], int(class_ids[i]),
                           e_a[i], e_p[i], e_n[i], lam)
               for i in range(b)]
    assert loss == pytest.approx(np.mean([s.value for s in singles]))
    assert loss == pytest.approx(ce + lam * rtl_part)
    for i in range(b):
        assert d_logits[i] == pytest.approx(singles[i].grads["logits"] / b)
        assert d_e_a[i] == pytest.approx(singles[i].grads["x_a"] / b)
        assert d_e_p[i] == pytest.approx(singles[i].grads["x_p"] / b)
        assert d_e_n[i] == pytest.approx(singles[i].grads["x_n"] / b)


def test_stage2_batch_matches_per_triplet_losses():
    rng = np.random.default_rng(8)
    b, e_dim = 5, 4
    anchors = rng.normal(size=(b, e_dim))
    e_p = rng.normal(size=(b, e_dim))
    # the first two negatives sit on their anchors, past the hinge
    e_n = np.concatenate([anchors[:2] * 3.0, rng.normal(size=(3, e_dim))])

    loss, d_e_p, d_e_n = cosine_align_batch(anchors, e_p, e_n, 0.5)

    singles = [cosine_align(anchors[i], e_p[i], e_n[i], m=0.5)
               for i in range(b)]
    assert loss == pytest.approx(np.mean([s.value for s in singles]))
    for i in range(b):
        assert d_e_p[i] == pytest.approx(singles[i].grads["pos"] / b)
        assert d_e_n[i] == pytest.approx(singles[i].grads["neg"] / b)


def test_cosine_align_batch_rejects_zero_norm_embedding():
    rows = np.eye(2)
    with pytest.raises(ArithmeticError, match="zero-norm"):
        cosine_align_batch(rows, rows, np.zeros((2, 2)), 0.5)


def test_trainers_run_the_batch_losses(monkeypatch):
    calls = []
    for name in ("softmax_rtl_batch", "cosine_align_batch"):
        def spy(*args, _real=getattr(losses, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(losses, name, spy)
    rng = np.random.default_rng(0)
    labels = np.repeat([0, 1], 6)
    x = rng.normal(size=(12, 4)) + labels[:, None]
    config = trainer.TrainConfig(d_in=4, hidden=6, embed_dim=3,
                                 batch_size=4, epochs_stage1=2,
                                 epochs_stage2=1, align_enabled=False)
    params, _ = trainer.train_stage1(config, x, labels)
    assert calls == ["softmax_rtl_batch"] * 6
    trainer.align_stage2(config, params, {0: np.ones(3), 1: -np.ones(3)},
                         x, labels)
    assert calls[6:] == ["cosine_align_batch"] * 3
