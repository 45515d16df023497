"""Projection head tests: forward, exact backward, SGD, max-norm, checkpoints."""

import json

import numpy as np
import pytest

from xmodal import embednet
from xmodal.embednet import (
    FIELDS,
    GradientSet,
    HeadParams,
    backward,
    forward,
    init_head,
    load_checkpoint,
    maxnorm_project,
    maxnorm_rows,
    save_checkpoint,
    sgd_step,
)

from oracles import finite_difference, relative_error

TOL = 1e-6
DIMS = (4, 5, 3, 2)


def small_head(seed=0, scale=1.0):
    return init_head(*DIMS, seed=seed, scale=scale)


def test_head_params_validates_shapes():
    p = small_head()
    with pytest.raises(ValueError, match="inconsistent"):
        HeadParams(p.W1, p.b1, p.W2, np.zeros(7), p.Wc, p.bc)
    with pytest.raises(ValueError, match="non-finite"):
        HeadParams(p.W1 * np.nan, p.b1, p.W2, p.b2, p.Wc, p.bc)


def test_head_params_dims_and_copy():
    p = small_head()
    assert p.dims == DIMS
    q = p.copy()
    q.W1[0, 0] += 1.0
    assert p.W1[0, 0] != q.W1[0, 0]
    assert all(getattr(p, n).dtype == np.float64 for n in FIELDS)


def test_init_head_is_deterministic():
    a = small_head(seed=11)
    b = small_head(seed=11)
    c = small_head(seed=12)
    for name in FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.W1, c.W1)


def test_init_head_bounds_and_biases():
    d, h, e, c = 30, 20, 10, 6
    p = init_head(d, h, e, c, seed=3)
    assert np.all(p.b1 == 0) and np.all(p.b2 == 0) and np.all(p.bc == 0)
    for mat, fan in ((p.W1, h + d), (p.W2, e + h), (p.Wc, c + e)):
        assert np.max(np.abs(mat)) <= np.sqrt(6.0 / fan)


def test_init_head_scale_touches_projection_only():
    base = small_head(seed=5, scale=1.0)
    shrunk = small_head(seed=5, scale=0.25)
    assert np.allclose(shrunk.W1, 0.25 * base.W1)
    assert np.allclose(shrunk.W2, 0.25 * base.W2)
    assert np.array_equal(shrunk.Wc, base.Wc)


def test_init_head_classifier_scale_touches_classifier_only():
    base = small_head(seed=5)
    small = init_head(*DIMS, seed=5, classifier_scale=0.5)
    assert np.allclose(small.Wc, 0.5 * base.Wc)
    assert np.array_equal(small.W1, base.W1)
    assert np.array_equal(small.W2, base.W2)
    both = init_head(*DIMS, seed=5, scale=0.25, classifier_scale=0.5)
    assert np.allclose(both.W1, 0.25 * base.W1)
    assert np.allclose(both.Wc, 0.5 * base.Wc)


def test_init_head_rejects_bad_arguments():
    with pytest.raises(ValueError, match="dimensions"):
        init_head(0, 5, 3, 2, seed=0)
    with pytest.raises(ValueError, match="scale"):
        init_head(*DIMS, seed=0, scale=0.0)
    with pytest.raises(ValueError, match="scale"):
        init_head(*DIMS, seed=0, scale=-1.0)
    with pytest.raises(ValueError, match="classifier_scale"):
        init_head(*DIMS, seed=0, classifier_scale=0.0)


def test_forward_hand_case():
    p = HeadParams(
        W1=np.array([[1.0, 0.0], [0.0, -1.0]]),
        b1=np.array([0.0, 0.5]),
        W2=np.array([[2.0, 1.0]]),
        b2=np.array([-1.0]),
        Wc=np.array([[3.0], [0.0]]),
        bc=np.array([0.0, 4.0]),
    )
    emb, logits, cache = forward(p, np.array([2.0, 1.0]))
    # z1 = (2, -0.5), a1 = (2, 0), e = 2*2 + 0 - 1 = 3, z = (9, 4)
    assert emb.shape == (1, 1) and logits.shape == (1, 2)
    assert emb[0, 0] == pytest.approx(3.0)
    assert logits[0] == pytest.approx([9.0, 4.0])
    assert cache.a1[0] == pytest.approx([2.0, 0.0])


def test_forward_rejects_bad_features():
    p = small_head()
    with pytest.raises(ValueError, match="features"):
        forward(p, np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        forward(p, np.full(4, np.inf))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    p = small_head(seed=1)
    x = rng.normal(size=(3, DIMS[0]))
    c_e = rng.normal(size=(3, DIMS[2]))
    c_z = rng.normal(size=(3, DIMS[3]))

    _, _, cache = forward(p, x)
    grads = backward(cache, c_e, c_z)

    def probe(name, flat):
        arrays = {n: getattr(p, n) for n in FIELDS}
        arrays[name] = flat.reshape(arrays[name].shape)
        emb, logits, _ = forward(HeadParams(**arrays), x)
        return float(np.sum(c_e * emb) + np.sum(c_z * logits))

    for name in FIELDS:
        flat = getattr(p, name).ravel().copy()
        fd = finite_difference(lambda v, n=name: probe(n, v), flat)
        got = getattr(grads, name).ravel()
        assert relative_error(got, fd) < TOL, name


def test_backward_sums_over_batch():
    rng = np.random.default_rng(2)
    p = small_head(seed=4)
    x = rng.normal(size=(2, DIMS[0]))
    c_e = rng.normal(size=(2, DIMS[2]))
    c_z = rng.normal(size=(2, DIMS[3]))
    _, _, cache = forward(p, x)
    whole = backward(cache, c_e, c_z)
    parts = []
    for i in range(2):
        _, _, ci = forward(p, x[i])
        parts.append(backward(ci, c_e[i], c_z[i]))
    for name in FIELDS:
        summed = getattr(parts[0], name) + getattr(parts[1], name)
        assert np.allclose(getattr(whole, name), summed)


def test_backward_zero_upstream_and_shape_guard():
    p = small_head()
    x = np.ones((2, DIMS[0]))
    _, _, cache = forward(p, x)
    grads = backward(cache, np.zeros((2, DIMS[2])), np.zeros((2, DIMS[3])))
    assert all(np.all(getattr(grads, n) == 0) for n in FIELDS)
    with pytest.raises(ValueError, match="upstream"):
        backward(cache, np.zeros((3, DIMS[2])), np.zeros((2, DIMS[3])))


def test_sgd_step_arithmetic():
    p = small_head(seed=9)
    ones = GradientSet(*(np.ones_like(getattr(p, n)) for n in FIELDS))
    out = sgd_step(p, ones, lr=0.1, weight_decay=0.5)
    assert np.allclose(out.W1, p.W1 - 0.1 * (1.0 + 0.5 * p.W1))
    assert np.allclose(out.b1, p.b1 - 0.1)
    assert np.allclose(out.bc, p.bc - 0.1)
    # the input params are untouched
    assert np.array_equal(p.b1, np.zeros(DIMS[1]))


def test_sgd_step_rejects_bad_inputs():
    p = small_head()
    zeros = GradientSet(*(np.zeros_like(getattr(p, n)) for n in FIELDS))
    with pytest.raises(ValueError, match="learning rate"):
        sgd_step(p, zeros, lr=-0.1)
    with pytest.raises(ValueError, match="weight decay"):
        sgd_step(p, zeros, lr=0.1, weight_decay=-1.0)
    bad = GradientSet(np.zeros((1, 1)), *(np.zeros_like(getattr(p, n))
                                          for n in FIELDS[1:]))
    with pytest.raises(ValueError, match="shape mismatch"):
        sgd_step(p, bad, lr=0.1)


def test_maxnorm_rows_caps_and_is_idempotent():
    m = np.array([[3.0, 4.0], [0.1, 0.2], [0.0, 0.0]])
    out = maxnorm_rows(m, delta=1.0)
    norms = np.linalg.norm(out, axis=1)
    assert norms[0] == pytest.approx(1.0)
    assert np.array_equal(out[1], m[1]) and np.array_equal(out[2], m[2])
    again = maxnorm_rows(out, delta=1.0)
    assert again is out
    assert np.array_equal(m[0], [3.0, 4.0])


def test_maxnorm_rows_validates_delta():
    with pytest.raises(ValueError, match="delta"):
        maxnorm_rows(np.ones((1, 2)), delta=0.0)


def test_maxnorm_project_touches_classifier_only():
    p = small_head(seed=6)
    p.Wc[0] = np.array([10.0, 0.0, 0.0])
    out = maxnorm_project(p, delta=1.0)
    assert out.W1 is p.W1 and out.W2 is p.W2 and out.b1 is p.b1
    assert np.linalg.norm(out.Wc[0]) == pytest.approx(1.0)
    small = maxnorm_project(out, delta=100.0)
    assert small is out


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    p = small_head(seed=8)
    p = HeadParams(*(getattr(p, n) + rng.normal(size=getattr(p, n).shape) * 1e-9
                     for n in FIELDS))
    path = tmp_path / "head.json"
    save_checkpoint(p, path, "stage1", seed_lineage={"seed": 8, "label": "init"})
    loaded, stage, lineage = load_checkpoint(path)
    assert stage == "stage1"
    assert lineage == {"seed": 8, "label": "init"}
    for name in FIELDS:
        assert getattr(loaded, name).tobytes() == getattr(p, name).tobytes()
    # the file is the sorted-key, compact JSON of the whole checkpoint
    whole = {"dims": dict(zip(("d_in", "hidden", "embed_dim", "n_classes"), p.dims)),
             "params": {name: getattr(p, name).tolist() for name in FIELDS},
             "seed_lineage": {"seed": 8, "label": "init"}, "stage": "stage1"}
    assert path.read_text(encoding="utf-8") == json.dumps(
        whole, sort_keys=True, separators=(",", ":")) + "\n"


def test_checkpoint_validates_stage_and_dims(tmp_path):
    p = small_head()
    path = tmp_path / "head.json"
    with pytest.raises(ValueError, match="stage"):
        save_checkpoint(p, path, "warmup")
    save_checkpoint(p, path, "stage2")
    loaded, _, lineage = load_checkpoint(path, expect_dims=DIMS)
    assert loaded.dims == DIMS and lineage == {}
    with pytest.raises(ValueError, match="dims"):
        load_checkpoint(path, expect_dims=(4, 5, 3, 9))
