"""Projection head tests: forward, exact backward, SGD, max-norm, checkpoints."""

import copy
import json
import pickle
import re
import tracemalloc

import numpy as np
import orjson
import pytest

from xmodal import embednet
from xmodal.embednet import (
    FIELDS,
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

from oracles import finite_difference, relative_error, sgd_step_oracle

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


@pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
def test_pickled_and_deep_copied_heads_keep_their_views(clone):
    p = small_head()
    q = (pickle.loads(pickle.dumps(p)) if clone == "pickle"
         else copy.deepcopy(p))
    assert q.dims == p.dims
    assert q.flat.tobytes() == p.flat.tobytes()
    assert not np.shares_memory(q.flat, p.flat)
    for name in FIELDS:
        assert np.shares_memory(getattr(q, name), q.flat), name
        assert getattr(q, name).tobytes() == getattr(p, name).tobytes()
    # a step through the buffer moves the named fields
    before = q.W1.copy()
    grads = HeadParams.empty(q.dims)
    grads.flat[:] = 1.0
    sgd_step(q, grads, lr=0.5)
    assert np.array_equal(q.W1, before - 0.5)
    assert p.flat.tobytes() != q.flat.tobytes()


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


def filled_grads(dims, value):
    grads = HeadParams.empty(dims)
    grads.flat[:] = value
    return grads


def random_head_and_grads(seed):
    rng = np.random.default_rng(seed)
    p = small_head(seed=seed)
    p.flat[:] += rng.normal(size=p.flat.size)
    grads = filled_grads(p.dims, rng.normal(size=p.flat.size))
    return p, grads


def float32_copy(p):
    work = HeadParams.empty(p.dims, np.float32)
    np.copyto(work.flat, p.flat)
    return work


def test_float32_head_computes_in_float32():
    rng = np.random.default_rng(8)
    work = float32_copy(small_head(seed=8))
    x = rng.normal(size=(6, DIMS[0]))
    d_e = rng.normal(size=(6, DIMS[2]))
    d_z = rng.normal(size=(6, DIMS[3]))
    emb, logits, cache = forward(work, x)
    assert emb.dtype == logits.dtype == cache.x.dtype == np.float32
    grads = backward(cache, d_e, d_z)
    assert grads.flat.dtype == np.float32
    # float64 on the same float32 values: only the rounding differs
    exact = HeadParams(**{n: getattr(work, n) for n in FIELDS})
    emb64, _, cache64 = forward(exact, x.astype(np.float32))
    assert emb64.dtype == np.float64
    assert relative_error(emb, emb64) < 1e-4
    want = backward(cache64, d_e.astype(np.float32), d_z.astype(np.float32))
    for name in FIELDS:
        assert relative_error(getattr(grads, name), getattr(want, name)) < 1e-4


@pytest.mark.parametrize("block", [3, 7])
def test_float32_gradients_step_float64_head_like_the_oracle(monkeypatch,
                                                             block):
    # blocks of 3 and 7 straddle the 20, 5, 15, 3, 6, 2 field boundaries
    monkeypatch.setattr(embednet, "SGD_BLOCK", block)
    for seed in range(3):
        p, grads = random_head_and_grads(seed)
        grads32 = float32_copy(grads)
        fields = {n: getattr(p, n).copy() for n in FIELDS}
        want = sgd_step_oracle(
            fields, {n: getattr(grads32, n).astype(np.float64) for n in FIELDS},
            lr=0.037, weight_decay=0.21)
        sgd_step(p, grads32, lr=0.037, weight_decay=0.21)
        assert p.flat.dtype == np.float64
        for name in FIELDS:
            assert getattr(p, name).tobytes() == want[name].tobytes(), name


def test_head_params_is_one_buffer_of_named_views():
    p = small_head(seed=2)
    start = 0
    for name in FIELDS:
        view = getattr(p, name)
        assert np.shares_memory(view, p.flat)
        assert np.array_equal(view.ravel(), p.flat[start:start + view.size])
        start += view.size
    assert start == p.flat.size
    p.flat[:] = 0.0
    assert not any(np.any(getattr(p, name)) for name in FIELDS)


def test_sgd_step_arithmetic():
    p = small_head(seed=9)
    before = p.copy()
    sgd_step(p, filled_grads(p.dims, 1.0), lr=0.1, weight_decay=0.5)
    assert np.allclose(p.W1, before.W1 - 0.1 * (1.0 + 0.5 * before.W1))
    assert np.allclose(p.b1, before.b1 - 0.1)
    assert np.allclose(p.bc, before.bc - 0.1)
    # the update is in place; copy() took its own buffer
    assert np.array_equal(before.b1, np.zeros(DIMS[1]))


def test_sgd_step_rejects_bad_inputs():
    p = small_head()
    zeros = filled_grads(p.dims, 0.0)
    with pytest.raises(ValueError, match="learning rate"):
        sgd_step(p, zeros, lr=-0.1)
    with pytest.raises(ValueError, match="weight decay"):
        sgd_step(p, zeros, lr=0.1, weight_decay=-1.0)
    bad = filled_grads((1, 1, 1, 1), 0.0)
    with pytest.raises(ValueError, match="shape mismatch"):
        sgd_step(p, bad, lr=0.1)


@pytest.mark.parametrize("block", [1, 3, 7, 16, 1000])
def test_blocked_sgd_step_matches_out_of_place_oracle(monkeypatch, block):
    # the fields hold 20, 5, 15, 3, 6 and 2 entries, so blocks of 3, 7
    # and 16 end most of them in a partial block, and 1000 covers each
    # field in one
    monkeypatch.setattr(embednet, "SGD_BLOCK", block)
    for seed in range(3):
        p, grads = random_head_and_grads(seed)
        fields = {n: getattr(p, n).copy() for n in FIELDS}
        want = sgd_step_oracle(fields, {n: getattr(grads, n) for n in FIELDS},
                               lr=0.037, weight_decay=0.21)
        sgd_step(p, grads, lr=0.037, weight_decay=0.21)
        for name in FIELDS:
            assert getattr(p, name).tobytes() == want[name].tobytes(), name


def test_projection_only_step_keeps_classifier_bits(monkeypatch):
    monkeypatch.setattr(embednet, "SGD_BLOCK", 4)
    p, grads = random_head_and_grads(4)
    fields = {n: getattr(p, n).copy() for n in FIELDS}
    want = sgd_step_oracle(fields, {n: getattr(grads, n) for n in FIELDS},
                           lr=0.05, weight_decay=0.01)
    sgd_step(p, grads, lr=0.05, weight_decay=0.01, projection_only=True,
             scratch=np.empty(4))
    for name in ("W1", "b1", "W2", "b2"):
        assert getattr(p, name).tobytes() == want[name].tobytes(), name
    for name in ("Wc", "bc"):
        assert getattr(p, name).tobytes() == fields[name].tobytes(), name


@pytest.mark.parametrize("field", ["W1", "bc"])
def test_sgd_step_rejects_nan_in_last_partial_block(monkeypatch, field):
    # W1 has 20 entries and bc 2, so with blocks of 7 both end in a
    # partial block; the NaN sits in its last entry
    monkeypatch.setattr(embednet, "SGD_BLOCK", 7)
    p, grads = random_head_and_grads(5)
    getattr(grads, field).flat[-1] = np.nan
    with pytest.raises(ValueError, match=f"non-finite values in {field}"):
        sgd_step(p, grads, lr=0.1)


@pytest.mark.parametrize("block", [3, 7, 1000])
@pytest.mark.parametrize("projection_only", [False, True])
def test_sgd_step_writes_the_float32_cast_into_the_working_head(
        monkeypatch, block, projection_only):
    monkeypatch.setattr(embednet, "SGD_BLOCK", block)
    p, grads = random_head_and_grads(6)
    stale = HeadParams.empty(p.dims, np.float32)
    stale.flat[:] = np.arange(stale.flat.size)
    work = stale.copy()
    sgd_step(p, grads, lr=0.037, weight_decay=0.21,
             projection_only=projection_only, work=work)
    for name in FIELDS:
        frozen = projection_only and name in ("Wc", "bc")
        want = getattr(stale if frozen else p, name).astype(np.float32)
        assert getattr(work, name).tobytes() == want.tobytes(), name


@pytest.mark.filterwarnings("error")
def test_sgd_step_checks_values_not_their_sum(monkeypatch):
    monkeypatch.setattr(embednet, "SGD_BLOCK", 7)
    p = small_head()
    # finite values whose block sums overflow to inf are accepted
    p.flat[:] = 1.5e308
    sgd_step(p, filled_grads(p.dims, 0.0), lr=0.1)
    assert np.all(p.flat == 1.5e308)
    # +inf and -inf in one block sum to NaN and are reported by field
    p, grads = random_head_and_grads(7)
    grads.W2.flat[:2] = (np.inf, -np.inf)
    work = float32_copy(p)
    with pytest.raises(ValueError, match="non-finite values in W2"):
        sgd_step(p, grads, lr=0.1, work=work)
    # the blocks before the bad one were updated and cast into work
    assert work.W1.tobytes() == p.W1.astype(np.float32).tobytes()


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
    for name in ("W1", "b1", "W2", "b2", "bc"):
        assert getattr(out, name).tobytes() == getattr(p, name).tobytes()
    assert np.linalg.norm(out.Wc[0]) == pytest.approx(1.0)
    # a capped head is a copy: the input keeps its oversized row
    assert np.array_equal(p.Wc[0], [10.0, 0.0, 0.0])
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
             "params": {name: getattr(p, name) for name in FIELDS},
             "seed_lineage": {"seed": 8, "label": "init"}, "stage": "stage1"}
    assert path.read_bytes() == orjson.dumps(
        whole, option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY) + b"\n"


def test_checkpoint_validates_stage_and_dims(tmp_path):
    p = small_head()
    path = tmp_path / "head.json"
    with pytest.raises(ValueError, match="stage"):
        save_checkpoint(p, path, "warmup")
    save_checkpoint(p, path, "stage2")
    loaded, _, lineage = load_checkpoint(path)
    assert loaded.dims == DIMS and lineage == {}
    # recorded dims the arrays do not have: the first such field is named
    path.write_text(path.read_text().replace('"n_classes":2', '"n_classes":3'))
    with pytest.raises(ValueError, match="malformed checkpoint: 'Wc' leaves"):
        load_checkpoint(path)


def test_checkpoint_special_values_round_trip(tmp_path):
    p = small_head(seed=4)
    p.W1[0, :4] = [-0.0, 5e-324, 1e300, -1.5e-300]  # -0.0, subnormal, e+/e-
    p.bc[:] = [1e16, 0.0]
    # values that orjson prints positionally or otherwise unlike repr
    p.W2.flat[:6] = [6.6e-05, 8e-06, 1e16, 1e22, 2.2250738585072014e-308,
                     1.7976931348623157e308]
    # 10,000 random finite bit patterns, all of W1 in a 100 -> 100 head
    values = np.random.default_rng(21).integers(
        0, 2**64, 10_100, dtype=np.uint64).view(np.float64)
    wide = init_head(100, 100, 1, 1, seed=0)
    wide.W1.flat[:] = values[np.isfinite(values)][:10_000]
    for head in (p, wide):
        path = tmp_path / "head.json"
        save_checkpoint(head, path, "stage1")
        assert load_checkpoint(path)[0].flat.tobytes() == head.flat.tobytes()


def test_canonical_checkpoint_is_parsed_without_json(tmp_path, monkeypatch):
    p = small_head(seed=5)
    p.W1[0, :2] = [6.63480772013432e-05, 1e22]
    path, old = tmp_path / "head.json", tmp_path / "old.json"
    save_checkpoint(p, path, "stage2", seed_lineage={"seed": 5})
    # the stdlib json text older versions wrote: repr floats, 6.63e-05
    # where orjson writes 0.0000663
    old.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True,
                              separators=(",", ":")) + "\n")
    assert b"6.63480772013432e-05" in old.read_bytes()

    def no_json(*args, **kwargs):
        raise AssertionError("a canonical checkpoint went through json.load")
    monkeypatch.setattr(json, "load", no_json)
    for file in (path, old):
        loaded, stage, lineage = load_checkpoint(file)
        assert loaded.flat.tobytes() == p.flat.tobytes()
        assert (stage, lineage) == ("stage2", {"seed": 5})


def _first_w1_value(text, token):
    return re.sub(r'("W1":\[\[)[^,\]]+', lambda m: m.group(1) + token, text,
                  count=1)


# each turns a canonical file into one save_checkpoint never writes
VARIANTS = {
    "indent": lambda t: json.dumps(json.loads(t), indent=2, sort_keys=True),
    "separators": lambda t: json.dumps(json.loads(t)),
    "space": lambda t: _first_w1_value(t, "0.5 "),
    "integer": lambda t: _first_w1_value(t, "2"),
    "integer-minus-zero": lambda t: _first_w1_value(t, "-0"),
    "exponent-zeros": lambda t: _first_w1_value(t, "1E+05"),
    "plus": lambda t: _first_w1_value(t, "+0.5"),
    "nan": lambda t: _first_w1_value(t, "NaN"),
    "infinity": lambda t: _first_w1_value(t, "-Infinity"),
    "overflow": lambda t: _first_w1_value(t, "1e999"),
    "leading-zero": lambda t: _first_w1_value(t, "-01.5"),
    "bare-dot": lambda t: _first_w1_value(t, "1."),
    "dot-first": lambda t: _first_w1_value(t, ".5"),
    "form-feed": lambda t: _first_w1_value(t, "0.5\f"),
    "short-row": lambda t: _first_w1_value(t, "").replace("[[,", "[[", 1),
    "extra-row": lambda t: t.replace('"W1":[[', '"W1":[[0.5,0.5,0.5,0.5],[', 1),
    "row-separator": lambda t: t.replace("],[", "] ,", 1),
    "empty-row": lambda t: t.replace('"W1":[[', '"W1":[[],[', 1),
    "missing-key": lambda t: t.replace(',"stage":"stage1"', ""),
    "string-value": lambda t: _first_w1_value(t, '"0.5"'),
    "true": lambda t: _first_w1_value(t, "true"),
    "huge-integer": lambda t: _first_w1_value(t, "1" + "0" * 400),
    "bias-column": lambda t: re.sub(r'"b2":\[([^\]]*)\]', lambda m: '"b2":[['
                                    + m.group(1).replace(",", "],[") + "]]", t),
    "unknown-stage": lambda t: t.replace('"stage":"stage1"', '"stage":"warmup"'),
    "lineage-list": lambda t: t.replace('"seed_lineage":{}', '"seed_lineage":[5]'),
    "repeated-key": lambda t: t.replace('"stage":', '"dims":{},"stage":'),
    "truncated": lambda t: t[:len(t) // 2],
}

# number spellings save_checkpoint never writes that still load, with
# the bits json gives them (json, like orjson, reads the integer -0 as 0)
STILL_LOADED = {"integer": "2", "integer-minus-zero": "-0", "exponent-zeros": "1E+05"}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_other_checkpoints_load_as_json_reads_them(tmp_path, variant):
    """Only save_checkpoint's layout loads: a number spelled as in
    STILL_LOADED loads as json reads it, and every other variant is one
    malformed-checkpoint error naming the path."""
    path = tmp_path / "head.json"
    head = small_head(seed=6)
    save_checkpoint(head, path, "stage1")
    path.write_text(VARIANTS[variant](path.read_text()))
    if variant in STILL_LOADED:
        head.W1[0, 0] = json.loads(STILL_LOADED[variant])
        assert load_checkpoint(path)[0].flat.tobytes() == head.flat.tobytes()
        return
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert message.startswith(f"{path}: malformed checkpoint: "), message
    assert "\n" not in message


def test_dims_beyond_the_text_allocate_no_head(tmp_path):
    path = tmp_path / "head.json"
    save_checkpoint(small_head(), path, "stage1")
    path.write_text(path.read_text().replace('"d_in":4', '"d_in":10000000'))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="disagree with recorded dims"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a head of those dims is 400 MB


def test_loading_a_checkpoint_holds_its_text_and_one_head(tmp_path):
    p = init_head(256, 128, 64, 8, seed=0)
    path = tmp_path / "head.json"
    save_checkpoint(p, path, "stage1")
    load_checkpoint(path)  # warm imports and caches
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's text, the head and one field being parsed; a Python
    # float per value would add about 4x the head's bytes
    assert peak <= path.stat().st_size + 3 * p.flat.nbytes
