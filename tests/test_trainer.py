"""Two-stage training tests: config, sampling, the shared loop."""

import ast
import inspect
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import sample_triplets_oracle
from xmodal import dataio, embednet, trainer
from xmodal.seeds import derive_seed
from xmodal.trainer import (
    TrainConfig,
    TrainHistory,
    align_stage2,
    sample_triplets,
    train_stage1,
    write_history,
)


def toy_config(**kw):
    base = dict(d_in=6, hidden=8, embed_dim=5, batch_size=8,
                epochs_stage1=4, epochs_stage2=3, align_enabled=False, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def toy_data(seed=0, n_per=10, n_classes=3, dim=6, spread=4.0):
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(n_classes, dim)) * spread
    x = np.concatenate([means[c] + rng.normal(size=(n_per, dim))
                        for c in range(n_classes)])
    labels = np.repeat(np.arange(n_classes), n_per)
    return x, labels


def test_config_defaults_and_round_trip():
    config = TrainConfig()
    assert config.lr == 0.01 and config.batch_size == 64
    assert config.epochs_stage1 == 20 and config.epochs_stage2 == 5
    assert config.mix_lambda == 0.01 and config.margin_m == 0.5
    assert config.weight_decay == 5e-3 and config.maxnorm_delta == 1.0
    assert TrainConfig.from_dict(config.to_dict()) == config


def test_config_validation():
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=-1.0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="init_scale"):
        TrainConfig(init_scale=0.0)
    with pytest.raises(ValueError, match="classifier_init_scale"):
        TrainConfig(classifier_init_scale=-0.5)
    with pytest.raises(ValueError, match="alignment"):
        TrainConfig(embed_dim=128)
    with pytest.raises(ValueError, match="unknown"):
        TrainConfig.from_dict({"learning_rate": 0.1})


def test_config_save_load(tmp_path):
    config = toy_config(lr=0.5)
    path = tmp_path / "config.json"
    dataio.write_json(config.to_dict(), path)
    assert TrainConfig.load(path) == config


def class_index(labels):
    """The class index a run builds for `labels`, on one-column features."""
    return trainer._class_index(np.zeros((len(labels), 1)), labels, 1)[1]


def test_sample_triplets_structure():
    labels = np.array([0, 0, 0, 1, 1, 2])
    rng = np.random.default_rng(3)
    for a, p, n in sample_triplets(class_index(labels), 200, rng):
        assert labels[a] == labels[p] and a != p
        assert labels[n] != labels[a]
        # class 2 has one sample: never an anchor, allowed as negative
        assert labels[a] != 2


def test_sample_triplets_is_seed_deterministic():
    index = class_index(np.array([0, 0, 1, 1, 1]))
    one = sample_triplets(index, 16, np.random.default_rng(9))
    two = sample_triplets(index, 16, np.random.default_rng(9))
    assert one == two


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_sample_triplets_matches_oracle(seed):
    # class 3 has exactly two members, so its positive is fixed; class 4
    # has one and is only ever a negative
    labels = np.array([2, 0, 1, 0, 3, 1, 0, 2, 4, 1, 0, 3, 2, 0, 1])
    labels = np.random.default_rng(100 + seed).permutation(labels)
    index = class_index(labels)
    got = sample_triplets(index, 64, np.random.default_rng(seed))
    want = sample_triplets_oracle(labels, 64, np.random.default_rng(seed))
    assert got == want
    # one index reused across calls makes the same draws
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert (sample_triplets(index, 16, rng)
                == sample_triplets_oracle(labels, 16, oracle_rng))


def test_sample_triplets_rejects_degenerate_labels():
    """Labels that give no triplet are refused before stage 1 draws: the
    class index needs two classes, and stage 1 an anchor class."""
    for labels in ([0], [0, 0, 0]):
        with pytest.raises(ValueError, match=">= 2 class"):
            class_index(np.array(labels))
    with pytest.raises(ValueError, match="positive pair"):
        train_stage1(toy_config(d_in=1), np.zeros((2, 1)), np.array([0, 1]))


def test_train_stage1_descends_and_records():
    x, labels = toy_data()
    config = toy_config()
    params, history = train_stage1(config, x, labels)
    assert params.dims == (6, 8, 5, 3)
    assert len(history.entries) == config.epochs_stage1
    assert history.entries[-1]["mean_loss"] < history.entries[0]["mean_loss"]
    assert {"softmax", "rtl"} == set(history.entries[0]["components"])


def test_same_seed_runs_write_identical_histories(tmp_path):
    x, labels = toy_data(seed=3)
    config = toy_config(seed=5)
    anchors = anchors_for(labels, 5)
    files = []
    for run in ("one", "two"):
        params, hist1 = train_stage1(config, x, labels)
        _, hist2 = align_stage2(config, params, anchors, x, labels)
        for name, hists in (("train", [hist1]), ("align", [hist2]),
                            ("both", [hist1, hist2])):
            path = tmp_path / f"{run}_{name}.json"
            write_history(hists, path)
            files.append(path.read_bytes())
    assert files[:3] == files[3:]


def test_train_stage1_is_deterministic():
    x, labels = toy_data(seed=2)
    one, _ = train_stage1(toy_config(seed=7), x, labels)
    two, _ = train_stage1(toy_config(seed=7), x, labels)
    for name in embednet.FIELDS:
        assert getattr(one, name).tobytes() == getattr(two, name).tobytes()


def test_train_stage1_ltr_caps_classifier_rows():
    x, labels = toy_data(spread=8.0)
    delta = 0.5
    capped, _ = train_stage1(toy_config(maxnorm_delta=delta), x, labels)
    assert np.all(np.linalg.norm(capped.Wc, axis=1) <= delta + 1e-9)
    naive, _ = train_stage1(toy_config(ltr_enabled=False), x, labels)
    assert np.linalg.norm(naive.Wc, axis=1).max() > 0


def test_dropped_config_fields_are_rejected():
    for name in ("alpha", "kappa", "maxnorm_scope"):
        with pytest.raises(ValueError, match=f"unknown config fields: \\['{name}'\\]"):
            TrainConfig.from_dict({name: 1.0})


def test_stage1_builds_its_head_and_stage2_trains_the_head_it_is_given():
    x, labels = toy_data(seed=6)
    config = toy_config(maxnorm_delta=0.5, classifier_init_scale=2.0)
    # stage 1 takes no head: it builds init_head's head from the config
    assert list(inspect.signature(train_stage1).parameters) == [
        "config", "train_features", "labels"]
    fresh, _ = train_stage1(toy_config(epochs_stage1=0, init_scale=0.3,
                                       classifier_init_scale=2.0), x, labels)
    want = embednet.init_head(6, 8, 5, 3, derive_seed(0, "init"), scale=0.3,
                              classifier_scale=2.0)
    assert fresh.flat.tobytes() == want.flat.tobytes()
    trained, _ = train_stage1(config, x, labels)
    kept = trained.copy()
    aligned, _ = align_stage2(config, trained, anchors_for(labels, 5), x,
                              labels)
    assert aligned is trained and aligned.flat.dtype == np.float64
    assert not np.array_equal(aligned.W1, kept.W1)
    # in place, with the bytes that aligning a copy gives
    again, _ = align_stage2(config, kept, anchors_for(labels, 5), x, labels)
    assert again is kept and again.flat.tobytes() == aligned.flat.tobytes()


def test_trainers_run_forward_in_float32(monkeypatch):
    seen = []
    real_forward = embednet.forward

    def spy(params, features):
        seen.append((params.flat.dtype, features.dtype))
        return real_forward(params, features)

    monkeypatch.setattr(embednet, "forward", spy)
    x, labels = toy_data(seed=1)
    config = toy_config()
    trained, _ = train_stage1(config, x, labels)
    n_stage1 = len(seen)
    align_stage2(config, trained, anchors_for(labels, 5), x, labels)
    assert 0 < n_stage1 < len(seen)
    assert set(seen) == {(np.dtype(np.float32), np.dtype(np.float32))}


def test_each_stage_draws_its_schedule_before_its_first_step(monkeypatch):
    events = []
    real_forward, real_sample = embednet.forward, trainer.sample_triplets
    real_default_rng = np.random.default_rng

    class LoggedGenerator:
        def __init__(self, rng):
            self.rng = rng

        def integers(self, *args, **kwargs):
            events.append("draw")
            return self.rng.integers(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    def forward(params, features):
        events.append("forward")
        return real_forward(params, features)

    def sample(*args, **kwargs):
        events.append("sample")
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(embednet, "forward", forward)
    monkeypatch.setattr(trainer, "sample_triplets", sample)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: LoggedGenerator(real_default_rng(seed)))
    x, labels = toy_data(seed=3)
    config = toy_config()
    trained, _ = train_stage1(config, x, labels)
    batches = -(-len(labels) // config.batch_size)
    steps = config.epochs_stage1 * batches
    first = events.index("forward")
    assert events[:first].count("sample") == steps
    assert "sample" not in events[first:] and "draw" not in events[first:]
    assert events.count("forward") == steps
    events.clear()
    align_stage2(config, trained, anchors_for(labels, 5), x, labels)
    steps = config.epochs_stage2 * batches
    first = events.index("forward")
    assert events[:first].count("draw") == 3 * config.batch_size * steps
    assert "draw" not in events[first:]
    assert events.count("forward") == steps


def test_working_head_is_the_masters_float32_cast_at_every_step(monkeypatch):
    seen, want, capped = [], [], []
    real_forward, real_step = embednet.forward, embednet.sgd_step
    real_cap = trainer._apply_maxnorm

    def forward(params, features):
        seen.append(params.flat.tobytes())
        return real_forward(params, features)

    def step(params, *args, **kwargs):
        real_step(params, *args, **kwargs)
        want.append(params.flat.astype(np.float32).tobytes())

    def cap(params, delta, scope):
        out = real_cap(params, delta, scope)
        capped.append(out is not params)
        master = params.copy()  # the master once _sgd_loop writes out.Wc
        master.Wc[...] = out.Wc
        want[-1] = master.flat.astype(np.float32).tobytes()
        return out

    monkeypatch.setattr(embednet, "forward", forward)
    monkeypatch.setattr(embednet, "sgd_step", step)
    monkeypatch.setattr(trainer, "_apply_maxnorm", cap)
    x, labels = toy_data(seed=6)
    # stage 1's classifier rows start past the cap: some steps cap them
    config = toy_config(maxnorm_delta=0.5, classifier_init_scale=1.0)
    stage1_start = embednet.init_head(
        6, 8, 5, 3, derive_seed(0, "init"), scale=config.init_scale,
        classifier_scale=1.0)
    assert np.linalg.norm(stage1_start.Wc, axis=1).max() > 0.5
    start = embednet.init_head(6, 8, 5, 3, seed=3, classifier_scale=0.5)
    for first, train in (
            (stage1_start, lambda: train_stage1(config, x, labels)),
            (start, lambda: align_stage2(config, start,
                                         anchors_for(labels, 5), x, labels))):
        seen.clear()
        want[:] = [first.flat.astype(np.float32).tobytes()]
        out, _ = train()
        assert len(seen) > 1 and seen == want[:-1]
        assert want[-1] == out.flat.astype(np.float32).tobytes()
    assert any(capped) and not all(capped)


def test_features_beyond_float32_are_rejected():
    x, labels = toy_data()
    config = toy_config()
    start = embednet.init_head(6, 8, 5, 3, seed=0)
    message = "training features are non-finite or exceed the float32 range"
    for value in (1e39, -1e39, np.nan):  # 1e39 is finite in float64 only
        x[3, 2] = value
        with pytest.raises(ValueError, match=message):
            train_stage1(config, x, labels)
        with pytest.raises(ValueError, match=message):
            align_stage2(config, start, anchors_for(labels, 5), x, labels)


FLOAT32_MIDPOINT = 3.4028235677973366e38  # halfway from float32's max to 2**128


class ReachedForward(Exception):
    pass


@pytest.mark.parametrize("value", [
    float(np.finfo(np.float32).max), -float(np.finfo(np.float32).max),
    np.nextafter(FLOAT32_MIDPOINT, 0.0), -np.nextafter(FLOAT32_MIDPOINT, 0.0),
    FLOAT32_MIDPOINT, -FLOAT32_MIDPOINT, np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("row", [0, -1])
def test_float32_range_check_refuses_what_a_full_cast_would(monkeypatch,
                                                            value, row):
    """The whole-array range check decides as a float32 cast of the
    whole table did, for a value in the first row or the last, and
    refuses before the first forward."""
    with np.errstate(over="ignore"):
        refused = not np.isfinite(np.float32(value))
    assert refused == (abs(value) >= FLOAT32_MIDPOINT or np.isnan(value))
    x, labels = toy_data()
    x[row, 4] = value
    config = toy_config()
    start = embednet.init_head(6, 8, 5, 3, seed=0)

    def forward(params, features):
        raise ReachedForward

    monkeypatch.setattr(embednet, "forward", forward)
    message = "training features are non-finite or exceed the float32 range"
    for train in (lambda: train_stage1(config, x, labels),
                  lambda: align_stage2(config, start, anchors_for(labels, 5),
                                       x, labels)):
        with pytest.raises(ValueError if refused else ReachedForward) as info:
            train()
        if refused:
            assert str(info.value) == message


@pytest.mark.parametrize("block_rows", [1, 2, 5, 64])
def test_batch_rows_are_cast_as_a_float32_table_gave(monkeypatch,
                                                     block_rows):
    monkeypatch.setattr(trainer, "_ROW_BLOCK", 6 * block_rows)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 6)) * 1e30  # every value rounds in float32
    rows = rng.integers(0, 40, 27)  # repeats, and 27 rows fill no block
    got = trainer._float32_rows(x, rows)
    assert got.tobytes() == x.astype(np.float32)[rows].tobytes()


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_holds_no_float32_copy_of_the_features():
    """Doubling the rows adds no N x D float32 table to a run's peak."""
    config = toy_config(d_in=256, epochs_stage1=1, epochs_stage2=1,
                        batch_size=32)
    n, peaks = 512, []
    for rows in (n, 2 * n):
        x, labels = toy_data(n_per=rows // 4, n_classes=4, dim=256)
        start = embednet.init_head(256, 8, 5, 4, seed=0)
        anchors = anchors_for(labels, 5)
        train_stage1(config, x, labels)  # warm imports and caches
        peaks.append((
            _traced_peak(lambda: train_stage1(config, x, labels)),
            _traced_peak(lambda: align_stage2(config, start, anchors, x,
                                              labels))))
    for small, large in zip(*peaks):
        assert large - small < n * 256 * 4 // 2


def test_train_stage1_holds_one_float64_head():
    """A fresh head is trained in place: the run holds it, its float32
    working head and gradients, and no spare float64 copy."""
    x, labels = toy_data(dim=1024)
    config = toy_config(d_in=1024, hidden=256, epochs_stage1=1)
    train_stage1(config, x, labels)  # warm imports and caches
    head = embednet.init_head(1024, 256, 5, 3, seed=0)
    peak = _traced_peak(lambda: train_stage1(config, x, labels))
    assert peak < 2.5 * head.flat.nbytes


def test_a_capping_stage1_run_copies_no_head():
    """Each capping step allocates a new Wc, not a new head: the run's
    peak stays that of a run that never caps (2.34 heads; a head copy
    per capping step made it 4.2)."""
    x, labels = toy_data(dim=1024)
    config = toy_config(d_in=1024, hidden=256, epochs_stage1=1,
                        maxnorm_delta=0.2, classifier_init_scale=3.0)
    head = embednet.init_head(1024, 256, 5, 3, derive_seed(0, "init"),
                              scale=config.init_scale, classifier_scale=3.0)
    assert np.linalg.norm(head.Wc, axis=1).min() > 0.2  # the first step caps
    trained, _ = train_stage1(config, x, labels)  # warm imports and caches
    assert np.linalg.norm(trained.Wc, axis=1).max() <= 0.2 + 1e-12
    peak = _traced_peak(lambda: train_stage1(config, x, labels))
    assert peak < 2.5 * head.flat.nbytes


def test_align_stage2_holds_one_float64_head():
    """Stage 2 trains the head it is given: the run holds the float32
    working head and gradients beside it, and no float64 copy (1.27
    heads; copying the head it was given made it 2.27)."""
    x, labels = toy_data(dim=1024)
    config = toy_config(d_in=1024, hidden=256)
    anchors = anchors_for(labels, 5)
    align_stage2(config, embednet.init_head(1024, 256, 5, 3, seed=0), anchors,
                 x, labels)  # warm imports and caches
    start = embednet.init_head(1024, 256, 5, 3, seed=0)
    peak = _traced_peak(lambda: align_stage2(config, start, anchors, x,
                                             labels))
    assert peak < 2.0 * start.flat.nbytes


def test_train_stage1_validation():
    x, labels = toy_data()
    with pytest.raises(ValueError, match="aligned"):
        train_stage1(toy_config(), x, labels[:-1])
    with pytest.raises(ValueError, match="d_in"):
        train_stage1(toy_config(d_in=9), x, labels)
    with pytest.raises(ValueError, match=">= 2 classes"):
        train_stage1(toy_config(), x, np.zeros(len(x), dtype=int))


def count_draws(monkeypatch):
    """A list that gets one entry per attribute looked up on any generator
    np.random.default_rng makes from here on: each draw, init_head's
    uniform weights included."""
    draws = []
    real_default_rng = np.random.default_rng

    class CountedGenerator:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            draws.append(name)
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: CountedGenerator(real_default_rng(seed)))
    return draws


def test_both_stages_check_the_feature_width_before_any_draw(monkeypatch):
    x, labels = toy_data()
    anchors = anchors_for(labels, 5)
    wide = embednet.init_head(9, 8, 5, 3, seed=0)
    draws = count_draws(monkeypatch)
    message = "feature dim 6 != head d_in 9"
    with pytest.raises(ValueError, match=message):
        train_stage1(toy_config(d_in=9), x, labels)
    with pytest.raises(ValueError, match=message):
        align_stage2(toy_config(), wide, anchors, x, labels)
    assert draws == []


def beyond_float32(x, labels):
    x = x.copy()
    x[3, 2] = 1e39
    return x, labels


@pytest.mark.parametrize("bad, message", [
    (lambda x, labels: (x, labels[:-1]),
     "features must be (N, D) aligned with labels"),
    (lambda x, labels: (np.hstack([x, x[:, :1]]), labels),
     "feature dim 7 != head d_in 6"),
    (beyond_float32,
     "training features are non-finite or exceed the float32 range"),
    (lambda x, labels: (x, np.zeros_like(labels)),
     "training needs >= 2 classes"),
], ids=["misaligned", "wrong-width", "beyond-float32", "one-class"])
def test_both_stages_refuse_the_same_inputs_the_same_way(monkeypatch, bad,
                                                         message):
    """Both stages enter through one check: the same bad input raises the
    same one-line message in each, before any generator draw."""
    x, labels = toy_data()
    anchors = anchors_for(labels, 5)
    start = embednet.init_head(6, 8, 5, 3, seed=0)
    x, labels = bad(x, labels)
    draws = count_draws(monkeypatch)
    for train in (lambda: train_stage1(toy_config(), x, labels),
                  lambda: align_stage2(toy_config(), start, anchors, x,
                                       labels)):
        with pytest.raises(ValueError) as info:
            train()
        assert str(info.value) == message
    assert draws == []


def test_only_a_classifier_that_moves_is_capped(monkeypatch):
    calls = []
    real_cap = trainer._apply_maxnorm

    def cap(params, delta, scope):
        calls.append(scope)
        return real_cap(params, delta, scope)

    monkeypatch.setattr(trainer, "_apply_maxnorm", cap)
    x, labels = toy_data(seed=5)
    config = toy_config(maxnorm_delta=0.5)
    steps = config.epochs_stage1 * -(-len(labels) // config.batch_size)
    train_stage1(config, x, labels)
    assert calls == ["classifier"] * steps
    calls.clear()
    train_stage1(toy_config(ltr_enabled=False), x, labels)
    assert calls == []
    # stage 2 starts from classifier rows far over the cap and keeps them
    start = embednet.init_head(6, 8, 5, 3, seed=2, classifier_scale=5.0)
    assert np.linalg.norm(start.Wc, axis=1).min() > config.maxnorm_delta
    kept = start.Wc.tobytes()
    aligned, _ = align_stage2(config, start, anchors_for(labels, 5), x, labels)
    assert calls == []
    assert aligned.Wc.tobytes() == kept


def anchors_for(labels, dim, seed=0):
    rng = np.random.default_rng(seed)
    return {int(t): rng.normal(size=dim) for t in np.unique(labels)}


def test_align_stage2_freezes_classifier_and_records():
    x, labels = toy_data()
    config = toy_config()
    start, _ = train_stage1(config, x, labels)
    kept = start.copy()
    anchors = anchors_for(labels, 5)
    aligned, history = align_stage2(config, start, anchors, x, labels)
    assert aligned.Wc.tobytes() == kept.Wc.tobytes()
    assert aligned.bc.tobytes() == kept.bc.tobytes()
    assert not np.array_equal(aligned.W1, kept.W1)
    assert len(history.entries) == config.epochs_stage2
    assert history.entries[0]["components"].keys() == {"cosine"}


def test_align_stage2_pulls_embeddings_toward_anchors():
    x, labels = toy_data(spread=6.0)
    config = toy_config(epochs_stage2=8)
    start, _ = train_stage1(config, x, labels)
    anchors = anchors_for(labels, 5, seed=1)

    def mean_anchor_cos(params):
        emb, _, _ = embednet.forward(params, x)
        total = 0.0
        for t, vec in anchors.items():
            e = emb[labels == t]
            cos = e @ vec / (np.linalg.norm(e, axis=1) * np.linalg.norm(vec))
            total += cos.mean()
        return total / len(anchors)

    before = mean_anchor_cos(start)
    aligned, history = align_stage2(config, start, anchors, x, labels)
    assert mean_anchor_cos(aligned) > before
    assert history.entries[-1]["mean_loss"] < history.entries[0]["mean_loss"]


def test_align_stage2_sizes_nothing_by_taxon_id():
    x, labels = toy_data(seed=2, n_classes=2)
    config = toy_config()
    start = embednet.init_head(6, 8, 5, 2, seed=3)
    vecs = anchors_for(labels, 5, seed=2)
    small, _ = align_stage2(config, start.copy(), vecs, x, labels)
    far = np.where(labels == 1, 10**6, 0)
    tracemalloc.start()
    try:
        big, _ = align_stage2(config, start, {0: vecs[0], 10**6: vecs[1]},
                              x, far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert big.flat.tobytes() == small.flat.tobytes()
    assert peak < 1_000_000  # an anchor row per id up to 10**6 is 40 MB


def test_align_stage2_is_deterministic():
    x, labels = toy_data(seed=4)
    config = toy_config()
    start = embednet.init_head(6, 8, 5, 3, seed=1)
    anchors = anchors_for(labels, 5)
    one, _ = align_stage2(config, start.copy(), anchors, x, labels)
    two, _ = align_stage2(config, start.copy(), anchors, x, labels)
    for name in embednet.FIELDS:
        assert getattr(one, name).tobytes() == getattr(two, name).tobytes()


def test_align_stage2_validation():
    x, labels = toy_data()
    config = toy_config()
    params = embednet.init_head(6, 8, 5, 3, seed=0)
    with pytest.raises(ValueError, match="anchor dim"):
        align_stage2(config, params, anchors_for(labels, 4), x, labels)
    bad = anchors_for(labels, 5)
    bad[0] = np.zeros(5)
    with pytest.raises(ValueError, match="zero-norm"):
        align_stage2(config, params, bad, x, labels)
    with pytest.raises(ValueError, match=">= 2 classes"):
        align_stage2(config, params, bad, x, np.zeros_like(labels))


def test_history_record_and_write(tmp_path):
    history = TrainHistory("stage1")
    history.record(0, 2.0, {"softmax": 1.5})
    with pytest.raises(ValueError, match="non-finite"):
        history.record(1, float("nan"), {})
    other = TrainHistory("stage2")
    other.record(0, 1.0, {"cosine": 1.0})
    path = tmp_path / "history.json"
    write_history([history, other], path)
    obj = json.loads(path.read_text())
    assert set(obj) == {"stage1", "stage2"}
    assert obj["stage1"][0]["mean_loss"] == 2.0


def test_trainer_builds_one_class_index():
    """Per-class member arrays (np.unique, np.flatnonzero) are built in
    _class_index alone, the index both stages and sample_triplets use."""
    tree = ast.parse(Path(trainer.__file__).read_text(encoding="utf-8"))
    builders = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                if isinstance(node, ast.Attribute)
                and node.attr in ("unique", "flatnonzero")}
    assert builders == {"_class_index"}


def test_trainer_runs_one_training_loop():
    """trainer.py calls embednet's forward, backward and sgd_step once
    each, in the one SGD loop both stages share."""
    tree = ast.parse(Path(trainer.__file__).read_text(encoding="utf-8"))
    calls = [node.func.attr for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "embednet"]
    assert {name: calls.count(name)
            for name in ("forward", "backward", "sgd_step")} == {
        "forward": 1, "backward": 1, "sgd_step": 1}
