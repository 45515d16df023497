"""Two-stage training tests: config, sampling, both loops."""

import json
import tracemalloc

import numpy as np
import pytest

from oracles import sample_triplets_oracle
from xmodal import embednet, trainer
from xmodal.trainer import (
    TrainConfig,
    TrainHistory,
    _anchor_matrix,
    _triplet_tables,
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
    config.save(path)
    assert TrainConfig.load(path) == config


def test_sample_triplets_structure():
    labels = np.array([0, 0, 0, 1, 1, 2])
    rng = np.random.default_rng(3)
    for a, p, n in sample_triplets(labels, 200, rng):
        assert labels[a] == labels[p] and a != p
        assert labels[n] != labels[a]
        # class 2 has one sample: never an anchor, allowed as negative
        assert labels[a] != 2


def test_sample_triplets_is_seed_deterministic():
    labels = np.array([0, 0, 1, 1, 1])
    one = sample_triplets(labels, 16, np.random.default_rng(9))
    two = sample_triplets(labels, 16, np.random.default_rng(9))
    assert one == two


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_sample_triplets_matches_oracle(seed):
    # class 3 has exactly two members, so its positive is fixed; class 4
    # has one and is only ever a negative
    labels = np.array([2, 0, 1, 0, 3, 1, 0, 2, 4, 1, 0, 3, 2, 0, 1])
    labels = np.random.default_rng(100 + seed).permutation(labels)
    got = sample_triplets(labels, 64, np.random.default_rng(seed))
    want = sample_triplets_oracle(labels, 64, np.random.default_rng(seed))
    assert got == want
    # tables built once and reused across calls make the same draws
    tables = _triplet_tables(labels)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert (sample_triplets(labels, 16, rng, tables)
                == sample_triplets_oracle(labels, 16, oracle_rng))


def test_sample_triplets_rejects_degenerate_labels():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=">= 2 item"):
        sample_triplets(np.array([0]), 4, rng)
    with pytest.raises(ValueError, match=">= 2 class"):
        sample_triplets(np.array([0, 0, 0]), 4, rng)
    with pytest.raises(ValueError, match="positive pair"):
        sample_triplets(np.array([0, 1]), 4, rng)


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
        for name, hists in (("train", hist1), ("align", hist2),
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


def test_training_leaves_the_callers_head_untouched():
    x, labels = toy_data(seed=6)
    # classifier rows start past the cap, so stage 1 takes capping steps
    config = toy_config(maxnorm_delta=0.5)
    start = embednet.init_head(6, 8, 5, 3, seed=3, classifier_scale=2.0)
    assert np.linalg.norm(start.Wc, axis=1).max() > 0.5
    kept = start.flat.copy()
    trained, _ = train_stage1(config, x, labels, params=start)
    assert start.flat.tobytes() == kept.tobytes()
    kept = trained.flat.copy()
    aligned, _ = align_stage2(config, trained, anchors_for(labels, 5), x,
                              labels)
    assert trained.flat.tobytes() == kept.tobytes()
    assert not np.array_equal(aligned.W1, trained.W1)
    assert trained.flat.dtype == aligned.flat.dtype == np.float64


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
        want[-1] = out.flat.astype(np.float32).tobytes()
        return out

    monkeypatch.setattr(embednet, "forward", forward)
    monkeypatch.setattr(embednet, "sgd_step", step)
    monkeypatch.setattr(trainer, "_apply_maxnorm", cap)
    x, labels = toy_data(seed=6)
    # classifier rows reach the cap during stage 1: some steps cap them
    config = toy_config(maxnorm_delta=0.5)
    start = embednet.init_head(6, 8, 5, 3, seed=3, classifier_scale=0.5)
    for train in (train_stage1, lambda *args: align_stage2(
            config, start, anchors_for(labels, 5), x, labels)):
        seen.clear()
        want[:] = [start.flat.astype(np.float32).tobytes()]
        out, _ = train(config, x, labels, start)
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


def test_train_stage1_warm_start_and_validation():
    x, labels = toy_data()
    start = embednet.init_head(6, 8, 5, 3, seed=42)
    params, _ = train_stage1(toy_config(epochs_stage1=0), x, labels, params=start)
    assert params is start
    with pytest.raises(ValueError, match="aligned"):
        train_stage1(toy_config(), x, labels[:-1])
    with pytest.raises(ValueError, match="d_in"):
        train_stage1(toy_config(d_in=9), x, labels)
    with pytest.raises(ValueError, match=">= 2 classes"):
        train_stage1(toy_config(), x, np.zeros(len(x), dtype=int))


def test_anchor_matrix_has_one_row_per_present_taxon():
    vecs = {0: np.array([1.0, 0.0]), 2: np.array([0.0, 2.0]),
            5: np.array([3.0, 3.0])}
    mat = _anchor_matrix(vecs, present_taxa=[2, 0])
    assert mat.shape == (2, 2)  # one row per present taxon, in sorted order
    assert np.array_equal(mat, [[1.0, 0.0], [0.0, 2.0]])


def test_anchor_matrix_rejects_bad_tables():
    a = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="missing anchors"):
        _anchor_matrix({0: a}, present_taxa=[0, 1])
    with pytest.raises(ValueError, match="dimension"):
        _anchor_matrix({0: a, 1: np.ones(3)}, present_taxa=[0, 1])


def anchors_for(labels, dim, seed=0):
    rng = np.random.default_rng(seed)
    return {int(t): rng.normal(size=dim) for t in np.unique(labels)}


def test_align_stage2_freezes_classifier_and_records():
    x, labels = toy_data()
    config = toy_config()
    start, _ = train_stage1(config, x, labels)
    anchors = anchors_for(labels, 5)
    aligned, history = align_stage2(config, start, anchors, x, labels)
    assert aligned.Wc.tobytes() == start.Wc.tobytes()
    assert aligned.bc.tobytes() == start.bc.tobytes()
    assert not np.array_equal(aligned.W1, start.W1)
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

    aligned, history = align_stage2(config, start, anchors, x, labels)
    assert mean_anchor_cos(aligned) > mean_anchor_cos(start)
    assert history.entries[-1]["mean_loss"] < history.entries[0]["mean_loss"]


def test_align_stage2_sizes_nothing_by_taxon_id():
    x, labels = toy_data(seed=2, n_classes=2)
    config = toy_config()
    start = embednet.init_head(6, 8, 5, 2, seed=3)
    vecs = anchors_for(labels, 5, seed=2)
    small, _ = align_stage2(config, start, vecs, x, labels)
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
    one, _ = align_stage2(config, start, anchors, x, labels)
    two, _ = align_stage2(config, start, anchors, x, labels)
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
    with pytest.raises(ValueError, match=">= 2 taxa"):
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
