"""Command line tests: every subcommand end to end on a tiny dataset."""

import ast
import dataclasses
import importlib.metadata
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import xmodal
from xmodal import cli, dataio, embednet, sgt, synthgen, trainer
from xmodal.cli import PipelineConfig, main, run_pipeline
from xmodal.synthgen import SynthSpec

TINY_SPEC = {
    "genera": 2, "species_per_genus": 2, "head": 30, "tail": 6,
    "dim": 8, "seq_len": 40, "seqs_per_species": 4, "seed": 0,
}
TINY_TRAIN = {
    "d_in": 8, "hidden": 16, "embed_dim": 256, "batch_size": 16,
    "epochs_stage1": 2, "epochs_stage2": 1, "seed": 0,
}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """Run synth -> sgt-embed -> anchors -> train -> align -> eval -> layout."""
    root = tmp_path_factory.mktemp("chain")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    config_path = root / "config.json"
    config_path.write_text(json.dumps(TINY_TRAIN))
    data = root / "data"

    steps = [
        ["synth", "--spec", str(spec_path), "--out", str(data)],
        ["sgt-embed", "--fasta", str(data / "sequences.fa"),
         "--labels", str(data / "labels.csv"), "--out", str(root / "genetic.csv")],
        ["anchors", "--in", str(root / "genetic.csv"),
         "--out", str(root / "anchors.csv")],
        ["train", "--config", str(config_path),
         "--features", str(data / "train.csv"),
         "--out", str(root / "ckpt.json"), "--history", str(root / "hist1.json")],
        ["align", "--config", str(config_path), "--ckpt", str(root / "ckpt.json"),
         "--anchors", str(root / "anchors.csv"),
         "--features", str(data / "train.csv"),
         "--out", str(root / "aligned.json"),
         "--history", str(root / "hist2.json")],
        ["eval", "--ckpt", str(root / "aligned.json"),
         "--gallery", str(data / "train.csv"),
         "--queries", str(data / "test.csv"), "--k", "3",
         "--out", str(root / "metrics.json")],
        ["layout", "--ckpt", str(root / "aligned.json"),
         "--features", str(data / "train.csv"), "--iters", "300",
         "--out", str(root / "layout.csv")],
    ]
    # `pipeline` trains and evaluates on one BLAS thread; the chain does
    # too, so their files can be compared byte for byte on any machine
    with cli._one_blas_thread():
        for argv in steps:
            assert main(argv) == 0, argv[0]
    return root


def test_synth_writes_dataset(chain):
    data = chain / "data"
    for name in ("sequences.fa", "labels.csv", "train.csv", "test.csv",
                 "split.json", "truth.json"):
        assert (data / name).exists(), name
    manifest = json.loads((data / "truth.json").read_text())
    assert manifest["n_classes"] == 4


def test_sgt_embed_and_anchors_outputs(chain):
    genetic = dataio.load_feature_csv(chain / "genetic.csv")
    assert genetic.n == 16 and genetic.matrix.shape[1] == 256
    anchors = dataio.load_feature_csv(chain / "anchors.csv")
    assert anchors.n == 4
    assert anchors.labels.tolist() == [0, 1, 2, 3]


def test_train_and_align_checkpoints(chain):
    from xmodal.embednet import load_checkpoint

    stage1, tag1, lineage1 = load_checkpoint(chain / "ckpt.json")
    assert tag1 == "stage1" and "init" in lineage1 and "stage1" in lineage1
    stage2, tag2, lineage2 = load_checkpoint(chain / "aligned.json")
    assert tag2 == "stage2" and "stage2" in lineage2
    # stage 2 froze the classifier
    assert stage2.Wc.tobytes() == stage1.Wc.tobytes()
    hist1 = json.loads((chain / "hist1.json").read_text())
    assert len(hist1["stage1"]) == TINY_TRAIN["epochs_stage1"]
    hist2 = json.loads((chain / "hist2.json").read_text())
    assert len(hist2["stage2"]) == TINY_TRAIN["epochs_stage2"]


def test_eval_and_layout_outputs(chain):
    metrics = json.loads((chain / "metrics.json").read_text())
    assert 0.0 <= metrics["overall"] <= 1.0
    assert metrics["k"] == 3
    assert len(metrics["per_class"]) == 4
    assert metrics["tail"] is not None  # all tiny classes sit below 100
    lines = (chain / "layout.csv").read_text().strip().splitlines()
    assert lines[0] == "class_id,x,y,stress"
    assert len(lines) == 5


def test_eval_with_centroid_gallery(chain):
    out = chain / "metrics_centroid.json"
    rc = main(["eval", "--ckpt", str(chain / "aligned.json"),
               "--gallery", str(chain / "data" / "train.csv"),
               "--queries", str(chain / "data" / "test.csv"),
               "--k", "1", "--centroids", "--out", str(out)])
    assert rc == 0
    metrics = json.loads(out.read_text())
    assert metrics["k"] == 1 and metrics["n_test"] > 0


def test_eval_counts_pads_to_query_labels(tmp_path):
    """Counts cover taxon 0 only, the gallery {0, 1}, the queries {0, 1, 2}."""
    rng = np.random.default_rng(0)

    def write_table(name, labels):
        table = dataio.FeatureTable([f"{name}{i}" for i in range(len(labels))],
                                    labels, rng.normal(size=(len(labels), 8)))
        dataio.write_feature_csv(table, tmp_path / f"{name}.csv")
        return str(tmp_path / f"{name}.csv")

    gallery = write_table("gallery", [0, 0, 0, 1, 1, 1])
    queries = write_table("queries", [0, 1, 2, 2])
    counts = tmp_path / "counts.csv"
    counts.write_text("taxon_id,train_count\n0,3\n")
    ckpt = tmp_path / "ckpt.json"
    embednet.save_checkpoint(embednet.init_head(8, 16, 4, 2, seed=0), ckpt,
                             "stage1")
    out = tmp_path / "metrics.json"
    rc = main(["eval", "--ckpt", str(ckpt), "--gallery", gallery,
               "--queries", queries, "--k", "3", "--counts", str(counts),
               "--out", str(out)])
    assert rc == 0
    metrics = json.loads(out.read_text())
    assert metrics["taxa"] == [0, 1, 2]
    assert np.array(metrics["confusion"]).shape == (3, 3)
    assert len(metrics["per_class"]) == 3
    assert metrics["per_class"][2] == 0.0


def _two_taxon_chain(root, taxa):
    """train -> align -> eval through main on 60 rows of 8-d features
    labelled by the two ids in `taxa`; returns (stage-1 checkpoint bytes,
    metrics dict)."""
    root.mkdir()
    rng = np.random.default_rng(0)
    labels = np.repeat(taxa, 30)
    matrix = rng.normal(size=(60, 8)) + 3.0 * (labels == taxa[1])[:, None]
    for name, rows in (("train", slice(0, 60, 2)), ("test", slice(1, 60, 2))):
        ids = [f"{name}{i}" for i in range(60)][rows]
        dataio.write_feature_csv(
            dataio.FeatureTable(ids, labels[rows], matrix[rows]),
            root / f"{name}.csv")
    dataio.write_feature_csv(
        dataio.FeatureTable(["a0", "a1"], taxa, rng.normal(size=(2, 256))),
        root / "anchors.csv")
    (root / "config.json").write_text(json.dumps(TINY_TRAIN))
    config, train, ckpt, aligned = (str(root / name) for name in (
        "config.json", "train.csv", "ckpt.json", "aligned.json"))
    steps = [
        ["train", "--config", config, "--features", train, "--out", ckpt],
        ["align", "--config", config, "--ckpt", ckpt,
         "--anchors", str(root / "anchors.csv"), "--features", train,
         "--out", aligned],
        ["eval", "--ckpt", aligned, "--gallery", train,
         "--queries", str(root / "test.csv"), "--k", "3",
         "--out", str(root / "metrics.json")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]
    return ((root / "ckpt.json").read_bytes(),
            json.loads((root / "metrics.json").read_text()))


@pytest.mark.parametrize("taxa", [[0, 3000], [0, 10**6], [0, 7 * 10**12]],
                         ids=["3000", "1e6", "7e12"])
def test_sparse_taxon_ids_size_nothing(tmp_path, taxa):
    """Taxon ids name rows, never size them: any two ids train the same
    head as ids 0 and 1, and the metrics list the ids they were given."""
    ckpt, metrics = _two_taxon_chain(tmp_path / "dense", [0, 1])
    sparse_ckpt, sparse_metrics = _two_taxon_chain(tmp_path / "sparse", taxa)
    assert sparse_ckpt == ckpt
    assert metrics["taxa"] == [0, 1]
    assert sparse_metrics["taxa"] == taxa
    assert {**sparse_metrics, "taxa": [0, 1]} == metrics


def _without_dims(data):
    obj = json.loads(data)
    del obj["dims"]
    return json.dumps(obj).encode()


def _cut(fraction):
    return lambda data: data[:int(fraction * len(data))]


def _in_a_row(byte, fraction):
    """Replace the first digit at or after `fraction` of the file."""
    def damage(data):
        at = re.compile(rb"[0-9]").search(data, int(fraction * len(data))).start()
        return data[:at] + byte + data[at + 1:]
    return damage


# a missing key, a quoted number, truncation at several offsets, and bytes
# no number holds written over a digit of an array row
CHECKPOINT_DAMAGE = {
    "missing-key": _without_dims,
    "string-value": lambda data: re.sub(rb'"W1":\[\[([^,\]]+)', rb'"W1":[["\1"',
                                        data, count=1),
    "truncated": _cut(0.5),
    **{f"truncated-at-{f:g}": _cut(f) for f in (0, 1e-4, 0.01, 0.3, 0.99)},
    "truncated-before-brace": lambda data: data[:-2],
    **{f"byte-{byte.hex()}-at-{f:g}": _in_a_row(byte, f)
       for byte, f in ((b"x", 0.01), (b'"', 0.2), (b" ", 0.4), (b"\0", 0.6),
                       (b"\xff", 0.8), (b"[", 0.9))},
}


@pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
def test_eval_reports_malformed_checkpoint(chain, tmp_path, capsys, damage):
    bad = tmp_path / "bad.json"
    bad.write_bytes(CHECKPOINT_DAMAGE[damage]((chain / "aligned.json").read_bytes()))
    capsys.readouterr()
    rc = main(["eval", "--ckpt", str(bad),
               "--gallery", str(chain / "data" / "train.csv"),
               "--queries", str(chain / "data" / "test.csv"),
               "--k", "3", "--out", str(tmp_path / "metrics.json")])
    err = capsys.readouterr().err
    assert rc == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert str(bad) in lines[0]
    assert lines[0].startswith(f"error: {bad}: malformed checkpoint: "), err
    if damage == "missing-key":
        assert "'dims'" in lines[0]
    if damage == "string-value":
        assert "W1 holds an entry that is not a number" in lines[0]
    assert "Traceback" not in err
    assert not (tmp_path / "metrics.json").exists()


def _config_argv(chain, tmp_path, command, path):
    if command == "synth":
        return ["synth", "--spec", str(path), "--out", str(tmp_path / "data")]
    argv = [command, "--config", str(path),
            "--features", str(chain / "data" / "train.csv"),
            "--out", str(tmp_path / "ckpt.json"),
            "--history", str(tmp_path / "hist.json")]
    if command == "align":
        argv += ["--ckpt", str(chain / "ckpt.json"),
                 "--anchors", str(chain / "anchors.csv")]
    return argv


@pytest.mark.parametrize("command, key, value", [
    ("synth", "dim", 64.5),
    ("synth", "seqs_per_species", 4.0),
    ("synth", "seed", True),
    ("train", "epochs_stage1", 1.5),
    ("train", "batch_size", 2.5),
    ("train", "hidden", "16"),
    ("train", "ltr_enabled", 1),
    ("train", "lr", "0.1"),
    ("align", "batch_size", 2.5),
    ("align", "align_enabled", "yes"),
    ("align", "margin_m", None),
    ("synth", "ratio", False),
])
def test_config_values_of_the_wrong_kind_give_one_error_line(
        chain, tmp_path, capsys, command, key, value):
    base = TINY_SPEC if command == "synth" else TINY_TRAIN
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**base, key: value}))
    capsys.readouterr()
    assert main(_config_argv(chain, tmp_path, command, path)) == 1
    err = capsys.readouterr().err
    kind = ("true or false" if key.endswith("_enabled") else
            "a number" if key in ("lr", "margin_m", "ratio") else "an integer")
    assert err == f"error: {path}: {key} must be {kind}, got {value!r}\n"
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "ckpt.json").exists()


@pytest.mark.parametrize("command, key, value", [
    ("train", "lr", float("nan")),
    ("train", "maxnorm_delta", float("inf")),
    ("align", "weight_decay", float("inf")),
    ("synth", "sigma_v", float("nan")),
    ("synth", "sigma_map", float("inf")),
    ("synth", "kappa", float("inf")),
    ("synth", "map_scale", float("inf")),
])
def test_config_floats_that_are_not_finite_give_one_error_line(
        chain, tmp_path, capsys, command, key, value):
    base = TINY_SPEC if command == "synth" else TINY_TRAIN
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**base, key: value}))  # NaN or Infinity
    capsys.readouterr()
    assert main(_config_argv(chain, tmp_path, command, path)) == 1
    assert (capsys.readouterr().err
            == f"error: {path}: {key} must be finite, got {value!r}\n")
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "ckpt.json").exists()


# every range rule of the three configs, by the flag that reads its file
LIMIT_RULES = {
    "train --config": {
        "lr": (">= 0",), "batch_size": (">= 1",), "epochs_stage1": (">= 0",),
        "epochs_stage2": (">= 0",), "mix_lambda": (">= 0",),
        "weight_decay": (">= 0",), "maxnorm_delta": ("> 0",),
        "d_in": (">= 1",), "hidden": (">= 1",), "embed_dim": (">= 1",),
        "init_scale": ("> 0",), "classifier_init_scale": ("> 0",)},
    "synth --spec": {
        "genera": (">= 1",), "species_per_genus": (">= 1",),
        "head": (">= 1",), "tail": (">= 1",), "ratio": ("> 0", "<= 1"),
        "dim": (">= 1",), "sigma_v": (">= 0",), "seq_len": (">= 4",),
        "mu_genus": (">= 0", "<= 1"), "mu_species": (">= 0", "<= 1"),
        "mu_individual": (">= 0", "<= 1"), "seqs_per_species": (">= 1",),
        "map_scale": ("> 0",), "sigma_map": (">= 0",), "kappa": ("> 0",)},
    "pipeline --config": {"k": (">= 1",)},
}
# flag -> (config class, a valid file); alignment is off in the train
# file so that embed_dim may sit at its bound
LIMIT_FILES = {
    "train --config": (trainer.TrainConfig,
                       {**TINY_TRAIN, "align_enabled": False}),
    "synth --spec": (SynthSpec, TINY_SPEC),
    "pipeline --config": (PipelineConfig, {"k": 3, "train": TINY_TRAIN,
                                           "synth_spec": TINY_SPEC}),
}


def test_limits_tables_are_the_tested_rules():
    tables = {flag: cls.limits for flag, (cls, _) in LIMIT_FILES.items()}
    assert tables == LIMIT_RULES


@pytest.mark.parametrize("flag, key, rule", [
    pytest.param(flag, key, rule, id=key + rule.replace(" ", ""))
    for flag, limits in LIMIT_RULES.items()
    for key, rules in limits.items() for rule in rules])
def test_config_values_out_of_range_give_one_error_line(
        chain, tmp_path, capsys, flag, key, rule):
    cls, base = LIMIT_FILES[flag]
    kind = next(f.type for f in dataclasses.fields(cls) if f.name == key)
    op, bound = rule.split()
    bound = kind(bound)
    # the bound of an open rule, or the nearest value past a closed one
    step = -1 if op == ">=" else 1
    past = (bound if op == ">" else bound + step if kind is int
            else math.nextafter(bound, step * math.inf))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**base, key: past}))
    command = flag.split()[0]
    argv = (_config_argv(chain, tmp_path, command, path) if command != "pipeline"
            else [command, "--config", str(path), "--out", str(tmp_path / "data")])
    capsys.readouterr()
    assert main(argv) == 1
    assert (capsys.readouterr().err
            == f"error: {path}: {key} must be {rule}, got {past}\n")
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "ckpt.json").exists()
    if op != ">":
        cls.from_dict({**base, key: bound})  # a closed rule's bound passes


@pytest.mark.parametrize("kappa", ["inf", "nan"])
def test_sgt_embed_refuses_a_kappa_that_is_not_finite(chain, tmp_path,
                                                      capsys, kappa):
    out = tmp_path / "genetic.csv"
    capsys.readouterr()
    assert main(["sgt-embed", "--fasta", str(chain / "data" / "sequences.fa"),
                 "--labels", str(chain / "data" / "labels.csv"),
                 "--kappa", kappa, "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == f"error: kappa must be positive and finite, got {kappa}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--iters", "-5", "iters must be >= 0, got -5", id="iters"),
    # NaN or a negative tol would never stop a descent early
    pytest.param("--tol", "nan", "tol must be >= 0, got nan", id="tol-nan"),
    pytest.param("--tol", "-1", "tol must be >= 0, got -1.0", id="tol-negative"),
])
def test_layout_refuses_negative_iters(chain, tmp_path, capsys, flag, value,
                                       message):
    out = tmp_path / "layout.csv"
    capsys.readouterr()
    assert main(["layout", "--ckpt", str(chain / "aligned.json"),
                 "--features", str(chain / "data" / "train.csv"),
                 flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# each flag that names a config or spec file -> the noun of its errors
CONFIG_FLAGS = {"train --config": "config", "align --config": "config",
                "synth --spec": "synth spec", "pipeline --spec": "synth spec",
                "pipeline --config": "pipeline config"}

# name -> (file bytes, the type a JSON object was expected in place of,
# or None for a file that is not JSON or not UTF-8)
NOT_OBJECT_FILES = {"int": (b"5", "int"), "null": (b"null", "NoneType"),
                    "array": (b"[1]", "list"), "string": (b'"x"', "str"),
                    "open-brace": (b"{", None), "not-utf8": (b"\xff", None),
                    "too-deep": (b"[" * 100_000, None)}


@pytest.mark.parametrize("name", sorted(NOT_OBJECT_FILES))
@pytest.mark.parametrize("flag", sorted(CONFIG_FLAGS))
def test_config_files_that_are_not_json_objects_give_one_error_line(
        chain, tmp_path, capsys, monkeypatch, flag, name):
    text, kind = NOT_OBJECT_FILES[name]
    path = tmp_path / "config.json"
    path.write_bytes(text)
    command, option = flag.split()
    if command == "pipeline":
        argv = [command, option, str(path), "--out", str(tmp_path / "data")]
    else:
        argv = _config_argv(chain, tmp_path, command, path)
    seen = []

    def stop(spec, pipe, out_dir):
        seen.append(pipe)
        raise ValueError("stopped before the run")

    monkeypatch.setattr(cli, "run_pipeline", stop)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    if flag == "pipeline --config" and name == "null":
        # null is the empty config
        assert err == "error: stopped before the run\n"
        assert (seen[0].k, seen[0].train) == (5, {})
    elif kind is None:
        assert re.fullmatch(f"error: {re.escape(str(path))}: [^\n]+\n", err)
    else:
        assert (err == f"error: {path}: {CONFIG_FLAGS[flag]} must be a JSON"
                       f" object, got {kind}\n")
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "ckpt.json").exists()


@pytest.mark.parametrize("flag", sorted(CONFIG_FLAGS))
def test_config_faults_name_the_file(chain, tmp_path, capsys, flag):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"bogus": 1}))
    command, option = flag.split()
    if command == "pipeline":
        argv = [command, option, str(path), "--out", str(tmp_path / "data")]
    else:
        argv = _config_argv(chain, tmp_path, command, path)
    capsys.readouterr()
    assert main(argv) == 1
    assert (capsys.readouterr().err
            == f"error: {path}: unknown {CONFIG_FLAGS[flag]} fields: ['bogus']\n")
    assert not (tmp_path / "data").exists()
    assert not (tmp_path / "ckpt.json").exists()


def test_pipeline_config_and_spec_faults_name_their_file(tmp_path, capsys):
    config = tmp_path / "pipe.json"
    config.write_text(json.dumps({"k": 3, "train": TINY_TRAIN,
                                  "synth_spec": {**TINY_SPEC, "bogus": 1}}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**TINY_SPEC, "dim": 0.5}))
    out = tmp_path / "out"
    capsys.readouterr()
    # the config passed as the spec too: the spec's fault names it
    assert main(["pipeline", "--config", str(spec), "--spec", str(config),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {spec}: unknown pipeline config fields:"
        f" {sorted(TINY_SPEC)}\n")
    assert main(["pipeline", "--config", str(config), "--spec", str(config),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: unknown synth spec fields:"
        " ['k', 'synth_spec', 'train']\n")
    # a spec inside the config is named by the config's path
    assert main(["pipeline", "--config", str(config), "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == f"error: {config}: unknown synth spec fields: ['bogus']\n")
    assert main(["pipeline", "--spec", str(spec), "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == f"error: {spec}: dim must be an integer, got 0.5\n")
    assert not out.exists()


def test_pipeline_checks_train_overrides_before_generating_data(
        tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(synthgen, "generate", calls.append)
    config_path = tmp_path / "pipe.json"
    config_path.write_text(json.dumps({"train": {"lr": "x"}}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config_path),
                 "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == f"error: {config_path}: lr must be a number, got 'x'\n")
    assert calls == []
    assert not out.exists()


def _spy_write(path, value):
    """Append repr(`value`) as a line of file `path`.  Pipeline branches
    run in child processes, so a spy inside one leaves its record in a
    file, not in a list of the test's process."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(repr(value) + "\n")


def _spy_read(path):
    """The values _spy_write appended to `path`, in order."""
    if not path.exists():
        return []
    return [ast.literal_eval(line) for line in path.read_text().splitlines()]


def test_pipeline_branches_set_ltr_and_align_over_the_overrides(monkeypatch,
                                                                tmp_path):
    seen = tmp_path / "seen.txt"

    def stop(config, *args):
        _spy_write(seen, (config.ltr_enabled, config.align_enabled))
        raise ValueError("stopped after the config")

    monkeypatch.setattr(trainer, "train_stage1", stop)
    pipe = PipelineConfig.from_dict(
        {"train": {**TINY_TRAIN, "ltr_enabled": "x", "align_enabled": False}})
    with pytest.raises(ValueError, match="stopped after the config"):
        run_pipeline(SynthSpec.from_dict(TINY_SPEC), pipe)
    assert sorted(_spy_read(seen)) == [(False, True), (True, True)]


def test_config_values_may_be_numpy_scalars():
    spec = SynthSpec.from_dict({**TINY_SPEC, "dim": np.int32(8),
                                "seed": np.uint64(3), "ratio": np.float32(0.5)})
    assert spec.dim == 8 and spec.seed == 3
    config = trainer.TrainConfig.from_dict({**TINY_TRAIN, "lr": 1,
                                            "batch_size": np.int64(8),
                                            "ltr_enabled": np.bool_(False)})
    assert config.batch_size == 8 and not config.ltr_enabled


def test_cli_reports_errors_as_exit_one(chain, capsys):
    assert main(["synth", "--spec", "missing.json", "--out", "x"]) == 1
    assert "error:" in capsys.readouterr().err
    # k larger than the tiny gallery
    rc = main(["eval", "--ckpt", str(chain / "aligned.json"),
               "--gallery", str(chain / "data" / "train.csv"),
               "--queries", str(chain / "data" / "test.csv"),
               "--k", "999", "--out", str(chain / "bad.json")])
    assert rc == 1
    assert "exceeds gallery" in capsys.readouterr().err


def test_out_of_memory_is_one_error_line(monkeypatch, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    synth = ["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d")]
    pipeline = ["pipeline", "--spec", str(spec_path),
                "--out", str(tmp_path / "p")]

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB")

    one_line = "error: Unable to allocate 8.00 EiB\n"

    with monkeypatch.context() as patch:
        patch.setattr(synthgen, "generate", exhausted)
        for argv in (synth, pipeline):
            capsys.readouterr()
            assert main(argv) == 1
            assert capsys.readouterr().err == one_line
    assert not (tmp_path / "d").exists() and not (tmp_path / "p").exists()
    # a branch's child raises it in the parent
    with monkeypatch.context() as patch:
        patch.setattr(trainer, "train_stage1", exhausted)
        capsys.readouterr()
        assert main(pipeline) == 1
        assert capsys.readouterr().err == one_line
    assert multiprocessing.active_children() == []

    # a 1.8 EiB map matrix: beyond any process's address space, so the
    # allocation fails at once and nothing is overcommitted
    spec_path.write_text(json.dumps({**TINY_SPEC, "dim": 10**15}))
    for argv in (synth, pipeline):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ")
        assert err.count("\n") == 1, err
    assert not (tmp_path / "d").exists()


# a field one character over csv's default limit
LONG_FIELD = "x" * 131_073
FIELD_LIMIT = "field larger than field limit (131072)"

BAD_COUNTS_CSVS = {
    "short-row": ("id,taxon_id\na\n", "line 2: expected 2 fields, got 1"),
    "count-not-integer": ("taxon_id,train_count\n0,3\n1,many\n",
                          "line 3: count 'many' is not an integer"),
    "negative-taxon": ("taxon_id,train_count\n-1,3\n",
                       "line 2: negative taxon id -1"),
    # tallied rows are read by the labels file's rule and wording
    "tally-taxon-not-integer": ("id,taxon_id\na,0\nb,x\n",
                                "line 3: taxon id 'x' is not an integer"),
    "tally-negative-taxon": ("id,taxon_id\na,-2\n",
                             "line 2: negative taxon id -2"),
    "repeated-taxon": ("taxon_id,train_count\n0,500\n0,7\n",
                       "line 3: second count for taxon 0"),
    "repeated-id": ("id,taxon_id\na,1\na,1\nb,2\n",
                    "duplicate sequence id 'a'"),
    "negative-count": ("taxon_id,train_count\n1,-5\n",
                       "line 2: negative count -5"),
    "field-too-long": (f"id,taxon_id\na,0\n{LONG_FIELD},1\n",
                       f"line 3: {FIELD_LIMIT}"),
    # "\udcff" is written as the byte 0xff
    "not-utf8": ("taxon_id,train_count\n0,3\n1\udcff,3\n",
                 "line 3: not UTF-8 text"),
    "taxon-beyond-int64": ("taxon_id,train_count\n99999999999999999999,3\n",
                           "line 2: taxon id 99999999999999999999 exceeds int64"),
    "count-beyond-int64": ("taxon_id,train_count\n0,9223372036854775808\n",
                           "line 2: count 9223372036854775808 exceeds int64"),
    # a blank first line is an empty header, not a line to skip
    "blank-first-line": ("\ntaxon_id,train_count\n0,3\n",
                         "unrecognized counts header []; expected"
                         " id,taxon_id or taxon_id[,name],train_count"),
}


@pytest.mark.parametrize("name", sorted(BAD_COUNTS_CSVS))
def test_eval_rejects_bad_counts_file(chain, tmp_path, capsys, name):
    text, message = BAD_COUNTS_CSVS[name]
    counts = tmp_path / "counts.csv"
    counts.write_bytes(text.encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    rc = main(["eval", "--ckpt", str(chain / "aligned.json"),
               "--gallery", str(chain / "data" / "train.csv"),
               "--queries", str(chain / "data" / "test.csv"), "--k", "3",
               "--counts", str(counts), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {counts}: {message}\n"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("row, message", [
    ("s1,x", "line 2: taxon id 'x' is not an integer"),
    ("s1,-2", "line 2: negative taxon id -2"),
    pytest.param(f"{LONG_FIELD},0", f"line 2: {FIELD_LIMIT}",
                 id="field-too-long"),
    # "\udcff" is written as the byte 0xff
    pytest.param("s\udcff1,0", "line 2: not UTF-8 text", id="not-utf8"),
    pytest.param("s1,99999999999999999999",
                 "line 2: taxon id 99999999999999999999 exceeds int64",
                 id="taxon-beyond-int64"),
])
def test_sgt_embed_rejects_bad_labels_file(chain, tmp_path, capsys, row,
                                           message):
    labels = tmp_path / "labels.csv"
    labels.write_bytes(
        f"sequence_id,taxon_id\n{row}\n".encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    rc = main(["sgt-embed", "--fasta", str(chain / "data" / "sequences.fa"),
               "--labels", str(labels), "--out", str(tmp_path / "g.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {labels}: {message}\n"
    assert not (tmp_path / "g.csv").exists()


@pytest.mark.parametrize("text, message", [
    # "\udcff" is written as the byte 0xff
    pytest.param(">s1\nAC\udcffGT\n", "line 2: not UTF-8 text", id="not-utf8"),
    pytest.param(">s1\nACGX\n",
                 "line 2: sequence 's1' contains non-IUPAC letters: ['X']",
                 id="non-iupac"),
    # an id that a CSV row would split or quote
    pytest.param(">s,1 desc\nACGT\n",
                 "line 1: sequence id 's,1' must be a non-empty token"
                 " without whitespace, ',' or '\"'", id="comma-in-id"),
    pytest.param('>x\nAC\n>"s1\nACGT\n',
                 "line 3: sequence id '\"s1' must be a non-empty token"
                 " without whitespace, ',' or '\"'", id="quote-in-id"),
    pytest.param(">s1\r\n>s2\r\nACGT\r\n", "line 1: empty sequence for 's1'",
                 id="empty-record"),
    pytest.param("", "empty FASTA input: no records found", id="empty-file"),
])
def test_sgt_embed_rejects_bad_fasta_file(chain, tmp_path, capsys, text,
                                          message):
    fasta = tmp_path / "sequences.fa"
    fasta.write_bytes(text.encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    rc = main(["sgt-embed", "--fasta", str(fasta),
               "--labels", str(chain / "data" / "labels.csv"),
               "--out", str(tmp_path / "g.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {fasta}: {message}\n"
    assert not (tmp_path / "g.csv").exists()


def test_align_rejects_two_anchors_for_one_taxon(chain, tmp_path, capsys):
    table = dataio.load_feature_csv(chain / "anchors.csv")
    twice = dataio.FeatureTable(
        table.ids + ["extra"], np.append(table.labels, table.labels[1]),
        np.vstack([table.matrix, table.matrix[0]]))
    anchors = tmp_path / "anchors.csv"
    dataio.write_feature_csv(twice, anchors)
    capsys.readouterr()
    rc = main(["align", "--config", str(chain / "config.json"),
               "--ckpt", str(chain / "ckpt.json"), "--anchors", str(anchors),
               "--features", str(chain / "data" / "train.csv"),
               "--out", str(tmp_path / "aligned.json")])
    assert rc == 1
    assert (capsys.readouterr().err == "error: anchor table has more than one"
            f" row for taxa [{int(table.labels[1])}]\n")
    assert not (tmp_path / "aligned.json").exists()


@pytest.mark.parametrize("command", ["align", "eval", "layout"])
def test_align_rejects_features_of_another_width(chain, tmp_path, capsys,
                                                 monkeypatch, command):
    table = dataio.load_feature_csv(chain / "data" / "train.csv")
    features = tmp_path / "wide.csv"
    dataio.write_feature_csv(dataio.FeatureTable(
        table.ids, table.labels, np.hstack([table.matrix, table.matrix])),
        features)
    rows = []
    real_row = dataio._row

    def spy(*args):
        rows.append(args[2])
        return real_row(*args)

    monkeypatch.setattr(dataio, "_row", spy)
    out = tmp_path / "out"
    argv = {"align": ["--config", str(chain / "config.json"),
                      "--anchors", str(chain / "anchors.csv"),
                      "--features", str(features)],
            "eval": ["--gallery", str(features), "--queries", str(features)],
            "layout": ["--features", str(features)]}[command]
    capsys.readouterr()
    rc = main([command, "--ckpt", str(chain / "ckpt.json"), *argv,
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: feature dim 16 != head d_in 8\n"
    # eval and layout stop at the header; align reads its rows first
    assert (rows == []) == (command != "align")
    assert not out.exists()


# rejected feature CSVs, with the message after the path; "\udcff" is
# written as the byte 0xff
BAD_FEATURE_CSVS = {
    "quoted-bad-label": ('id,label,f0\n"a",x,1.0\n',
                         "row 'a': label 'x' is not an integer"),
    "crlf-short-row": ("id,label,f0\r\na,0\r\n",
                       "line 2: expected 3 fields, got 2"),
    # csv ends a line at a lone carriage return
    "carriage-return-in-id": ("id,label,f0\na\rb,0,1.0\n",
                              "line 2: expected 3 fields, got 1"),
    "bad-header": ("id,label,x0\na,0,1.0\n",
                   "bad header, expected id,label,f0,...,f{D-1}"),
    "empty-file": ("", "empty feature CSV"),
    "no-rows": ("id,label,f0\n\n", "feature CSV has no data rows"),
    "short-row": ("id,label,f0,f1\na,0,1.0,2.0\n\nb,1,3.0\n",
                  "line 4: expected 4 fields, got 3"),
    "long-row": ("id,label,f0\na,0,1.0\nb,1,2.0,3.0\n",
                 "line 3: expected 3 fields, got 4"),
    "every-row-long": ("id,label,f0\na,0,1.0,2.0\nb,1,2.0,3.0\n",
                       "line 2: expected 3 fields, got 4"),
    "label-not-integer": ("id,label,f0\na,0,1.0\nb,1.5,1.0\n",
                          "row 'b': label '1.5' is not an integer"),
    "negative-label": ("id,label,f0\na,-1,1.0\n", "row 'a': negative label -1"),
    "label-beyond-int64": ("id,label,f0\na,99999999999999999999,1.0\n",
                           "row 'a': label 99999999999999999999 exceeds int64"),
    "quoted-label-beyond-int64": (
        'id,label,f0\na,"9223372036854775808",1.0\n',
        "row 'a': label 9223372036854775808 exceeds int64"),
    "nan": ("id,label,f0\na,0,1.0\nb,0,nan\n",
            "row 'b': non-finite feature value"),
    "overflow": ("id,label,f0\na,0,1e400\n", "row 'a': non-finite feature value"),
    "non-numeric": ("id,label,f0,f1\na,0,1.0,abc\n",
                    "row 'a': non-numeric feature value"),
    "empty-feature": ("id,label,f0\na,0,\n", "row 'a': non-numeric feature value"),
    "duplicate-id": ("id,label,f0\na,0,1.0\nb,0,1.0\na,1,2.0\n",
                     "duplicate ids ['a']"),
    "not-utf8-row": ("id,label,f0\na\udcff,0,1.0\n", "line 2: not UTF-8 text"),
    "not-utf8-header": ("id,la\udcffbel,f0\na,0,1.0\n",
                        "line 1: not UTF-8 text"),
    "quoted-field-too-long": (f'id,label,f0\na,0,1.0\n"{LONG_FIELD}",0,1.0\n',
                              f"line 3: {FIELD_LIMIT}"),
    "field-too-long": (f"id,label,f0\na,0,1.0\n{LONG_FIELD},0,1.0\n",
                       f"line 3: {FIELD_LIMIT}"),
    # 1.000...0, one character over the limit
    "value-too-long": (f"id,label,f0\na,0,1.{'0' * 131_071}\n",
                       f"line 2: {FIELD_LIMIT}"),
}


# a warning would print a second line on stderr
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(BAD_FEATURE_CSVS))
def test_bad_feature_csv_gives_one_error_line(tmp_path, capsys, name):
    text, message = BAD_FEATURE_CSVS[name]
    path = tmp_path / "features.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    rc = main(["anchors", "--in", str(path), "--out", str(tmp_path / "a.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "a.csv").exists()


@pytest.mark.filterwarnings("error")
def test_train_rejects_features_beyond_float32(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_TRAIN))
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(6, TINY_TRAIN["d_in"]))
    matrix[4, 1] = 1e39
    features = tmp_path / "train.csv"
    dataio.write_feature_csv(
        dataio.FeatureTable([f"r{i}" for i in range(6)], [0, 0, 0, 1, 1, 1],
                            matrix), features)
    capsys.readouterr()
    rc = main(["train", "--config", str(config), "--features", str(features),
               "--out", str(tmp_path / "ckpt.json")])
    assert rc == 1
    assert (capsys.readouterr().err
            == "error: training features are non-finite or exceed the"
               " float32 range\n")
    assert not (tmp_path / "ckpt.json").exists()


def test_pipeline_config_validation():
    with pytest.raises(ValueError, match="unknown pipeline config fields"):
        PipelineConfig.from_dict({"learning_rate": 0.1})
    # eval has no threshold flags, so pipeline takes none either
    for key in ("tail_threshold", "head_threshold"):
        with pytest.raises(ValueError, match=key):
            PipelineConfig.from_dict({key: 10})
    pipe = PipelineConfig.from_dict({"k": 3, "train": {"epochs_stage1": 1}})
    assert pipe.k == 3 and pipe.train == {"epochs_stage1": 1}


def test_configs_round_trip_through_to_dict():
    pipe = PipelineConfig.from_dict(
        {"train": {"epochs_stage1": 1, "lr": 0.5}, "k": 3,
         "synth_spec": TINY_SPEC})
    for config in (trainer.TrainConfig(lr=0.5), SynthSpec.from_dict(TINY_SPEC),
                   pipe):
        assert type(config).from_dict(config.to_dict()) == config
    assert PipelineConfig() == PipelineConfig.from_dict({})


@pytest.mark.parametrize("k, message", [
    (2.5, "k must be an integer, got 2.5"),
    (True, "k must be an integer, got True"),
    ("5", "k must be an integer, got '5'"),
    (None, "k must be an integer, got None"),
    (0, "k must be >= 1, got 0"),
    (-3, "k must be >= 1, got -3"),
])
def test_pipeline_config_k_must_be_a_positive_integer(tmp_path, capsys, k,
                                                      message):
    config_path = tmp_path / "pipe.json"
    config_path.write_text(json.dumps(
        {"k": k, "train": TINY_TRAIN, "synth_spec": TINY_SPEC}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config_path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {config_path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_pipeline_k_flag_fails_before_any_training(tmp_path, capsys,
                                                   monkeypatch, k):
    calls = []
    monkeypatch.setattr(trainer, "train_stage1",
                        lambda *args, **kwargs: calls.append(args))
    config_path = tmp_path / "pipe.json"
    config_path.write_text(json.dumps(
        {"k": 3, "train": TINY_TRAIN, "synth_spec": TINY_SPEC}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config_path), "--k", k,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: k must be >= 1, got {k}\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    ([1], "pipeline config must be a JSON object, got list"),
    ({"train": [1]}, "train must be a JSON object, got [1]"),
    ({"synth_spec": 3}, "synth_spec must be a string or a JSON object, got 3"),
])
@pytest.mark.parametrize("k_flag", [[], ["--k", "3"]])
def test_pipeline_config_of_the_wrong_json_type_fails_before_training(
        tmp_path, capsys, monkeypatch, config, message, k_flag):
    calls = []
    monkeypatch.setattr(trainer, "train_stage1",
                        lambda *args, **kwargs: calls.append(args))
    config_path = tmp_path / "pipe.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config_path), *k_flag,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {config_path}: {message}\n"
    assert calls == []
    assert not out.exists()


def test_pipeline_train_d_in_that_contradicts_the_spec_fails_before_generate(
        tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(synthgen, "generate",
                        lambda *args, **kwargs: calls.append(args))
    config_path = tmp_path / "pipe.json"
    config_path.write_text(json.dumps({"train": {"d_in": 32}}))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config_path),
                 "--out", str(out)]) == 1
    assert (capsys.readouterr().err
            == "error: train d_in 32 != synth spec dim 64\n")
    assert calls == []
    assert not (out / "data").exists()


def test_pipeline_out_that_cannot_be_made_fails_before_training(
        tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(trainer, "train_stage1",
                        lambda *args, **kwargs: calls.append(args))
    config_path = tmp_path / "pipe.json"
    config_path.write_text(json.dumps(
        {"k": 3, "train": TINY_TRAIN, "synth_spec": TINY_SPEC}))
    out = tmp_path / "a-file"
    out.write_text("")
    capsys.readouterr()
    assert main(["pipeline", "--config", str(config_path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert calls == []


def test_run_pipeline_embeds_each_sequence_once(monkeypatch, tmp_path):
    calls = []
    real_embed = sgt.embed_sequences

    def spy(records, kappa=1.0):
        calls.append(len(records))
        return real_embed(records, kappa)

    monkeypatch.setattr(sgt, "embed_sequences", spy)
    spec = SynthSpec.from_dict(TINY_SPEC)
    run_pipeline(spec, PipelineConfig.from_dict({"k": 3, "train": TINY_TRAIN}),
                 out_dir=tmp_path / "out")
    assert len(calls) == 1
    data = synthgen.generate(spec)
    assert calls == [len(data.records)] * 2
    # genetic.csv is what sgt-embed writes for the same records
    dataio.write_feature_csv(
        sgt.genetic_table(data.records, data.seq_labels, spec.kappa),
        tmp_path / "genetic.csv")
    assert ((tmp_path / "out" / "genetic.csv").read_bytes()
            == (tmp_path / "genetic.csv").read_bytes())


def test_run_pipeline_embeds_and_takes_the_anchor_medians_once(monkeypatch,
                                                              tmp_path):
    """The parent's dataset carries the anchors, so run_pipeline does not
    take the medians again.  Every xmodal module that holds either sgt
    function under its name gets the spy."""
    seen = tmp_path / "seen.txt"
    modules = [m for n, m in sys.modules.items()
               if n == "xmodal" or n.startswith("xmodal.")]
    for name in ("embed_sequences", "anchors_from_table"):
        real = getattr(sgt, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            _spy_write(seen, _name)
            return _real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    run_pipeline(SynthSpec.from_dict(TINY_SPEC),
                 PipelineConfig.from_dict({"k": 3, "train": TINY_TRAIN}),
                 out_dir=tmp_path / "out")
    assert sorted(_spy_read(seen)) == ["anchors_from_table", "embed_sequences"]


def test_pipeline_branches_run_on_one_blas_thread(monkeypatch, tmp_path):
    blas = cli._blas_thread_functions()
    if blas is None:
        pytest.skip("no BLAS thread-count setter resolves")
    get_threads, _ = blas
    prior = get_threads()
    spec = SynthSpec.from_dict(TINY_SPEC)
    pipe = PipelineConfig.from_dict({"k": 3, "train": TINY_TRAIN})
    seen = tmp_path / "seen.txt"
    real_stage1 = trainer.train_stage1

    def spy(*args, **kwargs):
        _spy_write(seen, get_threads())
        return real_stage1(*args, **kwargs)

    monkeypatch.setattr(trainer, "train_stage1", spy)
    run_pipeline(spec, pipe)
    assert _spy_read(seen) == [1, 1]
    assert get_threads() == prior

    def fail(*args, **kwargs):
        _spy_write(seen, get_threads())
        raise RuntimeError("branch failed")

    seen.unlink()
    monkeypatch.setattr(trainer, "train_stage1", fail)
    with pytest.raises(RuntimeError, match="branch failed"):
        run_pipeline(spec, pipe)
    assert _spy_read(seen) == [1, 1]
    assert get_threads() == prior


def _within(seconds, fn, *args):
    """fn(*args) on a daemon thread; fails the test if it has not
    returned within `seconds`, instead of hanging the run."""
    box = {}

    def run():
        try:
            box["value"] = fn(*args)
        except BaseException as exc:
            box["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"no return within {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def test_in_child_returns_or_raises_what_the_child_did():
    assert cli._in_child("t", np.arange, 3).tolist() == [0, 1, 2]
    with pytest.raises(KeyError, match="'missing'"):
        cli._in_child("t", {}.__getitem__, "missing")
    # a result that cannot be pickled still gives one error, not a
    # traceback printed by the child
    with pytest.raises(ValueError, match="^branch t: "):
        cli._in_child("t", lambda: lambda: None)
    assert multiprocessing.active_children() == []


def test_pipeline_leaves_no_process_behind(monkeypatch, tmp_path, capsys):
    spec = SynthSpec.from_dict(TINY_SPEC)
    pipe = PipelineConfig.from_dict({"k": 3, "train": TINY_TRAIN})
    run_pipeline(spec, pipe)
    assert multiprocessing.active_children() == []

    real_stage1 = trainer.train_stage1

    def fail(*args, **kwargs):
        raise ValueError("branch failed")

    monkeypatch.setattr(trainer, "train_stage1", fail)
    with pytest.raises(ValueError, match="branch failed"):
        run_pipeline(spec, pipe)
    assert multiprocessing.active_children() == []

    def die(config, *args, **kwargs):
        if config.ltr_enabled:
            os._exit(3)  # the balanced branch's child ends without a word
        return real_stage1(config, *args, **kwargs)

    monkeypatch.setattr(trainer, "train_stage1", die)
    config_path = tmp_path / "pipe.json"
    config_path.write_text(json.dumps(
        {"k": 3, "train": TINY_TRAIN, "synth_spec": TINY_SPEC}))
    capsys.readouterr()
    assert _within(120, main, ["pipeline", "--config", str(config_path),
                               "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: branch wd+m ended with exit code 3 and no result\n")
    assert not (tmp_path / "out" / "report.json").exists()
    assert multiprocessing.active_children() == []


def test_pipeline_branches_send_back_only_their_metrics(monkeypatch,
                                                        tmp_path):
    returned = {}
    real_in_child = cli._in_child

    def spy(name, fn, *args):
        returned[name] = real_in_child(name, fn, *args)
        return returned[name]

    monkeypatch.setattr(cli, "_in_child", spy)
    report = run_pipeline(SynthSpec.from_dict(TINY_SPEC),
                          PipelineConfig.from_dict({"k": 3,
                                                    "train": TINY_TRAIN}),
                          out_dir=tmp_path)
    assert sorted(returned) == ["naive", "wd+m"]
    for tag, value in returned.items():
        assert value == (report[tag], report[tag + "+A"])
        assert [type(m) for m in value] == [dict, dict]
    assert json.loads((tmp_path / "report.json").read_text()) == report


def test_run_pipeline_report_and_artifacts(tmp_path):
    spec = SynthSpec.from_dict(TINY_SPEC)
    pipe = PipelineConfig.from_dict({"k": 3, "train": TINY_TRAIN})
    report = run_pipeline(spec, pipe, out_dir=tmp_path)
    assert set(report) == {"naive", "naive+A", "wd+m", "wd+m+A"}
    for tag in ("naive+A", "wd+m+A"):
        alignment = report[tag]["alignment"]
        assert set(alignment) == {"anchor_centroid_cos_before",
                                  "anchor_centroid_cos_after"}
    assert "alignment" not in report["naive"]
    for name in ("report.json", "genetic.csv", "anchors.csv",
                 "ckpt_naive.json", "ckpt_naive_aligned.json",
                 "ckpt_wdm.json", "ckpt_wdm_aligned.json",
                 "history_naive.json", "history_wdm.json"):
        assert (tmp_path / name).exists(), name
    assert (tmp_path / "data" / "train.csv").exists()
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk == report


def test_pipeline_files_equal_subcommand_chain(chain, tmp_path):
    """`pipeline --out` writes byte for byte what the subcommands write."""
    out = tmp_path / "pipe"
    report = run_pipeline(SynthSpec.from_dict(TINY_SPEC),
                          PipelineConfig.from_dict({"k": 3, "train": TINY_TRAIN}),
                          out_dir=out)
    pairs = [("data/sequences.fa", "data/sequences.fa"),
             ("data/train.csv", "data/train.csv"),
             ("data/test.csv", "data/test.csv"),
             ("genetic.csv", "genetic.csv"),
             ("anchors.csv", "anchors.csv"),
             ("ckpt_wdm.json", "ckpt.json"),
             ("ckpt_wdm_aligned.json", "aligned.json")]
    for mine, theirs in pairs:
        assert (out / mine).read_bytes() == (chain / theirs).read_bytes(), mine
    metrics = {key: value for key, value in report["wd+m+A"].items()
               if key != "alignment"}
    assert (json.dumps(metrics, indent=2, sort_keys=True) + "\n"
            == (chain / "metrics.json").read_text())


def test_run_pipeline_is_deterministic():
    spec = SynthSpec.from_dict(TINY_SPEC)
    pipe = PipelineConfig.from_dict({"k": 3, "train": TINY_TRAIN})
    one = run_pipeline(spec, pipe)
    two = run_pipeline(spec, pipe)
    assert one == two


def test_pipeline_command_with_config_file(tmp_path):
    config = {"k": 3, "train": TINY_TRAIN, "synth_spec": TINY_SPEC}
    config_path = tmp_path / "pipe.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = main(["pipeline", "--config", str(config_path), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"naive", "naive+A", "wd+m", "wd+m+A"}


SUBCOMMANDS = ("synth", "sgt-embed", "anchors", "train", "align", "eval",
               "layout", "pipeline")
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _pyproject(table, key):
    """The value of `key` in `[table]` of pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: scan the table by hand
        in_table = False
        for line in PYPROJECT.read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                in_table = line == f"[{table}]"
            elif in_table and "=" in line:
                name, value = (part.strip() for part in line.split("=", 1))
                if name.strip("\"'") == key:
                    return ast.literal_eval(value)
        raise AssertionError(f"{key} not declared in [{table}]")
    with PYPROJECT.open("rb") as f:
        value = tomllib.load(f)
    for part in (*table.split("."), key):
        value = value[part]
    return value


def _assert_help_lists_subcommands(out):
    assert out.returncode == 0, out.stderr
    assert "pipeline" in out.stdout
    listed = {line.split()[0] for line in out.stdout.splitlines()
              if line.strip()}
    for sub in SUBCOMMANDS:
        assert sub in listed, sub


def test_third_party_imports_are_declared_dependencies():
    """Each package src/xmodal imports outside the standard library is
    in [project].dependencies, so installing xmodal installs it."""
    imported = set()
    for path in Path(xmodal.__file__).resolve().parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"xmodal"}
    declared = {re.split(r"[ ;<>=!~\[]", dep, maxsplit=1)[0].lower()
                for dep in _pyproject("project", "dependencies")}
    assert "numpy" in third_party
    assert third_party <= declared, sorted(third_party - declared)


def _release(version):
    """The release numbers that lead `version`: "2.4.6rc1" -> (2, 4, 6)."""
    return tuple(map(int, re.match(r"\d+(?:\.\d+)*", version)[0].split(".")))


def test_installed_dependencies_meet_their_declared_floors():
    """Each of [project].dependencies declares a >= floor that the
    installed package meets, so the floor is a version the tests ran on.
    numpy's must be 2 or later: cli imports numpy._core, new in numpy 2."""
    floors = {}
    for dep in _pyproject("project", "dependencies"):
        match = re.fullmatch(r"([\w.-]+)>=([\d.]+)", dep)
        assert match, f"{dep!r} declares no plain >= floor"
        floors[match[1].lower()] = match[2]
    assert _release(floors["numpy"]) >= (2,)
    for name, floor in floors.items():
        installed = importlib.metadata.version(name)
        assert _release(installed) >= _release(floor), (name, installed, floor)


def test_package_exports_resolve():
    """Every name in xmodal.__all__ is defined on the package, so a
    removed export cannot linger there, and `from xmodal import *` runs."""
    missing = [name for name in xmodal.__all__ if not hasattr(xmodal, name)]
    assert not missing, missing
    exec("from xmodal import *", {})


def test_json_files_are_read_and_written_only_by_dataio():
    """src/xmodal calls json's dump and load functions only in dataio's
    read_json and write_json, and in embednet's checkpoint code, whose
    compact layout is its own."""
    allowed = {("dataio", "read_json"), ("dataio", "write_json"),
               ("embednet", "_dumps"), ("embednet", "load_checkpoint")}
    found = set()
    for path in Path(xmodal.__file__).resolve().parent.rglob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = (path.stem, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if (isinstance(node, ast.ImportFrom) and node.module == "json"
                        or isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "json"
                        and node.attr in ("dump", "dumps", "load", "loads")):
                    found.add(where)
    assert found == allowed, sorted(found ^ allowed)


def test_anchors_are_built_and_keyed_only_by_sgt():
    """No module of src/xmodal but sgt names embed_sequences or
    anchors_from_table or formats an `anchor{...}` id: the others build
    and look up anchors through sgt's genetic_table, anchor_table,
    anchors_by_taxon and anchor_rows."""
    watched = {"embed_sequences", "anchors_from_table"}
    found = set()
    for path in Path(xmodal.__file__).resolve().parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.JoinedStr):  # f"anchor{...}"
                names = ["anchor{" for part, after in zip(node.values,
                                                          node.values[1:])
                         if isinstance(part, ast.Constant)
                         and part.value.endswith("anchor")
                         and isinstance(after, ast.FormattedValue)]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = ["anchor{"] if re.search(r"anchor[{%]", node.value) else []
            else:
                continue
            found.update((path.stem, n) for n in names
                         if n in watched or n == "anchor{")
    assert {("sgt", n) for n in (*watched, "anchor{")} <= found
    assert {module for module, _ in found} == {"sgt"}, sorted(found)


def test_console_script_is_installed():
    """The declared `xmodal` entry point runs, installed or not.

    The entry point is run the way pip's console-script wrapper runs it,
    against the same `xmodal` sources this test process imported; an
    installed `xmodal` script is run too wherever one is on PATH.
    """
    module, attr = _pyproject("project.scripts", "xmodal").split(":")
    package_root = str(Path(xmodal.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    out = subprocess.run([sys.executable, "-c", wrapper, "--help"],
                         capture_output=True, text=True, env=env, timeout=60)
    _assert_help_lists_subcommands(out)

    exe = shutil.which("xmodal")
    if exe:
        out = subprocess.run([exe, "--help"], capture_output=True, text=True,
                             timeout=60)
        _assert_help_lists_subcommands(out)
