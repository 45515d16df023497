"""The benchmark's three workloads.

Each workload has a set-up, a round of operations (calls into xmodal,
each counted as one attempted operation), and checks of a round's
outputs against the computations in reference.py.  A workload never
hands the program anything but the inputs it generated from the seed.

pipeline-default  cli.run_pipeline on the default SynthSpec, in memory:
                  four-variant training in the two-branch thread pool at
                  d_in=64; no file I/O, small KNN.
cli-wide          the sgt-embed -> anchors -> train -> align -> eval chain
                  through cli.main at the paper's width (32 taxa, 2048-d
                  features, 1.8 kb sequences): CSV parsing, JSON
                  checkpoints, long-sequence SGT and 2048x1000 matmuls,
                  outside the thread pool.
retrieval-paper   embed_features, knn_predict and compute_metrics in
                  memory at paper scale (about 30k images, 32 taxa,
                  2048-d, 80/20 split, an untrained head): the Q x N
                  similarity matrix and per-query sorting.
"""

import contextlib
import hashlib
import json
import sys

import numpy as np

import reference as ref

K = 5
# one tolerance for values the program and the reference compute with
# the same formula in possibly different float order
CLOSE = 1e-12


class Checks:
    """Named pass/fail results plus notes for the report line."""

    def __init__(self):
        self.failed = []
        self.notes = {}

    def expect(self, ok, what):
        if not ok:
            self.failed.append(what)

    @property
    def ok(self):
        return not self.failed


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= CLOSE * max(1.0, abs(b))


def _check_accuracies(checks, tag, report, train_counts):
    """The report's accuracies equal those recomputed from its confusion."""
    conf = np.asarray(report["confusion"])
    want = ref.accuracies(conf, train_counts, report["tail_threshold"],
                          report["head_threshold"])
    got = (report["overall"], report["macro"], report["tail"], report["head"])
    for name, g, w in zip(("overall", "macro", "tail", "head"), got, want):
        checks.expect(_close(g, w), f"{tag}: {name} {g} != {w} from confusion")
    return conf


class PipelineDefault:
    name = "pipeline-default"

    def __init__(self, xm, seed, workdir):
        self.xm = xm
        self.spec = xm.synthgen.SynthSpec(seed=seed)

    def setup(self):
        # the benchmark's own view of the data the pipeline generates
        self.data = self.xm.synthgen.generate(self.spec)

    def steps(self, out):
        def pipeline():
            out["report"] = self.xm.cli.run_pipeline(self.spec)
        return [pipeline]

    def digest(self, out):
        return json.dumps(out["report"], sort_keys=True)

    def check(self, out):
        checks = Checks()
        train = self.data.train_table.labels
        test = self.data.test_table.labels
        n_classes = self.spec.n_classes
        train_counts = np.bincount(train, minlength=n_classes)
        majority = np.bincount(test).max() / len(test)
        for tag in self.xm.cli.VARIANTS:
            rep = out["report"][tag]
            conf = _check_accuracies(checks, tag, rep, train_counts)
            checks.expect(conf.sum() == len(test) == rep["n_test"],
                          f"{tag}: confusion sums to {conf.sum()},"
                          f" test set has {len(test)}")
            checks.expect(np.array_equal(conf.sum(axis=1),
                                         np.bincount(test, minlength=n_classes)),
                          f"{tag}: confusion rows differ from test labels")
            checks.expect(rep["overall"] > majority,
                          f"{tag}: overall {rep['overall']} <= majority"
                          f" rate {majority}")
            if tag.endswith("+A"):
                a = rep["alignment"]
                checks.expect(a["anchor_centroid_cos_after"]
                              > a["anchor_centroid_cos_before"],
                              f"{tag}: alignment did not raise the"
                              " anchor-centroid cosine")
        checks.notes.update(
            n_train=int(len(train)), n_test=int(len(test)),
            n_classes=n_classes,
            tail_classes=int(np.sum(train_counts < 100)),
            majority_rate=round(float(majority), 4),
            overall={t: round(out["report"][t]["overall"], 4)
                     for t in self.xm.cli.VARIANTS})
        return checks


class CliWide:
    name = "cli-wide"
    SPEC = dict(genera=4, species_per_genus=8, head=120, tail=10, ratio=0.9,
                dim=2048, seq_len=1800, seqs_per_species=4)
    # the program's default training config, which is the paper's
    # 2048 -> 1000 -> 256 head with 20 + 5 epochs, written out in full
    TRAIN = dict(d_in=2048, hidden=1000, embed_dim=256, epochs_stage1=20,
                 epochs_stage2=5, maxnorm_delta=1.0)
    # genetic.csv rows recomputed by the all-pairs SGT
    SGT_SAMPLE = 6

    def __init__(self, xm, seed, workdir):
        self.xm = xm
        self.seed = seed
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.train = dict(self.TRAIN, seed=seed)
        with open(self.dir / "spec.json", "w", encoding="utf-8") as fh:
            json.dump(self.SPEC, fh)
        with open(self.dir / "train.json", "w", encoding="utf-8") as fh:
            json.dump(self.train, fh)

    def _main(self, *argv):
        with contextlib.redirect_stdout(sys.stderr):
            rc = self.xm.cli.main([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"xmodal {argv[0]} exited with {rc}")

    def setup(self):
        self._main("synth", "--spec", self.dir / "spec.json",
                   "--seed", self.seed, "--out", self.dir / "data")

    def steps(self, out):
        d = self.dir
        return [
            lambda: self._main("sgt-embed", "--fasta", d / "data/sequences.fa",
                               "--labels", d / "data/labels.csv",
                               "--out", d / "genetic.csv"),
            lambda: self._main("anchors", "--in", d / "genetic.csv",
                               "--out", d / "anchors.csv"),
            lambda: self._main("train", "--config", d / "train.json",
                               "--features", d / "data/train.csv",
                               "--out", d / "stage1.json"),
            lambda: self._main("align", "--config", d / "train.json",
                               "--ckpt", d / "stage1.json",
                               "--anchors", d / "anchors.csv",
                               "--features", d / "data/train.csv",
                               "--out", d / "stage2.json"),
            lambda: self._main("eval", "--ckpt", d / "stage2.json",
                               "--gallery", d / "data/train.csv",
                               "--queries", d / "data/test.csv",
                               "--k", K, "--out", d / "metrics.json"),
        ]

    OUTPUTS = ("genetic.csv", "anchors.csv", "stage1.json", "stage2.json",
               "metrics.json")

    def digest(self, out):
        h = hashlib.sha256()
        for name in self.OUTPUTS:
            h.update((self.dir / name).read_bytes())
        return h.hexdigest()

    def check(self, out):
        checks = Checks()
        d = self.dir
        seqs = ref.read_fasta(d / "data/sequences.fa")
        gen_ids, gen_labels, genetic = ref.read_feature_csv(d / "genetic.csv")
        checks.expect(sorted(gen_ids) == sorted(seqs),
                      "genetic.csv ids differ from the FASTA records")
        sample = np.linspace(0, len(gen_ids) - 1, self.SGT_SAMPLE).astype(int)
        for i in sample:
            want = ref.sgt(seqs[gen_ids[i]])
            checks.expect(np.allclose(genetic[i], want, rtol=1e-9, atol=1e-12),
                          f"genetic.csv row {gen_ids[i]} differs from all-pairs SGT")

        _, anchor_labels, anchors = ref.read_feature_csv(d / "anchors.csv")
        medians = ref.taxon_medians(genetic, gen_labels)
        checks.expect(sorted(anchor_labels.tolist()) == sorted(medians),
                      "anchors.csv taxa differ from genetic.csv taxa")
        for label, row in zip(anchor_labels, anchors):
            checks.expect(np.array_equal(row, medians.get(int(label))),
                          f"anchor {label} is not its taxon's median")

        s1 = ref.read_json(d / "stage1.json")
        s2 = ref.read_json(d / "stage2.json")
        norms = np.linalg.norm(np.asarray(s1["params"]["Wc"]), axis=1)
        checks.expect(norms.max() <= self.train["maxnorm_delta"] + 1e-9,
                      f"stage-1 classifier row norm {norms.max()}")
        for name in ("Wc", "bc"):
            checks.expect(s1["params"][name] == s2["params"][name],
                          f"stage 2 changed {name}")

        metrics = ref.read_json(d / "metrics.json")
        _, g_labels, g_feats = ref.read_feature_csv(d / "data/train.csv")
        _, q_labels, q_feats = ref.read_feature_csv(d / "data/test.csv")
        train_counts = np.bincount(g_labels)
        conf = _check_accuracies(checks, "metrics.json", metrics, train_counts)
        head = {name: np.asarray(v) for name, v in s2["params"].items()}
        preds, fragile, tied = ref.knn(ref.forward(head, g_feats), g_labels,
                                       ref.forward(head, q_feats), K)
        firm = ref.confusion(q_labels[~fragile], preds[~fragile], len(conf))
        rest = conf - firm
        checks.expect(bool(np.all(rest >= 0)) and np.array_equal(
            rest.sum(axis=1), np.bincount(q_labels[fragile], minlength=len(conf))),
            "metrics.json confusion differs from the reference forward pass + KNN")
        checks.notes.update(
            n_train=int(len(g_labels)), n_test=int(len(q_labels)),
            n_classes=int(len(train_counts)), seq_len=self.SPEC["seq_len"],
            n_sequences=len(seqs), tail_classes=int(np.sum(train_counts < 100)),
            fragile_queries=int(fragile.sum()),
            vote_tie_share=round(float(tied.mean()), 4))
        return checks


class RetrievalPaper:
    name = "retrieval-paper"
    SPEC = dict(genera=4, species_per_genus=8, head=6000, tail=10, ratio=0.8,
                dim=2048)

    def __init__(self, xm, seed, workdir):
        self.xm = xm
        self.seed = seed
        self.spec = xm.synthgen.SynthSpec(seed=seed, **self.SPEC)
        self.data = None

    def setup(self):
        xm = self.xm
        self.data = None  # release the previous set-up's 1 GB first
        self.data = xm.synthgen.generate(self.spec)
        config = xm.trainer.TrainConfig()
        self.params = xm.embednet.init_head(
            self.spec.dim, config.hidden, config.embed_dim,
            self.spec.n_classes, self.seed, scale=config.init_scale,
            classifier_scale=config.classifier_init_scale)
        self.train_counts = np.bincount(self.data.train_table.labels,
                                        minlength=self.spec.n_classes)

    def steps(self, out):
        ev = self.xm.evalkit

        def gallery():
            out["gallery"] = ev.embed_features(self.params, self.data.train_table)

        def queries():
            out["queries"] = ev.embed_features(self.params, self.data.test_table)

        def knn():
            out["preds"] = ev.knn_predict(out["gallery"], out["queries"], K)

        def metrics():
            out["report"] = ev.compute_metrics(out["preds"], out["queries"].labels,
                                               self.train_counts, k=K)
        return [gallery, queries, knn, metrics]

    def digest(self, out):
        return hashlib.sha256(out["preds"].tobytes()).hexdigest()

    def check(self, out):
        checks = Checks()
        report = out["report"].to_dict()
        truth = out["queries"].labels
        conf = _check_accuracies(checks, "report", report, self.train_counts)
        checks.expect(np.array_equal(
            conf, ref.confusion(truth, out["preds"], self.spec.n_classes)),
            "report confusion differs from the predictions")
        preds, fragile, tied = ref.knn(out["gallery"].matrix,
                                       out["gallery"].labels,
                                       out["queries"].matrix, K)
        wrong = (preds != out["preds"]) & ~fragile
        checks.expect(not wrong.any(),
                      f"{int(wrong.sum())} predictions differ from the reference KNN")
        checks.notes.update(
            n_train=int(self.data.train_table.n), n_test=int(len(truth)),
            n_classes=self.spec.n_classes,
            tail_classes=int(np.sum(self.train_counts < 100)),
            head_classes=int(np.sum(self.train_counts > 1000)),
            fragile_queries=int(fragile.sum()),
            vote_tie_share=round(float(tied.mean()), 4),
            overall=round(report["overall"], 4), tail=round(report["tail"], 4))
        return checks


WORKLOADS = {w.name: w for w in (PipelineDefault, CliWide, RetrievalPaper)}
