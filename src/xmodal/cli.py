"""Command line entry point.

One executable, eight subcommands:

  synth      generate a synthetic visual-genetic dataset
  sgt-embed  SGT-embed a FASTA file into a 256-dim feature CSV
  anchors    reduce per-sequence embeddings to per-taxon median anchors
  train      stage-1 metric pretraining of the projection head
  align      stage-2 cross-modal alignment against genetic anchors
  eval       cosine-KNN classification plus long-tailed metrics
  layout     2-D stress layout of class centroid cosine distances
  pipeline   chain everything for the four ablation variants and write
             a comparison report.json

`pipeline` calls the same stage functions as the subcommands, so its
files equal those of the synth, sgt-embed, anchors, train, align and
eval chain run on the same spec and config at one BLAS thread.  Its
anchors are those synthgen.generate builds once, with the sgt functions
that sgt-embed and anchors call.

All randomness flows from one --seed; stages derive their own streams
from it, so rerunning any command with the same inputs reproduces its
outputs byte for byte.

Processes: `pipeline` trains its two independent branches (naive and
balanced) side by side.  A two-worker thread pool starts them, and each
pool thread runs its branch in a child process forked from this one and
waits for it.  Fork copies nothing up front (the training data is shared
copy-on-write), and each child has its own interpreter lock.  A child
finishes its branch, writing its own files, and sends back only the
branch's two metric reports.  It holds the BLAS library at one
thread, so each branch's matmuls use one core and the two branches fill
two.  Left at its default, BLAS would start its own threads inside each
branch, and the oversubscribed cores would run every branch at half
speed.  Everything outside the branches (data generation, sequence
embedding, the other subcommands) keeps the library's default thread
count, because wide matmuls there do use every core.  With one BLAS
thread per branch, branch results also do not depend on how many cores
the machine has.  `pipeline` needs the `fork` start method, so it runs
on Linux and macOS, not Windows; Python 3.12 and later warn when a
process with threads forks.
"""

import argparse
import ctypes
import dataclasses
import multiprocessing
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import dataio, evalkit, sgt, synthgen, trainer
from .embednet import load_checkpoint, save_checkpoint
from .seeds import derive_seed
from .trainer import TrainConfig

VARIANTS = ("naive", "naive+A", "wd+m", "wd+m+A")


def _load_synth_spec(ref, seed=None, path=None):
    """`ref` is the literal \"default\", a JSON path, or a spec dict
    (read from file `path`, which its faults then name)."""
    if ref == "default":
        spec = synthgen.SynthSpec()
    elif isinstance(ref, dict):
        spec = synthgen.SynthSpec.from_dict(ref, path)
    else:
        spec = synthgen.SynthSpec.load(ref)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    return spec


def _save_stage(params, path, stage, seed, lineage=None):
    """Save a checkpoint whose seed lineage adds the streams this stage
    drew from to `lineage` (for stage 2, the stage-1 checkpoint's);
    returns the new lineage."""
    lineage = {**(lineage or {}), "seed": int(seed)}
    for name in ("init", "stage1") if stage == "stage1" else ("stage2",):
        lineage[name] = derive_seed(seed, name)
    save_checkpoint(params, path, stage, lineage)
    return lineage


def _evaluate(params, gallery_feats, query_feats, k, counts=None,
              centroids=False):
    """Embed gallery and queries once, cosine-KNN, long-tailed metrics.

    `counts` ({taxon: train count}, by default the gallery tally) gives 0
    to the taxa it leaves out.  The report's rows are the sorted taxa of
    gallery, queries and `counts`, listed in its `taxa`.  With
    `centroids`, class centroids stand in for the gallery.  Returns
    (MetricsReport, gallery EmbeddingTable).
    """
    gallery = evalkit.embed_features(params, gallery_feats)
    queries = evalkit.embed_features(params, query_feats)
    counts = Counter(gallery.labels.tolist()) if counts is None else counts
    taxa = np.unique(np.concatenate([gallery.labels, queries.labels,
                                     list(counts)]))
    train_counts = np.zeros(len(taxa), dtype=np.int64)
    train_counts[np.searchsorted(taxa, list(counts))] = list(counts.values())
    reference = gallery
    if centroids:
        class_ids, cents = evalkit.class_centroids(gallery)
        reference = evalkit.EmbeddingTable(
            [f"centroid{c:02d}" for c in class_ids], class_ids, cents)
    preds = evalkit.knn_predict(reference, queries, k)
    report = evalkit.compute_metrics(np.searchsorted(taxa, preds),
                                     np.searchsorted(taxa, queries.labels),
                                     train_counts, k=k)
    report.taxa = taxa.tolist()
    return report, gallery


def cmd_synth(args):
    spec = _load_synth_spec(args.spec, args.seed)
    data = synthgen.generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    synthgen.write_outputs(data, out)
    print(f"wrote {len(data.records)} sequences, "
          f"{data.train_table.n} train / {data.test_table.n} test samples,"
          f" {spec.n_classes} classes -> {out}")
    return 0


def cmd_sgt_embed(args):
    with open(args.fasta, "rb") as fh:
        records = dataio.parse_fasta(fh)
    table = sgt.genetic_table(records, dataio.load_labels_csv(args.labels),
                              args.kappa)
    dataio.write_feature_csv(table, args.out)
    print(f"embedded {table.n} sequences (kappa={args.kappa}) -> {args.out}")
    return 0


def cmd_anchors(args):
    table = sgt.anchor_table(dataio.load_feature_csv(getattr(args, "in")))
    dataio.write_feature_csv(table, args.out)
    print(f"{table.n} anchors -> {args.out}")
    return 0


def _finish_stage(args, config, params, history, lineage=None):
    """Save a trained stage's checkpoint to --out and its history to
    --history if given, then print the stage's `done` line."""
    stage = history.stage
    _save_stage(params, args.out, stage, config.seed, lineage)
    if args.history:
        trainer.write_history([history], args.history)
    last = history.entries[-1]["mean_loss"] if history.entries else float("nan")
    print(f"{stage} done: {getattr(config, f'epochs_{stage}')} epochs,"
          f" final loss {last:.6f} -> {args.out}")
    return 0


def cmd_train(args):
    config = TrainConfig.load(args.config)
    table = dataio.load_feature_csv(args.features)
    params, history = trainer.train_stage1(config, table.matrix, table.labels)
    return _finish_stage(args, config, params, history)


def cmd_align(args):
    config = TrainConfig.load(args.config)
    params, _, lineage = load_checkpoint(args.ckpt)
    table = dataio.load_feature_csv(args.features)
    anchors = sgt.anchors_by_taxon(dataio.load_feature_csv(args.anchors))
    params, history = trainer.align_stage2(config, params, anchors,
                                           table.matrix, table.labels)
    return _finish_stage(args, config, params, history, lineage)


def cmd_eval(args):
    params, _, _ = load_checkpoint(args.ckpt)
    counts = dataio.load_label_counts(args.counts) if args.counts else None
    gallery, queries = (dataio.load_feature_csv(path, params.check_width)
                        for path in (args.gallery, args.queries))
    report, _ = _evaluate(params, gallery, queries, args.k, counts,
                          args.centroids)
    dataio.write_json(report.to_dict(), args.out)
    tail = "absent" if report.tail is None else f"{report.tail:.4f}"
    print(f"overall {report.overall:.4f}, macro {report.macro:.4f},"
          f" tail {tail} -> {args.out}")
    return 0


def cmd_layout(args):
    params, _, _ = load_checkpoint(args.ckpt)
    feats = dataio.load_feature_csv(args.features, params.check_width)
    table = evalkit.embed_features(params, feats)
    class_ids, dist = evalkit.centroid_distance_matrix(table)
    layout = evalkit.kamada_kawai_layout(dist, iters=args.iters, tol=args.tol,
                                         seed=args.seed)
    evalkit.write_layout_csv(class_ids, layout, args.out)
    print(f"{len(class_ids)} classes, stress {layout.stress:.3e} -> {args.out}")
    return 0


@dataclasses.dataclass
class PipelineConfig(dataio.JsonConfig):
    """Optional JSON config for `pipeline`: `train` (TrainConfig
    overrides), `k` (KNN neighbours, >= 1) and `synth_spec` ("default",
    a spec path or SynthSpec fields)."""

    noun = "pipeline config"
    limits = {"k": (">= 1",)}
    train: dict = dataclasses.field(default_factory=dict)
    k: int = 5
    synth_spec: str | dict = "default"

    def __post_init__(self):
        super().__post_init__()
        self.k = int(self.k)
        self.train_config()  # the overrides' faults name the config file

    def train_config(self, **defaults):
        """TrainConfig of the `train` overrides over `defaults`, with
        balance and alignment on; each branch sets its own ltr_enabled."""
        return TrainConfig.from_dict({**defaults, **self.train,
                                      "ltr_enabled": True,
                                      "align_enabled": True})


# (get, set) symbol names of the BLAS thread count: the scipy-openblas
# build bundled with numpy 2 wheels, the 64-bit-suffixed OpenBLAS of
# older wheels, then a plain OpenBLAS
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _blas_thread_functions():
    """(get, set) for the BLAS thread count numpy uses, or None.

    dlsym on numpy's own extension module also searches the libraries
    it links, which is where the bundled OpenBLAS lives.
    """
    from numpy._core import _multiarray_umath as ext
    try:
        lib = ctypes.CDLL(ext.__file__)
    except OSError:
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Hold BLAS at one thread for the block, then restore the prior count.

    Without a resolvable setter no cap is applied.
    """
    blas = _blas_thread_functions()
    if blas is None:
        yield
        return
    get, set_ = blas
    prior = get()
    set_(1)
    try:
        yield
    finally:
        set_(prior)


# held while a child is forked and its pipe's send end closed here, so
# no other child forked in this process inherits a copy of that end: a
# copy would keep the pipe open after this child died and hide its end
_FORK_LOCK = threading.Lock()


def _in_child(name, fn, *args):
    """fn(*args) in a child forked from this process, at one BLAS thread.

    The child sends (ok, result or exception) through a one-way pipe and
    exits; it never prints.  The result is read before the child is
    joined, since one larger than the pipe's buffer would otherwise block
    both.  The child's exception is raised here as it is; a child that
    ends without a result raises ChildProcessError naming branch `name`
    and its exit code.
    """
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def target():
        try:
            with _one_blas_thread():
                out = (True, fn(*args))
        except Exception as exc:  # the parent raises it
            out = (False, exc)
        try:
            send.send(out)
        except Exception as exc:  # a result or exception pickle refuses
            send.send((False, ValueError(f"branch {name}: {exc}")))

    with _FORK_LOCK:
        child = ctx.Process(target=target, name=f"xmodal-{name}")
        child.start()
        send.close()
    try:
        ok, value = recv.recv()
    except EOFError:
        ok = None
    finally:
        recv.close()
        child.join()
    if ok is None:
        raise ChildProcessError(f"branch {name} ended with exit code"
                                f" {child.exitcode} and no result")
    if not ok:
        raise value
    return value


def run_pipeline(spec, pipe_config=None, out_dir=None):
    """Synth -> embed -> anchors -> two training branches -> four evals.

    The branches share one seed, so `naive` and `wd+m` see identical
    triplet draws and differ only in the balance devices; the aligned
    variants continue their branch's checkpoint through stage 2.
    The train overrides, d_in against the spec's dim included, are checked
    first.  With `out_dir` set, each branch's child writes its checkpoints
    and history, then the parent writes the dataset, genetic features,
    generate's anchors and, last, report.json.  Returns the report dict of
    the metrics the children send back.
    """
    pipe = pipe_config or PipelineConfig()
    train_config = pipe.train_config(d_in=spec.dim, seed=spec.seed)
    if train_config.d_in != spec.dim:
        raise ValueError(f"train d_in {train_config.d_in} != synth spec dim"
                         f" {spec.dim}")
    data = synthgen.generate(spec)
    if out_dir is not None:  # an output path that cannot be made fails here
        out = Path(out_dir)
        (out / "data").mkdir(parents=True, exist_ok=True)
    anchors = sgt.anchors_by_taxon(data.anchors)
    train, test = data.train_table, data.test_table

    def run_branch(ltr_enabled, fname):
        config = dataclasses.replace(train_config, ltr_enabled=ltr_enabled)
        params, hist1 = trainer.train_stage1(config, train.matrix,
                                             train.labels)
        base_metrics, gallery = _evaluate(params, train, test, pipe.k)
        if out_dir is not None:  # before stage 2 trains the head in place
            lineage = _save_stage(params, out / f"ckpt_{fname}.json",
                                  "stage1", config.seed)
        aligned, hist2 = trainer.align_stage2(config, params, anchors,
                                              train.matrix, train.labels)
        aligned_metrics, aligned_gallery = _evaluate(aligned, train, test,
                                                     pipe.k)
        aligned_metrics.alignment = {
            "anchor_centroid_cos_before":
                evalkit.anchor_centroid_cosines(gallery, anchors)[0],
            "anchor_centroid_cos_after":
                evalkit.anchor_centroid_cosines(aligned_gallery, anchors)[0],
        }
        if out_dir is not None:
            _save_stage(aligned, out / f"ckpt_{fname}_aligned.json",
                        "stage2", config.seed, lineage)
            trainer.write_history([hist1, hist2],
                                  out / f"history_{fname}.json")
        return base_metrics.to_dict(), aligned_metrics.to_dict()

    with ThreadPoolExecutor(max_workers=2) as pool:
        naive = pool.submit(_in_child, "naive", run_branch, False, "naive")
        ltr = pool.submit(_in_child, "wd+m", run_branch, True, "wdm")
        report = dict(zip(VARIANTS, (*naive.result(), *ltr.result())))

    if out_dir is not None:
        synthgen.write_outputs(data, out / "data")
        dataio.write_feature_csv(data.genetic, out / "genetic.csv")
        dataio.write_feature_csv(data.anchors, out / "anchors.csv")
        dataio.write_json(report, out / "report.json")
    return report


def cmd_pipeline(args):
    if args.k is not None:
        PipelineConfig(k=args.k)  # a bad --k is the flag's fault, not the file's
    obj = dataio.read_json(args.config) if args.config else None
    obj = {} if obj is None else obj  # null is the empty config
    # --k replaces the config's k before the config is checked;
    # from_dict refuses a config that is not an object
    if args.k is not None and isinstance(obj, dict):
        obj = {**obj, "k": args.k}
    pipe = PipelineConfig.from_dict(obj, args.config)
    spec = _load_synth_spec(args.spec if args.spec is not None
                            else pipe.synth_spec, args.seed, args.config)
    report = run_pipeline(spec, pipe, out_dir=args.out)
    for tag in VARIANTS:
        m = report[tag]
        tail = "absent" if m["tail"] is None else f"{m['tail']:.4f}"
        print(f"{tag:8s} overall {m['overall']:.4f}  macro {m['macro']:.4f}"
              f"  tail {tail}")
    print(f"report -> {Path(args.out) / 'report.json'}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="xmodal",
        description="Visual-genetic cross-modal metric learning pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", default="default",
                   help="synth spec JSON path, or the literal 'default'")
    p.add_argument("--seed", type=int, default=None, help="override spec seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sgt-embed", help="embed FASTA sequences")
    p.add_argument("--fasta", required=True)
    p.add_argument("--labels", required=True,
                   help="sequence_id,taxon_id CSV")
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output feature CSV")
    p.set_defaults(func=cmd_sgt_embed)

    p = sub.add_parser("anchors", help="median anchors from embeddings")
    p.add_argument("--in", required=True, dest="in",
                   help="per-sequence genetic feature CSV")
    p.add_argument("--out", required=True, help="output anchor CSV")
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("train", help="stage-1 metric pretraining")
    p.add_argument("--config", required=True, help="TrainConfig JSON")
    p.add_argument("--features", required=True, help="training feature CSV")
    p.add_argument("--out", required=True, help="output checkpoint JSON")
    p.add_argument("--history", default=None, help="optional history JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("align", help="stage-2 cross-modal alignment")
    p.add_argument("--config", required=True, help="TrainConfig JSON")
    p.add_argument("--ckpt", required=True, help="stage-1 checkpoint")
    p.add_argument("--anchors", required=True, help="anchor CSV")
    p.add_argument("--features", required=True, help="training feature CSV")
    p.add_argument("--out", required=True, help="output checkpoint JSON")
    p.add_argument("--history", default=None, help="optional history JSON")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("eval", help="cosine-KNN metrics")
    p.add_argument("--ckpt", required=True, help="checkpoint JSON")
    p.add_argument("--gallery", required=True, help="gallery feature CSV")
    p.add_argument("--queries", required=True, help="query feature CSV")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--counts", default=None,
                   help="CSV of per-taxon train counts (id,taxon_id rows"
                        " to tally, or taxon_id,train_count rows); taxa it"
                        " does not list count 0; default: tally the gallery")
    p.add_argument("--centroids", action="store_true",
                   help="use class centroids as the gallery")
    p.add_argument("--out", required=True, help="output metrics JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("layout", help="2-D class layout")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output layout CSV")
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("pipeline", help="full four-variant comparison")
    p.add_argument("--spec", default=None,
                   help="synth spec JSON path or 'default'")
    p.add_argument("--config", default=None, help="pipeline config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, KeyError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
