"""Span tracing of the xmodal modules, installed from outside the package.

`install` replaces every public function of the traced modules with a
wrapper that records one span per call, and swaps the pipeline's thread
pool for one that records a span around each submitted branch.  Spans
carry a name, start, end, parent and thread; they are kept in memory and
written out by the caller when the run ends.  `restore` puts the
original functions back.

Nothing here changes what the wrapped functions compute: the wrappers
pass arguments and results through untouched.
"""

import functools
import inspect
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# the layers the benchmark reports; losses has no production caller and
# seeds costs microseconds, so neither is traced
MODULES = ("cli", "synthgen", "sgt", "dataio", "embednet", "trainer", "evalkit")


def _forward_flop(args, kwargs, result):
    params, features = args[0], args[1]
    d, h, e, c = params.dims
    b = 1 if getattr(features, "ndim", 2) == 1 else len(features)
    return {"flop": 2 * b * (d * h + h * e + e * c)}


def _backward_flop(args, kwargs, result):
    cache = args[0]
    d, h, e, c = cache.params.dims
    b = cache.x.shape[0]
    # d_Wc and d_e_total (E x C each), d_W2 and d_a1 (H x E each), d_W1
    return {"flop": 2 * b * (2 * c * e + 2 * e * h + h * d)}


def _file_bytes(position, keyword):
    def extra(args, kwargs, result):
        path = kwargs[keyword] if keyword in kwargs else args[position]
        return {"bytes": os.path.getsize(path)}
    return extra


def _knn_work(args, kwargs, result):
    gallery, queries = args[0], args[1]
    return {"queries": queries.n, "sim_bytes": queries.n * gallery.n * 8}


def _bases(args, kwargs, result):
    return {"bases": sum(len(r.residues) for r in args[0])}


# quantities computed from a call's arguments and result, outside its span
EXTRAS = {
    "embednet.forward": _forward_flop,
    "embednet.backward": _backward_flop,
    "embednet.save_checkpoint": _file_bytes(1, "path"),
    "dataio.load_feature_csv": _file_bytes(0, "path"),
    "dataio.write_feature_csv": _file_bytes(1, "path"),
    "evalkit.knn_predict": _knn_work,
    "sgt.embed_sequences": _bases,
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, parent=None, extra=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            cpu1 = time.process_time()
            stack.pop()
            span = {"id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": threading.get_ident(),
                    "cpu": cpu1 - cpu0}
            # list.append is atomic, so pool threads can share the list
            self.spans.append(span)
        if extra is not None:
            span.update(extra(args, kwargs, result))
        return result

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra=extra)
        return traced

    def install(self, package):
        """Wrap every public function of the traced modules, in every
        traced namespace that holds it (cli imports two checkpoint
        functions by name, synthgen three sgt functions)."""
        modules = [getattr(package, m) for m in MODULES]
        owners = {f"{package.__name__}.{m}" for m in MODULES}
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in owners):
                    continue
                if obj not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[obj] = self.wrap(name, obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                parent = tracer.current()

                def branch():
                    return tracer.call("cli.branch", fn, args, kwargs,
                                       parent=parent)
                return super().submit(branch)

        self._patched.append((package.cli, "ThreadPoolExecutor",
                              package.cli.ThreadPoolExecutor))
        package.cli.ThreadPoolExecutor = TracedPool

    def restore(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()


def span_cost(calls=20000):
    """Seconds one traced call adds over a plain call, timed on a no-op."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / calls


def self_time(spans, name):
    """Summed duration of spans called `name` minus the time their
    direct children cover.  Children run on the parent's thread one after
    another, so their durations do not overlap."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    return sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0)
               for s in spans if s["name"] == name)


def _total(spans, name, key=None):
    return sum((s["end"] - s["start"]) if key is None else s.get(key, 0)
               for s in spans if s["name"] == name)


def _calls(spans, name):
    return sum(1 for s in spans if s["name"] == name)


# (metric, unit, value from the spans); times are busy seconds summed
# over threads, so layers inside the pool's two branches can add up to
# more than the wall time of run_pipeline
LAYER_METRICS = [
    ("cli.run_pipeline.wall_s", "s", lambda sp: _total(sp, "cli.run_pipeline")),
    ("cli.run_pipeline.cpu_s", "s", lambda sp: _total(sp, "cli.run_pipeline", "cpu")),
    ("cli.branch.busy_s", "s", lambda sp: _total(sp, "cli.branch")),
] + [
    (f"cli.{cmd}.s", "s", lambda sp, cmd=cmd: _total(sp, f"cli.{cmd}"))
    for cmd in ("cmd_synth", "cmd_sgt_embed", "cmd_anchors", "cmd_train",
                "cmd_align", "cmd_eval")
] + [
    ("trainer.train_stage1.s", "s", lambda sp: _total(sp, "trainer.train_stage1")),
    ("trainer.align_stage2.s", "s", lambda sp: _total(sp, "trainer.align_stage2")),
    ("trainer.stage1.self_s", "s", lambda sp: self_time(sp, "trainer.train_stage1")),
    ("trainer.stage2.self_s", "s", lambda sp: self_time(sp, "trainer.align_stage2")),
    ("trainer.sample_triplets.s", "s", lambda sp: _total(sp, "trainer.sample_triplets")),
    ("trainer.sample_triplets.calls", "count",
     lambda sp: _calls(sp, "trainer.sample_triplets")),
] + [
    metric
    for fn in ("forward", "backward", "sgd_step", "maxnorm_project")
    for metric in (
        (f"embednet.{fn}.s", "s", lambda sp, fn=fn: _total(sp, f"embednet.{fn}")),
        (f"embednet.{fn}.calls", "count",
         lambda sp, fn=fn: _calls(sp, f"embednet.{fn}")))
] + [
    ("embednet.forward.gflop", "GFLOP",
     lambda sp: _total(sp, "embednet.forward", "flop") / 1e9),
    ("embednet.backward.gflop", "GFLOP",
     lambda sp: _total(sp, "embednet.backward", "flop") / 1e9),
    ("embednet.save_checkpoint.s", "s", lambda sp: _total(sp, "embednet.save_checkpoint")),
    ("embednet.save_checkpoint.bytes", "B",
     lambda sp: _total(sp, "embednet.save_checkpoint", "bytes")),
    ("embednet.load_checkpoint.s", "s", lambda sp: _total(sp, "embednet.load_checkpoint")),
    ("dataio.load_feature_csv.s", "s", lambda sp: _total(sp, "dataio.load_feature_csv")),
    ("dataio.load_feature_csv.calls", "count",
     lambda sp: _calls(sp, "dataio.load_feature_csv")),
    ("dataio.load_feature_csv.bytes", "B",
     lambda sp: _total(sp, "dataio.load_feature_csv", "bytes")),
    ("dataio.write_feature_csv.s", "s", lambda sp: _total(sp, "dataio.write_feature_csv")),
    ("dataio.write_feature_csv.bytes", "B",
     lambda sp: _total(sp, "dataio.write_feature_csv", "bytes")),
    ("dataio.parse_fasta.s", "s", lambda sp: _total(sp, "dataio.parse_fasta")),
    ("sgt.embed_sequences.s", "s", lambda sp: _total(sp, "sgt.embed_sequences")),
    ("sgt.embed_sequences.bases", "count",
     lambda sp: _total(sp, "sgt.embed_sequences", "bases")),
    ("sgt.anchors_from_table.s", "s", lambda sp: _total(sp, "sgt.anchors_from_table")),
    ("evalkit.knn_predict.s", "s", lambda sp: _total(sp, "evalkit.knn_predict")),
    ("evalkit.knn_predict.queries", "count",
     lambda sp: _total(sp, "evalkit.knn_predict", "queries")),
    ("evalkit.knn_predict.sim_bytes", "B",
     lambda sp: _total(sp, "evalkit.knn_predict", "sim_bytes")),
    ("evalkit.embed_features.s", "s", lambda sp: _total(sp, "evalkit.embed_features")),
    ("evalkit.embed_features.calls", "count",
     lambda sp: _calls(sp, "evalkit.embed_features")),
    ("evalkit.compute_metrics.s", "s", lambda sp: _total(sp, "evalkit.compute_metrics")),
    ("evalkit.anchor_centroid_cosines.s", "s",
     lambda sp: _total(sp, "evalkit.anchor_centroid_cosines")),
    ("synthgen.generate.s", "s", lambda sp: _total(sp, "synthgen.generate")),
    ("synthgen.write_outputs.s", "s", lambda sp: _total(sp, "synthgen.write_outputs")),
]


def per_branch(spans):
    """{branch index: {span name: busy seconds}} for the pool's branches,
    in order of branch start.  Every span on a branch's thread inside the
    branch's interval belongs to that branch."""
    branches = sorted((s for s in spans if s["name"] == "cli.branch"),
                      key=lambda s: s["start"])
    out = {}
    for i, b in enumerate(branches):
        busy = {}
        for s in spans:
            if (s["thread"] == b["thread"] and s["start"] >= b["start"]
                    and s["end"] <= b["end"]):
                busy[s["name"]] = busy.get(s["name"], 0.0) + s["end"] - s["start"]
        out[i] = busy
    return out
