"""The trainable projection head.

Three fully connected layers map backbone visual features to the shared
embedding space and to class logits:

    a1 = relu(W1 x + b1)        (D -> H)
    e  = W2 a1 + b2             (H -> E, linear: the embedding must be
                                 free to point anywhere for cosine
                                 geometry, so no activation here)
    z  = Wc e + bc              (E -> C class logits)

Defaults follow the 2048 -> 1000 -> 256 shape.  forward/backward run
in the dtype of the head they are given: float64 (exact, checked against
finite differences) for heads from init_head, HeadParams(...) and
load_checkpoint, float32 for the trainer's working copies.  backward
SUMS gradients over the batch; callers wanting a batch mean scale the
upstream gradients by 1/B, which keeps the chain rule plain.

A head is one contiguous buffer, `flat`, with W1, b1, W2, b2, Wc, bc as
named views into it in that order; backward fills a gradient head of
the same layout and dtype.  sgd_step updates a float64 head in place,
block by block, with weight decay on the three weight matrices only,
and can write each updated block's float32 cast into a working head.
maxnorm_project caps the L2 norm of each classifier row at delta, the
balance device that stops head classes from growing oversized logit
scales; a capping call returns the capped Wc alone, never a new head.
save_checkpoint writes a head as JSON with each array row on a line of
its own, and load_checkpoint reads it back a line at a time, so neither
holds the checkpoint's whole text.
"""

import io
import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import orjson

from .dataio import _NUMBER_BYTES, _number_row

FIELDS = ("W1", "b1", "W2", "b2", "Wc", "bc")
WEIGHT_FIELDS = ("W1", "W2", "Wc")
# doubles per block of the SGD update: a block of params, gradients and
# scratch (768 KB) stays in L2 while it is read, updated and checked
SGD_BLOCK = 32768


def _check_finite(name, arr):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in {name}")


def _check_width(d, d_in):
    """Refuse `d` feature columns for a head of input width `d_in`."""
    if d != d_in:
        raise ValueError(f"feature dim {d} != head d_in {d_in}")


def _layout(dims):
    """(name, shape, start, stop) of each field in `flat`, in FIELDS order."""
    d, h, e, c = dims
    out, start = [], 0
    for name, shape in zip(FIELDS, ((h, d), (h,), (e, h), (e,), (c, e), (c,))):
        stop = start + math.prod(shape)
        out.append((name, shape, start, stop))
        start = stop
    return out


class HeadParams:
    """The six head arrays as named views into one buffer `flat`.
    Construction copies them into a new float64 buffer and checks shapes
    and finiteness.  `dims` is (D, H, E, C)."""

    def __init__(self, W1, b1, W2, b2, Wc, bc):
        arrays = [np.asarray(a, dtype=np.float64)
                  for a in (W1, b1, W2, b2, Wc, bc)]
        h, d = arrays[0].shape
        dims = (d, h, arrays[2].shape[0], arrays[4].shape[0])
        if [a.shape for a in arrays] != [f[1] for f in _layout(dims)]:
            raise ValueError("inconsistent parameter shapes")
        self._bind(np.concatenate([a.ravel() for a in arrays]), dims)
        for name in FIELDS:
            _check_finite(name, getattr(self, name))

    def _bind(self, flat, dims):
        self.flat, self.dims = flat, tuple(dims)
        for name, shape, start, stop in _layout(dims):
            setattr(self, name, flat[start:stop].reshape(shape))
        return self

    @classmethod
    def _on(cls, flat, dims):
        """An unchecked head whose fields are views into `flat`."""
        return cls.__new__(cls)._bind(flat, dims)

    @classmethod
    def empty(cls, dims, dtype=np.float64):
        """An unchecked, uninitialized head of `dims` and `dtype`."""
        return cls._on(np.empty(_layout(dims)[-1][3], dtype), dims)

    def copy(self):
        return HeadParams._on(self.flat.copy(), self.dims)

    def __reduce__(self):
        # pickle and copy.deepcopy would copy each view on its own; this
        # rebuilds the fields as views into the one copied buffer
        return HeadParams._on, (self.flat, self.dims)

    def check_width(self, d):
        """Refuse features of `d` columns unless the head takes d_in = d."""
        _check_width(d, self.dims[0])


@dataclass
class ForwardCache:
    """Everything backward needs: the params and each layer's tensors."""

    params: HeadParams
    x: np.ndarray
    z1: np.ndarray
    a1: np.ndarray
    embedding: np.ndarray
    logits: np.ndarray


def init_head(d_in, hidden, embed_dim, n_classes, seed, scale=1.0,
              classifier_scale=1.0):
    """Glorot-uniform weights (drawn W1, W2, Wc in that order from one
    seeded generator), zero biases.  Same seed, same params, bit for bit.

    scale multiplies the two projection matrices W1 and W2 only.  Under
    direction-sensitive losses the angular step size of a relu layer grows
    as its weight norm shrinks, so a scale below 1 lets short alignment
    schedules rotate the embedding much further, while leaving every
    cosine-based readout of the fresh head unchanged (relu is positively
    homogeneous, so scaling W1 and W2 rescales embeddings without moving
    their directions).

    classifier_scale multiplies Wc only.  Plain Glorot rows for a 256->16
    classifier start at norm ~1.4, already past a unit max-norm radius, so
    the projection would flatten every row on the first step.  A scale
    below 1 starts the rows inside the radius; norms then grow with class
    frequency during training and the cap engages only as rows reach it,
    which is the regime the balancing device is meant for.  Embeddings and
    any cosine readout of them are unaffected by this knob.
    """
    dims = (d_in, hidden, embed_dim, n_classes)
    if any(int(v) < 1 for v in dims):
        raise ValueError(f"all dimensions must be >= 1, got {dims}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if not classifier_scale > 0:
        raise ValueError(
            f"classifier_scale must be positive, got {classifier_scale}")
    d, h, e, c = (int(v) for v in dims)
    rng = np.random.default_rng(seed)

    def glorot(rows, cols):
        limit = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    return HeadParams(
        W1=scale * glorot(h, d), b1=np.zeros(h),
        W2=scale * glorot(e, h), b2=np.zeros(e),
        Wc=classifier_scale * glorot(c, e), bc=np.zeros(c),
    )


def forward(params, features):
    """Run the head on a (B, D) batch in the dtype of the head's buffer,
    to which the batch is cast; pass a single vector as a (1, D) batch.
    Returns (embedding (B, E), logits (B, C), cache)."""
    x = np.asarray(features, dtype=params.flat.dtype)
    if x.ndim != 2 or x.shape[1] != params.dims[0]:
        raise ValueError(
            f"features must be (B, {params.dims[0]}), got {x.shape}")
    _check_finite("features", x)
    z1 = x @ params.W1.T + params.b1
    a1 = np.maximum(z1, 0.0)
    embedding = a1 @ params.W2.T + params.b2
    logits = embedding @ params.Wc.T + params.bc
    return embedding, logits, ForwardCache(params, x, z1, a1, embedding, logits)


def backward(cache, d_embedding, d_logits, out=None):
    """Exact gradients of the forward map in its dtype, summed over the
    batch, written into the gradient head `out` (new if None) and returned.

    The upstream gradients have the (B, E) and (B, C) shapes of the
    forward pass's outputs.  Either may be all zeros (e.g. a loss that
    never looks at logits).  The relu subgradient at exactly 0 is taken
    as 0.
    """
    p = cache.params
    d_e = np.asarray(d_embedding, dtype=p.flat.dtype)
    d_z = np.asarray(d_logits, dtype=p.flat.dtype)
    if d_e.shape != cache.embedding.shape or d_z.shape != cache.logits.shape:
        raise ValueError("upstream gradient shapes do not match the forward pass")
    g = HeadParams.empty(p.dims, p.flat.dtype) if out is None else out
    np.matmul(d_z.T, cache.embedding, out=g.Wc)
    np.sum(d_z, axis=0, out=g.bc)
    d_e_total = d_e + d_z @ p.Wc
    np.matmul(d_e_total.T, cache.a1, out=g.W2)
    np.sum(d_e_total, axis=0, out=g.b2)
    d_a1 = d_e_total @ p.W2
    d_z1 = d_a1 * (cache.z1 > 0)
    np.matmul(d_z1.T, cache.x, out=g.W1)
    np.sum(d_z1, axis=0, out=g.b1)
    return g


def sgd_step(params, grads, lr, weight_decay=0.0, projection_only=False,
             scratch=None, work=None):
    """One SGD update of `params`, in place: p <- p - lr*(g + wd*p) element
    by element, with wd = 0.0 on the biases and float32 `grads` upcast.
    Where wd is 0.0 the wd*p pass is skipped, with the same bits.

    Each field is walked in blocks of SGD_BLOCK doubles through one
    scratch block (`scratch`, or a new one).  Each updated block is cast
    into the working head `work` (if given; the float32 copy that forward
    and backward run on) and checked for finite values while it is in
    cache: the block's sum is finite unless a value is not, and only then
    are the values checked one by one, so a non-finite value raises
    ValueError naming its field, after the blocks before it were updated.
    With projection_only, Wc and bc are not touched."""
    if lr < 0:
        raise ValueError(f"learning rate must be non-negative, got {lr}")
    if weight_decay < 0:
        raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
    if grads.dims != params.dims:
        raise ValueError(
            f"gradient shape mismatch: dims {grads.dims} != {params.dims}")
    s = np.empty(SGD_BLOCK) if scratch is None else scratch
    n_fields = FIELDS.index("Wc") if projection_only else len(FIELDS)
    # a sum of finite values may overflow; only the raise reports a
    # non-finite value
    with np.errstate(over="ignore", invalid="ignore"):
        for name, _, start, stop in _layout(params.dims)[:n_fields]:
            wd = weight_decay if name in WEIGHT_FIELDS else 0.0
            for lo in range(start, stop, SGD_BLOCK):
                hi = min(lo + SGD_BLOCK, stop)
                p, t = params.flat[lo:hi], s[:hi - lo]
                if wd:
                    np.multiply(wd, p, out=t)
                    np.add(grads.flat[lo:hi], t, out=t)
                else:
                    # t = g differs from g + 0*p only for g = -0.0 on
                    # p >= +0.0, a zero step whose sign p - lr*t drops.
                    # Upcast before the product: lr times a float32 block
                    # would round in float32 (NEP 50)
                    np.copyto(t, grads.flat[lo:hi])
                np.multiply(lr, t, out=t)
                np.subtract(p, t, out=p)
                if work is not None:
                    np.copyto(work.flat[lo:hi], p)
                if not np.isfinite(np.add.reduce(p)):
                    _check_finite(name, p)


# what a capping maxnorm_project returns: the capped classifier alone
CappedWc = namedtuple("CappedWc", "Wc")


def maxnorm_project(params, delta):
    """Cap the L2 norm of each classifier row of `params` at delta.

    Returns `params` itself when no row is over delta, else a CappedWc
    holding a copy of Wc with the rows over delta rescaled to norm delta,
    so no head is copied and the input is never written.  Only `.Wc` is
    read, so a CappedWc can be capped again.  The tiny relative guard
    keeps the cap exactly idempotent: a freshly rescaled row lands within
    a few ulp of delta and must not be touched again.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    norms = np.linalg.norm(params.Wc, axis=1)
    over = norms > delta * (1.0 + 1e-12)
    if not np.any(over):
        return params
    Wc = params.Wc.copy()
    Wc[over] *= (delta / norms[over])[:, None]
    return CappedWc(Wc)


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _check_stage(stage):
    if stage not in ("stage1", "stage2"):
        raise ValueError(f"stage must be 'stage1' or 'stage2', got {stage!r}")


def _header(dims):
    """save_checkpoint's first line for a head of `dims`: the dims in
    sorted-key order and the opening of params."""
    keys = ("d_in", "hidden", "embed_dim", "n_classes")
    return b'{"dims":' + _dumps(dict(zip(keys, dims))) + b',"params":{\n'


def _lines(head):
    """save_checkpoint's array lines of `head`, which load_checkpoint reads
    back: per row of each field in sorted-key order, the field's name, the
    bytes before the row, the row as a view into `head` and the bytes
    after it to the line's end (',' between rows, ']' closing a matrix)."""
    for i, name in enumerate(sorted(FIELDS)):
        arr = getattr(head, name)
        rows = arr.reshape(-1, arr.shape[-1])
        opening = (b"," if i else b"") + _dumps(name) + b":" + b"[" * (arr.ndim - 1)
        for j, row in enumerate(rows):
            yield (name, b"" if j else opening, row,
                   b",\n" if j < len(rows) - 1 else b"]" * (arr.ndim - 1) + b"\n")


def save_checkpoint(params, path, stage, seed_lineage=None):
    """Write the sorted-key, compact JSON of dims, params, seed lineage and
    stage, with a line break after the params' opening and after each
    array row, one row at a time (not one 49 MB dump at paper width), by
    orjson in shortest round-trip text: load(save(p)) is bit-exact, and
    values keep repr's digits but may print positionally (0.0000663 where
    repr gives 6.63e-05)."""
    _check_stage(stage)
    with open(path, "wb") as fh:
        fh.write(_header(params.dims))
        for _, before, row, after in _lines(params):
            fh.write(before + orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)
                     + after)
        fh.write(b'},"seed_lineage":' + _dumps(seed_lineage or {})
                 + b',"stage":' + _dumps(stage) + b"}\n")


def _read_dims(header):
    """The (D, H, E, C) of `header`, save_checkpoint's first line, whose
    runs of digits are the dims in sorted-key order."""
    numbers = [int(v) for v in bytes(b if b in b"0123456789" else 32
                                     for b in header).split()]
    if len(numbers) == 4 and 0 not in numbers:
        dims = (numbers[0], numbers[2], numbers[1], numbers[3])
        if header == _header(dims):
            return dims
    raise ValueError("'dims' leaves save_checkpoint's layout at byte 0")


def _expect(line, at, token, pos, field):
    """The index after `token` at line[at:]; raises naming `field` and the
    absolute byte, `line` starting at byte `pos` of the file."""
    if not line.startswith(token, at):
        raise ValueError(f"{field!r} leaves save_checkpoint's layout at byte {pos + at}")
    return at + len(token)


def load_checkpoint(path):
    """Read a checkpoint -> (HeadParams, stage, seed_lineage).

    The file must be in exactly save_checkpoint's layout, its numbers in
    orjson's or older versions' repr notation.  It is read a line at a
    time: the dims line, one line per array row, which orjson parses
    straight into the head's buffer, and the trailer; so the load holds
    the head and one row's text, never the whole file (a pipe, whose
    size is known once it is read, is read whole).  Any other text, an
    earlier version's one-line layout too, raises one ValueError naming
    `path` and the field or absolute byte where it leaves that layout (a
    non-number entry, a misshapen array, an unknown stage...).  A
    character check keeps quotes, true and spaces out of a row, and
    orjson holds the rest to JSON's number grammar."""
    with open(path, "rb") as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        try:
            header = fh.readline(128)  # dims of up to 63 digits in all
            dims = _read_dims(header)
            if 2 * _layout(dims)[-1][3] > size:  # a value takes >= 2 bytes
                raise ValueError("stored arrays disagree with recorded dims")
            head, pos = HeadParams.empty(dims), len(header)
            for name, before, row, after in _lines(head):
                line = fh.readline()
                start = _expect(line, 0, before, pos, name)
                _expect(line, start, b"[", pos, name)
                end = line.find(b"]", start) + 1 or len(line)
                try:
                    values = _number_row(line[start:end], len(row))
                except ValueError as exc:
                    raise ValueError(
                        f"{name} row at byte {pos + start}: {exc}") from None
                if values is None:
                    bad = line[start + 1:end - 1].translate(None, _NUMBER_BYTES)
                    raise ValueError(f"{name} holds an entry that is not a number "
                                     f"at byte {pos + line.find(bad[:1], start + 1)}")
                row[:] = values
                _expect(line, end, after, pos, name)
                pos += len(line)
            rest = fh.read()
            _expect(rest, 0, b"},", pos, "params")
            try:
                rest = json.loads(b"{" + rest[2:])
                if (list(rest) != ["seed_lineage", "stage"]
                        or not isinstance(rest["seed_lineage"], dict)):
                    raise ValueError('not {"seed_lineage": {...}, "stage": ...}')
                _check_stage(rest["stage"])
            except ValueError as exc:
                raise ValueError(f"trailer at byte {pos + 2}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: malformed checkpoint: {exc}") from None
    return head, rest["stage"], rest["seed_lineage"]
