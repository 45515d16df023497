"""File formats used across the pipeline.

Covers FASTA sequence files, feature tables (CSV and the compact
``.vgfb`` binary form), sequence-to-taxon label files, per-class count
tables, and JSON files.  Loaders validate their input and raise
``ValueError`` with enough context (row id or line number) to locate
the offending record.

Formats
-------
sequences.fa   FASTA; a record's id is its header's first token and
               holds no whitespace, ``,`` or ``"``.
features.csv   header ``id,label,f0,...,f{D-1}``; one row per item;
               label is a non-negative int64 taxon id.  Values are
               written as their repr text (orjson's inside the band
               where the two agree).
features.vgfb  little-endian binary: magic ``VGFB``, u32 version (=1),
               u32 N, u32 D, N*D float32 row-major, u64 byte length of
               the trailing id/label table, then that table as CSV
               bytes (header ``id,label``), which end the file.
labels.csv     header ``sequence_id,taxon_id``; maps sequences to taxa.
counts.csv     ``id,taxon_id`` rows tallied per taxon, or
               ``taxon_id[,name],train_count`` rows.
split.json     object with ``train`` and ``test`` arrays of item ids.
config JSON    an object of JsonConfig fields (TrainConfig, SynthSpec,
               PipelineConfig); any other value or key is refused, and
               JsonConfig.load names the file in every fault.

features.csv, labels.csv, counts.csv and the ``.vgfb`` id/label table
follow one record rule: a record ends at a line feed, a carriage return
and line feed, or a lone carriage return, as csv's do, and is split
into fields by csv, so a field may be quoted but not across a line end
(a quoted line break leaves a short record), and csv's field-size limit
holds.  Blank records are skipped.

``.vgfb`` features are stored as 32-bit floats and promoted to 64-bit in
memory.  Text files must be UTF-8; a bad byte is reported with its line.
JSON files are read by read_json, whose faults name the file, and
written by write_json: sorted keys, an indent of 2, a final newline.
"""

import csv
import json
import math
import operator
import re
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np
import orjson

# ACGT/U, N, and the IUPAC ambiguity letters.
IUPAC_LETTERS = frozenset("ACGTUNRYSWKMBDHV")

_HEADER_ID_SPLIT = re.compile(r"[\s|]")

# the largest taxon id or label that FeatureTable's int64 labels hold
_INT64_MAX = int(np.iinfo(np.int64).max)


def _int64(value, where, noun):
    """int(`value`) if it lies in [0, 2**63); else a ValueError naming
    `where`, `noun` and the value."""
    try:
        value = int(value)
    except ValueError:
        raise ValueError(f"{where}: {noun} {value!r} is not an integer") from None
    if value < 0:
        raise ValueError(f"{where}: negative {noun} {value}")
    if value > _INT64_MAX:
        raise ValueError(f"{where}: {noun} {value} exceeds int64")
    return value


@contextmanager
def _naming(path):
    """Put `path` before the text of a ValueError the block raises (no
    change when `path` is None)."""
    try:
        yield
    except ValueError as exc:
        if path is None:
            raise
        raise ValueError(f"{path}: {exc}") from None


VGFB_MAGIC = b"VGFB"
VGFB_VERSION = 1


@dataclass
class SequenceRecord:
    """One rDNA sequence: an id free of whitespace, ``,`` and ``"``, which
    CSV files hold unquoted, and an upper-case base string."""

    id: str
    residues: str

    def __post_init__(self):
        if not self.id or re.search(r'[\s,"]', self.id):
            raise ValueError(f"sequence id {self.id!r} must be a non-empty token"
                             " without whitespace, ',' or '\"'")
        if not self.residues:
            raise ValueError(f"sequence {self.id!r} has no residues")
        bad = set(self.residues) - IUPAC_LETTERS
        if bad:
            raise ValueError(
                f"sequence {self.id!r} contains non-IUPAC letters: {sorted(bad)}"
            )


def parse_fasta(source):
    """Parse FASTA from a string or an open file, text or binary.

    Lines end as csv records do (see _records).  Lines starting with
    ``>`` begin a record; the id is the header token up to the first
    whitespace or ``|``.  Sequence lines are concatenated,
    whitespace-stripped, and upper-cased.  A fault raises ValueError
    naming its line, after the file's name when `source` is a file.
    """
    prefix = f"{source.name}: " if hasattr(source, "name") else ""
    data = source.read() if hasattr(source, "read") else source
    lines = (data.encode() if isinstance(data, str) else data).splitlines()
    records = []
    seen = {}
    cur_id = None
    cur_line = 0
    chunks = []

    def close_record():
        if cur_id is None:
            return
        residues = "".join(chunks)
        if not residues:
            raise ValueError(f"line {cur_line}: empty sequence for {cur_id!r}")
        try:
            records.append(SequenceRecord(cur_id, residues))
        except ValueError as exc:
            raise ValueError(f"line {cur_line}: {exc}") from None

    try:
        for lineno, raw in enumerate(lines, start=1):
            line = raw.decode().strip()
            if not line:
                continue
            if line.startswith(">"):
                close_record()
                rec_id = _HEADER_ID_SPLIT.split(line[1:].strip(), 1)[0]
                if not rec_id:
                    raise ValueError(f"line {lineno}: FASTA header has no id token")
                if rec_id in seen:
                    raise ValueError(f"line {lineno}: duplicate id {rec_id!r}"
                                     f" (first seen at line {seen[rec_id]})")
                seen[rec_id] = lineno
                cur_id, cur_line = rec_id, lineno
                chunks = []
            else:
                if cur_id is None:
                    raise ValueError(f"line {lineno}: sequence data before any header")
                chunk = re.sub(r"\s", "", line).upper()
                bad = set(chunk) - IUPAC_LETTERS
                if bad:
                    raise ValueError(f"line {lineno}: sequence {cur_id!r} contains"
                                     f" non-IUPAC letters: {sorted(bad)}")
                chunks.append(chunk)
        close_record()
        if not records:
            raise ValueError("empty FASTA input: no records found")
    except UnicodeDecodeError:
        raise ValueError(f"{prefix}line {lineno}: not UTF-8 text") from None
    except ValueError as exc:
        raise ValueError(f"{prefix}{exc}") from None
    return records


def write_fasta(records, path):
    """Write records as FASTA text, one sequence line per record."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f">{r.id}\n{r.residues}\n" for r in records))


@dataclass
class FeatureTable:
    """N feature vectors with item ids and integer taxon labels."""

    ids: list
    labels: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        self.ids = list(self.ids)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        n = len(self.ids)
        if self.matrix.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if self.labels.shape != (n,) or self.matrix.shape[0] != n:
            raise ValueError(
                f"inconsistent table sizes: {n} ids, {len(self.labels)} labels,"
                f" {self.matrix.shape[0]} rows"
            )
        if len(set(self.ids)) != n:
            dupes = sorted(i for i, m in Counter(self.ids).items() if m > 1)
            raise ValueError(f"duplicate ids {dupes[:5]}")
        if np.any(self.labels < 0):
            raise ValueError("labels must be non-negative integers")
        # a finite sum clears the matrix without an N x D bool temporary;
        # finite values whose sum overflows fall through to the full check
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(self.matrix, axis=None)
        if not np.isfinite(total) and not np.all(np.isfinite(self.matrix)):
            bad = np.where(~np.isfinite(self.matrix).all(axis=1))[0][0]
            raise ValueError(f"non-finite feature value in row {self.ids[bad]!r}")

    @property
    def n(self):
        return len(self.ids)

    @property
    def dim(self):
        return self.matrix.shape[1]


def _expected_header(dim):
    return ["id", "label"] + [f"f{i}" for i in range(dim)]


# the bytes of a row of JSON numbers: over them, JSON's number grammar is
# a subset of float()'s, with the same correctly rounded values except
# that the integer -0 reads as 0, not -0.0
_NUMBER_BYTES = b"0123456789.eE+-,"


def _number_row(text, width):
    """The `width` values of `text`, a JSON array as bytes ("[0.5,-2]"),
    or None if a byte between its brackets is outside _NUMBER_BYTES: a
    quote, a space, a letter...  orjson holds the rest to JSON's number
    grammar.  Raises ValueError on text outside that grammar, on
    overflow, and on a row of other than `width` values."""
    if text[1:-1].translate(None, _NUMBER_BYTES):
        return None
    values = orjson.loads(text)
    if len(values) != width:
        raise ValueError(f"{len(values)} values, not {width}")
    return values


def _records(fh):
    """The records of binary file `fh`, each ended as csv ends one (see
    the module docstring)."""
    for line in fh:
        yield from line.splitlines() if b"\r" in line else (line.rstrip(b"\n"),)


def _fields(record, where):
    """The fields of `record` (bytes) as csv reads them; bytes that are
    not UTF-8 and csv's faults (a field over its size limit...) raise
    ValueError naming `where`."""
    try:
        return next(csv.reader([record.decode()]))
    except UnicodeDecodeError:
        raise ValueError(f"{where}: not UTF-8 text") from None
    except csv.Error as exc:
        raise ValueError(f"{where}: {exc}") from None


def _rows(records, width, lines="line"):
    """(where, fields) of each record left in `records` after its header
    record, skipping blank ones as csv does; each must hold `width`
    fields.  `where` is "`lines` N", N the record's line number."""
    for n, record in enumerate(records, start=2):
        if record:
            where = f"{lines} {n}"
            fields = _fields(record, where)
            if len(fields) != width:
                raise ValueError(
                    f"{where}: expected {width} fields, got {len(fields)}")
            yield where, fields


def _row(record, dim, n):
    """The id, label and `dim` values of record `n` (bytes, not blank).

    A record with no quote or field over csv's size limit, a label in
    [0, 2**63) and a feature part that _number_row reads, with no integer
    -0 in it, is taken as is.  Any other record is split into fields and
    checked in order: the field count, the label, then each value by
    float(); the first fault raises, naming the line or the row id."""
    limit = csv.field_size_limit()
    if b'"' not in record and (len(record) <= limit or max(
            map(len, record.split(b","))) <= limit):
        try:
            rid, label, feats = record.split(b",", 2)
            rid, label = rid.decode(), int(label)
            if (0 <= label <= _INT64_MAX and b"-0," not in feats
                    and not feats.endswith(b"-0")):
                values = _number_row(b"[" + feats + b"]", dim)
                if values is not None:
                    return rid, label, values
        except ValueError:
            pass
    fields = _fields(record, f"line {n}")
    if len(fields) != dim + 2:
        raise ValueError(f"line {n}: expected {dim + 2} fields, got {len(fields)}")
    rid = fields[0]
    label = _int64(fields[1], f"row {rid!r}", "label")
    try:
        values = [float(v) for v in fields[2:]]
    except ValueError:
        raise ValueError(f"row {rid!r}: non-numeric feature value") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"row {rid!r}: non-finite feature value")
    return rid, label, values


def load_feature_csv(path, check_width=None):
    """Load a ``features.csv`` file; D is inferred from the header.

    The file is opened once.  A binary pass counts its records and
    bytes, which bound the rows, so the (rows, D) matrix is allocated
    once; a second pass parses each record straight into its row (see
    _row) and collects ids and labels on the way.  Blank records leave
    slack at the end, trimmed by a view.  orjson and float() both round
    correctly, so every value is float()'s bit for bit.

    Any fault raises one ValueError naming `path` and, where it has one,
    the line or row id: the first fault in file order, then FeatureTable's
    duplicate ids.  `check_width`, if given, is called with D once the
    header is read, before any data row is parsed; its ValueError (a
    head's check_width) passes through as it is.
    """
    with open(path, "rb") as fh:
        with _naming(path):
            lines = nbytes = 0
            for block in iter(lambda: fh.read(1 << 16), b""):
                nbytes += len(block)
                lines += block.count(b"\n")
                if b"\r" in block:  # a lone \r ends a record too
                    lines += block.count(b"\r") - block.count(b"\r\n")
            fh.seek(0)
            records = _records(fh)
            header = next(records, None)
            if header is None:
                raise ValueError("empty feature CSV")
            header = _fields(header, "line 1")
            dim = len(header) - 2
            if dim < 1 or header != _expected_header(dim):
                raise ValueError("bad header, expected id,label,f0,...,f{D-1}")
        if check_width is not None:
            check_width(dim)
        with _naming(path):
            # a row of D values takes at least 2D + 2 bytes (",0," and "1,")
            # before its line end, so no row index reaches this bound
            matrix = np.empty((min(lines + 1, nbytes // (2 * dim + 2)), dim))
            ids, labels = [], []
            for n, record in enumerate(records, start=2):
                if record:  # csv skips blank records too
                    rid, label, matrix[len(ids)] = _row(record, dim, n)
                    ids.append(rid)
                    labels.append(label)
            if not ids:
                raise ValueError("feature CSV has no data rows")
            return FeatureTable(ids, np.array(labels), matrix[:len(ids)])


def _check_ids(ids):
    """Refuse the first id that a CSV record cannot hold unquoted."""
    for rid in ids:
        if re.search(r'[,"\r\n]', rid):
            raise ValueError(f"id {rid!r} holds a comma, a quote or a line end")


def write_feature_csv(table, path):
    """Write each value as its repr, the shortest text that reads back to
    the same float64; one row at a time, so no copy of the matrix is held.
    An id holding a comma, a quote or a line end raises ValueError first.

    orjson prints a row's values; for 0 and for 1e-4 <= |x| < 1e16 its
    text is repr's.  It writes other values differently (5.8e84 for
    5.8e+84, small ones positionally, non-finite ones as null), so those
    tokens are replaced by repr's."""
    _check_ids(table.ids)
    with open(path, "wb") as fh:
        fh.write((",".join(_expected_header(table.dim)) + "\n").encode())
        for rid, label, row in zip(table.ids, table.labels.tolist(),
                                   table.matrix):
            text = orjson.dumps(np.ascontiguousarray(row),
                                option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
            mag = np.abs(row)
            odd = ~(mag < 1e16) | ((mag < 1e-4) & (row != 0))
            if odd.any():
                tokens = text.split(b",")
                for i in np.flatnonzero(odd).tolist():
                    tokens[i] = repr(float(row[i])).encode()
                text = b",".join(tokens)
            fh.write(f"{rid},{label},".encode() + text + b"\n")


def write_feature_bin(table, path):
    """Write the compact binary form (float32 payload, see module docs).
    A value beyond float32's range, or an id that the id/label table
    cannot hold unquoted, raises ValueError before the file is opened."""
    _check_ids(table.ids)
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(table.matrix, dtype="<f4")
    block = ["id,label\n"]
    for rid, label, finite in zip(table.ids, table.labels.tolist(),
                                  np.isfinite(payload).all(axis=1).tolist()):
        if not finite:
            raise ValueError(f"row {rid!r}: feature value beyond float32 range")
        block.append(f"{rid},{label}\n")
    block = "".join(block).encode()
    with open(path, "wb") as fh:
        fh.write(VGFB_MAGIC)
        fh.write(struct.pack("<III", VGFB_VERSION, table.n, table.dim))
        fh.write(payload.tobytes())
        fh.write(struct.pack("<Q", len(block)))
        fh.write(block)


def read_feature_bin(path):
    """Read the binary form; a fault raises one ValueError naming `path`."""
    with open(path, "rb") as fh:
        data = fh.read()
    with _naming(path):
        if data[:4] != VGFB_MAGIC:
            raise ValueError(f"bad magic {data[:4]!r}, expected {VGFB_MAGIC!r}")
        if len(data) < 16:
            raise ValueError("truncated header")
        version, n, dim = struct.unpack_from("<III", data, 4)
        if version != VGFB_VERSION:
            raise ValueError(f"unsupported version {version}")
        off = 16 + n * dim * 4
        if len(data) < off + 8:
            raise ValueError("truncated payload")
        matrix = np.frombuffer(data, "<f4", n * dim, 16).reshape(n, dim)
        (block_len,) = struct.unpack_from("<Q", data, off)
        off += 8
        extra = len(data) - off - block_len
        if extra < 0:
            raise ValueError("truncated id/label table")
        if extra:
            raise ValueError(f"{extra} bytes after the id/label table")
        records = iter(data[off:].splitlines())
        header = _fields(next(records, b""), "id/label table line 1")
        if header != ["id", "label"]:
            raise ValueError(f"bad id/label table header {header}")
        ids, labels = [], []
        for where, (rid, label) in _rows(records, 2, "id/label table line"):
            ids.append(rid)
            labels.append(_int64(label, where, "label"))
        if len(ids) != n:
            raise ValueError(f"id/label table has {len(ids)} rows, expected {n}")
        return FeatureTable(ids, np.array(labels), matrix)


def _taxa_by_id(records):
    """{sequence id: taxon id} of the ``sequence_id,taxon_id`` rows left
    in `records`: two fields each, an int64 taxon id, each id once."""
    mapping = {}
    for where, (sid, taxon) in _rows(records, 2):
        taxon = _int64(taxon, where, "taxon id")
        if sid in mapping:
            raise ValueError(f"duplicate sequence id {sid!r}")
        mapping[sid] = taxon
    return mapping


def load_labels_csv(path):
    """Load a sequence->taxon map from a ``sequence_id,taxon_id`` CSV."""
    with _naming(path):
        with open(path, "rb") as fh:
            records = _records(fh)
            if len(_fields(next(records, b""), "line 1")) != 2:
                raise ValueError("expected a two-column sequence_id,taxon_id CSV")
            mapping = _taxa_by_id(records)
        if not mapping:
            raise ValueError("no label rows")
    return mapping


def write_labels_csv(mapping, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("sequence_id,taxon_id\n")
        for sid, taxon in mapping.items():
            fh.write(f"{sid},{taxon}\n")


def load_label_counts(path):
    """Read per-taxon counts from a CSV -> {taxon id: count}.

    Accepts either a two-column id->taxon file, read by load_labels_csv's
    row rule and tallied per taxon, or a ``taxon_id[,name],train_count``
    table (one row per taxon, taxon id and count non-negative int64s).
    """
    with _naming(path):
        with open(path, "rb") as fh:
            records = _records(fh)
            header = next(records, None)
            if header is None:
                raise ValueError("empty counts CSV")
            header = _fields(header, "line 1")
            lowered = [h.strip().lower() for h in header]
            direct = (lowered[:1] == ["taxon_id"]
                      and lowered[-1] in ("train_count", "count"))
            if not direct and not (len(lowered) == 2
                                   and lowered[1] in ("taxon_id", "label")):
                raise ValueError(
                    f"unrecognized counts header {header};"
                    " expected id,taxon_id or taxon_id[,name],train_count"
                )
            if direct:
                counts = {}
                for where, row in _rows(records, len(header)):
                    taxon = _int64(row[0], where, "taxon id")
                    if taxon in counts:
                        raise ValueError(
                            f"{where}: second count for taxon {taxon}")
                    counts[taxon] = _int64(row[-1], where, "count")
            else:
                counts = dict(Counter(_taxa_by_id(records).values()))
        if not counts:
            raise ValueError("no count rows")
    return counts


def read_json(path):
    """The JSON value in file `path`.  A file that is not UTF-8, not JSON
    or nested past json's recursion limit raises ValueError naming `path`."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_json(obj, path):
    """Write `obj` as JSON with sorted keys, an indent of 2 and a final
    newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# what a config field of each declared type must hold
_FIELD_KINDS = {bool: ("true or false", (bool, np.bool_)),
                int: ("an integer", (int, np.integer)),
                float: ("a number", (int, float, np.integer, np.floating)),
                dict: ("a JSON object", dict),
                str | dict: ("a string or a JSON object", (str, dict))}


# the comparisons a range rule of JsonConfig.limits may use
_RULE_TESTS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


class JsonConfig:
    """Base of the dataclass configs read from JSON objects.  Its
    __post_init__, which a subclass's own calls first, checks the fields
    in order.  It refuses a value that, as JSON can give, is not of its
    field's declared kind: an int field holding 64.5, 2.0, true or "8",
    a float field holding "0.1" or a bool field holding 1.  It refuses a
    float field holding NaN or an infinity.  Then it applies the field's
    range rules from the class's `limits` table, each an operator and a
    bound such as ">= 0", and refuses a value that breaks one with
    "NAME must be RULE, got VALUE".  Python and NumPy scalars pass."""

    noun = "config"  # names the config in from_dict's errors
    limits = {}  # field name -> its range rules

    def __post_init__(self):
        for f in fields(self):
            kind, types = _FIELD_KINDS[f.type]
            value = getattr(self, f.name)
            if not isinstance(value, types) or (f.type is not bool
                                                and isinstance(value, bool)):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
            if f.type is float and not -math.inf < value < math.inf:
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            for rule in self.limits.get(f.name, ()):
                op, bound = rule.split()
                if not _RULE_TESTS[op](value, float(bound)):
                    raise ValueError(f"{f.name} must be {rule}, got {value}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, obj, path=None):
        """Refuses a value that is not an object and unknown keys; with
        `path`, the file `obj` was read from, every fault names it."""
        with _naming(path):
            if not isinstance(obj, dict):
                raise ValueError(f"{cls.noun} must be a JSON object, got"
                                 f" {type(obj).__name__}")
            unknown = set(obj) - {f.name for f in fields(cls)}
            if unknown:
                raise ValueError(f"unknown {cls.noun} fields: {sorted(unknown)}")
            return cls(**obj)

    @classmethod
    def load(cls, path):
        return cls.from_dict(read_json(path), path)
