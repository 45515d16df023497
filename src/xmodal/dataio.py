"""File formats used across the pipeline.

Covers FASTA sequence files, feature tables (CSV and the compact
``.vgfb`` binary form), sequence-to-taxon label files, per-class count
tables, and train/test split lists.  Loaders validate their input and
raise ``ValueError`` with enough context (row id or line number) to
locate the offending record.

Formats
-------
features.csv   header ``id,label,f0,...,f{D-1}``; one row per item;
               label is a non-negative int64 taxon id.  Records end
               as csv's do, and a field may be quoted, but not across
               a line end.  Values are written as their repr text
               (orjson's inside the band where the two agree).
features.vgfb  little-endian binary: magic ``VGFB``, u32 version (=1),
               u32 N, u32 D, N*D float32 row-major, u64 byte length of
               the trailing id/label table, then that table as CSV
               bytes (header ``id,label``).
labels.csv     header ``sequence_id,taxon_id``; maps sequences to taxa.
counts.csv     ``id,taxon_id`` rows tallied per taxon, or
               ``taxon_id[,name],train_count`` rows.
split.json     object with ``train`` and ``test`` arrays of item ids.

``.vgfb`` features are stored as 32-bit floats and promoted to 64-bit in
memory.  Text files must be UTF-8; a bad byte is reported with its line.
"""

import csv
import io
import json
import math
import re
import struct
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np
import orjson

# ACGT/U, N, and the IUPAC ambiguity letters.
IUPAC_LETTERS = frozenset("ACGTUNRYSWKMBDHV")

_HEADER_ID_SPLIT = re.compile(r"[\s|]")

# the largest taxon id or label that FeatureTable's int64 labels hold
_INT64_MAX = int(np.iinfo(np.int64).max)


def _check_int64(value, where, noun):
    """`value` if it lies in [0, 2**63); else a ValueError naming `where`
    and `noun`."""
    if value < 0:
        raise ValueError(f"{where}: negative {noun} {value}")
    if value > _INT64_MAX:
        raise ValueError(f"{where}: {noun} {value} exceeds int64")
    return value


VGFB_MAGIC = b"VGFB"
VGFB_VERSION = 1


@dataclass
class SequenceRecord:
    """One rDNA sequence: a whitespace-free id and an upper-case base string."""

    id: str
    residues: str

    def __post_init__(self):
        if not self.id or re.search(r"\s", self.id):
            raise ValueError(f"sequence id {self.id!r} must be a non-empty token")
        if not self.residues:
            raise ValueError(f"sequence {self.id!r} has no residues")
        bad = set(self.residues) - IUPAC_LETTERS
        if bad:
            raise ValueError(
                f"sequence {self.id!r} contains non-IUPAC letters: {sorted(bad)}"
            )


def parse_fasta(text):
    """Parse FASTA from a string or an open text file.

    Lines starting with ``>`` begin a record; the id is the header token
    up to the first whitespace or ``|``.  Sequence lines are
    concatenated, whitespace-stripped, and upper-cased.
    """
    if hasattr(text, "read"):
        text = text.read()
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
        records.append(SequenceRecord(cur_id, residues))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            close_record()
            header = line[1:].strip()
            rec_id = _HEADER_ID_SPLIT.split(header, 1)[0]
            if not rec_id:
                raise ValueError(f"line {lineno}: FASTA header has no id token")
            if rec_id in seen:
                raise ValueError(
                    f"line {lineno}: duplicate id {rec_id!r}"
                    f" (first seen at line {seen[rec_id]})"
                )
            seen[rec_id] = lineno
            cur_id, cur_line = rec_id, lineno
            chunks = []
        else:
            if cur_id is None:
                raise ValueError(f"line {lineno}: sequence data before any header")
            chunk = re.sub(r"\s", "", line).upper()
            bad = set(chunk) - IUPAC_LETTERS
            if bad:
                raise ValueError(
                    f"line {lineno}: sequence {cur_id!r} contains"
                    f" non-IUPAC letters: {sorted(bad)}"
                )
            chunks.append(chunk)
    close_record()
    if not records:
        raise ValueError("empty FASTA input: no records found")
    return records


def format_fasta(records):
    """Render records back to FASTA text (one sequence line per record)."""
    return "".join(f">{r.id}\n{r.residues}\n" for r in records)


def write_fasta(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_fasta(records))


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
            raise ValueError(f"duplicate ids in feature table: {dupes[:5]}")
        if np.any(self.labels < 0):
            raise ValueError("labels must be non-negative integers")
        if not np.all(np.isfinite(self.matrix)):
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
    """The records of binary file `fh`, each ended as csv ends one: by a
    line feed, a carriage return and line feed, or a lone carriage
    return."""
    for line in fh:
        yield from line.splitlines() if b"\r" in line else (line.rstrip(b"\n"),)


def _fields(record, n):
    """The fields of record `n` (bytes) as csv reads them; a record that
    holds no quote is split at commas."""
    try:
        text = record.decode()
        return next(csv.reader([text])) if '"' in text else text.split(",")
    except UnicodeDecodeError:
        raise ValueError(f"line {n}: not UTF-8 text") from None
    except csv.Error as exc:
        raise ValueError(f"line {n}: {exc}") from None


def _row(record, dim, n):
    """The id, label and `dim` values of record `n` (bytes, not blank).

    A record with no quote, a label in [0, 2**63) and a feature part
    that _number_row reads, with no integer -0 in it, is taken as is.
    Any other record is split into fields and checked in order: the
    field count, the label, then each value by float(); the first fault
    raises, naming the line or the row id."""
    if b'"' not in record:
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
    fields = _fields(record, n)
    if len(fields) != dim + 2:
        raise ValueError(f"line {n}: expected {dim + 2} fields, got {len(fields)}")
    rid = fields[0]
    try:
        label = int(fields[1])
    except ValueError:
        raise ValueError(
            f"row {rid!r}: label {fields[1]!r} is not an integer") from None
    _check_int64(label, f"row {rid!r}", "label")
    try:
        values = [float(v) for v in fields[2:]]
    except ValueError:
        raise ValueError(f"row {rid!r}: non-numeric feature value") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"row {rid!r}: non-finite feature value")
    return rid, label, values


def load_feature_csv(path):
    """Load a ``features.csv`` file; D is inferred from the header.

    The file is opened once.  A binary pass counts its records and
    bytes, which bound the rows, so the (rows, D) matrix is allocated
    once; a second pass parses each record straight into its row (see
    _row) and collects ids and labels on the way.  Blank records leave
    slack at the end, trimmed by a view.  orjson and float() both round
    correctly, so every value is float()'s bit for bit.

    Any fault raises one ValueError naming `path` and, where it has one,
    the line or row id: the first fault in file order, then duplicate
    ids.  A quoted field that holds a line break is a short record.
    """
    try:
        with open(path, "rb") as fh:
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
            header = _fields(header, 1)
            dim = len(header) - 2
            if dim < 1 or header != _expected_header(dim):
                raise ValueError("bad header, expected id,label,f0,...,f{D-1}")
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
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, m in Counter(ids).items() if m > 1)
            raise ValueError(f"duplicate ids {dupes[:5]}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return FeatureTable(ids, np.array(labels), matrix[:len(ids)])


def write_feature_csv(table, path):
    """Write each value as its repr, the shortest text that reads back to
    the same float64; one row at a time, so no copy of the matrix is held.

    orjson prints a row's values; for 0 and for 1e-4 <= |x| < 1e16 its
    text is repr's.  It writes other values differently (5.8e84 for
    5.8e+84, small ones positionally, non-finite ones as null), so those
    tokens are replaced by repr's."""
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


def _id_label_block(table):
    buf = io.StringIO()
    buf.write("id,label\n")
    for rid, label in zip(table.ids, table.labels):
        buf.write(f"{rid},{label}\n")
    return buf.getvalue().encode("utf-8")


def write_feature_bin(table, path):
    """Write the compact binary form (float32 payload, see module docs)."""
    payload = np.ascontiguousarray(table.matrix, dtype="<f4").tobytes()
    block = _id_label_block(table)
    with open(path, "wb") as fh:
        fh.write(VGFB_MAGIC)
        fh.write(struct.pack("<III", VGFB_VERSION, table.n, table.dim))
        fh.write(payload)
        fh.write(struct.pack("<Q", len(block)))
        fh.write(block)


def read_feature_bin(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != VGFB_MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}, expected {VGFB_MAGIC!r}")
    if len(data) < 16:
        raise ValueError(f"{path}: truncated header")
    version, n, dim = struct.unpack_from("<III", data, 4)
    if version != VGFB_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    off = 16
    nbytes = n * dim * 4
    if len(data) < off + nbytes + 8:
        raise ValueError(f"{path}: truncated payload")
    matrix = np.frombuffer(data, dtype="<f4", count=n * dim, offset=off)
    matrix = matrix.astype(np.float64).reshape(n, dim)
    off += nbytes
    (block_len,) = struct.unpack_from("<Q", data, off)
    off += 8
    if len(data) < off + block_len:
        raise ValueError(f"{path}: truncated id/label table")
    block = _utf8(data[off : off + block_len], f"{path}: id/label table")
    reader = csv.reader(io.StringIO(block))
    rows = _csv_rows(reader, f"{path}: id/label table")
    header = next(rows, None)
    if header != ["id", "label"]:
        raise ValueError(f"{path}: bad id/label table header {header}")
    ids, labels = [], []
    for row in rows:
        if not row:
            continue
        where = f"{path}: id/label table line {reader.line_num}"
        if len(row) != 2:
            raise ValueError(f"{where}: expected 2 fields, got {len(row)}")
        try:
            label = int(row[1])
        except ValueError:
            raise ValueError(
                f"{where}: label {row[1]!r} is not an integer") from None
        labels.append(_check_int64(label, where, "label"))
        ids.append(row[0])
    if len(ids) != n:
        raise ValueError(f"{path}: id/label table has {len(ids)} rows, expected {n}")
    return FeatureTable(ids, np.array(labels), matrix)


def _utf8(data, where):
    """`data` (bytes) decoded as UTF-8; a bad byte raises ValueError naming
    `where` and its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[:exc.start].count(b"\n") + 1
        raise ValueError(f"{where} line {line}: not UTF-8 text") from None


def _csv_reader(path):
    """A csv.reader over the text of file `path`, which is read whole and
    decoded by _utf8."""
    with open(path, "rb") as fh:
        text = _utf8(fh.read(), f"{path}:")
    return csv.reader(io.StringIO(text, newline=""))


def _csv_rows(reader, where):
    """The rows of csv `reader`; a csv.Error (a field over csv's size
    limit...) raises ValueError naming `where` and the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{where} line {reader.line_num}: {exc}") from None


def load_labels_csv(path):
    """Load a sequence->taxon map from a ``sequence_id,taxon_id`` CSV."""
    rows = _csv_rows(_csv_reader(path), f"{path}:")
    header = next(rows, None)
    if header is None or len(header) != 2:
        raise ValueError(f"{path}: expected a two-column sequence_id,taxon_id CSV")
    mapping = {}
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"{path}: line {lineno}: expected 2 fields")
        sid = row[0]
        try:
            taxon = int(row[1])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: taxon id {row[1]!r}"
                             " is not an integer") from None
        if taxon < 0:
            # older wording, without the value, kept as it was
            raise ValueError(f"{path}: line {lineno}: negative taxon id")
        _check_int64(taxon, f"{path}: line {lineno}", "taxon id")
        if sid in mapping:
            raise ValueError(f"{path}: duplicate sequence id {sid!r}")
        mapping[sid] = taxon
    if not mapping:
        raise ValueError(f"{path}: no label rows")
    return mapping


def write_labels_csv(mapping, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("sequence_id,taxon_id\n")
        for sid, taxon in mapping.items():
            fh.write(f"{sid},{taxon}\n")


def load_label_counts(path):
    """Read per-taxon counts from a CSV -> {taxon id: count}.

    Accepts either a two-column id->taxon file (counts are tallied per
    taxon) or a ``taxon_id[,name],train_count`` table (counts read
    directly, one row per taxon, each count non-negative).
    """
    reader = _csv_reader(path)
    rows = _csv_rows(reader, f"{path}:")
    header = next(rows, None)
    if header is None:
        raise ValueError(f"{path}: empty counts CSV")
    lowered = [h.strip().lower() for h in header]
    direct = (lowered[0] == "taxon_id"
              and lowered[-1] in ("train_count", "count"))
    if not direct and not (len(lowered) == 2
                           and lowered[1] in ("taxon_id", "label")):
        raise ValueError(
            f"{path}: unrecognized counts header {header};"
            " expected id,taxon_id or taxon_id[,name],train_count"
        )
    counts = {}
    for row in rows:
        if not row:
            continue
        where = f"{path}: line {reader.line_num}"
        if len(row) != len(header):
            raise ValueError(
                f"{where}: expected {len(header)} fields, got {len(row)}")
        try:
            taxon = int(row[0] if direct else row[1])
            count = int(row[-1]) if direct else counts.get(taxon, 0) + 1
        except ValueError:
            raise ValueError(f"{where}: non-integer taxon id or count"
                             f" in {row}") from None
        _check_int64(taxon, where, "taxon id")
        if direct and taxon in counts:
            raise ValueError(f"{where}: second count for taxon {taxon}")
        counts[taxon] = _check_int64(count, where, "count")
    if not counts:
        raise ValueError(f"{path}: no count rows")
    return counts


@dataclass
class SplitSpec:
    """Disjoint train/test item id lists."""

    train: list = field(default_factory=list)
    test: list = field(default_factory=list)

    def __post_init__(self):
        self.train = list(self.train)
        self.test = list(self.test)
        overlap = set(self.train) & set(self.test)
        if overlap:
            raise ValueError(f"train/test overlap: {sorted(overlap)[:5]}")


def write_split(split, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"train": split.train, "test": split.test}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")


# what a config field declared bool, int or float must hold
_FIELD_KINDS = {bool: ("true or false", (bool, np.bool_)),
                int: ("an integer", (int, np.integer)),
                float: ("a number", (int, float, np.integer, np.floating))}


def check_field_types(config):
    """Raise ValueError naming the first field of dataclass `config` whose
    value, as JSON configs can give, is not of its declared kind: an int
    field holding 64.5, 2.0, true or "8", a float field holding "0.1" or
    a bool field holding 1.  Python and NumPy scalars pass."""
    for f in fields(config):
        kind, types = _FIELD_KINDS[f.type]
        value = getattr(config, f.name)
        if not isinstance(value, types) or (f.type is not bool
                                            and isinstance(value, bool)):
            raise ValueError(f"{f.name} must be {kind}, got {value!r}")
