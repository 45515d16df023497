"""File formats used across the pipeline.

Covers FASTA sequence files, feature tables (CSV and the compact
``.vgfb`` binary form), sequence-to-taxon label files, per-class count
tables, and train/test split lists.  Loaders validate their input and
raise ``ValueError`` with enough context (row id or line number) to
locate the offending record.

Formats
-------
features.csv   header ``id,label,f0,...,f{D-1}``; one row per item;
               label is a non-negative integer taxon id.
features.vgfb  little-endian binary: magic ``VGFB``, u32 version (=1),
               u32 N, u32 D, N*D float32 row-major, u64 byte length of
               the trailing id/label table, then that table as CSV
               bytes (header ``id,label``).
labels.csv     header ``sequence_id,taxon_id``; maps sequences to taxa.
split.json     object with ``train`` and ``test`` arrays of item ids.

Features are stored as 32-bit floats on disk and promoted to 64-bit in
memory.
"""

import csv
import io
import json
import re
import struct
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np
import orjson

# ACGT/U, N, and the IUPAC ambiguity letters.
IUPAC_LETTERS = frozenset("ACGTUNRYSWKMBDHV")

_HEADER_ID_SPLIT = re.compile(r"[\s|]")

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


def load_feature_csv(path):
    """Load a ``features.csv`` file; D is inferred from the header.

    A plain file is parsed in one streamed pass; any file that pass
    cannot vouch for is read again by the row parser, whose errors name
    the offending line or row.
    """
    try:
        return _load_feature_csv_streamed(path)
    except ValueError:
        return _load_feature_csv_rows(path)


def _plain(line):
    """`line` holds none of the bytes that make csv differ from a split
    at commas: a quote, a carriage return or a NUL."""
    return b'"' not in line and b"\r" not in line and b"\0" not in line


# the bytes of a feature part that orjson may parse: JSON's number grammar
# is a subset of float()'s over them, with the same correctly rounded
# values except that the integer -0 reads as 0, not -0.0
_NUMBER_BYTES = b"0123456789.eE+-,"


def _feature_row(feats, dim):
    """The `dim` values of one line's feature part (bytes): orjson parses
    a part of number bytes and no integer -0 ("-0," also catches harmless
    exponents like "1e-0,"); np.loadtxt, which rounds as float() does,
    parses any other part and any part orjson rejects.  Raises ValueError
    if the part does not hold exactly `dim` values."""
    text, values = b"[" + feats + b"]", None
    if (not feats.translate(None, _NUMBER_BYTES)
            and b"-0," not in text and not text.endswith(b"-0]")):
        try:
            values = orjson.loads(text)
        except ValueError:
            pass
    if values is None:  # one line gives a 1-D array
        values = np.loadtxt([feats.decode()], delimiter=",", comments=None,
                            ndmin=1)
    if len(values) != dim:  # a 1-value row must not broadcast
        raise ValueError("row does not match the header")
    return values


def _load_feature_csv_streamed(path):
    """The streamed pass of load_feature_csv.  One binary pass counts the
    lines and bytes, which bound the rows, so the (rows, D) matrix is
    allocated once; the second pass parses each line's feature part
    straight into its row (see _feature_row) and collects ids and labels
    on the way.  Blank lines leave slack at the end, trimmed by a view.
    orjson, loadtxt and float() all round correctly, so the matrix is the
    row parser's bit for bit.

    Raises ValueError, without naming the line, for anything the row
    parser might read differently or reject: a line that is not plain or
    not UTF-8, a bad header, no rows, a short or long row, a label that is
    not a non-negative integer, a non-finite or unparsable value, or a
    duplicate id.
    """
    ids, labels = [], []
    with open(path, "rb") as fh:
        header = fh.readline()
        dim = header.count(b",") - 1
        if (dim < 1 or not _plain(header)
                or header.decode().rstrip("\n").split(",")
                != _expected_header(dim)):
            raise ValueError("bad header")
        start = fh.tell()
        newlines = nbytes = 0
        for block in iter(lambda: fh.read(1 << 16), b""):
            newlines += block.count(b"\n")
            nbytes += len(block)
        # a row of D values takes at least 2D + 2 bytes (",0," and "1,")
        # before its newline, so no row index reaches this bound
        matrix = np.empty((min(newlines + 1, nbytes // (2 * dim + 2)), dim))
        fh.seek(start)
        for line in fh:
            if not _plain(line):
                raise ValueError("not a plain CSV line")
            line = line.rstrip(b"\n")
            if line:  # csv skips blank lines too
                rid, label, feats = line.split(b",", 2)
                if not feats:  # loadtxt would skip it as a blank line
                    raise ValueError("empty feature field")
                labels.append(int(label.decode()))
                matrix[len(ids)] = _feature_row(feats, dim)
                ids.append(rid.decode())
    if not ids:
        raise ValueError("no data rows")
    # rejects negative labels, non-finite values and duplicate ids
    return FeatureTable(ids, np.array(labels), matrix[:len(ids)])


def _load_feature_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty feature CSV") from None
        dim = len(header) - 2
        if dim < 1 or header != _expected_header(dim):
            raise ValueError(
                f"{path}: bad header, expected id,label,f0,...,f{{D-1}}"
            )
        ids, labels, rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != dim + 2:
                raise ValueError(
                    f"{path}: line {lineno}: expected {dim + 2} fields, got {len(row)}"
                )
            rid = row[0]
            try:
                label = int(row[1])
            except ValueError:
                raise ValueError(
                    f"{path}: row {rid!r}: label {row[1]!r} is not an integer"
                ) from None
            if label < 0:
                raise ValueError(f"{path}: row {rid!r}: negative label {label}")
            try:
                feats = [float(v) for v in row[2:]]
            except ValueError:
                raise ValueError(
                    f"{path}: row {rid!r}: non-numeric feature value"
                ) from None
            if not all(np.isfinite(feats)):
                raise ValueError(f"{path}: row {rid!r}: non-finite feature value")
            ids.append(rid)
            labels.append(label)
            rows.append(feats)
    if not ids:
        raise ValueError(f"{path}: feature CSV has no data rows")
    if len(set(ids)) != len(ids):
        dupes = sorted(i for i, m in Counter(ids).items() if m > 1)
        raise ValueError(f"{path}: duplicate ids {dupes[:5]}")
    return FeatureTable(ids, np.array(labels), np.array(rows, dtype=np.float64))


def write_feature_csv(table, path):
    """Write values with repr, the shortest text that reads back to the
    same float64; one row at a time, so no copy of the matrix is held."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_expected_header(table.dim)) + "\n")
        for rid, label, row in zip(table.ids, table.labels.tolist(),
                                   table.matrix):
            fh.write(f"{rid},{label},{','.join(map(repr, row.tolist()))}\n")


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
    try:
        block = data[off : off + block_len].decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[off : off + exc.start].count(b"\n") + 1
        raise ValueError(
            f"{path}: id/label table line {line}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(block))
    header = next(reader, None)
    if header != ["id", "label"]:
        raise ValueError(f"{path}: bad id/label table header {header}")
    ids, labels = [], []
    for row in reader:
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
        if label < 0:
            raise ValueError(f"{where}: negative label {label}")
        labels.append(label)
        ids.append(row[0])
    if len(ids) != n:
        raise ValueError(f"{path}: id/label table has {len(ids)} rows, expected {n}")
    return FeatureTable(ids, np.array(labels), matrix)


def load_labels_csv(path):
    """Load a sequence->taxon map from a ``sequence_id,taxon_id`` CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) != 2:
            raise ValueError(f"{path}: expected a two-column sequence_id,taxon_id CSV")
        mapping = {}
        for lineno, row in enumerate(reader, start=2):
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
                raise ValueError(f"{path}: line {lineno}: negative taxon id")
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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
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
        for row in reader:
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
            if taxon < 0:
                raise ValueError(f"{where}: negative taxon id {taxon}")
            if direct and taxon in counts:
                raise ValueError(f"{where}: second count for taxon {taxon}")
            if count < 0:
                raise ValueError(f"{where}: negative count {count}")
            counts[taxon] = count
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
