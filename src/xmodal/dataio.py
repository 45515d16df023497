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
import itertools
import json
import re
import struct
from dataclasses import dataclass, field

import numpy as np

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
            dupes = sorted({i for i in self.ids if self.ids.count(i) > 1})
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

    def rows(self, indices):
        """New table restricted to the given row indices (order kept)."""
        idx = list(indices)
        return FeatureTable(
            [self.ids[i] for i in idx], self.labels[idx], self.matrix[idx]
        )


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
    """`line` holds none of the characters that make csv differ from a
    split at commas: a quote, a carriage return or a NUL."""
    return '"' not in line and "\r" not in line and "\0" not in line


def _load_feature_csv_streamed(path):
    """The streamed pass of load_feature_csv: np.loadtxt parses the
    feature part of each line as it is read, and ids and labels are
    collected on the way.  loadtxt and float() both round through
    PyOS_string_to_double, so the matrix is the row parser's bit for bit.

    Raises ValueError, without naming the line, for anything the row
    parser might read differently or reject: a line that is not plain, a
    bad header, no rows, a short or long row, a label that is not a
    non-negative integer, a non-finite or unparsable value, or a
    duplicate id.
    """
    ids, labels = [], []

    def feature_parts(lines):
        for line in lines:
            if not _plain(line):
                raise ValueError("not a plain CSV line")
            line = line.rstrip("\n")
            if line:  # csv skips blank lines too
                rid, label, feats = line.split(",", 2)
                if not feats:  # loadtxt would skip it as a blank line
                    raise ValueError("empty feature field")
                ids.append(rid)
                labels.append(int(label))
                yield feats

    with open(path, encoding="utf-8", newline="\n") as fh:
        header = fh.readline()
        dim = header.count(",") - 1
        if (dim < 1 or not _plain(header)
                or header.rstrip("\n").split(",") != _expected_header(dim)):
            raise ValueError("bad header")
        rows = feature_parts(fh)
        first = next(rows, None)
        if first is None:  # loadtxt would warn on empty input
            raise ValueError("no data rows")
        matrix = np.loadtxt(itertools.chain([first], rows), delimiter=",",
                            comments=None, ndmin=2)
    if matrix.shape != (len(ids), dim):
        raise ValueError("rows do not match the header")
    # rejects negative labels, non-finite values and duplicate ids
    return FeatureTable(ids, np.array(labels), matrix)


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
        dupes = sorted({i for i in ids if ids.count(i) > 1})
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
    block = data[off : off + block_len].decode("utf-8")
    reader = csv.reader(io.StringIO(block))
    header = next(reader, None)
    if header != ["id", "label"]:
        raise ValueError(f"{path}: bad id/label table header {header}")
    ids, labels = [], []
    for row in reader:
        if not row:
            continue
        ids.append(row[0])
        labels.append(int(row[1]))
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
            sid, taxon = row[0], int(row[1])
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
    """Read per-taxon counts from a CSV.

    Accepts either a two-column id->taxon file (counts are tallied per
    taxon) or a ``taxon_id[,name],train_count`` table (counts read
    directly).  Returns an int array indexed by taxon id; taxa missing
    from the file get count 0.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty counts CSV")
        rows = [r for r in reader if r]
    lowered = [h.strip().lower() for h in header]
    counts = {}
    if lowered[0] == "taxon_id" and lowered[-1] in ("train_count", "count"):
        for row in rows:
            counts[int(row[0])] = int(row[-1])
    elif len(lowered) == 2 and lowered[1] in ("taxon_id", "label"):
        for row in rows:
            taxon = int(row[1])
            counts[taxon] = counts.get(taxon, 0) + 1
    else:
        raise ValueError(
            f"{path}: unrecognized counts header {header};"
            " expected id,taxon_id or taxon_id[,name],train_count"
        )
    if not counts:
        raise ValueError(f"{path}: no count rows")
    size = max(counts) + 1
    out = np.zeros(size, dtype=np.int64)
    for taxon, cnt in counts.items():
        out[taxon] = cnt
    return out


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
