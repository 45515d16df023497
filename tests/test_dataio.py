"""File format round-trip and validation tests."""

import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from xmodal import dataio
from xmodal.dataio import (
    FeatureTable,
    SequenceRecord,
    SplitSpec,
    format_fasta,
    load_feature_csv,
    load_label_counts,
    load_labels_csv,
    parse_fasta,
    read_feature_bin,
    write_feature_bin,
    write_feature_csv,
    write_fasta,
    write_labels_csv,
)


def small_table(rng=None, n=4, dim=6):
    rng = rng or np.random.default_rng(0)
    return FeatureTable(
        ids=[f"item{i}" for i in range(n)],
        labels=rng.integers(0, 3, size=n),
        matrix=rng.normal(size=(n, dim)),
    )


def test_parse_fasta_basic():
    text = ">seq1 some description\nACGT\nacgt\n>seq2|extra\nTTaa\n"
    records = parse_fasta(text)
    assert [r.id for r in records] == ["seq1", "seq2"]
    assert records[0].residues == "ACGTACGT"
    assert records[1].residues == "TTAA"


def test_parse_fasta_round_trip(tmp_path):
    records = [SequenceRecord("a", "ACGT"), SequenceRecord("b", "GGNNCC")]
    path = tmp_path / "seqs.fa"
    write_fasta(records, path)
    with open(path) as fh:
        back = parse_fasta(fh)
    assert back == records


def test_parse_fasta_duplicate_id():
    with pytest.raises(ValueError, match="duplicate id"):
        parse_fasta(">x\nACGT\n>x\nTTTT\n")


def test_parse_fasta_reports_line_numbers():
    with pytest.raises(ValueError, match="line 3"):
        parse_fasta(">x\nACGT\nnot-a-base!\n")


def test_parse_fasta_data_before_header():
    with pytest.raises(ValueError, match="before any header"):
        parse_fasta("ACGT\n>x\nACGT\n")


def test_parse_fasta_empty_record():
    with pytest.raises(ValueError, match="empty sequence"):
        parse_fasta(">x\n>y\nACGT\n")


def test_parse_fasta_empty_input():
    with pytest.raises(ValueError, match="no records"):
        parse_fasta("\n\n")


def test_sequence_record_rejects_bad_letters():
    with pytest.raises(ValueError, match="non-IUPAC"):
        SequenceRecord("x", "ACGT9")


def test_feature_table_names_the_first_five_duplicate_ids_sorted(tmp_path):
    ids = [f"img{i:05d}" for i in range(30_000)]
    for i in (29_999, 12, 20_000, 7, 7, 15_000, 3):  # six distinct repeats
        ids.append(ids[i])
    first_five = "['img00003', 'img00007', 'img00012', 'img15000', 'img20000']"
    with pytest.raises(ValueError) as info:
        FeatureTable(ids, np.zeros(len(ids), dtype=int), np.zeros((len(ids), 1)))
    assert str(info.value) == f"duplicate ids in feature table: {first_five}"
    # the CSV row parser counts them in one pass and names the same five
    path = tmp_path / "features.csv"
    path.write_text("id,label,f0\n" + "".join(f"{i},0,1.0\n" for i in ids))
    with pytest.raises(ValueError) as info:
        dataio._load_feature_csv_rows(path)
    assert str(info.value) == f"{path}: duplicate ids {first_five}"


def test_format_fasta_is_inverse_of_parse():
    records = [SequenceRecord("q", "ACGTRYSWKM")]
    assert parse_fasta(format_fasta(records)) == records


def test_feature_table_validation():
    with pytest.raises(ValueError, match="duplicate ids"):
        FeatureTable(["a", "a"], [0, 1], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-negative"):
        FeatureTable(["a", "b"], [0, -1], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        FeatureTable(["a", "b"], [0, 1], np.array([[0.0, 1.0], [np.nan, 2.0]]))
    with pytest.raises(ValueError, match="inconsistent"):
        FeatureTable(["a", "b"], [0, 1, 2], np.zeros((2, 3)))


def test_feature_csv_round_trip_exact(tmp_path):
    table = small_table(np.random.default_rng(5))
    path = tmp_path / "features.csv"
    write_feature_csv(table, path)
    back = load_feature_csv(path)
    assert back.ids == table.ids
    assert np.array_equal(back.labels, table.labels)
    # repr-based formatting round-trips float64 exactly
    assert np.array_equal(back.matrix, table.matrix)


def test_feature_csv_text_is_repr_of_each_value(tmp_path):
    table = small_table(np.random.default_rng(6), n=3, dim=7)
    table.matrix[0] = [0.0, -0.0, 5e-324, 1e-310, 1e16, 1.7976931348623157e308,
                       0.1]
    table.matrix[1] *= 1e-5
    path = tmp_path / "features.csv"
    write_feature_csv(table, path)
    want = "id,label," + ",".join(f"f{j}" for j in range(7)) + "\n" + "".join(
        f"{rid},{int(label)}," + ",".join(repr(float(v)) for v in row) + "\n"
        for rid, label, row in zip(table.ids, table.labels, table.matrix))
    assert path.read_bytes() == want.encode("utf-8")


def test_feature_csv_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,x0,x1\nitem0,0,1.0,2.0\n")
    with pytest.raises(ValueError, match="bad header"):
        load_feature_csv(path)


def test_feature_csv_bad_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,f0\nitem0,zero,1.0\n")
    with pytest.raises(ValueError, match="not an integer"):
        load_feature_csv(path)


def test_feature_bin_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    table = FeatureTable(
        ids=[f"v{i}" for i in range(7)],
        labels=rng.integers(0, 4, size=7),
        matrix=rng.normal(size=(7, 5)).astype(np.float32),
    )
    path = tmp_path / "features.vgfb"
    write_feature_bin(table, path)
    back = read_feature_bin(path)
    assert back.ids == table.ids
    assert np.array_equal(back.labels, table.labels)
    # payload is float32 on disk; the table already held float32-exact
    # values, so the round trip is bitwise
    assert np.array_equal(
        back.matrix.astype(np.float32).view(np.uint32),
        table.matrix.astype(np.float32).view(np.uint32),
    )


def test_feature_bin_rejects_corruption(tmp_path):
    table = small_table()
    path = tmp_path / "features.vgfb"
    write_feature_bin(table, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.vgfb"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="bad magic"):
        read_feature_bin(bad)
    truncated = tmp_path / "short.vgfb"
    truncated.write_bytes(path.read_bytes()[:20])
    with pytest.raises(ValueError, match="truncated"):
        read_feature_bin(truncated)
    # the id/label table follows the payload and its 8-byte length
    start = 16 + table.n * table.dim * 4
    for block, message in (
            (b"id,label\nitem0,1\nitem1\n",
             "id/label table line 3: expected 2 fields, got 1"),
            (b"id,label\nitem0,x\n",
             "id/label table line 2: label 'x' is not an integer"),
            (b"id,label\nitem0,1\nitem1,-3\n",
             "id/label table line 3: negative label -3"),
            (b"id,label\nitem0,1\nit\xffem1,0\n",
             "id/label table line 3: not UTF-8 text")):
        bad.write_bytes(path.read_bytes()[:start]
                        + len(block).to_bytes(8, "little") + block)
        with pytest.raises(ValueError) as info:
            read_feature_bin(bad)
        assert str(info.value) == f"{bad}: {message}"


def test_labels_csv_round_trip(tmp_path):
    mapping = {"s1": 0, "s2": 3, "s3": 1}
    path = tmp_path / "labels.csv"
    write_labels_csv(mapping, path)
    assert load_labels_csv(path) == mapping


def test_labels_csv_duplicate(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("sequence_id,taxon_id\ns1,0\ns1,1\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_labels_csv(path)


def test_load_label_counts_direct_table(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("taxon_id,name,train_count\n0,alpha,500\n2,gamma,10\n")
    assert load_label_counts(path) == {0: 500, 2: 10}


def test_load_label_counts_tally(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("sequence_id,taxon_id\na,0\nb,0\nc,1\n")
    assert load_label_counts(path) == {0: 2, 1: 1}


def test_split_spec_overlap():
    with pytest.raises(ValueError, match="overlap"):
        SplitSpec(train=["a", "b"], test=["b"])


def _midpoints(x):
    """Decimal text of the exact midpoint between double `x` and the next
    one up, and of the decimals one unit in the 60th digit below and above
    it, which must round down and up."""
    with localcontext() as ctx:
        ctx.prec = 1200  # exact for every double and midpoint
        lo, hi = Decimal(x), Decimal(float(np.nextafter(x, np.inf)))
        mid = (lo + hi) / 2
        step = mid.scaleb(-60).copy_abs()
        return [str(mid), str(mid - step), str(mid + step)]


def _csv_of(values, width):
    """A plain features CSV holding `values`, `width` to a row."""
    rows = [values[i:i + width] for i in range(0, len(values), width)]
    return ("id,label," + ",".join(f"f{i}" for i in range(width)) + "\n"
            + "".join(f"r{i},{i % 3},{','.join(row)}\n"
                      for i, row in enumerate(rows)))


_RNG = np.random.default_rng(15)
PLAIN_CSVS = {
    "blank-lines": "id,label,f0,f1\n\na,0,1.5,-2e-300\n\n\nb,3,5e-324,1e308\n\n",
    "spaces-in-ids": ("id,label,f0,f1\nitem one,1, 0.5 ,+2\n lead,0,.5,5.\n"
                      "trail ,2,-0.0,1E5\n"),
    "one-column": "id,label,f0\nx,0,1.25\ny,1,-3\nz,1,7e-3",
    "label-spellings": "id,label,f0\np, 2,0.1\nq,+4,0.2\nr,1_0,0.3\n",
    # mantissas of 17 to 25 digits, past what a double holds
    "long-mantissas": _csv_of(
        ["0.12345678901234567", "-1.2345678901234567890123",
         "9.87654321098765432109876e-5", "123456789012345678901234.5",
         "3.1415926535897932384626e300", "-2.7182818284590452353602e-300"]
        + [f"{sign}{digits[0]}.{digits[1:]}e{e}"
           for sign, digits, e in zip(
               _RNG.choice(["", "-"], 60),
               ("".join(map(str, _RNG.integers(1, 10, n)))
                for n in _RNG.integers(17, 26, 60)),
               _RNG.integers(-300, 300, 60).tolist())],
        6),
    # exact ties between adjacent doubles round to even
    "midpoints": _csv_of(
        [v for x in (0.0, 5e-324, 2.0 ** -1022 - 5e-324, 2.0 ** -1022, 0.1,
                     1.0, 2.0 ** 52, 2.0 ** 53, 1e23, 1.7976931348623155e308)
         for v in _midpoints(x)], 6),
    "subnormals-and-huge": _csv_of(
        ["5e-324", "4.9406564584124654e-324", "2.4703282292062328e-324",
         "2.2250738585072009e-308", "2.2250738585072014e-308", "1e-320",
         "-2.5e-315", "1e-400", "1.7976931348623157e308",
         "1.7976931348623158e308", "-1.7976931348623157E+308", "9.9e307"],
        4),
    # orjson reads integers exactly up to 2**64 - 1 and as doubles above
    "big-integers": _csv_of(
        ["9007199254740993", "9007199254740995", "-9007199254740993",
         "9223372036854775807", "9223372036854775808",
         "-9223372036854775808", "-9223372036854775809",
         "18446744073709551615", "18446744073709551616",
         "18446744073709551617", "123456789012345678901234567890",
         "-99999999999999999999999"], 3),
    # the integer -0 must read as -0.0, like float("-0")
    "zeros": _csv_of(["-0", "-0.0", "0e0", "-0e0", "0", "-0E+0", "1e-0",
                      "0.0", "-0", "-0"], 2),
}


@pytest.mark.parametrize("name", sorted(PLAIN_CSVS))
def test_feature_csv_streamed_pass_equals_row_parser(tmp_path, name):
    path = tmp_path / "features.csv"
    path.write_text(PLAIN_CSVS[name], encoding="utf-8", newline="")
    # the streamed pass accepts these files itself, with no fallback
    fast = dataio._load_feature_csv_streamed(path)
    rows = dataio._load_feature_csv_rows(path)
    assert fast.ids == rows.ids
    assert fast.labels.tobytes() == rows.labels.tobytes()
    assert fast.matrix.tobytes() == rows.matrix.tobytes()
    assert load_feature_csv(path).matrix.tobytes() == rows.matrix.tobytes()


def test_feature_csv_streamed_pass_equals_row_parser_at_width(tmp_path):
    rng = np.random.default_rng(12)
    table = FeatureTable([f"s {i}" for i in range(40)],
                         rng.integers(0, 9, size=40),
                         rng.normal(size=(40, 300))
                         * np.exp2(rng.integers(-60, 60, size=(40, 300))))
    path = tmp_path / "features.csv"
    write_feature_csv(table, path)
    fast = dataio._load_feature_csv_streamed(path)
    assert fast.ids == table.ids
    assert fast.labels.tobytes() == table.labels.tobytes()
    assert fast.matrix.tobytes() == table.matrix.tobytes()


@pytest.mark.parametrize("text, ids, values", [
    ('id,label,f0\n"a,b",0,1.0\n"c",1,"2.5"\n', ["a,b", "c"], [1.0, 2.5]),
    ('id,label,f0\n"a",0,1.0\nb,1,2.5\n', ["a", "b"], [1.0, 2.5]),
    ("id,label,f0\r\na,0,1.0\r\nb,1,2.5\r\n", ["a", "b"], [1.0, 2.5]),
    # float() reads digit separators, loadtxt does not
    ("id,label,f0\na,0,1_0\nb,1,2.5\n", ["a", "b"], [10.0, 2.5]),
])
def test_valid_csv_the_streamed_pass_declines_takes_the_row_parser(
        tmp_path, text, ids, values):
    path = tmp_path / "features.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(ValueError):
        dataio._load_feature_csv_streamed(path)
    table = load_feature_csv(path)
    assert table.ids == ids
    assert table.matrix.ravel().tolist() == values


def _load_traced(load, path):
    """load(path) and the peak bytes tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return load(path), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_feature_csv_loads_at_paper_width_in_little_more_than_its_matrix(
        tmp_path):
    n, dim = 950, 2048
    rng = np.random.default_rng(16)
    path = tmp_path / "features.csv"
    fmt = ",".join(["%.9g"] * dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(dataio._expected_header(dim)) + "\n")
        for i, row in enumerate(rng.normal(size=(n, dim))):
            fh.write(f"img{i:04d},{i % 32}," + fmt % tuple(row) + "\n")
    _, peak = _load_traced(load_feature_csv, path)
    assert peak <= 1.25 * n * dim * 8


def test_blank_lines_do_not_size_the_feature_matrix(tmp_path):
    # one row under a 512-column header, then 200,000 blank lines: rows
    # are bounded by the bytes as well as by the lines, so the matrix
    # takes at most 4 bytes per byte of text ("0," holds a double)
    path = tmp_path / "features.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(dataio._expected_header(512)) + "\n")
        fh.write("a,0," + ",".join(["0.5"] * 512) + "\n")
        fh.write("\n" * 200_000)
    table, peak = _load_traced(dataio._load_feature_csv_streamed, path)
    assert table.matrix.shape == (1, 512)
    assert peak < 5 * path.stat().st_size


@pytest.mark.parametrize("row", [
    "a,0,1",          # orjson reads one value
    "a,0, 1",         # loadtxt reads one value
    "a,0,1,2,3",      # orjson reads three
    "a,0,1,2, 3",     # loadtxt reads three
])
def test_rows_of_the_wrong_width_are_declined_not_broadcast(tmp_path, row):
    path = tmp_path / "features.csv"
    path.write_text(f"id,label,f0,f1\nok,1,0.5,0.25\n{row}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError):
        dataio._load_feature_csv_streamed(path)
    with pytest.raises(ValueError, match="line 3: expected 4 fields"):
        load_feature_csv(path)
