"""File format round-trip and validation tests."""

import builtins
import csv
import re
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import (
    feature_csv_oracle,
    feature_csv_writer_oracle,
    label_counts_oracle,
    labels_csv_oracle,
)
from test_cli import BAD_FEATURE_CSVS

from xmodal import dataio
from xmodal.dataio import (
    FeatureTable,
    SequenceRecord,
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


def test_parse_fasta_reads_bytes_and_binary_files_with_csv_line_ends(
        tmp_path):
    data = b">a desc\r\nAC\rgt\n\n>b|x\rTT"
    want = [SequenceRecord("a", "ACGT"), SequenceRecord("b", "TT")]
    assert parse_fasta(data) == want
    assert parse_fasta(data.decode()) == want
    path = tmp_path / "seqs.fa"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        assert parse_fasta(fh) == want


@pytest.mark.parametrize("rid", ["s,1", 's"1', "s 1", ""])
def test_sequence_record_rejects_ids_a_csv_row_cannot_hold(rid):
    with pytest.raises(ValueError, match="must be a non-empty token"):
        SequenceRecord(rid, "ACGT")


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
    assert str(info.value) == f"duplicate ids {first_five}"
    # the CSV reader's table names the same five, after the file
    path = tmp_path / "features.csv"
    path.write_text("id,label,f0\n" + "".join(f"{i},0,1.0\n" for i in ids))
    with pytest.raises(ValueError) as info:
        load_feature_csv(path)
    assert str(info.value) == f"{path}: duplicate ids {first_five}"


def test_format_fasta_is_inverse_of_parse(tmp_path):
    records = [SequenceRecord("q", "ACGTRYSWKM")]
    path = tmp_path / "q.fa"
    write_fasta(records, path)
    assert parse_fasta(path.read_text()) == records


def test_feature_table_validation():
    with pytest.raises(ValueError, match="duplicate ids"):
        FeatureTable(["a", "a"], [0, 1], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-negative"):
        FeatureTable(["a", "b"], [0, -1], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        FeatureTable(["a", "b"], [0, 1], np.array([[0.0, 1.0], [np.nan, 2.0]]))
    with pytest.raises(ValueError, match="inconsistent"):
        FeatureTable(["a", "b"], [0, 1, 2], np.zeros((2, 3)))


def _overflowing_sums():
    to_nan = np.zeros((2, 8))  # +inf and -inf partial sums make nan
    to_nan[:, 0], to_nan[:, 1] = 1e308, -1e308
    return [np.full((2, 3), 1e308), to_nan]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix", _overflowing_sums(), ids=["inf", "nan"])
def test_feature_table_accepts_finite_values_whose_sum_overflows(matrix):
    table = FeatureTable(["a", "b"], [0, 1], matrix)
    assert table.matrix is matrix


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fill", [0.0, 1e308])
def test_feature_table_names_a_non_finite_value_in_the_last_row(bad, fill):
    matrix = np.full((3, 4), fill)
    matrix[2, 3] = bad
    with pytest.raises(ValueError) as info:
        FeatureTable(["a", "b", "c"], [0, 1, 2], matrix)
    assert str(info.value) == "non-finite feature value in row 'c'"


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


def _same_bytes_as_writer_oracle(table, tmp_path):
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_feature_csv(table, fast)
    feature_csv_writer_oracle(table, slow)
    assert fast.read_bytes() == slow.read_bytes()


@settings(max_examples=200, deadline=None)
@given(matrix=arrays(np.float64, st.tuples(st.integers(1, 5),
                                           st.integers(1, 12)),
                    elements=st.floats(allow_nan=False, allow_infinity=False)),
       # any id the writer accepts: no comma, quote or line end
       ids=st.lists(st.text(st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters=',"\r\n'),
                            max_size=6), min_size=5, max_size=5, unique=True),
       labels=st.lists(st.integers(0, 2**63 - 1), min_size=5, max_size=5))
def test_feature_csv_writer_equals_repr_writer(tmp_path_factory, matrix, ids,
                                               labels):
    n = len(matrix)
    _same_bytes_as_writer_oracle(FeatureTable(ids[:n], labels[:n], matrix),
                                 tmp_path_factory.mktemp("csv"))


def test_feature_csv_writer_equals_repr_writer_at_band_edges(tmp_path):
    tiny = np.finfo(np.float64).tiny
    edges = [0.0, -0.0, 1e-4, np.nextafter(1e-4, 0), 1e16,
             np.nextafter(1e16, 0), 5e-324, np.nextafter(tiny, 0), tiny,
             np.finfo(np.float64).max, 6.6e-05, 1e22, 0.1, 123456789012345.0]
    row = np.array(edges + [-v for v in edges])
    table = FeatureTable(["a", "\u00e9t\u00e9", "\u6728", "\U0001F600"],
                         [0, 1, 2, 2**63 - 1],
                         np.stack([row, row[::-1], row * 0.75, row / 7]))
    _same_bytes_as_writer_oracle(table, tmp_path)
    # non-finite values, which FeatureTable itself rejects
    table.matrix[1, :3] = [np.nan, np.inf, -np.inf]
    _same_bytes_as_writer_oracle(table, tmp_path)


def test_feature_csv_writer_equals_repr_writer_on_strided_matrices(tmp_path):
    rng = np.random.default_rng(13)
    values = rng.normal(size=(6, 40)) * np.exp2(rng.integers(-70, 70, (6, 40)))
    for matrix in (np.asfortranarray(values), values[:, 3:31:2]):
        assert not matrix.flags.c_contiguous
        table = FeatureTable([f"r{i}" for i in range(6)], range(6), matrix)
        assert not table.matrix.flags.c_contiguous
        _same_bytes_as_writer_oracle(table, tmp_path)


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
             "id/label table line 3: not UTF-8 text"),
            (b"id,label\nitem0,1\n" + b"x" * 131_073 + b",0\n",
             "id/label table line 3: field larger than field limit (131072)")):
        bad.write_bytes(path.read_bytes()[:start]
                        + len(block).to_bytes(8, "little") + block)
        with pytest.raises(ValueError) as info:
            read_feature_bin(bad)
        assert str(info.value) == f"{bad}: {message}"


def test_feature_bin_faults_name_the_path_in_bounded_memory(tmp_path):
    """Each truncation of a small file, a wrong version, a declared N x D
    of 2**31 x 2**31 and trailing bytes raise one ValueError starting
    with the path; no read allocates more than a few times the file's
    size beyond the 13 KB or less that opening, reading (8 KB for an
    empty file) and raising cost."""
    path = tmp_path / "features.vgfb"
    write_feature_bin(FeatureTable(["a", "b"], [0, 1], np.ones((2, 3))), path)
    data = path.read_bytes()
    assert len(data) == 65 and read_feature_bin(path).ids == ["a", "b"]
    cases = [(data[:cut], "") for cut in range(len(data))] + [
        (data[:4] + (2).to_bytes(4, "little") + data[8:],
         "unsupported version 2"),
        (data[:8] + (2**31).to_bytes(4, "little") * 2 + data[16:],
         "truncated payload"),
        (data + b"garbage\n", "8 bytes after the id/label table")]
    bad = tmp_path / "bad.vgfb"
    for case, message in cases:
        bad.write_bytes(case)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as info:
                read_feature_bin(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value).startswith(f"{bad}: {message}"), len(case)
        assert peak < 4 * len(case) + 16384, (len(case), peak)


@pytest.mark.filterwarnings("error")
def test_feature_bin_refuses_values_beyond_float32(tmp_path):
    big = float(np.finfo(np.float32).max)
    table = small_table()
    table.matrix[1, 0] = -big  # float32's own extremes are written
    path = tmp_path / "features.vgfb"
    write_feature_bin(table, path)
    assert read_feature_bin(path).matrix[1, 0] == -big
    for value in (1e39, -3.5e38):
        table.matrix[2, 3] = value
        path = tmp_path / "beyond.vgfb"
        with pytest.raises(ValueError) as info:
            write_feature_bin(table, path)
        assert str(info.value) == "row 'item2': feature value beyond float32 range"
        assert not path.exists()


@pytest.mark.parametrize("rid", ["a,b", '"a', 'a"b', "a\nb", "a\rb"])
def test_feature_bin_refuses_ids_the_id_label_table_cannot_hold(tmp_path, rid):
    table = FeatureTable(["ok", rid], [0, 1], np.zeros((2, 3)))
    path = tmp_path / "features.vgfb"
    with pytest.raises(ValueError) as info:
        write_feature_bin(table, path)
    assert str(info.value) == f"id {rid!r} holds a comma, a quote or a line end"
    assert not path.exists()
    # spaces and other scripts need no quoting, and round-trip
    table = FeatureTable(["s 1", "\u00e9t\u00e9"], [0, 1], np.zeros((2, 3)))
    write_feature_bin(table, path)
    assert read_feature_bin(path).ids == table.ids


@pytest.mark.parametrize("rid", ["a,b", '"a', 'a"b', "a\nb", "a\rb"])
def test_feature_csv_refuses_ids_a_record_cannot_hold(tmp_path, rid):
    table = FeatureTable(["ok", rid], [0, 1], np.zeros((2, 3)))
    path = tmp_path / "features.csv"
    with pytest.raises(ValueError) as info:
        write_feature_csv(table, path)
    assert str(info.value) == f"id {rid!r} holds a comma, a quote or a line end"
    assert not path.exists()


# valid files that csv reads with its line ends, quoting and blank rows
LABEL_CSVS = {
    "crlf": "sequence_id,taxon_id\r\ns1,0\r\ns2,3\r\n",
    "lone-cr": "sequence_id,taxon_id\rs1,0\rs2,3\r",
    "quoted": 'sequence_id,taxon_id\n"s1",0\n"s,2","3"\n"a""b", 7\n',
    "blank-lines": "sequence_id,taxon_id\n\ns1,0\n\n\r\n\ns2,1\n\n",
    "no-final-newline": "sequence_id,taxon_id\ns1,0\ns2,1",
}
COUNT_CSVS = {
    "tally-crlf": "id,taxon_id\r\na,0\r\nb,0\r\nc,5\r\n",
    "tally-lone-cr": "sequence_id,label\ra,0\rb,2\rc,2\r",
    "direct-quoted": ('taxon_id,name,train_count\n0,"alpha, beta",500\n'
                      '"2","ga""mma","10"\n'),
    "direct-blank-lines": "Taxon_ID,count\n\n0,5\n\n\r\n1,7\n\n",
    "direct-no-final-newline": "taxon_id,train_count\r\n3,1\r\n9,0",
}


@pytest.mark.parametrize("load, oracle, text", [
    *(pytest.param(load_labels_csv, labels_csv_oracle, text, id=f"labels-{name}")
      for name, text in sorted(LABEL_CSVS.items())),
    *(pytest.param(load_label_counts, label_counts_oracle, text,
                   id=f"counts-{name}")
      for name, text in sorted(COUNT_CSVS.items())),
])
def test_labels_and_counts_readers_equal_the_csv_module_oracles(
        tmp_path, load, oracle, text):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert list(load(path).items()) == list(oracle(path).items())


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


def _same_as_oracle(path):
    """load_feature_csv(path) and feature_csv_oracle(path) agree: the
    same ids, labels and matrix bytes, or the same ValueError message.
    The oracle's own errors for bytes that are not UTF-8 and for csv's
    field limit name neither the path nor the line; there the reader's
    one ValueError must carry them.  Returns the table, or None."""
    try:
        want = feature_csv_oracle(path)
    except (ValueError, csv.Error) as exc:
        with pytest.raises(ValueError) as info:
            load_feature_csv(path)
        if isinstance(exc, UnicodeDecodeError):
            assert re.fullmatch(f"{re.escape(str(path))}: line [0-9]+:"
                                " not UTF-8 text", str(info.value))
        elif isinstance(exc, csv.Error):
            assert re.fullmatch(f"{re.escape(str(path))}: line [0-9]+:"
                                f" {re.escape(str(exc))}", str(info.value))
        else:
            assert str(info.value) == str(exc)
        return None
    got = load_feature_csv(path)
    assert got.ids == want.ids
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.matrix.tobytes() == want.matrix.tobytes()
    return got


@pytest.mark.parametrize("name", sorted(PLAIN_CSVS))
def test_feature_csv_streamed_pass_equals_row_parser(tmp_path, name):
    path = tmp_path / "features.csv"
    path.write_text(PLAIN_CSVS[name], encoding="utf-8", newline="")
    assert _same_as_oracle(path) is not None


# files that a split at commas would read otherwise than csv does, or
# whose faults compete for the one error
EDGE_CSVS = {
    "lone-cr-in-id": "id,label,f0\na\rb,0,1.0\n",
    "cr-cr-lf": "id,label,f0\na,0,1.0\r\r\nb,1,2.0\n",
    "header-cr-cr-lf": "id,label,f0\r\r\na,0,1.0\n",
    "cr-only": "id,label,f0\ra,0,1.0\rb,1,2.0",
    "quoted-header": '"id",label,f0\na,0,1.0\n',
    "quoted-bad-header": '"id",label,"f1"\na,0,1.0\n',
    "integer-minus-zero": "id,label,f0\na,0,-0\nb,1,1e-0\nc,2,-0.0\n",
    # nan on line 2, a short row on line 4: the first fault wins
    "two-faults": "id,label,f0,f1\na,0,nan,1.0\nb,1,1.0,2.0\nc,2,1.0\n",
    "short-row-bad-label": "id,label,f0,f1\na,0,1.0,2.0\nb,x,1.0\n",
    "negative-label-and-text": "id,label,f0,f1\na,-1,1.0,abc\n",
    "text-and-inf": "id,label,f0,f1\na,0,abc,inf\n",
    "empty-id": "id,label,f0\n,0,1.0\n",
    "nul-in-id": "id,label,f0\na\0b,0,1.0\n",
    "quote-inside-field": 'id,label,f0\na"b,0,1.0\n',
    "doubled-quote": 'id,label,f0\n"a""b",0,"1.5"\n',
    "blank-records-only": "id,label,f0\n\n\n",
    "blank-first-line": "\nid,label,f0\na,0,1.0\n",
    "no-feature-columns": "id,label\na,0\n",
}


@pytest.mark.parametrize("text", [
    *(pytest.param(text, id=name)
      for name, (text, _) in sorted(BAD_FEATURE_CSVS.items())),
    *(pytest.param(text, id=name) for name, text in sorted(EDGE_CSVS.items())),
])
def test_feature_csv_agrees_with_the_row_parser(tmp_path, text):
    path = tmp_path / "features.csv"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    _same_as_oracle(path)


def test_feature_csv_streamed_pass_equals_row_parser_at_width(tmp_path):
    rng = np.random.default_rng(12)
    table = FeatureTable([f"s {i}" for i in range(40)],
                         rng.integers(0, 9, size=40),
                         rng.normal(size=(40, 300))
                         * np.exp2(rng.integers(-60, 60, size=(40, 300))))
    path = tmp_path / "features.csv"
    write_feature_csv(table, path)
    fast = load_feature_csv(path)
    assert fast.ids == table.ids
    assert fast.labels.tobytes() == table.labels.tobytes()
    assert fast.matrix.tobytes() == table.matrix.tobytes()


def _spy_on_open(monkeypatch):
    """The paths dataio opens from now on, in order."""
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(path)
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(dataio, "open", spy, raising=False)
    return opened


@pytest.mark.parametrize("text, ids, values", [
    pytest.param('id,label,f0\n"a,b",0,1.0\n"c",1,"2.5"\n', ["a,b", "c"],
                 [1.0, 2.5], id="quoted-fields"),
    pytest.param('id,label,f0\n"a",0,1.0\nb,1,2.5\n', ["a", "b"], [1.0, 2.5],
                 id="quoted-id"),
    pytest.param("id,label,f0\r\na,0,1.0\r\nb,1,2.5\r\n", ["a", "b"],
                 [1.0, 2.5], id="crlf"),
    # float() reads digit separators and other scripts' digits, orjson not
    pytest.param("id,label,f0\na,0,1_0\nb,1,2.5\n", ["a", "b"], [10.0, 2.5],
                 id="digit-separator"),
    pytest.param("id,label,f0\na,0,\u0661.5\nb,1,2.5\n", ["a", "b"],
                 [1.5, 2.5], id="arabic-indic-digit"),
])
def test_valid_csv_that_csv_reads_differently_loads_in_one_pass(
        tmp_path, monkeypatch, text, ids, values):
    path = tmp_path / "features.csv"
    path.write_text(text, encoding="utf-8", newline="")
    opened = _spy_on_open(monkeypatch)
    table = load_feature_csv(path)
    assert opened == [path]
    assert table.ids == ids
    assert table.matrix.ravel().tolist() == values
    assert _same_as_oracle(path) is not None


def test_malformed_wide_csv_is_opened_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(17)
    dim = 2048
    path = tmp_path / "features.csv"
    write_feature_csv(FeatureTable([f"img{i}" for i in range(20)],
                                   np.arange(20), rng.normal(size=(20, dim))),
                      path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("last,0," + ",".join(["0.5"] * (dim - 1)) + "\n")
    opened = _spy_on_open(monkeypatch)
    with pytest.raises(ValueError) as info:
        load_feature_csv(path)
    assert str(info.value) == (f"{path}: line 22: expected {dim + 2} fields,"
                               f" got {dim + 1}")
    assert opened == [path]


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
    table, peak = _load_traced(load_feature_csv, path)
    assert table.matrix.shape == (1, 512)
    assert peak < 5 * path.stat().st_size


@pytest.mark.parametrize("row", [
    "a,0,1",          # orjson reads one value
    "a,0, 1",         # float() reads one value
    "a,0,1,2,3",      # orjson reads three
    "a,0,1,2, 3",     # float() reads three
])
def test_rows_of_the_wrong_width_are_declined_not_broadcast(tmp_path, row):
    path = tmp_path / "features.csv"
    path.write_text(f"id,label,f0,f1\nok,1,0.5,0.25\n{row}\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="line 3: expected 4 fields"):
        load_feature_csv(path)
