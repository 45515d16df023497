"""File format round-trip and validation tests."""

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


PLAIN_CSVS = {
    "blank-lines": "id,label,f0,f1\n\na,0,1.5,-2e-300\n\n\nb,3,5e-324,1e308\n\n",
    "spaces-in-ids": ("id,label,f0,f1\nitem one,1, 0.5 ,+2\n lead,0,.5,5.\n"
                      "trail ,2,-0.0,1E5\n"),
    "one-column": "id,label,f0\nx,0,1.25\ny,1,-3\nz,1,7e-3",
    "label-spellings": "id,label,f0\np, 2,0.1\nq,+4,0.2\nr,1_0,0.3\n",
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
