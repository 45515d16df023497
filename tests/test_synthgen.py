"""Synthetic dataset generator tests: shape, taxonomy signal, determinism."""

import json
import tracemalloc

import numpy as np
import pytest

from xmodal import dataio, synthgen
from xmodal.sgt import sgt_embed, tokenize_bigrams
from xmodal.synthgen import SynthSpec, _mutate, class_counts, generate, write_outputs

from oracles import split_tables_oracle


def small_spec(**kw):
    base = dict(genera=2, species_per_genus=2, head=30, tail=5, dim=8,
                seq_len=40, seqs_per_species=4, seed=0)
    base.update(kw)
    return SynthSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError, match="genera"):
        SynthSpec(genera=0)
    with pytest.raises(ValueError, match="mu_genus"):
        SynthSpec(mu_genus=1.5)
    with pytest.raises(ValueError, match="ratio"):
        SynthSpec(ratio=0.0)
    with pytest.raises(ValueError, match="sigma_v"):
        SynthSpec(sigma_v=-1.0)
    with pytest.raises(ValueError, match="seq_len"):
        SynthSpec(seq_len=3)
    with pytest.raises(ValueError, match="map_scale"):
        SynthSpec(map_scale=0.0)
    with pytest.raises(ValueError, match="unknown"):
        SynthSpec.from_dict({"species": 4})


def test_spec_round_trip_and_n_classes():
    spec = small_spec(sigma_v=0.5)
    assert spec.n_classes == 4
    assert SynthSpec.from_dict(spec.to_dict()) == spec


def test_class_counts_profile():
    counts = class_counts(SynthSpec())
    assert counts[0] == 500
    assert counts.min() == 10
    assert len(counts) == 16
    assert np.all(np.diff(counts) <= 0)
    custom = class_counts(small_spec(head=100, tail=4, ratio=0.5))
    assert custom.tolist() == [100, 50, 25, 12]


def test_generate_shapes_and_labels():
    spec = small_spec()
    data = generate(spec)
    c = spec.n_classes
    assert len(data.records) == c * spec.seqs_per_species
    assert len({r.id for r in data.records}) == len(data.records)
    for rec in data.records:
        assert len(rec.residues) == spec.seq_len
        assert set(rec.residues) <= set("ACGT")
        assert 0 <= data.seq_labels[rec.id] < c
    # row t of the anchor matrix is the median of taxon t's SGT embeddings
    assert data.anchors.shape == (c, 256)
    for taxon in range(c):
        embs = [sgt_embed(tokenize_bigrams(r.residues), spec.kappa)
                for r in data.records if data.seq_labels[r.id] == taxon]
        assert len(embs) == spec.seqs_per_species
        assert np.array_equal(data.anchors[taxon], np.median(embs, axis=0))
    assert data.visual_means.shape == (c, spec.dim)
    assert data.map_matrix.shape == (spec.dim, 256)
    assert np.array_equal(data.counts, class_counts(spec))


def test_generate_split_is_per_class_and_disjoint():
    spec = small_spec()
    data = generate(spec)
    assert not set(data.train_table.ids) & set(data.test_table.ids)
    for taxon in range(spec.n_classes):
        n_train = int(np.sum(data.train_table.labels == taxon))
        n_test = int(np.sum(data.test_table.labels == taxon))
        assert n_train + n_test == data.counts[taxon]
        assert n_test >= 1 and n_train >= 1
    manifest_rows = data.manifest["classes"]
    for t, row in enumerate(manifest_rows):
        assert row["genus"] == t % spec.genera
        assert row["n_train"] + row["n_test"] == row["n_total"]


def test_generate_rejects_tiny_classes():
    with pytest.raises(ValueError, match="train samples"):
        generate(small_spec(head=2, tail=1))


def test_generate_is_deterministic():
    one = generate(small_spec(seed=5))
    two = generate(small_spec(seed=5))
    other = generate(small_spec(seed=6))
    assert one.train_table.matrix.tobytes() == two.train_table.matrix.tobytes()
    assert one.train_table.ids == two.train_table.ids
    assert [r.residues for r in one.records] == [r.residues for r in two.records]
    assert one.train_table.matrix.tobytes() != other.train_table.matrix.tobytes()


# the benchmark's paper-width spec (32 taxa, 2048-d), with short sequences
WIDE = dict(genera=4, species_per_genus=8, head=120, tail=10, ratio=0.9,
            dim=2048, seq_len=100, seqs_per_species=4)


# taxon 0's first and last samples both go to the test side
EDGES = SynthSpec(genera=2, species_per_genus=2, head=12, tail=6, dim=5,
                  seq_len=40, seqs_per_species=4, seed=8)


@pytest.mark.parametrize("spec, chunk_rows", [
    (SynthSpec(), None),
    (SynthSpec(seed=3, **WIDE), None),
    (SynthSpec(seed=4, sigma_v=0.0), None),
    (SynthSpec(seed=5, dim=1), None),
    (EDGES, None),
    # passes inside runs and on run ends
    (SynthSpec(seed=6, dim=3), 1),
    (SynthSpec(seed=6, dim=3), 3),
    (SynthSpec(seed=6, dim=3), 7),
    (EDGES, 7),
], ids=["default", "wide", "sigma0", "dim1", "edges", "chunk1", "chunk3",
        "chunk7", "edges-chunk7"])
def test_generate_tables_match_the_row_list_oracle(spec, chunk_rows,
                                                   monkeypatch):
    if chunk_rows is not None:
        monkeypatch.setattr(synthgen, "_NOISE_CHUNK", chunk_rows * spec.dim)
    data = generate(spec)
    want = split_tables_oracle(spec, data.visual_means, data.counts)
    for got, (ids, labels, matrix) in zip(
            (data.train_table, data.test_table), want):
        assert got.ids == ids
        assert got.labels.tolist() == labels.tolist()
        assert got.matrix.tobytes() == matrix.tobytes()


def test_edges_spec_sends_a_taxons_first_and_last_samples_to_test():
    data = generate(EDGES)
    last = int(data.counts[0]) - 1
    assert {"img00_0000", f"img00_{last:04d}"} <= set(data.test_table.ids)


def test_generate_holds_the_features_once():
    spec = SynthSpec(seed=1, **WIDE)
    generate(spec)  # warm imports and caches
    tracemalloc.start()
    try:
        data = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for a in (data.train_table.matrix,
                                      data.test_table.matrix,
                                      data.map_matrix, data.visual_means))
    # the returned arrays and small per-taxon bookkeeping: no noise block
    # and no N x D temporary of the table checks; a full table plus per-row
    # copies would be about 2.7x
    assert peak <= 1.05 * returned


def test_taxonomy_signal_in_sequences_and_anchors():
    spec = small_spec(seq_len=200)
    data = generate(spec)

    def agreement(r1, r2):
        return np.mean([a == b for a, b in zip(r1.residues, r2.residues)])

    by_taxon = {}
    for rec in data.records:
        by_taxon.setdefault(data.seq_labels[rec.id], []).append(rec)
    # same species nearly identical, different genus clearly diverged
    same = agreement(by_taxon[0][0], by_taxon[0][1])
    cross = agreement(by_taxon[0][0], by_taxon[1][0])  # taxa 0,1: different genus
    sister = agreement(by_taxon[0][0], by_taxon[2][0])  # taxa 0,2: same genus
    assert same > sister > cross

    vecs = data.anchors
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    cos = unit @ unit.T
    assert cos[0, 2] > cos[0, 1]  # sister anchors closer than cross-genus


def test_visual_means_follow_anchor_geometry():
    spec = small_spec(sigma_map=0.0, seq_len=200)
    data = generate(spec)
    assert np.allclose(data.visual_means, data.anchors @ data.map_matrix.T)


def test_mutate_rates_and_stream_alignment():
    rng = np.random.default_rng(0)
    seq = rng.integers(0, 4, size=100)
    same = _mutate(seq, 0.0, np.random.default_rng(1))
    assert np.array_equal(same, seq)
    flipped = _mutate(seq, 1.0, np.random.default_rng(1))
    assert np.all(flipped != seq)
    assert np.all((flipped >= 0) & (flipped <= 3))
    # the generator stream advances identically whatever the rate
    r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
    _mutate(seq, 0.0, r1)
    _mutate(seq, 1.0, r2)
    assert r1.integers(1 << 30) == r2.integers(1 << 30)


def test_write_outputs_round_trip(tmp_path):
    spec = small_spec()
    data = generate(spec)
    write_outputs(data, tmp_path)

    back = dataio.parse_fasta((tmp_path / "sequences.fa").read_text())
    assert back == data.records
    labels = dataio.load_labels_csv(tmp_path / "labels.csv")
    assert labels == data.seq_labels
    train = dataio.load_feature_csv(tmp_path / "train.csv")
    assert train.matrix.tobytes() == data.train_table.matrix.tobytes()
    assert train.ids == data.train_table.ids
    split = json.loads((tmp_path / "split.json").read_text())
    assert split == {"train": data.train_table.ids, "test": data.test_table.ids}
    manifest = json.loads((tmp_path / "truth.json").read_text())
    assert manifest == data.manifest
