"""Synthetic long-tailed visual-genetic datasets.

The generator builds a small taxonomy whose genetics and visuals are
correlated by construction, so the cross-modal transfer the library
implements has a real signal to find:

  1. a root base sequence is drawn uniformly; genus masters mutate it
     at rate mu_genus, species masters mutate their genus master at
     mu_species, and each species' individual sequences mutate the
     species master at mu_individual (iid per base, always to a
     different base);
  2. each species gets a genetic anchor, the median of its individual
     sequences' SGT embeddings;
  3. one fixed random linear map M sends anchors into visual space;
     a species' visual class mean is M @ anchor plus per-coordinate
     map noise sigma_map;
  4. class j receives max(tail, round(head * r**j)) visual samples,
     the geometric long-tail profile; each sample is the class mean
     plus isotropic noise sigma_v;
  5. an 80/20 per-class split with at least one test item per class.

Because sister species share most of their sequence, their anchors sit
close and so do their visual means: nearby taxa look alike, the premise
the alignment stage exploits.

All randomness comes from per-purpose generators derived from the one
spec seed (streams: root, genus, species, individual, map, visual,
split), so the same spec yields byte-identical output files.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from .dataio import FeatureTable, SequenceRecord, SplitSpec, check_field_types
from .seeds import derive_seed
from .sgt import BASES, anchors_from_table, embed_sequences

TEST_FRACTION = 0.2


@dataclass
class SynthSpec:
    genera: int = 4
    species_per_genus: int = 4
    head: int = 500
    tail: int = 10
    ratio: float = 0.7
    dim: int = 64
    sigma_v: float = 1.14
    seq_len: int = 100
    mu_genus: float = 0.30
    mu_species: float = 0.10
    mu_individual: float = 0.01
    seqs_per_species: int = 8
    map_scale: float = 16.0
    sigma_map: float = 0.05
    kappa: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for name in ("genera", "species_per_genus", "head", "tail",
                     "seqs_per_species", "dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("mu_genus", "mu_species", "mu_individual"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")
        for name in ("sigma_v", "sigma_map"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not self.map_scale > 0:
            raise ValueError("map_scale must be positive")
        if self.seq_len < 4:
            raise ValueError("seq_len must be >= 4 (at least two bigrams)")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")

    @property
    def n_classes(self):
        return self.genera * self.species_per_genus

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, obj):
        known = set(cls.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown synth spec fields: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class SynthData:
    spec: SynthSpec
    records: list
    seq_labels: dict
    genetic: FeatureTable  # each record's SGT embedding, labelled by taxon
    anchors: np.ndarray
    visual_means: np.ndarray
    map_matrix: np.ndarray
    counts: np.ndarray
    train_table: FeatureTable
    test_table: FeatureTable
    split: SplitSpec
    manifest: dict


def _mutate(seq, rate, rng):
    """iid per-base mutation, always to a different base.

    Draw order is fixed (mask for all positions, then offsets for all
    positions) so the stream stays aligned whatever the rate.
    """
    mask = rng.random(seq.size) < rate
    offsets = rng.integers(1, 4, size=seq.size)
    return np.where(mask, (seq + offsets) % 4, seq)


def _to_string(seq):
    return "".join(BASES[b] for b in seq)


def class_counts(spec):
    """Geometric long-tail profile, non-increasing, floored at `tail`."""
    return np.array([
        max(spec.tail, int(round(spec.head * spec.ratio ** j)))
        for j in range(spec.n_classes)
    ], dtype=np.int64)


def generate(spec):
    """Build the full dataset; see the module docstring for the recipe.
    The split is drawn first (its stream is independent), so each taxon's
    visual samples go straight into the train and test matrices, which
    are the only full-size arrays built."""
    c = spec.n_classes
    counts = class_counts(spec)

    rng_root = np.random.default_rng(derive_seed(spec.seed, "root"))
    root = rng_root.integers(0, 4, size=spec.seq_len)

    rng_genus = np.random.default_rng(derive_seed(spec.seed, "genus"))
    genus_masters = [_mutate(root, spec.mu_genus, rng_genus)
                     for _ in range(spec.genera)]

    # taxon t belongs to genus t % genera: sample counts fall geometrically
    # with t, so every genus spans the head-to-tail range and rare species
    # get common sisters, as in real surveys
    rng_species = np.random.default_rng(derive_seed(spec.seed, "species"))
    species_masters = [
        _mutate(genus_masters[t % spec.genera], spec.mu_species, rng_species)
        for t in range(c)
    ]

    rng_ind = np.random.default_rng(derive_seed(spec.seed, "individual"))
    records, seq_labels = [], {}
    for taxon in range(c):
        for i in range(spec.seqs_per_species):
            seq = _mutate(species_masters[taxon], spec.mu_individual, rng_ind)
            rec = SequenceRecord(f"seq{taxon:02d}_{i:02d}", _to_string(seq))
            records.append(rec)
            seq_labels[rec.id] = taxon
    ids, matrix = embed_sequences(records, spec.kappa)
    genetic = FeatureTable(ids, [seq_labels[i] for i in ids], matrix)
    # row t: taxon t's genetic anchor
    anchors = np.array([a.vector for a in anchors_from_table(
        genetic.ids, genetic.matrix, genetic.labels)])

    # entry scale map_scale/sqrt(256) puts feature norms in the range of
    # typical backbone descriptors, which the pinned learning rate expects
    rng_map = np.random.default_rng(derive_seed(spec.seed, "map"))
    map_matrix = rng_map.normal(0.0, spec.map_scale / np.sqrt(256.0),
                                size=(spec.dim, 256))
    visual_means = anchors @ map_matrix.T
    visual_means += rng_map.normal(0.0, spec.sigma_map, size=(c, spec.dim))

    rng_split = np.random.default_rng(derive_seed(spec.seed, "split"))
    parts = []  # per taxon: sorted train positions, sorted test positions
    for taxon in range(c):
        n = int(counts[taxon])
        n_test = max(1, int(round(TEST_FRACTION * n)))
        if n - n_test < 1:
            raise ValueError(
                f"class {taxon} would get {n - n_test} train samples;"
                " increase tail or head"
            )
        perm = rng_split.permutation(n)
        parts.append((np.sort(perm[n_test:]), np.sort(perm[:n_test])))

    rng_visual = np.random.default_rng(derive_seed(spec.seed, "visual"))
    sides = []  # (ids, labels, matrix) of the train table, then the test one
    for side in (0, 1):
        sizes = [len(p[side]) for p in parts]
        sides.append(([], np.repeat(np.arange(c), sizes),
                      np.empty((sum(sizes), spec.dim))))
    for taxon, positions in enumerate(parts):
        noise = rng_visual.normal(0.0, spec.sigma_v,
                                  size=(counts[taxon], spec.dim))
        noise += visual_means[taxon]
        for local, (ids, _, matrix) in zip(positions, sides):
            np.take(noise, local, axis=0,
                    out=matrix[len(ids):len(ids) + len(local)])
            ids.extend(f"img{taxon:02d}_{i:04d}" for i in local)
    train_table, test_table = (FeatureTable(*side) for side in sides)
    split = SplitSpec(train_table.ids, test_table.ids)

    train_counts = np.bincount(train_table.labels, minlength=c)
    test_counts = np.bincount(test_table.labels, minlength=c)
    manifest = {
        "spec": spec.to_dict(),
        "n_classes": c,
        "classes": [
            {
                "taxon": t,
                "genus": t % spec.genera,
                "n_total": int(counts[t]),
                "n_train": int(train_counts[t]),
                "n_test": int(test_counts[t]),
            }
            for t in range(c)
        ],
    }
    return SynthData(spec, records, seq_labels, genetic, anchors, visual_means,
                     map_matrix, counts, train_table, test_table, split,
                     manifest)


def write_outputs(data, outdir):
    """Write sequences.fa, labels.csv, train.csv, test.csv, split.json,
    truth.json into `outdir` (which must exist)."""
    from pathlib import Path

    from . import dataio

    out = Path(outdir)
    dataio.write_fasta(data.records, out / "sequences.fa")
    dataio.write_labels_csv(data.seq_labels, out / "labels.csv")
    dataio.write_feature_csv(data.train_table, out / "train.csv")
    dataio.write_feature_csv(data.test_table, out / "test.csv")
    dataio.write_split(data.split, out / "split.json")
    with open(out / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(data.manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
