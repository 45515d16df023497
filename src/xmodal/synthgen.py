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
     sequences' SGT embeddings, built by sgt.anchor_table;
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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio
from .dataio import FeatureTable, JsonConfig, SequenceRecord
from .seeds import derive_seed
from .sgt import BASES, anchor_table, genetic_table

TEST_FRACTION = 0.2
# doubles drawn between passes that scale and shift the drawn rows (1 MB)
_NOISE_CHUNK = 1 << 17


@dataclass
class SynthSpec(JsonConfig):
    noun = "synth spec"
    limits = {"genera": (">= 1",), "species_per_genus": (">= 1",),
              "head": (">= 1",), "tail": (">= 1",), "ratio": ("> 0", "<= 1"),
              "dim": (">= 1",), "sigma_v": (">= 0",),
              "seq_len": (">= 4",),  # at least two bigrams
              "mu_genus": (">= 0", "<= 1"), "mu_species": (">= 0", "<= 1"),
              "mu_individual": (">= 0", "<= 1"), "seqs_per_species": (">= 1",),
              "map_scale": ("> 0",), "sigma_map": (">= 0",), "kappa": ("> 0",)}

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

    @property
    def n_classes(self):
        return self.genera * self.species_per_genus


@dataclass
class SynthData:
    spec: SynthSpec
    records: list
    seq_labels: dict
    genetic: FeatureTable  # each record's SGT embedding, labelled by taxon
    anchors: FeatureTable  # sgt.anchor_table of genetic, one row per taxon
    visual_means: np.ndarray
    map_matrix: np.ndarray
    counts: np.ndarray
    train_table: FeatureTable
    test_table: FeatureTable
    manifest: dict


def _mutate(seq, rate, rng):
    """iid per-base mutation, always to a different base.

    Draw order is fixed (mask for all positions, then offsets for all
    positions) so the stream stays aligned whatever the rate.
    """
    mask = rng.random(seq.size) < rate
    offsets = rng.integers(1, 4, size=seq.size)
    return np.where(mask, (seq + offsets) % 4, seq)


# base index -> its letter's byte
_BASE_BYTES = np.frombuffer(BASES.encode(), dtype=np.uint8)


def _to_string(seq):
    return _BASE_BYTES[seq].tobytes().decode()


def class_counts(spec):
    """Geometric long-tail profile, non-increasing, floored at `tail`."""
    return np.array([
        max(spec.tail, int(round(spec.head * spec.ratio ** j)))
        for j in range(spec.n_classes)
    ], dtype=np.int64)


def generate(spec):
    """Build the full dataset; see the module docstring for the recipe.
    The split is drawn first (its stream is independent), so each visual
    sample is drawn straight into its row of the train or test matrix:
    those two tables are the only full-size arrays built, and no noise
    block is held beside them."""
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
    genetic = genetic_table(records, seq_labels, spec.kappa)
    anchors = anchor_table(genetic)  # row t: taxon t's genetic anchor

    # entry scale map_scale/sqrt(256) puts feature norms in the range of
    # typical backbone descriptors, which the pinned learning rate expects
    rng_map = np.random.default_rng(derive_seed(spec.seed, "map"))
    map_matrix = rng_map.normal(0.0, spec.map_scale / np.sqrt(256.0),
                                size=(spec.dim, 256))
    visual_means = anchors.matrix @ map_matrix.T
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

    # each side's positions are sorted, so a run of consecutive samples bound
    # for one side fills consecutive rows of that side's matrix: each run is
    # drawn straight into its rows, and every chunk's rows are scaled and
    # shifted while still in cache.  sigma*z + mean equals normal()'s
    # (0 + sigma*z) + mean bit for bit unless a mean coordinate is -0.0
    rng_visual = np.random.default_rng(derive_seed(spec.seed, "visual"))
    sizes = [[len(p[side]) for p in parts] for side in (0, 1)]
    mats = [np.empty((sum(s), spec.dim)) for s in sizes]  # train, test
    ids = ([], [])
    filled = [0, 0]  # rows drawn so far, per side
    chunk = max(1, _NOISE_CHUNK // spec.dim)  # rows drawn between passes
    for taxon, positions in enumerate(parts):
        n = int(counts[taxon])
        to_test = np.zeros(n, dtype=bool)
        to_test[positions[1]] = True
        # a piece of samples ends at every side change, every chunk's end
        # and the taxon's last sample
        is_last = np.ones(n, dtype=bool)
        np.not_equal(to_test[1:], to_test[:-1], out=is_last[:-1])
        is_last[chunk - 1::chunk] = True
        last = np.flatnonzero(is_last)  # each piece's last sample
        ends = (last + 1).tolist()
        done = filled[:]  # rows of this taxon already scaled and shifted
        for a, b, side in zip([0] + ends[:-1], ends, to_test[last].tolist()):
            lo = filled[side]
            filled[side] = lo + b - a
            rng_visual.standard_normal(out=mats[side][lo:filled[side]])
            if b % chunk == 0 or b == n:
                for s in (0, 1):
                    rows = mats[s][done[s]:filled[s]]
                    rows *= spec.sigma_v
                    rows += visual_means[taxon]
                    done[s] = filled[s]
        for side in (0, 1):
            ids[side].extend(f"img{taxon:02d}_{i:04d}"
                             for i in positions[side].tolist())
    train_table, test_table = (
        FeatureTable(ids[s], np.repeat(np.arange(c), sizes[s]), mats[s])
        for s in (0, 1))

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
                     map_matrix, counts, train_table, test_table, manifest)


def write_outputs(data, outdir):
    """Write sequences.fa, labels.csv, train.csv, test.csv, split.json,
    truth.json into `outdir` (which must exist)."""
    out = Path(outdir)
    dataio.write_fasta(data.records, out / "sequences.fa")
    dataio.write_labels_csv(data.seq_labels, out / "labels.csv")
    dataio.write_feature_csv(data.train_table, out / "train.csv")
    dataio.write_feature_csv(data.test_table, out / "test.csv")
    split = {"train": data.train_table.ids, "test": data.test_table.ids}
    dataio.write_json(split, out / "split.json")
    dataio.write_json(data.manifest, out / "truth.json")
