"""Independent reference implementations the tests compare against.

Everything here is written for obviousness, not speed: the SGT oracle
is the literal all-pairs double loop, and beside it the one-sequence
recurrence is the bit-level reference for the block recurrence; the
KNN oracle scans every gallery item per query with plain Python, the
triplet sampler rescans the labels for every draw, the SGD update
builds each new field whole, the synthetic tables are built from one
row list, feature, labels and counts CSVs are read by csv.reader (with
float() per feature value), feature CSVs are written by joining repr
text, and gradients come from central finite differences.  None of it
imports the production code paths it checks.
"""

import csv
import math
from collections import Counter

import numpy as np

from xmodal.dataio import FeatureTable
from xmodal.seeds import derive_seed


def sgt_oracle(symbols, kappa, alphabet):
    """All-pairs definition: W(u,v) = sum over l<m, s_l=u, s_m=v of
    exp(-kappa (m-l)); psi = W / count of u in positions 1..L-1."""
    index = {sym: i for i, sym in enumerate(alphabet)}
    v = len(alphabet)
    L = len(symbols)
    W = np.zeros((v, v))
    for l in range(L):
        for m in range(l + 1, L):
            W[index[symbols[l]], index[symbols[m]]] += math.exp(-kappa * (m - l))
    psi = np.zeros((v, v))
    for u in range(v):
        lam = sum(1 for l in range(L - 1) if index[symbols[l]] == u)
        if lam > 0:
            psi[u] = W[u] / lam
    return psi.reshape(-1)


def sgt_recurrence_oracle(symbols, kappa, alphabet):
    """The O(L * |V|) SGT recurrence for one sequence, a numpy step per
    symbol: the bit-level reference for the block recurrence that
    sgt.embed_sequences runs over many sequences at once."""
    index = {sym: i for i, sym in enumerate(alphabet)}
    seq = np.array([index[s] for s in symbols], dtype=np.intp)
    v = len(alphabet)
    decay = np.exp(-kappa)
    W = np.zeros((v, v))
    # reach[u] = sum of exp(-kappa*(m - l)) over earlier positions l with s_l = u,
    # evaluated at the current position m
    reach = np.zeros(v)
    for s in seq:
        W[:, s] += reach
        reach *= decay
        reach[s] += decay

    starts = np.bincount(seq[:-1], minlength=v).astype(np.float64)
    psi = np.divide(W, starts[:, None], out=np.zeros_like(W),
                    where=starts[:, None] > 0)
    return psi.reshape(-1)


def bigram_tokens_oracle(residues, alphabet):
    """Non-overlapping pairs at positions 1-2, 3-4, ... of `residues`,
    each kept only if it is a symbol of `alphabet`."""
    pairs = (residues[i:i + 2] for i in range(0, len(residues) - 1, 2))
    return [p for p in pairs if p in alphabet]


def knn_oracle(gallery_matrix, gallery_labels, query_matrix, k):
    """Exhaustive cosine KNN with the same tie conventions as production:
    neighbor order (-similarity, gallery index); vote ties to the class
    with smaller mean cosine distance among its in-k members, then to
    the smaller class id."""
    def unit(v):
        norm = math.sqrt(sum(x * x for x in v))
        return [x / norm for x in v]

    g_unit = [unit(row) for row in gallery_matrix.tolist()]
    preds = []
    for q in query_matrix.tolist():
        qn = unit(q)
        sims = [sum(a * b for a, b in zip(qn, g)) for g in g_unit]
        order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:k]
        votes = {}
        for i in order:
            votes.setdefault(int(gallery_labels[i]), []).append(sims[i])
        top = max(len(v) for v in votes.values())
        tied = [c for c, v in votes.items() if len(v) == top]
        if len(tied) > 1:
            def mean_dist(c):
                return sum(1.0 - s for s in votes[c]) / len(votes[c])
            tied.sort(key=lambda c: (mean_dist(c), c))
        preds.append(tied[0])
    return np.array(preds)


def sample_triplets_oracle(labels, batch_size, rng):
    """Triplet draws by rescanning the labels per triplet, in the
    production draw order: anchor uniform over items whose class has
    >= 2 samples, positive uniform over its classmates, negative uniform
    over every other item."""
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    eligible = np.flatnonzero(np.isin(labels, classes[counts >= 2]))
    triplets = []
    for _ in range(int(batch_size)):
        a = int(eligible[rng.integers(eligible.size)])
        same = np.flatnonzero(labels == labels[a])
        same = same[same != a]
        p = int(same[rng.integers(same.size)])
        diff = np.flatnonzero(labels != labels[a])
        n = int(diff[rng.integers(diff.size)])
        triplets.append((a, p, n))
    return triplets


def split_tables_oracle(spec, visual_means, counts, test_fraction=0.2):
    """The synthetic visual tables built the plain way: every sample of
    every taxon appended to one row list and stacked into a full matrix,
    then each taxon's permutation split into test and train ids, and the
    rows of each side copied out by id.  Same streams and draws as
    synthgen.generate.  Returns ((ids, labels, matrix) of train, same of
    test)."""
    rng_visual = np.random.default_rng(derive_seed(spec.seed, "visual"))
    ids, labels, rows = [], [], []
    for taxon in range(len(counts)):
        noise = rng_visual.normal(0.0, spec.sigma_v,
                                  size=(counts[taxon], spec.dim))
        for i in range(counts[taxon]):
            ids.append(f"img{taxon:02d}_{i:04d}")
            labels.append(taxon)
            rows.append(visual_means[taxon] + noise[i])
    full = np.array(rows)

    rng_split = np.random.default_rng(derive_seed(spec.seed, "split"))
    train_ids, test_ids, offset = [], [], 0
    for taxon in range(len(counts)):
        n = int(counts[taxon])
        n_test = max(1, int(round(test_fraction * n)))
        perm = rng_split.permutation(n)
        test_ids += [ids[offset + i] for i in sorted(int(i) for i in perm[:n_test])]
        train_ids += [ids[offset + i] for i in sorted(int(i) for i in perm[n_test:])]
        offset += n
    pos = {rid: i for i, rid in enumerate(ids)}
    sides = []
    for side_ids in (train_ids, test_ids):
        idx = [pos[r] for r in side_ids]
        sides.append((side_ids, np.array(labels)[idx], full[idx]))
    return tuple(sides)


def feature_csv_oracle(path):
    """A features.csv read record by record with csv.reader, each value
    by float(); every fault raises ValueError naming `path` and the line
    or row id."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty feature CSV") from None
        dim = len(header) - 2
        if dim < 1 or header != ["id", "label"] + [f"f{i}" for i in range(dim)]:
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
            if label > 2**63 - 1:
                raise ValueError(f"{path}: row {rid!r}: label {label} exceeds int64")
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


def feature_csv_writer_oracle(table, path):
    """Write values with repr, the shortest text that reads back to the
    same float64; one row at a time, so no copy of the matrix is held."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["id", "label"] + [f"f{i}" for i in range(table.dim)])
                 + "\n")
        for rid, label, row in zip(table.ids, table.labels.tolist(),
                                   table.matrix):
            fh.write(f"{rid},{label},{','.join(map(repr, row.tolist()))}\n")


def _check_int64_oracle(value, where, noun):
    if value < 0:
        raise ValueError(f"{where}: negative {noun} {value}")
    if value > 2**63 - 1:
        raise ValueError(f"{where}: {noun} {value} exceeds int64")
    return value


def labels_csv_oracle(path):
    """A sequence->taxon map read as the whole file's csv.reader rows
    (the reader that labels files had before the shared record reader);
    every fault raises ValueError naming `path`."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
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
                raise ValueError(f"{path}: line {lineno}: negative taxon id")
            _check_int64_oracle(taxon, f"{path}: line {lineno}", "taxon id")
            if sid in mapping:
                raise ValueError(f"{path}: duplicate sequence id {sid!r}")
            mapping[sid] = taxon
    if not mapping:
        raise ValueError(f"{path}: no label rows")
    return mapping


def label_counts_oracle(path):
    """Per-taxon counts read as the whole file's csv.reader rows (the
    reader that counts files had before the shared record reader): an
    id->taxon file tallied per taxon, or a taxon_id[,name],train_count
    table read directly."""
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
            _check_int64_oracle(taxon, where, "taxon id")
            if direct and taxon in counts:
                raise ValueError(f"{where}: second count for taxon {taxon}")
            counts[taxon] = _check_int64_oracle(count, where, "count")
    if not counts:
        raise ValueError(f"{path}: no count rows")
    return counts


def sgd_step_oracle(params, grads, lr, weight_decay,
                    weight_fields=("W1", "W2", "Wc")):
    """The out-of-place SGD update, one whole field at a time:
    {name: p - lr*(g + wd*p)} with wd = 0.0 off the weight matrices.
    `params` and `grads` map field names to arrays; inputs are kept."""
    out = {}
    for name, p in params.items():
        wd = weight_decay if name in weight_fields else 0.0
        out[name] = p - lr * (grads[name] + wd * p)
    return out


def finite_difference(f, x, step=1e-6):
    """Central-difference gradient of scalar f at 1-D point x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi) - f(lo)) / (2.0 * step)
    return grad


def relative_error(approx, exact):
    """max_i |a_i - e_i| / max(1, |e_i|), the gradient-check yardstick."""
    approx = np.asarray(approx, dtype=np.float64).reshape(-1)
    exact = np.asarray(exact, dtype=np.float64).reshape(-1)
    denom = np.maximum(1.0, np.abs(exact))
    return float(np.max(np.abs(approx - exact) / denom))
