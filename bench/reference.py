"""Reference computations the benchmark checks the program's outputs with.

Each is written from the documented definition and imports nothing from
xmodal, so a fault in a code path cannot hide in its own check:

  forward          the head's forward pass from checkpoint arrays
  knn              cosine KNN with the documented tie rules, flagging
                   queries whose decision rests on similarities within
                   float rounding of each other
  sgt              the all-pairs SGT definition, as one matrix product
  taxon_medians    per-taxon elementwise medians by sorting
  accuracies       overall, macro, tail and head accuracy from a
                   confusion matrix
  read_*           plain readers for the program's CSV, FASTA and
                   checkpoint files
"""

import csv
import json

import numpy as np

BASES = "ACGT"
BIGRAMS = [a + b for a in BASES for b in BASES]

# similarities closer than this are treated as tied under float rounding
ROUNDING = 1e-9


def forward(params, x):
    """Embeddings relu(x W1^T + b1) W2^T + b2 from a checkpoint's
    {name: array} parameters."""
    hidden = np.maximum(x @ params["W1"].T + params["b1"], 0.0)
    return hidden @ params["W2"].T + params["b2"]


def _unit_rows(m):
    return m / np.sqrt(np.einsum("ij,ij->i", m, m))[:, None]


def knn(gallery, gallery_labels, queries, k, chunk=512):
    """Cosine KNN -> (predictions, fragile mask, vote-tie mask).

    Neighbours are ordered by descending similarity, then gallery index.
    Among the k, the class with most votes wins; a vote tie goes to the
    class whose in-k members have the smaller mean cosine distance, then
    to the smaller class id.  A query is fragile when the k-th and
    (k+1)-th similarities, or the mean distances of the tied classes,
    lie within ROUNDING of each other: there another float evaluation
    order may legitimately decide otherwise.
    """
    gallery_labels = np.asarray(gallery_labels, dtype=np.int64)
    n = len(gallery_labels)
    if not 1 <= k < n:
        raise ValueError(f"k={k} needs a gallery larger than k, got {n}")
    n_classes = int(gallery_labels.max()) + 1
    g = _unit_rows(np.asarray(gallery, dtype=np.float64))
    q_all = _unit_rows(np.asarray(queries, dtype=np.float64))
    preds, fragile, tied = [], [], []
    for lo in range(0, len(q_all), chunk):
        sims = q_all[lo:lo + chunk] @ g.T
        rows = np.arange(len(sims))
        top = -np.partition(-sims, (k - 1, k), axis=1)[:, :k + 1]
        kth, after = top[:, k - 1], top[:, k]
        # every item at or above the k-th similarity, sorted by row, then
        # descending similarity, then gallery index; the first k per row
        # are the neighbours (more than k only when similarities tie)
        r, c = np.nonzero(sims >= kth[:, None])
        order = np.lexsort((c, -sims[r, c], r))
        r, c = r[order], c[order]
        starts = np.searchsorted(r, rows)
        pick = starts[:, None] + np.arange(k)
        neigh = c[pick]
        labels = gallery_labels[neigh]
        dist = 1.0 - sims[rows[:, None], neigh]
        votes = np.zeros((len(sims), n_classes), dtype=np.int64)
        dist_sum = np.zeros((len(sims), n_classes))
        np.add.at(votes, (rows[:, None], labels), 1)
        np.add.at(dist_sum, (rows[:, None], labels), dist)
        best = votes == votes.max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_dist = np.where(best, dist_sum / votes, np.inf)
        # argmin returns the first minimum, which is the smaller class id
        preds.append(np.argmin(mean_dist, axis=1))
        two = np.sort(mean_dist, axis=1)[:, :2]
        multi = best.sum(axis=1) > 1
        tied.append(multi)
        fragile.append((kth - after <= ROUNDING)
                       | (multi & (two[:, 1] - two[:, 0] <= ROUNDING)))
    return np.concatenate(preds), np.concatenate(fragile), np.concatenate(tied)


def sgt(residues, kappa=1.0):
    """Length-sensitive SGT of a base string over the 16 bigram tokens.

    Tokens are non-overlapping pairs at positions 1-2, 3-4, ...; a pair
    with a letter outside ACGT is dropped.  W(u, v) sums exp(-kappa
    (m - l)) over all index pairs l < m with s_l = u, s_m = v, written
    here as O^T D O with O the one-hot token matrix and D[l, m] the
    decay for l < m; psi(u, v) = W(u, v) / #{l < L : s_l = u}.
    """
    index = {t: i for i, t in enumerate(BIGRAMS)}
    tokens = [index[residues[i:i + 2]]
              for i in range(0, len(residues) - 1, 2)
              if residues[i:i + 2] in index]
    length = len(tokens)
    onehot = np.zeros((length, len(BIGRAMS)))
    onehot[np.arange(length), tokens] = 1.0
    gap = np.arange(length)[None, :] - np.arange(length)[:, None]
    decay = np.where(gap > 0, np.exp(-kappa * np.maximum(gap, 0)), 0.0)
    w = onehot.T @ decay @ onehot
    starts = onehot[:-1].sum(axis=0)
    psi = np.divide(w, starts[:, None], out=np.zeros_like(w),
                    where=starts[:, None] > 0)
    return psi.reshape(-1)


def taxon_medians(matrix, labels):
    """{taxon: elementwise median of its rows}; an even count takes the
    midpoint of the two middle values."""
    out = {}
    for taxon in np.unique(labels):
        rows = np.sort(matrix[labels == taxon], axis=0)
        n = len(rows)
        mid = n // 2
        out[int(taxon)] = rows[mid] if n % 2 else (rows[mid - 1] + rows[mid]) / 2
    return out


def accuracies(confusion, train_counts, tail_threshold, head_threshold):
    """(overall, macro, tail, head) from a confusion matrix (rows: truth).

    Class means run over classes with a test sample; tail classes have
    fewer than tail_threshold training samples, head classes more than
    head_threshold; an empty group gives None.
    """
    confusion = np.asarray(confusion)
    counts = np.asarray(train_counts)
    per_class = confusion.sum(axis=1)
    recall = {c: confusion[c, c] / per_class[c]
              for c in range(len(per_class)) if per_class[c] > 0}

    def mean(classes):
        vals = [recall[c] for c in classes]
        return sum(vals) / len(vals) if vals else None

    overall = np.trace(confusion) / confusion.sum()
    return (overall, mean(recall),
            mean(c for c in recall if counts[c] < tail_threshold),
            mean(c for c in recall if counts[c] > head_threshold))


def confusion(truth, predictions, n_classes):
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(truth, predictions):
        out[t, p] += 1
    return out


def read_feature_csv(path):
    """(ids, labels, matrix) from an ``id,label,f0,...`` CSV."""
    ids, labels, rows = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            ids.append(row[0])
            labels.append(int(row[1]))
            rows.append(np.array(row[2:], dtype=np.float64))
    return ids, np.array(labels, dtype=np.int64), np.array(rows)


def read_fasta(path):
    """{id: residues} for a FASTA file with one header token per record."""
    out, cur = {}, None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith(">"):
                cur = line[1:].split()[0]
                out[cur] = ""
            elif line:
                out[cur] += line.upper()
    return out


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
