"""Independent reference implementations the tests compare against.

Everything here is written for obviousness, not speed: the SGT oracle
is the literal all-pairs double loop, the KNN oracle scans every
gallery item per query with plain Python, the triplet sampler rescans
the labels for every draw, the SGD update builds each new field whole,
and gradients come from central finite differences.  None of it
imports the production code paths it checks.
"""

import math

import numpy as np


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
