"""Embed a few rDNA-style sequences and compare their geometry.

The embedding walks every ordered pair of bigram tokens in a sequence
and accumulates exp(-kappa * gap) over the pair's occurrences, so each
of the 256 output entries says how often, and how closely, one bigram
follows another.  Related sequences share pair statistics and land
near each other under cosine similarity; unrelated ones do not.

Run:  python3 demos/01_sequence_embedding.py
"""

import numpy as np

from xmodal import sgt


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def mutate(seq, rate, rng):
    bases = "ACGT"
    out = []
    for ch in seq:
        if rng.random() < rate:
            out.append(bases[(bases.index(ch) + rng.integers(1, 4)) % 4])
        else:
            out.append(ch)
    return "".join(out)


def main():
    rng = np.random.default_rng(7)

    # one ancestral sequence, two light variants, one unrelated draw
    ancestor = "".join(rng.choice(list("ACGT"), size=120))
    sibling_a = mutate(ancestor, 0.03, rng)
    sibling_b = mutate(ancestor, 0.03, rng)
    stranger = "".join(rng.choice(list("ACGT"), size=120))

    print("tokenizing: non-overlapping bigrams, odd trailing base dropped")
    symbols = sgt.tokenize_bigrams(ancestor)
    print(f"  ancestor: {len(ancestor)} bases -> {len(symbols)} bigram symbols")
    print(f"  first six symbols: {symbols[:6]}")
    print(f"  alphabet size: {len(sgt.BIGRAM_ALPHABET)} (AA..TT)\n")

    vec = {}
    for name, seq in (("ancestor", ancestor), ("sibling_a", sibling_a),
                      ("sibling_b", sibling_b), ("stranger", stranger)):
        vec[name] = sgt.sgt_embed(sgt.tokenize_bigrams(seq), kappa=1.0)
        filled = int(np.count_nonzero(vec[name]))
        print(f"  {name:10s} embedded, {filled}/256 entries nonzero")

    print("\ncosine similarity against the ancestor (kappa = 1.0):")
    for name in ("sibling_a", "sibling_b", "stranger"):
        print(f"  {name:10s} {cosine(vec['ancestor'], vec[name]):.4f}")

    print("\nkappa controls how fast influence decays with the gap between")
    print("bigram occurrences; larger kappa keeps only near-adjacent pairs:")
    for kappa in (0.25, 1.0, 4.0):
        v = sgt.sgt_embed(symbols, kappa=kappa)
        sib = sgt.sgt_embed(sgt.tokenize_bigrams(sibling_a), kappa=kappa)
        far = sgt.sgt_embed(sgt.tokenize_bigrams(stranger), kappa=kappa)
        print(f"  kappa {kappa:4.2f}: cos(ancestor, sibling) {cosine(v, sib):.4f}"
              f"   cos(ancestor, stranger) {cosine(v, far):.4f}")

    # a taxon anchor is the per-entry median over that taxon's embeddings
    print("\nper-taxon anchors, median over five mutated copies each:")
    embs, labels, ids = [], [], []
    for taxon, base in ((0, ancestor), (1, stranger)):
        for i in range(5):
            seq = mutate(base, 0.04, rng)
            embs.append(sgt.sgt_embed(sgt.tokenize_bigrams(seq)))
            labels.append(taxon)
            ids.append(f"t{taxon}_{i}")
    a0, a1 = sgt.anchors_from_table(ids, np.array(embs), np.array(labels))
    print(f"  anchors for taxa {a0.taxon} and {a1.taxon}, each from"
          f" {labels.count(a0.taxon)} embeddings")
    print(f"  cos(anchor_0, ancestor embedding) {cosine(a0.vector, vec['ancestor']):.4f}")
    print(f"  cos(anchor_0, anchor_1)           {cosine(a0.vector, a1.vector):.4f}")


if __name__ == "__main__":
    main()
