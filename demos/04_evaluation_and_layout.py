"""Evaluate an embedding space and flatten it to 2-D for inspection.

Classification is cosine KNN: embed the training split as the gallery,
embed the held-out split as queries, take each query's k most cosine-
similar gallery rows, majority vote, break vote ties by the smaller
mean cosine distance.  The metrics report splits recall by training
frequency so long-tail damage is visible.  For pictures, the class
centroid distance matrix goes through a stress-minimizing 2-D layout.

Run:  python3 demos/04_evaluation_and_layout.py
"""

import numpy as np

from xmodal import evalkit, synthgen, trainer


def main():
    spec = synthgen.SynthSpec(genera=2, species_per_genus=3, head=150,
                              tail=8, dim=16, seq_len=80,
                              seqs_per_species=6, seed=4)
    data = synthgen.generate(spec)
    train_counts = np.bincount(data.train_table.labels,
                               minlength=spec.n_classes)

    config = trainer.TrainConfig(d_in=spec.dim, seed=4, ltr_enabled=True)
    params, _ = trainer.train_stage1(
        config, data.train_table.matrix, data.train_table.labels)

    gallery = evalkit.embed_features(params, data.train_table)
    queries = evalkit.embed_features(params, data.test_table)
    print(f"gallery {gallery.n} rows, queries {queries.n} rows,"
          f" embed dim {gallery.matrix.shape[1]}\n")

    for k in (1, 3, 5):
        preds = evalkit.knn_predict(gallery, queries, k=k)
        report = evalkit.compute_metrics(preds, queries.labels, train_counts,
                                         k=k)
        print(f"k = {k}: overall {report.overall:.3f}"
              f"  macro {report.macro:.3f}  tail {report.tail:.3f}")

    preds = evalkit.knn_predict(gallery, queries, k=5)
    report = evalkit.compute_metrics(preds, queries.labels, train_counts, k=5)
    print("\nper-class recall (train count in parentheses):")
    for cid, recall in zip(report.taxa, report.per_class):
        if recall is None:
            continue
        bucket = "tail" if train_counts[cid] < evalkit.TAIL_THRESHOLD else "    "
        print(f"  class {cid}: {recall:.3f}  ({train_counts[cid]:3d}) {bucket}")

    print("\nconfusion row for the rarest class (true -> predicted counts):")
    rare = int(np.argmin(train_counts))
    row = report.confusion[rare]
    print(f"  {dict((j, int(v)) for j, v in enumerate(row) if v)}")

    # press the centroid geometry into 2-D
    class_ids, dist = evalkit.centroid_distance_matrix(gallery)
    layout = evalkit.kamada_kawai_layout(dist, seed=0)
    print(f"\n2-D layout of class centroids (cosine distances, stress"
          f" {layout.stress:.2e}, {layout.n_iters} iterations):")
    for cid, (x, y) in zip(class_ids, layout.coords):
        genus = cid % spec.genera
        print(f"  class {cid} (genus {genus}): ({x:+.3f}, {y:+.3f})")

    print("\nsame-genus centroids should sit closer than cross-genus ones:")
    same, cross = [], []
    for i in range(len(class_ids)):
        for j in range(i + 1, len(class_ids)):
            gap = float(np.linalg.norm(layout.coords[i] - layout.coords[j]))
            if class_ids[i] % spec.genera == class_ids[j] % spec.genera:
                same.append(gap)
            else:
                cross.append(gap)
    print(f"  mean same-genus gap  {np.mean(same):.3f}")
    print(f"  mean cross-genus gap {np.mean(cross):.3f}")


if __name__ == "__main__":
    main()
