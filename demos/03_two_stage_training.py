"""Train the head in two stages on a small long-tailed dataset.

Stage one fits the head with the mixed softmax + reciprocal triplet
objective.  With balancing on, every step applies weight decay and then
caps each classifier row norm at maxnorm_delta, so frequent classes
cannot hoard norm.  Stage two freezes the classifier and pulls the
embedding space toward the per-taxon genetic anchors with a cosine
triplet loss.  The script prints what each stage changes.

Run:  python3 demos/03_two_stage_training.py
"""

import numpy as np

from xmodal import evalkit, sgt, synthgen, trainer


def main():
    spec = synthgen.SynthSpec(genera=2, species_per_genus=3, head=150,
                              tail=8, dim=16, seq_len=80,
                              seqs_per_species=6, seed=1)
    data = synthgen.generate(spec)
    counts = data.counts
    train_counts = np.bincount(data.train_table.labels,
                               minlength=spec.n_classes)
    print(f"dataset: {spec.n_classes} classes, train sizes {counts.tolist()}")
    print(f"         {len(data.records)} rDNA sequences, visual dim {spec.dim}\n")

    # generate builds the anchors with sgt.anchor_table; align_stage2
    # takes them as a {taxon: vector} dict
    anchors = sgt.anchors_by_taxon(data.anchors)

    config = trainer.TrainConfig(d_in=spec.dim, seed=1, ltr_enabled=True)
    params, history = trainer.train_stage1(
        config, data.train_table.matrix, data.train_table.labels)

    print("stage 1 (balanced): softmax + rtl, weight decay, row-norm cap")
    first, last = history.entries[0], history.entries[-1]
    print(f"  epochs recorded: {len(history.entries)}")
    print(f"  mean loss first -> last: {first['mean_loss']:.4f}"
          f" -> {last['mean_loss']:.4f}")
    order = np.argsort(-counts)
    norms = np.linalg.norm(params.Wc, axis=1)[order]
    print(f"  classifier row norms, most to least frequent class:")
    print(f"    {np.round(norms, 3)}")
    print(f"  cap delta = {config.maxnorm_delta}, so frequent rows grow"
          f" toward the cap and stop\n")

    # measure anchor agreement before and after alignment
    def centroid_cos(p):
        table = evalkit.embed_features(p, data.train_table)
        mean_cos, _ = evalkit.anchor_centroid_cosines(table, anchors)
        return mean_cos

    # the tail-recall payoff compares against the stage-1 head, which
    # align_stage2 trains in place: read what is needed of it first
    def tail_recall(p):
        gal = evalkit.embed_features(p, data.train_table)
        qry = evalkit.embed_features(p, data.test_table)
        preds = evalkit.knn_predict(gal, qry, k=5)
        report = evalkit.compute_metrics(preds, qry.labels, train_counts)
        return report.macro, report.tail

    before = centroid_cos(params)
    macro1, tail1 = tail_recall(params)
    stage1_Wc = params.Wc.copy()
    aligned, hist2 = trainer.align_stage2(
        config, params, anchors, data.train_table.matrix,
        data.train_table.labels)
    after = centroid_cos(aligned)

    print("stage 2 (alignment): cosine triplets against genetic anchors")
    print(f"  epochs recorded: {len(hist2.entries)}")
    print(f"  classifier untouched: {np.array_equal(aligned.Wc, stage1_Wc)}")
    print(f"  mean cos(class centroid, its anchor): {before:.4f} -> {after:.4f}\n")

    # the payoff: tail recall with and without the second stage
    macro2, tail2 = tail_recall(aligned)
    print("cosine KNN on the held-out split (k = 5):")
    print(f"  stage 1 only:    macro {macro1:.3f}  tail {tail1:.3f}")
    print(f"  after alignment: macro {macro2:.3f}  tail {tail2:.3f}")


if __name__ == "__main__":
    main()
