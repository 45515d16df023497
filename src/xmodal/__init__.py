"""Cross-modal metric learning for visual and genetic features.

The package embeds rDNA sequences into a fixed 256-dimensional space,
trains a small projection head on precomputed visual features with a
balance-aware loss, aligns the visual space to per-taxon genetic
anchors, and evaluates with a cosine nearest-neighbour classifier.
"""

__version__ = "0.1.0"

from .dataio import (
    FeatureTable,
    SequenceRecord,
    load_feature_csv,
    parse_fasta,
    read_feature_bin,
    write_feature_bin,
    write_feature_csv,
)
from .sgt import BIGRAM_ALPHABET, sgt_embed, tokenize_bigrams

__all__ = [
    "BIGRAM_ALPHABET",
    "FeatureTable",
    "SequenceRecord",
    "load_feature_csv",
    "parse_fasta",
    "read_feature_bin",
    "sgt_embed",
    "tokenize_bigrams",
    "write_feature_bin",
    "write_feature_csv",
]
