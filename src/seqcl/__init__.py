"""Self-supervised frame-wise representations for long feature sequences.

Trains a small Transformer encoder on pairs of overlapping temporal views with
a contrastive loss whose target distribution is a Gaussian in the raw-timestamp
gap between frames, then evaluates the frozen embeddings with linear probes,
Kendall's tau, AP@K retrieval and DTW alignment.
"""

from .augment import AugmentConfig, build_view_pair
from .data import (
    DatasetSplit,
    SyntheticSpec,
    VideoRecord,
    generate_synthetic,
    load_features,
    save_features,
    split_train_test,
)
from .encoder import EncoderConfig, EncoderParams, forward, backward, init_params
from .errors import ConfigError, FormatError, NumericError, SeqclError
from .eval import EvalReport, ProbeConfig, evaluate
from .loss import SCLConfig, baseline_contrastive_loss, scl_loss
from .train import OptimConfig, TrainState, fit

__version__ = "0.1.0"
