"""caliblab: a desk-scale laboratory for calibrated uncertainty.

The package combines a small reverse-mode autodiff engine, three
deterministic uncertainty heads (evidential, spectral-normalized,
prototype-based), calibration-aware losses, a metric suite with reliability
diagrams, and a reproducible training harness with grid search, multi-seed
aggregation, and probability-averaging ensembles.
"""

from .autodiff import Tensor, constant, finite_diff_grad, gradients, parameter, softmax
from .config import (
    ConfigError,
    LoadedConfig,
    LossWeights,
    ModelSpec,
    OptimizerSpec,
    TrainingConfig,
    apply_override,
    config_digest,
    dump_config,
    load_config,
)
from .datasets import Dataset, DatasetSpec, augment, load_csv, make_dataset, save_csv
from .harness import (
    AggregateReport,
    Classifier,
    GridResult,
    RunResult,
    TrainingError,
    ensemble,
    fit,
    grid_search,
    multi_seed,
    predict_records,
    train,
)
from .losses import (
    avuc_loss,
    cross_entropy,
    dirichlet_kl_uniform,
    evidential_loss,
    ldu_aux_losses,
    mmce_loss,
    total_loss,
)
from .metrics import (
    BinTable,
    CalibrationReport,
    PredictionRecord,
    Predictions,
    adaptive_calibration_error,
    balanced_accuracy,
    brier_score,
    calibration_report,
    expected_calibration_error,
    max_calibration_error,
    overconfidence_error,
    reliability_bins,
)
from .nn import Adam, DenseLayer, SGDMomentum, init_dense
from .reports import read_prediction_log
from .uncertainty import (
    DirichletOutput,
    ModelOutput,
    SpectralNorm,
    dm_logits,
    evidence_head,
    head_output,
    init_prototypes,
)

__version__ = "0.1.0"
