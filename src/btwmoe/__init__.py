"""Bi-level modality weighting for multimodal mixture-of-experts models.

Instance-level KL-divergence weights measure how much each modality's frozen
unimodal prediction diverges from the current multimodal prediction;
modality-level mutual information measures each modality's global alignment
with the fused model. Combined, smoothed across epochs, and applied
multiplicatively to modality embeddings, they reweight training dynamically.
"""

__version__ = "0.1.0"

from .distributions import (
    CategoricalDist,
    GaussianParams,
    categorical_kl,
    gaussian_kl,
    kl_quadrature_oracle,
    residual_variance,
)
from .metrics import acc_k, f1_scores, mae, pearson
from .mi import discrete_mi, gaussian_mi_analytic, ksg_mi
from .moe import (
    DataBatch,
    MoeConfig,
    backward,
    forward,
    grad_check,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from .synthetic import Dataset, SyntheticSpec, generate, load_dataset, save_dataset, split
from .training import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    train_unimodal_all,
)
from .weighting import (
    SmoothingState,
    combine_bilevel,
    combine_global_kl,
    combine_global_mi,
    combine_local,
    instance_kl_weights,
    modality_mi,
    smooth_update,
)
