"""recourse-mi: membership-inference auditing for algorithmic recourse.

Quantifies how much a model's training data leaks through counterfactual
recourses: distance-based attacks (simple thresholding and a one-sided
shadow-model LRT), loss-based baselines, three recourse generators, ROC
metrics focused on the low-FPR regime, and balanced-accuracy bounds under
differentially private recourse.
"""
__version__ = "0.1.0"  # before the submodules: runner writes it into each report

from .attack import (
    AttackScores,
    NormalFit,
    cfd_statistic,
    fit_normal_mle,
    loss_lrt_score,
    normal_quantile,
)
from .data import (
    Dataset,
    ScalerParams,
    SplitBundle,
    SyntheticSpec,
    generate_synthetic,
    load_tabular,
    split,
    standardize,
)
from .metrics import (
    MetricsReport,
    RocCurve,
    auc,
    balanced_accuracy,
    export_log_roc,
    roc,
    tpr_at_fpr,
)
from .nn import (
    Model,
    TrainConfig,
    VaeModel,
    load_model,
    predict_proba_batch,
    save_model,
    train_classifier,
    train_vae,
)
from .privacy import DpBound, dp_ba_bound
from .recourse import (
    RecourseBatch,
    RecourseConfig,
    ScfeParams,
    SearchParams,
    cchvae,
    growing_spheres,
    row_costs,
    scfe,
    uniform_l1_ball_sample,
)
from .runner import (
    ExperimentConfig,
    ExperimentReport,
    Game,
    config_from_dict,
    load_config,
    run_experiment,
    run_sweep,
)
