"""Online label shift adaptation with online feature updates.

A numpy library plus CLI simulator: six online label-shift adaptation
algorithms, a self-supervised feature-update wrapper, black-box
marginal estimation, synthetic shift processes, and the evaluation harness
that ties them together.
"""

from .errors import (
    ConfigError,
    ContractViolationError,
    DataExhaustedError,
    IllConditionedConfusionError,
    InvalidArgumentError,
    RunError,
    SingularMatrixError,
    TrainingDivergedError,
    UndefinedCorrelationError,
)
from .estimator import (
    ConfusionMatrix,
    MarginalEstimate,
    bbse_estimate,
    confusion_matrix,
    regularize_confusion,
)
from .harness import (
    OnlineTrace,
    Pretrained,
    Scenario,
    improvement_check,
    oracle_trace,
    pearson,
    pretrain,
    ordering_bias_test,
    run_bare_ols,
    run_online,
)
from .models import (
    ModelParams,
    SslSpec,
    TrainConfig,
    backward,
    calibrate_temperature,
    forward,
    init_model,
    load_model,
    retrain_linear,
    save_model,
    train_supervised,
)
from .numkit import (
    make_rng,
    min_singular_value,
    project_simplex,
    softmax,
    solve_linear,
)
from .ofu import (
    OfuState,
    Predictor,
    compose_output,
    feature_update,
    ols_ofu_step,
)
from .ols import (
    ALGORITHMS,
    AlgoParams,
    AtlasStrategy,
    FlhftlStrategy,
    FthStrategy,
    FtfwhStrategy,
    RogdStrategy,
    UogdStrategy,
    atlas_pool_size,
    atlas_step_pool,
    make_strategy,
)
from .synthdata import (
    CorruptionSpec,
    DataSpec,
    LabeledSet,
    ShiftPattern,
    bayes_error_mc,
    corrupt,
    default_means,
    default_pattern,
    make_source_data,
    marginal_path,
    path_length,
    sample_batch,
    sample_batches,
)

__version__ = "0.1.0"
