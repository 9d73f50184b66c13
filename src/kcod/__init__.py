"""Out-of-domain intent discovery at desk scale.

A numpy-only pipeline: labeled pre-training that keeps classes loose by
contrasting each sample against only its K nearest same-class neighbors,
then unlabeled clustering that contrasts dropout views while mining hard
negatives and filtering probable same-cluster pairs, plus the metrics to
judge the result. See README.md for the command-line interface.
"""

from .cluster import (
    CLUSTER_MODES,
    ClusterBatchState,
    KccConfig,
    KMeansResult,
    assign_batch,
    cluster_level_loss,
    cluster_train,
    entropy_regularizer,
    estimate_k,
    instance_level_loss,
    kcc_loss,
    kmeans,
    survivor_count,
)
from .contrast import cosine_rows, cosine_rows_backward
from .data import (
    Dataset,
    SplitSpec,
    gen_blobs,
    load_assignments,
    load_jsonl,
    save_assignments,
    save_jsonl,
    split_ind_ood,
)
from .encoder import (
    AdamState,
    EncoderModel,
    adam_step,
    backward,
    forward_batch,
    load_checkpoint,
    save_checkpoint,
    two_views_batch,
)
from .errors import (
    AlignmentError,
    DataError,
    DegenerateInputError,
    DivergenceError,
    EmptyObjectiveError,
    MetricUndefinedError,
    OracleError,
    ParameterError,
    ParseError,
    StaleCacheError,
)
from .metrics import (
    EvalReport,
    Labeling,
    align,
    ari,
    clustering_accuracy,
    compactness_ratio,
    confusion_matrix,
    evaluate,
    intra_inter_distances,
    nmi,
    silhouette,
)
from .numerics import (
    finite_diff_grad,
    finite_diff_grad_nd,
    relative_error,
    softmax_rows,
)
from .pretrain import (
    ContrastQueue,
    KclConfig,
    ce_loss_batch,
    kcl_loss,
    pretrain,
    refresh_queue,
)

__version__ = "0.1.0"
