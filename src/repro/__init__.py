"""repro — reproduction of "MLlib*: Fast Training of GLMs using Spark MLlib".

Every system the ICDE 2019 paper studies, from scratch in Python: a
Spark-like BSP engine on a simulated cluster clock (:mod:`repro.engine`,
:mod:`repro.cluster`), shuffle-built collectives
(:mod:`repro.collectives`), a parameter-server substrate (:mod:`repro.ps`),
the GLM math and local solvers (:mod:`repro.glm`), the trainers
(:mod:`repro.core`, :mod:`repro.ps`), dataset analogs with LIBSVM IO
(:mod:`repro.data`) and metrics / gantt tooling (:mod:`repro.metrics`).
README.md has a quickstart.
"""

from .cluster import (ClusterSpec, ComputeCostModel, LogNormalStragglers,
                      NetworkModel, NodeSpec, NoStragglers, Span, Trace,
                      cluster1, cluster2)
from .collectives import (all_gather, all_reduce_average, partition_slices,
                          reduce_scatter)
from .core import (DistributedTrainer, MLlibModelAveragingTrainer,
                   MLlibStarTrainer, MLlibTrainer, SparkMlStarTrainer,
                   SparkMlTrainer, TrainerConfig, TrainResult)
from .data import (SparseDataset, SyntheticSpec, avazu_like, dataset_names,
                   generate, kddb_like, load, partition_rows, read_libsvm,
                   train_test_split, url_like, write_libsvm, wx_like)
from .engine import (BspEngine, PartitionedDataset, ShuffleModel,
                     TreeAggregateModel)
from .glm import (BinaryMetrics, GLMModel, HingeLoss, LogisticLoss,
                  Objective, SquaredHingeLoss, SquaredLoss, evaluate_binary,
                  get_loss, get_regularizer, roc_auc)
from .metrics import (ACCURACY_LOSS, ConvergenceResult, TrainingHistory,
                      evaluate_convergence, render_ascii, speedup, summarize)
from .ps import (ASP, BSP, SSP, AngelTrainer, AsyncSgdTrainer,
                 PetuumStarTrainer, PetuumTrainer, PsEngine)
from .planner import (StepCost, WorkloadProfile, estimate_step_cost,
                      rank_systems)
from .tuning import GridPoint, GridSearch, expand_grid

__version__ = "1.0.0"

__all__ = [
    # cluster
    "ClusterSpec", "cluster1", "cluster2", "NodeSpec", "NetworkModel",
    "ComputeCostModel", "NoStragglers", "LogNormalStragglers", "Span",
    "Trace",
    # data
    "SparseDataset", "SyntheticSpec", "generate", "load", "dataset_names",
    "avazu_like", "url_like", "kddb_like", "wx_like",
    "read_libsvm", "write_libsvm", "partition_rows", "train_test_split",
    # glm
    "Objective", "GLMModel", "HingeLoss", "LogisticLoss",
    "SquaredHingeLoss", "SquaredLoss", "get_loss", "get_regularizer",
    "BinaryMetrics", "evaluate_binary", "roc_auc",
    # engine & collectives
    "BspEngine", "PartitionedDataset", "TreeAggregateModel",
    "ShuffleModel", "partition_slices", "reduce_scatter", "all_gather",
    "all_reduce_average",
    # trainers
    "TrainerConfig", "DistributedTrainer", "TrainResult", "MLlibTrainer",
    "MLlibModelAveragingTrainer", "MLlibStarTrainer", "PetuumTrainer",
    "PetuumStarTrainer", "AngelTrainer", "AsyncSgdTrainer",
    "SparkMlTrainer", "SparkMlStarTrainer",
    # tuning & planning
    "GridSearch", "GridPoint", "expand_grid",
    "StepCost", "WorkloadProfile", "estimate_step_cost", "rank_systems",
    # ps substrate
    "PsEngine", "BSP", "SSP", "ASP",
    # metrics
    "TrainingHistory", "ACCURACY_LOSS", "ConvergenceResult",
    "evaluate_convergence", "speedup", "summarize", "render_ascii",
]
