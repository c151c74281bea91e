"""repro — reproduction of "MLlib*: Fast Training of GLMs using Spark MLlib".

This package re-implements, from scratch and in pure Python, every system
the ICDE 2019 paper studies:

* a Spark-like BSP engine (driver/executors, ``treeAggregate``, broadcast,
  shuffle) with a simulated cluster clock (:mod:`repro.engine`,
  :mod:`repro.cluster`);
* MPI-style collectives built on shuffle (:mod:`repro.collectives`);
* a parameter-server substrate with BSP/SSP/ASP consistency
  (:mod:`repro.ps`);
* GLM training math — hinge/logistic/squared losses, L1/L2 regularizers,
  local MGD/SGD solvers, Bottou lazy L2 updates (:mod:`repro.glm`);
* the six trainers of the study — MLlib, MLlib + model averaging, MLlib*,
  Petuum, Petuum*, Angel (:mod:`repro.core`, :mod:`repro.ps`);
* synthetic analogs of the paper's datasets plus LIBSVM IO
  (:mod:`repro.data`), and metrics / gantt tooling (:mod:`repro.metrics`).

Quickstart::

    from repro import (MLlibStarTrainer, Objective, TrainerConfig,
                       cluster1, avazu_like)

    data = avazu_like()
    trainer = MLlibStarTrainer(Objective("hinge", "l2", 0.1), cluster1(),
                               TrainerConfig(max_steps=20))
    result = trainer.fit(data)
    print(result.final_objective, result.model.accuracy(data.X, data.y))
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
                   generate, kdd12_like, kddb_like, load, partition_rows,
                   read_libsvm, train_test_split, url_like, write_libsvm,
                   wx_like)
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
    "avazu_like", "url_like", "kddb_like", "kdd12_like", "wx_like",
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
