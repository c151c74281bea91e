"""GLM math substrate: losses, regularizers, objective, local solvers."""

from .dual import (DUAL_LOSSES, DUAL_SOLVERS, DualLoss, DualSolverSpec,
                   certified_gap, dual_local_solve, get_dual_loss,
                   make_dual_spec, require_dual_capable)
from .kernels import apply_update_inplace, dual_epoch, dual_row_norms
from .lazy_update import ScaledVector
from .local_solvers import (LocalStats, apply_update, mgd_epoch,
                            sample_batch, sampled_gradient, sgd_epoch)
from .losses import (LOSSES, HingeLoss, LogisticLoss, Loss, SquaredLoss,
                     get_loss)
from .model import (ARTIFACT_FORMAT, ARTIFACT_VERSION, ArtifactError,
                    GLMModel, read_artifact_meta)
from .native import SparseVector
from .objective import Objective
from .regularizers import (REGULARIZERS, L2Regularizer, NoRegularizer,
                           Regularizer, get_regularizer)
from .schedules import (SCHEDULES, ConstantLR, InvSqrtLR, InvTimeLR,
                        LearningRate, get_schedule)

__all__ = [
    "Loss", "HingeLoss", "LogisticLoss", "SquaredLoss", "get_loss", "LOSSES",
    "Regularizer", "NoRegularizer", "L2Regularizer",
    "get_regularizer", "REGULARIZERS",
    "Objective", "GLMModel", "ScaledVector",
    "ArtifactError", "ARTIFACT_FORMAT", "ARTIFACT_VERSION",
    "read_artifact_meta",
    "LocalStats", "mgd_epoch", "sgd_epoch", "sample_batch",
    "sampled_gradient", "apply_update", "SparseVector",
    "apply_update_inplace", "dual_epoch", "dual_row_norms",
    "DualLoss", "DualSolverSpec", "DUAL_LOSSES", "DUAL_SOLVERS",
    "get_dual_loss", "make_dual_spec", "require_dual_capable",
    "dual_local_solve", "certified_gap",
    "LearningRate", "ConstantLR", "InvSqrtLR", "InvTimeLR", "get_schedule",
    "SCHEDULES",
]
