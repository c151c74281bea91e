"""The paper's systems: MLlib baseline, MLlib + model averaging, MLlib*."""

from .config import LOCAL_SOLVERS, TrainerConfig
from .mllib import MLlibTrainer
from .mllib_ma import MLlibModelAveragingTrainer
from .mllib_star import MLlibStarTrainer
from .spark_ml import SparkMlStarTrainer, SparkMlTrainer
from .trainer import DistributedTrainer, TrainingSession, TrainResult

__all__ = [
    "TrainerConfig", "LOCAL_SOLVERS",
    "DistributedTrainer", "TrainingSession", "TrainResult",
    "MLlibTrainer", "MLlibModelAveragingTrainer", "MLlibStarTrainer",
    "SparkMlTrainer", "SparkMlStarTrainer",
]
