"""The paper's systems: MLlib baseline, MLlib + model averaging, MLlib*."""

from .config import TrainerConfig
from .mllib import MLlibTrainer
from .mllib_ma import MLlibModelAveragingTrainer
from .mllib_star import MLlibStarTrainer
from .spark_ml import SparkMlStarTrainer, SparkMlTrainer
from .trainer import DistributedTrainer, TrainingSession, TrainResult

__all__ = [
    "TrainerConfig",
    "DistributedTrainer", "TrainingSession", "TrainResult",
    "MLlibTrainer", "MLlibModelAveragingTrainer", "MLlibStarTrainer",
    "SparkMlTrainer", "SparkMlStarTrainer",
]
