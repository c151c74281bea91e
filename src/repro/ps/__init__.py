"""Parameter-server substrate and the Petuum/Petuum*/Angel trainers."""

from .angel import AngelTrainer
from .async_sgd import AsyncSgdTrainer
from .consistency import ASP, BSP, SSP, Controller, get_controller
from .engine import PsEngine, worker_label
from .petuum import PetuumStarTrainer, PetuumTrainer
from .server import ParameterServer

__all__ = [
    "Controller", "BSP", "SSP", "ASP", "get_controller",
    "ParameterServer",
    "PsEngine", "worker_label",
    "PetuumTrainer", "PetuumStarTrainer",
    "AngelTrainer", "AsyncSgdTrainer",
]
