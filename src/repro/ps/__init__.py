"""Parameter-server substrate and the Petuum/Petuum*/Angel trainers."""

from .angel import AngelTrainer
from .async_sgd import AsyncSgdTrainer
from .consistency import ASP, BSP, SSP, Controller
from .engine import PsEngine, worker_label
from .petuum import PetuumStarTrainer, PetuumTrainer
from .server import ParameterServer

__all__ = [
    "Controller", "BSP", "SSP", "ASP",
    "ParameterServer",
    "PsEngine", "worker_label",
    "PetuumTrainer", "PetuumStarTrainer",
    "AngelTrainer", "AsyncSgdTrainer",
]
