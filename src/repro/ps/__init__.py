"""Parameter-server systems: the PS timeline, its consistency
controllers, the Petuum/Petuum*/Angel trainers on one pull/train/push
step, and asynchronous SGD."""

from .angel import AngelTrainer
from .async_sgd import AsyncSgdTrainer
from .consistency import ASP, BSP, SSP, Controller
from .engine import PsEngine, worker_label
from .petuum import PetuumStarTrainer, PetuumTrainer

__all__ = [
    "Controller", "BSP", "SSP", "ASP",
    "PsEngine", "worker_label",
    "PetuumTrainer", "PetuumStarTrainer",
    "AngelTrainer", "AsyncSgdTrainer",
]
