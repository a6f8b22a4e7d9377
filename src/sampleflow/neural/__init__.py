from .layers import (BatchNorm1d, Conv1d, DegenerateBatchError, Dense, Flatten,
                     Layer, MaxPool1d, Param, ReLU, ShapeError)
from .losses import cross_entropy_loss, mse_loss, softmax
from .network import (CheckpointError, Network, build_classifier,
                      build_regressor, init_params, load_checkpoint,
                      save_checkpoint, transfer_trunk)
from .optim import Adam

__all__ = [
    "Adam", "BatchNorm1d", "CheckpointError", "Conv1d", "DegenerateBatchError",
    "Dense", "Flatten", "Layer", "MaxPool1d",
    "Network", "Param", "ReLU", "ShapeError", "build_classifier",
    "build_regressor", "cross_entropy_loss", "init_params", "load_checkpoint",
    "mse_loss", "save_checkpoint", "softmax", "transfer_trunk",
]
