"""Model zoo: simulated off-the-shelf architectures, training and pooling."""

from .architectures import (
    ALIASES,
    ARCHITECTURE_REGISTRY,
    ARCHITECTURES,
    ArchitectureSpec,
    architecture_names,
    architectures_by_family,
    default_pool_names,
    fitzpatrick_pool_names,
    get_architecture,
    register_architecture,
)
from .backbone import SimulatedBackbone
from .model import ZooModel
from .persistence import (
    FUSED_ARTIFACT_FORMAT,
    artifact_checksum,
    fused_model_payload,
    load_fused_model,
    load_model,
    load_pool,
    save_fused_model,
    save_model,
    save_pool,
)
from .pool import ModelPool
from .training import TrainConfig, TrainResult, train_model, train_models

__all__ = [
    "ArchitectureSpec",
    "ARCHITECTURES",
    "ARCHITECTURE_REGISTRY",
    "ALIASES",
    "architecture_names",
    "architectures_by_family",
    "get_architecture",
    "register_architecture",
    "default_pool_names",
    "fitzpatrick_pool_names",
    "SimulatedBackbone",
    "ZooModel",
    "ModelPool",
    "save_model",
    "load_model",
    "save_pool",
    "load_pool",
    "save_fused_model",
    "load_fused_model",
    "fused_model_payload",
    "artifact_checksum",
    "FUSED_ARTIFACT_FORMAT",
    "TrainConfig",
    "TrainResult",
    "train_model",
    "train_models",
]
