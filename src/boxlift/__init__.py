"""boxlift: 3D boxes from 2D detections via tight-fit projection geometry.

The package has four layers:

- :mod:`boxlift.geometry`: camera model, rotations, box corners, projection.
- :mod:`boxlift.solver`: corner-to-side configurations and the translation
  recovery that makes a 3D box re-project tightly into its 2D detection.
- :mod:`boxlift.multibin`: discrete-continuous angle encoding, its losses
  with analytic gradients, and local/global orientation conversion.
- :mod:`boxlift.metrics` / :mod:`boxlift.kitti` / :mod:`boxlift.toy`:
  evaluation metrics, KITTI file formats, and the synthetic bin study.
"""

from .errors import (
    DivergedLossError,
    InfeasibleConfigurationError,
    MalformedLineError,
    MissingKeyError,
    NoFeasibleConfigurationError,
    NonPositiveDepthError,
    NonUprightBoxError,
    ZeroVectorError,
)
from .geometry import (
    Box2D,
    Box3D,
    CameraIntrinsics,
    Dimensions,
    box_vertices,
    project,
    project_box,
    rotation_from_angles,
    wrap_angle,
)
from .multibin import (
    BinLayout,
    MultiBinEncoding,
    decode,
    encode,
    global_to_local,
    local_to_global,
    ray_angle,
)
from .solver import (
    BatchLiftResult,
    Configuration,
    ConstraintMode,
    LiftResult,
    enumerate_configurations,
    lift,
    lift_batch,
)

__version__ = "0.1.0"

__all__ = [
    "Box2D",
    "Box3D",
    "CameraIntrinsics",
    "Dimensions",
    "box_vertices",
    "project",
    "project_box",
    "rotation_from_angles",
    "wrap_angle",
    "BinLayout",
    "MultiBinEncoding",
    "encode",
    "decode",
    "local_to_global",
    "global_to_local",
    "ray_angle",
    "ConstraintMode",
    "Configuration",
    "LiftResult",
    "BatchLiftResult",
    "enumerate_configurations",
    "lift",
    "lift_batch",
    "DivergedLossError",
    "InfeasibleConfigurationError",
    "MalformedLineError",
    "MissingKeyError",
    "NoFeasibleConfigurationError",
    "NonPositiveDepthError",
    "NonUprightBoxError",
    "ZeroVectorError",
]
