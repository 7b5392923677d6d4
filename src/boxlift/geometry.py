"""Camera model, rotations, 3D box corners and perspective projection.

COORDINATE CONVENTIONS
======================
Camera frame (computer-vision standard, matches KITTI's rectified camera):
  - x: right, y: down, z: forward (optical axis). Units: meters.

Object frame (origin at the 3D box center):
  - x: forward along the object's length  (extent dx)
  - y: down along the object's height     (extent dy)
  - z: right along the object's width     (extent dz)
  KITTI's (l, h, w) label order maps to (dx, dy, dz).

Image frame: u right, v down, origin at the top-left. Units: pixels.

ANGLES
======
All angles are radians, wrapped to (-pi, pi]. The rotation from object to
camera frame is composed as

    R = R_yaw(yaw) @ R_pitch(pitch) @ R_roll(roll)

with yaw about the camera y axis (the vertical, pointing down), pitch about
the object's width axis (z) and roll about the object's length axis (x).
The yaw matrix equals the KITTI devkit's rotation for ``rotation_y``, so a
KITTI label's rotation_y can be used as ``yaw`` directly.

VERTEX ORDER
============
``box_vertices`` returns the 8 corners ordered by sign pattern, x sign
alternating fastest, then y, then z (0 = +, 1 = -):

    index:  0      1      2      3      4      5      6      7
    signs: +++    -++    +-+    --+    ++-    -+-    +--    ---

With y pointing down, indices {0, 1, 4, 5} are the bottom corners and
{2, 3, 6, 7} the top corners.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NonPositiveDepthError

__all__ = [
    "CameraIntrinsics",
    "Dimensions",
    "Box2D",
    "Box3D",
    "wrap_angle",
    "rotation_from_angles",
    "rotations_from_angles",
    "are_rotations",
    "is_rotation",
    "box_vertices",
    "rotated_corners",
    "project",
    "project_box",
]

BOTTOM_CORNERS = (0, 1, 4, 5)
TOP_CORNERS = (2, 3, 6, 7)

# Corner sign patterns in vertex order, (8, 3): x sign fastest, 0 = +.
VERTEX_SIGNS = 1.0 - 2.0 * np.array([[i % 2, (i // 2) % 2, (i // 4) % 2] for i in range(8)])
_HALF_SIGNS = 0.5 * VERTEX_SIGNS  # (0.5 s) e is s (0.5 e) exactly: a sign and a power of two
VERTEX_SIGNS.flags.writeable = _HALF_SIGNS.flags.writeable = False
ROTATION_TOLERANCE = 1e-9  # are_rotations' absolute tolerance, on det R and on R^T R
_ROTATION_TARGET = np.append(np.eye(3), 1.0)
_ROTATION_TOLERANCES = np.append(ROTATION_TOLERANCE + 1e-5 * np.eye(3), ROTATION_TOLERANCE)


def wrap_angle(theta):
    """Wrap an angle (scalar or array) to the interval (-pi, pi]."""
    flipped = np.pi - theta if isinstance(theta, float) else np.subtract(np.pi, theta)
    return np.pi - np.mod(flipped, 2.0 * np.pi)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths, principal point and skew, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy", "skew"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")

    @property
    def matrix(self):
        """The 3x3 intrinsics matrix."""
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class Dimensions:
    """Object extents in meters: dx (length), dy (height), dz (width)."""

    dx: float
    dy: float
    dz: float

    def __post_init__(self):
        dx, dy, dz = arr = (self.dx, self.dy, self.dz)
        isfinite = math.isfinite
        if not (isfinite(dx) and dx > 0 and isfinite(dy) and dy > 0 and isfinite(dz) and dz > 0):
            raise ValueError(f"dimensions must be positive and finite, got {tuple(map(float, arr))}")

    @property
    def as_array(self):
        return np.array([self.dx, self.dy, self.dz])

    @property
    def volume(self):
        return self.dx * self.dy * self.dz


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned image rectangle, in pixels."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.y_min, self.x_max, self.y_max))):
            raise ValueError("rectangle sides must be finite")
        if self.x_min >= self.x_max:
            raise ValueError(f"x_min must be < x_max, got [{self.x_min}, {self.x_max}]")
        if self.y_min >= self.y_max:
            raise ValueError(f"y_min must be < y_max, got [{self.y_min}, {self.y_max}]")

    @property
    def width(self):
        return self.x_max - self.x_min

    @property
    def height(self):
        return self.y_max - self.y_min

    @property
    def center(self):
        return np.array(
            [0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max)]
        )

    @property
    def as_array(self):
        """Sides in (x_min, y_min, x_max, y_max) order (KITTI bbox order)."""
        return np.array([self.x_min, self.y_min, self.x_max, self.y_max])


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center (camera frame, meters), extents and angles."""

    center: np.ndarray
    dims: Dimensions
    yaw: float
    pitch: float = 0.0
    roll: float = 0.0

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        if center.shape != (3,) or not np.all(np.isfinite(center)):
            raise ValueError("center must be a finite 3-vector")
        object.__setattr__(self, "center", center)
        for name in ("yaw", "pitch", "roll"):
            object.__setattr__(self, name, float(wrap_angle(getattr(self, name))))

    @property
    def rotation(self):
        return rotation_from_angles(self.yaw, self.pitch, self.roll)

    def corners(self):
        """The 8 corners in the camera frame, (8, 3), in vertex order."""
        return box_vertices(self.dims) @ self.rotation.T + self.center


def rotation_from_angles(yaw, pitch=0.0, roll=0.0):
    """Object-to-camera rotation R = R_yaw @ R_pitch @ R_roll.

    Axes per the module conventions: yaw about camera y (down), pitch about
    the object width axis (z), roll about the object length axis (x).
    The N = 1 case of ``rotations_from_angles``. A finite scalar yaw with
    zero pitch and roll builds the yaw matrix directly; ``+ 0.0`` turns its
    -0.0 entries into the product's +0.0, so the result is bit-identical.
    """
    if isinstance(yaw, (int, float)) and math.isfinite(yaw) and pitch == 0 and roll == 0:
        cy, sy = np.cos(yaw) + 0.0, np.sin(yaw)
        return np.array((cy, 0.0, sy + 0.0, 0.0, 1.0, 0.0, -sy + 0.0, 0.0, cy)).reshape(3, 3)
    return rotations_from_angles(yaw, pitch, roll)[0]


def rotations_from_angles(yaw, pitch, roll):
    """``rotation_from_angles`` of (N,) angle arrays, stacked as (N, 3, 3).

    When every pitch and roll is zero and every yaw finite, the yaw matrices
    are built directly, with ``+ 0.0`` as in ``rotation_from_angles``: the
    product's bits, without the product.
    """
    if not (np.count_nonzero(pitch) or np.count_nonzero(roll)) and np.isfinite(yaw).all():
        cos, sin = np.cos(yaw).reshape(-1), np.sin(yaw).reshape(-1)
        entries = np.zeros((9, len(cos)))  # the nine entries in row-major order
        np.add(cos, 0.0, out=entries[0])
        entries[8], entries[4] = entries[0], 1.0
        np.add(sin, 0.0, out=entries[2])
        np.subtract(0.0, sin, out=entries[6])  # -sin + 0.0
        return entries.T.reshape(-1, 3, 3)
    (cy, cp, cr), (sy, sp, sr) = np.cos([yaw, pitch, roll]), np.sin([yaw, pitch, roll])
    zero, one = np.zeros_like(cy), np.ones_like(cy)

    def stack(*entries):  # nine (N,) entries in row-major order
        return np.stack(entries, axis=-1).reshape(-1, 3, 3)

    r_yaw = stack(cy, zero, sy, zero, one, zero, -sy, zero, cy)
    r_pitch = stack(cp, -sp, zero, sp, cp, zero, zero, zero, one)
    r_roll = stack(one, zero, zero, zero, cr, -sr, zero, sr, cr)
    return r_yaw @ r_pitch @ r_roll


def are_rotations(matrices):
    """Per matrix of an (N, 3, 3) stack: orthonormal with determinant +1.

    R^T R must equal the identity within ``np.allclose``'s tolerance (absolute
    ``ROTATION_TOLERANCE`` plus 1e-5 relative to the identity's entries) and
    the determinant must be within it of 1. Returns an (N,) bool array.
    """
    matrices = np.asarray(matrices, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        return _rotation_checks(matrices, np.empty((len(matrices), 10), dtype=bool)).all(axis=1)


def _rotation_checks(matrices, out):
    """Per matrix of a float (N, 3, 3) stack, under the caller's ``np.errstate``:
    whether each entry of R^T R, row-major, then det R is within its tolerance
    of the identity's entry and of 1, written into the (N, 10) bools ``out``."""
    values = np.empty(out.shape)
    np.matmul(matrices.swapaxes(1, 2), matrices, out=values[:, :9].reshape(len(out), 3, 3))
    # np.linalg.det's own gufunc, without the wrapper's checks of a float (N, 3, 3) stack
    _umath_linalg.det(matrices, out=values[:, 9])
    return np.less_equal(np.abs(values - _ROTATION_TARGET), _ROTATION_TOLERANCES, out=out)


def is_rotation(matrix):
    """True if ``matrix`` is a 3x3 rotation, as ``are_rotations`` decides."""
    matrix = np.asarray(matrix, dtype=float)
    return matrix.shape == (3, 3) and bool(are_rotations(matrix[None])[0])


def box_vertices(dims):
    """The 8 object-frame corners of a box with the given extents, (8, 3).

    Ordered by sign pattern with the x sign alternating fastest (see the
    module docstring); vertex 0 is (+dx/2, +dy/2, +dz/2).
    """
    return VERTEX_SIGNS * (0.5 * dims.as_array)


def rotated_corners(extents, rotations):
    """Corners of N boxes about their centers, (N, 8, 3): ``box_vertices`` of
    each row of ``extents`` (N, 3), turned by that box's rotation (N, 3, 3)."""
    return (_HALF_SIGNS * extents[:, None, :]) @ rotations.swapaxes(1, 2)


def project(intrinsics, rotation, translation, points):
    """Project object-frame points into the image.

    Args:
        intrinsics: CameraIntrinsics.
        rotation: 3x3 object-to-camera rotation.
        translation: camera-frame position of the object origin, (3,).
        points: one point (3,) or many (N, 3) in the object frame.

    Returns:
        Pixel coordinates, (2,) for a single point or (N, 2).

    Raises:
        NonPositiveDepthError: if any point has camera depth <= 0.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    cam = np.atleast_2d(pts) @ np.asarray(rotation).T + np.asarray(translation)
    depths = cam[:, 2]
    if np.any(depths <= 0):
        raise NonPositiveDepthError(
            f"point at or behind camera: min depth {depths.min():.6g} m"
        )
    uv_h = cam @ intrinsics.matrix.T
    uv = uv_h[:, :2] / uv_h[:, 2:3]
    return uv[0] if single else uv


def project_box(intrinsics, box):
    """Tight axis-aligned rectangle around the projected corners of ``box``.

    Raises:
        NonPositiveDepthError: if any corner is at or behind the camera.
    """
    rotation = box.rotation
    uv = project(intrinsics, rotation, box.center, box_vertices(box.dims))
    return Box2D(
        x_min=float(uv[:, 0].min()),
        y_min=float(uv[:, 1].min()),
        x_max=float(uv[:, 0].max()),
        y_max=float(uv[:, 1].max()),
    )
