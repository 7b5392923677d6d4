"""Recover translation from a 2D detection box, known rotation and extents.

Each side of a tight 2D detection rectangle is touched by the projection of
at least one 3D box corner. Assigning one corner to each side turns the
tight-fit requirement into four linear equations in the translation T:
for a side with pixel coordinate s and assigned corner X,

    (k_row - s * k3) . (R X + T) = 0

where k_row is the intrinsics row producing that coordinate (first row for
the vertical sides x_min/x_max, second for the horizontal sides
y_min/y_max) and k3 the third row. The 4x3 system is solved by SVD; the
coefficient matrix depends only on the intrinsics and the rectangle, so all
candidate corner assignments share one factorization.

CONSTRAINT MODES
================
The admissible corner assignments shrink as assumptions grow (vertex
indices per the ordering in :mod:`boxlift.geometry`; y points down, so
{2,3,6,7} are top corners, {0,1,4,5} bottom corners):

- GENERAL: any corner on any side, 8^4 = 4096 configurations.
- UPRIGHT: the top side can only be touched by a top corner and the bottom
  side by a bottom corner; 8 * 8 * 4 * 4 = 1024.
- UPRIGHT_ZERO_ROLL: additionally, each vertical side is touched by one of
  the four vertical box edges. Both corners of a vertical edge project to
  the same image column when pitch and roll vanish, so each edge is
  represented by its bottom corner; 4 * 4 * 4 * 4 = 256.
- KITTI_ZERO_PITCH_ROLL: pitch and roll are exactly zero and the object
  lies below the camera horizon (the road scenario). The top side is then
  touched by the deepest top corner and the bottom side by the shallowest
  bottom corner, which is its antipode (index 7 - top). Tying the bottom
  corner to the top choice leaves 4 * 4 * 4 = 64 configurations. The
  family provably contains the true assignment only when the rectangle
  lies wholly below the principal row (y_min > c_y) or wholly above it. A
  rectangle that straddles that row belongs to a box whose top plane is
  above the camera: its top and bottom sides are touched by the two
  corners of the nearest vertical edge (bottom = top - 2). This family
  misses that assignment, and such a record is lifted wrong without
  failing.

Each mode's family is a subset of the previous one, so relaxing the mode
never loses the optimum it would have found. Each family is a (C, 4)
index array, built once at import together with the columns its
candidates gather (see BATCHES).

BATCHES
=======
``lift_batch`` lifts N records in one numpy pass over N x C candidates;
each record brings its own intrinsics, rotation, extents and rectangle.
The per-record work is done once for the whole batch: the rotation check,
the SVD of the 4x3 side matrix, the right-hand side of every corner on
every side as a flat table of 32 (side, corner) entries, and the rotated
corners' u, v and depth as contiguous (8, N) slabs. The candidates are
then solved, checked for positive depth and ranked by reprojection in
chunks of ``CHUNK_CANDIDATES`` candidates or one record, whichever is
more, so the candidate arrays never exceed those of one GENERAL lift
however large N is. A chunk gathers its right-hand sides with one
``np.take`` of the mode's columns (corner + 8 * side, built at import
beside the configurations) into side-major (records, side, C) arrays, so
its translations come out as contiguous x, y and z rows and every pass
over its (8, records, C) corner arrays reads unit-stride memory. A
candidate is feasible when its nearest corner is in front of the camera;
rounding is monotonic, so this one sum decides exactly what the minimum
over all eight corner depths would. Every record ends in one outcome:
``lifted``, or a failure code of ``FAILURES`` carrying the message the
scalar ``lift`` raises. ``lift`` and ``solve_translation`` are the N = 1
case of the same code.
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleConfigurationError, NoFeasibleConfigurationError
from .geometry import BOTTOM_CORNERS, TOP_CORNERS, are_rotations, rotated_corners

__all__ = [
    "ConstraintMode",
    "Configuration",
    "LiftResult",
    "BatchLiftResult",
    "enumerate_configurations",
    "solve_translation",
    "lift",
    "lift_batch",
]

RANK_TOLERANCE = 1e-10

# Candidates (records x configurations) solved at once, but at least one
# record, so a GENERAL record (4096 candidates) is one chunk. It bounds the
# (8, records, C) work arrays and so the peak memory: 256 KB a slab, as for
# one GENERAL record. Against 1024, 4096 read lift_records_per_s 7.7 %
# higher on perfbench road (16 790 against 15 590 records/s, medians of 5
# alternating 20 s pairs, seeds 121-125, 5 of 5 won) with frame times, toy
# rate and peak_rss_mb unchanged; general, one record a chunk either way,
# read 1692 against 1698 (seeds 101-105). 2 vCPUs, numpy 2.4, one BLAS
# thread.
CHUNK_CANDIDATES = 4096

LIFTED = "lifted"
# Failure code -> (exception the scalar ``lift`` raises, its message).
FAILURES = {
    "bad_rotation": (ValueError, "rotation must be orthonormal with determinant +1"),
    "rank_deficient": (
        NoFeasibleConfigurationError,
        "side equations are rank-deficient (degenerate rectangle)",
    ),
    "all_infeasible": (NoFeasibleConfigurationError, "all {count} configurations infeasible"),
}


class ConstraintMode(enum.Enum):
    GENERAL = "general"
    UPRIGHT = "upright"
    UPRIGHT_ZERO_ROLL = "zeroroll"
    KITTI_ZERO_PITCH_ROLL = "kitti"


class Configuration(NamedTuple):
    """Corner index assigned to each 2D side."""

    left: int
    right: int
    top: int
    bottom: int


@dataclass(frozen=True)
class LiftResult:
    """Outcome of a lift: translation plus the diagnostics used to rank it.

    ``residual`` is the least-squares objective of the four side equations
    (pixels^2); ``reprojection_error`` the summed squared mismatch between
    the tight rectangle of the re-projected box and the input rectangle.
    """

    translation: np.ndarray
    configuration: Configuration
    residual: float
    reprojection_error: float


class BatchLiftResult(NamedTuple):
    """Per-record outcome of ``lift_batch``; every array is indexed by record.

    ``outcome[i]`` is ``"lifted"`` or a key of ``FAILURES``. A lifted
    record's row holds what ``lift`` returns: translation (3,), the four
    corner indices of its configuration, residual and reprojection error.
    A failed record's row holds NaN and -1.
    """

    translation: np.ndarray  # (N, 3)
    configuration: np.ndarray  # (N, 4) intp
    residual: np.ndarray  # (N,)
    reprojection_error: np.ndarray  # (N,)
    outcome: np.ndarray  # (N,) str
    n_configurations: int

    def result(self, i):
        """Record ``i`` as the scalar ``lift`` returns it.

        Raises:
            ValueError, NoFeasibleConfigurationError: the failure ``lift``
                raises for this record, with the same message.
        """
        outcome = str(self.outcome[i])
        if outcome != LIFTED:
            error, message = FAILURES[outcome]
            raise error(message.format(count=self.n_configurations))
        return LiftResult(
            translation=self.translation[i],
            configuration=Configuration(*self.configuration[i].tolist()),
            residual=float(self.residual[i]),
            reprojection_error=float(self.reprojection_error[i]),
        )


class _Family(NamedTuple):
    """A mode's corner assignments and the right-hand-side columns they gather.

    ``columns[side]`` is ``configs[:, side] + 8 * side``: the index of each
    candidate's right-hand side for that side in a record's flattened
    (side, corner) table of 32.
    """

    configs: np.ndarray  # (C, 4)
    columns: np.ndarray  # (4, C)


def _family(configs):
    configs = np.asarray(configs, dtype=np.intp)
    columns = (configs + 8 * np.arange(4)).T.copy()
    configs.flags.writeable = columns.flags.writeable = False  # shared by every lift
    return _Family(configs, columns)


def _configuration_array(left, right, top, bottom=None):
    """The family of every (left, right, top, bottom) combination, left slowest.

    Without ``bottom`` the bottom corner is the top corner's antipode,
    7 - top.
    """
    sides = (left, right, top) if bottom is None else (left, right, top, bottom)
    rows = np.stack(np.meshgrid(*sides, indexing="ij"), axis=-1).reshape(-1, len(sides))
    if bottom is None:
        rows = np.column_stack([rows, 7 - rows[:, 2]])
    return _family(rows)


_CONFIGURATIONS = {
    ConstraintMode.GENERAL: _configuration_array(range(8), range(8), range(8), range(8)),
    ConstraintMode.UPRIGHT: _configuration_array(
        range(8), range(8), TOP_CORNERS, BOTTOM_CORNERS
    ),
    ConstraintMode.UPRIGHT_ZERO_ROLL: _configuration_array(
        BOTTOM_CORNERS, BOTTOM_CORNERS, TOP_CORNERS, BOTTOM_CORNERS
    ),
    ConstraintMode.KITTI_ZERO_PITCH_ROLL: _configuration_array(
        BOTTOM_CORNERS, BOTTOM_CORNERS, TOP_CORNERS
    ),
}


def _configurations(mode):
    if mode not in _CONFIGURATIONS:
        raise ValueError(f"unknown constraint mode: {mode!r}")
    return _CONFIGURATIONS[mode]


def enumerate_configurations(mode):
    """All admissible corner-to-side assignments for ``mode``, in a fixed order."""
    return [Configuration(*row) for row in _configurations(mode).configs.tolist()]


# Per side, in (left, right, top, bottom) order: the intrinsics row that
# produces its pixel coordinate (u for left and right, v for top and
# bottom) and the rectangle column holding that coordinate.
_SIDE_ROWS = np.array([0, 0, 1, 1])
_SIDE_COLUMNS = np.array([0, 2, 1, 3])
# Outcome label by (rotation ok, rank ok, some candidate feasible) as 0/1
# indices: lifted when all three hold, else the first failed check in
# FAILURES order.
_OUTCOMES = np.array([LIFTED, *FAILURES])[[[[1, 1], [1, 1]], [[2, 2], [3, 0]]]]


def _solve(k, rotations, dims, rects, family):
    """Solve and rank every configuration of ``family`` for N records.

    The inputs are float arrays of the shapes ``lift_batch`` checks.
    """
    configs, columns = family
    n, c = len(rects), len(configs)
    # Per record: side rows k_row - s * k3, their pseudo-inverse, the
    # rotated corners and every side's right-hand side for every corner.
    a = k[:, _SIDE_ROWS] - rects[:, _SIDE_COLUMNS, None] * k[:, None, 2]  # (N, 4, 3)
    left, s, vt = np.linalg.svd(a, full_matrices=False)
    rank_ok = s[:, -1] > RANK_TOLERANCE
    s = np.where(rank_ok[:, None], s, 1.0)  # keeps failed records' rows finite
    pinv = (vt.swapaxes(1, 2) / s[:, None, :]) @ left.swapaxes(1, 2)  # (N, 3, 4)
    rotated = rotated_corners(dims, rotations)  # (N, 8, 3)
    # -a_side . (R X_corner), flattened to (side, corner) columns.
    rhs = -(a @ rotated.swapaxes(1, 2)).reshape(n, 32)
    # K (R X + T) = K R X + K T; the third row is the depth (K's third row
    # is (0, 0, 1)), the first two give u and v. The corners are held
    # corner-major and the candidates side-major, (m, side, C), so every
    # pass over the (8, m, C) corner slabs reads unit-stride memory.
    corners_uv = rotated @ k[:, :2].swapaxes(1, 2)  # (N, 8, 2)
    corners_u, corners_v = corners_uv.transpose(2, 1, 0).copy()  # (8, N) each
    corners_z = rotated[:, :, 2].T.copy()
    # A candidate is feasible if its nearest corner is in front of the
    # camera. Rounding is monotonic, so min_j fl(z_j + t) = fl(min_j z_j + t)
    # and this equals the minimum over all eight corner depths.
    nearest_z = corners_z.min(axis=0)

    translation = np.empty((n, 3))
    configuration = np.empty((n, 4), dtype=np.intp)
    residual = np.empty(n)
    reprojection = np.empty(n)
    any_feasible = np.empty(n, dtype=bool)
    step = max(1, CHUNK_CANDIDATES // max(c, 1))
    # Records that already failed go through the same arithmetic on
    # meaningless rows, which are overwritten below.
    with np.errstate(all="ignore"):
        for lo in range(0, n, step):
            chunk = slice(lo, lo + step)
            b = np.take(rhs[chunk], columns, axis=1)  # (m, 4, C)
            t = pinv[chunk] @ b  # (m, 3, C)
            d = a[chunk] @ t
            d -= b
            d *= d
            res = d[:, 0] + d[:, 1] + d[:, 2] + d[:, 3]
            del b, d  # freed before the (8, m, C) slabs
            t_z = t[:, 2]
            t_u, t_v = (k[chunk, :2] @ t).swapaxes(0, 1)  # (m, C) each
            feasible = nearest_z[chunk, None] + t_z > 0

            # Re-projected corners: u, then v in the same (8, m, C) slab,
            # and the squared mismatch of their tight rectangle, summed in
            # (x_min, y_min, x_max, y_max) order.
            depth = corners_z[:, chunk, None] + t_z
            slab = corners_u[:, chunk, None] + t_u
            slab /= depth
            u_min, u_max = slab.min(axis=0), slab.max(axis=0)
            np.add(corners_v[:, chunk, None], t_v, out=slab)
            slab /= depth
            r = rects[chunk, None]
            rep = (
                (u_min - r[..., 0]) ** 2
                + (slab.min(axis=0) - r[..., 1]) ** 2
                + (u_max - r[..., 2]) ** 2
                + (slab.max(axis=0) - r[..., 3]) ** 2
            )
            rep = np.where(feasible, rep, np.inf)
            res = np.where(feasible, res, np.inf)

            # Lowest reprojection error, then lowest residual, then lowest
            # index (argmin returns the first of equal values).
            tied = rep == rep.min(axis=1, keepdims=True)
            best = np.argmin(np.where(tied, res, np.inf), axis=1)
            rows = np.arange(len(best))
            translation[chunk] = t[rows, :, best]
            configuration[chunk] = configs[best]
            residual[chunk] = res[rows, best]
            reprojection[chunk] = rep[rows, best]
            any_feasible[chunk] = feasible.any(axis=1)

    rotations_ok = are_rotations(rotations)
    checks = rotations_ok.astype(np.intp), rank_ok.astype(np.intp), any_feasible.astype(np.intp)
    outcome = _OUTCOMES[checks]
    ok = rotations_ok & rank_ok & any_feasible
    if not ok.all():
        failed = ~ok
        translation[failed] = np.nan
        configuration[failed] = -1
        residual[failed] = np.nan
        reprojection[failed] = np.nan
    return BatchLiftResult(translation, configuration, residual, reprojection, outcome, c)


def lift_batch(intrinsics, rotations, dims, rects, mode=ConstraintMode.KITTI_ZERO_PITCH_ROLL):
    """Lift N records at once: the batched form of ``lift``.

    Args:
        intrinsics: (N, 3, 3) intrinsics matrices.
        rotations: (N, 3, 3) object-to-camera rotations.
        dims: (N, 3) extents (dx, dy, dz), meters.
        rects: (N, 4) tight rectangles (x_min, y_min, x_max, y_max), pixels.
        mode: constraint mode shared by every record.

    Returns:
        BatchLiftResult: record i's row, and ``result(i)``, hold what
        ``lift`` returns or raises for record i.

    Raises:
        ValueError: if the shapes disagree, ``mode`` is unknown, an
            intrinsics, dims or rects entry is not finite, or an intrinsics
            matrix's third row is not (0, 0, 1).
    """
    k = np.asarray(intrinsics, dtype=float)
    rotations = np.asarray(rotations, dtype=float)
    dims = np.asarray(dims, dtype=float)
    rects = np.asarray(rects, dtype=float)
    n = rects.shape[0] if rects.ndim == 2 else -1
    shapes = (k.shape, rotations.shape, dims.shape, rects.shape)
    if shapes != ((n, 3, 3), (n, 3, 3), (n, 3), (n, 4)):
        raise ValueError(
            "expected intrinsics and rotations (N, 3, 3), dims (N, 3) and "
            f"rects (N, 4), got {shapes}"
        )
    if not (np.isfinite(k).all() and np.isfinite(dims).all() and np.isfinite(rects).all()):
        raise ValueError("intrinsics, dims and rects must be finite")
    if not (k[:, 2] == (0.0, 0.0, 1.0)).all():
        raise ValueError("intrinsics must have (0, 0, 1) as their third row")
    return _solve(k, rotations, dims, rects, _configurations(mode))


def _one_record(intrinsics, rotation, dims, box2d):
    """The N = 1 batch of a scalar call."""
    rotation = np.asarray(rotation, dtype=float)
    if rotation.shape != (3, 3):
        raise ValueError(FAILURES["bad_rotation"][1])
    return intrinsics.matrix[None], rotation[None], dims.as_array[None], box2d.as_array[None]


def solve_translation(intrinsics, rotation, dims, box2d, configuration):
    """Least-squares translation for one corner-to-side assignment.

    Returns:
        (translation (3,), residual): the minimizer of the four side
        equations and the squared objective value in pixels^2.

    Raises:
        ValueError: if ``rotation`` is not a rotation matrix.
        InfeasibleConfigurationError: if the system is rank-deficient
            (smallest singular value <= 1e-10) or the recovered translation
            places any box corner at or behind the camera.
    """
    # The configuration twice: numpy multiplies a single candidate through
    # a matrix-vector BLAS routine, whose sums round differently from the
    # matrix products ``lift`` ranks, so one candidate would not reproduce
    # its translation bit for bit.
    family = _family([tuple(configuration)] * 2)
    batch = _solve(*_one_record(intrinsics, rotation, dims, box2d), family)
    if batch.outcome[0] == "all_infeasible":
        raise InfeasibleConfigurationError(
            "recovered translation places the box at or behind the camera"
        )
    try:
        result = batch.result(0)
    except NoFeasibleConfigurationError as exc:
        raise InfeasibleConfigurationError(str(exc)) from None
    return result.translation, result.residual


def lift(intrinsics, rotation, dims, box2d, mode=ConstraintMode.KITTI_ZERO_PITCH_ROLL):
    """Recover the translation that best explains a tight detection rectangle.

    Solves every admissible configuration of ``mode``, discards infeasible
    ones, and returns the candidate whose re-projected tight rectangle best
    matches ``box2d``. Ties are broken by smaller least-squares residual,
    then by enumeration order, making the choice deterministic.

    Raises:
        ValueError: if ``rotation`` is not a rotation matrix.
        NoFeasibleConfigurationError: if no configuration is feasible.
    """
    batch = _solve(*_one_record(intrinsics, rotation, dims, box2d), _configurations(mode))
    return batch.result(0)
