"""Recover translation from a 2D detection box, known rotation and extents.

Each side of a tight 2D detection rectangle is touched by the projection of
at least one 3D box corner. Assigning one corner to each side turns the
tight-fit requirement into four linear equations in the translation T:
for a side with pixel coordinate s and assigned corner X,

    (k_row - s * k3) . (R X + T) = 0

where k_row is the intrinsics row producing that coordinate (first row for
the vertical sides x_min/x_max, second for the horizontal sides
y_min/y_max) and k3 the third row. The 4x3 system is solved by least
squares in closed form, one linear map shared by every corner assignment.

SIDE SOLVE
==========
K's third row is (0, 0, 1), so a_l - a_r = (0, 0, w) and a_t - a_b =
(0, 0, h) for the rectangle's width w and height h. Each pair's sum and
difference over sqrt(2) is an orthogonal transform, which keeps the
minimiser, and the sum rows are met exactly for any t_z. With E = w^2 + h^2
and right-hand sides b_l, b_r, b_t, b_b:

    t_z = (w (b_l - b_r) + h (b_t - b_b)) / E
    (K T)_u = (b_l + b_r) / 2 + x_mid t_z,  (K T)_v = (b_t + b_b) / 2 + y_mid t_z
    residual = g^2 E / 2,  g = (h (b_l - b_r) - w (b_t - b_b)) / E

A record's (4, 4) side map takes a candidate's b's to ((K T)_u, (K T)_v,
t_z, g), all the ranking needs; each winner's t_y and t_x are then
back-substituted through the upper triangular K. Only a collapsed
rectangle, sqrt(E / 2) <= ``RANK_TOLERANCE``, is rank-deficient.

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
  corner to the top choice leaves 4 * 4 * 4 = 64 configurations. That
  holds when the rectangle lies wholly below the principal row (y_min >=
  c_y) or wholly above it (y_max <= c_y). A rectangle that straddles the
  row (y_min < c_y < y_max) belongs to a box whose top plane is above the
  camera and whose bottom plane is below it: its top and bottom sides are
  touched by the two corners of the nearest vertical edge, so such a
  record ties its bottom corner to the top one's edge instead (bottom =
  top - 2). It still solves 64 candidates, the straddle family, and
  reports bottom = top - 2; ``enumerate_configurations`` lists the
  antipodal family only.

Each mode's family is a subset of the previous one, so relaxing the mode
never loses the optimum it would have found. Each family is a (C, 4)
index array, built once at import together with the columns its
candidates gather (see BATCHES).

Only the near half of a family is solved. With u_j the pixel coordinate
of corner j and z_j its depth, side s's row a_s = k_row - s * k3 gives
a_s . (R X_j + T) = z_j (u_j - s). On a noise-free tight rectangle every
corner lies on the inner side of each side and in front of the camera, so z_j (u_j - s) is >= 0 for
the left and top sides and <= 0 for the right and bottom sides, and is 0
for the touching corner. The term a_s . T is the same for every corner, so
the corner touching a left or top side has the least a_s . R X_j and the
one touching a right or bottom side the largest. Box corners come in
antipodal pairs, X_{7-j} = -X_j, so a_s . R X_{7-j} = -a_s . R X_j, and the
touching corner is always the near member of its pair: the one with
a_s . R X_j < 0 on a left or top side and > 0 on a right or bottom side
(j < 4 when the value is exactly 0). On every side where a family admits
both corners of every pair (all four in GENERAL, left and right in
UPRIGHT), a record solves only its four near corners, in ascending order,
so its candidates keep the family's order and its ties break as over the
whole family. On noisy rectangles this is no proof; the tests pin that the
choice is the whole family's, bit for bit, on noisy boxes. GENERAL and
UPRIGHT then solve 256 candidates a record, UPRIGHT_ZERO_ROLL and
KITTI_ZERO_PITCH_ROLL (one corner of each pair per side already) their
256 and 64. ``enumerate_configurations`` lists the
whole family; ``BatchLiftResult.n_configurations`` and the count in
``"all {count} configurations infeasible"`` are the candidates solved.

BATCHES
=======
``lift_batch`` lifts N records in one numpy pass; each record brings its
own intrinsics, rotation, extents and rectangle. Once per record: the
rotation check, the side map, K R X of the corners and from it the depth
bound and the right-hand side s z - (K R X)_row of every corner on every
side, a table of 32 (side, slot) entries. Slot j is corner j, except on a
family's near sides, where each record puts its four near corners,
ascending, in slots 0-3, and on the bottom side of a straddling
KITTI_ZERO_PITCH_ROLL record, where slot j is corner 5 - j (mod 8), so the
family's bottom slot 7 - top reads corner top - 2. Candidates are solved in
chunks of ``CHUNK_CANDIDATES`` candidates or one record, whichever is more,
by the same numpy calls whatever a chunk holds: one ``take`` of the family's
columns (slot + 8 * side, built at import) gathers (records, side, C)
right-hand sides, one product with the side maps gives (K T)_u, (K T)_v, t_z
and g, one (3, 8, records * C) slab of each record's corners, repeated once
a candidate, re-projects them, one squared (bound, records, C) array sums
the reprojection error in (x_min, y_min, x_max, y_max) order, and one
``argmin`` of the key error + 1j g^2 ranks them. A candidate is feasible
when t_z > -min_j z_j: exactly fl(min_j z_j + t_z) > 0, which, rounding
being monotonic, decides what all eight corner depths would. Only winners
are back-substituted. Every record ends in one outcome: ``lifted``, or a
failure code of ``FAILURES`` carrying the message the scalar ``lift``
raises; ``lift`` and ``solve_translation`` are the N = 1 case of the same code.
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleConfigurationError, NoFeasibleConfigurationError
from .geometry import BOTTOM_CORNERS, TOP_CORNERS, _are_rotations, rotated_corners

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

# Candidates (records x solved candidates) solved at once, but at least one
# record: 16 records of GENERAL, UPRIGHT or UPRIGHT_ZERO_ROLL (256
# candidates each) a chunk, 64 of KITTI_ZERO_PITCH_ROLL. It bounds the
# (8, records * C) work arrays and so the peak memory: 256 KB a plane, three
# for the u, v and depth slab. Measured when a GENERAL record solved all 4096
# candidates: against 1024, 4096 read lift_records_per_s 7.7 % higher on
# perfbench road (16 790 against 15 590 records/s, medians of 5 alternating
# 20 s pairs, seeds 121-125, 5 of 5 won) with frame times, toy rate and
# peak_rss_mb unchanged; general, one record a chunk either way, read 1692
# against 1698 (seeds 101-105). 2 vCPUs, numpy 2.4, one BLAS thread.
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
    A failed record's row holds NaN and -1. ``n_configurations`` is the
    number of candidates each record solved (see CONSTRAINT MODES).
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
        outcome = self.outcome.item(i)
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
    """A mode's corner assignments and the candidates a record solves for it.

    ``configs`` is the whole family, in ``enumerate_configurations`` order.
    ``near[side]`` marks a side whose corners include both members of every
    antipodal pair (j, 7 - j); a record solves only its near member there
    (see CONSTRAINT MODES). ``slots`` holds the solved candidates: on a near
    side, slot j < 4 stands for the record's j-th near corner in ascending
    order, on any other side for corner j. ``columns[side]`` is
    ``slots[:, side] + 8 * side``, the index of each candidate's right-hand
    side for that side in a record's flattened (side, slot) table of 32.
    ``tied`` marks a family whose bottom corner is the top corner's
    antipode; a record that straddles the principal row reads its bottom
    slots through the straddle row of ``_NEAR_SLOTS`` instead.
    """

    configs: np.ndarray  # (C, 4)
    near: np.ndarray  # (4,) bool
    slots: np.ndarray  # (C', 4), C' = C / 2 ** near.sum()
    columns: np.ndarray  # (4, C')
    tied: bool


def _family(configs, tied=False):
    configs = np.asarray(configs, dtype=np.intp)
    admitted = np.zeros((4, 8), dtype=bool)
    admitted[np.arange(4), configs] = True  # (side, corner)
    near = (admitted == admitted[:, ::-1]).all(axis=1)  # closed under j -> 7 - j
    slots = configs[(configs[:, near] < 4).all(axis=1)]  # slots 0-3 on near sides
    columns = (slots + 8 * np.arange(4)).T.copy()
    for array in (configs, near, slots, columns):
        array.flags.writeable = False  # shared by every lift
    return _Family(configs, near, slots, columns, tied)


def _configuration_array(left, right, top, bottom=None):
    """The family of every (left, right, top, bottom) combination, left slowest.

    Without ``bottom`` the bottom corner is the top corner's antipode,
    7 - top.
    """
    sides = (left, right, top) if bottom is None else (left, right, top, bottom)
    rows = np.stack(np.meshgrid(*sides, indexing="ij"), axis=-1).reshape(-1, len(sides))
    if bottom is None:
        rows = np.column_stack([rows, 7 - rows[:, 2]])
    return _family(rows, tied=bottom is None)


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
# bottom), the rectangle column holding that coordinate, and +1 for a side
# touched where a_side . R X is least (left, top), -1 where it is largest.
_SIDE_ROWS = np.array([0, 0, 1, 1])
_SIDE_COLUMNS = np.array([0, 2, 1, 3])
_SIDE_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
_SIDES = np.arange(4)
# rect @ _RECT_FACTORS + _RECT_ONES is (x_mid, y_mid, 1, 1, w, h, -w, -h);
# side map row r (see SIDE SOLVE) is its entry r times its entries
# _MAP_COLUMNS[r], over E, plus _MAP_OFFSETS[r].
_MID, _SIZE = np.array([[1, 0, 1, 0], [0, 1, 0, 1]]) / 2, np.array([[-1, 0, 1, 0], [0, -1, 0, 1]])
_RECT_FACTORS = np.vstack([_MID, np.zeros((2, 4)), _SIZE, -_SIZE]).T
_RECT_ONES = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
_MAP_COLUMNS = np.array([[4, 6, 5, 7]] * 3 + [[5, 7, 6, 4]])
_MAP_OFFSETS = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0] * 4, [0] * 4]) / 2
# A near side's slot corners by the bit mask of its far lower corners (bit
# j set: 7 - j is near, not j): the near member of each pair (j, 7 - j),
# ascending, then 4-7, which no candidate reads. Row 16, the identity, is
# every other side's; row 17, corner 5 - j (mod 8), a straddling record's
# bottom side in a tied family: slot 7 - top is corner top - 2.
_PAIR_BITS = 1 << np.arange(4)
_NEAR_SLOTS = np.array(
    [sorted(7 - j if mask >> j & 1 else j for j in range(4)) + [4, 5, 6, 7] for mask in range(16)]
    + [list(range(8)), [(5 - j) % 8 for j in range(8)]]
)
# Outcome label by (rotation ok, rank ok, some candidate feasible) as 0/1
# indices: lifted when all three hold, else the first failed check in
# FAILURES order.
_OUTCOMES = np.array([LIFTED, *FAILURES])[[[[1, 1], [1, 1]], [[2, 2], [3, 0]]]]


def _slot_corners(rhs, near, straddle):
    """The corner each (side, slot) of a record's table stands for, (N, 4, 8).

    ``rhs`` (N, 4, 8) holds -a_side . R X_corner. On a ``near`` side, slots
    0-3 hold the near member of the pairs (j, 7 - j) in ascending order: j,
    unless the sign of ``rhs`` puts j on the far half; a value of exactly 0
    (or NaN) keeps j. On the bottom side of a record that ``straddle`` (an
    (N,) mask, or False) marks, slot j is corner 5 - j (mod 8). On any other
    side slot j is corner j.
    """
    rows = np.where(near, (rhs[:, :, :4] * _SIDE_SIGNS < 0) @ _PAIR_BITS, 16)
    rows[:, 3] = np.where(straddle, 17, rows[:, 3])
    return _NEAR_SLOTS[rows]


@np.errstate(all="ignore")
def _solve(k, rotations, dims, rects, family):
    """Solve and rank the candidates of ``family`` for N records.

    The inputs are float arrays of the shapes ``lift_batch`` checks.
    """
    configs, near, slots, columns, tied = family
    n, c = len(rects), len(slots)
    # Failed records go through the same arithmetic on meaningless rows, which
    # are overwritten below; errstate keeps that arithmetic's warnings quiet.
    rotations_ok = _are_rotations(rotations)
    corners = rotated_corners(dims, rotations) @ k.swapaxes(1, 2)  # (N, corner, u/v/depth)
    rhs = rects[:, _SIDE_COLUMNS, None] * corners[:, None, :, 2]
    rhs -= corners[:, :, _SIDE_ROWS].swapaxes(1, 2)
    projected = corners.T.copy()  # contiguous (u/v/depth, corner, N) planes
    c_y = k[:, 1, 2]
    straddle = tied and (rects[:, 1] < c_y) & (c_y < rects[:, 3])
    slot_corners = None
    if c < len(configs) or np.count_nonzero(straddle):  # a near half, or a straddling record
        slot_corners = _slot_corners(rhs, near, straddle)  # (N, side, slot)
        rhs = rhs[np.arange(n)[:, None, None], _SIDES[:, None], slot_corners]
    rhs = rhs.reshape(n, 32)
    factors = rects @ _RECT_FACTORS + _RECT_ONES
    spread = (factors[:, 4:6] ** 2).sum(axis=1)  # E
    rank_ok = spread > 2.0 * RANK_TOLERANCE**2  # singular value sqrt(E / 2) > tolerance
    side_map = factors[:, :4, None] * (factors[:, _MAP_COLUMNS] / spread[:, None, None])
    side_map += _MAP_OFFSETS  # (N, 4, 4)
    behind = projected[2].max(axis=0)  # -min_j z_j, as z_{7-j} = -z_j; feasible: t_z > behind
    # Each record's winner: (K T)_u, (K T)_v and t_z, then its translation; its key; its index.
    won, ranked, best = np.empty((n, 3)), np.empty(n, dtype=complex), np.empty(n, dtype=np.intp)
    step = max(1, CHUNK_CANDIDATES // c)
    for lo in range(0, n, step):
        chunk = slice(lo, lo + step)
        solved = side_map[chunk] @ rhs[chunk].take(columns, axis=1)  # (m, 4, C)
        # A (3, 8, m C) slab, each record's corners once a candidate: u + (K T)_u,
        # v + (K T)_v and depth + t_z; then the re-projected box's tight rectangle.
        slab = projected[:, :, chunk].repeat(c, axis=2)
        slab += solved.swapaxes(0, 1)[:3].reshape(3, 1, -1)
        uv = slab[:2]
        uv /= slab[2]
        mismatch = np.empty((4, len(solved), c))
        np.minimum.reduce(uv, axis=1, out=mismatch[:2].reshape(2, -1))
        np.maximum.reduce(uv, axis=1, out=mismatch[2:].reshape(2, -1))
        del slab, uv  # freed before the next chunk's slab takes its place
        mismatch -= rects.T[:, chunk, None]  # x_min, y_min, x_max, y_max
        mismatch *= mismatch
        # The key error + 1j g^2: complex numbers order lexicographically, so argmin takes the
        # lowest error, then residual, then index. With none feasible the record fails below.
        key = np.empty((len(solved), c), dtype=complex)
        np.add.reduce(mismatch, out=key.real)
        np.putmask(key.real, ~(solved[:, 2] > behind[chunk, None]), np.inf)  # NaN is infeasible
        np.square(solved[:, 3], out=key.imag)
        pick = key.argmin(axis=1)
        rows = np.arange(len(pick))
        won[chunk], ranked[chunk], best[chunk] = solved[rows, :3, pick], key[rows, pick], pick

    k_u, k_v, t_z = won.T  # views of the winners' rows
    feasible = t_z > behind
    ok = rotations_ok & rank_ok & feasible
    configuration = slots.take(best, axis=0)
    if slot_corners is not None:
        configuration = slot_corners[np.arange(n)[:, None], _SIDES, configuration]
    if np.count_nonzero(ok) == n:
        outcome = _OUTCOMES[1:, 1:, 1].repeat(n)  # all lifted
    else:  # a failed record's row holds NaN and -1
        outcome = _OUTCOMES[tuple(np.array([rotations_ok, rank_ok, feasible], dtype=np.intp))]
        won[~ok], ranked[~ok], configuration[~ok] = np.nan, complex(np.nan, np.nan), -1
    np.divide(k_v - c_y * t_z, k[:, 1, 1], out=k_v)  # t_y, back-substituted through K
    np.divide(k_u - k[:, 0, 1] * k_v - k[:, 0, 2] * t_z, k[:, 0, 0], out=k_u)  # t_x
    residual = ranked.imag * spread / 2
    return BatchLiftResult(won, configuration, residual, ranked.real, outcome, c)


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
        ValueError: if the shapes disagree, ``mode`` is unknown, an entry is
            not finite, an extent or focal length is not positive, an
            intrinsics matrix is not upper triangular with third row (0, 0, 1),
            or a rectangle is inverted (x_min > x_max or y_min > y_max).
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
    if not ((k[:, 2] == (0.0, 0.0, 1.0)).all() and (k[:, 1, 0] == 0.0).all()):
        raise ValueError("intrinsics must be upper triangular with (0, 0, 1) as their third row")
    if not ((k[:, (0, 1), (0, 1)] > 0.0).all() and (dims > 0.0).all()):
        raise ValueError("focal lengths and extents must be positive")
    if not (rects[:, :2] <= rects[:, 2:]).all():
        raise ValueError("rects must have x_min <= x_max and y_min <= y_max")
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
            (a collapsed rectangle, see SIDE SOLVE) or the recovered translation
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

    Solves the admissible configurations of ``mode`` that can touch the
    rectangle (on sides where the family admits both corners of an
    antipodal pair, only the near one; see the module docstring), discards
    infeasible ones, and returns the candidate whose re-projected tight
    rectangle best matches ``box2d``. Ties are broken by smaller
    least-squares residual, then by enumeration order, making the choice
    deterministic.

    Raises:
        ValueError: if ``rotation`` is not a rotation matrix.
        NoFeasibleConfigurationError: if no configuration is feasible; the
            message counts the candidates solved.
    """
    batch = _solve(*_one_record(intrinsics, rotation, dims, box2d), _configurations(mode))
    return batch.result(0)
