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
  top - 2). Its straddle family has as many configurations, and it
  reports bottom = top - 2; ``enumerate_configurations`` lists the
  antipodal family only.

Each mode's family is a subset of the previous one, so relaxing the mode
never loses the optimum it would have found. Each family is a (C, 4)
index array, built once at import together with the columns its
candidates gather (see BATCHES).

Only the near half of a family is solved. With u_j the pixel coordinate
of corner j and z_j its depth, side s's row a_s = k_row - s * k3 gives
a_s . (R X_j + T) = z_j (u_j - s). On a noise-free tight rectangle every
corner lies on the inner side of each side and in front of the camera, so
z_j (u_j - s) is >= 0 for the left and top sides and <= 0 for the right
and bottom sides, and is 0 for the touching corner. The term a_s . T is
the same for every corner, so the corner touching a left or top side has
the least a_s . R X_j of all eight corners and the one touching a right or
bottom side the largest. Whichever pair of admitted corners (j, j') the
touching corner belongs to, it is then the pair's near member: the one
with the smaller a_s . R X on a left or top side and the larger on a right
or bottom side, the lower corner j < j' on a tie. Two pairings are used:

- Antipodes (j, 7 - j), j < 4, on every side that admits all eight
  corners (all four in GENERAL, left and right in UPRIGHT). Box corners
  are antipodal, X_{7-j} = -X_j, so a_s . R X_{7-j} = -a_s . R X_j: the
  near member is j unless a_s . R X_j is > 0 on a left or top side or
  < 0 on a right or bottom side, and a value of exactly 0 keeps j.
- The bottom face's horizontal diagonals (0, 5) and (1, 4), that is
  (j, j ^ 5), on the left and right sides of UPRIGHT_ZERO_ROLL and
  KITTI_ZERO_PITCH_ROLL, which admit the bottom corners {0, 1, 4, 5}.

The top and bottom sides of those two modes stay whole. Their diagonals
(2, 7) and (3, 6) obey the same argument on a tight rectangle, but when
the top face is at camera height every top corner's a_top . R X is the
same, and keeping the lower corner of that tie loses the true assignment;
the tied bottom corner cannot break it, as deciding the top and bottom
pair on both sides' summed evidence changes the choice on tilted records.

A record solves only its near corners of each paired side, in ascending
order, so its candidates keep the family's order and its ties break as
over the whole family. On noisy rectangles this is no proof; the tests pin
that the choice is the whole family's, bit for bit, on noisy, tilted and
straddling boxes wherever the whole family's winner is a near corner. It
can be a far corner only where no box of the family fits the rectangle
tightly: a thin box tilted out of a zero-roll family's model, a rectangle
clipped at the image border, a random rectangle. A record solves 256, 256,
64 and 16 candidates in GENERAL, UPRIGHT, UPRIGHT_ZERO_ROLL and
KITTI_ZERO_PITCH_ROLL, alone or in a batch of any size, so its lift does
not depend on the records that share its call. ``enumerate_configurations``
lists the whole family; ``BatchLiftResult.n_configurations`` and the
count in ``"all {count} configurations infeasible"`` count the candidates
a record solved.

BATCHES
=======
``lift_batch`` lifts N records in one numpy pass; each record brings its
own intrinsics, rotation, extents and rectangle. Once per record: a row of
checks in FAILURES order (the rotation's ten, the rank, feasibility, then
one that always fails, so one ``argmin`` names the outcome); K R X of the
corners, from it the depth bound and the right-hand side s z - (K R X)_row
of every corner on every side, a table of 32 (side, slot) entries; and the
side map, one gather of the rectangle's (x_mid, y_mid, w, h, -w, -h) over
E. Slot j is corner j, except on a family's paired sides, where each record
puts its near corners, ascending, in slots 0-3 (antipodes) or 0-1
(diagonals), and on the bottom side of a straddling KITTI_ZERO_PITCH_ROLL
record, where slot j is corner 5 - j (mod 8): the family's bottom slot
7 - top reads corner top - 2. Each family builds, once at import, the slot
order of every state a side can be in (which member of each pair is near,
and whether it is a straddling bottom side) and each side's first state
row, so a record's slots cost one comparison of its table's pairs, one
lookup and one gather whatever its mode. Candidates are solved in chunks of
``CHUNK_CANDIDATES`` candidates or one record, whichever is more, by the
same numpy calls whatever a chunk holds: one ``take`` of the family's
columns (slot + 8 * side) gathers (records, side, C) right-hand sides, one
product with the side maps gives the planes (K T)_u, (K T)_v, t_z and g,
one (3, 8, records * C) slab of each record's corners, repeated once a
candidate, re-projects them, one squared (bound, records, C) array sums the
reprojection error in (x_min, y_min, x_max, y_max) order, one ``argmin`` of
the key error + 1j g^2 ranks them, and one flat index a record takes its
winner. A candidate is feasible when t_z > -min_j z_j: exactly
fl(min_j z_j + t_z) > 0, which, rounding being monotonic, decides what all
eight corner depths would. Every record ends in one outcome: ``lifted``, or
a failure code of ``FAILURES`` with the message the scalar ``lift`` raises;
``lift`` and ``solve_translation`` are the N = 1 case of the same code.
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleConfigurationError, NoFeasibleConfigurationError
from .geometry import BOTTOM_CORNERS, TOP_CORNERS, _rotation_checks, rotated_corners

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
# record: 16 records of GENERAL or UPRIGHT (256 candidates each) a chunk,
# 64 of UPRIGHT_ZERO_ROLL (64 each) and 256 of KITTI_ZERO_PITCH_ROLL (16
# each). It bounds the (8, records * C) work arrays and so the peak memory:
# 256 KB a plane, three for the u, v and depth slab. Against 1024, 4096 read
# perfbench road's lift_records_per_s 7.7 % higher (2 vCPUs, numpy 2.4).
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
    number of candidates each record solved, the count that a failure's
    message gives (see CONSTRAINT MODES).
    """

    translation: np.ndarray  # (N, 3)
    configuration: np.ndarray  # (N, 4) intp
    residual: np.ndarray  # (N,)
    reprojection_error: np.ndarray  # (N,)
    outcome: np.ndarray  # (N,) str
    n_configurations: int

    def message(self, outcome):
        """The message of failure ``outcome`` (a key of ``FAILURES``) for a
        record of this batch, as ``lift`` raises it."""
        return FAILURES[outcome][1].format(count=self.n_configurations)

    def result(self, i):
        """Record ``i`` as the scalar ``lift`` returns it.

        Raises:
            ValueError, NoFeasibleConfigurationError: the failure ``lift``
                raises for this record, with the same message.
        """
        outcome = self.outcome.item(i)
        if outcome != LIFTED:
            raise FAILURES[outcome][0](self.message(outcome))
        return LiftResult(
            self.translation[i],
            Configuration._make(self.configuration[i].tolist()),
            self.residual.item(i),
            self.reprojection_error.item(i),
        )


# Per side, in (left, right, top, bottom) order: the intrinsics row that
# produces its pixel coordinate (u for left and right, v for top and
# bottom), the rectangle column holding that coordinate, and +1 for a side
# touched where a_side . R X is least (left, top), -1 where it is largest.
_SIDE_ROWS = np.array([0, 0, 1, 1])
_SIDE_COLUMNS = np.array([0, 2, 1, 3])
_SIDE_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
_SIDES = np.arange(4)
# rect @ _RECT_FACTORS is (x_mid, y_mid, w, h, -w, -h); side map row r (see
# SIDE SOLVE) is its entries _MAP_COLUMNS[r] over E, times x_mid on row 0 and
# y_mid on row 1, plus _MAP_OFFSETS[r], which also makes a zero entry +0.0.
_MID, _SIZE = np.array([[1, 0, 1, 0], [0, 1, 0, 1]]) / 2, np.array([[-1, 0, 1, 0], [0, -1, 0, 1]])
_RECT_FACTORS = np.vstack([_MID, _SIZE, -_SIZE]).T
_MAP_COLUMNS = np.array([[2, 4, 3, 5]] * 3 + [[3, 5, 4, 2]])
_MAP_OFFSETS = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0] * 4, [0] * 4]) / 2
# Corner j < count pairs with corner j ^ flip: the antipodes (j, 7 - j) pair
# all eight corners, the bottom face's diagonals (0, 5) and (1, 4) the bottom
# corners (see CONSTRAINT MODES).
_PAIRINGS = {7: 4, 5: 2}
_PAIRED = ((7, 5), (7, 5), (7,), (7,))  # the flips each side is offered
# A record side's state, its row in a family's slot tables: 32 * side, plus
# bit j where pair j's near member is the partner, plus 16 on a straddling
# bottom side.
_PAIR_BITS, _STRADDLE_BIT = 1 << np.arange(4), 16
# A record's checks in FAILURES order: the rotation's ten, the rank and some candidate's
# feasibility, then one that always fails. The first failed check names the outcome.
_CHECKS = np.repeat([*FAILURES, LIFTED], [10, 1, 1, 1])


class _Family(NamedTuple):
    """A mode's corner assignments and the candidates a record solves for it.

    ``configs`` is the whole family, in ``enumerate_configurations`` order.
    ``flips[side]`` is the pairing a side is solved by (see CONSTRAINT
    MODES): 7 on a side that admits every antipodal pair (j, 7 - j), 5 on
    one that admits the bottom face's diagonals (0, 5) and (1, 4), 0 on a
    side solved whole. A record solves only the near member of each pair
    (j, j ^ flip), j < ``_PAIRINGS[flip]``. ``pairs[:, side, j]`` index a
    record's flattened (side, corner) table of 32: pair j's near member is
    its partner j ^ flip where ``table[pairs[0]] > table[pairs[1]]``, and
    where j pairs with nothing both name corner j. A record side's state is
    32 * side, plus bit j where pair j's near member is the partner, plus 16
    on the bottom side of a straddling record of a ``tied`` family, whose
    bottom corner is the top corner's antipode; ``rows[straddle]`` holds
    all but the pair bits. Row ``state`` of ``corners`` holds the corner each
    slot stands for, and of ``flat`` its index in the record's table: on a
    paired side the near members, ascending, then the other corners, on a
    straddling bottom side corner 5 - slot (mod 8), else corner ``slot``.
    ``slots`` holds the solved candidates, and ``columns[side]`` is
    ``slots[:, side] + 8 * side``, the index of each candidate's right-hand
    side in the record's table in slot order.
    """

    configs: np.ndarray  # (C, 4)
    flips: np.ndarray  # (4,)
    pairs: np.ndarray  # (2, 4, 4)
    corners: np.ndarray  # (4 * 32, 8)
    flat: np.ndarray  # (4 * 32, 8)
    slots: np.ndarray  # (C', 4), C' = C / 2 ** (number of paired sides)
    columns: np.ndarray  # (4, C')
    tied: bool
    rows: np.ndarray  # (2, 4): each side's first state row, without and with a straddle


def _family(configs, tied=False, pairings=_PAIRED):
    """The ``_Family`` of ``configs``: each side is paired by the first flip
    of ``pairings[side]`` whose pairs are exactly the side's admitted
    corners, else solved whole."""
    configs = np.asarray(configs, dtype=np.intp)
    flips = np.zeros(4, dtype=np.intp)
    for side, offered in enumerate(pairings):
        admitted = set(configs[:, side].tolist())
        for flip in offered:
            lower = range(_PAIRINGS[flip])
            if admitted == {*lower, *(j ^ flip for j in lower)}:
                flips[side] = flip
                break
    count = np.array([_PAIRINGS.get(flip, 0) for flip in flips])
    low, corner, bits = np.arange(4), np.arange(8), np.arange(32)[:, None]
    own = low + 8 * _SIDES[:, None]
    partner = np.where(low < count[:, None], own ^ flips[:, None], own)
    # the partner is near where its -a . R X is the greater on a left or top side
    pairs = np.where(_SIDE_SIGNS > 0, [partner, own], [own, partner])
    # A corner of pair p is near when it is p and bit p is clear, or p's partner
    # and bit p is set; sorting near corners before the others gives the slots.
    pair = np.minimum(corner, corner ^ flips[:, None, None])
    near = (pair < count[:, None, None]) & ((corner != pair) == (bits >> pair & 1))
    corners = np.argsort(np.where(near, corner, corner + 8), axis=2)
    if tied:
        corners[3, _STRADDLE_BIT:] = (5 - corner) % 8
    flat = (corners + 8 * _SIDES[:, None, None]).reshape(128, 8)
    corners = corners.reshape(128, 8)
    slots = configs[(configs < np.where(count > 0, count, 8)).all(axis=1)]
    columns = (slots + 8 * _SIDES).T.copy()
    rows = 32 * _SIDES + [[0], [_STRADDLE_BIT * tied]] * (_SIDES == 3)
    for array in (configs, flips, pairs, corners, flat, slots, columns, rows):
        array.flags.writeable = False  # shared by every lift
    return _Family(configs, flips, pairs, corners, flat, slots, columns, tied, rows)


def _configuration_array(left, right, top, bottom=None):
    """The family of every (left, right, top, bottom) combination, left slowest.

    Without ``bottom`` the bottom corner is the top corner's antipode,
    7 - top.
    """
    sides = (left, right, top) if bottom is None else (left, right, top, bottom)
    rows = np.stack(np.meshgrid(*sides, indexing="ij"), axis=-1).reshape(-1, len(sides))
    if bottom is None:
        rows = np.column_stack([rows, 7 - rows[:, 2]])
    return _family(rows, bottom is None)


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
        named = mode in [known.value for known in ConstraintMode]
        example = f"ConstraintMode({mode!r})" if named else "ConstraintMode.KITTI_ZERO_PITCH_ROLL"
        raise ValueError(f"unknown constraint mode: {mode!r}; expected a ConstraintMode, such as {example}")
    return _CONFIGURATIONS[mode]


def enumerate_configurations(mode):
    """All admissible corner-to-side assignments for ``mode``, in a fixed order."""
    return [Configuration(*row) for row in _configurations(mode).configs.tolist()]


def _slot_states(rhs, family, straddle):
    """Each record side's state, its row in ``family``'s slot tables, (N, 4).

    ``rhs`` (N, 32) holds -a_side . R X_corner at 8 * side + corner. Bit j
    is set where the near member of pair j is its partner j ^ flip, the one
    with the greater ``rhs`` on a left or top side and the lesser on a right
    or bottom side (j on a tie, or NaN); bit 4 on the bottom side of a
    record of a tied family that ``straddle`` (an (N,) mask, or False) marks.
    """
    taken = rhs.take(family.pairs, axis=1)  # (N, 2, side, pair)
    return (taken[:, 0] > taken[:, 1]) @ _PAIR_BITS + family.rows.take(straddle, axis=0)


@np.errstate(all="ignore")
def _solve(k, rotations, dims, rects, family):
    """Solve and rank the candidates of ``family`` for N records.

    The inputs are float arrays of the shapes ``lift_batch`` checks.
    """
    _, _, _, _, flat, slots, columns, tied, _ = family
    n, c = len(rects), len(slots)
    # Failed records go through the same arithmetic on meaningless rows, which
    # are overwritten below; errstate keeps that arithmetic's warnings quiet.
    passed = np.zeros((n, len(_CHECKS)), dtype=bool)  # see _CHECKS
    _rotation_checks(rotations, passed[:, :10])
    corners = rotated_corners(dims, rotations) @ k.swapaxes(1, 2)  # (N, corner, u/v/depth)
    rhs = rects.take(_SIDE_COLUMNS, axis=1)[:, :, None] * corners[:, None, :, 2]
    rhs -= corners.swapaxes(1, 2).take(_SIDE_ROWS, axis=1)
    rhs = rhs.reshape(n, 32)
    c_y = k[:, 1, 2]
    states = _slot_states(rhs, family, tied and (rects[:, 1] < c_y) & (c_y < rects[:, 3]))
    rhs = rhs[np.arange(n)[:, None], flat.take(states, axis=0).reshape(n, 32)]  # in slot order
    factors = rects @ _RECT_FACTORS
    spread = np.add.reduce(np.square(factors[:, 2:4]), axis=1)  # E
    np.greater(spread, 2.0 * RANK_TOLERANCE**2, out=passed[:, 10])  # singular value sqrt(E / 2)
    side_map = factors.take(_MAP_COLUMNS, axis=1)
    side_map /= spread[:, None, None]
    side_map[:, :2] *= factors[:, :2, None]
    side_map += _MAP_OFFSETS  # (N, 4, 4)
    projected = corners.T.copy()  # contiguous (u/v/depth, corner, N) planes
    behind = np.maximum.reduce(projected[2])  # -min_j z_j, as z_{7-j} = -z_j; feasible: t_z > behind
    # Each record's winner: (K T)_u, (K T)_v and t_z, then its translation; its key; its index.
    won, ranked, best = np.empty((n, 3)), np.empty(n, dtype=complex), np.empty(n, dtype=np.intp)
    step = max(1, CHUNK_CANDIDATES // c)
    firsts = np.arange(0, step * c, c)  # each record's first candidate in a chunk's planes
    for lo in range(0, n, step):
        chunk, m = slice(lo, lo + step), min(step, n - lo)
        solved = (side_map[chunk] @ rhs[chunk].take(columns, axis=1)).transpose(1, 0, 2)
        # A (3, 8, m C) slab, each record's corners once a candidate: u + (K T)_u,
        # v + (K T)_v and depth + t_z; then the re-projected box's tight rectangle.
        slab = projected[:, :, chunk].repeat(c, axis=2)
        slab += solved[:3].reshape(3, 1, -1)
        uv = slab[:2]
        uv /= slab[2]
        mismatch = np.empty((4, m, c))
        np.minimum.reduce(uv, axis=1, out=mismatch[:2].reshape(2, -1))
        np.maximum.reduce(uv, axis=1, out=mismatch[2:].reshape(2, -1))
        del slab, uv  # freed before the next chunk's slab takes its place
        mismatch -= rects.T[:, chunk, None]  # x_min, y_min, x_max, y_max
        mismatch *= mismatch
        # The key error + 1j g^2: complex numbers order lexicographically, so argmin takes the
        # lowest error, then residual, then index. With none feasible the record fails below.
        key = np.empty((m, c), dtype=complex)
        np.add.reduce(mismatch, out=key.real)
        key.real[~(solved[2] > behind[chunk, None])] = np.inf  # NaN is infeasible
        np.square(solved[3], out=key.imag)
        pick = best[chunk] = key.argmin(axis=1)
        pick += firsts[:m]  # the winners' flat indices in the chunk's planes
        won[chunk] = solved[:3].reshape(3, -1).take(pick, axis=1).T
        ranked[chunk] = key.reshape(-1).take(pick)

    k_u, k_v, t_z = won[:, 0], won[:, 1], won[:, 2]  # views of the winners' columns
    np.greater(t_z, behind, out=passed[:, 11])
    failed = passed.argmin(axis=1)  # each record's first failed check
    outcome = _CHECKS.take(failed)
    configuration = family.corners[states, slots.take(best, axis=0)]
    if np.count_nonzero(passed) < 12 * n:  # some record failed a check: its row holds NaN and -1
        lost = failed < 12
        won[lost], ranked[lost], configuration[lost] = np.nan, complex(np.nan, np.nan), -1
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
        ValueError: if the shapes disagree, ``mode`` is no ConstraintMode (its
            value, such as "kitti", neither), an entry is not finite, an extent or
            focal length is not positive, an intrinsics matrix is not upper triangular
            with third row (0, 0, 1), or a rectangle has x_min > x_max or y_min > y_max.
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
    k, d, b = intrinsics, dims, box2d
    values = np.array([  # K as intrinsics.matrix builds it, the extents and the rectangle
        k.fx, k.skew, k.cx, 0.0, k.fy, k.cy, 0.0, 0.0, 1.0,
        d.dx, d.dy, d.dz, b.x_min, b.y_min, b.x_max, b.y_max,
    ])
    return values[:9].reshape(1, 3, 3), rotation[None], values[None, 9:12], values[None, 12:]


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
    rectangle (of each antipodal or diagonal pair of corners a side admits,
    only the near one; see the module docstring), discards
    infeasible ones, and returns the candidate whose re-projected tight
    rectangle best matches ``box2d``. Ties are broken by smaller
    least-squares residual, then by enumeration order, making the choice
    deterministic.

    Raises:
        ValueError: if ``rotation`` is not a rotation matrix, or ``mode`` is
            no ConstraintMode (its value, such as "kitti", neither).
        NoFeasibleConfigurationError: if no configuration is feasible; the
            message counts the candidates solved.
    """
    batch = _solve(*_one_record(intrinsics, rotation, dims, box2d), _configurations(mode))
    return batch.result(0)
