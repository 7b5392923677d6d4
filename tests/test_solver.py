import itertools

import numpy as np
import pytest

from boxlift import solver
from boxlift.errors import (
    InfeasibleConfigurationError,
    NonPositiveDepthError,
    NoFeasibleConfigurationError,
)
from boxlift.geometry import (
    BOTTOM_CORNERS,
    TOP_CORNERS,
    Box2D,
    Box3D,
    CameraIntrinsics,
    Dimensions,
    box_vertices,
    project,
    project_box,
    rotated_corners,
    rotation_from_angles,
)
from boxlift.solver import (
    CHUNK_CANDIDATES,
    Configuration,
    ConstraintMode,
    enumerate_configurations,
    lift,
    lift_batch,
    solve_translation,
)

from conftest import CAMERA_HEIGHT, sample_scene_box

K = CameraIntrinsics(fx=721.5377, fy=721.5377, cx=609.5593, cy=172.854)

EXPECTED_COUNTS = {
    ConstraintMode.GENERAL: 4096,
    ConstraintMode.UPRIGHT: 1024,
    ConstraintMode.UPRIGHT_ZERO_ROLL: 256,
    ConstraintMode.KITTI_ZERO_PITCH_ROLL: 64,
}
# Candidates a record solves alone (lift, a one-record lift_batch) and in a
# batch of two records or more.
SOLVED = {
    ConstraintMode.GENERAL: (256, 256),
    ConstraintMode.UPRIGHT: (256, 256),
    ConstraintMode.UPRIGHT_ZERO_ROLL: (256, 64),
    ConstraintMode.KITTI_ZERO_PITCH_ROLL: (64, 16),
}


def degenerate_rect(x_min, y_min, x_max, y_max):
    """Build a Box2D bypassing validation, for solver guard tests."""
    rect = object.__new__(Box2D)
    for name, value in zip(("x_min", "y_min", "x_max", "y_max"), (x_min, y_min, x_max, y_max)):
        object.__setattr__(rect, name, value)
    return rect


def true_configuration(box):
    """Active corner per side, read off the projected corners."""
    uv = project(K, box.rotation, box.center, box_vertices(box.dims))
    bottoms = list(BOTTOM_CORNERS)
    left = bottoms[int(np.argmin(uv[bottoms, 0]))]
    right = bottoms[int(np.argmax(uv[bottoms, 0]))]
    top = int(np.argmin(uv[:, 1]))
    bottom = int(np.argmax(uv[:, 1]))
    return Configuration(left, right, top, bottom)


@pytest.mark.parametrize("mode,count", sorted(EXPECTED_COUNTS.items(), key=lambda kv: kv[0].name))
def test_configuration_counts(mode, count):
    configs = enumerate_configurations(mode)
    assert len(configs) == count
    assert len(set(configs)) == count  # no duplicates
    assert all(0 <= i <= 7 for cfg in configs for i in cfg)


def test_configuration_families_are_nested():
    general = set(enumerate_configurations(ConstraintMode.GENERAL))
    upright = set(enumerate_configurations(ConstraintMode.UPRIGHT))
    zeroroll = set(enumerate_configurations(ConstraintMode.UPRIGHT_ZERO_ROLL))
    kitti = set(enumerate_configurations(ConstraintMode.KITTI_ZERO_PITCH_ROLL))
    assert kitti < zeroroll < upright < general


def test_configuration_side_membership():
    for cfg in enumerate_configurations(ConstraintMode.UPRIGHT):
        assert cfg.top in TOP_CORNERS and cfg.bottom in BOTTOM_CORNERS
    for cfg in enumerate_configurations(ConstraintMode.KITTI_ZERO_PITCH_ROLL):
        assert cfg.top in TOP_CORNERS
        assert cfg.bottom == 7 - cfg.top  # deepest top pairs with shallowest bottom
        assert cfg.left in BOTTOM_CORNERS and cfg.right in BOTTOM_CORNERS


def test_enumeration_is_deterministic():
    for mode in ConstraintMode:
        assert enumerate_configurations(mode) == enumerate_configurations(mode)


def test_enumeration_order():
    # left varies slowest, bottom fastest; ties in lift fall to this order
    product = itertools.product
    expected = {
        ConstraintMode.GENERAL: list(product(range(8), repeat=4)),
        ConstraintMode.UPRIGHT: list(product(range(8), range(8), TOP_CORNERS, BOTTOM_CORNERS)),
        ConstraintMode.UPRIGHT_ZERO_ROLL: list(
            product(BOTTOM_CORNERS, BOTTOM_CORNERS, TOP_CORNERS, BOTTOM_CORNERS)
        ),
        ConstraintMode.KITTI_ZERO_PITCH_ROLL: [
            (l, r, t, 7 - t) for l, r, t in product(BOTTOM_CORNERS, BOTTOM_CORNERS, TOP_CORNERS)
        ],
    }
    for mode, configs in expected.items():
        got = enumerate_configurations(mode)
        assert got == [Configuration(*c) for c in configs]
        assert all(type(i) is int for cfg in got for i in cfg)


def test_solve_translation_roundtrip_with_true_configuration():
    rng = np.random.default_rng(10)
    for _ in range(50):
        box = sample_scene_box(rng)
        rect = project_box(K, box)
        cfg = true_configuration(box)
        translation, residual = solve_translation(K, box.rotation, box.dims, rect, cfg)
        assert np.linalg.norm(translation - box.center) < 1e-6
        assert residual < 1e-10


def test_wrong_configuration_has_larger_residual():
    rng = np.random.default_rng(11)
    for _ in range(20):
        box = sample_scene_box(rng)
        rect = project_box(K, box)
        cfg = true_configuration(box)
        _, residual_true = solve_translation(K, box.rotation, box.dims, rect, cfg)
        # swap the left/right assignment: geometrically impossible
        swapped = Configuration(cfg.right, cfg.left, cfg.top, cfg.bottom)
        try:
            _, residual_bad = solve_translation(K, box.rotation, box.dims, rect, swapped)
        except InfeasibleConfigurationError:
            continue  # rejected outright is also a pass
        assert residual_bad > residual_true


def test_collapsed_rectangle_is_rank_deficient():
    box = Box3D(np.array([0.0, 1.0, 20.0]), Dimensions(4.0, 1.5, 1.8), yaw=0.3)
    rect = degenerate_rect(600.0, 180.0, 600.0, 180.0)  # zero area
    with pytest.raises(InfeasibleConfigurationError, match="rank"):
        solve_translation(K, box.rotation, box.dims, rect, Configuration(0, 1, 2, 5))
    with pytest.raises(NoFeasibleConfigurationError, match="rank"):
        lift(K, box.rotation, box.dims, rect, ConstraintMode.KITTI_ZERO_PITCH_ROLL)


def test_rotation_validated():
    rect = Box2D(500.0, 150.0, 700.0, 250.0)
    with pytest.raises(ValueError):
        solve_translation(K, np.eye(3) * 2.0, Dimensions(4, 1.5, 1.8), rect, Configuration(0, 1, 2, 5))
    with pytest.raises(ValueError):
        lift(K, np.ones((3, 3)), Dimensions(4, 1.5, 1.8), rect)


def test_lift_roundtrip_random_upright_boxes():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(300):
        box = sample_scene_box(rng, depth_range=(5.0, 60.0))
        rect = project_box(K, box)
        result = lift(K, box.rotation, box.dims, rect, ConstraintMode.KITTI_ZERO_PITCH_ROLL)
        worst = max(worst, float(np.linalg.norm(result.translation - box.center)))
        assert result.reprojection_error < 1e-8
    assert worst < 1e-5


def test_lift_general_and_kitti_agree_for_upright_boxes():
    rng = np.random.default_rng(13)
    for _ in range(10):
        box = sample_scene_box(rng)
        rect = project_box(K, box)
        t_general = lift(K, box.rotation, box.dims, rect, ConstraintMode.GENERAL).translation
        t_kitti = lift(
            K, box.rotation, box.dims, rect, ConstraintMode.KITTI_ZERO_PITCH_ROLL
        ).translation
        assert np.linalg.norm(t_general - t_kitti) < 1e-9


def test_lift_upright_mode_handles_tilted_boxes():
    # mild pitch/roll: only the UPRIGHT and GENERAL families apply
    rng = np.random.default_rng(14)
    for _ in range(10):
        box = sample_scene_box(rng, depth_range=(10.0, 30.0))
        tilted = Box3D(box.center, box.dims, box.yaw, pitch=rng.uniform(-0.15, 0.15),
                       roll=rng.uniform(-0.15, 0.15))
        rect = project_box(K, tilted)
        result = lift(K, tilted.rotation, tilted.dims, rect, ConstraintMode.UPRIGHT)
        assert np.linalg.norm(result.translation - tilted.center) < 1e-5
        assert result.reprojection_error < 1e-8


def test_lift_shifted_rectangle_moves_translation_along_x():
    rng = np.random.default_rng(15)
    for _ in range(10):
        box = sample_scene_box(rng)
        rect = project_box(K, box)
        shifted = Box2D(rect.x_min + 10.0, rect.y_min, rect.x_max + 10.0, rect.y_max)
        base = lift(K, box.rotation, box.dims, rect, ConstraintMode.KITTI_ZERO_PITCH_ROLL)
        moved = lift(K, box.rotation, box.dims, shifted, ConstraintMode.KITTI_ZERO_PITCH_ROLL)
        assert moved.translation[0] > base.translation[0]


def test_lift_deterministic_choice():
    rng = np.random.default_rng(16)
    box = sample_scene_box(rng)
    rect = project_box(K, box)
    first = lift(K, box.rotation, box.dims, rect, ConstraintMode.GENERAL)
    second = lift(K, box.rotation, box.dims, rect, ConstraintMode.GENERAL)
    assert first.configuration == second.configuration
    assert np.array_equal(first.translation, second.translation)
    assert first.reprojection_error == second.reprojection_error


def test_lift_error_grows_with_rectangle_noise():
    rng = np.random.default_rng(17)
    medians = []
    for sigma in (0.5, 1.0, 2.0):
        displacements = []
        for _ in range(60):
            box = sample_scene_box(rng, depth_range=(15.0, 35.0))
            rect = project_box(K, box)
            noisy = Box2D(
                rect.x_min + rng.normal(0, sigma),
                rect.y_min + rng.normal(0, sigma),
                rect.x_max + rng.normal(0, sigma),
                rect.y_max + rng.normal(0, sigma),
            )
            result = lift(K, box.rotation, box.dims, noisy, ConstraintMode.KITTI_ZERO_PITCH_ROLL)
            displacements.append(np.linalg.norm(result.translation - box.center))
        medians.append(float(np.median(displacements)))
    assert medians[0] < medians[1] < medians[2]


# A tilted 16.5 m box whose rectangle spans 4 200 px: every corner
# assignment, in every mode, puts part of the box behind the camera.
INFEASIBLE = (
    rotation_from_angles(-2.2, -0.2, -0.2),
    Dimensions(16.5, 4.1, 12.1),
    Box2D(-1877.0, -645.0, 2324.0, 2983.0),
)


def test_lift_no_feasible_configuration():
    for mode in ConstraintMode:
        with pytest.raises(NoFeasibleConfigurationError, match="configurations infeasible"):
            lift(K, *INFEASIBLE, mode)


def reference_lift(box, rect, mode):
    """Per-configuration loop: lstsq of the side equations, then project_box.

    Returns (configuration, translation) of the feasible candidate with the
    lowest reprojection error, then residual, then enumeration index.
    """
    k = K.matrix
    rotated = box_vertices(box.dims) @ box.rotation.T
    coords = (rect.x_min, rect.x_max, rect.y_min, rect.y_max)
    rows = np.array([k[row] - c * k[2] for row, c in zip((0, 0, 1, 1), coords)])
    best = None
    for index, cfg in enumerate(enumerate_configurations(mode)):
        rhs = np.array([-rows[side] @ rotated[corner] for side, corner in enumerate(cfg)])
        translation = np.linalg.lstsq(rows, rhs, rcond=None)[0]
        residual = float(np.sum((rows @ translation - rhs) ** 2))
        candidate = Box3D(translation, box.dims, box.yaw, box.pitch, box.roll)
        try:
            fitted = project_box(K, candidate)
        except NonPositiveDepthError:
            continue
        error = float(np.sum((fitted.as_array - rect.as_array) ** 2))
        key = (error, residual, index)
        if best is None or key < best[0]:
            best = (key, cfg, translation)
    return best[1], best[2]


def batch_inputs(boxes, rects):
    return (
        np.repeat(K.matrix[None], len(boxes), axis=0),
        np.array([b.rotation for b in boxes]),
        np.array([b.dims.as_array for b in boxes]),
        np.array([r.as_array for r in rects]),
    )


def assert_batch_matches_reference(boxes, mode):
    rects = [project_box(K, b) for b in boxes]
    batch = lift_batch(*batch_inputs(boxes, rects), mode)
    assert list(batch.outcome) == ["lifted"] * len(boxes)
    for i, (box, rect) in enumerate(zip(boxes, rects)):
        cfg, translation = reference_lift(box, rect, mode)
        assert batch.result(i).configuration == cfg
        assert np.linalg.norm(batch.translation[i] - translation) < 1e-9


def test_lift_batch_matches_reference_on_c02_boxes():
    # the 1000 boxes of acceptance criterion c02
    rng = np.random.default_rng(2024)
    boxes = [sample_scene_box(rng, depth_range=(5.0, 60.0)) for _ in range(1000)]
    assert_batch_matches_reference(boxes, ConstraintMode.KITTI_ZERO_PITCH_ROLL)


@pytest.mark.parametrize(
    "mode",
    [ConstraintMode.GENERAL, ConstraintMode.UPRIGHT, ConstraintMode.UPRIGHT_ZERO_ROLL],
)
def test_lift_batch_matches_reference_in_other_modes(mode):
    rng = np.random.default_rng(18)
    boxes = [sample_scene_box(rng) for _ in range(3)]
    if mode is not ConstraintMode.UPRIGHT_ZERO_ROLL:
        # mild pitch and roll, outside the zero-roll family
        for _ in range(2):
            b = sample_scene_box(rng, depth_range=(10.0, 30.0))
            pitch, roll = rng.uniform(-0.15, 0.15, size=2)
            boxes.append(Box3D(b.center, b.dims, b.yaw, pitch=pitch, roll=roll))
    assert_batch_matches_reference(boxes, mode)


def test_lift_batch_failures_are_per_record():
    rng = np.random.default_rng(19)
    valid = [sample_scene_box(rng) for _ in range(3)]
    box = valid[0]
    records = [  # (rotation, dims, rect) of every record, in batch order
        (box.rotation, box.dims, project_box(K, box)),
        (box.rotation, box.dims, degenerate_rect(600.0, 180.0, 600.0, 180.0)),
        (valid[1].rotation, valid[1].dims, project_box(K, valid[1])),
        INFEASIBLE,
        (np.eye(3) * 2.0, box.dims, project_box(K, box)),
        (valid[2].rotation, valid[2].dims, project_box(K, valid[2])),
    ]
    inputs = (
        np.repeat(K.matrix[None], len(records), axis=0),
        np.array([r for r, _, _ in records]),
        np.array([d.as_array for _, d, _ in records]),
        np.array([rect.as_array for _, _, rect in records]),
    )
    batch = lift_batch(*inputs)
    assert list(batch.outcome) == [
        "lifted", "rank_deficient", "lifted", "all_infeasible", "bad_rotation", "lifted",
    ]
    # a batch without failures skips the failure bookkeeping: same rows, same dtype
    ok = batch.outcome == "lifted"
    clean = lift_batch(*(a[ok] for a in inputs))
    assert clean.outcome.dtype == batch.outcome.dtype and list(clean.outcome) == ["lifted"] * 3
    for name in ("translation", "configuration", "residual", "reprojection_error"):
        assert np.array_equal(getattr(clean, name), getattr(batch, name)[ok])
    for i, (rotation, dims, rect) in enumerate(records):
        try:
            single = lift(K, rotation, dims, rect)
        except (ValueError, NoFeasibleConfigurationError) as exc:
            with pytest.raises(type(exc)) as caught:
                batch.result(i)
            assert str(caught.value) == str(exc)
            assert np.isnan(batch.translation[i]).all() and (batch.configuration[i] == -1).all()
            continue
        result = batch.result(i)
        assert result.configuration == single.configuration
        assert all(type(index) is int for index in result.configuration)
        assert np.array_equal(result.translation, single.translation)
        assert result.residual == single.residual
        assert result.reprojection_error == single.reprojection_error


def test_lift_batch_is_scalar_lift_bitwise_across_chunks():
    # Three chunks in each mode, sized from the candidates a record of a
    # batch solves (256 kitti, 16 GENERAL or UPRIGHT and 64 zeroroll records
    # a chunk of 4096), with a rank-deficient record inside the middle chunk.
    rng = np.random.default_rng(20)
    modes = (
        ConstraintMode.KITTI_ZERO_PITCH_ROLL, ConstraintMode.GENERAL, ConstraintMode.UPRIGHT,
        ConstraintMode.UPRIGHT_ZERO_ROLL,
    )
    probe = Box3D(np.array([0.0, 1.0, 20.0]), Dimensions(4.0, 1.5, 1.8), yaw=0.3)
    for mode in modes:
        two = batch_inputs([probe] * 2, [project_box(K, probe)] * 2)
        solved = lift_batch(*two, mode).n_configurations
        per_chunk = max(1, CHUNK_CANDIDATES // solved)
        n = 2 * per_chunk + max(1, per_chunk // 2)
        boxes = [sample_scene_box(rng, depth_range=(5.0, 60.0)) for _ in range(n)]
        if mode is not ConstraintMode.KITTI_ZERO_PITCH_ROLL:
            tilts = rng.uniform(-0.15, 0.15, size=(n, 2))
            boxes = [Box3D(b.center, b.dims, b.yaw, *tilt) for b, tilt in zip(boxes, tilts)]
        rects = [project_box(K, b) for b in boxes]
        failing = per_chunk + per_chunk // 2
        rects[failing] = degenerate_rect(600.0, 180.0, 600.0, 180.0)
        batch = lift_batch(*batch_inputs(boxes, rects), mode)
        assert [o == "lifted" for o in batch.outcome] == [i != failing for i in range(n)]
        assert batch.outcome[failing] == "rank_deficient"
        for i, (box, rect) in enumerate(zip(boxes, rects)):
            if i == failing:
                with pytest.raises(NoFeasibleConfigurationError, match="rank"):
                    lift(K, box.rotation, box.dims, rect, mode)
                continue
            single = lift(K, box.rotation, box.dims, rect, mode)
            result = batch.result(i)
            assert result.configuration == single.configuration
            assert np.array_equal(result.translation, single.translation)
            assert result.residual == single.residual
            assert result.reprojection_error == single.reprojection_error


def test_solve_translation_is_the_lifted_candidate_bitwise():
    # solve_translation gathers from its own one-configuration table; for
    # the configuration lift chose it must give lift's numbers exactly.
    rng = np.random.default_rng(21)
    for mode in ConstraintMode:
        for _ in range(5 if mode is ConstraintMode.GENERAL else 20):
            box = sample_scene_box(rng)
            rect = Box2D(*(project_box(K, box).as_array + rng.normal(0.0, 1.0, size=4)))
            result = lift(K, box.rotation, box.dims, rect, mode)
            translation, residual = solve_translation(
                K, box.rotation, box.dims, rect, result.configuration
            )
            assert np.array_equal(translation, result.translation)
            assert residual == result.residual


def test_lift_batch_rejects_malformed_arrays():
    box = Box3D(np.array([0.0, 1.0, 20.0]), Dimensions(4.0, 1.5, 1.8), yaw=0.3)
    k, rotations, dims, rects = batch_inputs([box], [project_box(K, box)])
    with pytest.raises(ValueError, match="expected"):
        lift_batch(k, rotations, dims[:, :2], rects)
    with pytest.raises(ValueError, match="finite"):
        lift_batch(k, rotations, dims, np.full((1, 4), np.nan))
    with pytest.raises(ValueError, match="unknown constraint mode"):
        lift_batch(k, rotations, dims, rects, "kitti")
    # Extents and focal lengths must be positive and K upper triangular, as
    # Dimensions, CameraIntrinsics and CalibRecord require: negated extents
    # would be lifted at the wrong place, a negative fx mirrored.
    with pytest.raises(ValueError, match="extents must be positive"):
        lift_batch(k, rotations, -dims, rects)
    for row in (0, 1):
        negative = k.copy()
        negative[:, row, row] *= -1.0
        with pytest.raises(ValueError, match="focal lengths"):
            lift_batch(negative, rotations, dims, rects)
    lower = k.copy()
    lower[:, 1, 0] = 35.0
    with pytest.raises(ValueError, match="upper triangular"):
        lift_batch(lower, rotations, dims, rects)
    # An inverted rectangle, which Box2D rejects, would be lifted: with x_min
    # and x_max swapped at the true translation, y_min and y_max elsewhere.
    for swap in ([2, 1, 0, 3], [0, 3, 2, 1]):
        with pytest.raises(ValueError, match="x_min <= x_max and y_min <= y_max"):
            lift_batch(k, rotations, dims, rects[:, swap])
    empty = lift_batch(k[:0], rotations[:0], dims[:0], rects[:0])
    assert empty.translation.shape == (0, 3) and empty.outcome.shape == (0,)


def whole_family(mode):
    """``mode``'s family with every candidate solved, near corner or far."""
    family = solver._CONFIGURATIONS[mode][0]
    return solver._family(family.configs, family.tied, pairings=((),) * 4)


def assert_batches_equal(got, expected):
    assert list(got.outcome) == list(expected.outcome)
    for name in ("translation", "configuration", "residual", "reprojection_error"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def hostile_records(rng, n):
    """``n`` records anywhere in front of the camera, as (K, R, dims, rects)
    arrays: upright and tilted (pitch and roll up to 0.4 rad), above, below
    and straddling the principal row, with 0, 1 or 2 px of rectangle noise,
    and a rank-deficient, an all-infeasible and a bad-rotation record."""
    boxes = []
    for i in range(n):
        b = straddling_box(rng) if i % 5 == 4 else sample_scene_box(rng, depth_range=(3.0, 60.0))
        center = b.center + np.array([0.0, rng.uniform(-3.0, 1.0) if i % 5 < 3 else 0.0, 0.0])
        pitch, roll = rng.uniform(-0.4, 0.4, size=2) if i % 2 else (0.0, 0.0)
        boxes.append(Box3D(center, b.dims, b.yaw, pitch=pitch, roll=roll))
    k, rotations, dims, rects = batch_inputs(boxes, [project_box(K, b) for b in boxes])
    rects += rng.normal(0.0, 1.0, size=rects.shape) * (np.arange(n) % 3)[:, None]
    rects[50] = (600.0, 180.0, 600.0, 180.0)  # rank-deficient
    rotations[120], dims[120], rects[120] = INFEASIBLE[0], INFEASIBLE[1].as_array, INFEASIBLE[2].as_array
    rotations[200] = 2.0 * np.eye(3)
    return k, rotations, dims, rects


def takes_a_far_corner(inputs, configuration, flips):
    """Per record: ``configuration`` takes the far member of a pair (j,
    j ^ flip) on a side that ``flips`` pairs, the one with the greater
    a_side . R X on a left or top side and the lesser on a right or bottom
    side, or the higher corner of a tie. False for a failed record."""
    k, rotations, dims, rects = inputs
    rows = k[:, [0, 0, 1, 1]] - rects[:, [0, 2, 1, 3], None] * k[:, None, 2]  # (N, side, 3)
    values = rows @ rotated_corners(dims, rotations).swapaxes(1, 2)  # (N, side, corner)
    records = np.arange(len(rects))
    far = np.zeros(len(rects), dtype=bool)
    for side, flip in enumerate(flips):
        if flip:
            own = configuration[:, side]
            mine, other = values[records, side, own], values[records, side, own ^ flip]
            beaten = other < mine if side in (0, 2) else other > mine
            far |= beaten | ((other == mine) & (own ^ flip < own))
    return far & (configuration >= 0).all(axis=1)


def batch_rows(batch, rows):
    """The rows ``rows`` (an index, a list or a mask) of ``batch``, as a batch."""
    rows = np.atleast_1d(rows)
    return batch._replace(**{
        name: getattr(batch, name)[rows]
        for name in ("translation", "configuration", "residual", "reprojection_error", "outcome")
    })


def assert_near_half_as_whole(near, whole, inputs, flips):
    """``near`` and ``whole`` agree bit for bit on every record whose
    ``whole`` winner is the near member of each pair that ``flips`` pairs.
    On the others no box of the family fits the rectangle, and the near half
    cannot rank better than the whole family. Returns their mask."""
    far = takes_a_far_corner(inputs, whole.configuration, flips)
    assert_batches_equal(batch_rows(near, ~far), batch_rows(whole, ~far))
    assert (whole.reprojection_error[far] > 1.0).all()
    assert (near.reprojection_error[far] >= whole.reprojection_error[far]).all()
    return far


@pytest.mark.parametrize("mode", list(ConstraintMode))
def test_near_half_lifts_as_the_whole_family(mode, monkeypatch):
    # 330 records of every kind, in one batch: the near corners of each
    # paired side rank as the whole family, bit for bit, wherever the whole
    # family's winner is a near corner. That is every record but one tilted,
    # straddling zeroroll record, whose whole-family error is 1 002 px^2.
    rng = np.random.default_rng(22)
    n = 330
    inputs = k, rotations, dims, rects = hostile_records(rng, n)
    straddles = (rects[:, 1] < K.cy) & (K.cy < rects[:, 3])
    above = rects[:, 3] < K.cy
    assert straddles.sum() > n // 10 and above.sum() > n // 10
    batch = lift_batch(k, rotations, dims, rects, mode)
    assert batch.n_configurations == SOLVED[mode][1]
    assert (batch.outcome == "lifted").sum() == n - 3
    failures = {"rank_deficient", "all_infeasible", "bad_rotation"}
    assert set(batch.outcome[[50, 120, 200]]) == failures
    flips = solver._CONFIGURATIONS[mode][1].flips
    whole = whole_family(mode)
    monkeypatch.setitem(solver._CONFIGURATIONS, mode, (whole, whole))
    whole = lift_batch(k, rotations, dims, rects, mode)
    assert whole.n_configurations == EXPECTED_COUNTS[mode]
    far = assert_near_half_as_whole(batch, whole, inputs, flips)
    assert far.sum() == (mode is ConstraintMode.UPRIGHT_ZERO_ROLL)


@pytest.mark.parametrize("mode", list(ConstraintMode), ids=lambda mode: mode.value)
def test_a_record_lifts_the_same_alone_and_in_a_batch(mode):
    # One record alone solves the one-record family, two or more the batch
    # family: the same rows and the same failure messages, which lift raises
    # too.
    rng = np.random.default_rng(30)
    n = 240
    inputs = hostile_records(rng, n)
    batch = lift_batch(*inputs, mode)
    assert (batch.n_configurations, batch.n_lift_configurations) == (SOLVED[mode][1], SOLVED[mode][0])
    singles = [lift_batch(*(array[i : i + 1] for array in inputs), mode) for i in range(n)]
    assert {(one.n_configurations, one.n_lift_configurations) for one in singles} == {(SOLVED[mode][0],) * 2}
    alone = singles[0]._replace(**{
        name: np.concatenate([getattr(one, name) for one in singles])
        for name in ("translation", "configuration", "residual", "reprojection_error", "outcome")
    })
    assert_batches_equal(batch, alone)
    for i, one in enumerate(singles):
        record = [array[i] for array in inputs]
        pair = lift_batch(*(np.stack([array, array]) for array in record), mode)
        assert pair.n_configurations == SOLVED[mode][1]
        assert_batches_equal(pair, batch_rows(batch, [i, i]))
        k, rotation, dims, rect = record
        intrinsics = CameraIntrinsics(fx=k[0, 0], fy=k[1, 1], cx=k[0, 2], cy=k[1, 2], skew=k[0, 1])
        try:
            single = lift(intrinsics, rotation, Dimensions(*dims), degenerate_rect(*rect), mode)
        except (ValueError, NoFeasibleConfigurationError) as exc:
            for result, index in ((one, 0), (pair, 1), (batch, i)):
                with pytest.raises(type(exc)) as caught:
                    result.result(index)
                assert str(caught.value) == str(exc)
            continue
        result = one.result(0)
        assert result.configuration == single.configuration
        assert np.array_equal(result.translation, single.translation)
        assert result.residual == single.residual
        assert result.reprojection_error == single.reprojection_error


def test_near_half_keeps_the_lower_corner_of_a_side_value_of_zero(monkeypatch):
    # Yaw 0, centered on the principal point at the depth of its own z
    # extent: the far corners' a_side . R X is exactly 0 on every side, and
    # on each vertical side one diagonal pair, (1, 4) on the left and (0, 5)
    # on the right, ties at 0.
    k = CameraIntrinsics(fx=500.0, fy=500.0, cx=300.0, cy=200.0)
    box = Box3D(np.array([0.0, 0.0, 4.0]), Dimensions(2.0, 1.5, 4.0), yaw=0.0)
    rect = project_box(k, box)
    rows = np.array([
        k.matrix[row] - coordinate * k.matrix[2]
        for row, coordinate in zip((0, 0, 1, 1), (rect.x_min, rect.x_max, rect.y_min, rect.y_max))
    ])
    side_values = rows @ box_vertices(box.dims).T  # a_side . R X_j, R = I
    assert ((side_values == 0.0).sum(axis=1) == 4).all()
    assert side_values[0, 1] == side_values[0, 4] == side_values[1, 0] == side_values[1, 5] == 0.0
    # Near: the lesser value on left and top, the greater on right and
    # bottom; a tie keeps the lower corner j.
    least = np.array([[True], [False], [True], [False]])

    def near(side, j, partner):
        a, b = side_values[side, j], side_values[side, partner]
        return partner if (b < a if least[side, 0] else b > a) else j

    antipodes = [sorted(near(side, j, 7 - j) for j in range(4)) for side in range(4)]
    diagonals = [sorted(near(side, j, j ^ 5) for j in range(2)) for side in range(2)]
    assert diagonals == [[1, 5], [0, 4]]
    for mode, n in ((ConstraintMode.GENERAL, 1), (ConstraintMode.KITTI_ZERO_PITCH_ROLL, 2)):
        family = solver._CONFIGURATIONS[mode][n > 1]
        corners = solver._slot_corners(-side_values[None], family, np.zeros(1, dtype=bool))[0]
        if mode is ConstraintMode.GENERAL:
            assert corners[:, :4].tolist() == antipodes
        else:
            assert corners[:2, :2].tolist() == diagonals
            assert corners[2:].tolist() == [list(range(8))] * 2
    inputs = (k.matrix[None], box.rotation[None], box.dims.as_array[None], rect.as_array[None])
    for mode in ConstraintMode:
        for n in (1, 2):
            batch = [np.repeat(array, n, axis=0) for array in inputs]
            near_half = lift_batch(*batch, mode)
            assert near_half.n_configurations == SOLVED[mode][n > 1]
            assert (near_half.outcome == "lifted").all()
            assert np.abs(near_half.translation - box.center).max() < 1e-12
            with monkeypatch.context() as patch:
                whole = whole_family(mode)
                patch.setitem(solver._CONFIGURATIONS, mode, (whole, whole))
                assert_batches_equal(near_half, lift_batch(*batch, mode))


def test_paired_sides_by_mode():
    # The flip each (left, right, top, bottom) side pairs its corners by, alone
    # and in a batch: 7 the antipodes (j, 7 - j), 5 the bottom face's diagonals
    # (j, j ^ 5), 0 none (the side is solved whole).
    flips = {
        ConstraintMode.GENERAL: ([7, 7, 7, 7], [7, 7, 7, 7]),
        ConstraintMode.UPRIGHT: ([7, 7, 0, 0], [7, 7, 0, 0]),
        ConstraintMode.UPRIGHT_ZERO_ROLL: ([0, 0, 0, 0], [5, 5, 0, 0]),
        ConstraintMode.KITTI_ZERO_PITCH_ROLL: ([0, 0, 0, 0], [5, 5, 0, 0]),
    }
    box = Box3D(np.array([0.0, 1.0, 20.0]), Dimensions(4.0, 1.5, 1.8), yaw=0.3)
    for mode, expected in flips.items():
        for n, family, sides in zip((1, 2), solver._CONFIGURATIONS[mode], expected):
            assert family.flips.tolist() == sides
            assert np.array_equal(family.configs, solver._CONFIGURATIONS[mode][0].configs)
            batch = lift_batch(*batch_inputs([box] * n, [project_box(K, box)] * n), mode)
            assert batch.n_configurations == len(family.slots) == SOLVED[mode][n > 1]
            for side, flip in enumerate(sides):
                # a paired side solves the lower member of each pair, j < j ^ flip
                admitted = set(family.configs[:, side].tolist())
                lower = {j for j in admitted if j < j ^ flip} if flip else admitted
                assert set(family.slots[:, side].tolist()) == lower
            order = [family.configs.tolist().index(row) for row in family.slots.tolist()]
            assert order == sorted(order)  # enumeration order


def svd_reference(k, rotations, dims, rects, mode):
    """The SVD pseudo-inverse kernel the closed-form side solve replaced.

    Ranks the same candidates (the near half of ``mode``'s family, as a
    batch of ``len(rects)`` records solves it) in one pass: t = pinv(A) b with A the (N, 4, 3) side matrix, the residual
    |A t - b|^2, then feasibility and the reprojection error in the old
    kernel's arithmetic. Returns (outcome, configuration, translation,
    residual), the last three of each record's winner; rank_deficient
    when A's smallest singular value is <= 1e-10.
    """
    n = len(rects)
    family = solver._CONFIGURATIONS[mode][n > 1]
    a = k[:, [0, 0, 1, 1]] - rects[:, [0, 2, 1, 3], None] * k[:, None, 2]  # (N, 4, 3)
    left, s, vt = np.linalg.svd(a, full_matrices=False)
    rank_ok = s[:, -1] > solver.RANK_TOLERANCE
    s = np.where(rank_ok[:, None], s, 1.0)
    pinv = (vt.swapaxes(1, 2) / s[:, None, :]) @ left.swapaxes(1, 2)  # (N, 3, 4)
    rotated = rotated_corners(dims, rotations)  # (N, 8, 3)
    rhs = -(a @ rotated.swapaxes(1, 2))  # (N, side, corner)
    straddle = family.tied & (rects[:, 1] < k[:, 1, 2]) & (k[:, 1, 2] < rects[:, 3])
    slot_corners = solver._slot_corners(rhs, family, straddle)
    rhs = np.take_along_axis(rhs, slot_corners, axis=2).reshape(n, 32)
    b = np.take(rhs, family.columns, axis=1)  # (N, 4, C)
    t = pinv @ b  # (N, 3, C)
    residual = ((a @ t - b) ** 2).sum(axis=1)
    corners_uv = (rotated @ k[:, :2].swapaxes(1, 2)).transpose(2, 1, 0)  # (2, 8, N)
    corners_z = rotated[:, :, 2].T  # (8, N)
    with np.errstate(all="ignore"):  # infeasible candidates, discarded below
        slab = corners_uv[:, :, :, None] + (k[:, :2] @ t).swapaxes(0, 1)[:, None]
        slab /= corners_z[:, :, None] + t[:, 2]
        mismatch = np.concatenate([slab.min(axis=1), slab.max(axis=1)]) - rects.T[:, :, None]
        reprojection = (mismatch**2).sum(axis=0)
    infeasible = ~(corners_z.min(axis=0)[:, None] + t[:, 2] > 0)
    reprojection[infeasible] = np.inf
    residual[infeasible] = np.inf
    tied = reprojection == reprojection.min(axis=1, keepdims=True)
    best = np.argmin(np.where(tied, residual, np.inf), axis=1)
    rows = np.arange(n)
    configuration = np.take_along_axis(slot_corners, family.slots[best][:, :, None], axis=2)[..., 0]
    outcome = np.where(infeasible.all(axis=1), "all_infeasible", "lifted")
    outcome = np.where(rank_ok, outcome, "rank_deficient")
    return outcome, configuration, t[rows, :, best], residual[rows, best]


def reference_scene(rng, n, mode):
    """``n`` boxes in front of the camera: road boxes for ``kitti``, else
    above and below the horizon, every other one tilted unless ``mode``
    needs zero pitch and roll."""
    boxes = []
    for i in range(n):
        b = sample_scene_box(rng, depth_range=(3.0, 70.0))
        if mode is ConstraintMode.KITTI_ZERO_PITCH_ROLL:
            boxes.append(b)
            continue
        center = b.center + np.array([0.0, rng.uniform(-3.0, 1.0), 0.0])
        tilt = rng.uniform(-0.15, 0.15, size=2)
        if i % 2 == 0 or mode is ConstraintMode.UPRIGHT_ZERO_ROLL:
            tilt = (0.0, 0.0)
        boxes.append(Box3D(center, b.dims, b.yaw, *tilt))
    return boxes


@pytest.mark.parametrize("mode", list(ConstraintMode))
def test_side_solve_ranks_as_the_svd_kernel(mode):
    # Noisy rectangles over two and a half chunks: the same configuration
    # for every record, translations within 1e-12 m per 50 m of depth and
    # residuals within 1e-9 px^2 of the SVD pseudo-inverse kernel's.
    rng = np.random.default_rng(23)
    per_chunk = max(1, CHUNK_CANDIDATES // SOLVED[mode][1])
    n = 2 * per_chunk + per_chunk // 2
    boxes = reference_scene(rng, n, mode)
    k, rotations, dims, rects = batch_inputs(boxes, [project_box(K, b) for b in boxes])
    rects += rng.normal(0.0, 1.5, size=rects.shape)
    batch = lift_batch(k, rotations, dims, rects, mode)
    outcome, configuration, translation, residual = svd_reference(k, rotations, dims, rects, mode)
    assert list(batch.outcome) == list(outcome)
    lifted = outcome == "lifted"
    assert lifted.sum() > 0.9 * n
    assert np.array_equal(batch.configuration[lifted], configuration[lifted])
    depth = np.array([b.center[2] for b in boxes])[lifted]
    error = np.abs(batch.translation[lifted] - translation[lifted]).max(axis=1)
    assert (error <= 1e-12 * depth / 50.0).all(), error.max()
    assert np.abs(batch.residual[lifted] - residual[lifted]).max() <= 1e-9


@pytest.mark.parametrize("mode", list(ConstraintMode))
def test_side_solve_recovers_noise_free_boxes(mode):
    rng = np.random.default_rng(24)
    boxes = reference_scene(rng, 60, mode)
    batch = lift_batch(*batch_inputs(boxes, [project_box(K, b) for b in boxes]), mode)
    assert list(batch.outcome) == ["lifted"] * len(boxes)
    centers = np.array([b.center for b in boxes])
    assert np.abs(batch.translation - centers).max() < 1e-9


@pytest.mark.parametrize("mode", list(ConstraintMode))
def test_rank_rule_fails_only_a_collapsed_rectangle(mode):
    # A zero-width or zero-height rectangle still fixes t_z through its
    # other side pair: the outcome and the translation are the SVD
    # kernel's. (Its coinciding sides make swapped assignments tie, which
    # only rounding orders in the SVD kernel, so the labels may differ.) A
    # rectangle collapsed in both directions is rank-deficient.
    box = Box3D(np.array([0.5, 1.0, 20.0]), Dimensions(4.0, 1.5, 1.8), yaw=0.3)
    rect = project_box(K, box).as_array
    rects = np.array([
        [rect[0], rect[1], rect[0], rect[3]],  # w = 0
        [rect[0], rect[1], rect[2], rect[1]],  # h = 0
        [rect[0], rect[1], rect[0] + 1e-11, rect[1] + 1e-11],  # sqrt(E / 2) = 1e-11
        rect,
    ])
    inputs = batch_inputs([box] * 4, [degenerate_rect(*row) for row in rects])
    batch = lift_batch(*inputs, mode)
    outcome, _, translation, _ = svd_reference(*inputs, mode)
    assert list(batch.outcome) == list(outcome)
    assert batch.outcome[2] == "rank_deficient" and batch.outcome[3] == "lifted"
    lifted = outcome == "lifted"
    assert np.allclose(batch.translation[lifted], translation[lifted], rtol=0.0, atol=1e-9)


def straddling_box(rng, top=None):
    """A yaw-only box on the road, 1.7-3.5 m tall and 5-40 m away, taller
    than the camera is high: its rectangle straddles the principal row.
    With ``top``, its top face is at that height above the camera instead."""
    dims = Dimensions(rng.uniform(0.5, 5.0), rng.uniform(1.7, 3.5), rng.uniform(0.5, 2.5))
    if top is not None:
        dims = Dimensions(dims.dx, CAMERA_HEIGHT + top, dims.dz)
    tz = rng.uniform(5.0, 40.0)
    center = np.array([rng.uniform(-0.22, 0.22) * tz, CAMERA_HEIGHT - 0.5 * dims.dy, tz])
    return Box3D(center, dims, yaw=rng.uniform(-np.pi, np.pi))


def test_straddling_boxes_lift_exactly_in_every_mode():
    rng = np.random.default_rng(27)
    boxes = [straddling_box(rng) for _ in range(400)]
    rects = [project_box(K, b) for b in boxes]
    assert all(r.y_min < K.cy < r.y_max for r in rects)
    centers = np.array([b.center for b in boxes])
    for mode in ConstraintMode:
        batch = lift_batch(*batch_inputs(boxes, rects), mode)
        assert list(batch.outcome) == ["lifted"] * len(boxes)
        assert np.abs(batch.translation - centers).max() < 1e-9, mode
    # a kitti batch solves 16 candidates a record, of the straddle family:
    # bottom = top - 2
    assert batch.n_configurations == SOLVED[mode][1]
    _, _, top, bottom = batch.configuration.T
    assert (bottom == top - 2).all()


def test_lift_batch_mixing_straddling_and_road_boxes_is_scalar_lift_bitwise():
    # two and a half kitti chunks, every other box straddling, 1 px of noise
    rng = np.random.default_rng(28)
    probe = straddling_box(np.random.default_rng(0))
    two = batch_inputs([probe] * 2, [project_box(K, probe)] * 2)
    per_chunk = CHUNK_CANDIDATES // lift_batch(*two).n_configurations
    n = 2 * per_chunk + per_chunk // 2
    boxes = [straddling_box(rng) if i % 2 else sample_scene_box(rng) for i in range(n)]
    rects = [Box2D(*(project_box(K, b).as_array + rng.normal(0.0, 1.0, size=4))) for b in boxes]
    straddles = [r.y_min < K.cy < r.y_max for r in rects]
    assert n // 3 < sum(straddles) < 2 * n // 3
    batch = lift_batch(*batch_inputs(boxes, rects))
    for i, (box, rect) in enumerate(zip(boxes, rects)):
        single = lift(K, box.rotation, box.dims, rect)
        result = batch.result(i)
        assert result.configuration == single.configuration
        assert (result.configuration.bottom == result.configuration.top - 2) == straddles[i]
        assert np.array_equal(result.translation, single.translation)
        assert result.residual == single.residual
        assert result.reprojection_error == single.reprojection_error


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", list(ConstraintMode), ids=lambda mode: mode.value)
def test_kernel_raises_no_runtime_warning(mode):
    # Each failure outcome and a straddling box, through the scalar lift and
    # lift_batch with RuntimeWarning as an error: the 0/0 side map of a
    # collapsed rectangle, the NaN of a rotation and the candidates behind
    # the camera all stay inside the kernel's errstate.
    rng = np.random.default_rng(48)
    box, tall = sample_scene_box(rng), straddling_box(rng)
    nan_rotation = box.rotation.copy()
    nan_rotation[1, 2] = np.nan
    records = [
        ("lifted", (box.rotation, box.dims, project_box(K, box))),
        ("lifted", (tall.rotation, tall.dims, project_box(K, tall))),
        ("bad_rotation", (np.eye(3) * 2.0, box.dims, project_box(K, box))),
        ("bad_rotation", (nan_rotation, box.dims, project_box(K, box))),
        ("rank_deficient", (box.rotation, box.dims, degenerate_rect(600.0, 180.0, 600.0, 180.0))),
        ("all_infeasible", INFEASIBLE),
    ]
    rotations, dims, rects = zip(*(inputs for _, inputs in records))
    assert rects[1].y_min < K.cy < rects[1].y_max
    batch = lift_batch(
        np.repeat(K.matrix[None], len(records), axis=0), np.array(rotations),
        np.array([d.as_array for d in dims]), np.array([r.as_array for r in rects]), mode,
    )
    assert list(batch.outcome) == [outcome for outcome, _ in records]
    for outcome, (rotation, dims, rect) in records:
        if outcome == "lifted":
            assert np.isfinite(lift(K, rotation, dims, rect, mode).translation).all()
        else:
            with pytest.raises((ValueError, NoFeasibleConfigurationError)):
                lift(K, rotation, dims, rect, mode)


def test_top_face_at_camera_height_lifts_exactly():
    # The rectangle's top side is then the principal row: either family
    # holds the true assignment, whichever side rounding puts y_min. A top
    # face 1 mm above the camera straddles the row, 1 mm below does not.
    rng = np.random.default_rng(29)
    for _ in range(20):
        for top in (0.0, 1e-3, -1e-3):
            box = straddling_box(rng, top=top)
            rect = project_box(K, box).as_array
            y_mins = [rect[1]]
            if top == 0.0:
                y_mins += [np.nextafter(K.cy, -np.inf), K.cy, np.nextafter(K.cy, np.inf)]
            for y_min in y_mins:
                rect[1] = y_min
                for mode in ConstraintMode:
                    result = lift(K, box.rotation, box.dims, degenerate_rect(*rect), mode)
                    assert np.linalg.norm(result.translation - box.center) < 1e-9, (top, y_min, mode)
