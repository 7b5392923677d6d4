import numpy as np
import pytest
from scipy.linalg import logm

from boxlift.errors import NonUprightBoxError
from boxlift.geometry import Box2D, Box3D, Dimensions, rotation_from_angles
from boxlift.metrics import (
    GroundTruthBox,
    ScoredDetection,
    aos,
    center_distance,
    closest_point_distance_error,
    distance_binned_errors,
    geodesic_distance,
    iou2d,
    iou3d,
    match_greedy,
    orientation_score,
    orientation_similarity,
    os_to_angle,
    pair_errors,
    viewpoint_stats,
)


def square(x, y, side=40.0):
    return Box2D(x, y, x + side, y + side)


def monte_carlo_iou3d(a, b, n_samples, rng):
    """Uniform point sampling over the union's bounding volume."""
    corners = np.vstack([a.corners(), b.corners()])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    points = rng.uniform(lo, hi, size=(n_samples, 3))

    def inside(box):
        local = (points - box.center) @ box.rotation
        return np.all(np.abs(local) <= 0.5 * box.dims.as_array + 1e-12, axis=1)

    in_a, in_b = inside(a), inside(b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def surface_min_distance(box, points_per_edge=160):
    """Dense sampling of the box surface; min distance to the origin."""
    grid = np.linspace(-0.5, 0.5, points_per_edge)
    u, v = np.meshgrid(grid, grid)
    u, v = u.ravel(), v.ravel()
    half = np.full_like(u, 0.5)
    faces = []
    for axis in range(3):
        for sign in (-1.0, 1.0):
            face = np.empty((u.size, 3))
            face[:, axis] = sign * half
            others = [i for i in range(3) if i != axis]
            face[:, others[0]] = u
            face[:, others[1]] = v
            faces.append(face)
    local = np.vstack(faces) * box.dims.as_array
    world = local @ box.rotation.T + box.center
    return float(np.linalg.norm(world, axis=1).min())


# --- scalar conversions -------------------------------------------------------


def test_orientation_similarity_values():
    assert orientation_similarity(0.0) == pytest.approx(1.0)
    assert orientation_similarity(np.pi) == pytest.approx(0.0)
    assert orientation_similarity(np.pi / 3) == pytest.approx(0.75)


def test_os_to_angle_values():
    assert np.degrees(os_to_angle(0.9991)) == pytest.approx(3.4377, abs=1e-3)
    assert np.degrees(os_to_angle(0.9967)) == pytest.approx(6.5864, abs=1e-3)
    assert os_to_angle(1.0) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        os_to_angle(1.5)
    with pytest.raises(ValueError):
        os_to_angle(-0.1)


def test_orientation_score_values():
    assert orientation_score(92.90, 92.98) == pytest.approx(0.99914, abs=1e-5)
    assert orientation_score(88.75, 89.04) == pytest.approx(0.99674, abs=1e-5)
    assert orientation_score(0.7, 0.7) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        orientation_score(0.5, 0.0)
    with pytest.raises(ValueError):
        orientation_score(0.9, 0.8)


def test_iou2d_basics():
    a = Box2D(0, 0, 10, 10)
    assert iou2d(a, a) == pytest.approx(1.0)
    assert iou2d(a, Box2D(20, 20, 30, 30)) == 0.0
    assert iou2d(a, Box2D(5, 0, 15, 10)) == pytest.approx(50.0 / 150.0)


# --- AOS ------------------------------------------------------------------------


def test_aos_perfect_detections():
    gts = [GroundTruthBox(square(100 * i, 50), yaw=0.3 * i) for i in range(4)]
    dets = [
        ScoredDetection(gt.box2d, yaw=gt.yaw, score=0.9 - 0.1 * i)
        for i, gt in enumerate(gts)
    ]
    result = aos(gts, dets, iou_threshold=0.5)
    assert result.ap == pytest.approx(1.0)
    assert result.aos == pytest.approx(1.0)


def test_aos_antipodal_yaw_zeroes_similarity_not_ap():
    gts = [GroundTruthBox(square(100 * i, 50), yaw=0.0) for i in range(4)]
    dets = [
        ScoredDetection(gt.box2d, yaw=np.pi, score=0.9 - 0.1 * i)
        for i, gt in enumerate(gts)
    ]
    result = aos(gts, dets, iou_threshold=0.5)
    assert result.ap == pytest.approx(1.0)
    assert result.aos == pytest.approx(0.0, abs=1e-12)


def test_aos_three_object_scene_hand_computed():
    # GT: A, B, C. Detections in score order:
    #   d1 matches A exactly (similarity 1), d2 is a false positive,
    #   d3 matches C with yaw error pi/2 (similarity 0.5). B is missed.
    # rank:     1        2        3
    # tp:       1        0        1
    # recall:   1/3      1/3      2/3
    # prec:     1        1/2      2/3
    # cum sim:  1        1/2      1/2
    # 11-point AP  = (4 * 1 + 3 * 2/3 + 4 * 0) / 11 = 6/11
    # 11-point AOS = (4 * 1 + 3 * 1/2 + 4 * 0) / 11 = 5.5/11 = 1/2
    gt_a = GroundTruthBox(square(0, 0), yaw=0.5)
    gt_b = GroundTruthBox(square(100, 0), yaw=-0.4)
    gt_c = GroundTruthBox(square(200, 0), yaw=1.0)
    dets = [
        ScoredDetection(gt_a.box2d, yaw=0.5, score=0.9),
        ScoredDetection(square(400, 200), yaw=0.0, score=0.8),
        ScoredDetection(gt_c.box2d, yaw=1.0 - np.pi / 2, score=0.7),
    ]
    result = aos([gt_a, gt_b, gt_c], dets, iou_threshold=0.5)
    assert result.ap == pytest.approx(6.0 / 11.0)
    assert result.aos == pytest.approx(0.5)
    assert orientation_score(result.aos, result.ap) == pytest.approx(11.0 / 12.0)
    assert np.allclose(result.curve.recall, [1 / 3, 1 / 3, 2 / 3])
    assert np.allclose(result.curve.precision, [1.0, 0.5, 2 / 3])
    assert np.allclose(result.curve.similarity, [1.0, 0.5, 0.5])


def test_aos_ten_object_scene_hand_computed():
    # Two frames: A holds G1..G6, B holds G7..G10 (n_gt = 10). Nine
    # detections in descending score; TP similarity in parentheses:
    #   d1->G1 (1), d2->G2 (0, yaw off by pi), d3 FP, d4->G7 (0.5),
    #   d5->G3 (1), d6 duplicates G1 -> FP, d7->G8 (0.75), d8->G4 (1),
    #   d9 FP. G5, G6, G9, G10 unmatched.
    # rank:   1     2     3      4     5     6       7       8       9
    # tp:     1     1     0      1     1     0       1       1       0
    # recall: .1    .2    .2     .3    .4    .4      .5      .6      .6
    # prec:   1     1     .667   .75   .8    .667    .714    .75     .667
    # csim:   1     .5    .333   .375  .5    .4167   .4643   .53125  .4722
    # AP  = (1 + 1 + 1 + 0.8 + 0.8 + 0.75 + 0.75) / 11 = 6.1/11
    # AOS = (1 + 1 + 5 * 0.53125) / 11 = 4.65625/11
    frame_a, frame_b = "a", "b"
    gts = [GroundTruthBox(square(100 * i, 0), yaw=0.0, frame=frame_a) for i in range(6)]
    gts += [GroundTruthBox(square(100 * i, 0), yaw=0.0, frame=frame_b) for i in range(4)]

    def det(gt, similarity_angle, score, frame):
        return ScoredDetection(gt.box2d, yaw=similarity_angle, score=score, frame=frame)

    dets = [
        det(gts[0], 0.0, 0.95, frame_a),
        det(gts[1], np.pi, 0.90, frame_a),
        ScoredDetection(square(5000, 0), yaw=0.0, score=0.85, frame=frame_a),
        det(gts[6], np.pi / 2, 0.80, frame_b),
        det(gts[2], 0.0, 0.75, frame_a),
        det(gts[0], 0.0, 0.70, frame_a),  # duplicate of matched G1 -> FP
        det(gts[7], np.pi / 3, 0.65, frame_b),
        det(gts[3], 0.0, 0.60, frame_a),
        ScoredDetection(square(5000, 0), yaw=0.0, score=0.55, frame=frame_b),
    ]
    result = aos(gts, dets, iou_threshold=0.5)
    assert result.ap == pytest.approx(6.1 / 11.0)
    assert result.aos == pytest.approx(4.65625 / 11.0)
    assert np.all(np.diff(result.curve.recall) >= 0)


def test_aos_upper_bounded_by_ap_random_scenes():
    rng = np.random.default_rng(20)
    for _ in range(30):
        n_gt, n_det = rng.integers(1, 8), rng.integers(1, 10)
        gts = [
            GroundTruthBox(square(60 * i, 0), yaw=rng.uniform(-np.pi, np.pi))
            for i in range(n_gt)
        ]
        dets = []
        for j in range(n_det):
            slot = rng.integers(0, n_gt + 2)
            rect = square(60 * slot, 0) if slot < n_gt else square(6000 + 60 * slot, 0)
            dets.append(
                ScoredDetection(rect, yaw=rng.uniform(-np.pi, np.pi), score=rng.random())
            )
        result = aos(gts, dets, iou_threshold=0.5)
        assert result.aos <= result.ap + 1e-12
        assert np.all(result.curve.precision <= 1.0)
        assert np.all((result.curve.similarity >= 0) & (result.curve.similarity <= 1))


def test_aos_empty_inputs():
    assert aos([], [], iou_threshold=0.5).ap == 0.0
    gts = [GroundTruthBox(square(0, 0), yaw=0.0)]
    assert aos(gts, [], iou_threshold=0.5).aos == 0.0


# --- 3D box metrics -------------------------------------------------------------


def upright(center, dims=(4.0, 1.5, 1.8), yaw=0.0):
    return Box3D(np.asarray(center, dtype=float), Dimensions(*dims), yaw=yaw)


def test_center_distance():
    assert center_distance(upright([0, 0, 10]), upright([0, 0, 10])) == 0.0
    assert center_distance(upright([0, 0, 10]), upright([0, 0, 12])) == pytest.approx(2.0)
    rng = np.random.default_rng(21)
    for _ in range(50):
        a, b = rng.normal(size=3) * 10, rng.normal(size=3) * 10
        expected = float(np.sqrt(np.sum((a - b) ** 2)))
        assert center_distance(upright(a), upright(b)) == pytest.approx(expected)


def test_closest_point_identical_and_shifted_cubes():
    cube = dict(dims=(1.0, 1.0, 1.0), yaw=0.0)
    assert closest_point_distance_error(
        upright([0, 0, 10], **cube), upright([0, 0, 10], **cube)
    ) == pytest.approx(0.0)
    # corner-based closest point: sqrt(0.5 + 10.5^2) - sqrt(0.5 + 9.5^2),
    # within 0.3% of the unit face-to-face shift
    assert closest_point_distance_error(
        upright([0, 0, 10], **cube), upright([0, 0, 11], **cube)
    ) == pytest.approx(1.0, abs=0.01)


def test_closest_point_error_against_dense_surface_oracle():
    # corner-based closest point vs densely sampled surface: for
    # realistic (prediction ~ ground truth) pairs the two variants of the
    # difference metric agree closely
    rng = np.random.default_rng(22)
    for _ in range(25):
        center = np.array([rng.uniform(-10, 10), rng.uniform(-1, 2), rng.uniform(8, 40)])
        dims = tuple(rng.uniform(1.0, 4.5, size=3))
        yaw = rng.uniform(-np.pi, np.pi)
        gt = upright(center, dims, yaw)
        pred = upright(
            center + rng.normal(0, 0.1, size=3), dims, yaw + rng.normal(0, 0.05)
        )
        oracle = abs(surface_min_distance(gt) - surface_min_distance(pred))
        assert abs(closest_point_distance_error(gt, pred) - oracle) < 0.05


def test_iou3d_identical_and_disjoint():
    box = upright([1.0, 0.5, 12.0], yaw=0.7)
    assert iou3d(box, box) == pytest.approx(1.0)
    far = upright([50.0, 0.5, 12.0], yaw=0.7)
    assert iou3d(box, far) == 0.0


def test_iou3d_unit_cubes_half_offset():
    a = upright([0, 0, 10], dims=(1, 1, 1))
    b = upright([0.5, 0, 10], dims=(1, 1, 1))
    assert iou3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_iou3d_symmetric_and_rigid_invariant():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = upright(rng.uniform([-5, -1, 8], [5, 2, 30]), tuple(rng.uniform(1, 4, 3)),
                    rng.uniform(-np.pi, np.pi))
        b = upright(a.center + rng.normal(0, 1.0, 3), tuple(rng.uniform(1, 4, 3)),
                    rng.uniform(-np.pi, np.pi))
        base = iou3d(a, b)
        assert iou3d(b, a) == pytest.approx(base, abs=1e-12)
        assert 0.0 <= base <= 1.0
        # same yaw offset and translation applied to both boxes
        dyaw, shift = rng.uniform(-np.pi, np.pi), rng.normal(0, 3, size=3)
        rot = rotation_from_angles(dyaw)

        def moved(box):
            return Box3D(rot @ box.center + shift, box.dims, box.yaw + dyaw)

        assert iou3d(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)


def test_iou3d_zero_beyond_diagonal_translation():
    a = upright([0, 0, 20], dims=(4, 1.5, 1.8), yaw=0.3)
    diag = float(np.linalg.norm(a.dims.as_array))
    b = Box3D(a.center + np.array([diag, 0, 0]), a.dims, a.yaw)
    assert iou3d(a, b) == 0.0


def test_iou3d_rejects_tilted_boxes():
    a = upright([0, 0, 10])
    tilted = Box3D(a.center, a.dims, a.yaw, pitch=0.1)
    with pytest.raises(NonUprightBoxError):
        iou3d(a, tilted)
    rolled = Box3D(a.center, a.dims, a.yaw, roll=-0.2)
    with pytest.raises(NonUprightBoxError):
        iou3d(rolled, a)


def test_iou3d_matches_monte_carlo_oracle():
    rng = np.random.default_rng(24)
    for _ in range(60):
        a = upright(rng.uniform([-3, -1, 8], [3, 2, 20]), tuple(rng.uniform(1, 4, 3)),
                    rng.uniform(-np.pi, np.pi))
        b = upright(a.center + rng.normal(0, 1.2, 3), tuple(rng.uniform(1, 4, 3)),
                    rng.uniform(-np.pi, np.pi))
        estimate = monte_carlo_iou3d(a, b, 200_000, rng)
        assert abs(iou3d(a, b) - estimate) < 2e-2


# --- rotation metrics -------------------------------------------------------------


def test_geodesic_distance_identity():
    r = rotation_from_angles(0.4, 0.1, -0.2)
    assert geodesic_distance(r, r) == pytest.approx(0.0)


def test_geodesic_distance_yaw_angle():
    r1 = np.eye(3)
    r2 = rotation_from_angles(np.pi / 6)
    assert geodesic_distance(r1, r2) == pytest.approx(np.pi / 6)


def test_geodesic_distance_matches_matrix_log_oracle():
    rng = np.random.default_rng(25)
    for _ in range(50):
        r1 = rotation_from_angles(*rng.uniform(-np.pi, np.pi, 3))
        r2 = rotation_from_angles(*rng.uniform(-np.pi, np.pi, 3))
        oracle = np.linalg.norm(logm(r1.T @ r2), "fro") / np.sqrt(2.0)
        assert geodesic_distance(r1, r2) == pytest.approx(float(oracle.real), abs=1e-8)


def test_geodesic_distance_symmetry_range_triangle():
    rng = np.random.default_rng(26)
    for _ in range(30):
        r1, r2, r3 = (
            rotation_from_angles(*rng.uniform(-np.pi, np.pi, 3)) for _ in range(3)
        )
        d12, d21 = geodesic_distance(r1, r2), geodesic_distance(r2, r1)
        assert d12 == pytest.approx(d21, abs=1e-12)
        assert 0.0 <= d12 <= np.pi
        assert geodesic_distance(r1, r3) <= d12 + geodesic_distance(r2, r3) + 1e-9


def test_geodesic_distance_validates_inputs():
    with pytest.raises(ValueError):
        geodesic_distance(np.eye(3) * 2, np.eye(3))


def test_viewpoint_stats():
    exact = [(np.eye(3), np.eye(3))] * 5
    assert viewpoint_stats(exact) == (0.0, 1.0)

    pairs = [(np.eye(3), rotation_from_angles(d)) for d in (0.1, 0.2, 0.9)]
    med, acc = viewpoint_stats(pairs)
    assert med == pytest.approx(0.2)
    assert acc == pytest.approx(2.0 / 3.0)

    med_even, _ = viewpoint_stats(
        [(np.eye(3), rotation_from_angles(d)) for d in (0.1, 0.3)]
    )
    assert med_even == pytest.approx(0.2)

    with pytest.raises(ValueError):
        viewpoint_stats([])


# --- matching and binning ----------------------------------------------------------


def test_match_greedy_by_score():
    gts = [(0, square(0, 0)), (0, square(100, 0))]
    dets = [
        (0, square(2, 0), 0.6),
        (0, square(1, 0), 0.9),  # higher score wins the gt
        (0, square(500, 0), 0.8),  # no overlap: unmatched
    ]
    visits = match_greedy(gts, dets, iou_threshold=0.5)
    assert [(d, g) for d, g, _ in visits] == [(1, 0), (2, -1), (0, -1)]
    assert visits[0][2] >= 0.5
    assert visits[1][2] == 0.0


def test_match_greedy_equal_iou_goes_to_lower_gt_index():
    # the detection straddles two ground truths with the same overlap
    gts = [(0, square(20, 0)), (0, square(-20, 0))]
    visits = match_greedy(gts, [(0, square(0, 0), 1.0)], iou_threshold=0.3)
    assert visits == [(0, 0, pytest.approx(1.0 / 3.0))]


def test_match_greedy_iou_at_threshold_matches():
    # a threshold equal to the IoU matches; the next float above it does not
    overlap = iou2d(square(0, 0), square(20, 0))
    visits = match_greedy([(0, square(0, 0))], [(0, square(20, 0), 1.0)], overlap)
    assert visits == [(0, 0, overlap)]
    visits = match_greedy(
        [(0, square(0, 0))], [(0, square(20, 0), 1.0)], np.nextafter(overlap, 1.0)
    )
    assert visits == [(0, -1, 0.0)]


def test_match_greedy_never_crosses_frames():
    gts = [("a", square(0, 0)), ("b", square(100, 0))]
    dets = [("b", square(0, 0), 0.9), ("a", square(100, 0), 0.8), ("a", square(0, 0), 0.1)]
    visits = match_greedy(gts, dets, iou_threshold=0.5)
    assert [(d, g) for d, g, _ in visits] == [(0, -1), (1, -1), (2, 0)]


def test_distance_binned_errors_layout():
    errors = pair_errors(
        [
            (upright([0, 0, 5]), upright([0, 0, 5.5])),
            (upright([0, 0, 25]), upright([0, 0, 26.0])),
        ]
    )
    assert errors.shape == (2, 4)
    assert errors[:, 0] == pytest.approx([5.0, 25.0])
    assert errors[:, 3] == pytest.approx([1.3 / 2.3, 0.8 / 2.8])
    rows = distance_binned_errors(errors, bin_width=10.0)
    assert [(r.bin_lo, r.bin_hi) for r in rows] == [(0, 10), (10, 20), (20, 30)]
    assert rows[0].count == 1 and rows[2].count == 1 and rows[1].count == 0
    assert rows[0].mean_center_error == pytest.approx(0.5)
    assert rows[2].mean_center_error == pytest.approx(1.0)
    assert pair_errors([]).shape == (0, 4)
    assert distance_binned_errors(pair_errors([])) == []
