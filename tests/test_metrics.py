import numpy as np
import pytest
from scipy.linalg import logm

from boxlift import metrics
from boxlift.errors import NonUprightBoxError
from boxlift.geometry import Box2D, Box3D, Dimensions, rotation_from_angles, rotations_from_angles
from boxlift.metrics import (
    DIFFICULTY_RULES,
    DISTANCE_BIN_WIDTH,
    GroundTruthBox,
    ScoredDetection,
    aos,
    center_distance,
    closest_point_distance_error,
    distance_binned_errors,
    evaluate,
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


def reference_iou3d(a, b):
    """Per-pair 3D IoU by Sutherland-Hodgman clipping in camera coordinates."""

    def bev_rectangle(box):
        c, s = np.cos(box.yaw), np.sin(box.yaw)
        hx, hz = 0.5 * box.dims.dx, 0.5 * box.dims.dz
        local = np.array([[hx, hz], [-hx, hz], [-hx, -hz], [hx, -hz]])
        return local @ np.array([[c, s], [-s, c]]).T + np.array([box.center[0], box.center[2]])

    def clip(subject, clip_poly):
        x, z = clip_poly[:, 0], clip_poly[:, 1]
        if np.dot(x, np.roll(z, -1)) - np.dot(z, np.roll(x, -1)) < 0:
            clip_poly = clip_poly[::-1]  # counterclockwise, for the inside test
        output = [tuple(p) for p in subject]
        for i in range(len(clip_poly)):
            if not output:
                return []
            p0, p1 = clip_poly[i], clip_poly[(i + 1) % len(clip_poly)]
            edge = p1 - p0

            def inside(p):
                return edge[0] * (p[1] - p0[1]) - edge[1] * (p[0] - p0[0]) >= 0

            def intersect(p, q):
                dp = (q[0] - p[0], q[1] - p[1])
                t = (edge[0] * (p0[1] - p[1]) - edge[1] * (p0[0] - p[0])) / (
                    edge[0] * dp[1] - edge[1] * dp[0]
                )
                return (p[0] + t * dp[0], p[1] + t * dp[1])

            clipped, prev = [], output[-1]
            for curr in output:
                if inside(curr):
                    if not inside(prev):
                        clipped.append(intersect(prev, curr))
                    clipped.append(curr)
                elif inside(prev):
                    clipped.append(intersect(prev, curr))
                prev = curr
            output = clipped
        return output

    poly = np.asarray(clip(bev_rectangle(a), bev_rectangle(b)))
    area = 0.0
    if len(poly) >= 3:
        x, z = poly[:, 0], poly[:, 1]
        area = 0.5 * abs(np.dot(x, np.roll(z, -1)) - np.dot(z, np.roll(x, -1)))
    a_lo, a_hi = a.center[1] - 0.5 * a.dims.dy, a.center[1] + 0.5 * a.dims.dy
    b_lo, b_hi = b.center[1] - 0.5 * b.dims.dy, b.center[1] + 0.5 * b.dims.dy
    inter = area * max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo))
    return float(np.clip(inter / (a.dims.volume + b.dims.volume - inter), 0.0, 1.0))


def reference_iou2d(a, b):
    """Scalar IoU of two Box2D."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.width * a.height + b.width * b.height - inter)


def reference_match_greedy(ground_truths, detections, iou_threshold):
    """Per-detection greedy scan, one ground truth at a time."""
    taken = [False] * len(ground_truths)
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][2], i))
    visits = []
    for det_idx in order:
        frame, box, _ = detections[det_idx]
        best_iou, best_gt = 0.0, -1
        for gt_idx, (gt_frame, gt_box) in enumerate(ground_truths):
            if gt_frame != frame or taken[gt_idx]:
                continue
            overlap = reference_iou2d(box, gt_box)
            if overlap >= iou_threshold and overlap > best_iou:
                best_iou, best_gt = overlap, gt_idx
        if best_gt >= 0:
            taken[best_gt] = True
        visits.append((det_idx, best_gt, best_iou))
    return visits


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


def test_iou3d_boxes_sharing_a_side_line():
    # b is a moved 1 m along a's length axis: their long sides lie on the
    # same two lines, and 3 of a's 4 m overlap
    dims = Dimensions(4.0, 1.5, 1.8)
    a = Box3D(np.array([1.0, 0.5, 20.0]), dims, 1.7)
    b = Box3D(a.center + rotation_from_angles(1.7) @ [1.0, 0.0, 0.0], dims, 1.7)
    assert iou3d(a, b) == pytest.approx(0.75 / 1.25, abs=1e-12)


@pytest.mark.parametrize("yaw", [1.7, -0.6, 2.9])
def test_iou3d_equal_yaw_quarter_offsets_closed_form(yaw):
    # equal boxes offset along their own axes by quarter extents overlap in
    # a fraction f of their volume, so IoU = f / (2 - f)
    dims = Dimensions(4.0, 1.5, 1.8)
    a = Box3D(np.array([1.0, 0.5, 20.0]), dims, yaw)
    rot = rotation_from_angles(yaw)
    steps = range(-3, 4)
    for i, j, k in ((i, j, k) for i in steps for j in steps for k in steps):
        offset = np.array([i, j, k]) / 4.0 * dims.as_array
        f = (1 - abs(i) / 4) * (1 - abs(j) / 4) * (1 - abs(k) / 4)
        b = Box3D(a.center + rot @ offset, dims, yaw)
        assert iou3d(a, b) == pytest.approx(f / (2 - f), abs=1e-12), (i, j, k)


@pytest.mark.parametrize("yaw", [0.0, 1.7, -2.3, 0.4, np.pi / 2])
def test_iou3d_boxes_touching_end_to_end_is_zero(yaw):
    dims = Dimensions(4.0, 1.5, 1.8)
    for center in ([1.0, 0.5, 20.0], [-3.2, 1.1, 12.7]):
        a = Box3D(np.array(center), dims, yaw)
        for axis in range(3):
            for sign in (1.0, -1.0):
                offset = np.zeros(3)
                offset[axis] = sign * dims.as_array[axis]
                b = Box3D(a.center + rotation_from_angles(yaw) @ offset, dims, yaw)
                assert iou3d(a, b) == 0.0, (center, axis, sign)


@pytest.mark.parametrize("yaw", [0.0, 1.7, -2.3, 0.4, np.pi / 2, np.pi])
def test_iou3d_identical_boxes_is_one(yaw):
    box = Box3D(np.array([-3.2, 1.1, 12.7]), Dimensions(4.0, 1.5, 1.8), yaw)
    assert iou3d(box, box) == 1.0


def test_iou3d_agrees_with_reference_clipping():
    rng = np.random.default_rng(31)
    compared = 0
    for trial in range(600):
        a = upright(rng.uniform([-8, -1, 5], [8, 2, 60]), tuple(rng.uniform(0.5, 5, 3)),
                    rng.uniform(-np.pi, np.pi))
        dims = tuple(rng.uniform(0.5, 5, 3)) if trial % 3 else (a.dims.dx, a.dims.dy, a.dims.dz)
        yaw = a.yaw if trial % 4 == 0 else a.yaw + rng.normal(0, 0.3 if trial % 2 else 2.0)
        b = upright(a.center + rng.normal(0, 1.5, 3), dims, yaw)
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = reference_iou3d(a, b)
        if np.isfinite(expected):
            assert iou3d(a, b) == pytest.approx(expected, abs=1e-12)
            compared += 1
    assert compared > 550


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
    exact = [np.eye(3)] * 5
    assert viewpoint_stats(exact, exact) == (0.0, 1.0)

    med, acc = viewpoint_stats([np.eye(3)] * 3, [rotation_from_angles(d) for d in (0.1, 0.2, 0.9)])
    assert med == pytest.approx(0.2)
    assert acc == pytest.approx(2.0 / 3.0)

    med_even, _ = viewpoint_stats([np.eye(3)] * 2, [rotation_from_angles(d) for d in (0.1, 0.3)])
    assert med_even == pytest.approx(0.2)

    with pytest.raises(ValueError):
        viewpoint_stats([], [])
    with pytest.raises(ValueError, match="orthonormal rotation"):
        viewpoint_stats([np.eye(3), np.eye(3)], [np.eye(3), np.eye(2)])
    with pytest.raises(ValueError, match="orthonormal rotation"):
        viewpoint_stats([np.eye(3), np.eye(3)], [np.eye(3), 2 * np.eye(3)])


def test_viewpoint_stats_rejects_stacks_of_different_lengths():
    # numpy would broadcast a stack of one against the other
    one, three = np.eye(3)[None], rotations_from_angles([0.1, 0.2, 0.9], [0.0] * 3, [0.0] * 3)
    for first, second in ((one, three), (three, one), (three[:2], three), ([], three)):
        with pytest.raises(ValueError, match="differ in length"):
            viewpoint_stats(first, second)


def test_viewpoint_stats_equals_per_pair_geodesic_distance():
    rng = np.random.default_rng(27)
    pairs = [
        tuple(rotation_from_angles(*rng.uniform(-np.pi, np.pi, 3)) for _ in range(2))
        for _ in range(101)
    ]
    dists = [geodesic_distance(r1, r2) for r1, r2 in pairs]
    assert viewpoint_stats(*zip(*pairs)) == (
        float(np.median(dists)),
        float(np.mean(np.array(dists) < np.pi / 6.0)),
    )


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


def crowded_scene(rng):
    """Ground truths and scored detections over frames "a"-"e", where "e"
    has no ground truth: duplicates, jittered and straddling detections,
    distractors, repeated scores and zero scores, on a 10 px grid so that
    equal IoUs occur."""
    gts, dets = [], []
    for frame in "abcd":
        for _ in range(rng.integers(5, 30)):
            x, y = 10 * rng.integers(0, 40, 2)
            gts.append((frame, square(x, y)))
    scores = [0.0, 0.0, 0.3, 0.5, 0.5, 0.9, 1.0]
    for frame, box in gts:
        for _ in range(rng.integers(0, 4)):  # duplicates and shifted copies
            dx, dy = 10 * rng.integers(-2, 3, 2)
            dets.append((frame, square(box.x_min + dx, box.y_min + dy), rng.choice(scores)))
        if rng.random() < 0.3:  # straddles this and a possible neighbour 40 px right
            dets.append((frame, square(box.x_min + 20, box.y_min), rng.choice(scores)))
    for frame in "abcde":
        for _ in range(rng.integers(3, 10)):
            x, y = rng.uniform(0, 400, 2)
            dets.append((frame, square(x, y, rng.uniform(10, 60)), rng.uniform(0, 1)))
    order = rng.permutation(len(dets))
    return gts, [dets[i] for i in order]


def test_match_greedy_matches_reference_scan():
    rng = np.random.default_rng(41)
    at_threshold = reference_iou2d(square(0, 0), square(20, 0))  # 1/3, occurs often
    for _ in range(8):
        gts, dets = crowded_scene(rng)
        for threshold in (0.0, at_threshold, 0.5, 0.7):
            visits = match_greedy(gts, dets, threshold)
            assert visits == reference_match_greedy(gts, dets, threshold)
        # the threshold case is exercised: some matches sit exactly on it
        visits = match_greedy(gts, dets, at_threshold)
        assert any(gt >= 0 and iou == at_threshold for _, gt, iou in visits)


def unequal_scene(rng):
    """Frames of very unequal sizes: 1-object frames of growing detection
    counts, then a 150-object frame, 1- and 3-object frames after it, frames
    with only detections and frames with only ground truths."""
    gts, dets = [], []
    sizes = [(1, 1), (1, 2), (1, 3), (3, 1), (1, 4), (150, 200), (1, 1), (3, 5), (1, 2)]
    for k, (n_gt, n_det) in enumerate(sizes):
        frame = f"f{k}"
        boxes = [square(*(10 * rng.integers(0, 60, 2))) for _ in range(n_gt)]
        gts += [(frame, box) for box in boxes]
        for _ in range(n_det):  # a shifted copy of one of the frame's boxes
            box = boxes[rng.integers(n_gt)]
            dx, dy = 10 * rng.integers(-2, 3, 2)
            score = rng.choice([0.0, 0.5, 0.9])
            dets.append((frame, square(box.x_min + dx, box.y_min + dy), score))
    gts += [("only-gt", square(0, 0)), ("only-gt", square(20, 0))]
    dets += [("only-det", square(0, 0), 1.0), ("only-det", square(10, 0), 0.5)]
    order = rng.permutation(len(dets))
    return gts, [dets[i] for i in order]


@pytest.mark.parametrize("chunk_pairs", [None, 1, 7], ids=["default", "one", "seven"])
def test_match_greedy_matches_reference_scan_on_unequal_frames(monkeypatch, chunk_pairs):
    # the default packs the small frames into shared blocks and splits the
    # big one; 1 makes every block one detection row; 7 packs several
    # 1-object frames into a block padded to its largest frame
    if chunk_pairs is not None:
        monkeypatch.setattr(metrics, "CHUNK_PAIRS", chunk_pairs)
    rng = np.random.default_rng(45)
    for _ in range(4):
        gts, dets = unequal_scene(rng)
        for threshold in (0.0, 1.0 / 3.0, 0.5):
            visits = match_greedy(gts, dets, threshold)
            assert visits == reference_match_greedy(gts, dets, threshold)


def kitti_columns(rng, frames, boxes, near=None):
    """``evaluate``'s columns for 2D boxes, with random 3D fields, or with
    each row's near the row ``near[i]`` of other columns."""
    n = len(boxes)
    columns = {
        "file": frames,
        "box2d": np.array([b.as_array for b in boxes]).reshape(n, 4),
        "dims_hwl": rng.uniform([1.4, 1.5, 3.0], [1.8, 1.9, 4.6], (n, 3)),
        "location": rng.uniform([-10.0, 1.5, 5.0], [10.0, 1.8, 60.0], (n, 3)),
        "rotation_y": rng.choice([-np.pi, np.pi, 0.3, -2.0, 3.0], n) + rng.uniform(0, 1e-3, n),
    }
    if near is not None:
        for key, noise in (("dims_hwl", 0.05), ("location", 0.4), ("rotation_y", 0.3)):
            columns[key] = near[key][columns_rows(near, frames, boxes)] + rng.normal(
                0.0, noise, columns[key].shape
            )
    return columns


def columns_rows(columns, frames, boxes):
    """Per box, the row of ``columns`` in its frame whose x_min is nearest (0 if none)."""
    rows = []
    for frame, box in zip(frames, boxes):
        same = [i for i, f in enumerate(columns["file"]) if f == frame] or [0]
        rows.append(min(same, key=lambda i: abs(columns["box2d"][i, 0] - box.x_min)))
    return rows


def test_evaluate_equals_the_object_path():
    # the reference: match_greedy for the match, aos per difficulty on that
    # difficulty's ground truths, pair_errors and viewpoint_stats on Box3D
    rng = np.random.default_rng(44)
    scale = {"a": 0.5, "b": 0.7, "c": 1.0, "d": 1.0, "e": 1.0}  # 2D heights 20, 28, 40 px

    def stretch(frame, box):
        return Box2D(box.x_min, box.y_min * scale[frame], box.x_max, box.y_max * scale[frame])

    def box3d(columns, i):
        h, w, l = columns["dims_hwl"][i]
        center = columns["location"][i] - np.array([0.0, 0.5 * h, 0.0])
        return Box3D(center, Dimensions(l, h, w), columns["rotation_y"][i])

    for _ in range(6):
        gts, dets = crowded_scene(rng)
        gt_boxes = [stretch(f, b) for f, b in gts]
        det_boxes = [stretch(f, b) for f, b, _ in dets]
        gt = kitti_columns(rng, [f for f, _ in gts], gt_boxes)
        gt["occluded"] = rng.integers(0, 4, len(gts)).astype(float)
        gt["truncated"] = rng.choice([0.0, 0.1, 0.2, 0.4, 0.6], len(gts))
        det = kitti_columns(rng, [f for f, _, _ in dets], det_boxes, near=gt)
        det["score"] = np.array([s for _, _, s in dets])
        difficulties, errors, viewpoint = evaluate(gt, det, 0.5)

        gt_objects = [GroundTruthBox(b, y, f) for f, b, y in zip(gt["file"], gt_boxes, gt["rotation_y"])]
        det_objects = [
            ScoredDetection(b, y, s, f)
            for f, b, y, s in zip(det["file"], det_boxes, det["rotation_y"], det["score"])
        ]
        counts = []
        for name, (min_height, max_occluded, max_truncated) in DIFFICULTY_RULES.items():
            eligible = [
                g for g, occluded, truncated in zip(gt_objects, gt["occluded"], gt["truncated"])
                if g.box2d.height >= min_height and occluded <= max_occluded
                and truncated <= max_truncated
            ]
            expected = aos(eligible, det_objects, 0.5)
            result, n_gt = difficulties[name]
            assert n_gt == len(eligible) < len(gt_objects)
            assert (result.ap, result.aos) == (expected.ap, expected.aos)
            for field in ("recall", "precision", "similarity"):
                assert np.array_equal(getattr(result.curve, field), getattr(expected.curve, field))
            counts.append(n_gt)
        assert counts[0] < counts[1] < counts[2]

        visits = match_greedy(
            [(g.frame, g.box2d) for g in gt_objects],
            [(d.frame, d.box2d, d.score) for d in det_objects],
            0.5,
        )
        pairs = [(box3d(gt, g), box3d(det, d)) for d, g, _ in visits if g >= 0]
        assert np.array_equal(errors, pair_errors(pairs))
        assert (errors[:, 3] > 0).any()
        assert viewpoint == viewpoint_stats([g.rotation for g, _ in pairs], [p.rotation for _, p in pairs])


def test_evaluate_without_pairs():
    rng = np.random.default_rng(45)
    gt = kitti_columns(rng, ["a"], [square(0, 0)])
    gt["occluded"], gt["truncated"] = np.zeros(1), np.zeros(1)
    det = kitti_columns(rng, ["a", "b"], [square(200, 0), square(0, 0)])
    det["score"] = np.array([0.5, 0.9])
    difficulties, errors, viewpoint = evaluate(gt, det, 0.5)
    assert errors.shape == (0, 4) and viewpoint is None
    assert [(r.ap, r.aos, n) for r, n in difficulties.values()] == [(0.0, 0.0, 1)] * 3
    gt["dims_hwl"][0, 1] = -1.0  # without dimensions: fails only once matched
    assert evaluate(gt, det, 0.5)[1].shape == (0, 4)
    det["file"][1] = "a"
    with pytest.raises(ValueError, match="frame a has no dimensions"):
        evaluate(gt, det, 0.5)


def test_iou2d_matches_reference_bit_for_bit():
    rng = np.random.default_rng(42)
    for _ in range(500):
        x, y = rng.uniform(0, 100, 2)
        a = Box2D(x, y, x + rng.uniform(1, 80), y + rng.uniform(1, 80))
        x, y = rng.uniform(0, 100, 2)
        b = Box2D(x, y, x + rng.uniform(1, 80), y + rng.uniform(1, 80))
        assert iou2d(a, b) == reference_iou2d(a, b)


def test_pair_errors_match_the_single_pair_metrics():
    rng = np.random.default_rng(43)
    pairs = []
    for _ in range(50):
        gt = upright(rng.uniform([-8, -1, 5], [8, 2, 60]), tuple(rng.uniform(1, 4, 3)),
                     rng.uniform(-np.pi, np.pi))
        pairs.append((gt, upright(gt.center + rng.normal(0, 1, 3), tuple(rng.uniform(1, 4, 3)),
                                  gt.yaw + rng.normal(0, 0.5))))
    errors = pair_errors(pairs)
    for row, (gt, pred) in zip(errors, pairs):
        assert row[0] == pytest.approx(np.linalg.norm(gt.center), abs=1e-12)
        assert row[1] == pytest.approx(center_distance(gt, pred), abs=1e-12)
        assert row[2] == pytest.approx(closest_point_distance_error(gt, pred), abs=1e-12)
        assert row[3] == pytest.approx(reference_iou3d(gt, pred), abs=1e-12)
    tilted = Box3D(pairs[7][1].center, pairs[7][1].dims, 0.0, pitch=0.2)
    with pytest.raises(NonUprightBoxError, match="pitch=0.2"):
        pair_errors(pairs[:7] + [(pairs[7][0], tilted)])


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
    assert DISTANCE_BIN_WIDTH == 10.0
    rows = distance_binned_errors(errors)
    assert [(r.bin_lo, r.bin_hi) for r in rows] == [(0, 10), (10, 20), (20, 30)]
    assert rows[0].count == 1 and rows[2].count == 1 and rows[1].count == 0
    assert rows[0].mean_center_error == pytest.approx(0.5)
    assert rows[2].mean_center_error == pytest.approx(1.0)
    assert pair_errors([]).shape == (0, 4)
    assert distance_binned_errors(pair_errors([])) == []
