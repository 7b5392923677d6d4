"""Evaluation metrics for oriented 3D boxes and their 2D detections.

Orientation quality uses the cosine similarity (1 + cos(delta)) / 2, its
AP-style aggregate AOS (average orientation similarity, 11-point
interpolated alongside AP), and the detector-independent ratio OS = AOS/AP,
convertible back to a mean angular error via acos(2*OS - 1).

Box quality uses three measures: Euclidean distance between centers,
difference of each box's closest-corner distance to the camera, and 3D IoU
(bird's-eye-view polygon intersection times vertical overlap, for upright
boxes). Viewpoint accuracy over full rotations uses the geodesic distance
on SO(3): median error and the fraction within pi/6.

Detections are paired with ground truths by one greedy matcher,
``match_greedy``, which both the AOS sweep and the 3D-box errors use. It
visits detections in descending score order, ties by input order.
``boxlift eval`` ranks a result with a null score as 1.0, and a score of
0.0 as itself, so it ranks last. ``pair_errors`` computes each box measure
once per matched pair; the distance bins and the overall means are both
taken from its array.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonUprightBoxError
from .geometry import Box2D, is_rotation

__all__ = [
    "orientation_similarity",
    "os_to_angle",
    "orientation_score",
    "iou2d",
    "GroundTruthBox",
    "ScoredDetection",
    "PRCurve",
    "AosResult",
    "aos",
    "match_greedy",
    "center_distance",
    "closest_point_distance_error",
    "iou3d",
    "geodesic_distance",
    "viewpoint_stats",
    "pair_errors",
    "distance_binned_errors",
]

UPRIGHT_TOLERANCE = 1e-9


def orientation_similarity(delta):
    """(1 + cos(delta)) / 2 for an angular error, in [0, 1]."""
    return 0.5 * (1.0 + np.cos(delta))


def os_to_angle(score):
    """Mean angular error (radians) implied by an orientation score."""
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"orientation score must be in [0, 1], got {score}")
    return float(np.arccos(2.0 * score - 1.0))


def orientation_score(aos_value, ap_value):
    """AOS / AP: orientation quality with the detector factored out."""
    if ap_value <= 0:
        raise ValueError("AP must be positive")
    if aos_value > ap_value:
        raise ValueError("AOS cannot exceed AP")
    return aos_value / ap_value


def iou2d(a, b):
    """Intersection over union of two axis-aligned rectangles."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.width * a.height + b.width * b.height - inter
    return inter / union


@dataclass(frozen=True)
class GroundTruthBox:
    """A ground-truth object for detection matching."""

    box2d: Box2D
    yaw: float
    frame: object = 0


@dataclass(frozen=True)
class ScoredDetection:
    """A detection with confidence score and estimated global yaw."""

    box2d: Box2D
    yaw: float
    score: float
    frame: object = 0


@dataclass(frozen=True)
class PRCurve:
    """Per-rank samples of the detection sweep, recall non-decreasing."""

    recall: np.ndarray
    precision: np.ndarray
    similarity: np.ndarray


@dataclass(frozen=True)
class AosResult:
    ap: float
    aos: float
    curve: PRCurve


def _eleven_point(recall, values):
    """11-point interpolated average: mean over r in {0, 0.1, ..., 1} of
    the best value among samples with recall >= r (0 if none)."""
    total = 0.0
    for r in np.linspace(0.0, 1.0, 11):
        eligible = values[recall >= r - 1e-12]
        total += eligible.max() if eligible.size else 0.0
    return total / 11.0


def match_greedy(ground_truths, detections, iou_threshold):
    """Greedily match scored detections to ground truths by 2D IoU.

    Detections are visited in descending score order, ties by index. Each
    one takes the unmatched ground truth of its own frame with the highest
    IoU at or above ``iou_threshold``; equal IoUs go to the lower
    ground-truth index. Each ground truth matches at most once.

    Args:
        ground_truths: sequence of (frame, Box2D).
        detections: sequence of (frame, Box2D, score).

    Returns:
        List of (detection index, ground-truth index or -1, IoU) in visiting
        order, one per detection; the IoU is 0.0 when unmatched.
    """
    gt_by_frame = {}
    for gt_idx, (frame, _) in enumerate(ground_truths):
        gt_by_frame.setdefault(frame, []).append(gt_idx)
    taken = [False] * len(ground_truths)
    order = sorted(range(len(detections)), key=lambda i: (-detections[i][2], i))
    visits = []
    for det_idx in order:
        frame, box, _ = detections[det_idx]
        best_iou, best_gt = 0.0, -1
        for gt_idx in gt_by_frame.get(frame, ()):
            if taken[gt_idx]:
                continue
            overlap = iou2d(box, ground_truths[gt_idx][1])
            if overlap >= iou_threshold and overlap > best_iou:
                best_iou, best_gt = overlap, gt_idx
        if best_gt >= 0:
            taken[best_gt] = True
        visits.append((det_idx, best_gt, best_iou))
    return visits


def aos(ground_truths, detections, iou_threshold=0.5):
    """AP and average orientation similarity over a ranked detection sweep.

    Detections are ranked and matched by ``match_greedy``; matched
    detections contribute their orientation similarity, unmatched ones
    count as false positives with similarity zero. AP and AOS are 11-point
    interpolated over recall.

    Returns:
        AosResult with ``ap``, ``aos`` and the raw per-rank curve.
    """
    n_gt = len(ground_truths)
    if len(detections) == 0 or n_gt == 0:
        empty = PRCurve(np.zeros(0), np.zeros(0), np.zeros(0))
        return AosResult(ap=0.0, aos=0.0, curve=empty)

    visits = match_greedy(
        [(gt.frame, gt.box2d) for gt in ground_truths],
        [(det.frame, det.box2d, det.score) for det in detections],
        iou_threshold,
    )
    tp = np.zeros(len(detections))
    sim = np.zeros(len(detections))
    for rank, (det_idx, gt_idx, _) in enumerate(visits):
        if gt_idx >= 0:
            tp[rank] = 1.0
            sim[rank] = orientation_similarity(
                ground_truths[gt_idx].yaw - detections[det_idx].yaw
            )

    ranks = np.arange(1, len(detections) + 1)
    recall = np.cumsum(tp) / n_gt
    precision = np.cumsum(tp) / ranks
    similarity = np.cumsum(sim) / ranks
    curve = PRCurve(recall=recall, precision=precision, similarity=similarity)
    return AosResult(
        ap=_eleven_point(recall, precision),
        aos=_eleven_point(recall, similarity),
        curve=curve,
    )


def center_distance(a, b):
    """Euclidean distance between two box centers, meters."""
    return float(np.linalg.norm(a.center - b.center))


def closest_point_distance_error(gt, pred):
    """Difference of closest-corner distances to the camera at the origin.

    Uses the nearest of the 8 corners as the closest point of each box.
    """
    gt_min = np.linalg.norm(gt.corners(), axis=1).min()
    pred_min = np.linalg.norm(pred.corners(), axis=1).min()
    return float(abs(gt_min - pred_min))


def _bev_rectangle(box):
    """Ground-plane (x, z) corners of an upright box, counterclockwise."""
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    hx, hz = 0.5 * box.dims.dx, 0.5 * box.dims.dz
    local = np.array([[hx, hz], [-hx, hz], [-hx, -hz], [hx, -hz]])
    # camera-frame: x' = c*ox + s*oz + tx ; z' = -s*ox + c*oz + tz
    rot = np.array([[c, s], [-s, c]])
    return local @ rot.T + np.array([box.center[0], box.center[2]])


def _polygon_area(poly):
    """Shoelace area, positive regardless of winding."""
    if len(poly) < 3:
        return 0.0
    x, z = poly[:, 0], poly[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(z, -1)) - np.dot(z, np.roll(x, -1)))


def _clip_polygon(subject, clip):
    """Sutherland-Hodgman clip of ``subject`` by convex ``clip`` polygon."""
    # Ensure counterclockwise clip winding so the inside test is consistent.
    x, z = clip[:, 0], clip[:, 1]
    if np.dot(x, np.roll(z, -1)) - np.dot(z, np.roll(x, -1)) < 0:
        clip = clip[::-1]

    output = [tuple(p) for p in subject]
    for i in range(len(clip)):
        if not output:
            return []
        a, b = clip[i], clip[(i + 1) % len(clip)]
        edge = (b[0] - a[0], b[1] - a[1])

        def inside(p):
            return edge[0] * (p[1] - a[1]) - edge[1] * (p[0] - a[0]) >= 0

        def intersect(p, q):
            dp = (q[0] - p[0], q[1] - p[1])
            denom = edge[0] * dp[1] - edge[1] * dp[0]
            t = (edge[0] * (a[1] - p[1]) - edge[1] * (a[0] - p[0])) / denom
            return (p[0] + t * dp[0], p[1] + t * dp[1])

        clipped = []
        prev = output[-1]
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


def iou3d(a, b):
    """3D intersection over union of two upright boxes.

    Bird's-eye-view intersection area (polygon clipping of the two yawed
    ground rectangles) times vertical overlap, over the union volume.

    Raises:
        NonUprightBoxError: if either box has nonzero pitch or roll.
    """
    for box in (a, b):
        if abs(box.pitch) > UPRIGHT_TOLERANCE or abs(box.roll) > UPRIGHT_TOLERANCE:
            raise NonUprightBoxError(
                f"iou3d requires upright boxes, got pitch={box.pitch}, roll={box.roll}"
            )
    rect_a, rect_b = _bev_rectangle(a), _bev_rectangle(b)
    inter_poly = _clip_polygon(rect_a, rect_b)
    inter_area = _polygon_area(np.asarray(inter_poly)) if inter_poly else 0.0

    a_lo, a_hi = a.center[1] - 0.5 * a.dims.dy, a.center[1] + 0.5 * a.dims.dy
    b_lo, b_hi = b.center[1] - 0.5 * b.dims.dy, b.center[1] + 0.5 * b.dims.dy
    v_overlap = max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo))

    inter = inter_area * v_overlap
    union = a.dims.volume + b.dims.volume - inter
    return float(np.clip(inter / union, 0.0, 1.0))


def geodesic_distance(r1, r2):
    """Rotation angle of r1^T r2, the geodesic metric on SO(3), in [0, pi]."""
    if not (is_rotation(r1) and is_rotation(r2)):
        raise ValueError("inputs must be orthonormal rotation matrices")
    relative = np.asarray(r1).T @ np.asarray(r2)
    return float(np.arccos(np.clip((np.trace(relative) - 1.0) / 2.0, -1.0, 1.0)))


def viewpoint_stats(rotation_pairs):
    """Median geodesic error and fraction within pi/6 over rotation pairs."""
    if len(rotation_pairs) == 0:
        raise ValueError("viewpoint_stats requires at least one pair")
    dists = np.array([geodesic_distance(r1, r2) for r1, r2 in rotation_pairs])
    return float(np.median(dists)), float(np.mean(dists < np.pi / 6.0))


@dataclass(frozen=True)
class DistanceBinRow:
    """Aggregate 3D-box errors for ground truths in one distance band."""

    bin_lo: float
    bin_hi: float
    count: int
    mean_center_error: float
    mean_closest_point_error: float
    mean_iou3d: float


def pair_errors(pairs):
    """Box errors of (ground truth, prediction) Box3D pairs, once per pair.

    Returns:
        (n, 4) array; its columns are the distance of the ground-truth
        center from the camera, the center distance, the closest-point
        distance error and the 3D IoU.
    """
    rows = [
        (
            np.linalg.norm(gt.center),
            center_distance(gt, pred),
            closest_point_distance_error(gt, pred),
            iou3d(gt, pred),
        )
        for gt, pred in pairs
    ]
    return np.array(rows, dtype=float).reshape(-1, 4)


def distance_binned_errors(errors, bin_width=10.0):
    """Per-distance-band means of the three 3D box metrics.

    ``errors`` is the array of ``pair_errors``. Pairs are binned by the
    Euclidean distance of the ground-truth box center from the camera;
    bands are [0, w), [w, 2w), ... Empty leading bands are kept so rows
    line up across runs; trailing empties are cut.
    """
    if len(errors) == 0:
        return []
    dists = errors[:, 0]
    n_bins = int(dists.max() // bin_width) + 1
    rows = []
    for i in range(n_bins):
        lo, hi = i * bin_width, (i + 1) * bin_width
        members = errors[(lo <= dists) & (dists < hi)]
        if len(members) == 0:
            rows.append(DistanceBinRow(lo, hi, 0, np.nan, np.nan, np.nan))
            continue
        rows.append(
            DistanceBinRow(
                bin_lo=lo,
                bin_hi=hi,
                count=len(members),
                mean_center_error=float(np.mean(members[:, 1])),
                mean_closest_point_error=float(np.mean(members[:, 2])),
                mean_iou3d=float(np.mean(members[:, 3])),
            )
        )
    return rows
