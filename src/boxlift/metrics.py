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
0.0 as itself, so it ranks last. The 2D IoUs of all same-frame pairs are
computed in one pass as array operations: detections are grouped by frame,
frames are packed into blocks of at most ``CHUNK_PAIRS`` padded pairs, a
block tests only whether each pair's rectangles overlap, and the IoUs of
the pairs that do are computed in the arithmetic of ``iou2d``, so every
IoU is bit-identical to the single-pair one; only the greedy pick itself
is a loop, over the pairs above the threshold. ``evaluate``, which serves
``boxlift eval``, takes KITTI fields as columns and computes those IoUs
once: the pick runs over them for the overall match and once per
difficulty of ``DIFFICULTY_RULES``, with only that difficulty's ground
truths as candidates. ``aos`` and ``evaluate`` take AP and AOS from the
same sweep.

``pair_errors`` computes each box measure once per matched pair, all pairs
at once as arrays; the distance bins and the overall means are both taken
from its array. Each box's rotation is built once; the closest points come
from ``geometry.rotated_corners`` of it. The 3D IoU's footprint overlap is
a boundary integral (Green's theorem) in the ground truth's frame, where
its footprint is an axis-aligned rectangle: over the prediction's edges
clipped to the rectangle and the rectangle's sides clipped to the
prediction's open interior, each by four half-plane tests on the segment's
parameter. No polygon is built or sorted, and the eight terms are summed
in one order, so a pair's IoU is the same alone and in any batch.
Coincident edges are decided exactly on snapped corners, so identical
boxes score 1 and touching ones 0.
``viewpoint_stats`` takes the same rotations as two aligned stacks,
validates them in one call and takes the angles from the batched trace.
``iou2d``, ``center_distance``, ``iou3d``, ``closest_point_distance_error``
and ``geodesic_distance`` are the one-pair case of the same code.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import MalformedLineError, NonUprightBoxError
from .geometry import Box2D, are_rotations, rotated_corners, rotations_from_angles, wrap_angle

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
    "DIFFICULTY_RULES",
    "evaluate",
]

UPRIGHT_TOLERANCE = 1e-9
# Corners of a footprint this close to the other's side lines, relative to the
# pair's largest coordinate or extent, are put on them: a few rounding errors.
SNAP_EPS = 16 * np.finfo(float).eps
# The recalls of the 11-point average, each less 1e-12 for rounding.
_RECALL_SAMPLES = np.linspace(0.0, 1.0, 11) - 1e-12
# x and z signs of a footprint's corners, counterclockwise in (x, z), (2, 4, 1)
_CORNERS = np.array([[1.0, -1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])[..., None]
# Padded same-frame (detection, ground truth) pairs tested for overlap at
# once: a block's (n,) float temporaries stay at 64 KB.
CHUNK_PAIRS = 8192
DISTANCE_BIN_WIDTH = 10.0  # meters: the ground-truth distance bands of distance_binned_errors


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


def _rects(boxes):
    """(N, 4) array of Box2D sides, (x_min, y_min, x_max, y_max)."""
    return np.array(
        [(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes], dtype=float
    ).reshape(-1, 4)


def _ious(first, second):
    """IoUs of rectangles paired row by row, (N, 4) each, in ``iou2d``'s
    arithmetic and operation order, so each is bit-identical to it."""
    ix = np.minimum(first[:, 2], second[:, 2]) - np.maximum(first[:, 0], second[:, 0])
    iy = np.minimum(first[:, 3], second[:, 3]) - np.maximum(first[:, 1], second[:, 1])
    inter = ix * iy
    area_first = (first[:, 2] - first[:, 0]) * (first[:, 3] - first[:, 1])
    area_second = (second[:, 2] - second[:, 0]) * (second[:, 3] - second[:, 1])
    union = area_first + area_second - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=(ix > 0) & (iy > 0))


def iou2d(a, b):
    """Intersection over union of two axis-aligned rectangles."""
    return float(_ious(_rects([a]), _rects([b]))[0])


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
    the best value among samples with recall >= r (0 if none).

    Recall is non-decreasing, so those samples are a suffix: each r reads
    the suffix maximum at its first sample, and the eleven are summed in
    order of r."""
    best = np.zeros(len(values) + 1)
    best[:-1] = np.maximum.accumulate(values[::-1])[::-1]
    return best[recall.searchsorted(_RECALL_SAMPLES)].cumsum()[-1] / 11.0


def _blocks(rows, cols):
    """(start, stop, most rows, most columns) of the runs of consecutive
    segments that share a block.

    Segment ``s`` pairs ``rows[s]`` detections with ``cols[s]`` ground
    truths. A block pads its segments to its largest row and column counts
    and holds at most ``CHUNK_PAIRS`` padded pairs, or one segment.
    """
    blocks, start, most_rows, most_cols = [], 0, 0, 0
    for stop, (r, c) in enumerate(zip(rows, cols)):
        padded = (stop + 1 - start) * max(most_rows, r) * max(most_cols, c)
        if stop > start and padded > CHUNK_PAIRS:
            blocks.append((start, stop, most_rows, most_cols))
            start, most_rows, most_cols = stop, 0, 0
        most_rows, most_cols = max(most_rows, r), max(most_cols, c)
    if rows:
        blocks.append((start, len(rows), most_rows, most_cols))
    return blocks


def _scan(gt_frames, gt_rects, det_frames, det_rects, scores, iou_threshold):
    """The candidates of ``match_greedy``'s greedy pick, ``_pick``.

    Detections are grouped by frame, in visiting order within a frame. A
    frame whose pairs exceed ``CHUNK_PAIRS`` is split into segments of
    detection rows, and consecutive segments are packed into blocks of at
    most ``CHUNK_PAIRS`` pairs, padded to the block's largest detection and
    ground-truth counts. Per block, only whether each pair's rectangles
    overlap on both axes is computed; ``_ious`` runs on the pairs that do,
    so every IoU keeps ``iou2d``'s arithmetic.

    Returns:
        (order, visit, gt, iou): the detection indices in visiting order,
        and the eligible pairs sorted by visit, then descending IoU, then
        ground-truth index.
    """
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    codes = {}
    gt_codes = np.array([codes.setdefault(f, len(codes)) for f in gt_frames], dtype=np.intp)
    det_codes = np.array([codes.get(f, -1) for f in det_frames], dtype=np.intp)[order]
    # frame c's ground truths, by index, are by_frame[bounds[c]:bounds[c + 1]]
    # and its visits, in visiting order, visits[starts[c]:starts[c + 1]]; the
    # detections of a frame without ground truths make no visit here
    by_frame = np.argsort(gt_codes, kind="stable")
    bounds = np.searchsorted(gt_codes[by_frame], np.arange(len(codes) + 1))
    visits = np.flatnonzero(det_codes >= 0)
    visits = visits[np.argsort(det_codes[visits], kind="stable")]
    starts = np.searchsorted(det_codes[visits], np.arange(len(codes) + 1))

    # segments of at most `step` detection rows of one frame, in frame order
    n_gt, n_det = bounds[1:] - bounds[:-1], starts[1:] - starts[:-1]
    step = np.maximum(1, CHUNK_PAIRS // n_gt)  # every frame has a ground truth
    pieces = -(-n_det // step)
    frame = np.repeat(np.arange(len(codes)), pieces)
    first = (np.arange(len(frame)) - np.repeat(np.cumsum(pieces) - pieces, pieces)) * step[frame]
    rows, cols = np.minimum(step[frame], n_det[frame] - first), n_gt[frame]
    first += starts[frame]

    # the sides of the rectangles in segment order, (4, n + 1), then of a
    # padding one that overlaps none: NaN compares false
    pad = np.full((4, 1), np.nan)
    det_sides = np.concatenate([det_rects[order[visits]].T, pad], axis=1)
    gt_sides = np.concatenate([gt_rects[by_frame].T, pad], axis=1)
    candidates = [(np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))]
    for lo, hi, most_rows, most_cols in _blocks(rows.tolist(), cols.tolist()):
        # per segment, the columns of its detections and ground truths, padded
        # to the block's largest counts with the padding rectangle's
        r, c = np.arange(most_rows), np.arange(most_cols)
        det = np.where(r < rows[lo:hi, None], first[lo:hi, None] + r, len(visits))
        gt = np.where(c < cols[lo:hi, None], bounds[frame[lo:hi], None] + c, len(by_frame))
        a, b = det_sides[:, det, None], gt_sides[:, gt[:, None, :]]  # (4, S, D, 1), (4, S, 1, G)
        overlap = np.minimum(a[2], b[2]) > np.maximum(a[0], b[0])
        overlap &= np.minimum(a[3], b[3]) > np.maximum(a[1], b[1])
        s, i, j = np.unravel_index(np.flatnonzero(overlap), overlap.shape)
        det, gt = det[s, i], gt[s, j]
        iou = _ious(det_sides[:, det].T, gt_sides[:, gt].T)
        eligible = (iou >= iou_threshold) & (iou > 0.0)
        candidates.append((visits[det[eligible]], by_frame[gt[eligible]], iou[eligible]))
    visit, gt, iou = (np.concatenate(column) for column in zip(*candidates))
    ranked = np.lexsort((gt, -iou, visit))
    return order, visit[ranked], gt[ranked], iou[ranked]


def _pick(order, visit, gt, iou):
    """Per visit of ``_scan``, the first of its candidate ground truths not
    yet taken, or -1, and the IoU."""
    matched = np.full(len(order), -1)
    overlap = np.zeros(len(order))
    taken, last = set(), -1
    for v, g, value in zip(visit.tolist(), gt.tolist(), iou.tolist()):
        if v != last and g not in taken:
            taken.add(g)
            matched[v], overlap[v], last = g, value, v
    return matched, overlap


def match_greedy(ground_truths, detections, iou_threshold):
    """Greedily match scored detections to ground truths by 2D IoU.

    Detections are visited in descending score order, ties by index. Each
    one takes the unmatched ground truth of its own frame with the highest
    IoU at or above ``iou_threshold``; equal IoUs go to the lower
    ground-truth index. Each ground truth matches at most once. The IoUs of
    all same-frame pairs are computed together as arrays.

    Args:
        ground_truths: sequence of (frame, Box2D).
        detections: sequence of (frame, Box2D, score).

    Returns:
        List of (detection index, ground-truth index or -1, IoU) in visiting
        order, one per detection; the IoU is 0.0 when unmatched.
    """
    order, *candidates = _scan(
        [frame for frame, _ in ground_truths],
        _rects([box for _, box in ground_truths]),
        [frame for frame, _, _ in detections],
        _rects([box for _, box, _ in detections]),
        [score for _, _, score in detections],
        iou_threshold,
    )
    matched, overlap = _pick(order, *candidates)
    return list(zip(order.tolist(), matched.tolist(), overlap.tolist()))


def _sweep(matched, gt_yaw, det_yaw, n_gt):
    """AosResult of ``n_gt`` ground truths given, per visit, the matched
    ground-truth index (-1 if none) and the detection's yaw."""
    if len(matched) == 0 or n_gt == 0:
        empty = PRCurve(np.zeros(0), np.zeros(0), np.zeros(0))
        return AosResult(ap=0.0, aos=0.0, curve=empty)
    hit = matched >= 0
    tp = hit.astype(float)
    sim = np.zeros(len(matched))
    sim[hit] = orientation_similarity(gt_yaw[matched[hit]] - det_yaw[hit])

    ranks = np.arange(1, len(matched) + 1)
    recall = np.cumsum(tp) / n_gt
    precision = np.cumsum(tp) / ranks
    similarity = np.cumsum(sim) / ranks
    curve = PRCurve(recall=recall, precision=precision, similarity=similarity)
    return AosResult(
        ap=_eleven_point(recall, precision),
        aos=_eleven_point(recall, similarity),
        curve=curve,
    )


def aos(ground_truths, detections, iou_threshold=0.5):
    """AP and average orientation similarity over a ranked detection sweep.

    Detections are ranked and matched by ``match_greedy``; matched
    detections contribute their orientation similarity, unmatched ones
    count as false positives with similarity zero. AP and AOS are 11-point
    interpolated over recall.

    Returns:
        AosResult with ``ap``, ``aos`` and the raw per-rank curve.
    """
    visits = match_greedy(
        [(gt.frame, gt.box2d) for gt in ground_truths],
        [(det.frame, det.box2d, det.score) for det in detections],
        iou_threshold,
    )
    order, matched = np.array([v[:2] for v in visits], dtype=np.intp).reshape(-1, 2).T
    gt_yaw = np.array([gt.yaw for gt in ground_truths], dtype=float)
    det_yaw = np.array([det.yaw for det in detections], dtype=float)
    return _sweep(matched, gt_yaw, det_yaw[order], len(ground_truths))


# N boxes as arrays: centers, extents (dx, dy, dz) and angles (yaw, pitch,
# roll), each (N, 3), and the rotations of the angles, (N, 3, 3)
_Boxes = namedtuple("_Boxes", "centers dims angles rotations")


def _boxes(boxes):
    """_Boxes of a Box3D sequence."""
    n = len(boxes)
    angles = np.array([(b.yaw, b.pitch, b.roll) for b in boxes], dtype=float).reshape(n, 3)
    return _Boxes(
        np.array([b.center for b in boxes], dtype=float).reshape(n, 3),
        np.array([(b.dims.dx, b.dims.dy, b.dims.dz) for b in boxes], dtype=float).reshape(n, 3),
        angles, rotations_from_angles(*angles.T),
    )


def _center_distances(first, second):
    """Distances between (N, 3) centers paired row by row, (N,)."""
    return np.linalg.norm(first - second, axis=1)


def center_distance(a, b):
    """Euclidean distance between two box centers, meters."""
    return float(_center_distances(a.center[None], b.center[None])[0])


def _closest_corner_distances(boxes):
    """Distance from the camera to the nearest of each box's corners, (N,)."""
    corners = rotated_corners(boxes.dims, boxes.rotations) + boxes.centers[:, None, :]
    return np.linalg.norm(corners, axis=2).min(axis=1)


def _closest_point_errors(gt, pred):
    return np.abs(_closest_corner_distances(gt) - _closest_corner_distances(pred))


def closest_point_distance_error(gt, pred):
    """Difference of closest-corner distances to the camera at the origin.

    Uses the nearest of the 8 corners as the closest point of each box.
    """
    return float(_closest_point_errors(_boxes([gt]), _boxes([pred]))[0])


def _footprint_overlaps(a, b):
    """Ground-plane (x, z) intersection areas of N upright box pairs, (N,).

    In ``a``'s frame, where ``a``'s footprint A is |x| <= hx, |z| <= hz, the
    area is Green's boundary integral 1/2 * sum(x0 * z1 - z0 * x1) over the
    four edges of ``b``'s footprint B clipped to the closed A and A's four
    sides clipped to B's open interior, each segment clipped on its
    parameter t by the four side lines of the other footprint. The eight
    terms are summed in one fixed order. B's corners within ``SNAP_EPS`` of
    a side line of A are put on it, and both halves read the snapped
    corners, so coincident edges are decided exactly: an edge of B on a
    side line of A counts when it runs the way A's side runs, and a side of
    A on an edge of B never counts. An unclipped end is the corner itself.
    """
    # a point's (x, z) in a's frame is a's yaw rotation, transposed, of its
    # offset from a's center; b's corners turn by the yaw difference
    cos_a, sin_a = np.cos(a.angles[:, 0]), np.sin(a.angles[:, 0])
    dx = b.centers[:, 0] - a.centers[:, 0]
    dz = b.centers[:, 2] - a.centers[:, 2]
    offset_x, offset_z = cos_a * dx - sin_a * dz, sin_a * dx + cos_a * dz
    turn = b.angles[:, 0] - a.angles[:, 0]
    cos_t, sin_t = np.cos(turn), np.sin(turn)
    lx, lz = 0.5 * b.dims[:, 0] * _CORNERS[0], 0.5 * b.dims[:, 2] * _CORNERS[1]
    half = 0.5 * a.dims[:, 0::2].T[:, None]  # (2, 1, N): hx, hz
    # (coordinate, footprint, corner, pair): B's corners, then A's
    poly = np.empty((2, 2, 4, len(turn)))
    corners = poly[:, 0]
    corners[0] = cos_t * lx + sin_t * lz + offset_x
    corners[1] = -sin_t * lx + cos_t * lz + offset_z
    poly[:, 1] = half * _CORNERS
    scale = np.abs(np.vstack([a.centers.T, b.centers.T, a.dims.T, b.dims.T])).max(axis=0)
    near = np.abs(np.abs(corners) - half) <= SNAP_EPS * scale
    np.copyto(corners, np.copysign(half, corners), where=near)
    ends = np.concatenate([poly[:, :, 1:], poly[:, :, :1]], axis=2)
    edges = ends - poly
    # on segment i of a footprint, p + t * d, the level cross(e, p - c) of the
    # other's side line j, through c along e, is num + t * den: positive inside
    p, d = poly[..., None, :], edges[..., None, :]
    c, e = poly[:, ::-1, None], edges[:, ::-1, None]
    num = e[0] * (p[1] - c[1]) - e[1] * (p[0] - c[0])
    den = e[0] * d[1] - e[1] * d[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        # parallel: -num / |den| is -inf inside, inf outside, nan on the line,
        # where an edge of B counts only if it runs the way A's side runs
        bound = num / np.abs(den)
        along = np.isnan(bound[0]) & (e[0, 0] * d[0, 0] + e[1, 0] * d[1, 0] > 0)
        bound[0][along] = np.inf
        lo = np.where(den >= 0, -bound, 0.0).max(axis=2)
        hi = np.where(den < 0, bound, 1.0).min(axis=2)
        start = np.where(lo > 0, poly + lo * edges, poly)
        stop = np.where(hi < 1, poly + hi * edges, ends)
        term = np.where(lo < hi, start[0] * stop[1] - start[1] * stop[0], 0.0).reshape(8, -1)
    # pairwise in one order for every batch; np.sum's order depends on the shape
    term = term[:4] + term[4:]
    term = term[:2] + term[2:]
    return 0.5 * np.abs(term[0] + term[1])


def _iou3d(a, b):
    """3D IoU of N upright box pairs, (N,); see ``iou3d``."""
    angles = np.stack([a.angles, b.angles], axis=1).reshape(-1, 3)  # a0, b0, a1, ...
    tilted = (np.abs(angles[:, 1:]) > UPRIGHT_TOLERANCE).any(axis=1)
    if tilted.any():
        _, pitch, roll = angles[tilted.argmax()].tolist()
        raise NonUprightBoxError(
            f"iou3d requires upright boxes, got pitch={pitch}, roll={roll}"
        )
    area = _footprint_overlaps(a, b)
    a_lo, a_hi = a.centers[:, 1] - 0.5 * a.dims[:, 1], a.centers[:, 1] + 0.5 * a.dims[:, 1]
    b_lo, b_hi = b.centers[:, 1] - 0.5 * b.dims[:, 1], b.centers[:, 1] + 0.5 * b.dims[:, 1]
    v_overlap = np.maximum(0.0, np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo))
    inter = area * v_overlap
    union = a.dims.prod(axis=1) + b.dims.prod(axis=1) - inter
    return np.clip(inter / union, 0.0, 1.0)


def iou3d(a, b):
    """3D intersection over union of two upright boxes.

    Bird's-eye-view intersection area (the boundary integral over the two
    ground rectangles' clipped edges, in ``a``'s frame) times vertical
    overlap, over the union volume. Identical boxes give exactly 1, and
    boxes that only touch exactly 0.

    Raises:
        NonUprightBoxError: if either box has nonzero pitch or roll.
    """
    return float(_iou3d(_boxes([a]), _boxes([b]))[0])


def _stacked_rotations(matrices):
    """(N, 3, 3) array of rotation matrices; ValueError for anything else."""
    try:
        stack = np.asarray(matrices, dtype=float)
    except ValueError:  # ragged shapes
        stack = None
    if stack is None or stack.ndim != 3 or stack.shape[1:] != (3, 3) or not are_rotations(stack).all():
        raise ValueError("inputs must be orthonormal rotation matrices")
    return stack


def _geodesic_distances(first, second):
    """Rotation angles of r1^T r2 over two sequences of rotations, (N,)."""
    first, second = _stacked_rotations(first), _stacked_rotations(second)
    trace = np.trace(np.swapaxes(first, 1, 2) @ second, axis1=1, axis2=2)
    return np.arccos(np.clip((trace - 1.0) / 2.0, -1.0, 1.0))


def geodesic_distance(r1, r2):
    """Rotation angle of r1^T r2, the geodesic metric on SO(3), in [0, pi]."""
    return float(_geodesic_distances([r1], [r2])[0])


def viewpoint_stats(first, second):
    """Median geodesic error and fraction within pi/6 over aligned rotation stacks."""
    if len(first) != len(second):
        raise ValueError(f"rotation sequences differ in length: {len(first)} and {len(second)}")
    if len(first) == 0:
        raise ValueError("viewpoint_stats requires at least one pair")
    dists = _geodesic_distances(first, second)
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

    All pairs are computed together as arrays.

    Returns:
        (n, 4) array; its columns are the distance of the ground-truth
        center from the camera, the center distance, the closest-point
        distance error and the 3D IoU.

    Raises:
        NonUprightBoxError: if any box has nonzero pitch or roll.
    """
    pairs = list(pairs)
    if not pairs:
        return np.zeros((0, 4))
    return _pair_errors(_boxes([g for g, _ in pairs]), _boxes([p for _, p in pairs]))


def _pair_errors(gt, pred):
    return np.column_stack(
        [
            np.linalg.norm(gt.centers, axis=1),
            _center_distances(gt.centers, pred.centers),
            _closest_point_errors(gt, pred),
            _iou3d(gt, pred),
        ]
    )


def distance_binned_errors(errors):
    """Per-distance-band means of the three 3D box metrics.

    ``errors`` is the array of ``pair_errors``. Pairs are binned by the
    Euclidean distance of the ground-truth box center from the camera, in
    bands of ``DISTANCE_BIN_WIDTH``: [0, w), [w, 2w), ... Empty leading
    bands are kept so rows line up across runs; trailing empties are cut.
    """
    if len(errors) == 0:
        return []
    dists = errors[:, 0]
    n_bins = int(dists.max() // DISTANCE_BIN_WIDTH) + 1
    rows = []
    for i in range(n_bins):
        lo, hi = i * DISTANCE_BIN_WIDTH, (i + 1) * DISTANCE_BIN_WIDTH
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


# KITTI difficulty gates: (min 2D box height px, max occlusion, max truncation)
DIFFICULTY_RULES = {
    "easy": (40.0, 0, 0.15),
    "moderate": (25.0, 1, 0.30),
    "hard": (25.0, 2, 0.50),
}


def _kitti_boxes(columns, rows):
    """_Boxes of some rows of ``evaluate``'s columns, the yaw wrapped as by Box3D."""
    dims = columns["dims_hwl"][rows]
    if (dims <= 0).any():  # the token is the frame, for a caller that knows its file
        row = rows[(dims <= 0).any(axis=1).argmax()]
        frame, line = columns["file"][row], int(columns["line"][row]) if "line" in columns else None
        raise MalformedLineError(line, frame, f"a record of frame {frame} has no dimensions")
    centers = columns["location"][rows]
    centers[:, 1] -= 0.5 * dims[:, 0]  # the location is the bottom-center
    yaw = wrap_angle(columns["rotation_y"][rows])
    angles = np.column_stack([yaw, np.zeros((len(yaw), 2))])
    return _Boxes(centers, dims[:, [2, 0, 1]], angles, rotations_from_angles(*angles.T))


def evaluate(ground_truths, detections, iou_threshold):
    """AP and AOS per difficulty and the 3D-box errors, from one IoU scan.

    Each argument is a KITTI table (see ``boxlift.kitti``) with ``file``,
    ``box2d``, ``dims_hwl``, ``location``, ``rotation_y``, and ``occluded``
    and ``truncated`` for the ground truths or ``score`` for the detections.
    The greedy pick of ``match_greedy`` runs on the scan's candidates for
    the overall match, and per difficulty on those of its ground truths,
    which is ``aos`` of them.

    Returns:
        (difficulties, errors, viewpoint): per name of ``DIFFICULTY_RULES``
        the AosResult and the number of its ground truths; ``pair_errors``
        of the matched pairs in visiting order; ``viewpoint_stats`` of
        their rotations, None without pairs.

    Raises:
        MalformedLineError: if a matched box has no dimensions; it names the
            box's frame, and its line when the table has a ``line`` column.
    """
    gt, det = ground_truths, detections
    order, *candidates = _scan(
        gt["file"], gt["box2d"], det["file"], det["box2d"], det["score"], iou_threshold
    )
    height, det_yaw = gt["box2d"][:, 3] - gt["box2d"][:, 1], det["rotation_y"][order]
    difficulties = {}
    for name, (min_height, max_occluded, max_truncated) in DIFFICULTY_RULES.items():
        eligible = (height >= min_height) & (gt["occluded"] <= max_occluded)
        eligible &= gt["truncated"] <= max_truncated
        keep = eligible[candidates[1]]
        matched, _ = _pick(order, *(column[keep] for column in candidates))
        n_gt = int(np.count_nonzero(eligible))
        difficulties[name] = (_sweep(matched, gt["rotation_y"], det_yaw, n_gt), n_gt)

    matched, _ = _pick(order, *candidates)
    hit = matched >= 0
    if not hit.any():
        return difficulties, np.zeros((0, 4)), None
    pairs = _kitti_boxes(gt, matched[hit]), _kitti_boxes(det, order[hit])
    return difficulties, _pair_errors(*pairs), viewpoint_stats(pairs[0].rotations, pairs[1].rotations)
