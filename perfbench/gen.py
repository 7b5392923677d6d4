"""Seeded generator for the benchmark's inputs.

Everything here depends only on numpy and the seed, never on ``boxlift``:
the inputs must stay byte-identical across commits of the code under test,
and a projection shared with that code would hide its own defects.

A scene is a set of upright boxes standing on the road plane in front of a
KITTI-like camera. Each box is projected through the frame's P2 matrix to
its tight 2D rectangle and written as a KITTI label line with two decimals,
as real KITTI files are. The generator keeps each object's true center so
the benchmark can check what ``boxlift`` recovers.

Choices that touch the defects ROADMAP item 4 lists are deliberate: label
alphas follow the KITTI definition (yaw minus the ray through the 3D
location, not through the 2D box center), some label files start with a
blank line, truncation and occlusion vary so every difficulty gate sees
objects, and generated detection scores include exact zeros. Every object
stays below the camera horizon, because that is the documented premise of
the 64-configuration ``kitti`` mode.
"""

import gc
import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

IMAGE_W, IMAGE_H = 1242.0, 375.0
CAMERA_HEIGHT = 1.65  # meters above the road

# P2 of a public KITTI calibration (camera 2); each frame jitters it.
BASE_P2 = np.array(
    [
        [7.215377e02, 0.0, 6.095593e02, 4.485728e01],
        [0.0, 7.215377e02, 1.728540e02, 2.163791e-01],
        [0.0, 0.0, 1.0, 2.745884e-03],
    ]
)

# category: (weight, length band, height band, width band), meters.
# Heights stay under CAMERA_HEIGHT so every top face is below the horizon.
CATEGORIES = {
    "Car": (0.60, (3.2, 4.6), (1.40, 1.62), (1.55, 1.85)),
    "Van": (0.10, (4.2, 5.0), (1.50, 1.62), (1.70, 1.95)),
    "Pedestrian": (0.15, (0.50, 1.00), (1.45, 1.60), (0.45, 0.75)),
    "Cyclist": (0.15, (1.60, 1.90), (1.45, 1.62), (0.50, 0.70)),
}
_NAMES = list(CATEGORIES)
_WEIGHTS = np.array([CATEGORIES[c][0] for c in _NAMES])

# Object-frame corner signs in boxlift's vertex order (x sign fastest).
_SIGNS = 1.0 - 2.0 * np.array([[i % 2, (i // 2) % 2, (i // 4) % 2] for i in range(8)])

# Generated detections: a planted one overlaps its own ground truth by at
# least PLANT_IOU and every other ground truth by less than OTHER_IOU, so
# under eval's 0.7 threshold it can match its own ground truth and no other.
PLANT_IOU = 0.75
OTHER_IOU = 0.6


@dataclass(frozen=True)
class Truth:
    """One generated object: its true pose and the rectangle as written."""

    center: tuple  # true box center in the label (rectified camera) frame
    box2d: tuple  # (x_min, y_min, x_max, y_max) as parsed back from the label


@dataclass(frozen=True)
class Frame:
    stem: str
    label_text: str
    calib_text: str
    truths: tuple


@dataclass(frozen=True)
class Corpus:
    frames: tuple
    results_text: str = ""  # generated detections, for the crowded eval
    planted: int = 0  # detections planted on a ground truth
    n_detections: int = 0  # lines of results_text

    @property
    def n_objects(self):
        return sum(len(f.truths) for f in self.frames)

    def digest(self):
        """sha256 over every generated byte, in a fixed order."""
        h = hashlib.sha256()
        for f in self.frames:
            for part in (f.stem, f.label_text, f.calib_text):
                h.update(part.encode())
                h.update(b"\0")
        h.update(self.results_text.encode())
        return h.hexdigest()


def _wrap(theta):
    return float((theta + np.pi) % (2.0 * np.pi) - np.pi)


def _fmt(value):
    text = f"{value:.2f}"
    return "0.00" if text == "-0.00" else text


def _corners(center, lhw, yaw):
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return (_SIGNS * (0.5 * np.asarray(lhw))) @ rot.T + center


def _project(p2, points):
    hom = points @ p2[:, :3].T + p2[:, 3]
    return hom[:, :2] / hom[:, 2:3]


def _iou(rect, rects):
    """2D IoU of one (4,) rectangle against an (n, 4) array of them."""
    ix = np.minimum(rect[2], rects[:, 2]) - np.maximum(rect[0], rects[:, 0])
    iy = np.minimum(rect[3], rects[:, 3]) - np.maximum(rect[1], rects[:, 1])
    inter = np.clip(ix, 0.0, None) * np.clip(iy, 0.0, None)
    area = (rect[2] - rect[0]) * (rect[3] - rect[1])
    areas = (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1])
    return inter / (area + areas - inter)


def _make_p2(rng):
    p2 = BASE_P2.copy()
    focal = p2[0, 0] * rng.uniform(0.98, 1.02)
    p2[0, 0] = p2[1, 1] = focal
    p2[0, 2] += rng.uniform(-5.0, 5.0)
    p2[1, 2] += rng.uniform(-3.0, 3.0)
    p2[0, 3] = focal * rng.uniform(0.055, 0.066)
    return p2


def _calib_text(p2):
    def row(key, values):
        return key + ": " + " ".join(f"{v:.12e}" for v in np.ravel(values))

    p0 = np.hstack([p2[:, :3], np.zeros((3, 1))])
    return "\n".join(
        [
            row("P0", p0),
            row("P1", p0),
            row("P2", p2),
            row("P3", p2),
            row("R0_rect", np.eye(3)),
            row("Tr_velo_to_cam", np.hstack([np.eye(3), np.zeros((3, 1))])),
        ]
    ) + "\n"


def _sample_object(rng, p2, depth_range, strata):
    """An upright box on the road that projects fully inside the image.

    ``strata`` holds this object's (depth, yaw, lateral) positions in [0, 1)
    from a Latin hypercube over the corpus, which keeps the spread of those
    three across a corpus, and of every statistic that hangs on them, small
    from seed to seed. Boxes that do not fit the image are redrawn, keeping
    the strata for the first tries.
    """
    category = _NAMES[rng.choice(len(_NAMES), p=_WEIGHTS / _WEIGHTS.sum())]
    _, l_band, h_band, w_band = CATEGORIES[category]
    near, far = depth_range
    for attempt in range(1000):
        if attempt >= 50:
            strata = rng.random(3)
        lhw = (rng.uniform(*l_band), rng.uniform(*h_band), rng.uniform(*w_band))
        tz = near + strata[0] * (far - near)
        yaw = -np.pi + 2.0 * np.pi * strata[1]
        lateral = (0.9 * strata[2] - 0.45) if attempt < 10 else rng.uniform(-0.45, 0.45)
        center = np.array([lateral * tz, CAMERA_HEIGHT - 0.5 * lhw[1], tz])
        uv = _project(p2, _corners(center, lhw, yaw))
        lo, hi = uv.min(axis=0), uv.max(axis=0)
        if lo[0] >= 1.0 and hi[0] <= IMAGE_W - 1.0 and hi[1] <= IMAGE_H - 1.0:
            return category, center, lhw, yaw, (lo[0], lo[1], hi[0], hi[1])
    raise RuntimeError("no admissible object in 1000 draws")


def _latin_hypercube(rng, n, dims):
    """``n`` points in [0, 1)^dims, one per stratum along every axis."""
    return np.stack([(rng.permutation(n) + rng.random(n)) / n for _ in range(dims)], axis=1)


def _frame(rng, stem, strata, depth_range):
    p2 = _make_p2(rng)
    lines, truths = [], []
    for point in strata:
        category, center, (l, h, w), yaw, rect = _sample_object(rng, p2, depth_range, point)
        location = center + np.array([0.0, 0.5 * h, 0.0])
        alpha = _wrap(yaw - np.arctan2(location[0], location[2]))
        truncated = 0.0 if rng.random() < 0.7 else rng.uniform(0.05, 0.5)
        occluded = int(rng.choice(3, p=[0.6, 0.3, 0.1]))
        fields = [category, _fmt(truncated), str(occluded), _fmt(alpha)]
        fields += [_fmt(v) for v in rect]
        fields += [_fmt(v) for v in (h, w, l, *location, _wrap(yaw))]
        lines.append(" ".join(fields))
        truths.append(Truth(tuple(center), tuple(float(_fmt(v)) for v in rect)))
    for _ in range(1 + int(rng.random() < 0.3)):
        x0, y0 = rng.uniform(0.0, IMAGE_W - 80.0), rng.uniform(140.0, 220.0)
        rect = (x0, y0, x0 + rng.uniform(20.0, 80.0), y0 + rng.uniform(10.0, 40.0))
        lines.append(
            "DontCare -1 -1 -10 " + " ".join(_fmt(v) for v in rect)
            + " -1 -1 -1 -1000 -1000 -1000 -10"
        )
    blank_first = rng.random() < 0.1
    text = ("\n" if blank_first else "") + "\n".join(lines) + "\n"
    return Frame(stem, text, _calib_text(p2), tuple(truths))


def _score(rng, zero_share, hi):
    return 0.0 if rng.random() < zero_share else float(rng.uniform(0.01, hi))


def _detections(rng, frame):
    """Planted detections, duplicates and distractors for one frame.

    Returns (entries, n_planted). The acceptance tests on each rectangle
    make the number of matched ground truths equal ``n_planted`` whatever
    the scores, so a matcher that ranks detections differently still has a
    fixed expected count.
    """
    label_lines = [ln for ln in frame.label_text.splitlines() if ln.strip()]
    gts = np.array([t.box2d for t in frame.truths])
    entries, planted = [], 0

    def entry(line, rect, score, noise):
        tokens = line.split()
        h, w, l = (float(v) for v in tokens[8:11])
        loc = np.array([float(v) for v in tokens[11:14]])
        depth = loc[2]
        loc = loc + rng.normal(0.0, noise, 3) * np.array([0.03, 0.01, 0.05]) * depth
        scale = 1.0 + rng.normal(0.0, 0.05 * noise, 3)
        yaw = _wrap(float(tokens[14]) + rng.normal(0.0, 0.25 * noise))
        return {
            "file": frame.stem,
            "category": tokens[0],
            "truncated": float(tokens[1]),
            "occluded": int(tokens[2]),
            "alpha": _wrap(yaw - np.arctan2(loc[0], loc[2])),
            "box2d": [float(_fmt(v)) for v in rect],
            "dims_hwl": [round(h * scale[0], 2), round(w * scale[1], 2), round(l * scale[2], 2)],
            "location": [round(float(v), 2) for v in loc],
            "rotation_y": round(yaw, 2),
            "score": round(score, 4),
        }

    def jitter(i, amount):
        x0, y0, x1, y1 = gts[i]
        dx, dy = amount * (x1 - x0), amount * (y1 - y0)
        rect = gts[i] + rng.uniform(-1.0, 1.0, 4) * np.array([dx, dy, dx, dy])
        return np.array([float(_fmt(v)) for v in rect])

    for i, line in enumerate(label_lines[: len(gts)]):
        if rng.random() >= 0.85:
            continue
        for _ in range(20):
            rect = jitter(i, 0.04)
            ious = _iou(rect, gts)
            own, ious[i] = ious[i], 0.0
            if own >= PLANT_IOU and ious.max() < OTHER_IOU:
                break
        else:
            continue
        planted += 1
        entries.append(entry(line, rect, _score(rng, 0.05, 1.0), 1.0))
        if rng.random() < 0.15:
            for _ in range(20):
                rect = jitter(i, 0.12)
                ious = _iou(rect, gts)
                ious[i] = 0.0
                if ious.max() < OTHER_IOU and rect[2] - rect[0] > 1 and rect[3] - rect[1] > 1:
                    entries.append(entry(line, rect, _score(rng, 0.1, 0.5), 2.0))
                    break
    for _ in range(int(0.2 * len(gts))):
        for _ in range(20):
            j = rng.integers(len(gts))
            w, h = gts[j, 2] - gts[j, 0], gts[j, 3] - gts[j, 1]
            x0 = rng.uniform(0.0, IMAGE_W - w - 1.0)
            rect = np.array([float(_fmt(v)) for v in (x0, gts[j, 1], x0 + w, gts[j, 3])])
            if _iou(rect, gts).max() < 0.5:
                entries.append(entry(label_lines[j], rect, _score(rng, 0.1, 0.7), 3.0))
                break
    order = rng.permutation(len(entries))
    return [entries[k] for k in order], planted


def make_corpus(seed, n_frames, objects, depth_range, detections=False):
    """Label and calibration text for ``n_frames`` frames.

    Args:
        seed: the workload seed; the same seed gives the same bytes.
        objects: (low, high) objects per frame, both inclusive.
        depth_range: (near, far) object depth in meters.
        detections: also generate a results file of planted detections,
            duplicates and distractors against these labels.
    """
    rng = np.random.default_rng(seed)
    # Frame sizes are stratified too: one frame per equal slice of the range.
    span = objects[1] - objects[0] + 1
    counts = objects[0] + (span * (rng.permutation(n_frames) + rng.random(n_frames)) / n_frames).astype(int)
    strata = _latin_hypercube(rng, int(counts.sum()), 3)
    starts = np.concatenate([[0], np.cumsum(counts)])
    frames, results, planted = [], [], 0
    for i in range(n_frames):
        frame = _frame(rng, f"{i:06d}", strata[starts[i]:starts[i + 1]], depth_range)
        frames.append(frame)
        if detections:
            entries, n_planted = _detections(rng, frame)
            results.extend(json.dumps(e) + "\n" for e in entries)
            planted += n_planted
    return Corpus(tuple(frames), "".join(results), planted, len(results))


# The shared machine this benchmark runs on changes speed by up to about
# 20 % from one run to the next, and by as much within a minute. A reference
# unit of fixed work that uses no boxlift code (generating a six-frame
# corpus) is timed beside the measured work; timings are scaled by the
# slowdown, the reference's median over REFERENCE_NOMINAL_S, the median it
# took on a quiet machine.
REFERENCE_NOMINAL_S = 0.014


def reference():
    """Wall seconds of one reference unit.

    Garbage left by earlier work is collected first, untimed, so the
    program's heap does not change the reference's time.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        make_corpus(7, 6, (8, 12), (5.0, 50.0))
        return time.perf_counter() - start
    finally:
        gc.enable()
