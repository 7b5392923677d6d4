"""Parsers and writers for KITTI label files, calibration files and the
JSON-lines results format.

KITTI label columns (whitespace separated, one object per line):

    type truncated occluded alpha  x_min y_min x_max y_max  h w l  x y z
    rotation_y [score]

``location`` (x, y, z) is the BOTTOM-center of the 3D box in the rectified
camera frame (y down), so the box center sits half a height above it.
``alpha`` is the crop-local orientation, ``rotation_y`` the global yaw.
DontCare lines carry -1/-1000 placeholders and are kept, flagged, so
callers can exclude the regions from matching.

``read_label_columns`` is the one label parser. It splits and converts
each line once and checks the whole file as array operations, and returns
columns; ``parse_label_file`` is its view as DetectionRecords.

Calibration files are "KEY: v0 ... v11" lines; only P2 (the 3x4 projection
matrix of the left color camera) is required here. Its left 3x3 block is
the intrinsics matrix K and its fourth column encodes the camera's offset
from the reference camera; that offset is exposed as an additive
camera-frame translation so projection keeps the x = K (R X + T) form.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import MalformedLineError, MissingKeyError, NoSamplesError
from .geometry import Box2D, Box3D, CameraIntrinsics, Dimensions

__all__ = [
    "DetectionRecord",
    "CalibRecord",
    "read_label_columns",
    "parse_label_file",
    "parse_calib_file",
    "write_results",
    "location_to_center",
    "center_to_location",
    "centers_to_locations",
    "compute_mean_dims",
    "LABEL_COLUMNS",
    "RESULT_FIELDS",
    "result_entries",
    "result_lines",
    "write_results_jsonl",
]

DONT_CARE = "DontCare"
_ANGLE_SLACK = 1e-6  # tolerate formatting jitter at +-pi
# Names of the numeric label columns, in file order after the category.
LABEL_COLUMNS = (
    "truncated", "occluded", "alpha", "x_min", "y_min", "x_max", "y_max",
    "height", "width", "length", "x", "y", "z", "rotation_y", "score",
)


@dataclass(frozen=True)
class DetectionRecord:
    """One parsed KITTI label or result line.

    ``line_no`` is the 1-based physical line a label record was parsed
    from; it is provenance, not content, so equality ignores it.
    """

    category: str
    truncated: float
    occluded: int
    alpha: float
    box2d: Box2D
    height: float
    width: float
    length: float
    location: np.ndarray
    rotation_y: float
    score: Optional[float] = None
    line_no: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "location", np.asarray(self.location, dtype=float)
        )

    @property
    def is_dont_care(self):
        return self.category == DONT_CARE

    @property
    def has_dimensions(self):
        return self.height > 0 and self.width > 0 and self.length > 0

    @property
    def dims(self):
        """Extents as Dimensions, mapping KITTI (l, h, w) to (dx, dy, dz)."""
        return Dimensions(dx=self.length, dy=self.height, dz=self.width)


@dataclass(frozen=True)
class CalibRecord:
    """Projection matrix P2 with derived intrinsics and camera offset."""

    p2: np.ndarray

    def __post_init__(self):
        p2 = np.asarray(self.p2, dtype=float)
        if p2.shape != (3, 4):
            raise ValueError("P2 must be 3x4")
        if abs(p2[2, 2] - 1.0) > 1e-6:
            raise ValueError("P2[2][2] must be 1")
        if p2[0, 0] <= 0 or p2[1, 1] <= 0:
            raise ValueError("focal lengths in P2 must be positive")
        object.__setattr__(self, "p2", p2)

    @property
    def intrinsics(self):
        return CameraIntrinsics(
            fx=self.p2[0, 0],
            fy=self.p2[1, 1],
            cx=self.p2[0, 2],
            cy=self.p2[1, 2],
            skew=self.p2[0, 1],
        )

    @property
    def translation_offset(self):
        """Additive camera-frame translation t0 with P2 X = K (X + t0)."""
        return np.linalg.solve(self.p2[:, :3], self.p2[:, 3])


def _parse_float(token, line_no):
    try:
        return float(token)
    except ValueError:
        raise MalformedLineError(line_no, token) from None


# The checks of a label line, in the order they are reported: the first
# failing check of the first bad line is the error.
_CHECKS = ("columns", "token", "finite", "rectangle", "angle")
_NAN_TOKENS = ["nan"] * 16  # pads a line to 16 tokens


def read_label_columns(text):
    """Read KITTI label text into columns, one row per non-blank line.

    Each line is split and converted once; the checks run as array
    operations over the whole file.

    Returns:
        (categories, values, dont_care, line_nos): a list of str; a float
        (n, 15) array in ``LABEL_COLUMNS`` order, whose score is NaN when
        the line has none (or, on a DontCare line, a non-finite one); a
        bool DontCare mask; and the 1-based physical line numbers.

    Raises:
        MalformedLineError: for the first bad line: a column count other
            than 15 or 16, an unparseable token, a non-finite number (only
            the occlusion on a DontCare line), a degenerate rectangle, or
            alpha or rotation_y outside [-pi, pi] on a line not DontCare.
    """
    categories, line_nos, counts, rows = [], [], [], []
    parsed = True  # False: the last line read holds a token that is no number
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        categories.append(tokens[0])
        line_nos.append(line_no)
        counts.append(len(tokens))
        tokens += _NAN_TOKENS[len(tokens):]  # a missing score, or a short line
        try:
            rows.append(list(map(float, tokens[1:16])))
        except ValueError:  # no later line can be the first bad one
            parsed = False
            rows.append([math.nan] * 15)
            break
    values = np.array(rows, dtype=float).reshape(-1, 15)
    counts = np.array(counts)
    dont_care = np.array([c == DONT_CARE for c in categories], dtype=bool)

    finite = np.isfinite(values)
    finite[:, 14] |= counts != 16  # no score column, no score to check
    box = values[:, 3:7]
    passed = np.empty((len(rows), len(_CHECKS)), dtype=bool)  # row, check
    passed[:, 0] = (counts == 15) | (counts == 16)
    passed[:, 1] = True
    passed[-1:, 1] = parsed
    passed[:, 2] = np.where(dont_care, finite[:, 1], finite.all(axis=1))
    passed[:, 3] = finite[:, 3:7].all(axis=1) & (box[:, :2] < box[:, 2:]).all(axis=1)
    passed[:, 4] = dont_care | (np.abs(values[:, 2:14:11]) <= np.pi + _ANGLE_SLACK).all(axis=1)
    if not passed.all():
        row = int(np.argmin(passed.all(axis=1)))
        line_no = line_nos[row]
        tokens = text.splitlines()[line_no - 1].split()
        _raise_label_error(_CHECKS[int(np.argmin(passed[row]))], line_no, tokens, values[row])
    return categories, values, dont_care, np.array(line_nos, dtype=int)


def _raise_label_error(check, line_no, tokens, values):
    """Raise the MalformedLineError of a label line's first failing check."""
    if check == "columns":
        token, message = tokens[-1], f"expected 15 or 16 columns, got {len(tokens)}"
    elif check == "token":
        for token in tokens[1:]:
            _parse_float(token, line_no)
    elif check == "finite":
        column = 1 if tokens[0] == DONT_CARE else int(np.argmin(np.isfinite(values)))
        token, message = tokens[column + 1], f"{LABEL_COLUMNS[column]} is not finite"
    elif check == "rectangle":
        token, message = " ".join(tokens[4:8]), "degenerate 2D box"
    else:
        name = "alpha" if abs(values[2]) > np.pi + _ANGLE_SLACK else "rotation_y"
        angle = values[LABEL_COLUMNS.index(name)].item()
        token, message = f"{name}={angle}", f"{name} out of [-pi, pi]"
    raise MalformedLineError(line_no, token, f"line {line_no}: {message}")


def parse_label_file(text):
    """Parse KITTI label text into DetectionRecords, one per non-blank line.

    The records view of ``read_label_columns``, whose MalformedLineError it
    raises. Unknown categories are preserved verbatim; DontCare records are
    kept and flagged via ``is_dont_care``.
    """
    categories, values, _, line_nos = read_label_columns(text)
    rows = zip(categories, values.tolist(), values[:, 10:13], line_nos.tolist())
    return [
        DetectionRecord(
            category, row[0], int(row[1]), row[2], Box2D(*row[3:7]), *row[7:10],
            location=location, rotation_y=row[13],
            score=None if math.isnan(row[14]) else row[14], line_no=line_no,
        )
        for category, row, location, line_no in rows
    ]


def parse_calib_file(text):
    """Extract the P2 projection matrix from KITTI calibration text.

    Raises:
        MissingKeyError: if no P2 line is present.
        MalformedLineError: if the P2 line does not hold 12 numbers.
    """
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.startswith("P2:"):
            continue
        tokens = line.split()[1:]
        if len(tokens) != 12:
            raise MalformedLineError(
                line_no, line.strip(), f"line {line_no}: P2 needs 12 values"
            )
        values = [_parse_float(t, line_no) for t in tokens]
        return CalibRecord(p2=np.array(values).reshape(3, 4))
    raise MissingKeyError("P2")


def location_to_center(record):
    """Box3D for a record: center half a height above the bottom-center.

    Raises:
        ValueError: if the record has no valid dimensions.
    """
    if not record.has_dimensions:
        raise ValueError(f"record has no dimensions: {record.category}")
    center = record.location - np.array([0.0, 0.5 * record.height, 0.0])
    return Box3D(center=center, dims=record.dims, yaw=record.rotation_y)


def center_to_location(box):
    """Bottom-center location and (h, w, l) extents for a Box3D."""
    location = centers_to_locations(box.center, box.dims.dy)
    return location, (box.dims.dy, box.dims.dz, box.dims.dx)


def centers_to_locations(centers, heights):
    """Bottom-center locations of boxes with centers (N, 3) and heights (N,)."""
    centers = np.asarray(centers, dtype=float)
    shift = np.zeros_like(centers)
    shift[..., 1] = 0.5 * np.asarray(heights, dtype=float)
    return centers + shift


def write_results(records):
    """Serialize records back to KITTI text, 2-decimal fixed point.

    The records view of ``result_lines``: the score column, when present, is
    appended last. Records are written in the order given.
    """
    records = list(records)
    lines = result_lines(
        {
            "category": [r.category for r in records],
            "truncated": [r.truncated for r in records],
            "occluded": [r.occluded for r in records],
            "alpha": [r.alpha for r in records],
            "box2d": [r.box2d.as_array for r in records],
            "dims_hwl": [(r.height, r.width, r.length) for r in records],
            "location": [r.location for r in records],
            "rotation_y": [r.rotation_y for r in records],
            "score": [r.score for r in records],
        }
    )
    return "\n".join(lines) + ("\n" if lines else "")


def compute_mean_dims(records, category):
    """Per-axis mean extents over non-DontCare records of ``category``.

    Raises:
        NoSamplesError: if no such record exists.
    """
    samples = [
        r.dims.as_array
        for r in records
        if r.category == category and not r.is_dont_care and r.has_dimensions
    ]
    if not samples:
        raise NoSamplesError(category)
    mean = np.mean(samples, axis=0)
    return Dimensions(dx=mean[0], dy=mean[1], dz=mean[2])


# The results layout: a line holds these keys in this order, then "file" and
# "line" when known, then the solver diagnostics.
RESULT_FIELDS = (
    "category", "truncated", "occluded", "alpha", "box2d", "dims_hwl", "location",
    "rotation_y", "score",
)
_FLOAT_ROWS = ("box2d", "location")


def _as_list(column):
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def result_entries(fields, diagnostics=None):
    """JSON-ready dicts of N result records given as columns.

    Args:
        fields: every key of ``RESULT_FIELDS`` and, optionally, ``file``
            and ``line``, each mapped to a column of N values (a list or an
            array; one row per record for ``box2d``, ``dims_hwl`` and
            ``location``). ``box2d`` and ``location`` rows become lists of
            floats, array columns become Python values.
        diagnostics: further keys mapped to columns of N values, appended
            in the order given.
    """
    keys = RESULT_FIELDS + tuple(k for k in ("file", "line") if k in fields)
    columns = [
        np.asarray(fields[k], dtype=float).tolist() if k in _FLOAT_ROWS else _as_list(fields[k])
        for k in keys
    ]
    if diagnostics:
        keys += tuple(diagnostics)
        columns += map(_as_list, diagnostics.values())
    return [dict(zip(keys, row)) for row in zip(*columns)]


def _fixed(column):
    return [f"{v:.2f}" for v in _as_list(column)]


def result_lines(fields):
    """KITTI text lines, 2-decimal fixed point, of N result records given as columns.

    ``fields`` holds the keys of ``RESULT_FIELDS`` as for ``result_entries``,
    with ``occluded`` as ints. A score of None leaves its line without the
    score column, which otherwise comes last.
    """
    columns = [
        _as_list(fields["category"]),
        _fixed(fields["truncated"]),
        [f"{o:d}" for o in _as_list(fields["occluded"])],
        _fixed(fields["alpha"]),
    ]
    for key in ("box2d", "dims_hwl", "location"):
        columns += map(_fixed, np.asarray(fields[key], dtype=float).T)
    columns.append(_fixed(fields["rotation_y"]))
    lines = [" ".join(row) for row in zip(*columns)]
    return [
        line if score is None else f"{line} {score:.2f}"
        for line, score in zip(lines, _as_list(fields["score"]))
    ]


def result_to_json_dict(record, file_id=None, line_no=None, diagnostics=None):
    """JSON-ready dict for one result record plus solver diagnostics.

    The N = 1 case of ``result_entries``.
    """
    fields = {
        "category": [record.category],
        "truncated": [record.truncated],
        "occluded": [record.occluded],
        "alpha": [record.alpha],
        "box2d": [record.box2d.as_array],
        "dims_hwl": [[record.height, record.width, record.length]],
        "location": [record.location],
        "rotation_y": [record.rotation_y],
        "score": [record.score],
    }
    if file_id is not None:
        fields["file"] = [file_id]
    if line_no is not None:
        fields["line"] = [line_no]
    return result_entries(fields, {k: [v] for k, v in (diagnostics or {}).items()})[0]


def write_results_jsonl(entries, stream):
    """Write result dicts (see ``result_entries``) one per line, in one write."""
    stream.write("".join([json.dumps(entry) + "\n" for entry in entries]))
