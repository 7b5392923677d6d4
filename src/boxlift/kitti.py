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
each line once, checks the whole file as array operations, and returns
the file's KITTI table; ``parse_label_file`` is its view as DetectionRecords.
Every reader splits its text with ``physical_lines``, the file object's rule.

In memory a set of records is a KITTI table: a dict of numpy columns, one
row per record, keyed by the results-format names: the keys of
``RESULT_FIELDS`` (``box2d``, ``dims_hwl`` and ``location`` hold rows of 4,
3 and 3), then ``file`` (the label file's stem), ``line`` (the physical
line) and any diagnostics; text and exact-int columns are object arrays.
The label reader, ``lift_columns`` (the paper's pipeline), the results
writers and readers and ``metrics.evaluate`` take or give such tables.

Calibration files are "KEY: v0 ... v11" lines; only P2 (the 3x4 projection
matrix of the left color camera) is required here. Its left 3x3 block is
the intrinsics matrix K and its fourth column encodes the camera's offset
from the reference camera; that offset is exposed as an additive
camera-frame translation so projection keeps the x = K (R X + T) form.
``_p2_fault`` holds the rules of a usable P2, in the order they are
reported: every value finite, P2[2][2] within 1e-6 of 1, positive focal
lengths and a zero lower triangle of K. CalibRecord checks them, as does
``_read_p2`` where it reads a text's P2 line; its MalformedLineError names
the line, and the token of a value that is not finite. ``read_calib_table``
reads every file once through ``_read_p2`` and returns per file K, the
offset from one stacked solve and the file's error; ``parse_calib_file``
is ``_read_p2`` on one text, as a CalibRecord.
"""

import errno
import json
import math
from dataclasses import dataclass, field, fields
from itertools import chain, repeat
from operator import itemgetter
from typing import Optional

import numpy as np

from .errors import MalformedLineError, MissingKeyError
from .geometry import Box2D, CameraIntrinsics, Dimensions, rotations_from_angles
from .multibin import local_to_global
from .solver import FAILURES, LIFTED, lift_batch

__all__ = [
    "DetectionRecord",
    "CalibRecord",
    "physical_lines",
    "read_text",
    "read_label_columns",
    "parse_label_file",
    "parse_calib_file",
    "read_calib_table",
    "write_results",
    "centers_to_locations",
    "LABEL_COLUMNS",
    "RESULT_FIELDS",
    "result_entries",
    "result_lines",
    "write_results_jsonl",
    "read_results",
    "read_residuals",
    "evaluation_columns",
    "lift_columns",
]

DONT_CARE = "DontCare"
_ANGLE_SLACK = 1e-6  # tolerate formatting jitter at +-pi
# A location coordinate or extent beyond it, in meters, is no road object's;
# it also bounds the 10 m bands of metrics.distance_binned_errors.
MAX_METERS = 1e4
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
    def dims(self):
        """Extents as Dimensions, mapping KITTI (l, h, w) to (dx, dy, dz)."""
        return Dimensions(dx=self.length, dy=self.height, dz=self.width)


# The errnos of a path that is not there: Path.exists is False.
_ABSENT = (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)


@dataclass(frozen=True)
class CalibRecord:
    """Projection matrix P2 with derived intrinsics and camera offset."""

    p2: np.ndarray

    def __post_init__(self):
        p2 = np.asarray(self.p2, dtype=float)
        if p2.shape != (3, 4):
            raise ValueError("P2 must be 3x4")
        fault = _p2_fault(p2.ravel().tolist())
        if fault is not None:
            raise ValueError(fault[1])
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


def physical_lines(text):
    """The physical lines of ``text``, without their ends, as Python's file
    object reads them: "\\n", "\\r\\n" and "\\r" end a line (``str.splitlines``
    would also break at "\\f", "\\x85", "\\u2028" and others)."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:  # the end of the last line, or an empty text
        lines.pop()
    return lines


def read_text(path):
    """The text of a UTF-8 file, read with one plain ``open`` and decoded once.

    Raises:
        MalformedLineError: if the file is not UTF-8, naming the file and
            the physical line of its first bad byte.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        bad = data[exc.start:exc.end]
        line_no = len(physical_lines(data[:exc.start].decode() + "."))
        reason = f"not UTF-8: {exc.reason} {bad!r}"
        raise MalformedLineError(line_no, repr(bad), reason, path) from None


def _parse_float(token, line_no):
    try:
        return float(token)
    except ValueError:
        raise MalformedLineError(line_no, token) from None


# The checks of a label line, in the order they are reported: the first
# failing check of the first bad line is the error.
_CHECKS = ("columns", "token", "finite", "rectangle", "angle", "meters")
_NAN_TOKENS = ["nan"] * 16  # pads a line to 16 tokens


def read_label_columns(text):
    """Read KITTI label text into a KITTI table, one row per non-blank line.

    Each line is split and converted once; the checks run as array
    operations over the whole file.

    Returns:
        The table of every record, DontCare included: ``category``,
        ``truncated``, ``occluded`` (truncated to a whole number, as ``int``
        does), ``alpha``, ``box2d``, ``dims_hwl``, ``location``, ``rotation_y``,
        ``score`` (NaN where the line has none or, on a DontCare line, a
        non-finite one) and ``line``, the 1-based physical line.

    Raises:
        MalformedLineError: for the first bad line: a column count other
            than 15 or 16, an unparseable token, a non-finite number (only
            the occlusion on a DontCare line), a degenerate rectangle, or
            alpha or rotation_y outside [-pi, pi], or an extent or location
            coordinate beyond ``MAX_METERS`` in magnitude, on a line not
            DontCare.
    """
    categories, line_nos, counts, rows = [], [], [], []
    parsed = True  # False: the last line read holds a token that is no number
    lines = physical_lines(text)
    for line_no, line in enumerate(lines, start=1):
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
    passed[:, 5] = dont_care | (np.abs(values[:, 7:13]) <= MAX_METERS).all(axis=1)
    if not passed.all():
        row = int(np.argmin(passed.all(axis=1)))
        check, line_no = _CHECKS[int(np.argmin(passed[row]))], line_nos[row]
        _raise_label_error(check, line_no, lines[line_no - 1].split(), values[row])
    return {
        "category": np.array(categories, dtype=object), "truncated": values[:, 0],
        "occluded": np.trunc(values[:, 1]), "alpha": values[:, 2], "box2d": values[:, 3:7],
        "dims_hwl": values[:, 7:10], "location": values[:, 10:13], "rotation_y": values[:, 13],
        "score": values[:, 14], "line": np.array(line_nos, dtype=int),
    }


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
    elif check == "angle":
        name = "alpha" if abs(values[2]) > np.pi + _ANGLE_SLACK else "rotation_y"
        angle = values[LABEL_COLUMNS.index(name)].item()
        token, message = f"{name}={angle}", f"{name} out of [-pi, pi]"
    else:
        column = 7 + int(np.argmax(np.abs(values[7:13]) > MAX_METERS))
        token, message = tokens[column + 1], f"{LABEL_COLUMNS[column]} beyond {MAX_METERS:.0f} m"
    raise MalformedLineError(line_no, token, message)


def parse_label_file(text):
    """Parse KITTI label text into DetectionRecords, one per non-blank line.

    The records view of ``read_label_columns``, whose MalformedLineError it
    raises. Unknown categories are preserved verbatim; DontCare records are
    kept and flagged via ``is_dont_care``. The reader's array checks have
    vouched for every rectangle, and each location is a float row of its
    table, so no Box2D or DetectionRecord runs its own checks again.
    """
    table = read_label_columns(text)
    boxes = [_unchecked(Box2D, _BOX_FIELDS, box) for box in table["box2d"].tolist()]
    rows = zip(
        table["category"].tolist(), table["truncated"].tolist(),
        map(int, table["occluded"].tolist()), table["alpha"].tolist(), boxes,
        *table["dims_hwl"].T.tolist(), table["location"], table["rotation_y"].tolist(),
        [None if math.isnan(score) else score for score in table["score"].tolist()],
        table["line"].tolist(),
    )
    return [_unchecked(DetectionRecord, _RECORD_FIELDS, row) for row in rows]


_BOX_FIELDS = ("x_min", "y_min", "x_max", "y_max")
_RECORD_FIELDS = tuple(f.name for f in fields(DetectionRecord))


def _unchecked(cls, names, values):
    """The frozen dataclass ``cls`` with fields ``names`` set to ``values``,
    built without ``__init__`` and so without ``__post_init__``'s checks."""
    instance = object.__new__(cls)
    vars(instance).update(zip(names, values))
    return instance


def _p2_fault(values, tokens=None):
    """None, or (token, reason) for the first rule that the 12 row-major
    values of a P2 break, in this order: every value finite (token: the
    first that is not, as ``tokens`` spells it), P2[2][2] within 1e-6 of 1,
    positive focal lengths, a zero lower triangle (token None: the matrix)."""
    if not all(map(math.isfinite, values)):
        i = [math.isfinite(v) for v in values].index(False)
        token = repr(values[i]) if tokens is None else tokens[i]
        return token, f"P2 value {token} is not finite"
    fx, _, _, _, k10, fy, _, _, k20, k21, k22, _ = values
    if abs(k22 - 1.0) > 1e-6:
        return None, "P2[2][2] must be 1"
    if fx <= 0 or fy <= 0:
        return None, "focal lengths in P2 must be positive"
    if k10 != 0 or k20 != 0 or k21 != 0:  # K is upper triangular
        return None, "P2[1][0], P2[2][0] and P2[2][1] must be 0"
    return None


def _read_p2(text):
    """The 12 row-major values of the P2 line of calibration text.

    Raises:
        MalformedLineError: without a path: line None if no line starts with
            "P2:"; else naming the P2 line, for a count other than 12, a bad
            token or a value or matrix that ``_p2_fault`` rejects.
    """
    for line_no, line in enumerate(physical_lines(text), start=1):
        if line.startswith("P2:"):
            break
    else:
        raise MalformedLineError(None, "P2", "no P2 line")
    tokens = line.split()[1:]
    if len(tokens) != 12:
        raise MalformedLineError(line_no, line.strip(), "P2 needs 12 values")
    try:
        values = list(map(float, tokens))
    except ValueError:  # again, token by token, to name the first bad one
        values = [_parse_float(token, line_no) for token in tokens]
    fault = _p2_fault(values, tokens)
    if fault is not None:
        token, reason = fault
        raise MalformedLineError(line_no, token or line.strip(), reason)
    return values


def parse_calib_file(text):
    """The CalibRecord of the P2 line of KITTI calibration text.

    Raises:
        MissingKeyError: if no P2 line is present.
        MalformedLineError: if the P2 line is not 12 finite numbers that CalibRecord accepts.
    """
    try:
        values = _read_p2(text)
    except MalformedLineError as exc:
        if exc.line_no is None:
            raise MissingKeyError("P2") from None
        raise
    return CalibRecord(np.reshape(values, (3, 4)))


def read_calib_table(paths):
    """(ks, offsets, errors) of the calibration files ``paths``, each read
    once: per file K, as ``CalibRecord.intrinsics.matrix`` builds it, and the
    camera offset, as ``CalibRecord.translation_offset`` solves it (zeros if
    unusable); and None, or a FileNotFoundError if the file is not there (as
    for ``Path.exists``), the OSError of its read, or its MalformedLineError."""
    values, errors = [], [None] * len(paths)
    for i, path in enumerate(paths):
        try:
            values += _read_p2(read_text(path))
        except OSError as exc:
            missing = exc.errno in _ABSENT
            errors[i] = FileNotFoundError(exc.errno, exc.strerror, exc.filename) if missing else exc
        except MalformedLineError as exc:  # not UTF-8 (located already), or a bad P2 line
            errors[i] = exc.at(path)
    usable = np.array([error is None for error in errors], dtype=bool)
    p2 = np.reshape(values, (-1, 3, 4))
    ks, offsets = np.zeros((len(errors), 3, 3)), np.zeros((len(errors), 3))
    ks[usable, 0], ks[usable, 1, 1:], ks[usable, 2, 2] = p2[:, 0, :3], p2[:, 1, 1:3], 1.0
    offsets[usable] = np.linalg.solve(p2[..., :3], p2[..., 3:])[..., 0]  # a stack of LAPACK solves
    return ks, offsets, errors


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
    lines = result_lines({
        "category": np.array([r.category for r in records], dtype=object),
        "truncated": [r.truncated for r in records],
        "occluded": np.array([r.occluded for r in records], dtype=object),
        "alpha": [r.alpha for r in records],
        "box2d": [r.box2d.as_array for r in records],
        "dims_hwl": [(r.height, r.width, r.length) for r in records],
        "location": [r.location for r in records],
        "rotation_y": [r.rotation_y for r in records],
        "score": [r.score for r in records],
    })
    return "\n".join(lines) + ("\n" if lines else "")


# The results layout: a line holds these keys in this order, then the other
# keys of its table in the table's order ("file", "line", the diagnostics).
RESULT_FIELDS = (
    "category", "truncated", "occluded", "alpha", "box2d", "dims_hwl", "location",
    "rotation_y", "score",
)
# The keys whose values are rows, and their widths.
_ROW_WIDTHS = {"box2d": 4, "dims_hwl": 3, "location": 3, "configuration": 4}


def _line_keys(table):
    return RESULT_FIELDS + tuple(key for key in table if key not in RESULT_FIELDS)


def result_entries(table):
    """JSON-ready dicts of the records of a KITTI table, one a row: its keys
    in results-line order, each column as ``np.asarray(column).tolist()``."""
    keys = _line_keys(table)
    return [dict(zip(keys, row)) for row in zip(*(np.asarray(table[k]).tolist() for k in keys))]


def _fixed(column):
    return [f"{v:.2f}" for v in np.asarray(column).tolist()]


def result_lines(table):
    """KITTI text lines, 2-decimal fixed point, of the records of a KITTI table
    whose ``occluded`` holds ints. A score of None leaves its line without
    the score column, which otherwise comes last."""
    columns = [
        np.asarray(table["category"]).tolist(),
        _fixed(table["truncated"]),
        [f"{o:d}" for o in np.asarray(table["occluded"]).tolist()],
        _fixed(table["alpha"]),
    ]
    for key in ("box2d", "dims_hwl", "location"):
        columns += map(_fixed, np.asarray(table[key], dtype=float).T)
    columns.append(_fixed(table["rotation_y"]))
    lines = [" ".join(row) for row in zip(*columns)]
    return [
        line if score is None else f"{line} {score:.2f}"
        for line, score in zip(lines, np.asarray(table["score"]).tolist())
    ]


def _json_texts(values):
    """``json.dumps`` of each of a list of values.

    One call for the whole list, split on ", ": exact when it gives one text
    a value, since no value's text starts with a space or ends with a comma.
    Otherwise (some text holds ", ", or N = 0) one call a value.
    """
    texts = json.dumps(values)[1:-1].split(", ")
    return texts if len(texts) == len(values) else [json.dumps(v) for v in values]


def write_results_jsonl(table, stream):
    """Write the records of a KITTI table as JSON lines, in one write.

    Writes, for each entry of ``result_entries(table)``, exactly
    ``json.dumps(entry) + "\\n"``, but builds no entry: each column, and each
    component column of a row column, is encoded by one ``json.dumps`` call
    (see ``_json_texts``), and each line interleaves the constant pieces of
    one line layout, built from the keys, with its texts.

    Raises:
        TypeError: for a value ``json.dumps`` cannot encode.
        ValueError: for a row of ``box2d``, ``dims_hwl``, ``location`` or
            ``configuration`` without 4, 3, 3 or 4 values.
    """
    pieces, texts, piece = [], [], "{"  # piece: the constant text before the next value
    for key in _line_keys(table):
        piece += f"{json.dumps(key)}: "
        width = _ROW_WIDTHS.get(key)
        column = np.asarray(table[key])
        if width is None:
            pieces.append(piece)
            texts.append(_json_texts(column.tolist()))
            piece = ", "
        elif column.size != len(column) * width:
            raise ValueError(f"rows of {width} values expected")
        else:
            pieces += [piece + "["] + [", "] * (width - 1)
            texts += map(_json_texts, column.reshape(-1, width).T.tolist())
            piece = "], "
    n = len(texts[0])
    columns = chain.from_iterable(zip(map(repeat, pieces, repeat(n)), texts))
    lines = zip(*columns, repeat(piece[:-2] + "}\n", n))  # one tuple of texts a line
    stream.write("".join(chain.from_iterable(lines)))


def _nonblank_lines(path):
    """(1-based physical line number, text) of each non-blank line of a file."""
    lines = physical_lines(read_text(path))
    return [(line_no, text) for line_no, text in enumerate(lines, start=1) if text.strip()]


def _converted(path, line, convert):
    """``convert`` of the ``json.loads`` of a (line number, text) line of a
    JSON-lines file.

    Raises:
        MalformedLineError: for a line that is not JSON or that ``convert``
            rejects, naming the file and the 1-based physical line.
    """
    line_no, text = line
    try:
        return convert(json.loads(text))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        raise MalformedLineError(line_no, text.strip(), reason, path) from None


def _residual(entry):
    key, delta = (entry["file"], entry["line"]), entry["delta"]
    hash(key)  # TypeError for a list or an object: no key
    if any(isinstance(v, (str, bool)) for v in np.asarray(delta, dtype=object).flat):
        raise TypeError(f"delta must hold numbers, not strings or booleans: {delta!r}")
    return key, np.asarray(delta, dtype=float)


def read_residuals(path):
    """Dimension residuals from JSON lines of {"file", "line", "delta": [3]},
    as (file, line) -> the delta as a float array. A string in a delta makes
    its line malformed, as does a boolean; a null or NaN is read as NaN. A
    ``file`` that is not a JSON string (a number, null) or a ``line`` that is
    not a JSON integer (a boolean, a float such as 2.0, a string) makes its
    line malformed too: no label record would match its key.

    Raises:
        MalformedLineError: for the first line that is not JSON, that
            ``_residual`` rejects, whose (file, line) key an earlier line
            holds, whose ``file`` is no string or whose ``line`` is no
            integer, naming the file and the 1-based physical line.
    """
    residuals, first = {}, {}  # key -> delta, and key -> the line that gave it
    for line_no, text in _nonblank_lines(path):
        key, delta = _converted(path, (line_no, text), _residual)
        if key in first:
            reason = f"duplicate key {key!r}, first on line {first[key]}"
            raise MalformedLineError(line_no, text.strip(), reason, path)
        # as a key, true would be line 1 and 2.0 line 2; one equal to an earlier key is its duplicate
        rules = zip(("file", "line"), key, (str, int), ("a string", "an integer"))
        for name, value, kind, noun in rules:
            if type(value) is not kind:
                reason = f"{name} must be {noun}, not {type(value).__name__}: {value!r}"
                raise MalformedLineError(line_no, text.strip(), reason, path)
        residuals[key], first[key] = delta, line_no
    return residuals


def _result_row(entry):
    """(file, row) of one results entry. The row holds the label columns
    from x_min on: the rectangle, h, w, l, the location, rotation_y and the
    score, 1.0 when null.

    Raises:
        KeyError, TypeError, ValueError, OverflowError: for a missing key or
            a bad value.
    """
    box, dims, location = entry["box2d"], entry["dims_hwl"], entry["location"]
    # not read here, but a line without them is no results line
    category, _, occluded = entry["category"], entry["alpha"], entry.get("occluded", 0)
    if isinstance(occluded, (str, bool)):  # int would parse a string, read a boolean as 0 or 1
        kind = "a boolean" if isinstance(occluded, bool) else "a string"
        raise TypeError(f"occluded must be a number, not {kind}")
    int(occluded)  # TypeError for a non-number, OverflowError or ValueError for inf or NaN
    if (len(box), len(dims), len(location)) != (4, 3, 3):
        raise ValueError("box2d, dims_hwl and location need 4, 3 and 3 values")
    score = entry.get("score")
    row = [*box, *dims, *location, entry["rotation_y"], 1.0 if score is None else score]
    if bool in map(type, row):  # math.isfinite would read it as 0 or 1
        column = LABEL_COLUMNS[3 + list(map(type, row)).index(bool)]
        raise TypeError(f"{column} must be a number, not a boolean")
    finite = [math.isfinite(v) for v in row]  # TypeError for a non-number
    if not all(finite):
        raise ValueError(f"{LABEL_COLUMNS[3 + finite.index(False)]} is not finite")
    if min(dims) <= 0:
        raise ValueError(f"record has no dimensions: {category}")
    if box[0] >= box[2] or box[1] >= box[3]:
        raise ValueError("degenerate 2D box")
    return str(entry.get("file", "0")), row


_RESULT_KEYS = itemgetter("box2d", "dims_hwl", "location", "rotation_y", "category", "alpha")
_UNREAD = (None, *[math.nan] * 13)  # not finite, so suspect


def _result_numbers(entry):
    """(file, *numbers) of a results entry: its file and the values
    ``_result_row`` reads or checks: the rectangle, dims_hwl, location,
    rotation_y, the score (1.0 when null) and occluded. ``_UNREAD`` unless
    the entry is an object with the keys and rows of 4, 3 and 3 values."""
    try:
        box, dims, location, yaw, _, _ = _RESULT_KEYS(entry)
        if (len(box), len(dims), len(location)) == (4, 3, 3):
            score, occluded = entry.get("score"), entry.get("occluded", 0)
            score = 1.0 if score is None else score
            return (str(entry.get("file", "0")), *box, *dims, *location, yaw, score, occluded)
    except (KeyError, TypeError):  # no object, or a key missing
        pass
    return _UNREAD


def _result_values(rows):
    """(files, values, suspect): the ``_result_numbers`` rows of results
    entries as a file list and an (N, 12) array in ``_result_row``'s order,
    checked as arrays; and per entry whether ``_result_row`` might reject it
    or read it otherwise.

    A conservative filter: an entry not suspect is one ``_result_row``
    accepts, with this file and row. Every entry is suspect when a value is
    no JSON number or beyond float's range; otherwise an entry is suspect
    when a value is not finite, a dimension is not positive or its
    rectangle is degenerate.
    """
    n = len(rows)
    files, *numbers = zip(*rows) if rows else [()] * 14
    try:
        checked = set(map(type, chain.from_iterable(numbers))) <= {int, float}
        columns = np.array(numbers, dtype=float).reshape(13, n) if checked else None
    except OverflowError:  # an int beyond float's range
        columns = None
    if columns is None:
        return [None] * n, np.zeros((n, 12)), np.ones(n, dtype=bool)
    suspect = ~np.isfinite(columns).all(axis=0) | (columns[4:7] <= 0).any(axis=0)
    suspect |= (columns[:2] >= columns[2:4]).any(axis=0)
    return list(files), columns[:12].T.copy(), suspect


def read_results(path):
    """The KITTI table of a results file: ``file`` ("0" where a line has
    none), ``box2d``, ``dims_hwl``, ``location``, ``rotation_y`` and
    ``score`` (1.0 where null).

    Each line is decoded by one ``json.loads`` and its values gathered; the
    lines are checked together as arrays by a conservative filter, and
    ``_result_row``, the one definition of a valid line, reads each line
    the filter cannot vouch for, in file order.

    Raises:
        MalformedLineError: for the first line that is not JSON or that
            ``_result_row`` rejects, naming the file and the physical line.
    """
    lines, rows = _nonblank_lines(path), []
    for _, text in lines:
        try:
            entry = json.loads(text)
        except ValueError:  # raised below, after the lines before it are checked
            break
        rows.append(_result_numbers(entry))
    files, values, suspect = _result_values(rows)
    for i in np.flatnonzero(suspect).tolist():  # decoded again, for _result_row
        files[i], values[i] = _converted(path, lines[i], _result_row)
    if len(rows) < len(lines):
        _converted(path, lines[len(rows)], _result_row)  # raises the line's JSON error
    return {
        "file": np.array(files, dtype=object), "box2d": values[:, :4],
        "dims_hwl": values[:, 4:7], "location": values[:, 7:10], "rotation_y": values[:, 10],
        "score": values[:, 11],
    }


def evaluation_columns(stems, results):
    """(detections, missing files): the detections for ``metrics.evaluate``
    are the ``read_results`` rows of the label files ``stems``, also of one
    without objects, ordered so tied scores rank by file, in order of first
    appearance, then by line. The other files come sorted."""
    first = {}  # file -> its rank by first appearance
    rank = np.array([first.setdefault(f, len(first)) for f in results["file"].tolist()], int)
    labelled = set(stems)
    kept = np.flatnonzero(np.array([f in labelled for f in first], dtype=bool)[rank])
    order = kept[np.argsort(rank[kept], kind="stable")]
    detections = {key: column[order] for key, column in results.items()}
    return detections, sorted(set(first) - labelled)


def lift_columns(labels, calibs, mode, residuals=None):
    """Lift label records to 3D boxes: the paper's pipeline, over a KITTI table.

    ``labels`` is a ``read_label_columns`` table without DontCare rows,
    with each record's ``file`` stem before its ``line`` in that file.
    ``calibs`` is the ``read_calib_table`` of the files that hold a record,
    one entry a file in order of first appearance in ``labels``: a record
    takes its file's K, offset and error by the file's index. A file whose
    error is a FileNotFoundError has no calibration; any other error made it
    unusable. A record's dimensions are its label's, or with the
    ``read_residuals`` mapping ``residuals`` its category's mean plus its
    residual; its yaw is alpha plus the yaw of the ray through its
    rectangle's center. One ``lift_batch`` call solves every translation.

    Returns:
        (results, status, messages): the table of the lifted records, in
        input order, with the diagnostics ``theta_ray``, ``configuration``,
        ``residual`` and ``reprojection_error``; and per record ``"lifted"``
        or its first failure of ``missing_calib``, ``bad_calib``,
        ``missing_dims``, ``missing_residual``, ``bad_residual``, the
        ``solver.FAILURES`` and ``non_finite_center``, with its message.
    """
    files, categories, box = labels["file"], labels["category"], labels["box2d"]
    n = len(files)
    # per record: its file's index in calibs, its camera and its ray angle
    starts = np.flatnonzero(np.r_[n > 0, files[1:] != files[:-1]])  # where files change
    first = {}  # stem -> index, in order of first appearance
    index = [first.setdefault(stem, len(first)) for stem in files[starts].tolist()]
    file = np.repeat(np.array(index, dtype=np.intp), np.diff(np.r_[starts, n]))
    ks, offsets, errors = calibs
    ks, offsets = ks[file], offsets[file]
    rays = np.arctan2(0.5 * (box[:, 0] + box[:, 2]) - ks[:, 0, 2], ks[:, 0, 0])  # ray_angle
    status, messages = np.array([  # a file without calibration, or with an unusable one, fails
        (LIFTED, None) if error is None else ("missing_calib", "no calibration file")
        if isinstance(error, FileNotFoundError) else ("bad_calib", str(error))
        for error in errors
    ], dtype=object).reshape(-1, 2)[file].T.copy()

    def fail(mask, code, message):  # the records of mask that have not failed yet
        mask = mask & (status == LIFTED)
        status[mask], messages[mask] = code, message

    extents = labels["dims_hwl"][:, [2, 0, 1]]  # KITTI (l, h, w) are the solver's (dx, dy, dz)
    sized = (extents > 0).all(axis=1)
    if residuals is None:
        dims = extents
        fail(~sized, "missing_dims", "record has no dimensions")
    else:  # per category mean extents, plus each record's residual
        dims = np.full_like(extents, np.nan)
        for category in dict.fromkeys(categories.tolist()):
            own = categories == category
            if (own & sized).any():
                dims[own] = extents[own & sized].mean(axis=0)
        unknown = "no dimension residual or category mean available"
        fail(np.isnan(dims[:, 0]), "missing_dims", unknown)
        deltas = [residuals.get(key) for key in zip(files.tolist(), labels["line"].tolist())]
        fail(np.array([d is None for d in deltas], dtype=bool), "missing_residual", unknown)
        three = np.array([d is not None and d.shape == (3,) for d in deltas], dtype=bool)
        fail(~three, "bad_residual", "residual must be a 3-vector")
        dims[three] += np.reshape([d for d, ok in zip(deltas, three) if ok], (-1, 3))
        bad = ~(np.isfinite(dims) & (dims > 0)).all(axis=1) & (status == LIFTED)
        fail(bad, "bad_residual", [
            f"dimensions must be positive and finite, got {tuple(row)}" for row in dims[bad].tolist()
        ])

    yaws = local_to_global(labels["alpha"], rays)
    rows = np.flatnonzero(status == LIFTED)
    rotations = rotations_from_angles(yaws[rows], *np.zeros((2, len(rows))))  # yaw only
    batch = lift_batch(ks[rows], rotations, dims[rows], box[rows], mode)
    outcome = np.full(n, LIFTED, dtype=object)
    outcome[rows] = batch.outcome
    for code in FAILURES:
        fail(outcome == code, code, batch.message(code))
    # The solver works in the projection frame K (R X + T'); subtract the
    # calibration's camera offset to express the center in the label frame.
    centers = np.zeros((n, 3))
    centers[rows] = batch.translation - offsets[rows]
    fail(~np.isfinite(centers).all(axis=1), "non_finite_center", "center must be a finite 3-vector")

    lifted = status[rows] == LIFTED
    done = rows[lifted]
    score = labels["score"][done]
    results = {key: column[done] for key, column in labels.items()}
    results.update(
        # exact ints: astype(int) would wrap a finite 1e20
        occluded=np.array([int(o) for o in results["occluded"].tolist()], dtype=object),
        dims_hwl=dims[done][:, [1, 2, 0]],
        location=centers_to_locations(centers[done], dims[done, 1]),
        rotation_y=yaws[done],
        score=np.where(np.isnan(score), 1.0, score),  # NaN: the line has no score
        theta_ray=rays[done],
        configuration=batch.configuration[lifted],
        residual=batch.residual[lifted],
        reprojection_error=batch.reprojection_error[lifted],
    )
    return results, status, messages
