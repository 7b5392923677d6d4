import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from boxlift import kitti
from boxlift.errors import MalformedLineError, MissingKeyError
from boxlift.geometry import Box2D, Box3D, Dimensions, project_box, wrap_angle
from boxlift.kitti import (
    DONT_CARE,
    LABEL_COLUMNS,
    MAX_METERS,
    RESULT_FIELDS,
    DetectionRecord,
    centers_to_locations,
    lift_columns,
    parse_calib_file,
    parse_label_file,
    read_label_columns,
    read_results,
    result_entries,
    result_lines,
    write_results,
    write_results_jsonl,
)
from boxlift.multibin import ray_angle
from boxlift.solver import ConstraintMode

from conftest import (
    CAMERA_HEIGHT, DONT_CARE_LINE, REAL_LABEL_LINES, record_line, sample_scene_box,
)


# --- label parsing -----------------------------------------------------------


def test_parse_real_car_line_field_by_field():
    record = parse_label_file(REAL_LABEL_LINES[1])[0]
    assert record.category == "Car"
    assert record.truncated == 0.0
    assert record.occluded == 0
    assert record.alpha == pytest.approx(-1.58)
    assert record.box2d.as_array == pytest.approx([587.01, 173.33, 614.12, 200.12])
    assert (record.height, record.width, record.length) == (1.65, 1.67, 3.64)
    assert record.location == pytest.approx([-0.65, 1.71, 46.70])
    assert record.rotation_y == pytest.approx(-1.59)
    assert record.score is None


def test_parse_empty_file():
    assert parse_label_file("") == []
    assert parse_label_file("\n\n") == []


def test_parse_rejects_wrong_column_count():
    line = " ".join(REAL_LABEL_LINES[0].split()[:14])  # 14 columns
    with pytest.raises(MalformedLineError) as excinfo:
        parse_label_file(line)
    assert excinfo.value.line_no == 1


def test_parse_reports_offending_token_and_line():
    good = REAL_LABEL_LINES[0]
    bad = REAL_LABEL_LINES[1].replace("46.70", "46.7zzz")
    with pytest.raises(MalformedLineError) as excinfo:
        parse_label_file(good + "\n" + bad)
    assert excinfo.value.line_no == 2
    assert "46.7zzz" in str(excinfo.value.token)


def test_parse_dont_care_line():
    record = parse_label_file(DONT_CARE_LINE)[0]
    assert record.is_dont_care
    assert record.box2d.width > 0


def test_parse_preserves_unknown_categories():
    line = REAL_LABEL_LINES[1].replace("Car", "Unicycle")
    assert parse_label_file(line)[0].category == "Unicycle"


def test_parse_rejects_out_of_range_rotation():
    line = REAL_LABEL_LINES[1].replace(" -1.59", " -7.59")
    with pytest.raises(MalformedLineError):
        parse_label_file(line)


def test_parse_line_with_score():
    line = REAL_LABEL_LINES[1] + " 0.87"
    record = parse_label_file(line)[0]
    assert record.score == pytest.approx(0.87)


def test_read_label_columns_layout():
    text = "\n" + REAL_LABEL_LINES[0] + " 0.5\n\n" + DONT_CARE_LINE + "\n" + REAL_LABEL_LINES[1]
    table = read_label_columns(text)
    assert list(table) == [*RESULT_FIELDS, "line"]
    assert table["category"].tolist() == ["Pedestrian", "DontCare", "Car"]
    values = np.column_stack([table[key] for key in RESULT_FIELDS[1:]])
    assert values.shape == (3, len(LABEL_COLUMNS)) and values.dtype == float
    assert [table[key].shape for key in ("box2d", "dims_hwl", "location")] == [(3, 4), (3, 3), (3, 3)]
    assert values[0].tolist() == [float(t) for t in REAL_LABEL_LINES[0].split()[1:]] + [0.5]
    assert np.isnan(values[2, 14])  # no score column
    assert table["line"].tolist() == [2, 4, 5]
    table = read_label_columns("\n \n")
    assert list(table) == [*RESULT_FIELDS, "line"]
    assert {column.shape[0] for column in table.values()} == {0}
    assert table["box2d"].shape == (0, 4)


# --- the reader against the per-line parser it replaced ------------------------

_ANGLE_SLACK = 1e-6


def _reference_float(token, line_no):
    try:
        return float(token)
    except ValueError:
        raise MalformedLineError(line_no, token) from None


def _reference_line(line, line_no):
    tokens = line.split()
    if len(tokens) not in (15, 16):
        raise MalformedLineError(
            line_no, tokens[-1] if tokens else "",
            f"line {line_no}: expected 15 or 16 columns, got {len(tokens)}",
        )
    category = tokens[0]
    values = [_reference_float(t, line_no) for t in tokens[1:]]
    if not all(map(math.isfinite, values)):
        required = (1,) if category == DONT_CARE else range(len(values))
        column = next((i for i in required if not math.isfinite(values[i])), None)
        if column is not None:
            raise MalformedLineError(
                line_no, tokens[column + 1],
                f"line {line_no}: {LABEL_COLUMNS[column]} is not finite",
            )
    try:
        box2d = Box2D(values[3], values[4], values[5], values[6])
    except ValueError:
        raise MalformedLineError(
            line_no, " ".join(tokens[4:8]), f"line {line_no}: degenerate 2D box"
        ) from None
    record = DetectionRecord(
        category=category, truncated=values[0], occluded=int(values[1]), alpha=values[2],
        box2d=box2d, height=values[7], width=values[8], length=values[9],
        location=np.array(values[10:13]), rotation_y=values[13],
        score=values[14] if len(values) == 15 else None, line_no=line_no,
    )
    if not record.is_dont_care:
        for name, angle in (("alpha", record.alpha), ("rotation_y", record.rotation_y)):
            if abs(angle) > np.pi + _ANGLE_SLACK:
                raise MalformedLineError(
                    line_no, f"{name}={angle}", f"line {line_no}: {name} out of [-pi, pi]"
                )
        for column in range(7, 13):  # the extents and the location
            if abs(values[column]) > MAX_METERS:
                raise MalformedLineError(
                    line_no, tokens[column + 1],
                    f"line {line_no}: {LABEL_COLUMNS[column]} beyond 10000 m",
                )
    return record


def reference_parse_label_file(text):
    """The per-line label parser that ``read_label_columns`` replaced."""
    return [
        _reference_line(line, line_no)
        for line_no, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]


def _fields(record):
    return {name: getattr(record, name) for name in DetectionRecord.__dataclass_fields__}


@pytest.fixture(scope="module")
def benchmark_label_texts():
    """The label text of every frame of every benchmark workload, seeds 3, 7, 11."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import gen
    from workload import WORKLOADS

    return [
        frame.label_text
        for spec in WORKLOADS.values()
        for seed in (3, 7, 11)
        for frame in gen.make_corpus(
            seed, spec.frames, spec.objects, spec.depth, detections=spec.crowded
        ).frames
    ]


def test_records_view_equals_reference_on_benchmark_labels(benchmark_label_texts):
    n_records = n_dont_care = 0
    for text in benchmark_label_texts:
        records, expected = parse_label_file(text), reference_parse_label_file(text)
        assert len(records) == len(expected)
        for record, reference in zip(records, expected):
            got, want = _fields(record), _fields(reference)
            assert np.array_equal(got.pop("location"), want.pop("location"))
            assert got == want
            assert type(record.occluded) is int
        n_records += len(records)
        n_dont_care += sum(r.is_dont_care for r in records)
    assert n_records > 10_000 and n_dont_care > 0


GOOD_LINES = [REAL_LABEL_LINES[0], DONT_CARE_LINE, REAL_LABEL_LINES[1] + " 0.87"]


def _with_token(line, index, token):
    tokens = line.split()
    tokens[index] = token
    return " ".join(tokens)


CAR = REAL_LABEL_LINES[1]
HOSTILE_LINES = {
    "14-columns": " ".join(CAR.split()[:14]),
    "17-columns": CAR + " 0.5 0.5",
    "short-with-bad-token": "Car 0.00 zero -1.0",
    "non-numeric": _with_token(CAR, 12, "1.7l"),
    "non-numeric-score": CAR + " high",
    "dont-care-nan-occluded": _with_token(DONT_CARE_LINE, 2, "nan"),
    "dont-care-inverted-box": _with_token(DONT_CARE_LINE, 4, "700.00"),
    "nan-alpha": _with_token(CAR, 3, "nan"),
    "nan-rotation_y": _with_token(CAR, 14, "nan"),
    "nan-location": _with_token(CAR, 12, "nan"),
    "inf-height": _with_token(CAR, 8, "inf"),
    "nan-score": CAR + " nan",
    "inverted-rectangle": _with_token(CAR, 6, "500.00"),
    "empty-rectangle": _with_token(CAR, 7, "173.33"),
    "alpha-above-pi": _with_token(CAR, 3, "3.15"),
    "alpha-past-the-slack": _with_token(CAR, 3, "-3.1416"),
    "alpha-below-minus-pi": _with_token(CAR, 3, "-7.58"),
    "rotation_y-above-pi": _with_token(CAR, 14, "4.00"),
    "height-beyond-max-meters": _with_token(CAR, 8, "99999999999"),
    "z-beyond-max-meters": _with_token(CAR, 13, "10000.01"),
    "x-beyond-max-meters": _with_token(_with_token(CAR, 11, "-2e4"), 10, "1e5"),
}


def _error(parse, text):
    with pytest.raises(MalformedLineError) as excinfo:
        parse(text)
    return str(excinfo.value), excinfo.value.line_no, excinfo.value.token


@pytest.mark.parametrize("case", list(HOSTILE_LINES))
@pytest.mark.parametrize("before", [0, 3], ids=["alone", "after-good-lines"])
def test_hostile_line_raises_the_reference_error(case, before):
    text = "\n".join(GOOD_LINES[:before] + [HOSTILE_LINES[case]] + GOOD_LINES) + "\n"
    expected = _error(reference_parse_label_file, text)
    assert expected[1] == before + 1
    assert _error(read_label_columns, text) == expected
    assert _error(parse_label_file, text) == expected


def test_values_at_max_meters_are_read():
    # DontCare lines hold -1000 placeholders; MAX_METERS itself is in range
    text = _with_token(_with_token(CAR, 11, "-10000"), 8, "1e4")
    (record,), (reference,) = parse_label_file(text), reference_parse_label_file(text)
    assert (record.height, record.location[0]) == (reference.height, reference.location[0])
    assert (record.height, record.location[0]) == (MAX_METERS, -MAX_METERS)
    assert parse_label_file(_with_token(DONT_CARE_LINE, 11, "-20000"))[0].is_dont_care


def test_angles_within_the_slack_of_pi_are_read():
    # pi to eight digits lies within the formatting slack, above pi itself
    text = _with_token(_with_token(CAR, 3, "3.1415927"), 14, "-3.1415927")
    (record,), (reference,) = parse_label_file(text), reference_parse_label_file(text)
    assert (record.alpha, record.rotation_y) == (reference.alpha, reference.rotation_y)
    assert (record.alpha, record.rotation_y) == (3.1415927, -3.1415927)


@pytest.mark.parametrize(
    "first, second",
    [("nan-score", "14-columns"), ("alpha-above-pi", "non-numeric"),
     ("non-numeric", "nan-alpha"), ("inverted-rectangle", "dont-care-nan-occluded")],
)
def test_first_bad_line_is_reported(first, second):
    text = "\n".join([GOOD_LINES[0], HOSTILE_LINES[first], "", HOSTILE_LINES[second]])
    expected = _error(reference_parse_label_file, text)
    assert expected[1] == 2
    assert _error(read_label_columns, text) == expected


# --- calibration -----------------------------------------------------------


def test_parse_real_calib(calib):
    intrinsics = calib.intrinsics
    assert intrinsics.fx == pytest.approx(721.5377)
    assert intrinsics.fy == pytest.approx(721.5377)
    assert intrinsics.cx == pytest.approx(609.5593)
    assert intrinsics.cy == pytest.approx(172.854)
    assert intrinsics.skew == 0.0
    offset = calib.translation_offset
    assert offset == pytest.approx([0.05985, -0.000358, 0.002746], abs=1e-5)


def test_parse_identity_calib():
    text = "P2: 1 0 0 0 0 1 0 0 0 0 1 0\n"
    calib = parse_calib_file(text)
    assert np.allclose(calib.intrinsics.matrix, np.eye(3))
    assert np.allclose(calib.translation_offset, 0.0)


def test_parse_calib_missing_p2():
    with pytest.raises(MissingKeyError):
        parse_calib_file("P0: 1 0 0 0 0 1 0 0 0 0 1 0\n")


def test_parse_calib_wrong_arity():
    with pytest.raises(MalformedLineError):
        parse_calib_file("P2: 1 0 0 0 0 1 0 0 0 0 1\n")


@pytest.mark.parametrize("index", [0, 3, 5, 11])  # fx, an offset, fy, the last offset
@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_parse_calib_rejects_non_finite_p2(index, token):
    values = "1 0 0 0 0 1 0 0 0 0 1 0".split()
    values[index] = token
    with pytest.raises(MalformedLineError, match=f"line 2: P2 value {token} is not finite") as info:
        parse_calib_file("P0: 1 0 0 0 0 1 0 0 0 0 1 0\nP2: " + " ".join(values) + "\n")
    assert (info.value.line_no, info.value.token) == (2, token)


@pytest.mark.parametrize("index", [4, 8, 9])  # P2[1][0], P2[2][0], P2[2][1]
def test_parse_calib_rejects_p2_that_is_not_upper_triangular(index):
    # intrinsics reads only the upper triangle; translation_offset would
    # solve with the whole block and so describe another camera
    values = "700 0 600 0 0 700 170 0 0 0 1 0".split()
    values[index] = "0.001"
    with pytest.raises(ValueError, match=r"P2\[1\]\[0\], P2\[2\]\[0\] and P2\[2\]\[1\] must be 0"):
        parse_calib_file("P2: " + " ".join(values) + "\n")


# --- record geometry -----------------------------------------------------------


def test_parse_keeps_non_finite_dont_care_placeholders():
    tokens = DONT_CARE_LINE.split()
    tokens[3], tokens[11] = "nan", "inf"  # alpha and location x
    assert parse_label_file(" ".join(tokens))[0].is_dont_care


def test_location_center_roundtrip():
    record = parse_label_file(REAL_LABEL_LINES[1])[0]
    center = record.location - [0.0, 0.5 * record.height, 0.0]  # the location is the bottom-center
    box = Box3D(center, record.dims, record.rotation_y)
    assert centers_to_locations(box.center, box.dims.dy) == pytest.approx(record.location)


def test_real_car_box_projects_onto_labeled_rectangle(calib):
    # the projected 3D box of the transcribed car sits within a few pixels
    # of its labeled 2D box
    record = parse_label_file(REAL_LABEL_LINES[1])[0]
    center = record.location - [0.0, 0.5 * record.height, 0.0]
    shifted = Box3D(center + calib.translation_offset, record.dims, record.rotation_y)
    rect = project_box(calib.intrinsics, shifted)
    assert np.max(np.abs(rect.as_array - record.box2d.as_array)) < 5.0


def test_synthetic_records_project_onto_their_rectangles(calib, label_corpus):
    for stem, text in label_corpus.items():
        if stem == "real":
            continue
        for record in parse_label_file(text):
            center = record.location - [0.0, 0.5 * record.height, 0.0]
            shifted = Box3D(center + calib.translation_offset, record.dims, record.rotation_y)
            rect = project_box(calib.intrinsics, shifted)
            # all label fields are rounded to 2 decimals; the roundings
            # propagate to at most ~1 px through the projection
            assert np.max(np.abs(rect.as_array - record.box2d.as_array)) < 1.0


def test_alpha_rotation_ray_consistency(calib, label_corpus):
    # wrap(rotation_y - alpha) equals the viewing-ray yaw at the 2D box
    # center, within 0.1 rad, on >= 95% of untruncated records
    intrinsics = calib.intrinsics
    checked, consistent = 0, 0
    for text in label_corpus.values():
        for record in parse_label_file(text):
            if record.is_dont_care or record.truncated >= 0.1:
                continue
            theta_ray = float(ray_angle(intrinsics, record.box2d.center[0]))
            gap = abs(wrap_angle(record.rotation_y - record.alpha) - theta_ray)
            checked += 1
            consistent += gap < 0.1
    assert checked >= 20
    assert consistent / checked >= 0.95


# --- writing -----------------------------------------------------------------


def test_write_parse_fixpoint(label_corpus):
    for text in label_corpus.values():
        once = write_results(parse_label_file(text))
        twice = write_results(parse_label_file(once))
        assert once == twice


def test_write_appends_score_last():
    record = parse_label_file(REAL_LABEL_LINES[1] + " 0.87")[0]
    line = write_results([record]).strip()
    assert line.endswith("-1.59 0.87")
    assert len(line.split()) == 16


def test_write_empty_is_empty():
    assert write_results([]) == ""
    assert result_lines({key: [] for key in RESULT_FIELDS}) == []


def test_write_keeps_occlusions_and_categories_exact():
    # no numpy dtype may round an occlusion or trim a category's trailing NUL
    tokens = REAL_LABEL_LINES[1].split()
    lines = [" ".join([name, tokens[1], occluded, *tokens[3:]])
             for name, occluded in (("Car\x00", "9.3e18"), ("Van", "-1"))]
    text = write_results(parse_label_file("\n".join(lines)))
    assert [line.split(" ")[:3] for line in text.splitlines()] == [
        ["Car\x00", "0.00", "9300000000000000000"], ["Van", "0.00", "-1"],
    ]


def test_result_lines_from_columns_match_the_records_view(label_corpus):
    records = parse_label_file(label_corpus["real"] + REAL_LABEL_LINES[1] + " 0.87\n")
    assert records[0].score is None and records[-1].score == 0.87
    lines = result_lines(
        {
            "category": np.array([r.category for r in records], dtype=object),
            "truncated": np.array([r.truncated for r in records]),
            "occluded": [r.occluded for r in records],
            "alpha": np.array([r.alpha for r in records]),
            "box2d": np.array([r.box2d.as_array for r in records]),
            "dims_hwl": np.array([[r.height, r.width, r.length] for r in records]),
            "location": np.array([r.location for r in records]),
            "rotation_y": np.array([r.rotation_y for r in records]),
            "score": [r.score for r in records],
        }
    )
    assert "\n".join(lines) + "\n" == write_results(records)
    assert len(lines[0].split()) == 15 and lines[-1].endswith(" 0.87")


def test_roundtrip_through_formatting(label_corpus):
    records = parse_label_file(label_corpus["real"])
    reparsed = parse_label_file(write_results(records))
    assert len(reparsed) == len(records)
    for a, b in zip(records, reparsed):
        assert a.category == b.category
        assert b.alpha == pytest.approx(a.alpha, abs=0.005)
        assert b.location == pytest.approx(a.location, abs=0.005)
        assert b.rotation_y == pytest.approx(a.rotation_y, abs=0.005)


# --- category statistics ----------------------------------------------------------


def test_car_dimension_spread_is_reportable(label_corpus):
    records = [
        r
        for text in label_corpus.values()
        for r in parse_label_file(text)
        if r.category == "Car" and not r.is_dont_care
    ]
    dims = np.array([r.dims.as_array for r in records])
    spread = dims.std(axis=0)
    assert np.all(np.isfinite(spread))
    print(f"car dimension std (dx, dy, dz): {np.round(spread, 3)} m over {len(records)} records")


# --- JSON-lines results -------------------------------------------------------------


def test_jsonl_roundtrip():
    record = parse_label_file(REAL_LABEL_LINES[1] + " 0.87")[0]
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
        "file": ["000123"],
        "line": [4],
        "configuration": [[0, 5, 2, 5]],
        "reprojection_error": [1e-12],
    }
    buffer = io.StringIO()
    write_results_jsonl(fields, buffer)
    entry = result_entries(fields)[0]
    assert buffer.getvalue() == json.dumps(entry) + "\n"
    buffer.seek(0)
    loaded = [json.loads(line) for line in buffer]
    assert len(loaded) == 1
    assert loaded[0]["file"] == "000123"
    assert loaded[0]["configuration"] == [0, 5, 2, 5]
    assert list(loaded[0]) == [
        "category", "truncated", "occluded", "alpha", "box2d", "dims_hwl", "location",
        "rotation_y", "score", "file", "line", "configuration", "reprojection_error",
    ]
    assert loaded[0]["category"] == record.category
    assert loaded[0]["box2d"] == pytest.approx(record.box2d.as_array)
    assert loaded[0]["dims_hwl"] == pytest.approx([record.height, record.width, record.length])
    assert loaded[0]["location"] == pytest.approx(record.location)
    assert loaded[0]["rotation_y"] == pytest.approx(record.rotation_y)
    assert loaded[0]["score"] == pytest.approx(0.87)


def _results_table(n, rng):
    """A KITTI table of n records whose values stress the JSON encoding."""
    odd = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.1 + 0.2, 1 / 3, 123456789.12345678]

    def floats(*shape):
        return rng.choice(odd + list(rng.normal(size=8) * 1e3), size=shape)

    names = ['Car', 'say "hi"', 'a, b', 'back\\slash', 'Fußgänger', '雪', 'tab\t, "]', '']
    return {
        "category": np.array([names[i % len(names)] for i in range(n)], dtype=object),
        "truncated": floats(n),
        "occluded": np.array([10**20 if i == 1 else i % 4 for i in range(n)], dtype=object),
        "alpha": floats(n),
        "box2d": floats(n, 4),
        "dims_hwl": np.array([[i, 2.0, 3] if i % 2 else (1.5, 0.5, 4.25) for i in range(n)]),
        "location": floats(n, 3),
        "rotation_y": floats(n),
        "score": np.array([None if i % 3 == 0 else float(floats(1)[0]) for i in range(n)], dtype=object),
        "file": np.array([f"{i % 3:06d}, \"x\"\\ü" for i in range(n)], dtype=object),
        "line": np.arange(1, n + 1),
    }


@pytest.mark.parametrize("n", [0, 1, 2, 9, 40])
def test_results_jsonl_is_json_dumps_of_result_entries(n):
    rng = np.random.default_rng(n)
    table = {
        **_results_table(n, rng),
        "theta_ray": rng.normal(size=n),
        "configuration": rng.integers(0, 8, size=(n, 4)),  # int rows
        "corners": np.array([[i, -i] for i in range(n)]).reshape(n, 2),  # int rows of no known width
        "residual": np.full(n, math.nan),
        "100%": np.ones(n, dtype=bool),
    }
    buffer = io.StringIO()
    write_results_jsonl(table, buffer)
    entries = result_entries(table)
    assert buffer.getvalue() == "".join(json.dumps(entry) + "\n" for entry in entries)
    assert len(buffer.getvalue().splitlines()) == n
    if n > 1:  # an occlusion beyond int64 is written exactly
        assert entries[1]["occluded"] == 10**20 and '"occluded": 100000000000000000000,' in buffer.getvalue()


def test_results_jsonl_keeps_the_errors_of_json_dumps():
    table = _results_table(2, np.random.default_rng(0))
    with pytest.raises(TypeError):  # a set is no JSON value
        write_results_jsonl({**table, "category": np.array([{1}, {2}], dtype=object)}, io.StringIO())
    with pytest.raises(ValueError, match="rows of 3 values"):
        write_results_jsonl({**table, "dims_hwl": np.ones((2, 2))}, io.StringIO())


def test_read_results_reads_back_write_results_jsonl(tmp_path):
    fields = {
        "category": ["Car", "Van"],
        "truncated": [0.0, 0.5],
        "occluded": [0, 2],
        "alpha": [0.1, -0.2],
        "box2d": [[10.0, 20.0, 30.0, 45.5], [100.25, 50.0, 180.0, 90.0]],
        "dims_hwl": [[1.5, 1.6, 4.0], [2.0, 1.9, 5.0]],
        "location": [[1.0, 1.65, 20.0], [-3.5, 1.7, 35.25]],
        "rotation_y": [0.3, -3.0],
        "score": [0.75, None],  # a null score reads as 1.0
        "file": ["000007", "000009"],
        "line": [3, 1],
        "residual": [0.1, 0.2],
    }
    path = tmp_path / "results.jsonl"
    with open(path, "w") as handle:
        write_results_jsonl(fields, handle)
    table = read_results(path)
    assert list(table) == ["file", "box2d", "dims_hwl", "location", "rotation_y", "score"]
    assert table["file"].tolist() == ["000007", "000009"]
    for key in ("box2d", "dims_hwl", "location", "rotation_y"):
        assert table[key].tolist() == fields[key]
    assert table["score"].tolist() == [0.75, 1.0]


def _good_entry(i):
    """A valid results entry, varied by ``i``: int and float values, a null,
    missing, zero or present score, and with or without file and occluded."""
    entry = {
        "file": f"{i % 3:06d}", "line": i + 1, "category": "Car", "truncated": 0.0,
        "occluded": i % 3, "alpha": 0.1, "box2d": [100.0 + i, 50.5, 180 + i, 90.25],
        "dims_hwl": [1.5, 1.6, 4], "location": [1.0, 1.65, 20.0 + i / 7],
        "rotation_y": -0.3 + i / 1000, "score": [0.5 + i / 1000, None, 0, 1][i % 4],
    }
    for key, every in (("score", 5), ("occluded", 7), ("file", 11)):
        if i % every == 0:
            del entry[key]
    return entry


# The bad values of test_cli's results-line tests, then more: a whole line,
# or the values that replace a good entry's, and the start of the message.
HOSTILE_RESULT_LINES = [
    ("{not json", "JSONDecodeError: "),
    ('{"file": "000000", "box2d": [0, 0, 10, 10]}', "KeyError: "),
    ({"dims_hwl": [-1.0, -1.0, -1.0]}, "ValueError: record has no dimensions"),
    ({"rotation_y": math.nan}, "ValueError: rotation_y is not finite"),
    ({"score": "high"}, "TypeError: must be real number, not str"),
    ({"score": math.nan}, "ValueError: score is not finite"),
    ({"box2d": [0.0, 0.0, 10.0]}, "ValueError: box2d, dims_hwl and location need"),
    ({"occluded": math.inf}, "OverflowError: cannot convert float infinity"),
    ({"score": True}, "TypeError: score must be a number, not a boolean"),
    ({"rotation_y": False}, "TypeError: rotation_y must be a number, not a boolean"),
    ({"box2d": [True, 0, 500, 300]}, "TypeError: x_min must be a number, not a boolean"),
    # and each check of the array filter
    ({"box2d": [10.0, 0.0, 500.0, 0.0]}, "ValueError: degenerate 2D box"),
    ({"dims_hwl": [1.5, 0, 4.0]}, "ValueError: record has no dimensions"),
    ({"location": [1.0, -math.inf, 20.0]}, "ValueError: y is not finite"),
    ({"occluded": "1"}, "TypeError: occluded must be a number, not a string"),
    ({"occluded": True}, "TypeError: occluded must be a number, not a boolean"),
    ({"occluded": None}, "TypeError: int() argument must be"),
    ({"occluded": math.nan}, "ValueError: cannot convert float NaN"),
    ({"location": [1.0, None, 20.0]}, "TypeError: must be real number, not NoneType"),
    ({"dims_hwl": [1.5, [1.6], 4.0]}, "TypeError: must be real number, not list"),
    ({"rotation_y": 10**400}, "OverflowError: int too large to convert to float"),
    ('[1, 2]', "TypeError: list indices must be integers"),
]


def _hostile_text(bad):
    return bad if isinstance(bad, str) else json.dumps({**_good_entry(1), **bad})


def _results_error(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(MalformedLineError) as excinfo:
        read_results(path)
    return excinfo.value


@pytest.mark.parametrize("bad, detail", HOSTILE_RESULT_LINES)
def test_read_results_names_a_bad_line_after_200_good_ones(tmp_path, bad, detail):
    # the message is the one the bad line gives on its own, at its physical line
    good = [json.dumps(_good_entry(i)) for i in range(200)]
    alone = _results_error(tmp_path / "alone.jsonl", [_hostile_text(bad)])
    path = tmp_path / "results.jsonl"
    error = _results_error(path, good + ["", "  "] + [_hostile_text(bad)] + good[:5])
    assert error.line_no == 203
    assert str(error).startswith(f"{path} line 203: {detail}")
    assert str(error).split(" line 203: ", 1)[1] == str(alone).split(" line 1: ", 1)[1]
    assert error.token == alone.token


def test_read_results_reports_the_first_of_two_bad_lines(tmp_path):
    good = [json.dumps(_good_entry(i)) for i in range(200)]
    path = tmp_path / "results.jsonl"
    for first, detail in HOSTILE_RESULT_LINES:
        for second, _ in HOSTILE_RESULT_LINES:
            lines = good + ["", ""] + [_hostile_text(first), good[0], _hostile_text(second)]
            error = _results_error(path, lines)
            assert error.line_no == 203
            assert str(error).startswith(f"{path} line 203: {detail}")


def _reference_results_table(path):
    """``read_results`` as one ``_result_row`` a line."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    rows = [kitti._result_row(json.loads(line)) for line in lines]
    values = np.array([row for _, row in rows], dtype=float).reshape(-1, 12)
    return {
        "file": np.array([file for file, _ in rows], dtype=object), "box2d": values[:, :4],
        "dims_hwl": values[:, 4:7], "location": values[:, 7:10], "rotation_y": values[:, 10],
        "score": values[:, 11],
    }


@pytest.mark.parametrize(
    "extra",
    [
        [],
        # a valid line the array check flags: the sides round to equal floats
        [{"box2d": [2**54 + 1, 0, 2**54 + 2, 10]}],
        # an occlusion beyond float, which int reads, so the array check cannot
        [{"occluded": 10**400}],
        # a number as file, ints, -0.0 and a fractional occlusion, checked but not read
        [{"file": 7, "occluded": 2.7, "dims_hwl": [1, 2, 3], "rotation_y": -0.0}],
    ],
    ids=["plain", "rounded-sides", "huge-occluded", "odd-values"],
)
def test_read_results_equals_one_result_row_a_line(tmp_path, extra):
    lines = [json.dumps(_good_entry(i)) for i in range(200)]
    lines[50:50] = ["", " "] + [json.dumps({**_good_entry(3), **bad}) for bad in extra]
    path = tmp_path / "results.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    table, expected = read_results(path), _reference_results_table(path)
    assert list(table) == list(expected)
    assert table["file"].dtype == object and table["file"].tolist() == expected["file"].tolist()
    for key in list(table)[1:]:
        assert table[key].dtype == expected[key].dtype and table[key].shape == expected[key].shape
        assert table[key].tobytes() == expected[key].tobytes()


def test_read_results_of_an_empty_file(tmp_path):
    path = tmp_path / "results.jsonl"
    path.write_text("\n\n")
    table = read_results(path)
    assert [table[key].shape for key in table] == [(0,), (0, 4), (0, 3), (0, 3), (0,), (0,)]


# --- lifting ---------------------------------------------------------------------


def _label_table(texts):
    """``lift_columns``' label table of label texts without DontCare lines, by stem."""
    tables = []
    for stem in sorted(texts):
        table = read_label_columns(texts[stem])
        table["file"] = np.full(len(table["line"]), stem, dtype=object)
        table["line"] = table.pop("line")
        kept = table["category"] != DONT_CARE
        tables.append({key: column[kept] for key, column in table.items()})
    return {key: np.concatenate([table[key] for table in tables]) for key in tables[0]}


def test_lift_columns_gives_each_record_one_status_in_input_order(calib):
    rng = np.random.default_rng(30)

    def car_line():
        return record_line("Car", sample_scene_box(rng), calib)

    no_dims = car_line().split()
    no_dims[8:11] = ["-1", "-1", "-1"]
    no_dims = " ".join(no_dims)
    # a sliver that straddles the principal row: lifted through the straddle family
    sliver = "Car 0.00 0 -0.26 1114.13 7.11 1115.43 385.44 0.84 4.75 2.16 1.00 1.65 10.00 0.35"
    rank_deficient = (  # a rectangle one float wide and high
        "Car 0.00 0 0.00 600.0 180.0 600.0000000000001 180.00000000000003 "
        "1.50 1.60 4.00 0.00 1.65 20.00 0.00"
    )
    texts = {
        "000000": [car_line(), no_dims, sliver, rank_deficient, car_line()],
        "000001": [car_line(), no_dims],  # no calibration
        "000002": [car_line()],  # an unusable calibration
        "000003": [car_line()],
    }
    labels = _label_table({stem: "\n".join(lines) for stem, lines in texts.items()})
    calibs = {"000000": calib, "000001": None, "000002": ValueError("P2[2][2] must be 1"), "000003": calib}
    results, status, messages = lift_columns(
        labels, calibs, ConstraintMode.KITTI_ZERO_PITCH_ROLL
    )
    assert status.tolist() == [
        "lifted", "missing_dims", "lifted", "rank_deficient", "lifted",
        "missing_calib", "missing_calib", "bad_calib", "lifted",
    ]
    assert messages.tolist() == [
        None, "record has no dimensions", None,
        "side equations are rank-deficient (degenerate rectangle)", None,
        "no calibration file", "no calibration file", "P2[2][2] must be 1", None,
    ]
    # the results table holds the lifted records only, in input order
    assert list(zip(results["file"], results["line"].tolist())) == [
        ("000000", 1), ("000000", 3), ("000000", 5), ("000003", 1),
    ]
    assert {len(column) for column in results.values()} == {4}
    assert list(results)[-4:] == ["theta_ray", "configuration", "residual", "reprojection_error"]


def test_lift_columns_residual_means_leave_out_other_records(calib):
    # a category's mean extents come from its own records with dimensions;
    # DontCare rows never reach lift_columns
    rng = np.random.default_rng(31)

    def line(category, lhw):
        box = sample_scene_box(rng, depth_range=(10.0, 30.0))
        center = [box.center[0], CAMERA_HEIGHT - 0.5 * lhw[1], box.center[2]]
        return record_line(category, Box3D(center, Dimensions(*lhw), box.yaw), calib)

    def without_dims(text):
        tokens = text.split()
        tokens[8:11] = ["-1", "-1", "-1"]
        return " ".join(tokens)

    lines = [
        line("Car", (4.0, 1.5, 1.5)),
        line("Van", (5.0, 1.75, 2.0)),
        without_dims(line("Car", (4.0, 1.5, 1.5))),
        line("Car", (3.0, 1.5, 2.0)),
        without_dims(line("Tram", (10.0, 3.0, 2.5))),
    ]
    labels = _label_table({"000000": "\n".join(lines)})
    residuals = {("000000", n): np.zeros(3) for n in range(1, len(lines) + 1)}
    results, status, messages = lift_columns(
        labels, {"000000": calib}, ConstraintMode.KITTI_ZERO_PITCH_ROLL, residuals
    )
    assert status.tolist() == ["lifted"] * 4 + ["missing_dims"]
    assert messages[4] == "no dimension residual or category mean available"
    # (h, w, l): the Cars' mean of two, the Van's own extents
    assert results["dims_hwl"].tolist() == [
        [1.5, 1.75, 3.5], [1.75, 2.0, 5.0], [1.5, 1.75, 3.5], [1.5, 1.75, 3.5],
    ]
