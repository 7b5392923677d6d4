import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from boxlift.errors import MalformedLineError, MissingKeyError, NoSamplesError
from boxlift.geometry import Box2D, Box3D, project_box, wrap_angle
from boxlift.kitti import (
    DONT_CARE,
    LABEL_COLUMNS,
    RESULT_FIELDS,
    DetectionRecord,
    compute_mean_dims,
    center_to_location,
    location_to_center,
    parse_calib_file,
    parse_label_file,
    read_label_columns,
    result_lines,
    result_to_json_dict,
    write_results,
    write_results_jsonl,
)
from boxlift.multibin import ray_angle

from conftest import DONT_CARE_LINE, REAL_LABEL_LINES


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
    assert not record.has_dimensions
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
    categories, values, dont_care, line_nos = read_label_columns(text)
    assert categories == ["Pedestrian", "DontCare", "Car"]
    assert values.shape == (3, len(LABEL_COLUMNS)) and values.dtype == float
    assert values[0].tolist() == [float(t) for t in REAL_LABEL_LINES[0].split()[1:]] + [0.5]
    assert np.isnan(values[2, 14])  # no score column
    assert dont_care.tolist() == [False, True, False]
    assert line_nos.tolist() == [2, 4, 5]
    categories, values, dont_care, line_nos = read_label_columns("\n \n")
    assert categories == [] and values.shape == (0, 15)
    assert dont_care.shape == line_nos.shape == (0,)


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


# --- record geometry -----------------------------------------------------------


def test_parse_keeps_non_finite_dont_care_placeholders():
    tokens = DONT_CARE_LINE.split()
    tokens[3], tokens[11] = "nan", "inf"  # alpha and location x
    assert parse_label_file(" ".join(tokens))[0].is_dont_care


def test_location_to_center_half_height_shift():
    line = (
        "Car 0.00 0 0.00 100.00 100.00 200.00 200.00 "
        "1.65 1.70 4.00 0.00 1.65 10.00 0.00"
    )
    box = location_to_center(parse_label_file(line)[0])
    assert box.center == pytest.approx([0.0, 0.825, 10.0])
    assert (box.dims.dx, box.dims.dy, box.dims.dz) == (4.00, 1.65, 1.70)
    assert box.yaw == 0.0


def test_location_center_roundtrip():
    record = parse_label_file(REAL_LABEL_LINES[1])[0]
    box = location_to_center(record)
    location, (h, w, l) = center_to_location(box)
    assert location == pytest.approx(record.location)
    assert (h, w, l) == pytest.approx((record.height, record.width, record.length))


def test_location_to_center_requires_dimensions():
    record = parse_label_file(DONT_CARE_LINE)[0]
    with pytest.raises(ValueError):
        location_to_center(record)


def test_real_car_box_projects_onto_labeled_rectangle(calib):
    # the projected 3D box of the transcribed car sits within a few pixels
    # of its labeled 2D box
    record = parse_label_file(REAL_LABEL_LINES[1])[0]
    box = location_to_center(record)
    shifted = Box3D(box.center + calib.translation_offset, box.dims, box.yaw)
    rect = project_box(calib.intrinsics, shifted)
    assert np.max(np.abs(rect.as_array - record.box2d.as_array)) < 5.0


def test_synthetic_records_project_onto_their_rectangles(calib, label_corpus):
    for stem, text in label_corpus.items():
        if stem == "real":
            continue
        for record in parse_label_file(text):
            box = location_to_center(record)
            shifted = Box3D(box.center + calib.translation_offset, box.dims, box.yaw)
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


def test_compute_mean_dims_single_record():
    record = parse_label_file(REAL_LABEL_LINES[1])[0]
    dims = compute_mean_dims([record], "Car")
    assert dims.as_array == pytest.approx(record.dims.as_array)


def test_compute_mean_dims_average():
    lines = [
        "Car 0.00 0 0.00 100 100 200 200 2.00 2.00 4.00 0 1 10 0.00",
        "Car 0.00 0 0.00 100 100 200 200 2.00 2.00 2.00 0 1 10 0.00",
    ]
    dims = compute_mean_dims(parse_label_file("\n".join(lines)), "Car")
    assert dims.as_array == pytest.approx([3.0, 2.0, 2.0])


def test_compute_mean_dims_ignores_dont_care_and_other_categories():
    records = parse_label_file("\n".join(REAL_LABEL_LINES + [DONT_CARE_LINE]))
    with pytest.raises(NoSamplesError):
        compute_mean_dims(records, "DontCare")
    with pytest.raises(NoSamplesError):
        compute_mean_dims(records, "Tram")


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
    entry = result_to_json_dict(
        record,
        file_id="000123",
        line_no=4,
        diagnostics={"configuration": [0, 5, 2, 5], "reprojection_error": 1e-12},
    )
    buffer = io.StringIO()
    write_results_jsonl([entry], buffer)
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
