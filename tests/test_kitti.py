import io
import json

import numpy as np
import pytest

from boxlift.errors import MalformedLineError, MissingKeyError, NoSamplesError
from boxlift.geometry import Box3D, project_box, wrap_angle
from boxlift.kitti import (
    compute_mean_dims,
    center_to_location,
    location_to_center,
    parse_calib_file,
    parse_label_file,
    record_from_json_dict,
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
    rebuilt = record_from_json_dict(loaded[0])
    assert rebuilt.category == record.category
    assert rebuilt.location == pytest.approx(record.location)
    assert rebuilt.score == pytest.approx(0.87)
