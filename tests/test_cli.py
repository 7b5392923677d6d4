import json
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

from boxlift import cli, kitti
from boxlift.cli import RunConfig, _dispatch, build_config, build_parser, main
from boxlift.errors import MalformedLineError, MissingKeyError, NoFeasibleConfigurationError
from boxlift.geometry import Box2D, Box3D, Dimensions, rotation_from_angles
from boxlift.kitti import (
    DetectionRecord,
    centers_to_locations,
    parse_label_file,
    result_entries,
    write_results,
)
from boxlift.metrics import DIFFICULTY_RULES, GroundTruthBox, ScoredDetection, aos
from boxlift.multibin import local_to_global, ray_angle
from boxlift.solver import ConstraintMode, lift

from conftest import (
    CALIB_TEXT, CAMERA_HEIGHT, DONT_CARE_LINE, record_line, sample_scene_box, synth_corpus,
)


def write_dataset(tmp_path, corpus, calib_text=CALIB_TEXT):
    labels = tmp_path / "labels"
    calibs = tmp_path / "calib"
    labels.mkdir()
    calibs.mkdir()
    for stem, text in corpus.items():
        (labels / f"{stem}.txt").write_text(text)
        (calibs / f"{stem}.txt").write_text(calib_text)
    return labels, calibs


def category_means(records):
    """Per category, the mean (dx, dy, dz) extents of its records with dimensions."""
    extents = {}
    for r in records:
        if min(r.height, r.width, r.length) > 0:
            extents.setdefault(r.category, []).append(r.dims.as_array)
    return {category: np.mean(rows, axis=0) for category, rows in extents.items()}


@pytest.fixture()
def precise_dataset(tmp_path, calib):
    """High-precision self-consistent labels: exact lift round-trips."""
    corpus = synth_corpus(calib, n_files=3, per_file=5, seed=21, precision=9, alpha="ray")
    labels, calibs = write_dataset(tmp_path, corpus)
    return labels, calibs, corpus


def test_lift_synthetic_dataset_exact(tmp_path, precise_dataset, calib):
    labels, calibs, corpus = precise_dataset
    out = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(out)]) == 0

    with open(out) as handle:
        entries = [json.loads(line) for line in handle]
    n_records = sum(len(parse_label_file(t)) for t in corpus.values())
    assert len(entries) == n_records  # 100% lifted

    for entry in entries:
        stem = entry["file"]
        truth = parse_label_file(corpus[stem])[entry["line"] - 1]
        assert np.allclose(entry["location"], truth.location, atol=1e-4)
        assert abs(entry["rotation_y"] - truth.rotation_y) < 1e-9
        assert entry["reprojection_error"] < 1e-6
        assert len(entry["configuration"]) == 4


def test_lift_kitti_format_export(tmp_path, precise_dataset):
    labels, calibs, corpus = precise_dataset
    out = tmp_path / "results.jsonl"
    kitti_out = tmp_path / "kitti"
    assert (
        main(
            [
                "lift", str(labels), str(calibs),
                "--out", str(out), "--kitti-out", str(kitti_out),
            ]
        )
        == 0
    )
    for stem in corpus:
        exported = parse_label_file((kitti_out / f"{stem}.txt").read_text())
        truth = parse_label_file(corpus[stem])
        assert len(exported) == len(truth)
        for got, want in zip(exported, truth):
            assert got.category == want.category
            assert np.allclose(got.location, want.location, atol=0.02)


def test_lift_with_dimension_residuals(tmp_path, precise_dataset):
    # residual file: delta = true dims - category mean, so the corrected
    # dimensions equal the labeled ones and the lift stays exact
    labels, calibs, corpus = precise_dataset
    all_records = [r for text in corpus.values() for r in parse_label_file(text)]
    means = category_means(all_records)
    residual_path = tmp_path / "residuals.jsonl"
    with open(residual_path, "w") as handle:
        for stem, text in corpus.items():
            for line_no, record in enumerate(parse_label_file(text), start=1):
                delta = record.dims.as_array - means[record.category]
                handle.write(
                    json.dumps({"file": stem, "line": line_no, "delta": delta.tolist()})
                    + "\n"
                )

    out = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(out),
                 "--residuals", str(residual_path)]) == 0
    with open(out) as handle:
        entries = [json.loads(line) for line in handle]
    assert len(entries) == len(all_records)
    for entry in entries:
        truth = parse_label_file(corpus[entry["file"]])[entry["line"] - 1]
        assert np.allclose(entry["location"], truth.location, atol=1e-4)
        assert np.allclose(
            entry["dims_hwl"], [truth.height, truth.width, truth.length], atol=1e-9
        )


def test_lift_reports_physical_lines_after_blank_first_line(tmp_path, calib):
    # residuals and results are keyed by the label file's physical line, so
    # a leading blank line shifts every key by one
    corpus = synth_corpus(calib, n_files=2, per_file=4, seed=22, precision=9, alpha="ray")
    labels, calibs = write_dataset(tmp_path, {k: "\n" + v for k, v in corpus.items()})
    all_records = [r for text in corpus.values() for r in parse_label_file(text)]
    means = category_means(all_records)
    truths = {}
    residual_path = tmp_path / "residuals.jsonl"
    with open(residual_path, "w") as handle:
        for stem, text in corpus.items():
            for line_no, record in enumerate(parse_label_file(text), start=2):
                truths[(stem, line_no)] = record
                delta = record.dims.as_array - means[record.category]
                handle.write(json.dumps({"file": stem, "line": line_no, "delta": delta.tolist()}) + "\n")

    out = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(out),
                 "--residuals", str(residual_path)]) == 0
    with open(out) as handle:
        entries = [json.loads(line) for line in handle]
    assert sorted((e["file"], e["line"]) for e in entries) == sorted(truths)
    for entry in entries:
        truth = truths[(entry["file"], entry["line"])]
        assert np.allclose(entry["location"], truth.location, atol=1e-4)


def test_lift_malformed_residuals_line_names_file_and_line(tmp_path, precise_dataset):
    labels, calibs, corpus = precise_dataset
    residual_path = tmp_path / "residuals.jsonl"
    good = {"file": next(iter(corpus)), "line": 1, "delta": [0.0, 0.0, 0.0]}
    residual_path.write_text(json.dumps(good) + "\n\nnot json\n")
    args = build_parser().parse_args(
        ["lift", str(labels), str(calibs), "--out", str(tmp_path / "r.jsonl"),
         "--residuals", str(residual_path)]
    )
    with pytest.raises(MalformedLineError, match="JSONDecodeError") as excinfo:
        _dispatch(args)
    assert excinfo.value.line_no == 3
    assert str(excinfo.value).startswith(f"{residual_path} line 3: ")
    assert main(["lift", str(labels), str(calibs), "--out", str(tmp_path / "r.jsonl"),
                 "--residuals", str(residual_path)]) == 1


@pytest.mark.parametrize("delta", [[0.0, "0.2", 0.0], "1e3", [["0", "0", "0"]]])
def test_lift_string_residual_delta_names_file_and_line(tmp_path, precise_dataset, caplog, delta):
    # a string is no number, also where float() would read it
    labels, calibs, corpus = precise_dataset
    entries = [
        {"file": stem, "line": n, "delta": [0.0, 0.0, 0.0]}
        for stem, text in corpus.items() for n in range(1, len(text.splitlines()) + 1)
    ]
    entries[1]["delta"], entries[2]["delta"] = None, delta
    residual_path = tmp_path / "residuals.jsonl"
    residual_path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    argv = ["lift", str(labels), str(calibs), "--out", str(tmp_path / "r.jsonl"),
            "--residuals", str(residual_path)]
    with pytest.raises(MalformedLineError) as excinfo:
        _dispatch(build_parser().parse_args(argv))
    assert excinfo.value.line_no == 3
    assert str(excinfo.value).startswith(f"{residual_path} line 3: TypeError: delta must hold numbers")

    # a null delta is read: only its own record fails
    del entries[2]
    residual_path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    assert main(argv) == 0
    stem = entries[1]["file"]
    assert [r.getMessage() for r in caplog.records] == [
        f"{stem} line 2 not lifted: residual must be a 3-vector",
        f"{stem} line 3 not lifted: no dimension residual or category mean available",
    ]


@pytest.mark.parametrize("delta", [[True, 0.0, 0.0], [0.0, 0.0, False]])
def test_lift_boolean_residual_delta_names_file_and_line(tmp_path, precise_dataset, delta):
    # a JSON boolean is no number, although numpy would read it as 1.0 or 0.0
    labels, calibs, corpus = precise_dataset
    residual_path = tmp_path / "residuals.jsonl"
    good = {"file": next(iter(corpus)), "line": 1, "delta": [0.0, 0.0, 0.0]}
    residual_path.write_text(json.dumps(good) + "\n\n" + json.dumps({**good, "delta": delta}) + "\n")
    argv = ["lift", str(labels), str(calibs), "--out", str(tmp_path / "r.jsonl"),
            "--residuals", str(residual_path)]
    with pytest.raises(MalformedLineError) as excinfo:
        _dispatch(build_parser().parse_args(argv))
    assert excinfo.value.line_no == 3
    assert str(excinfo.value).startswith(f"{residual_path} line 3: TypeError: delta must hold numbers")
    assert main(argv) == 1


@pytest.mark.parametrize("command", ["lift", "eval"])
def test_short_label_line_names_label_file(tmp_path, precise_dataset, command):
    labels, calibs, corpus = precise_dataset
    results = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(results)]) == 0
    label_path = labels / f"{next(iter(corpus))}.txt"
    n_lines = len(label_path.read_text().splitlines())
    label_path.write_text(label_path.read_text() + "Car 0.00 0 -1.0\n")
    argv = {
        "lift": ["lift", str(labels), str(calibs), "--out", str(tmp_path / "again.jsonl")],
        "eval": ["eval", str(labels), str(results), "--out", str(tmp_path / "eval")],
    }[command]
    args = build_parser().parse_args(argv)
    with pytest.raises(MalformedLineError) as excinfo:
        _dispatch(args)
    assert str(excinfo.value) == (
        f"{label_path} line {n_lines + 1}: expected 15 or 16 columns, got 4"
    )
    assert main(argv) == 1


@pytest.mark.parametrize("command", ["lift", "eval"])
def test_bad_label_line_in_a_later_file_names_that_file(tmp_path, precise_dataset, command):
    # the files are read together; the error still names the file and its own line
    labels, calibs, corpus = precise_dataset
    results = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(results)]) == 0
    first, *_, last = sorted(labels.glob("*.txt"))
    first.write_text("\n\n" + first.read_text())
    (labels / f"{first.stem}a.txt").write_text("")
    n_lines = len(last.read_text().splitlines())
    last.write_text(last.read_text() + "\n" + DONT_CARE_LINE + " 0.5 0.5\n")
    argv = {
        "lift": ["lift", str(labels), str(calibs), "--out", str(tmp_path / "again.jsonl")],
        "eval": ["eval", str(labels), str(results), "--out", str(tmp_path / "eval")],
    }[command]
    args = build_parser().parse_args(argv)
    with pytest.raises(MalformedLineError) as excinfo:
        _dispatch(args)
    assert str(excinfo.value) == f"{last} line {n_lines + 2}: expected 15 or 16 columns, got 17"
    assert (excinfo.value.line_no, excinfo.value.token) == (n_lines + 2, "0.5")


# case -> (token index set to NaN, error after the file and line)
NON_FINITE_FIELDS = {
    "occluded": (2, "occluded is not finite"),
    "alpha": (3, "alpha is not finite"),
    "rotation_y": (14, "rotation_y is not finite"),
    "location": (11, "x is not finite"),
    "score": (15, "score is not finite"),
}


@pytest.mark.parametrize("case", list(NON_FINITE_FIELDS))
@pytest.mark.parametrize("command", ["lift", "eval"])
def test_non_finite_label_field_names_label_file(tmp_path, precise_dataset, command, case):
    # a NaN stops the run at the parser, with the file and the line, not
    # later in the solver or the metrics
    labels, calibs, corpus = precise_dataset
    results = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(results)]) == 0
    label_path = labels / f"{next(iter(corpus))}.txt"
    # occlusion must be a number even on a DontCare line
    source = DONT_CARE_LINE if case == "occluded" else corpus[label_path.stem].splitlines()[0]
    tokens = source.split() + (["0.5"] if case == "score" else [])
    column, message = NON_FINITE_FIELDS[case]
    tokens[column] = "nan"
    n_lines = len(label_path.read_text().splitlines())
    label_path.write_text(label_path.read_text() + " ".join(tokens) + "\n")
    argv = {
        "lift": ["lift", str(labels), str(calibs), "--out", str(tmp_path / "again.jsonl")],
        "eval": ["eval", str(labels), str(results), "--out", str(tmp_path / "eval")],
    }[command]
    args = build_parser().parse_args(argv)
    with pytest.raises(MalformedLineError) as excinfo:
        _dispatch(args)
    assert str(excinfo.value) == f"{label_path} line {n_lines + 1}: {message}"
    assert excinfo.value.token == "nan"
    assert main(argv) == 1


def _scalar_lift_reference(corpus, calib, mode, residuals=None):
    """Results lines and KITTI texts of `lift`, one record at a time.

    Each record goes through the scalar solver, ``centers_to_locations`` and
    ``result_entries``; records the scalar path fails are left out.
    """
    intrinsics, offset = calib.intrinsics, calib.translation_offset
    all_records = [r for text in corpus.values() for r in parse_label_file(text)]
    means = category_means(all_records)
    lines, kitti_rows = [], {}
    for stem in sorted(corpus):
        for record in parse_label_file(corpus[stem]):
            theta_ray = float(ray_angle(intrinsics, record.box2d.center[0]))
            yaw = float(local_to_global(record.alpha, theta_ray))
            if residuals is None:
                dims = record.dims
            elif (stem, record.line_no) in residuals:
                delta = residuals[(stem, record.line_no)]
                dims = Dimensions(*(means[record.category] + delta))
            else:
                continue
            try:
                result = lift(intrinsics, rotation_from_angles(yaw), dims, record.box2d, mode)
            except NoFeasibleConfigurationError:
                continue
            location = centers_to_locations(result.translation - offset, dims.dy)
            out = DetectionRecord(
                category=record.category, truncated=record.truncated,
                occluded=record.occluded, alpha=record.alpha, box2d=record.box2d,
                height=dims.dy, width=dims.dz, length=dims.dx, location=location, rotation_y=yaw,
                score=record.score if record.score is not None else 1.0,
            )
            fields = {
                "category": [out.category], "truncated": [out.truncated],
                "occluded": [out.occluded], "alpha": [out.alpha], "box2d": [out.box2d.as_array],
                "dims_hwl": [[out.height, out.width, out.length]], "location": [out.location],
                "rotation_y": [out.rotation_y], "score": [out.score],
                "file": [stem], "line": [record.line_no],
                "theta_ray": [theta_ray],
                "configuration": [list(result.configuration)],
                "residual": [result.residual],
                "reprojection_error": [result.reprojection_error],
            }
            lines.append(json.dumps(result_entries(fields)[0]))
            kitti_rows.setdefault(stem, []).append(out)
    return lines, {stem: write_results(rows) for stem, rows in kitti_rows.items()}


@pytest.mark.parametrize("with_residuals", [False, True])
@pytest.mark.parametrize("mode", sorted(mode.value for mode in ConstraintMode))
def test_lift_matches_scalar_reference(tmp_path, calib, mode, with_residuals):
    # two-decimal labels and KITTI's alpha: inexact lifts, every digit compared
    n_files, per_file = (2, 2) if mode == "general" else (3, 4)
    corpus = synth_corpus(calib, n_files=n_files, per_file=per_file, seed=23)
    labels, calibs = write_dataset(tmp_path, corpus)
    argv = ["lift", str(labels), str(calibs), "--mode", mode,
            "--out", str(tmp_path / "r.jsonl"), "--kitti-out", str(tmp_path / "kitti")]
    residuals = None
    if with_residuals:
        rng = np.random.default_rng(24)
        # every record but the first file's last has a residual
        residuals = {
            (stem, line_no): rng.normal(0.0, 0.1, 3)
            for stem, text in corpus.items()
            for line_no in range(1, len(text.splitlines()) + 1)
        }
        del residuals[("000000", per_file)]
        residual_path = tmp_path / "residuals.jsonl"
        residual_path.write_text("".join(
            json.dumps({"file": f, "line": n, "delta": d.tolist()}) + "\n"
            for (f, n), d in residuals.items()
        ))
        argv += ["--residuals", str(residual_path)]
    assert main(argv) == 0

    lines, kitti_texts = _scalar_lift_reference(
        corpus, calib, ConstraintMode(mode), residuals
    )
    assert len(lines) == n_files * per_file - with_residuals
    assert (tmp_path / "r.jsonl").read_text().splitlines() == lines
    written = {p.stem: p.read_text() for p in (tmp_path / "kitti").glob("*.txt")}
    assert written == kitti_texts


def test_lift_mixed_failures_counts_warnings_and_exit_code(tmp_path, calib, caplog, capsys):
    rng = np.random.default_rng(25)

    def good_lines(n):
        return [record_line("Car", sample_scene_box(rng), calib) for _ in range(n)]

    first = good_lines(2)
    no_dims = first[0].split()
    no_dims[8:11] = ["-1", "-1", "-1"]
    rank_deficient = (  # a rectangle one float wide and high
        "Car 0.00 0 0.00 600.0 180.0 600.0000000000001 180.00000000000003 "
        "1.50 1.60 4.00 0.00 1.65 20.00 0.00"
    )
    # a sliver that straddles the principal row: lifted through the straddle family
    sliver = "Car 0.00 0 -0.26 1114.13 7.11 1115.43 385.44 0.84 4.75 2.16 1.00 1.65 10.00 0.35"
    corpus = {
        "000000": [first[0], " ".join(no_dims), rank_deficient, first[1], sliver],
        "000001": good_lines(2),  # its calibration is missing
        "000002": good_lines(1),  # its calibration is unusable
        "000003": [*good_lines(1), rank_deficient],
    }
    labels, calibs = write_dataset(
        tmp_path, {stem: "\n".join(lines) + "\n" for stem, lines in corpus.items()}
    )
    (calibs / "000001.txt").unlink()
    p2 = next(line for line in CALIB_TEXT.splitlines() if line.startswith("P2:")).split()
    p2[11] = "2.0"  # P2[2][2]
    (calibs / "000002.txt").write_text(" ".join(p2) + "\n")

    out = tmp_path / "r.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(out)]) == 1
    assert capsys.readouterr().out == f"lifted 4/10 records -> {out}\n"
    # calibrations are read and logged first, then each failed record in input order
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("ERROR", f"missing calib file {calibs / '000001.txt'}"),
        ("ERROR", f"{calibs / '000002.txt'} line 1: P2[2][2] must be 1"),
        ("WARNING", "000000 line 2 not lifted: record has no dimensions"),
        ("WARNING", "000000 line 3 not lifted: "
                    "side equations are rank-deficient (degenerate rectangle)"),
        ("WARNING", "000003 line 2 not lifted: "
                    "side equations are rank-deficient (degenerate rectangle)"),
        ("ERROR", "more than half of the records failed (6/10)"),
    ]
    entries = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(e["file"], e["line"]) for e in entries] == [
        ("000000", 1), ("000000", 4), ("000000", 5), ("000003", 1),
    ]


def test_lift_names_a_non_finite_calib_value(tmp_path, calib, caplog):
    rng = np.random.default_rng(26)
    lines = [record_line("Car", sample_scene_box(rng), calib) for _ in range(3)]
    labels, calibs = write_dataset(tmp_path, {"000000": "\n".join(lines) + "\n"})
    p2 = next(line for line in CALIB_TEXT.splitlines() if line.startswith("P2:")).split()
    p2[12] = "nan"  # P2[2][3], the last offset
    (calibs / "000000.txt").write_text("P0: 1 0 0 0 0 1 0 0 0 0 1 0\n" + " ".join(p2) + "\n")

    assert main(["lift", str(labels), str(calibs), "--out", str(tmp_path / "r.jsonl")]) == 1
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("ERROR", f"{calibs / '000000.txt'} line 2: P2 value nan is not finite"),
        ("ERROR", "more than half of the records failed (3/3)"),
    ]


def test_lift_rejects_a_calib_that_is_not_upper_triangular(tmp_path, calib, caplog):
    rng = np.random.default_rng(28)
    lines = [record_line("Car", sample_scene_box(rng), calib) for _ in range(3)]
    labels, calibs = write_dataset(tmp_path, {"000000": "\n".join(lines) + "\n"})
    (calibs / "000000.txt").write_text("P2: 700 0 600 0 35 700 170 0 0.001 0 1 0\n")

    assert main(["lift", str(labels), str(calibs), "--out", str(tmp_path / "r.jsonl")]) == 1
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("ERROR", f"{calibs / '000000.txt'} line 1: P2[1][0], P2[2][0] and P2[2][1] must be 0"),
        ("ERROR", "more than half of the records failed (3/3)"),
    ]


def test_lift_names_a_calib_without_p2(tmp_path, calib, caplog):
    rng = np.random.default_rng(27)
    lines = [record_line("Car", sample_scene_box(rng), calib) for _ in range(3)]
    labels, calibs = write_dataset(tmp_path, {"000000": "\n".join(lines) + "\n"})
    (calibs / "000000.txt").write_text("P0: 1 0 0 0 0 1 0 0 0 0 1 0\n")

    assert main(["lift", str(labels), str(calibs), "--out", str(tmp_path / "r.jsonl")]) == 1
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("ERROR", f"{calibs / '000000.txt'}: no P2 line"),
        ("ERROR", "more than half of the records failed (3/3)"),
    ]


def _p2_with(index, token):
    """CALIB_TEXT with P2's value at flat ``index`` (on line 3) replaced by ``token``."""
    lines = CALIB_TEXT.split("\n")
    values = lines[2].split()
    values[1 + index] = token
    lines[2] = " ".join(values)
    return "\n".join(lines)


# A hostile calibration of 000001: its content (None: no file; "dir": a
# directory) and the ERROR it logs, formatted with its path.
HOSTILE_CALIBS = {
    "missing": (None, "missing calib file {path}"),
    "no-p2": (CALIB_TEXT.replace("P2:", "P2a:"), "{path}: no P2 line"),
    "11-values": (CALIB_TEXT.replace(" 2.745884000000e-03", ""), "{path} line 3: P2 needs 12 values"),
    "bad-token": (_p2_with(3, "4.4x"), "{path} line 3: bad token '4.4x'"),
    "nan": (_p2_with(7, "nan"), "{path} line 3: P2 value nan is not finite"),
    "p2-2-2": (_p2_with(10, "1.01"), "{path} line 3: P2[2][2] must be 1"),
    "focal": (_p2_with(5, "-0"), "{path} line 3: focal lengths in P2 must be positive"),
    "lower": (_p2_with(9, "1e-9"), "{path} line 3: P2[1][0], P2[2][0] and P2[2][1] must be 0"),
    "not-utf8": (
        CALIB_TEXT.encode().replace(b"P3:", b"P3:\xff"),
        "{path} line 4: not UTF-8: invalid start byte b'\\xff'",
    ),
    "crlf": (CALIB_TEXT.replace("\n", "\r\n"), None),
    "directory": ("dir", "[Errno 21] Is a directory: '{path}'"),
}


@pytest.mark.parametrize("case", list(HOSTILE_CALIBS))
def test_lift_reports_a_hostile_calibration_once_and_lifts_the_other_files(
    tmp_path, calib, caplog, capsys, case
):
    content, error = HOSTILE_CALIBS[case]
    labels, calibs = write_dataset(tmp_path, synth_corpus(calib, n_files=3, per_file=4, seed=29))
    clean = tmp_path / "clean.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(clean)]) == 0
    path = calibs / "000001.txt"
    path.unlink()
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    caplog.clear()
    capsys.readouterr()

    out = tmp_path / "r.jsonl"
    code = main(["lift", str(labels), str(calibs), "--out", str(out)])
    logged = [(r.levelname, r.getMessage()) for r in caplog.records]
    expected_log = [] if error is None else [("ERROR", error.format(path=path))]
    if content == "dir":  # unreadable, as a label file would be: the run stops before writing
        assert (code, logged, out.exists()) == (1, expected_log, False)
    else:
        kept = [
            line for line in clean.read_text().splitlines(keepends=True)
            if error is None or json.loads(line)["file"] != "000001"
        ]
        assert (code, logged) == (0, expected_log)
        assert capsys.readouterr().out == f"lifted {len(kept)}/12 records -> {out}\n"
        assert out.read_text() == "".join(kept)

    # per record: the failed file's records carry its status and the logged error
    _, table = cli._read_label_dir(labels)
    paths = [str(calibs / f"{stem}.txt") for stem in ("000000", "000001", "000002")]
    calib_table = kitti.read_calib_table(paths)
    _, status, messages = kitti.lift_columns(table, calib_table, ConstraintMode.KITTI_ZERO_PITCH_ROLL)
    own = table["file"] == "000001"
    assert set(status[~own]) == {"lifted"} and set(messages[~own]) == {None}
    if error is None:
        assert set(status[own]) == {"lifted"}
    elif content is None:
        assert set(zip(status[own], messages[own])) == {("missing_calib", "no calibration file")}
    else:
        assert set(zip(status[own], messages[own])) == {("bad_calib", error.format(path=path))}

    # parse_calib_file is the table's one-file view
    if isinstance(content, str) and content != "dir":
        try:
            view = kitti.parse_calib_file(content)
        except (MalformedLineError, MissingKeyError) as exc:
            view = exc
        table_error = calib_table[2][1]
        if isinstance(view, kitti.CalibRecord):
            assert table_error is None
            assert np.array_equal(calib_table[0][1], view.intrinsics.matrix)
            assert np.array_equal(calib_table[1][1], view.translation_offset)
        elif isinstance(view, MissingKeyError):
            assert str(table_error) == f"{path}: no P2 line"
        else:
            located = view.at(path)
            assert (str(located), located.line_no, located.token) == (
                str(table_error), table_error.line_no, table_error.token,
            )


@pytest.mark.parametrize("kind", ["labels", "calib", "results"])
def test_a_file_that_is_not_utf8_is_named_with_the_line_of_its_bad_byte(
    tmp_path, precise_dataset, caplog, kind
):
    labels, calibs, _ = precise_dataset
    results = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(results)]) == 0
    path = {
        "labels": sorted(labels.glob("*.txt"))[1],
        "calib": sorted(calibs.glob("*.txt"))[1],
        "results": results,
    }[kind]
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:5] + b"\xff" + lines[2][5:]
    # lines 1 and 2 end in "\r" and "\r\n", so the bad byte is on physical line 3
    path.write_bytes(lines[0] + b"\r" + lines[1] + b"\r\n" + b"\n".join(lines[2:]))
    argv = {
        "results": ["eval", str(labels), str(results), "--out", str(tmp_path / "eval")],
    }.get(kind, ["lift", str(labels), str(calibs), "--out", str(tmp_path / "again.jsonl")])
    caplog.clear()
    # a bad calibration fails its file's records only; the other two files still lift
    assert main(argv) == (0 if kind == "calib" else 1)
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        f"{path} line 3: not UTF-8: invalid start byte b'\\xff'"
    ]


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_label_lines_are_the_physical_lines_of_the_file_object(tmp_path, calib, caplog, char):
    # line 1 ends in a character that str.splitlines breaks at and a file object does not
    rng = np.random.default_rng(47)
    lines = [record_line("Car", sample_scene_box(rng), calib) for _ in range(3)]
    lines[0] += char
    labels, calibs = write_dataset(tmp_path, {"000000": "\n".join(lines) + "\n"})
    results = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(results)]) == 0
    assert [json.loads(line)["line"] for line in results.read_text().splitlines()] == [1, 2, 3]

    path = labels / "000000.txt"
    path.write_text("\n".join(lines) + " 0.5 0.5\n")  # line 3 has 17 columns
    with open(path) as handle:
        assert [len(line.split()) for line in handle.readlines()] == [15, 15, 17]
    for argv in (
        ["lift", str(labels), str(calibs), "--out", str(tmp_path / "r.jsonl")],
        ["eval", str(labels), str(results), "--out", str(tmp_path / "eval")],
    ):
        caplog.clear()
        assert main(argv) == 1
        assert caplog.records[-1].getMessage() == f"{path} line 3: expected 15 or 16 columns, got 17"


def test_crlf_and_cr_copies_of_a_corpus_give_the_outputs_of_the_lf_copy(tmp_path):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import gen

    corpus = gen.make_corpus(3, 6, (8, 12), (5.0, 50.0))
    lifted = None
    for name, end in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        root = tmp_path / name
        (root / "labels").mkdir(parents=True)
        (root / "calib").mkdir()
        files = {root / "results.jsonl": lifted}
        for frame in corpus.frames:
            files[root / "labels" / f"{frame.stem}.txt"] = frame.label_text
            files[root / "calib" / f"{frame.stem}.txt"] = frame.calib_text
        for path, text in files.items():
            if text is not None:
                path.write_text(text.replace("\n", end), newline="")
        argv = ["lift", str(root / "labels"), str(root / "calib"), "--out", str(root / "lifted.jsonl")]
        assert main(argv + ["--kitti-out", str(root / "kitti")]) == 0
        if lifted is None:  # the LF copy's results, read by every copy's eval
            lifted = (root / "lifted.jsonl").read_text()
            (root / "results.jsonl").write_text(lifted)
        argv = ["eval", str(root / "labels"), str(root / "results.jsonl"), "--out", str(root / "eval")]
        assert main(argv) == 0

    assert (tmp_path / "crlf" / "results.jsonl").read_bytes().count(b"\r\n") == lifted.count("\n")
    outputs = sorted(p.relative_to(tmp_path / "lf") for p in (tmp_path / "lf").rglob("*") if p.is_file())
    outputs = [p for p in outputs if p.parts[0] in ("lifted.jsonl", "kitti", "eval")]
    assert len(outputs) == 1 + 6 + 3
    for copy in ("crlf", "cr"):
        for output in outputs:
            assert (tmp_path / copy / output).read_bytes() == (tmp_path / "lf" / output).read_bytes(), output


@pytest.mark.parametrize("argv", [
    ["lift", "labels", "calib", "--out", "r.jsonl", "--seed", "1"],
    ["eval", "labels", "r.jsonl", "--out", "eval", "--mode", "kitti"],
    ["encode", "--theta", "0.3", "--iou-thresh", "0.5"],
    ["toy", "--out", "study.csv", "--bins", "4"],  # no abbreviation of --bins-sweep
])
def test_subcommands_take_only_the_config_flags_they_read(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # a command that ran would write here
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_lift_warns_on_category_without_dimensions(tmp_path, precise_dataset, caplog):
    labels, calibs, corpus = precise_dataset
    stem = next(iter(corpus))
    tokens = corpus[stem].splitlines()[0].split()
    tokens[0], tokens[8:11] = "Tram", ["-1", "-1", "-1"]
    (labels / f"{stem}.txt").write_text(corpus[stem] + " ".join(tokens) + "\n")
    residual_path = tmp_path / "residuals.jsonl"
    residual_path.write_text("")
    main(["lift", str(labels), str(calibs), "--out", str(tmp_path / "r.jsonl"),
          "--residuals", str(residual_path)])
    assert any(
        r.levelname == "WARNING" and "'Tram'" in r.getMessage() for r in caplog.records
    )


def test_lift_residual_failures_warn_per_record(tmp_path, calib, caplog, capsys):
    # every Car has the extents (l, h, w) = (4, 1.5, 1.75), so the category
    # mean is exact and each message can be written out in full
    rng = np.random.default_rng(27)

    def car_line():
        box = sample_scene_box(rng, depth_range=(10.0, 30.0))
        center = [box.center[0], CAMERA_HEIGHT - 0.75, box.center[2]]
        return record_line("Car", Box3D(center, Dimensions(4.0, 1.5, 1.75), box.yaw), calib)

    tram = car_line().split()
    tram[0], tram[8:11] = "Tram", ["-1", "-1", "-1"]
    lines = [car_line() for _ in range(8)] + [" ".join(tram), car_line()]
    labels, calibs = write_dataset(tmp_path, {"000000": "\n".join(lines) + "\n"})
    deltas = {
        1: [0.0, 0.0, 0.0], 2: [0.0, 0.0], 3: [-100.0, 0.0, 0.0], 4: [0.1, 0.0, 0.0],
        5: [float("nan")] * 3, 7: [0.0, 0.25, 0.0], 8: [0.0, 0.0, 0.0], 9: [0.0, 0.0, 0.0],
        10: [0.0, 0.0, 0.0],
    }  # line 6 has none
    residual_path = tmp_path / "residuals.jsonl"
    residual_path.write_text("".join(
        json.dumps({"file": "000000", "line": n, "delta": d}) + "\n" for n, d in deltas.items()
    ))

    out = tmp_path / "r.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(out),
                 "--residuals", str(residual_path)]) == 0
    assert capsys.readouterr().out == f"lifted 5/10 records -> {out}\n"
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "no mean dimensions for category 'Tram'"),
        ("WARNING", "000000 line 2 not lifted: residual must be a 3-vector"),
        ("WARNING", "000000 line 3 not lifted: "
                    "dimensions must be positive and finite, got (-96.0, 1.5, 1.75)"),
        ("WARNING", "000000 line 5 not lifted: "
                    "dimensions must be positive and finite, got (nan, nan, nan)"),
        ("WARNING", "000000 line 6 not lifted: no dimension residual or category mean available"),
        ("WARNING", "000000 line 9 not lifted: no dimension residual or category mean available"),
    ]
    entries = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(e["line"], e["dims_hwl"]) for e in entries] == [
        (1, [1.5, 1.75, 4.0]), (4, [1.5, 1.75, 4.1]), (7, [1.75, 1.75, 4.0]), (8, [1.5, 1.75, 4.0]),
        (10, [1.5, 1.75, 4.0]),
    ]


def test_lift_empty_directory(tmp_path):
    labels = tmp_path / "labels"
    calibs = tmp_path / "calib"
    labels.mkdir()
    calibs.mkdir()
    out = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_label_dir_reads_the_files_path_glob_finds_in_its_order(tmp_path, calib):
    names = [".txt", "..txt", ".hidden.txt", "a b.txt", "Z.txt", "b.txt", "UPPER.TXT", "c.txt.bak"]
    corpus = synth_corpus(calib, n_files=len(names), per_file=1, seed=41)
    labels, _ = write_dataset(tmp_path, dict(zip(names, corpus.values())))
    for name in names:
        (labels / f"{name}.txt").rename(labels / name)
    (labels / "link.txt").symlink_to(labels / "b.txt")
    found = sorted(labels.glob("*.txt"))
    stems, table = cli._read_label_dir(labels)
    assert stems == table["file"].tolist() == [path.stem for path in found]
    assert len(found) == 7

    (labels / "sub.txt").mkdir()  # glob finds a directory too, and reading it fails
    with pytest.raises(IsADirectoryError) as error:
        cli._read_label_dir(labels)
    assert str(error.value) == f"[Errno 21] Is a directory: '{labels / 'sub.txt'}'"
    for missing in (tmp_path / "nothing", labels / "b.txt"):  # no directory: no files
        assert cli._read_label_dir(missing)[0] == [] == sorted(missing.glob("*.txt"))


def test_lift_missing_calib_fails_records(tmp_path, calib):
    corpus = synth_corpus(calib, n_files=2, per_file=3, seed=33)
    labels, calibs = write_dataset(tmp_path, corpus)
    for f in calibs.glob("*.txt"):
        f.unlink()
    out = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(out)]) == 1
    assert out.read_text() == ""


def test_lift_reads_no_calibration_for_a_file_with_nothing_to_lift(tmp_path, calib, caplog, capsys):
    labels, calibs = write_dataset(tmp_path, {"000000": "", "000001": DONT_CARE_LINE + "\n"})
    for f in calibs.glob("*.txt"):
        f.unlink()
    out = tmp_path / "r.jsonl"
    argv = ["lift", str(labels), str(calibs), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"lifted 0/0 records -> {out}\n"
    (calibs / "000001.txt").write_text("P2: 1 2 3\n")  # unusable, and not read
    assert main(argv) == 0
    assert caplog.records == []

    # a file with a record to lift still needs its calibration
    line = record_line("Car", sample_scene_box(np.random.default_rng(29)), calib)
    (labels / "000002.txt").write_text(line + "\n")
    assert main(argv) == 1
    assert capsys.readouterr().out == f"lifted 0/0 records -> {out}\nlifted 0/1 records -> {out}\n"
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("ERROR", f"missing calib file {calibs / '000002.txt'}"),
        ("ERROR", "more than half of the records failed (1/1)"),
    ]


def test_eval_self_is_perfect(tmp_path, precise_dataset):
    labels, calibs, _ = precise_dataset
    results = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(results)]) == 0
    out_dir = tmp_path / "eval"
    assert main(["eval", str(labels), str(results), "--out", str(out_dir)]) == 0

    summary = json.loads((out_dir / "summary.json").read_text())
    hard = summary["difficulties"]["hard"]
    assert hard["ap"] == pytest.approx(1.0)
    assert hard["os"] == pytest.approx(1.0, abs=1e-9)
    matched = summary["matched_pairs"]
    assert matched["mean_center_error"] < 1e-3
    assert matched["mean_closest_point_error"] < 1e-3
    assert matched["mean_iou3d"] > 0.999
    assert matched["median_viewpoint_error_rad"] < 1e-6

    bins_csv = (out_dir / "distance_bins.csv").read_text().strip().splitlines()
    assert bins_csv[0] == "bin_lo_m,bin_hi_m,count,center_error_m,closest_point_error_m,iou3d"
    assert len(bins_csv) > 1


def test_eval_antipodal_yaw_kills_similarity_not_ap(tmp_path, precise_dataset):
    labels, calibs, _ = precise_dataset
    results = tmp_path / "results.jsonl"
    main(["lift", str(labels), str(calibs), "--out", str(results)])

    flipped = tmp_path / "flipped.jsonl"
    with open(results) as handle:
        entries = [json.loads(line) for line in handle]
    with open(flipped, "w") as handle:
        for entry in entries:
            entry["rotation_y"] = float(
                np.pi - np.mod(np.pi - (entry["rotation_y"] + np.pi), 2 * np.pi)
            )
            handle.write(json.dumps(entry) + "\n")

    out_dir = tmp_path / "eval"
    assert main(["eval", str(labels), str(flipped), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    hard = summary["difficulties"]["hard"]
    assert hard["ap"] == pytest.approx(1.0)
    assert hard["aos"] == pytest.approx(0.0, abs=1e-9)


def test_eval_three_object_scene_hand_computed(tmp_path, calib):
    # same scene as the metrics-level oracle: AP = 6/11, AOS = 1/2 on the
    # hard bucket (all three ground truths are eligible)
    rng = np.random.default_rng(40)
    boxes = [sample_scene_box(rng, depth_range=(10.0, 18.0)) for _ in range(3)]
    gt_lines = [record_line("Car", box, calib, precision=9) for box in boxes]
    labels = tmp_path / "labels"
    labels.mkdir()
    (labels / "000000.txt").write_text("\n".join(gt_lines) + "\n")

    records = parse_label_file("\n".join(gt_lines))
    entries = []
    # d1: matches gt 0 with exact yaw
    entries.append(_result_entry(records[0], score=0.9))
    # d2: false positive far from everything
    fp = _result_entry(records[0], score=0.8)
    fp["box2d"] = [2000.0, 1000.0, 2040.0, 1040.0]
    entries.append(fp)
    # d3: matches gt 2 with yaw off by pi/2
    offset = _result_entry(records[2], score=0.7)
    offset["rotation_y"] = float(
        np.pi - np.mod(np.pi - (offset["rotation_y"] + np.pi / 2 + np.pi), 2 * np.pi)
    )
    entries.append(offset)

    results = tmp_path / "results.jsonl"
    with open(results, "w") as handle:
        for entry in entries:
            handle.write(json.dumps(entry) + "\n")

    out_dir = tmp_path / "eval"
    assert main(["eval", str(labels), str(results), "--out", str(out_dir)]) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    hard = summary["difficulties"]["hard"]
    assert hard["ap"] == pytest.approx(6.0 / 11.0)
    assert hard["aos"] == pytest.approx(0.5, abs=1e-9)


def test_eval_score_zero_ranks_last(tmp_path, calib):
    # two detections at IoU 1 on one ground truth: the good one scored 0.5
    # must take it before the poor one scored 0.0
    box = sample_scene_box(np.random.default_rng(41), depth_range=(10.0, 18.0))
    labels = tmp_path / "labels"
    labels.mkdir()
    line = record_line("Car", box, calib, precision=9)
    (labels / "000000.txt").write_text(line + "\n")
    record = parse_label_file(line)[0]
    poor = _result_entry(record, score=0.0)
    poor["location"][2] += 2.0
    good = _result_entry(record, score=0.5)
    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps(poor) + "\n" + json.dumps(good) + "\n")

    out_dir = tmp_path / "eval"
    assert main(["eval", str(labels), str(results), "--out", str(out_dir)]) == 0
    matched = json.loads((out_dir / "summary.json").read_text())["matched_pairs"]
    assert matched["count"] == 1
    assert matched["mean_center_error"] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize(
    "bad_line, detail",
    [
        ("{not json", "JSONDecodeError"),
        ('{"file": "000000", "box2d": [0, 0, 10, 10]}', "KeyError"),
        ("dims", "no dimensions"),
    ],
)
def test_eval_malformed_results_line_names_file_and_line(tmp_path, calib, bad_line, detail):
    box = sample_scene_box(np.random.default_rng(42))
    labels = tmp_path / "labels"
    labels.mkdir()
    line = record_line("Car", box, calib)
    (labels / "000000.txt").write_text(line + "\n")
    good = _result_entry(parse_label_file(line)[0], score=0.9)
    if bad_line == "dims":
        bad_line = json.dumps({**good, "dims_hwl": [-1.0, -1.0, -1.0]})
    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps(good) + "\n\n" + bad_line + "\n")

    args = build_parser().parse_args(
        ["eval", str(labels), str(results), "--out", str(tmp_path / "eval")]
    )
    with pytest.raises(MalformedLineError, match=detail) as excinfo:
        _dispatch(args)
    assert excinfo.value.line_no == 3
    assert str(excinfo.value).startswith(f"{results} line 3: ")
    assert main(["eval", str(labels), str(results), "--out", str(tmp_path / "eval")]) == 1


@pytest.mark.parametrize(
    "override, detail",
    [
        ({"rotation_y": float("nan")}, "ValueError: rotation_y is not finite"),
        ({"score": "high"}, "TypeError: must be real number, not str"),
        ({"score": float("nan")}, "ValueError: score is not finite"),
        ({"box2d": [0.0, 0.0, 10.0]}, "ValueError: box2d, dims_hwl and location need"),
        ({"occluded": float("inf")}, "OverflowError: cannot convert float infinity"),
        # JSON booleans, which math.isfinite would read as 1 and 0
        ({"score": True}, "TypeError: score must be a number, not a boolean"),
        ({"rotation_y": False}, "TypeError: rotation_y must be a number, not a boolean"),
        ({"box2d": [True, 0, 500, 300]}, "TypeError: x_min must be a number, not a boolean"),
    ],
    ids=[
        "nan-rotation_y", "string-score", "nan-score", "short-box2d", "infinite-occluded",
        "bool-score", "bool-rotation_y", "bool-box2d",
    ],
)
def test_eval_bad_results_value_names_file_and_line(tmp_path, calib, override, detail):
    box = sample_scene_box(np.random.default_rng(42))
    labels = tmp_path / "labels"
    labels.mkdir()
    line = record_line("Car", box, calib)
    (labels / "000000.txt").write_text(line + "\n")
    good = _result_entry(parse_label_file(line)[0], score=0.9)
    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps(good) + "\n\n" + json.dumps({**good, **override}) + "\n")

    args = build_parser().parse_args(
        ["eval", str(labels), str(results), "--out", str(tmp_path / "eval")]
    )
    with pytest.raises(MalformedLineError) as excinfo:
        _dispatch(args)
    assert excinfo.value.line_no == 3
    assert str(excinfo.value).startswith(f"{results} line 3: {detail}")


def test_eval_ground_truth_without_dimensions_fails_only_when_matched(tmp_path, calib, caplog):
    rng = np.random.default_rng(43)
    boxes = [sample_scene_box(rng, depth_range=(10.0, 18.0)) for _ in range(2)]
    lines = [record_line("Car", box, calib, precision=9) for box in boxes]
    records = parse_label_file("\n".join(lines))
    tokens = lines[1].split()
    tokens[8:11] = ["-1", "-1", "-1"]
    labels = tmp_path / "labels"
    labels.mkdir()
    (labels / "000000.txt").write_text(lines[0] + "\n" + " ".join(tokens) + "\n")
    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps(_result_entry(records[0], score=0.9)) + "\n")
    out_dir = tmp_path / "eval"
    assert main(["eval", str(labels), str(results), "--out", str(out_dir)]) == 0
    assert json.loads((out_dir / "summary.json").read_text())["matched_pairs"]["count"] == 1

    with open(results, "a") as handle:
        handle.write(json.dumps(_result_entry(records[1], score=0.8)) + "\n")
    assert main(["eval", str(labels), str(results), "--out", str(out_dir)]) == 1
    assert "no dimensions" in caplog.records[-1].getMessage()


def test_eval_names_the_file_and_line_of_a_matched_ground_truth_without_dimensions(
    tmp_path, calib, caplog
):
    rng = np.random.default_rng(43)
    box = sample_scene_box(rng, depth_range=(10.0, 18.0))
    line = record_line("Car", box, calib, precision=9)
    tokens = line.split()
    tokens[8:11] = ["0", "1.6", "4.0"]  # no height
    labels = tmp_path / "labels"
    labels.mkdir()
    (labels / "000000.txt").write_text(DONT_CARE_LINE + "\n" + " ".join(tokens) + "\n")
    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps(_result_entry(parse_label_file(line)[0], score=0.9)) + "\n")
    assert main(["eval", str(labels), str(results), "--out", str(tmp_path / "eval")]) == 1
    message = caplog.records[-1].getMessage()
    assert message.startswith(f"{labels / '000000.txt'} line 2: ")
    assert message.endswith("a record of frame 000000 has no dimensions")


def test_eval_rejects_a_ground_truth_beyond_max_meters_in_time(tmp_path, calib, caplog):
    # A height of 99999999999 m puts the box center 5e10 m away: binning the
    # pairs by 10 m bands would build 5e9 rows. The label reader stops at it.
    rng = np.random.default_rng(46)
    boxes = [sample_scene_box(rng, depth_range=(10.0, 18.0)) for _ in range(2)]
    lines = [record_line("Car", box, calib, precision=9) for box in boxes]
    records = parse_label_file("\n".join(lines))
    tokens = lines[1].split()
    tokens[8] = "99999999999"
    labels = tmp_path / "labels"
    labels.mkdir()
    (labels / "000000.txt").write_text(lines[0] + "\n" + " ".join(tokens) + "\n")
    results = tmp_path / "results.jsonl"
    results.write_text("".join(json.dumps(_result_entry(r, score=0.9)) + "\n" for r in records))

    def expire(signum, frame):
        raise TimeoutError("eval took more than 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        code = main(["eval", str(labels), str(results), "--out", str(tmp_path / "eval")])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 1
    message = caplog.records[-1].getMessage()
    assert message == f"{labels / '000000.txt'} line 2: height beyond 10000 m"


def test_eval_ranks_score_ties_by_frame_then_line(tmp_path, precise_dataset):
    # interleaved frames and tied scores: ties rank grouped by frame, in
    # order of first appearance, then by line, as the reference below does
    labels, calibs, _ = precise_dataset
    results = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(results)]) == 0
    rng = np.random.default_rng(44)
    entries = []
    for entry in map(json.loads, results.read_text().splitlines()):
        entries.append({**entry, "score": float(rng.choice([0.5, 0.9]))})
        if rng.random() < 0.6:  # a tied false positive in the same frame
            entries.append({**entries[-1], "box2d": [2000.0, 1000.0, 2040.0, 1040.0]})
    entries = [entries[i] for i in rng.permutation(len(entries))]
    results.write_text("".join(json.dumps(e) + "\n" for e in entries))
    out_dir = tmp_path / "eval"
    assert main(["eval", str(labels), str(results), "--out", str(out_dir)]) == 0

    def detection(entry):
        return ScoredDetection(Box2D(*entry["box2d"]), entry["rotation_y"], entry["score"], entry["file"])

    by_frame = {}
    for entry in entries:
        by_frame.setdefault(entry["file"], []).append(detection(entry))
    min_height = DIFFICULTY_RULES["hard"][0]
    gts = [
        GroundTruthBox(r.box2d, r.rotation_y, frame)
        for frame in by_frame
        for r in parse_label_file((labels / f"{frame}.txt").read_text())
        if r.box2d.height >= min_height
    ]
    expected = aos(gts, [d for frame_dets in by_frame.values() for d in frame_dets], 0.7)
    hard = json.loads((out_dir / "summary.json").read_text())["difficulties"]["hard"]
    assert (hard["ap"], hard["aos"]) == (expected.ap, expected.aos)
    # the case needs the grouping: plain file order ranks the ties otherwise
    assert aos(gts, [detection(e) for e in entries], 0.7).ap != expected.ap


def _result_entry(record, score):
    return {
        "file": "000000",
        "line": 1,
        "category": record.category,
        "truncated": record.truncated,
        "occluded": record.occluded,
        "alpha": record.alpha,
        "box2d": [float(v) for v in record.box2d.as_array],
        "dims_hwl": [record.height, record.width, record.length],
        "location": [float(v) for v in record.location],
        "rotation_y": record.rotation_y,
        "score": score,
    }


def test_eval_scores_results_of_label_files_without_objects(tmp_path, calib):
    # an empty or DontCare-only label file is labelled: its results lines are
    # false positives, not missing frames
    line = record_line("Car", sample_scene_box(np.random.default_rng(46), depth_range=(10.0, 18.0)), calib)
    labels = tmp_path / "labels"
    labels.mkdir()
    (labels / "000000.txt").write_text(line + "\n")
    (labels / "000001.txt").write_text("")
    (labels / "000002.txt").write_text(DONT_CARE_LINE + "\n")
    record = parse_label_file(line)[0]
    entries = [_result_entry(record, score=0.9)] + [
        {**_result_entry(record, score=0.95), "file": stem} for stem in ("000001", "000002")
    ]
    results = tmp_path / "results.jsonl"
    results.write_text("".join(json.dumps(e) + "\n" for e in entries))
    out_dir = tmp_path / "eval"
    assert main(["eval", str(labels), str(results), "--out", str(out_dir)]) == 0

    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["missing_frames"] == []
    assert summary["matched_pairs"]["count"] == 1
    # two false positives rank above the one true positive: precision 1/3
    assert summary["difficulties"]["hard"]["ap"] == pytest.approx(1 / 3)


def test_eval_missing_ground_truth_skipped(tmp_path, precise_dataset, capsys):
    labels, calibs, _ = precise_dataset
    results = tmp_path / "results.jsonl"
    main(["lift", str(labels), str(calibs), "--out", str(results)])
    (labels / "000001.txt").unlink()
    out_dir = tmp_path / "eval"
    assert main(["eval", str(labels), str(results), "--out", str(out_dir)]) == 0
    assert "000001" in capsys.readouterr().out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["missing_frames"] == ["000001"]


def test_eval_counts_ground_truths_of_frames_without_results(tmp_path, precise_dataset):
    # a labelled frame with no results line still counts: its objects are misses
    labels, calibs, corpus = precise_dataset
    results = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(results)]) == 0
    kept = [l for l in results.read_text().splitlines(True) if json.loads(l)["file"] != "000001"]
    results.write_text("".join(kept))
    n_labelled = sum(not r.is_dont_care for text in corpus.values() for r in parse_label_file(text))
    out_dir = tmp_path / "eval"
    assert main(["eval", str(labels), str(results), "--out", str(out_dir)]) == 0

    summary = json.loads((out_dir / "summary.json").read_text())
    hard = summary["difficulties"]["hard"]
    assert hard["n_gt"] == n_labelled
    assert hard["ap"] < 1.0
    assert summary["matched_pairs"]["count"] == len(kept)
    assert summary["missing_frames"] == []


def test_main_calls_the_command_bound_at_call_time(monkeypatch):
    # perfbench's span recorder rebinds cli.cmd_eval after the parser is cached
    cli._parser()
    calls = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: calls.append(args.gt_dir) or 7)
    assert main(["eval", "gt", "results.jsonl", "--out", "out"]) == 7
    assert calls == ["gt"]


def test_toy_csv_deterministic_and_single_row(tmp_path):
    out1 = tmp_path / "study1.csv"
    out2 = tmp_path / "study2.csv"
    args = ["toy", "--bins-sweep", "1,2", "--epochs", "40", "--n-train", "600",
            "--n-test", "400", "--seed", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    assert (tmp_path / "study1_history.csv").exists()

    single = tmp_path / "single.csv"
    assert main(["toy", "--bins-sweep", "1", "--epochs", "10", "--n-train", "200",
                 "--n-test", "100", "--out", str(single)]) == 0
    lines = single.read_text().strip().splitlines()
    assert len(lines) == 2  # header + one row
    assert lines[1].startswith("1,l2_scalar")


def test_encode_decode_roundtrip(capsys):
    assert main(["encode", "--theta", "0.3", "--bins", "2"]) == 0
    payload = capsys.readouterr().out.strip()
    data = json.loads(payload)
    assert data["n_bins"] == 2
    assert sum(data["confidences"]) == 1.0
    assert main(["decode", "--encoding", payload, "--bins", "2"]) == 0
    decoded = float(capsys.readouterr().out.strip())
    assert decoded == pytest.approx(0.3, abs=1e-12)


def test_encode_zero_angle_two_bins(capsys):
    assert main(["encode", "--theta", "0", "--bins", "2"]) == 0
    data = json.loads(capsys.readouterr().out.strip())
    chosen = data["chosen_bin"]
    assert data["confidences"][chosen] == 1.0
    assert np.arctan2(data["sin"][chosen], data["cos"][chosen]) == pytest.approx(0.0)


@pytest.mark.parametrize("payload,message", [
    ('{"n_bins": 4, "confidences": [0, 1], "cos": [1, 0.5], "sin": [0, 0.8660254]}',
     "encoding has 2 bins, layout has 4"),
    ('{"confidences": [0, 1, 0, 0], "cos": [1, 0.5, 1, 1], "sin": [0, 0.8660254, 0, 0]}',
     "encoding has 4 bins, layout has 2"),
])
def test_decode_rejects_payload_of_another_width(payload, message, capsys, caplog):
    assert main(["decode", "--encoding", payload]) == 1
    assert capsys.readouterr().out == ""
    assert [r.getMessage() for r in caplog.records] == [message]


@pytest.mark.parametrize("payload,message", [
    ('{"confidences": [1, 0]}', "--encoding lacks cos, sin"),
    ("[1, 2]", "--encoding must be a JSON object"),
])
def test_decode_names_what_a_malformed_payload_lacks(payload, message, capsys, caplog):
    assert main(["decode", "--encoding", payload]) == 1
    assert capsys.readouterr().out == ""
    assert [r.getMessage() for r in caplog.records] == [message]


def test_consecutive_main_calls_parse_independently(capsys):
    assert main(["encode", "--theta", "0.3", "--bins", "4", "--overlap", "1.5"]) == 0
    payload = capsys.readouterr().out.strip()
    assert json.loads(payload)["n_bins"] == 4
    assert main(["decode", "--encoding", payload]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.3, abs=1e-12)
    assert main(["encode", "--theta", "-2.0"]) == 0  # --bins 4 does not carry over
    data = json.loads(capsys.readouterr().out)
    assert data["n_bins"] == 2 and data["chosen_bin"] == 0


def test_malformed_angle_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["encode", "--theta", "not-a-number"])
    assert excinfo.value.code == 2


def test_missing_results_file_is_runtime_error(tmp_path):
    assert main(["eval", str(tmp_path), str(tmp_path / "nope.jsonl"),
                 "--out", str(tmp_path / "eval")]) == 1


def test_config_file_round(tmp_path):
    config = tmp_path / "run.toml"
    config.write_text('mode = "kitti"\nbins = 4\noverlap = 1.2\nseed = 9\n')
    out = tmp_path / "enc.json"
    # encode honors the config file's bin count
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(["encode", "--theta", "1.0", "--config", str(config)]) == 0
    assert json.loads(buffer.getvalue())["n_bins"] == 4

    bad = tmp_path / "bad.toml"
    bad.write_text("unknown_key = 3\n")
    assert main(["encode", "--theta", "1.0", "--config", str(bad)]) == 1
    # a multi-line array is TOML
    multi_line = tmp_path / "multi_line.toml"
    multi_line.write_text("bins_sweep = [\n  1,\n  2,\n]\n")
    args = build_parser().parse_args(["toy", "--out", "toy.csv", "--config", str(multi_line)])
    assert build_config(args).bins_sweep == (1, 2)


_ENCODE = ["encode", "--theta", "1.0"]


@pytest.mark.parametrize("argv,text,message", [
    (_ENCODE, "bins = 4\nmode = kitti\n", "{path}: Invalid value (at line 2, column 8)"),
    (_ENCODE, "bins_sweep = [\n  1,\n  2.0,\n]\n", "{path}: bins_sweep must be a list of int, got [1, 2.0]"),
    (_ENCODE, "\n[run]\n", "{path}: unknown config keys: ['run']"),
    (["toy", "--out", "toy.csv"], "epochs = 2.5\n", "{path}: epochs must be int, got 2.5"),
    (_ENCODE, 'bins_sweep = "1,2"\n', "{path}: bins_sweep must be a list of int, got '1,2'"),
    (_ENCODE, "bins_sweep = [1, 2.0]\n", "{path}: bins_sweep must be a list of int, got [1, 2.0]"),
    (_ENCODE, "bins = true\n", "{path}: bins must be int, got True"),
    (_ENCODE, 'overlap = "1.5"\n', "{path}: overlap must be float, got '1.5'"),
    (_ENCODE, "mode = 1\n", "{path}: mode must be str, got 1"),
    # "\udcff" is written as the byte 0xff
    (_ENCODE, "bins = 4\n# caf\udcff\n", "{path} line 2: not UTF-8: invalid start byte b'\\xff'"),
], ids=[
    "unquoted-string", "multi-line-array", "table", "float-for-int", "string-for-list",
    "float-in-list", "bool-for-int", "string-for-float", "int-for-string", "not-utf8",
])
def test_config_file_errors_name_the_file_line_and_key(tmp_path, monkeypatch, caplog, argv, text, message):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.toml"
    config.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(argv + ["--config", str(config)]) == 1
    assert [r.getMessage() for r in caplog.records] == [message.format(path=config)]


def test_json_config_file_errors_name_the_file(tmp_path, caplog):
    config = tmp_path / "run.json"
    config.write_text('{"bins": 4,}')
    assert main(_ENCODE + ["--config", str(config)]) == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"{config}: Expecting property name enclosed in double quotes: line 1 column 12 (char 11)"
    ]


def test_config_file_takes_an_int_for_a_float(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text('{"overlap": 1, "bins": 4}')
    assert main(_ENCODE + ["--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["n_bins"] == 4


def test_alpha_is_no_option(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["encode", "--theta", "1.0", "--alpha", "2.0"])
    assert excinfo.value.code == 2
    config = tmp_path / "run.toml"
    config.write_text("alpha = 2.0\n")
    with pytest.raises(ValueError, match=r"unknown config keys: \['alpha'\]"):
        build_config(build_parser().parse_args(["encode", "--theta", "1.0", "--config", str(config)]))


# every key of the config schema, in the forms a config file may use
_SCHEMA = """
# a comment line
mode = "kitti"
bins = 4  # a trailing comment
overlap = 1.25
w = 2.5e-1
iou_thresh = +0.5
seed = -3
sigma = 0.05
epochs=10
lr = 1e-2
hidden = 32
n_train = 5_000
n_test = 2000
bins_sweep = [1, 2, 4, 8]
"""
_SCHEMA_CONFIG = RunConfig(
    mode="kitti", bins=4, overlap=1.25, w=0.25, iou_thresh=0.5, seed=-3, sigma=0.05,
    epochs=10, lr=0.01, hidden=32, n_train=5000, n_test=2000, bins_sweep=(1, 2, 4, 8),
)


@pytest.mark.parametrize("text,expected", [
    (_SCHEMA, _SCHEMA_CONFIG),
    (_SCHEMA.replace('"kitti"', "'kitti'"), _SCHEMA_CONFIG),
    ("bins_sweep = [ 1,2, ]\n", RunConfig(bins_sweep=(1, 2))),
    ("bins_sweep = []\n", RunConfig(bins_sweep=())),
    # integers in every TOML base
    ("seed = 0x10\n", RunConfig(seed=16)),
    ("seed = 1_000\n", RunConfig(seed=1000)),
    # a "#" inside a quoted string is no comment
    ('mode = "a#b"  # a comment\n', "mode must be one of ['general', 'kitti', 'upright', 'zeroroll']"),
    ("mode = 'a#b'\n", "mode must be one of ['general', 'kitti', 'upright', 'zeroroll']"),
])
def test_config_file_reads_every_schema_form(tmp_path, text, expected):
    config = tmp_path / "run.toml"
    config.write_text(text)
    args = build_parser().parse_args(["toy", "--out", "toy.csv", "--config", str(config)])
    if isinstance(expected, RunConfig):
        assert build_config(args) == expected
        return
    with pytest.raises(ValueError) as caught:
        build_config(args)
    assert str(caught.value) == expected


def test_bad_bins_sweep_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["toy", "--out", "toy.csv", "--bins-sweep", "1,x"])
    assert excinfo.value.code == 2
    assert "argument --bins-sweep: invalid int_list value: '1,x'" in capsys.readouterr().err
