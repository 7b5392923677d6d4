import json

import numpy as np
import pytest

from boxlift.cli import MODE_NAMES, build_parser, main
from boxlift.errors import MalformedLineError, NoFeasibleConfigurationError
from boxlift.geometry import Box3D, rotation_from_angles
from boxlift.kitti import (
    DetectionRecord,
    center_to_location,
    compute_mean_dims,
    parse_label_file,
    result_to_json_dict,
    write_results,
)
from boxlift.multibin import DimensionStats, local_to_global, ray_angle
from boxlift.solver import lift

from conftest import CALIB_TEXT, DONT_CARE_LINE, record_line, sample_scene_box, synth_corpus


def write_dataset(tmp_path, corpus, calib_text=CALIB_TEXT):
    labels = tmp_path / "labels"
    calibs = tmp_path / "calib"
    labels.mkdir()
    calibs.mkdir()
    for stem, text in corpus.items():
        (labels / f"{stem}.txt").write_text(text)
        (calibs / f"{stem}.txt").write_text(calib_text)
    return labels, calibs


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
    means = {
        category: compute_mean_dims(all_records, category)
        for category in {r.category for r in all_records}
    }
    residual_path = tmp_path / "residuals.jsonl"
    with open(residual_path, "w") as handle:
        for stem, text in corpus.items():
            for line_no, record in enumerate(parse_label_file(text), start=1):
                delta = record.dims.as_array - means[record.category].as_array
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
    means = {c: compute_mean_dims(all_records, c) for c in {r.category for r in all_records}}
    truths = {}
    residual_path = tmp_path / "residuals.jsonl"
    with open(residual_path, "w") as handle:
        for stem, text in corpus.items():
            for line_no, record in enumerate(parse_label_file(text), start=2):
                truths[(stem, line_no)] = record
                delta = record.dims.as_array - means[record.category].as_array
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
        args.func(args)
    assert excinfo.value.line_no == 3
    assert str(excinfo.value).startswith(f"{residual_path} line 3: ")
    assert main(["lift", str(labels), str(calibs), "--out", str(tmp_path / "r.jsonl"),
                 "--residuals", str(residual_path)]) == 1


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
        args.func(args)
    assert str(excinfo.value) == (
        f"{label_path} line {n_lines + 1}: expected 15 or 16 columns, got 4"
    )
    assert main(argv) == 1


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
        args.func(args)
    assert str(excinfo.value) == f"{label_path} line {n_lines + 1}: {message}"
    assert excinfo.value.token == "nan"
    assert main(argv) == 1


def _scalar_lift_reference(corpus, calib, mode, residuals=None):
    """Results lines and KITTI texts of `lift`, one record at a time.

    Each record goes through the scalar solver, ``center_to_location`` and
    ``result_to_json_dict``; records the scalar path fails are left out.
    """
    intrinsics, offset = calib.intrinsics, calib.translation_offset
    all_records = [r for text in corpus.values() for r in parse_label_file(text)]
    means = {c: compute_mean_dims(all_records, c) for c in {r.category for r in all_records}}
    lines, kitti_rows = [], {}
    for stem in sorted(corpus):
        for record in parse_label_file(corpus[stem]):
            theta_ray = float(ray_angle(intrinsics, record.box2d.center[0]))
            yaw = float(local_to_global(record.alpha, theta_ray))
            if residuals is None:
                dims = record.dims
            elif (stem, record.line_no) in residuals:
                delta = residuals[(stem, record.line_no)]
                dims = DimensionStats(means[record.category], delta).corrected
            else:
                continue
            try:
                result = lift(intrinsics, rotation_from_angles(yaw), dims, record.box2d, mode)
            except NoFeasibleConfigurationError:
                continue
            location, (h, w, l) = center_to_location(
                Box3D(result.translation - offset, dims, yaw)
            )
            out = DetectionRecord(
                category=record.category, truncated=record.truncated,
                occluded=record.occluded, alpha=record.alpha, box2d=record.box2d,
                height=h, width=w, length=l, location=location, rotation_y=yaw,
                score=record.score if record.score is not None else 1.0,
            )
            diagnostics = {
                "theta_ray": theta_ray,
                "configuration": list(result.configuration),
                "residual": result.residual,
                "reprojection_error": result.reprojection_error,
            }
            entry = result_to_json_dict(
                out, file_id=stem, line_no=record.line_no, diagnostics=diagnostics
            )
            lines.append(json.dumps(entry))
            kitti_rows.setdefault(stem, []).append(out)
    return lines, {stem: write_results(rows) for stem, rows in kitti_rows.items()}


@pytest.mark.parametrize("with_residuals", [False, True])
@pytest.mark.parametrize("mode", sorted(MODE_NAMES))
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
        corpus, calib, MODE_NAMES[mode], residuals
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
    # the sliver of test_solver's test_lift_no_feasible_configuration
    sliver = "Car 0.00 0 -0.26 1114.13 7.11 1115.43 385.44 0.84 4.75 2.16 1.00 1.65 10.00 0.35"
    corpus = {
        "000000": [first[0], " ".join(no_dims), rank_deficient, first[1], sliver],
        "000001": good_lines(2),  # its calibration is missing
        "000002": good_lines(1),  # its calibration is unusable
        "000003": good_lines(2),
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
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "000000 line 2 not lifted: record has no dimensions"),
        ("ERROR", "missing calib file for 000001"),
        ("ERROR", f"calib {calibs / '000002.txt'} unusable: P2[2][2] must be 1"),
        ("WARNING", "000000 line 3 not lifted: "
                    "side equations are rank-deficient (degenerate rectangle)"),
        ("WARNING", "000000 line 5 not lifted: all 64 configurations infeasible"),
        ("ERROR", "more than half of the records failed (6/10)"),
    ]
    entries = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(e["file"], e["line"]) for e in entries] == [
        ("000000", 1), ("000000", 4), ("000003", 1), ("000003", 2),
    ]


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


def test_lift_empty_directory(tmp_path):
    labels = tmp_path / "labels"
    calibs = tmp_path / "calib"
    labels.mkdir()
    calibs.mkdir()
    out = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_lift_missing_calib_fails_records(tmp_path, calib):
    corpus = synth_corpus(calib, n_files=2, per_file=3, seed=33)
    labels, calibs = write_dataset(tmp_path, corpus)
    for f in calibs.glob("*.txt"):
        f.unlink()
    out = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(out)]) == 1
    assert out.read_text() == ""


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
        args.func(args)
    assert excinfo.value.line_no == 3
    assert str(excinfo.value).startswith(f"{results} line 3: ")
    assert main(["eval", str(labels), str(results), "--out", str(tmp_path / "eval")]) == 1


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
