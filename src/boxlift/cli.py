"""Command-line entry point: batch lifting, evaluation and the bin study.

Subcommands:
    lift    Lift every record of a KITTI label directory to a 3D box.
    eval    Score a results file against ground-truth labels.
    toy     Run the synthetic bin-count study.
    encode  Print the multi-bin encoding of an angle.
    decode  Invert an encoding printed by ``encode``.

``lift`` works in columns. Per label file it reads the calibration and
computes the viewing-ray angles and yaws of all the file's records at once.
For the whole run it builds every rotation, makes one ``lift_batch`` call,
and computes every location. Per record it only reads the label fields
(and, with residuals, looks up the record's extents) and emits the
record's results line; failed records are reported one by one.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Set BOXLIFT_LOG to
a logging level name (DEBUG, INFO, ...) for verbosity.
"""

import argparse
import csv
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass, fields, replace
from itertools import compress
from pathlib import Path

import numpy as np

from . import kitti
from .errors import (
    MalformedLineError,
    MissingKeyError,
    NoFeasibleConfigurationError,
    NoSamplesError,
)
from .geometry import Box3D, Dimensions, rotations_from_angles
from .metrics import (
    GroundTruthBox,
    ScoredDetection,
    aos,
    distance_binned_errors,
    iou3d,  # noqa: F401 - perfbench/selftest.py traces it through this binding
    match_greedy,
    orientation_score,
    pair_errors,
    viewpoint_stats,
)
from .multibin import (
    BinLayout,
    DimensionStats,
    MultiBinEncoding,
    decode,
    encode,
    local_to_global,
    ray_angle,
)
from .solver import ConstraintMode, lift_batch
from .toy import bin_study

logger = logging.getLogger("boxlift")

MODE_NAMES = {
    "general": ConstraintMode.GENERAL,
    "upright": ConstraintMode.UPRIGHT,
    "zeroroll": ConstraintMode.UPRIGHT_ZERO_ROLL,
    "kitti": ConstraintMode.KITTI_ZERO_PITCH_ROLL,
}

# KITTI difficulty gates: (min 2D box height px, max occlusion, max truncation)
DIFFICULTY_RULES = {
    "easy": (40.0, 0, 0.15),
    "moderate": (25.0, 1, 0.30),
    "hard": (25.0, 2, 0.50),
}


@dataclass
class RunConfig:
    """Validated run settings shared by the subcommands."""

    mode: str = "kitti"
    bins: int = 2
    overlap: float = 1.1
    w: float = 1.0
    alpha: float = 1.0
    iou_thresh: float = 0.7
    seed: int = 0
    sigma: float = 0.05
    epochs: int = 200
    lr: float = 0.05
    hidden: int = 32
    n_train: int = 5000
    n_test: int = 2000
    bins_sweep: tuple = (1, 2, 4, 8)

    def __post_init__(self):
        if self.mode not in MODE_NAMES:
            raise ValueError(f"mode must be one of {sorted(MODE_NAMES)}")
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if not 1.0 <= self.overlap < 2.0:
            raise ValueError("overlap factor must be in [1, 2)")
        if self.w <= 0 or self.alpha <= 0:
            raise ValueError("loss weights w and alpha must be positive")
        if not 0.0 < self.iou_thresh <= 1.0:
            raise ValueError("iou_thresh must be in (0, 1]")
        if self.epochs < 1 or self.hidden < 1 or self.n_train < 1 or self.n_test < 1:
            raise ValueError("epochs, hidden, n_train and n_test must be >= 1")
        self.bins_sweep = tuple(int(b) for b in self.bins_sweep)
        if any(b < 1 for b in self.bins_sweep):
            raise ValueError("bins_sweep entries must be >= 1")

    @property
    def constraint_mode(self):
        return MODE_NAMES[self.mode]

    @property
    def bin_layout(self):
        return BinLayout(self.bins, self.overlap * np.pi / self.bins)


def _parse_flat_toml(text):
    """Minimal TOML reader for flat ``key = value`` config files.

    Handles strings, numbers, booleans and one-level arrays, which covers
    the config schema; a full parser takes over on Python >= 3.11.
    """
    data = {}
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            raise ValueError(f"config tables are not supported: {line}")
        if "=" not in line:
            raise ValueError(f"bad config line: {raw_line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        data[key] = _parse_toml_value(value)
    return data


def _parse_toml_value(value):
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        return [_parse_toml_value(v.strip()) for v in inner.split(",")] if inner else []
    if value.startswith('"') and value.endswith('"'):
        return value[1:-1]
    if value in ("true", "false"):
        return value == "true"
    try:
        return int(value)
    except ValueError:
        return float(value)


def load_config_file(path):
    """Read a TOML or JSON config file into a flat dict."""
    text = Path(path).read_text()
    if str(path).endswith(".json"):
        return json.loads(text)
    try:
        import tomllib

        return tomllib.loads(text)
    except ModuleNotFoundError:
        return _parse_flat_toml(text)


def build_config(args):
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    settings = {}
    if getattr(args, "config", None):
        file_settings = load_config_file(args.config)
        known = {f.name for f in fields(RunConfig)}
        unknown = set(file_settings) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(file_settings)
    for name in (f.name for f in fields(RunConfig)):
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    return RunConfig(**settings)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _read_json_lines(path, convert):
    """``convert(entry)`` for each non-blank line of a JSON-lines file, in order.

    Raises:
        MalformedLineError: for a line that is not JSON or that ``convert``
            rejects, naming the file and the 1-based physical line.
    """
    converted = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                converted.append(convert(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedLineError(
                    line_no, line.strip(),
                    f"{path} line {line_no}: {type(exc).__name__}: {exc}",
                ) from None
    return converted


def _parse_labels(path):
    """Records of a KITTI label file; a malformed line's error names the file."""
    try:
        return kitti.parse_label_file(path.read_text())
    except MalformedLineError as exc:
        raise MalformedLineError(exc.line_no, exc.token, f"{path} {exc}") from None


def _load_residuals(path):
    """Residual file: JSON lines of {"file", "line", "delta": [3]}."""
    return dict(
        _read_json_lines(
            path, lambda e: ((e["file"], e["line"]), np.asarray(e["delta"], dtype=float))
        )
    )


def cmd_lift(args):
    config = build_config(args)
    labels_dir, calib_dir = Path(args.labels_dir), Path(args.calib_dir)
    residuals = _load_residuals(args.residuals) if args.residuals else None

    parsed = [(path.stem, _parse_labels(path)) for path in sorted(labels_dir.glob("*.txt"))]

    mean_dims = {}
    if residuals is not None:
        all_records = [r for _, records in parsed for r in records]
        for category in {r.category for r in all_records if not r.is_dont_care}:
            try:
                mean_dims[category] = kitti.compute_mean_dims(all_records, category)
            except NoSamplesError:
                logger.warning("no mean dimensions for category %r", category)

    # Per record to lift: its file stem and label record, and one row of
    # each solver input array.
    stems, jobs, dims = [], [], []
    ks, offsets, rects, rays, yaws = (
        [np.empty((0, *shape))] for shape in ((3, 3), (3,), (4,), (), ())
    )
    n_total = n_failed = 0
    for stem, records in parsed:
        records = [r for r in records if not r.is_dont_care]
        n_total += len(records)
        calib_path = calib_dir / f"{stem}.txt"
        if not calib_path.exists():
            logger.error("missing calib file for %s", stem)
            n_failed += len(records)
            continue
        try:
            calib = kitti.parse_calib_file(calib_path.read_text())
            intrinsics, offset = calib.intrinsics, calib.translation_offset
        except (MalformedLineError, MissingKeyError, ValueError) as exc:
            logger.error("calib %s unusable: %s", calib_path, exc)
            n_failed += len(records)
            continue

        kept = []
        for record in records:
            try:
                dims.append(_record_dims(record, stem, residuals, mean_dims))
            except ValueError as exc:
                logger.warning("%s line %d not lifted: %s", stem, record.line_no, exc)
                n_failed += 1
                continue
            kept.append(record)
        sides = np.array(
            [(b.x_min, b.y_min, b.x_max, b.y_max) for b in (r.box2d for r in kept)]
        ).reshape(-1, 4)
        ray = ray_angle(intrinsics, 0.5 * (sides[:, 0] + sides[:, 2]))
        yaws.append(local_to_global(np.array([r.alpha for r in kept]), ray))
        rays.append(ray)
        rects.append(sides)
        ks.append(np.broadcast_to(intrinsics.matrix, (len(kept), 3, 3)))
        offsets.append(np.broadcast_to(offset, (len(kept), 3)))
        stems += [stem] * len(kept)
        jobs += kept

    ks, offsets, rects, rays, yaws = map(np.concatenate, (ks, offsets, rects, rays, yaws))
    dims = np.array(dims).reshape(-1, 3)
    batch = lift_batch(
        ks, rotations_from_angles(yaws, np.zeros_like(yaws), np.zeros_like(yaws)), dims, rects,
        config.constraint_mode,
    )
    # The solver works in the projection frame K (R X + T'); subtract the
    # calibration's camera offset to express the center in the label frame.
    centers = batch.translation - offsets
    lifted = np.isfinite(centers).all(axis=1)  # a failed record's row is NaN
    for i in np.flatnonzero(~lifted):
        try:  # the scalar path, for its error: the failure, or a non-finite center
            Box3D(batch.result(i).translation - offsets[i], Dimensions(*dims[i]), yaws[i])
        except (NoFeasibleConfigurationError, ValueError) as exc:
            logger.warning("%s line %d not lifted: %s", stems[i], jobs[i].line_no, exc)
    n_failed += int(np.count_nonzero(~lifted))

    keep = lifted.tolist()
    jobs = list(compress(jobs, keep))
    entries = kitti.result_entries(
        {
            "category": [r.category for r in jobs],
            "truncated": [r.truncated for r in jobs],
            "occluded": [r.occluded for r in jobs],
            "alpha": [r.alpha for r in jobs],
            "box2d": rects[lifted],
            "dims_hwl": dims[lifted][:, [1, 2, 0]],
            "location": kitti.centers_to_locations(centers[lifted], dims[lifted, 1]),
            "rotation_y": yaws[lifted],
            "score": [1.0 if r.score is None else r.score for r in jobs],
            "file": list(compress(stems, keep)),
            "line": [r.line_no for r in jobs],
        },
        diagnostics={
            "theta_ray": rays[lifted],
            "configuration": batch.configuration[lifted],
            "residual": batch.residual[lifted],
            "reprojection_error": batch.reprojection_error[lifted],
        },
    )
    with open(args.out, "w") as handle:
        kitti.write_results_jsonl(entries, handle)
    if args.kitti_out:
        kitti_rows = {}
        for entry in entries:
            kitti_rows.setdefault(entry["file"], []).append(kitti.record_from_json_dict(entry))
        out_dir = Path(args.kitti_out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for stem, rows in kitti_rows.items():
            (out_dir / f"{stem}.txt").write_text(kitti.write_results(rows))

    print(f"lifted {n_total - n_failed}/{n_total} records -> {args.out}")
    if n_total and n_failed > 0.5 * n_total:
        logger.error("more than half of the records failed (%d/%d)", n_failed, n_total)
        return 1
    return 0


def _record_dims(record, stem, residuals, mean_dims):
    """Extents (dx, dy, dz) of a label record: its own, or with residuals
    its category's mean plus its residual.

    Raises:
        ValueError: if the record has no usable extents.
    """
    if residuals is None:
        if not record.has_dimensions:
            raise ValueError("record has no dimensions")
        return record.length, record.height, record.width
    delta = residuals.get((stem, record.line_no))
    if delta is None or record.category not in mean_dims:
        raise ValueError("no dimension residual or category mean available")
    return DimensionStats(mean_dims[record.category], delta).corrected.as_array


def _difficulty_eligible(record, difficulty):
    min_height, max_occlusion, max_truncation = DIFFICULTY_RULES[difficulty]
    return (
        record.box2d.height >= min_height
        and record.occluded <= max_occlusion
        and record.truncated <= max_truncation
    )


def _read_predictions(path):
    """Frame -> [(DetectionRecord, Box3D)] over the non-blank lines of a results file.

    Raises:
        MalformedLineError: for a line that is not JSON, lacks a key or has
            no dimensions, naming the file and the 1-based physical line.
    """
    by_frame = {}
    for frame, record, box3d in _read_json_lines(path, _prediction):
        by_frame.setdefault(frame, []).append((record, box3d))
    return by_frame


def _prediction(entry):
    """(frame, DetectionRecord, Box3D) of one results entry."""
    record = kitti.record_from_json_dict(entry)
    return entry.get("file", "0"), record, kitti.location_to_center(record)


def cmd_eval(args):
    config = build_config(args)
    gt_dir = Path(args.gt_dir)
    by_frame = _read_predictions(args.results)

    missing = []
    gt_records = {}
    for frame in sorted(by_frame):
        gt_path = gt_dir / f"{frame}.txt"
        if not gt_path.exists():
            missing.append(frame)
            continue
        gt_records[frame] = [r for r in _parse_labels(gt_path) if not r.is_dont_care]
    if missing:
        print(f"skipped {len(missing)} frames without ground truth: {missing}")

    gt_all = []
    detections = []
    pred_boxes = []
    for frame, preds in by_frame.items():
        if frame not in gt_records:
            continue
        gt_all.extend((frame, g) for g in gt_records[frame])
        for pred, box3d in preds:
            detections.append(
                ScoredDetection(
                    box2d=pred.box2d,
                    yaw=pred.rotation_y,
                    score=pred.score if pred.score is not None else 1.0,
                    frame=frame,
                )
            )
            pred_boxes.append(box3d)

    visits = match_greedy(
        [(frame, g.box2d) for frame, g in gt_all],
        [(d.frame, d.box2d, d.score) for d in detections],
        config.iou_thresh,
    )
    pairs = [
        (kitti.location_to_center(gt_all[gt_idx][1]), pred_boxes[det_idx])
        for det_idx, gt_idx, _ in visits
        if gt_idx >= 0
    ]

    difficulty_rows = []
    summary = {"difficulties": {}, "missing_frames": missing}
    for difficulty in ("easy", "moderate", "hard"):
        gts = [
            GroundTruthBox(box2d=g.box2d, yaw=g.rotation_y, frame=frame)
            for frame, g in gt_all
            if _difficulty_eligible(g, difficulty)
        ]
        result = aos(gts, detections, iou_threshold=config.iou_thresh)
        score = orientation_score(result.aos, result.ap) if result.ap > 0 else 0.0
        difficulty_rows.append(
            [difficulty, f"{result.ap:.6f}", f"{result.aos:.6f}", f"{score:.6f}"]
        )
        summary["difficulties"][difficulty] = {
            "ap": result.ap,
            "aos": result.aos,
            "os": score,
            "n_gt": len(gts),
        }

    errors = pair_errors(pairs)
    bin_rows = [
        [
            f"{row.bin_lo:.0f}",
            f"{row.bin_hi:.0f}",
            row.count,
            f"{row.mean_center_error:.6f}",
            f"{row.mean_closest_point_error:.6f}",
            f"{row.mean_iou3d:.6f}",
        ]
        for row in distance_binned_errors(errors, bin_width=10.0)
    ]
    if pairs:
        med_err, acc = viewpoint_stats(
            [(gt.rotation, pred.rotation) for gt, pred in pairs]
        )
        summary["matched_pairs"] = {
            "count": len(pairs),
            "mean_center_error": float(np.mean(errors[:, 1])),
            "mean_closest_point_error": float(np.mean(errors[:, 2])),
            "mean_iou3d": float(np.mean(errors[:, 3])),
            "median_viewpoint_error_rad": med_err,
            "viewpoint_acc_pi_over_6": acc,
        }

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "difficulty.csv", ["difficulty", "ap", "aos", "os"], difficulty_rows)
    _write_csv(
        out_dir / "distance_bins.csv",
        ["bin_lo_m", "bin_hi_m", "count", "center_error_m", "closest_point_error_m", "iou3d"],
        bin_rows,
    )
    with open(out_dir / "summary.json", "w") as handle:
        json.dump(summary, handle, indent=2)
    print(f"evaluation written to {out_dir}")
    return 0


def cmd_toy(args):
    config = build_config(args)
    rows, histories = bin_study(
        bin_counts=config.bins_sweep,
        n_train=config.n_train,
        n_test=config.n_test,
        noise_sigma=config.sigma,
        epochs=config.epochs,
        learning_rate=config.lr,
        hidden=config.hidden,
        overlap=config.overlap,
        loc_weight=config.w,
        seed=config.seed,
    )
    out = Path(args.out)
    _write_csv(
        out,
        ["bins", "kind", "median_error_rad", "mean_os", "final_loss"],
        [
            [r.bins, r.kind, f"{r.median_error:.6f}", f"{r.mean_os:.6f}", f"{r.final_loss:.6f}"]
            for r in rows
        ],
    )
    history_path = out.with_name(out.stem + "_history.csv")
    history_rows = []
    for row, history in zip(rows, histories):
        history_rows.extend(
            [row.bins, epoch, f"{loss:.8f}"] for epoch, loss in enumerate(history)
        )
    _write_csv(history_path, ["bins", "epoch", "loss"], history_rows)

    for row in rows:
        print(
            f"bins={row.bins:<3d} kind={row.kind:<9s} "
            f"median_error={row.median_error:.4f} rad  OS={row.mean_os:.4f}"
        )
    best = max(rows, key=lambda r: r.mean_os)
    print(f"best OS at bins={best.bins}; results -> {out}")
    return 0


def cmd_encode(args):
    config = build_config(args)
    layout = config.bin_layout
    encoding = encode(layout, args.theta)
    payload = {
        "n_bins": layout.n_bins,
        "confidences": encoding.confidences.tolist(),
        "cos": encoding.residual_cos.tolist(),
        "sin": encoding.residual_sin.tolist(),
        "chosen_bin": int(np.argmax(encoding.confidences)),
    }
    print(json.dumps(payload))
    return 0


def cmd_decode(args):
    config = build_config(args)
    payload = json.loads(args.encoding)
    layout = replace(config, bins=payload.get("n_bins", config.bins)).bin_layout
    encoding = MultiBinEncoding(payload["confidences"], payload["cos"], payload["sin"])
    print(f"{decode(layout, encoding):.12f}")
    return 0


def _add_config_flags(parser):
    parser.add_argument("--config", help="TOML or JSON config file")
    parser.add_argument("--mode", choices=sorted(MODE_NAMES), default=None)
    parser.add_argument("--bins", type=int, default=None)
    parser.add_argument("--overlap", type=float, default=None,
                        help="bin coverage half-width as a multiple of pi/bins")
    parser.add_argument("--w", type=float, default=None, help="localization loss weight")
    parser.add_argument("--alpha", type=float, default=None, help="dimension loss weight")
    parser.add_argument("--iou-thresh", dest="iou_thresh", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="boxlift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_lift = sub.add_parser("lift", help="lift 2D detections to 3D boxes")
    p_lift.add_argument("labels_dir")
    p_lift.add_argument("calib_dir")
    p_lift.add_argument("--out", required=True, help="JSON-lines results path")
    p_lift.add_argument("--kitti-out", default=None,
                        help="also write KITTI-format results to this directory")
    p_lift.add_argument("--residuals", default=None,
                        help="JSON-lines dimension residuals keyed by (file, line)")
    _add_config_flags(p_lift)
    p_lift.set_defaults(func=cmd_lift)

    p_eval = sub.add_parser("eval", help="score results against ground truth")
    p_eval.add_argument("gt_dir")
    p_eval.add_argument("results")
    p_eval.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_toy = sub.add_parser("toy", help="synthetic bin-count study")
    p_toy.add_argument("--out", required=True, help="CSV output path")
    p_toy.add_argument("--bins-sweep", dest="bins_sweep", default=None,
                       help="comma-separated bin counts, e.g. 1,2,4,8")
    p_toy.add_argument("--epochs", type=int, default=None)
    p_toy.add_argument("--lr", type=float, default=None)
    p_toy.add_argument("--sigma", type=float, default=None)
    p_toy.add_argument("--hidden", type=int, default=None)
    p_toy.add_argument("--n-train", dest="n_train", type=int, default=None)
    p_toy.add_argument("--n-test", dest="n_test", type=int, default=None)
    _add_config_flags(p_toy)
    p_toy.set_defaults(func=cmd_toy)

    p_enc = sub.add_parser("encode", help="print the encoding of an angle")
    p_enc.add_argument("--theta", type=float, required=True, help="angle in radians")
    _add_config_flags(p_enc)
    p_enc.set_defaults(func=cmd_encode)

    p_dec = sub.add_parser("decode", help="decode an encoding back to an angle")
    p_dec.add_argument("--encoding", required=True, help="JSON payload from encode")
    _add_config_flags(p_dec)
    p_dec.set_defaults(func=cmd_decode)

    return parser


# parsing does not change the parser, so one per process serves every call
_parser = functools.cache(build_parser)


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("BOXLIFT_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "bins_sweep", None) is not None and isinstance(args.bins_sweep, str):
        try:
            args.bins_sweep = tuple(int(b) for b in args.bins_sweep.split(","))
        except ValueError:
            parser.error(f"bad --bins-sweep value: {args.bins_sweep!r}")
    try:
        return args.func(args)
    except Exception as exc:  # runtime failures map to exit code 1
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
