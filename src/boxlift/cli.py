"""Command-line entry point: batch lifting, evaluation and the bin study.

Subcommands:
    lift    Lift every record of a KITTI label directory to a 3D box.
    eval    Score a results file against ground-truth labels.
    toy     Run the synthetic bin-count study.
    encode  Print the multi-bin encoding of an angle.
    decode  Invert an encoding printed by ``encode``.

``lift`` and ``eval`` read labels as ``kitti.read_label_columns`` columns.
``lift`` computes the viewing-ray angles of each file's records at once;
for the whole run it builds every rotation, makes one ``lift_batch`` call,
and computes every location and results line. Per record it only looks up
a residual and reports a failure. ``eval`` reads each results line into
one row of numbers and makes one ``metrics.evaluate`` call over the rows
and every label file's columns, so labelled frames without results count
as misses. ``main`` runs ``cmd_<command>`` as bound at call time.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Set BOXLIFT_LOG to
a logging level name (DEBUG, INFO, ...) for verbosity.
"""

import argparse
import csv
import functools
import json
import logging
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import kitti
from .errors import (
    MalformedLineError,
    MissingKeyError,
    NoFeasibleConfigurationError,
)
from .geometry import Box3D, Dimensions, rotations_from_angles
from .metrics import (
    distance_binned_errors,
    evaluate,
    iou3d,  # noqa: F401 - perfbench/selftest.py traces it through this binding
    orientation_score,
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

@dataclass
class RunConfig:
    """Validated run settings shared by the subcommands."""

    mode: str = "kitti"
    bins: int = 2
    overlap: float = 1.1
    w: float = 1.0
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
        if self.w <= 0:
            raise ValueError("loss weight w must be positive")
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


# a line up to its first "#" outside a quoted string
_UNCOMMENTED = re.compile(r"""(?:[^#"']|"[^"]*"|'[^']*')*""")


def _parse_flat_toml(text):
    """Minimal TOML reader for flat ``key = value`` config files.

    Handles strings, numbers, booleans and one-level arrays, which covers
    the config schema; a full parser takes over on Python >= 3.11.
    """
    data = {}
    for raw_line in text.splitlines():
        line = _UNCOMMENTED.match(raw_line).group().strip()
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
        inner = value[1:-1].strip().removesuffix(",")
        return [_parse_toml_value(v.strip()) for v in inner.split(",")] if inner else []
    if value[:1] in ('"', "'") and value.endswith(value[0]):
        return value[1:-1]
    if value in ("true", "false"):
        return value == "true"
    try:
        return int(value, 0)  # also hex, octal, binary and underscored
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
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise MalformedLineError(
                    line_no, line.strip(),
                    f"{path} line {line_no}: {type(exc).__name__}: {exc}",
                ) from None
    return converted


def _read_label_dir(directory):
    """(stems, file, categories, values, line_nos): the ``kitti.read_label_columns``
    of every ``*.txt`` file in ``directory``, in name order, concatenated
    without DontCare rows; ``file`` indexes ``stems``, ``categories`` is an
    object array."""
    paths = sorted(Path(directory).glob("*.txt"))
    lines = [path.read_text().splitlines() for path in paths]
    starts = np.cumsum([0] + [len(file_lines) for file_lines in lines])
    try:  # one call for every file: the array checks cost mostly per call
        columns = kitti.read_label_columns("\n".join(chain.from_iterable(lines)))
    except MalformedLineError as exc:  # name the file and its own line
        file = int(np.searchsorted(starts, exc.line_no)) - 1
        line_no = exc.line_no - int(starts[file])
        message = str(exc).replace(f"line {exc.line_no}:", f"{paths[file]} line {line_no}:", 1)
        raise MalformedLineError(line_no, exc.token, message) from None
    categories, values, dont_care, line_nos = columns
    file = np.searchsorted(starts, line_nos) - 1
    keep = ~dont_care
    return (
        [path.stem for path in paths], file[keep], np.array(categories, dtype=object)[keep],
        values[keep], (line_nos - starts[file])[keep],
    )


def _load_residuals(path):
    """Residual file: JSON lines of {"file", "line", "delta": [3]}."""
    return dict(
        _read_json_lines(
            path, lambda e: ((e["file"], e["line"]), np.asarray(e["delta"], dtype=float))
        )
    )


def cmd_lift(args):
    config = build_config(args)
    residuals = _load_residuals(args.residuals) if args.residuals else None
    stems, file, categories, values, line_nos = _read_label_dir(args.labels_dir)
    n_total = len(file)

    extents = values[:, [9, 7, 8]]  # KITTI (l, h, w) are the solver's (dx, dy, dz)
    sized = (extents > 0).all(axis=1)
    dims, why = extents, dict.fromkeys(np.flatnonzero(~sized).tolist(), "record has no dimensions")
    if residuals is not None:  # per category mean extents, plus each record's residual
        mean_dims = {}
        for category in set(categories):
            own = sized & (categories == category)
            if own.any():
                mean_dims[category] = Dimensions(*extents[own].mean(axis=0))
            else:
                logger.warning("no mean dimensions for category %r", category)
        dims, why = np.zeros_like(extents), {}
        for i in range(n_total):
            delta = residuals.get((stems[file[i]], int(line_nos[i])))
            try:
                if delta is None or categories[i] not in mean_dims:
                    raise ValueError("no dimension residual or category mean available")
                dims[i] = DimensionStats(mean_dims[categories[i]], delta).corrected.as_array
            except ValueError as exc:
                why[i] = exc
    failed = np.zeros(n_total, dtype=bool)
    failed[list(why)] = True

    # per record: its camera, from its file's calibration, and its ray angle
    ks, offsets, rays = np.zeros((n_total, 3, 3)), np.zeros((n_total, 3)), np.zeros(n_total)
    usable = np.zeros(n_total, dtype=bool)
    u = 0.5 * (values[:, 3] + values[:, 5])
    bounds = np.searchsorted(file, np.arange(len(stems) + 1))
    for stem, lo, hi in zip(stems, bounds[:-1], bounds[1:]):
        calib_path = Path(args.calib_dir) / f"{stem}.txt"
        if not calib_path.exists():
            logger.error("missing calib file for %s", stem)
            continue
        try:
            calib = kitti.parse_calib_file(calib_path.read_text())
            intrinsics, offsets[lo:hi] = calib.intrinsics, calib.translation_offset
        except (MalformedLineError, MissingKeyError, ValueError) as exc:
            logger.error("calib %s unusable: %s", calib_path, exc)
            continue
        ks[lo:hi], rays[lo:hi] = intrinsics.matrix, ray_angle(intrinsics, u[lo:hi])
        usable[lo:hi] = ~failed[lo:hi]
        for i in (lo + np.flatnonzero(failed[lo:hi])).tolist():
            logger.warning("%s line %d not lifted: %s", stem, line_nos[i], why[i])

    rows = np.flatnonzero(usable)
    yaws = local_to_global(values[rows, 2], rays[rows])
    batch = lift_batch(
        ks[rows], rotations_from_angles(yaws, np.zeros_like(yaws), np.zeros_like(yaws)),
        dims[rows], values[rows, 3:7], config.constraint_mode,
    )
    # The solver works in the projection frame K (R X + T'); subtract the
    # calibration's camera offset to express the center in the label frame.
    centers = batch.translation - offsets[rows]
    lifted = np.isfinite(centers).all(axis=1)  # a failed record's row is NaN
    for j in np.flatnonzero(~lifted):
        i = rows[j]
        try:  # the scalar path, for its error: the failure, or a non-finite center
            Box3D(batch.result(j).translation - offsets[i], Dimensions(*dims[i]), yaws[j])
        except (NoFeasibleConfigurationError, ValueError) as exc:
            logger.warning("%s line %d not lifted: %s", stems[file[i]], line_nos[i], exc)

    done = rows[lifted]
    score = values[done, 14]
    fields = {
        "category": categories[done],
        "truncated": values[done, 0],
        "occluded": list(map(int, values[done, 1].tolist())),
        "alpha": values[done, 2],
        "box2d": values[done, 3:7],
        "dims_hwl": dims[done][:, [1, 2, 0]],
        "location": kitti.centers_to_locations(centers[lifted], dims[done, 1]),
        "rotation_y": yaws[lifted],
        "score": np.where(np.isnan(score), 1.0, score),  # NaN: the line has no score
        "file": np.array(stems, dtype=object)[file[done]],
        "line": line_nos[done],
    }
    diagnostics = {
        "theta_ray": rays[done],
        "configuration": batch.configuration[lifted],
        "residual": batch.residual[lifted],
        "reprojection_error": batch.reprojection_error[lifted],
    }
    with open(args.out, "w") as handle:
        kitti.write_results_jsonl(fields, handle, diagnostics)
    if args.kitti_out:
        out_dir = Path(args.kitti_out)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = kitti.result_lines(fields)
        bounds = np.searchsorted(file[done], np.arange(len(stems) + 1))  # done is in file order
        for stem, lo, hi in zip(stems, bounds[:-1].tolist(), bounds[1:].tolist()):
            if hi > lo:
                (out_dir / f"{stem}.txt").write_text("\n".join(lines[lo:hi]) + "\n")

    print(f"lifted {len(done)}/{n_total} records -> {args.out}")
    if n_total and n_total - len(done) > 0.5 * n_total:
        logger.error("more than half of the records failed (%d/%d)", n_total - len(done), n_total)
        return 1
    return 0


def _result_row(entry):
    """(frame, row) of one results entry. The row holds the label columns
    from x_min on: the rectangle, h, w, l, the location, rotation_y and the
    score, 1.0 when null.

    Raises:
        KeyError, TypeError, ValueError: for a missing key or a bad value.
    """
    box, dims, location = entry["box2d"], entry["dims_hwl"], entry["location"]
    # not read here, but a line without them is no results line
    category, _, _ = entry["category"], entry["alpha"], int(entry.get("occluded", 0))
    if (len(box), len(dims), len(location)) != (4, 3, 3):
        raise ValueError("box2d, dims_hwl and location need 4, 3 and 3 values")
    score = entry.get("score")
    row = [*box, *dims, *location, entry["rotation_y"], 1.0 if score is None else score]
    finite = [math.isfinite(v) for v in row]  # TypeError for a non-number
    if not all(finite):
        raise ValueError(f"{kitti.LABEL_COLUMNS[3 + finite.index(False)]} is not finite")
    if min(dims) <= 0:
        raise ValueError(f"record has no dimensions: {category}")
    if box[0] >= box[2] or box[1] >= box[3]:
        raise ValueError("degenerate 2D box")
    return str(entry.get("file", "0")), row


def _columns(frames, rows, **extra):
    """``metrics.evaluate``'s columns of rows that hold the label columns from
    x_min on, and the ``extra`` columns."""
    rows = np.asarray(rows, dtype=float).reshape(len(frames), 12)
    return {
        "frame": frames, "box2d": rows[:, :4], "dims_hwl": rows[:, 4:7], "location": rows[:, 7:10],
        "rotation_y": rows[:, 10], "score": rows[:, 11], **extra,
    }


def cmd_eval(args):
    config = build_config(args)
    by_frame = {}  # frame -> its results rows; frames in order of first appearance
    for frame, row in _read_json_lines(args.results, _result_row):
        by_frame.setdefault(frame, []).append(row)
    # every labelled object counts, whether or not its frame has results
    stems, file, _, values, _ = _read_label_dir(args.gt_dir)

    labelled = set(stems)
    missing = [frame for frame in sorted(by_frame) if frame not in labelled]
    if missing:
        print(f"skipped {len(missing)} frames without ground truth: {missing}")

    # score ties rank by frame, in order of first appearance, then by line
    scored = [frame for frame in by_frame if frame in labelled]
    det_frames = [frame for frame in scored for _ in by_frame[frame]]
    det_rows = [row for frame in scored for row in by_frame[frame]]
    difficulties, errors, viewpoint = evaluate(
        _columns(
            np.array(stems, dtype=object)[file], values[:, 3:],
            occluded=np.trunc(values[:, 1]), truncated=values[:, 0],
        ),
        _columns(det_frames, det_rows),
        config.iou_thresh,
    )

    difficulty_rows = []
    summary = {"difficulties": {}, "missing_frames": missing}
    for difficulty, (result, n_gt) in difficulties.items():
        score = orientation_score(result.aos, result.ap) if result.ap > 0 else 0.0
        difficulty_rows.append(
            [difficulty, f"{result.ap:.6f}", f"{result.aos:.6f}", f"{score:.6f}"]
        )
        summary["difficulties"][difficulty] = {
            "ap": result.ap,
            "aos": result.aos,
            "os": score,
            "n_gt": n_gt,
        }

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
    if viewpoint:
        med_err, acc = viewpoint
        summary["matched_pairs"] = {
            "count": len(errors),
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
    if not isinstance(payload, dict):
        raise ValueError("--encoding must be a JSON object")
    missing = [key for key in ("confidences", "cos", "sin") if key not in payload]
    if missing:
        raise ValueError(f"--encoding lacks {', '.join(missing)}")
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

    p_eval = sub.add_parser("eval", help="score results against ground truth")
    p_eval.add_argument("gt_dir")
    p_eval.add_argument("results")
    p_eval.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p_eval)

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

    p_enc = sub.add_parser("encode", help="print the encoding of an angle")
    p_enc.add_argument("--theta", type=float, required=True, help="angle in radians")
    _add_config_flags(p_enc)

    p_dec = sub.add_parser("decode", help="decode an encoding back to an angle")
    p_dec.add_argument("--encoding", required=True, help="JSON payload from encode")
    _add_config_flags(p_dec)

    return parser


# parsing does not change the parser, so one per process serves every call
_parser = functools.cache(build_parser)


def _dispatch(args):
    """Run the parsed subcommand: the module's ``cmd_<command>`` as bound
    at call time, so a rebound command function is the one called."""
    return globals()[f"cmd_{args.command}"](args)


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
        return _dispatch(args)
    except Exception as exc:  # runtime failures map to exit code 1
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
