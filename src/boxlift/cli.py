"""Command-line entry point: batch lifting, evaluation and the bin study.

Subcommands:
    lift    Lift every record of a KITTI label directory to a 3D box.
    eval    Score a results file against ground-truth labels.
    toy     Run the synthetic bin-count study.
    encode  Print the multi-bin encoding of an angle.
    decode  Invert an encoding printed by ``encode``.

The commands parse arguments, read files, call the library and write its
output. ``lift`` reads the label directory and each file's calibration,
runs ``kitti.lift_columns`` and logs each record that failed. ``eval``
reads the results with ``kitti.read_results`` and the labels, and makes one
``metrics.evaluate`` call. ``main`` runs ``cmd_<command>`` as bound at call time.

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
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import kitti
from .errors import MalformedLineError, MissingKeyError
from .metrics import (
    distance_binned_errors,
    evaluate,
    iou3d,  # noqa: F401 - perfbench/selftest.py traces it through this binding
    orientation_score,
)
from .multibin import BinLayout, MultiBinEncoding, decode, encode
from .solver import ConstraintMode
from .toy import bin_study

logger = logging.getLogger("boxlift")

_MODES = sorted(mode.value for mode in ConstraintMode)


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
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
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
        return ConstraintMode(self.mode)

    @property
    def bin_layout(self):
        return BinLayout(self.bins, self.overlap * np.pi / self.bins)


def load_config_file(path):
    """Read a TOML or JSON config file into a dict; a decoding error names the path and line."""
    text = Path(path).read_text()
    try:
        if str(path).endswith(".json"):
            return json.loads(text)
        import tomllib  # here, not at the top: it adds ~3 ms to importing the CLI

        return tomllib.loads(text)
    except ValueError as exc:  # JSONDecodeError and TOMLDecodeError alike
        raise ValueError(f"{path}: {exc}") from None


def _is_config_value(kind, value):
    """No bool is a number, an int is also a float, a tuple is a list of ints."""
    if kind is tuple:
        return isinstance(value, list) and all(_is_config_value(int, v) for v in value)
    return isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool)


def build_config(args):
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    kinds = {f.name: f.type for f in fields(RunConfig)}
    settings = {}
    if getattr(args, "config", None):
        file_settings = load_config_file(args.config)
        unknown = set(file_settings) - set(kinds)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys: {sorted(unknown)}")
        for key, value in file_settings.items():
            if not _is_config_value(kinds[key], value):
                wanted = "a list of int" if kinds[key] is tuple else kinds[key].__name__
                raise ValueError(f"{args.config}: {key} must be {wanted}, got {value!r}")
        settings.update(file_settings)
    for name in kinds:
        value = getattr(args, name, None)
        if value is not None:
            settings[name] = value
    return RunConfig(**settings)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _read_label_dir(directory):
    """(stems, table): the stems of the ``*.txt`` files in ``directory``, in
    name order, and the ``kitti.read_label_columns`` table of their records
    without DontCare rows, with each one's ``file`` stem before its ``line``."""
    paths = sorted(Path(directory).glob("*.txt"))
    lines = [path.read_text().splitlines() for path in paths]
    starts = np.cumsum([0] + [len(file_lines) for file_lines in lines])
    try:  # one call for every file: the array checks cost mostly per call
        table = kitti.read_label_columns("\n".join(chain.from_iterable(lines)))
    except MalformedLineError as exc:  # name the file and its own line
        file = int(np.searchsorted(starts, exc.line_no)) - 1
        line_no = exc.line_no - int(starts[file])
        message = str(exc).replace(f"line {exc.line_no}:", f"{paths[file]} line {line_no}:", 1)
        raise MalformedLineError(line_no, exc.token, message) from None
    stems = [path.stem for path in paths]
    file = np.searchsorted(starts, table["line"]) - 1
    table["file"] = np.array(stems, dtype=object)[file]
    table["line"] = table.pop("line") - starts[file]  # after "file", as results lines order them
    kept = table["category"] != kitti.DONT_CARE
    return stems, {key: column[kept] for key, column in table.items()}


def _read_calib(path):
    """The CalibRecord of a calibration file, None without one, or the error (logged)."""
    if not path.exists():
        logger.error("missing calib file for %s", path.stem)
        return None
    try:
        return kitti.parse_calib_file(path.read_text())
    except (MalformedLineError, MissingKeyError, ValueError) as exc:
        logger.error("calib %s unusable: %s", path, exc)
        return exc


def cmd_lift(args):
    config = build_config(args)
    residuals = kitti.read_residuals(args.residuals) if args.residuals else None
    _, labels = _read_label_dir(args.labels_dir)
    calibs = {  # only the files that hold a record to lift, in file order
        stem: _read_calib(Path(args.calib_dir) / f"{stem}.txt")
        for stem in dict.fromkeys(labels["file"].tolist())
    }
    results, status, messages = kitti.lift_columns(labels, calibs, config.constraint_mode, residuals)
    if residuals is not None:  # the records of a category without mean extents
        for category in dict.fromkeys(labels["category"][status == "missing_dims"].tolist()):
            logger.warning("no mean dimensions for category %r", category)
    # a calibration failure is logged once, for its file
    for i in np.flatnonzero(~np.isin(status, ["lifted", "missing_calib", "bad_calib"])).tolist():
        logger.warning("%s line %d not lifted: %s", labels["file"][i], labels["line"][i], messages[i])
    with open(args.out, "w") as handle:
        kitti.write_results_jsonl(results, handle)
    if args.kitti_out:
        out_dir = Path(args.kitti_out)
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = zip(results["file"], kitti.result_lines(results))
        for stem, group in groupby(lines, key=itemgetter(0)):  # records are in file order
            (out_dir / f"{stem}.txt").write_text("".join(line + "\n" for _, line in group))

    n_total, n_failed = len(status), len(status) - len(results["line"])
    print(f"lifted {n_total - n_failed}/{n_total} records -> {args.out}")
    if n_failed > 0.5 * n_total:
        logger.error("more than half of the records failed (%d/%d)", n_failed, n_total)
        return 1
    return 0


def cmd_eval(args):
    config = build_config(args)
    results = kitti.read_results(args.results)
    stems, truths = _read_label_dir(args.gt_dir)
    detections, missing = kitti.evaluation_columns(stems, results)
    if missing:
        print(f"skipped {len(missing)} frames without ground truth: {missing}")
    try:
        difficulties, errors, viewpoint = evaluate(truths, detections, config.iou_thresh)
    except MalformedLineError as exc:  # a matched ground truth without dimensions
        path = Path(args.gt_dir) / f"{exc.token}.txt"  # the error's token is its frame
        raise MalformedLineError(exc.line_no, exc.token, f"{path} {exc}") from None

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
        for row in distance_binned_errors(errors)
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


def int_list(text):
    """Comma-separated ints, e.g. "1,2,4,8": the type of ``--bins-sweep``."""
    return tuple(int(b) for b in text.split(","))


def build_parser():
    parser = argparse.ArgumentParser(prog="boxlift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_lift = sub.add_parser("lift", help="lift 2D detections to 3D boxes", allow_abbrev=False)
    p_lift.add_argument("labels_dir")
    p_lift.add_argument("calib_dir")
    p_lift.add_argument("--out", required=True, help="JSON-lines results path")
    p_lift.add_argument("--kitti-out", default=None,
                        help="also write KITTI-format results to this directory")
    p_lift.add_argument("--residuals", default=None,
                        help="JSON-lines dimension residuals keyed by (file, line)")
    p_lift.add_argument("--mode", choices=_MODES)

    p_eval = sub.add_parser("eval", help="score results against ground truth", allow_abbrev=False)
    p_eval.add_argument("gt_dir")
    p_eval.add_argument("results")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--iou-thresh", dest="iou_thresh", type=float)

    p_toy = sub.add_parser("toy", help="synthetic bin-count study", allow_abbrev=False)
    p_toy.add_argument("--out", required=True, help="CSV output path")
    p_toy.add_argument("--bins-sweep", dest="bins_sweep", type=int_list, default=None,
                       help="comma-separated bin counts, e.g. 1,2,4,8")
    p_toy.add_argument("--epochs", type=int, default=None)
    p_toy.add_argument("--lr", type=float, default=None)
    p_toy.add_argument("--sigma", type=float, default=None)
    p_toy.add_argument("--hidden", type=int, default=None)
    p_toy.add_argument("--n-train", dest="n_train", type=int, default=None)
    p_toy.add_argument("--n-test", dest="n_test", type=int, default=None)
    p_toy.add_argument("--w", type=float, help="localization loss weight")
    p_toy.add_argument("--seed", type=int)

    p_enc = sub.add_parser("encode", help="print the encoding of an angle", allow_abbrev=False)
    p_enc.add_argument("--theta", type=float, required=True, help="angle in radians")

    p_dec = sub.add_parser("decode", help="decode an encoding back to an angle", allow_abbrev=False)
    p_dec.add_argument("--encoding", required=True, help="JSON payload from encode")

    # each subcommand takes only the config flags it reads, unabbreviated; --config sets any
    for p in (p_enc, p_dec):
        p.add_argument("--bins", type=int)
    for p in (p_toy, p_enc, p_dec):
        p.add_argument("--overlap", type=float,
                       help="bin coverage half-width as a multiple of pi/bins")
    for p in (p_lift, p_eval, p_toy, p_enc, p_dec):
        p.add_argument("--config", help="TOML or JSON config file")

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
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except Exception as exc:  # runtime failures map to exit code 1
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
