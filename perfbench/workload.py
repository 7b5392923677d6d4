"""One benchmark workload, run in its own single-threaded process.

``run.py`` starts this script; see README.md for the metrics and workloads.
It generates the workload's inputs from the seed (untimed), writes them
under ``perfbench/out``, warms every phase up once, then measures the
phases in a closed loop (one caller, each call after the previous one
ends), interleaved, each for its share of ``--seconds``. Every output is
checked. The last line of stdout is the JSON result.

Phases, each a real entry point of the package:
    lift    ``boxlift lift`` over the whole corpus, through ``boxlift.cli.main``
    eval    ``boxlift eval`` of a results file against the labels
    frames  a library caller lifting one frame at a time
    toy     ``boxlift toy`` over a bin sweep

With ``--trace 1`` each pass runs every phase once untraced and once under
the span recorder, and the per-layer metrics are printed instead.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import gen  # noqa: E402
from spans import SpanRecorder  # noqa: E402

PACKAGE = "boxlift"
LAYERS = ("kitti", "geometry", "solver", "multibin", "metrics", "toy", "cli")
MIN_FRAMES = 100  # p90 needs at least ten frames beyond it

# Every phase of a run moves with the machine's speed. The reference unit
# (``gen.reference``) runs interleaved with the phases for REFERENCE_SHARE
# of the time, and timings are scaled by the run's slowdown. A rate then
# reads as per second of a machine running the reference at its nominal
# speed.
REFERENCE_SHARE = 0.1

# The power of the slowdown each timing metric is scaled by: how far the
# metric moves with the reference. Over about 80 runs on a shared VM, the
# log-log slope against the slowdown was 0.7-1.6 for the lift, eval and
# median frame timings, but 0.6-1.0 for the p90 frame latency and
# 0.3-0.7 for the toy rate; scaled by the full slowdown these two spread
# more than as measured when the machine ran fast.
SCALE_POWER = {
    "lift_records_per_s": 1.0,
    "eval_detections_per_s": 1.0,
    "frame_ms_p50": 1.0,
    "frame_ms_p90": 0.5,
    "toy_epochs_per_s": 0.5,
}

# ``boxlift toy`` runs at the CLI's defaults (the sweep 1, 2, 4, 8 on 5000
# training and 2000 test samples, full batch) except for the epochs: the
# default 200 take about 6 s a sweep, too long for several sweeps in a run.
# ``bin_study`` trains 80: at 60 the 8-bin head is still undertrained on
# some seeds and scores below the single bin, which its check rejects.
TOY_BINS = (1, 2, 4, 8)
TOY_N_TRAIN, TOY_N_TEST = 5000, 2000


@dataclass(frozen=True)
class Workload:
    mode: str  # constraint mode of lift and of the frame loop
    frames: int  # frames in the corpus; the frame loop visits each of them
    lift_frames: int  # the first frames, which lift and eval read
    objects: tuple  # objects per frame, inclusive range
    depth: tuple  # object depth range, meters
    crowded: bool  # eval scores generated detections, not lift's output
    toy_epochs: int  # epochs of each training run in the toy sweep
    shares: dict  # phase -> share of --seconds
    single_bin_worst: bool  # check the paper's bin-study ordering


WORKLOADS = {
    "road": Workload(
        "kitti", 240, 60, (8, 12), (5.0, 50.0), False, 10,
        {"lift": 0.28, "eval": 0.28, "frames": 0.29, "toy": 0.15}, False,
    ),
    "crowded": Workload(
        "kitti", 5, 5, (100, 200), (5.0, 70.0), True, 10,
        {"eval": 0.24, "frames": 0.42, "lift": 0.22, "toy": 0.12}, False,
    ),
    "general": Workload(
        "general", 150, 10, (3, 7), (5.0, 50.0), False, 10,
        {"frames": 0.5, "lift": 0.27, "eval": 0.08, "toy": 0.15}, False,
    ),
    "bin_study": Workload(
        "kitti", 240, 30, (8, 12), (5.0, 50.0), False, 80,
        {"toy": 0.6, "lift": 0.15, "eval": 0.1, "frames": 0.15}, True,
    ),
}


def center_tolerance(depth):
    """Largest accepted center error (m) for an object at ``depth`` meters.

    Two-decimal labels and the KITTI alpha (ray through the 3D location,
    while lift uses the ray through the 2D box center) leave errors up to
    about 0.5 m on these scenes; a wrong corner assignment costs meters.
    """
    return 0.5 + 0.03 * depth


def nearest_rank(values, q):
    """The q-quantile by nearest rank: ceil(q * n)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class CheckFailed(Exception):
    pass


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def file_digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Bench:
    """Inputs, outputs and the four phases of one workload."""

    def __init__(self, name, seed, work):
        from boxlift import solver

        self.name, self.seed, self.work = name, seed, work
        self.spec = WORKLOADS[name]
        self.mode = solver.ConstraintMode(self.spec.mode)
        self.corpus = gen.make_corpus(
            seed, self.spec.frames, self.spec.objects, self.spec.depth,
            detections=self.spec.crowded,
        )
        self.truth = {
            (f.stem, t.box2d): t.center for f in self.corpus.frames for t in f.truths
        }
        self.lift_corpus = self.corpus.frames[: self.spec.lift_frames]
        self.lift_records = sum(len(f.truths) for f in self.lift_corpus)
        labels, calibs = work / "labels", work / "calib"
        labels.mkdir(parents=True)
        calibs.mkdir()
        for frame in self.lift_corpus:
            (labels / f"{frame.stem}.txt").write_text(frame.label_text)
            (calibs / f"{frame.stem}.txt").write_text(frame.calib_text)
        self.eval_input = work / "detections.jsonl"
        if self.spec.crowded:
            self.eval_input.write_text(self.corpus.results_text)
        self.attempted = self.failed = 0
        self.reference = {}
        self.lifted = None  # records lifted by the first lift
        self.matched = 0  # pairs matched by the last eval
        self.frame_errors = {}  # stem -> center errors at the frame's first visit
        self.frame_cursor = 0

    def _cli(self, argv):
        from boxlift import cli

        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return time.perf_counter() - start, code, out.getvalue()

    def _same_as_reference(self, key, digest):
        check(self.reference.setdefault(key, digest) == digest, f"{key} output changed between runs")

    def _check_center(self, stem, box2d, center):
        truth = self.truth.get((stem, tuple(box2d)))
        check(truth is not None, f"{stem}: lifted box {box2d} matches no generated object")
        error = float(np.linalg.norm(np.asarray(center) - truth))
        check(error <= center_tolerance(truth[2]), f"{stem}: center off by {error:.3f} m at depth {truth[2]:.1f} m")
        return error

    # -- phases: each runs one unit of work, checks it, returns (wall_s, amount)

    def lift(self):
        out = self.work / "lifted.jsonl"
        wall, code, text = self._cli(
            ["lift", str(self.work / "labels"), str(self.work / "calib"),
             "--out", str(out), "--mode", self.spec.mode]
        )
        check(code == 0, f"boxlift lift exited {code}")
        lifted, attempted = (int(v) for v in text.split()[1].split("/"))
        check(attempted == self.lift_records, f"lift attempted {attempted} of {self.lift_records} records")
        lines = out.read_text().splitlines()
        check(len(lines) == lifted, f"lift reported {lifted} records but wrote {len(lines)}")
        self.attempted += attempted
        self.failed += attempted - lifted
        if self.lifted is None:
            self.lifted = lifted
            for e in map(json.loads, lines):
                center = np.array(e["location"]) - [0.0, 0.5 * e["dims_hwl"][0], 0.0]
                self._check_center(e["file"], e["box2d"], center)
            if not self.spec.crowded:
                shutil.copyfile(out, self.eval_input)
        self._same_as_reference("lift", file_digest(out))
        return wall, lifted

    def eval(self):
        out = self.work / "eval"
        wall, code, _ = self._cli(["eval", str(self.work / "labels"), str(self.eval_input), "--out", str(out)])
        detections = self.corpus.n_detections if self.spec.crowded else self.lifted
        self.attempted += detections
        if code != 0:
            self.failed += detections
        check(code == 0, f"boxlift eval exited {code}")
        summary = json.loads((out / "summary.json").read_text())
        expected = self.corpus.planted if self.spec.crowded else detections
        matched = summary.get("matched_pairs", {}).get("count", 0)
        check(matched == expected, f"eval matched {matched} pairs, expected {expected}")
        check(set(summary["difficulties"]) == {"easy", "moderate", "hard"}, "eval summary lacks a difficulty")
        self._same_as_reference("eval", file_digest(out / "summary.json", out / "difficulty.csv", out / "distance_bins.csv"))
        self.matched = matched
        return wall, detections

    def frame(self):
        from boxlift import geometry, kitti, multibin, solver
        from boxlift.errors import NoFeasibleConfigurationError

        frame = self.corpus.frames[self.frame_cursor % len(self.corpus.frames)]
        self.frame_cursor += 1
        start = time.perf_counter()
        records = kitti.parse_label_file(frame.label_text)
        calib = kitti.parse_calib_file(frame.calib_text)
        intrinsics, offset = calib.intrinsics, calib.translation_offset
        lifted = []
        for record in records:
            if record.is_dont_care:
                continue
            try:
                theta_ray = float(multibin.ray_angle(intrinsics, record.box2d.center[0]))
                yaw = float(multibin.local_to_global(record.alpha, theta_ray))
                result = solver.lift(
                    intrinsics, geometry.rotation_from_angles(yaw), record.dims, record.box2d, self.mode
                )
            except (NoFeasibleConfigurationError, ValueError):
                lifted.append((record.box2d, None))
                continue
            lifted.append((record.box2d, result.translation - offset))
        wall = time.perf_counter() - start
        check(len(lifted) == len(frame.truths), f"{frame.stem}: {len(lifted)} records, {len(frame.truths)} generated")
        self.attempted += len(lifted)
        errors = []
        for box2d, center in lifted:
            if center is None:
                self.failed += 1
            else:
                errors.append(self._check_center(frame.stem, box2d.as_array.tolist(), center))
        self.frame_errors.setdefault(frame.stem, errors)
        return wall, 1

    def toy(self):
        out = self.work / "toy.csv"
        wall, code, _ = self._cli(
            ["toy", "--out", str(out), "--bins-sweep", ",".join(map(str, TOY_BINS)),
             "--epochs", str(self.spec.toy_epochs), "--n-train", str(TOY_N_TRAIN),
             "--n-test", str(TOY_N_TEST), "--seed", str(self.seed)]
        )
        self.attempted += len(TOY_BINS)
        if code != 0:
            self.failed += len(TOY_BINS)
        check(code == 0, f"boxlift toy exited {code}")
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        check([int(r["bins"]) for r in rows] == list(TOY_BINS), "toy rows do not follow the sweep")
        if self.spec.single_bin_worst:
            os_by_bins = {int(r["bins"]): float(r["mean_os"]) for r in rows}
            check(all(os_by_bins[1] < v for b, v in os_by_bins.items() if b != 1), f"single bin is not worst: {os_by_bins}")
        self._same_as_reference("toy", file_digest(out, out.with_name("toy_history.csv")))
        return wall, self.spec.toy_epochs * len(TOY_BINS)

    def frames_pass(self, recorder=None):
        """Every frame of the corpus once (the fixed unit of a traced pass).

        Under a recorder each frame is a unit of its own: its spans share an
        id under one ``bench.frame`` root span.
        """
        for _ in self.corpus.frames:
            with recorder.unit("bench.frame") if recorder else contextlib.nullcontext():
                self.frame()

    def center_errors(self):
        """Errors of every record of the corpus, each frame at its first visit."""
        check(len(self.frame_errors) == len(self.corpus.frames), "the frame loop skipped frames")
        return [e for errors in self.frame_errors.values() for e in errors]


def reference():
    """One reference unit (see ``gen.reference``)."""
    return gen.reference(), 1


def run_measured(bench, seconds):
    """Closed-loop measurement of the phases; returns the end-to-end metrics.

    The phases are interleaved rather than run one after another: the next
    unit is always the phase furthest behind its share of the time spent so
    far, so a slow spell of the machine falls on every phase alike and the
    medians below ride over it. The reference unit is one more phase.
    """
    shares = {p: share * (1.0 - REFERENCE_SHARE) for p, share in bench.spec.shares.items()}
    shares["reference"] = REFERENCE_SHARE
    units = {"lift": bench.lift, "eval": bench.eval, "toy": bench.toy, "frames": bench.frame,
             "reference": reference}
    minimum = {"lift": 5, "eval": 5, "toy": 5, "frames": max(MIN_FRAMES, len(bench.corpus.frames)),
               "reference": 20}
    samples = {phase: [] for phase in units}
    spent = dict.fromkeys(units, 0.0)
    while True:
        due = list(units)
        if sum(spent.values()) >= seconds:
            due = [p for p in units if len(samples[p]) < minimum[p]]
            if not due:
                break
        phase = min(due, key=lambda p: spent[p] / shares[p])
        wall, amount = units[phase]()
        spent[phase] += wall
        samples[phase].append(wall * 1e3 if phase in ("frames", "reference") else amount / wall)
    frame_ms = samples["frames"]
    measured = {
        "lift_records_per_s": (median(samples["lift"]), "1/s"),
        "eval_detections_per_s": (median(samples["eval"]), "1/s"),
        "frame_ms_p50": (nearest_rank(frame_ms, 0.5), "ms"),
        "frame_ms_p90": (nearest_rank(frame_ms, 0.9), "ms"),
        "toy_epochs_per_s": (median(samples["toy"]), "1/s"),
    }
    slowdown = median(samples["reference"]) / 1e3 / gen.REFERENCE_NOMINAL_S
    metrics = {}
    for name, (value, unit) in measured.items():  # rates scale up with the slowdown, latencies down
        factor = slowdown ** SCALE_POWER[name]
        metrics[name] = (value / factor if unit == "ms" else value * factor, unit)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["center_err_m_p90"] = (nearest_rank(bench.center_errors(), 0.9), "m")
    counts = {phase: len(values) for phase, values in samples.items()}
    as_measured = {name: value for name, (value, _) in measured.items()}
    return metrics, {"units": counts, "slowdown": slowdown, "as_measured": as_measured}


def run_traced(bench, seconds, spans_path):
    """Untraced and traced passes of every phase; returns the per-layer metrics."""
    from boxlift import solver

    n_configs = len(solver.enumerate_configurations(bench.mode))
    recorder = SpanRecorder()
    units = {"lift": bench.lift, "eval": bench.eval, "frames": bench.frames_pass, "toy": bench.toy}
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for phase in ("lift", "eval", "frames", "toy"):
            t0 = time.perf_counter()
            units[phase]()
            untraced += time.perf_counter() - t0
            with recorder.installed(PACKAGE, LAYERS):
                t0 = time.perf_counter()
                if phase == "frames":
                    bench.frames_pass(recorder)
                else:
                    with recorder.unit(f"bench.{phase}"):
                        units[phase]()
                traced += time.perf_counter() - t0
        passes += 1
        recorder.keep_spans = False  # keep the spans of the first pass only
    recorder.write(spans_path)

    stat = recorder.stat

    def per_pass(ns):
        return ns / 1e9 / passes

    def per_call(name, scale):
        s = stat(name)
        return s.busy_ns / 1e9 * scale / s.calls if s.calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    lift = stat("solver.lift")
    detections = bench.corpus.n_detections if bench.spec.crowded else bench.lifted
    pairs = bench.matched * passes
    eval_busy = stat("cli.cmd_eval").busy_ns
    layer = {
        "solver.lift.calls": (lift.calls / passes, "count"),
        "solver.lift.busy_s": (per_pass(lift.busy_ns), "s"),
        "solver.lift.us_per_call": (per_call("solver.lift", 1e6), "us"),
        "solver.lift.ok_ratio": (ratio(lift.calls - lift.errors, lift.calls), "ratio"),
        "solver.configs_per_s": (ratio(lift.calls * n_configs, lift.busy_ns / 1e9), "1/s"),
        "solver.enumerate_configurations.us_per_call": (per_call("solver.enumerate_configurations", 1e6), "us"),
        "geometry.is_rotation.busy_s": (per_pass(stat("geometry.is_rotation").busy_ns), "s"),
        "kitti.parse_label_file.us_per_record": (
            ratio(stat("kitti.parse_label_file").busy_ns / 1e3, stat("kitti.parse_label_file").items), "us"),
        "kitti.parse_calib_file.busy_s": (per_pass(stat("kitti.parse_calib_file").busy_ns), "s"),
        "kitti.result_to_json_dict.busy_s": (per_pass(stat("kitti.result_to_json_dict").busy_ns), "s"),
        "kitti.write_results_jsonl.busy_s": (per_pass(stat("kitti.write_results_jsonl").busy_ns), "s"),
        "kitti.read_results_jsonl.busy_s": (per_pass(stat("kitti.read_results_jsonl").busy_ns), "s"),
        "kitti.record_from_json_dict.busy_s": (per_pass(stat("kitti.record_from_json_dict").busy_ns), "s"),
        "metrics.iou2d.calls_per_detection": (ratio(stat("metrics.iou2d").calls, detections * passes), "calls/detection"),
        "metrics.aos.busy_s": (per_pass(stat("metrics.aos").busy_ns), "s"),
        "metrics.match_pairs.busy_s": (per_pass(stat("metrics.match_pairs").busy_ns), "s"),
        "metrics.match_share_of_eval": (
            ratio(stat("metrics.aos").busy_ns + stat("metrics.match_pairs").busy_ns, eval_busy), "ratio"),
        "metrics.iou3d.calls_per_pair": (ratio(stat("metrics.iou3d").calls, pairs), "calls/pair"),
        "metrics.iou3d.us_per_call": (per_call("metrics.iou3d", 1e6), "us"),
        "metrics.closest_point_distance_error.calls_per_pair": (
            ratio(stat("metrics.closest_point_distance_error").calls, pairs), "calls/pair"),
        "metrics.distance_binned_errors.busy_s": (per_pass(stat("metrics.distance_binned_errors").busy_ns), "s"),
        "metrics.viewpoint_stats.busy_s": (per_pass(stat("metrics.viewpoint_stats").busy_ns), "s"),
        "toy.ToyModel.loss_and_grads.ms_per_call": (per_call("toy.ToyModel.loss_and_grads", 1e3), "ms"),
        "toy.train.busy_s": (per_pass(stat("toy.train").busy_ns), "s"),
        "multibin.loss_conf.calls": (stat("multibin.loss_conf").calls / passes, "count"),
        "multibin.loss_loc.calls": (stat("multibin.loss_loc").calls / passes, "count"),
        "cli.cmd_lift.self_s": (per_pass(stat("cli.cmd_lift").self_ns), "s"),
        "cli.cmd_eval.self_s": (per_pass(stat("cli.cmd_eval").self_ns), "s"),
        "trace.overhead_s": ((traced - untraced) / passes, "s"),
    }
    counts = {"passes": passes, "spans_kept": len(recorder.spans), "spans_dropped": recorder.dropped}
    return layer, counts


def environment():
    """Where the numbers come from: code, interpreter, libraries, machine."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import boxlift

    if Path(boxlift.__file__).resolve().parent != SRC / PACKAGE:
        print(f"boxlift imported from {boxlift.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tag = f"{args.workload}-seed{args.seed}"
    try:
        bench = Bench(args.workload, args.seed, work)
        correct = True
        try:
            for phase in ("lift", "eval", "toy"):  # warm-up, and the reference outputs
                getattr(bench, phase)()
            for _ in range(3):
                bench.frame()
            bench.attempted = bench.failed = 0
            if args.trace:
                metrics, details = run_traced(bench, args.seconds, OUT / f"spans-{tag}.jsonl")
            else:
                metrics, details = run_measured(bench, args.seconds)
        except CheckFailed as exc:
            print(f"CHECK FAILED: {exc}", file=sys.stderr)
            correct, metrics, details = False, {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs_sha256": bench.corpus.digest()[:16],
        "details": details, "env": env,
    }
    print("# " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    error_rate = bench.failed / bench.attempted if bench.attempted else 0.0
    print(f"error_rate {error_rate:.6g} ratio ({bench.failed}/{bench.attempted})")
    result = {
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT / "results.jsonl", "a") as handle:
        handle.write(json.dumps({**record, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
