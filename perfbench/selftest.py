"""Self-test of the benchmark's own parts.

    python3 perfbench/selftest.py

Checks that the generator gives the same bytes for the same seed (in this
process and in a fresh interpreter with another hash seed) and other bytes
for another seed, that the span recorder sees a function through every
namespace that binds it, computes self time and restores the originals,
that a traced frame loop gives every frame its own unit id, and that
quantiles follow the nearest-rank rule. Exits 1 on a failure.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import workload  # noqa: E402
from spans import SpanRecorder  # noqa: E402

DIGEST = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workload, gen; "
    "s = workload.WORKLOADS[sys.argv[2]]; "
    "print(gen.make_corpus(int(sys.argv[3]), s.frames, s.objects, s.depth, s.crowded).digest())"
)


def corpus_digest(name, seed):
    spec = workload.WORKLOADS[name]
    return gen.make_corpus(seed, spec.frames, spec.objects, spec.depth, spec.crowded).digest()


def test_generator_is_deterministic():
    for name in workload.WORKLOADS:
        first = corpus_digest(name, 3)
        assert corpus_digest(name, 3) == first, name
        assert corpus_digest(name, 4) != first, name
        fresh = subprocess.run(
            [sys.executable, "-c", DIGEST, str(HERE), name, "3"],
            env={**os.environ, "PYTHONHASHSEED": "12345"},
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert fresh == first, f"{name}: another interpreter generated other bytes"


def test_crowded_plants_matchable_detections():
    spec = workload.WORKLOADS["crowded"]
    corpus = gen.make_corpus(5, spec.frames, spec.objects, spec.depth, detections=True)
    assert 0 < corpus.planted < corpus.n_detections
    assert spec.objects[0] * spec.frames <= corpus.n_objects <= spec.objects[1] * spec.frames
    assert '"score": 0.0' in corpus.results_text


def test_recorder_sees_every_binding_and_restores():
    from boxlift import cli, geometry, metrics

    original = metrics.iou3d
    box = geometry.Box3D([0.0, 1.0, 10.0], geometry.Dimensions(4.0, 1.5, 1.8), 0.3)
    recorder = SpanRecorder()
    with recorder.installed("boxlift", ("metrics", "geometry")):
        assert cli.iou3d is metrics.iou3d and metrics.iou3d is not original
        with recorder.span("outer"):
            cli.iou3d(box, box)
            metrics.iou3d(box, box)
    assert metrics.iou3d is original and cli.iou3d is original
    iou = recorder.stat("metrics.iou3d")
    outer = recorder.stat("outer")
    assert iou.calls == 2 and iou.errors == 0
    assert outer.self_ns == outer.busy_ns - iou.busy_ns
    names = [span[0] for span in recorder.spans]
    assert names[0] == "outer" and names.count("metrics.iou3d") == 2
    child = recorder.spans[names.index("metrics.iou3d")]
    assert child[3] == 0 and child[1] <= child[2]


def test_traced_frames_are_units():
    work = workload.OUT / f"selftest-{os.getpid()}"
    recorder = SpanRecorder()
    try:
        bench = workload.Bench("crowded", 5, work)
        with recorder.installed(workload.PACKAGE, workload.LAYERS):
            bench.frames_pass(recorder)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spans = recorder.spans
    roots = [span for span in spans if span[3] == -1]
    assert [span[0] for span in roots] == ["bench.frame"] * len(bench.corpus.frames)
    assert len({span[4] for span in roots}) == len(roots), "two frames share a unit id"
    for name, _, _, parent, unit in spans:
        if parent != -1:
            assert spans[parent][4] == unit, f"{name} is in another unit than its parent"
    assert {"solver.lift", "kitti.parse_label_file"} <= {span[0] for span in spans}


def test_nearest_rank():
    values = list(range(1, 101))
    assert workload.nearest_rank(values, 0.9) == 90  # ten values beyond it
    assert workload.nearest_rank(values, 0.5) == 50


def main():
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
