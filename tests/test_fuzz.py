"""Seeded hostile-input fuzz of ``boxlift lift`` and ``boxlift eval``.

Each mutation replaces, deletes or inserts one token of one label or
calibration line, or one JSON value of one results line, of a six-frame
generated corpus. ``lift`` and ``eval`` then run in process, each under a
time limit. Every ERROR they log, other than the more-than-half summary,
must be the error contract's ``{file} line {N}: {reason}`` for the mutated
file and physical line; the one exception is a calibration file whose P2
key the mutation removed, which has no line to name.
"""

import json
import math
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

from boxlift.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

HOSTILE = {
    "nan": math.nan, "inf": math.inf, "-1": -1, "0": 0, "1e11": 1e11, "x": "x",
    "true": True, "null": None,
}
N_MUTATIONS = 600
SEED = 11
TIME_LIMIT_S = 10


class _Hang(BaseException):
    """A run past its time limit; no Exception, so ``cli.main`` cannot log it."""


def _run(argv):
    def expire(signum, frame):
        raise _Hang

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        return main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _mutated_tokens(rng, line, op, token):
    tokens = line.split()
    i = int(rng.integers(len(tokens) + (op == "insert")))
    if op == "replace":
        tokens[i] = token
    elif op == "delete":
        del tokens[i]
    else:
        tokens.insert(i, token)
    return " ".join(tokens)


def _mutated_json(rng, line, op, token):
    entry = json.loads(line)
    key = list(entry)[int(rng.integers(len(entry)))]
    value = HOSTILE[token]
    if isinstance(entry[key], list):
        i = int(rng.integers(len(entry[key]) + (op == "insert")))
        if op == "replace":
            entry[key][i] = value
        elif op == "delete":
            del entry[key][i]
        else:
            entry[key].insert(i, value)
    elif op == "delete":
        del entry[key]
    else:  # an insert next to a number makes a list of both
        entry[key] = value if op == "replace" else [entry[key], value]
    return json.dumps(entry)


def mutations(texts, results):
    """(path, physical line, mutated line) of each seeded mutation.

    A third mutate label lines, a third calibration lines (half of them the
    P2 line, the one the reader uses) and a third results lines.
    """
    rng = np.random.default_rng(SEED)
    labels = [path for path in texts if path.parent.name == "labels"]
    calibs = [path for path in texts if path.parent.name == "calib"]
    for _ in range(N_MUTATIONS):
        kind = int(rng.integers(3))
        path = results if kind == 2 else [labels, calibs][kind][int(rng.integers(6))]
        lines = texts[path].split("\n")
        candidates = [i for i, line in enumerate(lines) if line.strip()]
        if kind == 1 and rng.random() < 0.5:
            candidates = [i for i in candidates if lines[i].startswith("P2:")]
        i = candidates[int(rng.integers(len(candidates)))]
        op = ["replace", "delete", "insert"][int(rng.integers(3))]
        token = list(HOSTILE)[int(rng.integers(len(HOSTILE)))]
        mutate = _mutated_json if kind == 2 else _mutated_tokens
        yield path, i + 1, mutate(rng, lines[i], op, token)


@pytest.fixture()
def corpus(tmp_path):
    """Paths of a six-frame generated corpus and its lifted results, with
    each file's text."""
    labels, calibs = tmp_path / "labels", tmp_path / "calib"
    labels.mkdir()
    calibs.mkdir()
    texts = {}
    for frame in gen.make_corpus(3, 6, (8, 12), (5.0, 50.0)).frames:
        texts[labels / f"{frame.stem}.txt"] = frame.label_text
        texts[calibs / f"{frame.stem}.txt"] = frame.calib_text
    for path, text in texts.items():
        path.write_text(text)
    results = tmp_path / "results.jsonl"
    assert main(["lift", str(labels), str(calibs), "--out", str(results)]) == 0
    texts[results] = results.read_text()
    return labels, calibs, results, texts


def test_every_error_of_a_mutated_corpus_names_the_mutated_line(tmp_path, corpus, caplog):
    labels, calibs, results, texts = corpus
    lift = ["lift", str(labels), str(calibs), "--out", str(tmp_path / "lifted.jsonl")]
    evaluate = ["eval", str(labels), str(results), "--out", str(tmp_path / "eval")]
    faults, n_errors = [], 0
    for path, line_no, line in mutations(texts, results):
        lines = texts[path].split("\n")
        lines[line_no - 1] = line
        path.write_text("\n".join(lines))
        for argv in (lift, evaluate):
            caplog.clear()
            try:
                code = _run(argv)
            except _Hang:
                faults.append((argv[0], str(path), line_no, line, f"ran past {TIME_LIMIT_S} s"))
                continue
            allowed = (f"{path} line {line_no}: ", f"{path}: no P2 line", "more than half")
            for record in caplog.records:
                message = record.getMessage()
                if record.levelname == "ERROR":
                    n_errors += 1
                    if not message.startswith(allowed):
                        faults.append((argv[0], str(path), line_no, line, message))
            if code not in (0, 1):
                faults.append((argv[0], str(path), line_no, line, f"exit {code}"))
        path.write_text(texts[path])
    assert not faults, f"{len(faults)} faults, the first: {faults[:5]}"
    assert n_errors > N_MUTATIONS // 4  # the mutations are hostile, not no-ops
