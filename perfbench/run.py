"""Time ``rip`` on one workload and print its metrics as one JSON line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the current directory and from
nowhere else; without it the run fails before measuring anything.  One run
sets up (imports ``rip`` and generates the workload's inputs from the seed),
then answers every question of the workload in passes, sequentially in
this one process, until the next pass would end after ``--seconds``.
Times are scaled to a fixed speed of the machine by the probes of
``speed.py``; the unscaled figures are printed above the result.  A
workload has a least number of passes (``models`` compares two passes'
reports byte for byte).  Answers are checked after each question, outside
its timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one pass
that asks each question twice in a row, as it is and with span wrappers
installed (see ``spans.py``), prints the per-layer metrics of the traced
asks, and writes their spans to ``perfbench/out/``.  The last line of
standard output is the result; the lines above it say which commit,
Python and numeric backend were measured.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import spans
import speed
import workloads

WORKLOADS = ("corpus", "lattice", "models")
SETUP_SAMPLES = 11
CLOCK = time.perf_counter

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, 'src')\n"
    "started = time.perf_counter()\n"
    "import rip, rip.cli\n"
    "print(time.perf_counter() - started)\n"
)


def _commit(root):
    """The checked-out commit, read from ``.git`` without running git."""
    head_file = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_file, encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(root, ".git", ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _import_seconds(root):
    """Seconds a fresh interpreter takes to import ``rip`` from ``src/``."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=root, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def _make_workload(name, seed, workdir):
    if name == "models":
        return workloads.models(seed, workdir)
    return getattr(workloads, name)(seed)


def _setup(name, seed, root, workdir):
    """Import ``rip`` and build the workload, several times; the median of each.

    Returns ``rip``, the workload, and the set-up seconds unscaled and
    scaled by the median factor of exact probes timed between the samples.
    """
    factors, imports = [], []
    for _ in range(SETUP_SAMPLES):
        factors.append(speed.spot_factor())
        imports.append(_import_seconds(root))
    sys.path.insert(0, os.path.join(root, "src"))
    rip = importlib.import_module("rip")
    spans.rip_modules()
    generations = []
    for _ in range(SETUP_SAMPLES):
        started = CLOCK()
        workload = _make_workload(name, seed, workdir)
        generations.append(CLOCK() - started)
    factors.append(speed.spot_factor())
    seconds = statistics.median(imports) + statistics.median(generations)
    return rip, workload, seconds, seconds * statistics.median(factors)


class Pass:
    """Timings and outcomes of one pass over a workload's questions.

    ``times[mode]`` holds ``(seconds, start, end)`` per answered question.
    """

    def __init__(self):
        self.times = {"rational": [], "float": []}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def seconds(self, mode):
        return [took for took, _, _ in self.times[mode]]

    @property
    def wall(self):
        return sum(self.seconds("rational")) + sum(self.seconds("float"))


def _ask(rip, workload, question, into, sampler=None):
    """Time one question into the pass ``into``, then check its answer.

    The time ``sampler`` spends probing during the question is taken out.
    """
    into.attempted += 1
    probed = sampler.spent if sampler else 0.0
    started = CLOCK()
    try:
        answer = workload.ask(rip, question)
    except Exception:  # a failed question is counted, and the run goes on
        into.failed += 1
        print(f"question {question.key} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return
    ended = CLOCK()
    took = ended - started - ((sampler.spent if sampler else 0.0) - probed)
    into.times[question.mode].append((took, started, ended))
    into.problems += workload.check(question, answer)


def run_pass(rip, workload, sampler):
    """Ask every question once, checking each answer outside its timed region."""
    result = Pass()
    for question in workload.questions:
        _ask(rip, workload, question, result, sampler)
    result.problems += workload.end_pass()
    return result


def run_traced_pass(rip, workload, recorder):
    """Ask every question twice in a row, as it is and then traced.

    Pairing the two at each question keeps the machine's drift and any
    warming up out of their difference, which is the tracing overhead.
    """
    plain, traced = Pass(), Pass()
    for question in workload.questions:
        _ask(rip, workload, question, plain)
        with recorder.installed():
            _ask(rip, workload, question, traced)
    traced.problems += workload.end_pass()
    return plain, traced


def _percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def end_to_end(passes, setup_s, scale=None):
    """The end-to-end metrics; ``scale(mode, start, end)`` rescales each question."""

    def seconds(p, mode):
        if scale is None:
            return p.seconds(mode)
        return [took * scale(mode, start, end) for took, start, end in p.times[mode]]

    exact = [t for p in passes for t in seconds(p, "rational")]
    return {
        "setup_s": (setup_s, "s"),
        "exact_s": (statistics.median(sum(seconds(p, "rational")) for p in passes), "s"),
        "float_s": (statistics.median(sum(seconds(p, "float")) for p in passes), "s"),
        "exact_question_p50_s": (statistics.median(exact), "s"),
        "exact_question_p95_s": (_percentile(exact, 0.95), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _write_spans(out_dir, name, seed, recorder):
    path = os.path.join(out_dir, f"spans-{name}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for span in recorder.spans:
            handle.write(json.dumps(span) + "\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rip", "__init__.py")):
        print("error: run from the root of a checkout that holds src/rip", file=sys.stderr)
        return 2
    out_root = os.path.join(root, "perfbench", "out")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_root)
    try:
        rip, workload, unscaled_setup_s, setup_s = _setup(args.workload, args.seed, root, workdir)
        if not rip.__file__.startswith(os.path.join(root, "src")):
            print(f"error: rip was imported from {rip.__file__}", file=sys.stderr)
            return 2

        passes = []
        started = CLOCK()
        if args.trace:
            recorder = spans.Recorder(spans.rip_modules())
            passes.extend(run_traced_pass(rip, workload, recorder))
        else:
            with speed.Sampler() as sampler:
                while True:
                    pass_started = CLOCK()
                    passes.append(run_pass(rip, workload, sampler))
                    now = CLOCK()
                    if (len(passes) >= workload.min_passes
                            and now - started + (now - pass_started) > args.seconds):
                        break

        if args.trace:
            metrics = spans.layer_metrics(recorder, passes[1].wall, passes[0].wall)
            print(f"spans: {_write_spans(out_root, args.workload, args.seed, recorder)}")
        else:
            metrics = end_to_end(passes, setup_s, sampler.scale)
            unscaled = end_to_end(passes, unscaled_setup_s)
            print("unscaled: " + ", ".join(f"{k} {v:.4f}" for k, (v, _) in unscaled.items()
                                           if k.endswith("_s")))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for run in passes for p in run.problems]
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    gmpy2 = importlib.util.find_spec("gmpy2") is not None
    print(f"commit {_commit(root)}; python {sys.version.split()[0]}; "
          f"gmpy2 importable: {'yes' if gmpy2 else 'no'}")
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(workload.questions)} questions, {len(problems)} check failures")
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
