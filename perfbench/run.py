"""Benchmark of paracyclic, driven from outside through its public functions.

    python3 perfbench/run.py --workload selftest|rotation|rational \
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a full checkout: it imports the package from
``src/`` next to this directory and exits with code 2 when that is absent.

With ``--trace 0`` it prints the end-to-end metrics:

- ``setup_s``: median over five fresh interpreters of the time to import
  the package and generate the seeded inputs;
- ``wall_s``: the time to complete the workload's batch once, taken as the
  sum over its parts of each part's median time.

Both are host-normalized seconds.  On the shared 2-vCPU Xeon VM of the
baseline, host speed swings by up to a third over tens of seconds: raw
medians of one part moved from 0.76 s to 1.39 s between 30-second windows
of one process, while the same medians divided by reference times taken
around each call stayed within 2% of each other.  So a fixed reference
kernel (``reference_seconds``) is timed around and, on a timer, during
every timed call; the call's raw time is divided by the mean reference
time and scaled by ``REF_SECONDS``.  The trace run reports raw seconds
beside them.

Parts are repeated for ``--seconds`` seconds, least-sampled part first,
starting a part only if its median still fits; each part runs at least
once.  With ``--trace 1`` it makes the same untraced measurement, then runs
each part once more untraced and once with the library's layer functions
wrapped (see ``tracing.py``), prints the per-layer metrics and writes the
spans to ``perfbench/out/trace-<workload>-seed<N>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; every output is checked by
``gate.py`` and a failing or raising operation counts in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_RUNS = 5
# numpy is imported before the clock starts: its import took 0.07-0.15 s
# between runs here (shared libraries, thread pool) and nothing in the repo
# moves it.
SETUP_CHILD = ("import sys, time, numpy; sys.path[:0] = sys.argv[1:3]; "
               "start = time.perf_counter(); import workloads; "
               "workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5]); "
               "print(time.perf_counter() - start)")
REF_SECONDS = 0.003       # nominal reference time, near its median on the baseline host
REF_EVERY = 0.2           # seconds between reference samples taken inside a timed call
REF_AROUND = 5            # reference samples taken after each timed call
_REF_MATRIX = np.arange(48 * 48, dtype=np.int64).reshape(48, 48)


def reference_seconds() -> float:
    """Wall time of a fixed few-millisecond kernel mixing interpreted loops,
    dict updates and small int64 matrix products."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(8000):
        total += i * i % 7
        table[i % 97] = table.get(i % 97, 0) + 1
    mat = _REF_MATRIX
    for _ in range(10):
        mat = (mat @ mat) % 101
    return time.perf_counter() - start


class Clock:
    """Times calls in units of a reference kernel measured around and during them.

    During a call a SIGALRM timer interrupts it every ``REF_EVERY`` seconds
    to time the kernel once; that time is left out of the call's raw time.
    """

    def __init__(self):
        self.around = self._around()
        self.references = list(self.around)
        self.inside: list = []
        self.paused = 0.0

    @staticmethod
    def _around() -> list:
        return [reference_seconds() for _ in range(REF_AROUND)]

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.inside.append(reference_seconds())
        self.paused += time.perf_counter() - start

    def time(self, run, sample_inside: bool = True) -> tuple:
        """(raw seconds, host-normalized seconds) of ``run()``, which returns
        its own elapsed seconds."""
        gc.collect()
        self.inside, self.paused = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        if sample_inside:
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)
        try:
            raw = run() - self.paused
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = self._around()
        reference = statistics.mean(self.around + self.inside + after)
        self.references.extend(self.inside + after)
        self.around = after
        return raw, REF_SECONDS * raw / reference


def _child_seconds(args) -> float:
    child = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return float(child.stdout)


def setup_seconds(workload: str, seed: int, clock: Clock) -> float:
    """Median time, in fresh interpreters, of importing the package and
    building the inputs."""
    args = [sys.executable, "-c", SETUP_CHILD, SRC, BENCH_DIR, workload, str(seed), OUT_DIR]
    # no samples inside: they would run beside the child on the other core
    return statistics.median(clock.time(lambda: _child_seconds(args), False)[1]
                             for _ in range(SETUP_RUNS))


def measure(parts, seconds: float, gate, clock: Clock) -> dict:
    """Per part, the median (raw, normalized) seconds, repeating parts until
    the time is used."""
    samples = {part.name: [] for part in parts}
    deadline = time.perf_counter() + seconds
    while True:
        for part in sorted(parts, key=lambda p: len(samples[p.name])):
            done = samples[part.name]
            if not done or time.perf_counter() + statistics.median(
                    raw for raw, _ in done) <= deadline:
                done.append(clock.time(lambda: gate.run(part.ops)))
                break
        else:
            return {name: tuple(statistics.median(column) for column in zip(*pairs))
                    for name, pairs in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="selftest, rotation or rational")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isdir(os.path.join(SRC, "paracyclic")):
        print(f"perfbench: {SRC}/paracyclic not found; run inside a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from gate import Gate
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    clock = Clock()
    setup = None if args.trace else setup_seconds(args.workload, args.seed, clock)
    parts = workloads.build(args.workload, args.seed, OUT_DIR)
    gate = Gate()
    with contextlib.redirect_stdout(io.StringIO()):    # the CLI prints verdict lines
        part_seconds = measure(parts, args.seconds, gate, clock)
        wall = sum(normalized for _, normalized in part_seconds.values())
        if args.trace:
            # Each part runs untraced, then traced right after it, so that the
            # overhead compares neighbours in time.  No reference samples run
            # inside: their time would land in the open spans.
            tracer = Tracer()
            untraced_raw = traced_raw = 0.0
            for part in parts:
                untraced_raw += clock.time(lambda: gate.run(part.ops), False)[0]
                tracer.install()
                try:
                    traced_raw += clock.time(lambda: gate.run(part.ops), False)[0]
                finally:
                    tracer.uninstall()

    if args.trace:
        metrics = tracer.metrics(
            traced_raw=traced_raw, untraced_raw=untraced_raw,
            reference=statistics.median(clock.references),
            parts={name: normalized for name, (_, normalized) in part_seconds.items()})
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "metrics": {k: v["value"] for k, v in metrics.items()},
                       **tracer.dump()}, handle)
        print(f"perfbench: trace written to {path}", file=sys.stderr)
    else:
        metrics = {"setup_s": {"value": setup, "unit": "s"},
                   "wall_s": {"value": wall, "unit": "s"}}
    for problem in gate.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
