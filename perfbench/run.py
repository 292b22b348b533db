"""labelflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a labelflow source tree; labelflow is imported from
its ``src/`` directory. The seed generates every input into
``perfbench/_work/`` before anything is timed. One process, one thread,
one client: each operation starts when the previous one has returned
(closed loop). The stream is whole passes over the workload's pool of
operations, each pass shuffled by the seed. Every answer is checked
against the workload's oracle, outside the timed region; a failed
operation is counted and the loop goes on.

Every timing is scaled to a fixed host speed (see ``HostSpeed``): on a
shared virtual machine the speed of the same code drifts by up to a
third over seconds to minutes, and no run length averages that out.

``--trace 0`` prints the end-to-end metrics; repeated set-ups and fresh
CLI processes are timed between operations, spread over the run.
``--trace 1`` first runs the stream untraced for ``--seconds``, then
installs the wrappers of ``tracing.py`` and traces one set-up and one
pass; it prints the per-layer metrics and writes the spans to
``perfbench/_work/``. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = {"ingest-multidoc": "ingest_multidoc",
             "query-synth": "query_synth",
             "paths-forest": "paths_forest"}
# set-up runs about SETUP_BUDGET_S seconds' worth of times, at least
# SETUP_MIN and at most SETUP_MAX; the median is reported
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 2.0
COLD_RUNS = 25
# a run times at least this many operations, so that at least ten lie
# beyond the 90th percentile
MIN_OPS = 100
COLD_TIMEOUT_S = 60

# duration of one reference sample at the nominal host speed; timings
# are reported as they would read on a host that runs it this fast
REFERENCE_MS = 2.5
# the speed during an event is measured by the reference samples taken
# within WINDOW_S seconds of it, and by at least NEAREST samples
WINDOW_S = 0.5
NEAREST = 9
# reference samples taken before and after each set-up and cold process
AROUND = 3

END_TO_END = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mib": "MiB", "cli_cold_ms": "ms"}


def _passes(pool, seed):
    """Endless seeded stream of passes, each a fresh shuffle of the pool."""
    rng = random.Random(f"stream:{seed}")
    while True:
        order = pool[:]
        rng.shuffle(order)
        yield order


def _reference_work() -> int:
    """A fixed piece of pure-Python work, independent of labelflow and of
    the seed: tuple keys, dict grouping, a sort and a set, as labelflow's
    own work is made of."""
    table: dict[tuple, list] = {}
    for i in range(1500):
        key = (i * 7919 % 1021, f"k{i & 31}")
        table.setdefault(key, []).append(i)
    groups = sorted(table.items())
    return len({k[1] for k, _ in groups}) + len(groups)


class HostSpeed:
    """Tracks the host's speed with a reference workload run between the
    timed events, and scales each event's duration to the nominal speed.

    On a shared virtual machine the speed of the same code moves by up to
    a third over seconds to minutes, in CPU time as much as in wall time,
    so it comes from the host and not from scheduling. The reference
    shares no code with labelflow, so a change to labelflow moves the
    scaled timings by the same factor as the raw ones; the host's drift
    moves both the event and its neighbouring samples, and cancels."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        for _ in range(NEAREST):  # warm-up, not recorded
            _reference_work()

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            _reference_work()
            t1 = time.perf_counter()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)

    def scale(self, t0: float, t1: float) -> float:
        """The duration from ``t0`` to ``t1`` at the nominal speed. It is
        divided by the mean of the middle half of the samples taken from
        WINDOW_S before ``t0`` to WINDOW_S after ``t1``, widened to the
        NEAREST nearest ones. The host's speed flips between two levels
        within a second, so a mean follows it better than a median; the
        middle half drops the samples a collection or a preemption hit."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        while hi - lo < min(NEAREST, len(self.at)):
            if lo > 0 and (hi == len(self.at) or
                           t0 - self.at[lo - 1] < self.at[hi] - t1):
                lo -= 1
            else:
                hi += 1
        took = sorted(self.took[lo:hi])
        middle = took[len(took) // 4:len(took) - len(took) // 4]
        local = statistics.fmean(middle)
        return (t1 - t0) * (REFERENCE_MS / 1e3) / local


class Timings:
    """Timed events, each made of one or more parts (start, end), scaled
    part by part once the run has the reference samples that follow them
    too."""

    def __init__(self, speed: HostSpeed, after: int = 1):
        self.speed, self.after = speed, after
        self.events: list[list[tuple[float, float]]] = []

    def add(self, *parts: tuple[float, float]) -> float:
        """Records an event and takes ``after`` reference samples."""
        self.events.append(list(parts))
        self.speed.sample(self.after)
        return sum(t1 - t0 for t0, t1 in parts)

    def raw(self) -> list[float]:
        return [sum(t1 - t0 for t0, t1 in parts) for parts in self.events]

    def scaled(self) -> list[float]:
        return [sum(self.speed.scale(t0, t1) for t0, t1 in parts)
                for parts in self.events]


def _call(fn, *args):
    return fn(*args)


class Run:
    def __init__(self, workload):
        self.w = workload
        self.speed = HostSpeed()
        self.latencies = Timings(self.speed)
        self.setups = Timings(self.speed, AROUND)
        self.colds = Timings(self.speed, AROUND)
        self.attempted = 0
        self.failed_ops = 0
        self.failures: list[str] = []

    def op(self, state, op) -> float:
        """One timed operation, then a reference sample and the check;
        returns the raw latency."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.w.run(state, op)
        except Exception as exc:  # an operation that raises has failed
            dt = self.latencies.add((t0, time.perf_counter()))
            self.failed_ops += 1
            self.failures.append(f"{op}: raised {exc!r}")
            return dt
        dt = self.latencies.add((t0, time.perf_counter()))
        try:
            error = self.w.check(op, result)
        except Exception as exc:  # a malformed answer fails its check
            error = f"checking raised {exc!r}"
        if error:
            self.failed_ops += 1
            self.failures.append(f"{op}: {error}")
        return dt

    def loop(self, state, passes, seconds: float, between=None) -> None:
        """Whole passes until ``seconds`` of operation time have gone and
        MIN_OPS operations have run, so every run times each distinct
        operation equally often. After each operation,
        ``between(share of the run done)`` may run untimed."""
        busy, done = 0.0, 0
        while busy < seconds or done < MIN_OPS:
            for op in next(passes):
                busy += self.op(state, op)
                done += 1
                if between is not None:
                    between(min(busy / seconds, done / MIN_OPS))

    def timed_setup(self):
        """One set-up, timed step by step with a reference sample after
        each step; returns the workload's state."""
        parts = []

        def step(fn, *args):
            t0 = time.perf_counter()
            result = fn(*args)
            parts.append((t0, time.perf_counter()))
            self.speed.sample()
            return result

        self.speed.sample(AROUND)
        state = self.w.setup(step)
        self.setups.add(*parts)
        return state

    def cold_cli(self, timed: bool = True) -> None:
        """One fresh ``python -m labelflow.cli validate`` process on the
        workload's small dataset; its wall time includes the import."""
        self.attempted += 1
        if timed:
            self.speed.sample(AROUND)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "labelflow.cli", "validate",
             str(self.w.cold_path)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, timeout=COLD_TIMEOUT_S)
        if timed:
            self.colds.add((t0, time.perf_counter()))
        if proc.returncode != 0 or proc.stdout.strip() != b"[]":
            self.failures.append(
                f"cold validate: exit {proc.returncode}, {proc.stderr[-200:]!r}")


class Spread:
    """Calls ``sample()`` ``count`` times spread evenly over a run: call
    it with the share of the run done so far. Sampling across the whole
    run, not in one burst, keeps a passing state of the host from
    deciding the median."""

    def __init__(self, sample, count: int):
        self.sample, self.count, self.taken = sample, count, 0

    def __call__(self, done: float) -> None:
        while self.taken < self.count and done >= self.taken / self.count:
            self.sample()
            self.taken += 1


def _quantiles(values):
    q = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), q[8]


def _summary(latencies, failed):
    """ops_per_s, op_p50_ms and op_p90_ms of a list of latencies."""
    p50, p90 = _quantiles(latencies)
    return (len(latencies) - failed) / sum(latencies), p50 * 1e3, p90 * 1e3


def end_to_end(run: Run, seed: int, seconds: float):
    run.timed_setup()
    first = run.setups.raw()[0]
    setups = Spread(run.timed_setup, min(
        SETUP_MAX, max(SETUP_MIN, int(SETUP_BUDGET_S / first))) - 1)
    run.cold_cli(timed=False)  # may write bytecode caches: checked only
    cold = Spread(run.cold_cli, COLD_RUNS)

    def between(done):
        setups(done)
        cold(done)

    run.loop(run.w.setup(_call), _passes(run.w.pool, seed), seconds, between)
    between(1.0)
    values = {}
    for kind in ("scaled", "raw"):
        lat, setup_t, cold_t = (getattr(t, kind)() for t in
                                (run.latencies, run.setups, run.colds))
        ops, p50, p90 = _summary(lat, run.failed_ops)
        values[kind] = {
            "ops_per_s": ops, "op_p50_ms": p50, "op_p90_ms": p90,
            "setup_s": statistics.median(setup_t),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cli_cold_ms": statistics.median(cold_t) * 1e3}
    lat = run.latencies.scaled()
    beyond = sum(1 for x in lat if x * 1e3 > values["scaled"]["op_p90_ms"])
    notes = {
        "ops_per_s": f"{len(lat) - run.failed_ops} of {len(lat)} ops completed",
        "op_p50_ms": f"{len(lat)} samples",
        "op_p90_ms": f"{len(lat)} samples, {beyond} beyond",
        "setup_s": f"median of {len(run.setups.events)} set-ups",
        "peak_rss_mib": "ru_maxrss of this process",
        "cli_cold_ms": f"median of {len(run.colds.events)} processes",
    }
    for name, value in values["scaled"].items():
        print(f"{name} = {value:.6g} {END_TO_END[name]} ({notes[name]}; "
              f"unscaled {values['raw'][name]:.6g})")
    speed = REFERENCE_MS / 1e3 / statistics.median(run.speed.took)
    print(f"host speed {speed:.3f} of nominal "
          f"(median of {len(run.speed.took)} reference samples)")
    distinct = len({repr(op) for op in run.w.pool})
    print(f"distinct operations {distinct}, repeated share "
          f"{1 - min(distinct, len(lat)) / len(lat):.3f}")
    return {name: {"value": value, "unit": END_TO_END[name]}
            for name, value in values["scaled"].items()}


def traced(run: Run, seed: int, seconds: float, workdir: Path):
    import tracing

    run.loop(run.w.setup(_call), _passes(run.w.pool, seed), seconds)
    untraced = run.latencies.scaled()
    untraced_s = sum(untraced) / len(untraced) * len(run.w.pool)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = run.timed_setup()  # operation 0
        for i, op in enumerate(run.w.pool, start=1):
            tracer.operation = i
            run.op(state, op)
    finally:
        tracer.uninstall()
    tracer.write(workdir.parent / f"{run.w.name}-{seed}.spans.jsonl")
    # each operation's spans are scaled as the operation's latency was
    scaled = run.setups.scaled() + run.latencies.scaled()[len(untraced):]
    raw = run.setups.raw() + run.latencies.raw()[len(untraced):]
    values = tracer.metrics([s / r for s, r in zip(scaled, raw)])
    values["trace.overhead"] = untraced_s / sum(scaled[1:])
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in tracing.METRICS.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "labelflow" / "__init__.py").is_file():
        print(f"labelflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import labelflow
    if Path(labelflow.__file__).resolve().parent.parent != SRC:
        print(f"imported labelflow from {labelflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    module = importlib.import_module(WORKLOADS[args.workload])
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = module.Workload(args.seed, workdir)
        print(f"workload {args.workload}, seed {args.seed}: {workload.size}")
        run = Run(workload)
        if args.trace:
            metrics = traced(run, args.seed, args.seconds, workdir)
        else:
            metrics = end_to_end(run, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in run.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = len(run.failures)
    print(f"fail_ratio = {failed / run.attempted:.6g} "
          f"({failed} failed of {run.attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
