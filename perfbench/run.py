"""Benchmark of the efl pipeline: end-to-end metrics and a per-module breakdown.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload dense-color --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` follows every untraced pass with a pass over the same
instances that records a span around every library call, and prints the
per-layer metrics too.  ``--workload all`` runs every workload in a process
of its own.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every correctness check held.

The instances come from ``--seed``; the library receives only the generated
inputs.  One process with one thread generates the load, in a closed loop:
the next instance starts when the previous one is done.  A run repeats whole
passes over its instances until about ``--seconds`` of untraced work are
timed and at least 100 instances, so at least ten lie beyond p90.

Timings on the result line are at nominal machine speed: each one is scaled
by ``NOMINAL_REF_S`` over the time a fixed reference loop took just before
it.  The report prints the wall-clock values as well.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
# Set-up repeats at least SETUP_MIN_REPEATS times and until SETUP_MIN_S
# seconds are spent, so a set-up of a few milliseconds is timed often enough
# for its median to hold still.
SETUP_MIN_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 2.0, 15
MIN_SAMPLES = 100
# Other load on a shared machine changes the speed this process gets by up
# to 1.7x, in spells of seconds to minutes.  A fixed loop that does not touch
# efl, timed at most every REF_EVERY_S between instances, measures the speed
# of the moment; each timing is multiplied by NOMINAL_REF_S / (loop time).
# NOMINAL_REF_S is the loop's fastest time on a 2.1 GHz Xeon under Python
# 3.11.7, so nominal speed is close to that machine unloaded.
NOMINAL_REF_S = 0.0006
REF_EVERY_S = 0.05
# ROADMAP baseline: run_matrix_method(gen_dense(50)), single wall-clock run.
BASELINE_LABEL, BASELINE_SPAN, BASELINE_S = "dense(50)", "matrix_engine.run", 0.77

# One per span name.  The report prints each span's self time per pipeline
# instance as ``<span>_s``; the result line carries ``<span>_share``, the
# same self time as a share of the untraced pipeline time.  A share is 0
# where the workload never makes that call, and being a ratio of two times
# measured in the same run it drifts less with the machine's speed.
LAYER_SPANS = (
    "instance.parse",
    "instance.validate",
    "instance.core_subgraph",
    "generators.build_random",
    "matrix_engine.run",
    "matrix_engine.replay",
    "greedy.run",
    "greedy.conditions",
    "oracle.verify",
    "oracle.checks",
    "oracle.chromatic",
    "export.serialize",
    "export.coloring",
    "export.dot",
)
# Per-layer counts, summed over one pass of distinct instances.
LAYER_COUNTS = (
    "instance.core_vertices",
    "instance.core_edges",
    "generators.merges_done",
    "generators.extensions_done",
    "matrix_engine.assign_events",
    "matrix_engine.repair_events",
    "matrix_engine.skip_events",
    "matrix_engine.budget_events",
    "greedy.sy1_holds",
    "greedy.sy2_holds",
    "oracle.chi_sum",
    "export.bytes",
)


def reference_loop() -> int:
    """Dict updates, a keyed sort, str building and a set: the pipelines' mix."""
    counts: dict[int, int] = {}
    for i in range(2000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + i
    ranked = sorted(counts.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    return len(" ".join(str(k) for k, _ in ranked)) + len(set(counts))


class Speed:
    """The machine's current speed, as NOMINAL_REF_S over the reference loop's time."""

    def __init__(self) -> None:
        self.refs: list[float] = []
        self._factor = 1.0
        self._at = float("-inf")

    def factor(self) -> float:
        if perf_counter() - self._at >= REF_EVERY_S:
            times = []
            for _ in range(3):
                t0 = perf_counter()
                reference_loop()
                times.append(perf_counter() - t0)
            self.refs.append(min(times))
            self._factor = NOMINAL_REF_S / self.refs[-1]
            self._at = perf_counter()
        return self._factor


def _share(numerator: float, denominator: float) -> float:
    """A ratio that reads 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


class Run:
    """One workload measured in this process."""

    def __init__(self, workload, efl, items, speed: Speed):
        self.w = workload
        self.efl = efl
        self.items = items
        self.speed = speed
        self.seq = 0
        self.first_out: list = [None] * len(items)
        self.digests: list = [None] * len(items)
        self.reps = [0] * len(items)
        self.failed_reps = [0] * len(items)
        self.problems: list[str] = []  # correctness violations: the gate
        self.failures: Counter = Counter()  # failed operations by kind
        self.traced_factors: dict[int, float] = {}  # speed factor by traced instance

    def _problem(self, idx: int, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{self.w.label(self.items[idx])}: {problem}")

    def _fail(self, idx: int, kind: str, problem: str | None = None) -> None:
        self.failed_reps[idx] += 1
        self.failures[kind] += 1
        if problem is not None:
            self._problem(idx, problem)

    def _one(self, idx: int, call, tracer) -> tuple[float, float]:
        """Run one instance; returns its wall-clock and its nominal-speed latency."""
        item = self.items[idx]
        factor = self.speed.factor()
        self.reps[idx] += 1
        # Collect the previous instance's garbage outside the timed region.
        # Freezing what survives (stored outputs, spans) keeps each
        # collection from scanning it again.
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.instance = self.seq
            self.traced_factors[self.seq] = factor
        self.seq += 1
        t0 = perf_counter()
        try:
            if tracer is None:
                out = self.w.pipeline(self.efl, item, call)
            else:
                out = tracer.call("pipeline", self.w.pipeline, self.efl, item, call)
        except self.efl.CoreSizeLimitError:
            elapsed = perf_counter() - t0
            self._fail(idx, "oracle resource limit")
            return elapsed, elapsed * factor
        except Exception:
            elapsed = perf_counter() - t0
            self._fail(idx, "exception", traceback.format_exc(limit=3).strip())
            return elapsed, elapsed * factor
        elapsed = perf_counter() - t0
        digest = hashlib.sha256(self.w.digest(self.efl, item, out)).digest()
        if self.digests[idx] is None:
            self.digests[idx] = digest
            self.first_out[idx] = out
        elif digest != self.digests[idx]:
            self._fail(idx, "nondeterministic output", "output differs between repetitions")
            return elapsed, elapsed * factor
        # An engine result that is not ok (``stuck-no-repair``) is the
        # method's documented outcome, like greedy's ``no-color-available``:
        # it is counted in ``matrix_engine.ok_share`` and in the report, and
        # its checks still run, but the operation did not fail.
        problems = self.w.check(self.efl, item, out)
        if problems:
            self._fail(idx, "check", "; ".join(problems))
        return elapsed, elapsed * factor

    def measure(self, seconds: float, tracer=None):
        """Whole passes over the items until about ``seconds`` of untraced time.

        Stops at the pass boundary nearest to ``seconds`` once ``MIN_SAMPLES``
        instances are timed.  With a tracer every untraced pass is followed by
        a traced pass over the same items, so drift in machine speed falls on
        both alike.  Returns the (wall-clock, nominal) latency pairs of the
        untraced passes, by pass, and the nominal latencies of the traced ones.
        """
        passes: list[list[tuple[float, float]]] = []
        traced: list[float] = []
        busy = 0.0
        while True:
            started = perf_counter()
            passes.append([self._one(idx, tracing.untraced, None) for idx in range(len(self.items))])
            busy += perf_counter() - started
            if tracer is not None:
                traced += [self._one(idx, tracer.call, tracer)[1] for idx in range(len(self.items))]
            timed = len(passes) * len(self.items)
            if timed >= MIN_SAMPLES and busy + busy / len(passes) / 2 >= seconds:
                return passes, traced

    def examine(self, count: bool) -> tuple[Counter, dict]:
        sums: Counter = Counter()
        maxima: dict = {}
        for idx, item in enumerate(self.items):
            out = self.first_out[idx]
            if out is None:
                continue
            problems, item_sums, item_maxima = self.w.examine(self.efl, item, out, count)
            sums += item_sums
            for key, value in item_maxima.items():
                maxima[key] = max(maxima.get(key, 0.0), value)
            if problems:
                # a failed check fails every repetition of its instance
                self.failures["check"] += self.reps[idx] - self.failed_reps[idx]
                self.failed_reps[idx] = self.reps[idx]
                self._problem(idx, "; ".join(problems))
        return sums, maxima

    def cli_check(self) -> None:
        if any(out is None for out in self.first_out):
            return
        tmpdir = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
        tmpdir.mkdir(parents=True, exist_ok=True)
        try:
            for problem in self.w.cli_check(self.efl, self.items, self.first_out, tmpdir):
                self.problems.append(f"cli: {problem}")
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)

    def not_colored(self) -> int:
        """Distinct instances whose timed pipeline got no coloring from the engine."""
        return sum(1 for out in self.first_out if out is not None and not out["ok"])

    def digest(self) -> str:
        return hashlib.sha256(b"".join(d or b"" for d in self.digests)).hexdigest()

    @property
    def attempted(self) -> int:
        return sum(self.reps)

    @property
    def failed(self) -> int:
        return sum(self.failed_reps)


def set_up(workload, seed: int, speed: Speed):
    """Import efl and build the inputs repeatedly.

    Returns the last module and inputs, and the (wall-clock, nominal) time
    of every repetition.
    """
    times: list[tuple[float, float]] = []
    while len(times) < SETUP_MAX_REPEATS and (
        len(times) < SETUP_MIN_REPEATS or sum(t for t, _ in times) < SETUP_MIN_S
    ):
        for name in [m for m in sys.modules if m == "efl" or m.startswith("efl.")]:
            del sys.modules[name]
        gc.collect()
        before = speed.factor()
        t0 = perf_counter()
        efl = importlib.import_module("efl")
        items = workload.build(efl, seed)
        elapsed = perf_counter() - t0
        # a set-up of seconds can outlast a spell of load: average both ends
        times.append((elapsed, elapsed * (before + speed.factor()) / 2))
    return efl, items, times


def end_to_end(run: Run, passes: list[list[float]], setup_times: list[float], peak_rss_kb: int) -> dict:
    """The end-to-end metrics from one kind of timing, wall-clock or nominal."""
    # outputs are deterministic, so an instance fails in every pass or in none
    ok_share = _share(run.attempted - run.failed, run.attempted)
    latencies = [t for one in passes for t in one]
    p90 = statistics.quantiles(latencies, n=10)[8]
    # the median pass discards passes slowed by other load on the machine
    rate = statistics.median(ok_share * len(one) / sum(one) for one in passes)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "instances_per_s": (rate, "1/s", len(latencies)),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms", len(latencies)),
        "latency_p90_ms": (1e3 * p90, "ms", len(latencies)),
        "ok_share": (ok_share, "share", run.attempted),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB", 1),
    }


def per_layer(run: Run, tracer, untraced: list[float], traced: list[float], sums, maxima):
    """Per-layer self times for the report, and the per-layer metrics.

    All times are at nominal speed, so a change in the machine's speed
    between the untraced and the traced passes cancels out.
    """
    instances = len(traced)
    base, with_spans = sum(untraced), sum(traced)
    self_times = tracer.self_times(run.traced_factors)
    times, metrics = {}, {}
    for name in LAYER_SPANS:
        total, spans = self_times.get(name, (0.0, 0))
        times[f"{name}_s"] = (total / instances, "s", spans)
        metrics[f"{name}_share"] = (total / base, "share", spans)
    distinct = len(run.items)
    for name in LAYER_COUNTS:
        metrics[name] = (sums[name], "bytes" if name == "export.bytes" else "count", distinct)
    repairs, skips = sums["matrix_engine.repair_events"], sums["matrix_engine.skip_events"]
    engine_calls = sums["matrix_engine.calls"]
    metrics["matrix_engine.repair_useful_ratio"] = (_share(repairs, repairs + skips), "ratio", repairs + skips)
    metrics["matrix_engine.budget_used_max_share"] = (
        maxima.get("matrix_engine.budget_used_max_share", 0.0), "share", engine_calls)
    metrics["matrix_engine.ok_share"] = (_share(sums["matrix_engine.ok"], engine_calls), "share", engine_calls)
    metrics["greedy.ok_share"] = (_share(sums["greedy.ok"], sums["greedy.calls"]), "share", sums["greedy.calls"])
    metrics["oracle.n_colorable_share"] = (
        _share(sums["oracle.n_colorable"], sums["oracle.calls"]), "share", sums["oracle.calls"])
    layers = sum(t for name, (t, _) in self_times.items() if name != "pipeline")
    metrics["trace.overhead_share"] = ((with_spans - base) / base, "share", instances)
    metrics["trace.accounted_share"] = (layers / base, "share", instances)
    return times, metrics


def print_table(title: str, metrics: dict) -> None:
    print(f"# {title}")
    print(f"{'metric':<40} {'value':>14} {'unit':<6} samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit:<6} {samples}")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    workload = WORKLOADS[name]
    speed = Speed()
    efl, items, setup_times = set_up(workload, seed, speed)
    run = Run(workload, efl, items, speed)
    tracer = tracing.Tracer() if trace else None
    passes, traced = run.measure(seconds, tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall_passes = [[wall for wall, _ in one] for one in passes]
    nominal_passes = [[nominal for _, nominal in one] for one in passes]
    untraced = [t for one in nominal_passes for t in one]
    sums, maxima = run.examine(count=trace)
    run.cli_check()
    e2e = end_to_end(run, nominal_passes, [t for _, t in setup_times], peak_rss_kb)
    wall = end_to_end(run, wall_passes, [t for t, _ in setup_times], peak_rss_kb)
    times, layer = per_layer(run, tracer, untraced, traced, sums, maxima) if trace else (None, None)
    if trace:
        tracer.write(ROOT / ".perfbench" / f"spans-{name}-seed{seed}.jsonl")

    print(f"# efl benchmark: workload {name}, seed {seed}, {seconds} s, trace {int(trace)}")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, one process, one thread, "
          "closed loop; shared machine, no CPU pinning")
    print(f"# {len(items)} instances per pass, {len(passes)} passes timed untraced")
    beyond = sum(1 for one in nominal_passes for t in one if t * 1e3 > e2e["latency_p90_ms"][0])
    print(f"# {beyond} samples beyond p90")
    print_table("end-to-end, at nominal speed (untraced)", e2e)
    print_table("end-to-end, wall-clock (untraced)", wall)
    refs = statistics.quantiles(speed.refs, n=10)
    print(f"# reference loop: p10 {refs[0] * 1e3:.3f} ms, median {statistics.median(speed.refs) * 1e3:.3f} ms, "
          f"p90 {refs[8] * 1e3:.3f} ms over {len(speed.refs)}; nominal {NOMINAL_REF_S * 1e3:.3f} ms")
    print(f"failed_share {_share(run.failed, run.attempted):.6g} "
          f"({run.failed} of {run.attempted}) {dict(run.failures)}")
    print(f"# engine not ok (counted in matrix_engine.ok_share, not as failed): "
          f"{run.not_colored()} of {len(items)} instances")
    if trace:
        print_table("per-layer self time per instance, at nominal speed (traced passes)", times)
        print_table("per-layer metrics (traced passes; shares are of untraced time)", layer)
        durations = tracer.durations(BASELINE_SPAN)
        baseline = [
            t for seq, t in durations.items()
            if workload.label(items[seq % len(items)]) == BASELINE_LABEL
        ]
        if baseline:
            print(f"# {BASELINE_LABEL} engine, wall-clock in the traced passes: median {statistics.median(baseline):.3f} s "
                  f"over {len(baseline)} (ROADMAP baseline {BASELINE_S} s)")
    print(f"# output digest sha256 {run.digest()} over {len(items)} instances")
    for problem in run.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    correct = not run.problems
    metrics = layer if trace else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Each workload in a process of its own; the last line nests their metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][name] = result["metrics"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "efl" / "__init__.py").is_file():
        print(f"error: no efl package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
