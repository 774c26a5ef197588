"""spinorlab benchmark: seeded closed-loop workloads over the library's public API.

    python3 bench/run.py --workload xi_kernel --seed 0 --seconds 40 --trace 0

One client, one process, no threads: each task is issued when the previous
one has been checked.  With ``--trace 0`` the run measures for
``--seconds`` (and at least MIN_TASKS tasks) and reports the end-to-end
metrics.  With ``--trace 1`` it runs the first TRACE_TASKS tasks of the
same seeded stream twice, untraced and then traced, and reports the
per-layer metrics and the tracing overhead.  ``--workload all`` runs every
workload in turn, each in a fresh child process of its own, so that no
workload's peak memory or warm caches carry into the next.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
provenance and the per-kind detail.

Only the time inside each request counts as task time; generating inputs
and checking results against the oracle happen outside it.  The timings
are reported at a fixed reference speed of the host (see ``speed_probe``);
the detail line holds them unscaled too.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
WORKLOADS = ("xi_kernel", "spin_relations", "cli_mix")

DEFAULT_SEED = 0
MIN_TASKS = 1000  # a p99 needs ten samples above it
MAX_SECONDS = 150  # stop extending a slow run towards MIN_TASKS here
WARMUP_TASKS = 30
DIGEST_TASKS = 200
TRACE_TASKS = 500
SETUP_RUNS = 25
PROBE_S = 3e-4  # the time scale tasks are reported at: one speed probe takes this long
PROBE_WINDOW = 10  # probes on each side of a task that give the host's speed around it


def warm_caches(workload: str) -> None:
    """Fill spinorlab's lazy caches for the ranks the workload uses."""
    from spinorlab import matrices

    if workload == "xi_kernel":
        for n in range(2, 7):
            matrices.point_blade_images(n)
    elif workload == "cli_mix":
        for n in range(1, 5):
            matrices.build_xi_symbolic(n)
            matrices.point_blade_images(n)
            for mask in range(1 << (2 * n)):
                matrices.blade_image(n, mask)


def setup_probe(workload: str) -> None:
    """Print the seconds this fresh interpreter takes to import and warm spinorlab."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import spinorlab  # noqa: F401

    if workload == "cli_mix":
        import spinorlab.cli  # noqa: F401
    warm_caches(workload)
    print(perf_counter() - start)


def setup_time(workload: str) -> float:
    """Seconds one fresh interpreter takes to import and warm spinorlab.

    ``-I`` keeps the environment and this directory off the probe's
    sys.path, which is why this file imports the other benchmark modules
    only inside functions.
    """
    done = subprocess.run(
        [sys.executable, "-I", str(Path(__file__).resolve()), "--setup-probe", workload],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def speed_probe() -> float:
    """Seconds a fixed piece of Fraction arithmetic takes on the host now.

    The host is shared, and its CPU runs in fast and slow spells, up to
    1.8x apart and from seconds to minutes long, that neither a longer run
    nor a low percentile removes.  A probe before every task tracks them.
    It does the library's kind of work, exact rational arithmetic, with the
    collector off, so that the library's garbage is not collected inside it.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def at_reference_speed(timings, probes: list[float]) -> list[float]:
    """Each ``(index, seconds)`` timing scaled from the host's speed around
    task ``index`` to PROBE_S.

    The local speed is the median of the PROBE_WINDOW probes on each side of
    the task.  The scale is a constant, not taken from the run, so a run
    that falls wholly in a slow spell reads the same as one that does not,
    while a change to the library's own speed passes through unscaled.
    """
    return [seconds * PROBE_S / statistics.median(probes[max(0, index - PROBE_WINDOW):index + PROBE_WINDOW + 1])
            for index, seconds in timings]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """Outcome of a sequence of tasks: latencies, failures, kinds and digest."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.indices: list[int] = []
        self.kinds: Counter = Counter()
        self.failures: Counter = Counter()
        self.known_failures: Counter = Counter()
        self.first_errors: dict[str, str] = {}
        self.digest = hashlib.sha256()
        self.output_bytes = 0

    @property
    def attempted(self) -> int:
        return sum(self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def known_defects(self) -> int:
        """Tasks that ended in a documented open defect, exactly as documented.

        They are counted apart from ``failed``: the task behaved as the
        benchmark expects of the current library.  Once the defect is
        fixed, the task passes its own oracle instead.
        """
        return sum(self.known_failures.values())

    def execute(self, index: int, task, tracer=None) -> None:
        from oracle import OracleError
        from workloads import CliResult

        self.kinds[task.kind] += 1
        start = perf_counter()
        try:
            result = tracer.run_task(index, task.run) if tracer else task.run()
            latency = perf_counter() - start
            canonical = task.check(result)
        except OracleError as exc:
            self._fail(task, f"OracleError: {exc}", known=False)
            return
        except Exception as exc:  # any escape from the library is a failed task
            known = type(exc).__name__ == task.known_defect
            self._fail(task, traceback.format_exc(limit=-3), known)
            return
        self.latencies.append(latency)
        self.indices.append(index)
        if isinstance(result, CliResult):
            self.output_bytes += len(result.stdout.encode())
        if index < DIGEST_TASKS:
            self.digest.update(task.kind.encode() + b"\0" + canonical + b"\0")

    def _fail(self, task, message: str, known: bool) -> None:
        (self.known_failures if known else self.failures)[task.kind] += 1
        self.first_errors.setdefault(task.kind, message)


def run_tasks(workload: str, seed: int, stop, tracer=None, between=None) -> Run:
    """Run the seeded stream until ``stop(count, elapsed)`` is true.

    ``between(elapsed)``, when given, is called before each task, outside
    the task's timed region.
    """
    from workloads import tasks

    run = Run()
    start = perf_counter()
    for index, task in enumerate(tasks(workload, seed)):
        elapsed = perf_counter() - start
        if stop(index, elapsed):
            break
        if between is not None:
            between(elapsed)
        run.execute(index, task, tracer)
    return run


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * share)) - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from spans import Tracer, layer_metrics

    warm_caches(workload)
    run_tasks(workload, f"warmup:{seed}", lambda i, t: i >= WARMUP_TASKS)
    report: dict = {"workload": workload, "seed": seed, "restored": True}
    if trace:
        fixed = lambda i, t: i >= TRACE_TASKS  # noqa: E731
        plain = run_tasks(workload, seed, fixed)
        tracer = Tracer()
        tracer.install()
        try:
            run = run_tasks(workload, seed, fixed, tracer)
        finally:
            report["restored"] = tracer.uninstall()
        metrics = layer_metrics(tracer)
        metrics["cli.output_bytes"] = (run.output_bytes, "bytes")
        metrics["trace.overhead_ratio"] = (sum(run.latencies) / sum(plain.latencies), "ratio")
        report["spans"] = len(tracer.spans)
    else:
        setup_time(workload)  # compiles the bytecode the timed probes load
        setups: list[tuple[int, float]] = []  # (index of the next task, seconds)
        probes: list[float] = []  # probes[i] ran just before task i

        def between(elapsed: float) -> None:
            # set-up probes are spread evenly over the window
            if len(setups) < SETUP_RUNS and elapsed >= len(setups) * seconds / SETUP_RUNS:
                setups.append((len(probes), setup_time(workload)))
            probes.append(speed_probe())

        run = run_tasks(workload, seed, lambda i, t: t >= MAX_SECONDS or (t >= seconds and i >= MIN_TASKS),
                        between=between)
        scaled = sorted(at_reference_speed(zip(run.indices, run.latencies), probes))
        raw = sorted(run.latencies)
        metrics = {
            "throughput_ops_s": (len(scaled) / sum(scaled), "1/s"),
            "latency_p50_ms": (percentile(scaled, 0.5) * 1e3, "ms"),
            "latency_p99_ms": (percentile(scaled, 0.99) * 1e3, "ms"),
            "setup_s": (statistics.median(at_reference_speed(setups, probes)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report["latency_samples"] = len(scaled)
        report["setup_samples"] = len(setups)
        report["unscaled"] = {
            "throughput_ops_s": len(raw) / sum(raw),
            "latency_p50_ms": percentile(raw, 0.5) * 1e3,
            "latency_p99_ms": percentile(raw, 0.99) * 1e3,
            "setup_s": statistics.median(seconds for _, seconds in setups),
        }
        report["speed_probe_ms"] = {"p5": percentile(sorted(probes), 0.05) * 1e3,
                                    "median": statistics.median(probes) * 1e3}
    expected = json.loads(DIGESTS.read_text()).get(workload) if seed == DEFAULT_SEED else None
    digest = run.digest.hexdigest()
    if expected is not None and expected != digest:
        run.failures["digest"] += 1
    report.update(
        attempted=run.attempted,
        failed=run.failed,
        failed_ratio=run.failed / run.attempted,
        known_defects=run.known_defects,
        digest=digest,
        digest_expected=expected,
        kinds=dict(sorted(run.kinds.items())),
        failures=dict(run.failures),
        known_defect_failures=dict(run.known_failures),
        first_errors=run.first_errors,
        metrics=metrics,
    )
    report["correct"] = not run.failures and report["restored"]
    return report


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def measure_in_child(workload: str, args: argparse.Namespace) -> dict:
    """The report of one workload, measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        capture_output=True, text=True, timeout=2 * MAX_SECONDS + 60,
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{workload} exited {done.returncode} without a result")
    return json.loads(lines[-2])["runs"][0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "spinorlab" / "__init__.py").is_file():
        print(f"error: no spinorlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        reports = [measure_in_child(name, args) for name in WORKLOADS]
    else:
        sys.path.insert(0, str(SRC))
        reports = [measure(args.workload, args.seed, args.seconds, bool(args.trace))]
    prefix = len(reports) > 1
    metrics = {}
    for report in reports:
        for name, (value, unit) in report["metrics"].items():
            key = f"{report['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
            print(f"{report['workload']:15s} {name:36s} {value:>16.6f} {unit}")
        print(f"{report['workload']:15s} {'failed_ratio':36s} {report['failed_ratio']:>16.6f} "
              f"({report['failed']}/{report['attempted']}; known defects {report['known_defects']})")
    print(json.dumps({"provenance": provenance(), "runs": reports}, default=str))
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if all(r["correct"] for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
