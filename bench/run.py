"""Benchmark for the roothk command line: end-to-end and per-layer numbers.

    python3 bench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Each workload is a fixed list of ``roothk`` invocations (the program is exact
and deterministic, so the seed only shuffles the order of invocations within
a pass; every order is recorded).  The load is a closed loop with one client:
one invocation at a time, each in a fresh interpreter, no threads.

``--trace 0`` measures the end-to-end metrics: it times ``import roothk.cli``
in fresh interpreters before and after the passes (``setup_s``, the median
of the samples), runs whole passes of the workload until ``--seconds``
have passed, and reports the median pass wall time and the median of each
pass's highest child peak RSS.  ``--trace 1`` runs one pass in children, then
each invocation of the same pass twice in this process through
``roothk.cli.main``: untraced, and with every public function of the layer
modules wrapped in spans (see ``spans.py``).  It reports the per-layer
metrics, and the difference of the two in-process times as the tracing
overhead.

Every invocation goes through the correctness gate (``gate``), against the
check statuses recorded in ``baseline.json`` when the benchmark was added.
Human-readable lines go first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a full
record of each run (environment, orders, per-invocation numbers, problems)
are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
BASELINE = BENCH_DIR / "baseline.json"

# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    "suite": (("report", "--suite", "default"),),
    "generator_ranks": tuple(("analyze", "A", str(n), "--lattice", "dual") for n in (12, 14, 16)),
    "towers": (
        ("sublattices", "A", "15"),
        ("sublattices", "A", "23"),
        ("sublattices", "B", "10"),
        ("sublattices", "D", "8"),
    ),
    # Seconds-long stand-in used by the benchmark's own tests.
    "smoke": (("analyze", "A", "3"), ("sublattices", "A", "3")),
}
ALL = ("suite", "generator_ranks", "towers")

SETUP_SAMPLES = 24
# No pass starts if it could end later than this after the first one began,
# which keeps every run well inside the 180 s a run may take.
PASS_BUDGET_S = 120.0
E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    """The whole environment of every child: a user's ROOTHK_GROUP_CAP or
    PYTHONPATH must not change a workload."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONIOENCODING": "utf-8",
    }


# --- correctness gate -------------------------------------------------------------


def gate(returncode, stdout: bytes, expected: dict[str, str]) -> list[str]:
    """Problems with one invocation's result, judged by check status and name.

    ``expected`` maps each check name in the baseline to its status there.
    Values and new fields are not compared, so a change may add them.
    """
    problems = [] if returncode == 0 else [f"exit code {returncode}"]
    try:
        checks = {c["name"]: c["status"] for c in json.loads(stdout)["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"stdout is not a JSON report ({exc!r})"]
    for name, was in expected.items():
        now = checks.get(name)
        if now is None:
            problems.append(f"{name}: missing")
        elif was == "pass" and now != "pass":
            problems.append(f"{name}: {now}, was pass")
        elif was == "skipped" and now not in ("skipped", "pass"):
            problems.append(f"{name}: {now}, was skipped")
    problems += [f"{name}: fail" for name, now in checks.items() if now == "fail"]
    return problems


@dataclass
class Session:
    """Gate state of one run: counts, problems and the first stdout of each
    invocation, against which every repeat must be byte-identical."""

    baseline: dict[str, dict[str, str]]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_stdout: dict[str, bytes] = field(default_factory=dict)

    def check(self, argv, returncode, stdout: bytes, extra=()) -> bool:
        key = " ".join(argv)
        problems = gate(returncode, stdout, self.baseline[key]) + list(extra)
        if self.first_stdout.setdefault(key, stdout) != stdout:
            problems.append("stdout differs from an earlier run of the same invocation")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{key}: {p}" for p in problems]
        return not problems


# --- untraced runs in child processes --------------------------------------------


@dataclass
class Child:
    returncode: int
    stdout: bytes
    wall_s: float
    peak_rss_mb: float


def run_child(args: list[str]) -> Child:
    """Run ``python3 <args>`` and read this child's own peak RSS with wait4."""
    with tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT
        )
        try:
            stdout = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
    return Child(proc.returncode, stdout, wall, usage.ru_maxrss * 1024 / 1e6)


def measure_setup(samples: int) -> list[float]:
    """Wall times of ``import roothk.cli`` in fresh interpreters, after one
    discarded warm-up that also leaves the bytecode cache filled."""
    walls = []
    for i in range(samples + 1):
        child = run_child(["-c", "import roothk.cli"])
        if child.returncode != 0:
            raise BenchError("`import roothk.cli` failed in a fresh interpreter")
        if i:
            walls.append(child.wall_s)
    return walls


def run_pass(order, session: Session) -> dict:
    invocations = []
    start = time.perf_counter()
    for argv in order:
        child = run_child(["-m", "roothk.cli", *argv])
        ok = session.check(argv, child.returncode, child.stdout)
        invocations.append(
            {"argv": list(argv), "wall_s": child.wall_s, "peak_rss_mb": child.peak_rss_mb, "ok": ok}
        )
    return {
        "order": [" ".join(a) for a in order],
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb": max(i["peak_rss_mb"] for i in invocations),
        "invocations": invocations,
    }


def shuffled(workload: str, rng: random.Random) -> list[tuple[str, ...]]:
    order = list(WORKLOADS[workload])
    rng.shuffle(order)
    return order


def run_untraced(workload: str, seed: int, seconds: float, session: Session):
    rng = random.Random(seed)
    # Half the set-up samples are taken before the passes and half after, so
    # they span the run rather than one moment of it.
    setup = measure_setup(SETUP_SAMPLES // 2)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(shuffled(workload, rng), session))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + passes[-1]["wall_s"] > PASS_BUDGET_S:
            break
    setup += measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
    }
    record = {"setup_samples_s": setup, "passes": passes}
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, record


# --- traced run in this process --------------------------------------------------


def span_problems(own: list[spans.Span], start_ns: int, end_ns: int) -> list[str]:
    """Self-check of one traced invocation's spans."""
    problems = []
    tops = [s for s in own if s.parent is None]
    if not tops:
        problems.append("no spans recorded")
    if any(s.start < start_ns or s.end > end_ns for s in tops):
        problems.append("a top-level span lies outside the invocation's wall time")
    if any(t < 0 for t in spans.self_times(own).values()):
        problems.append("negative self time")
    return problems


def in_process(argv, caches) -> tuple[int, bytes, int, int]:
    """Run one invocation through ``roothk.cli.main`` in this process.

    Memoised functions are emptied first, so each invocation starts as cold
    as it would in a fresh interpreter.  Returns the exit code, stdout and
    the start and end in ``perf_counter_ns``.
    """
    import roothk.cli

    for cache in caches:
        cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    start_ns = time.perf_counter_ns()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = roothk.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    end_ns = time.perf_counter_ns()
    return code, out.getvalue().encode(), start_ns, end_ns


def in_process_pass(order, tracer: spans.Tracer, session: Session) -> tuple[int, int, int]:
    """Run ``order`` in this process, each invocation first untraced and then
    with spans on, so the two sides differ only by the wrappers.

    Returns the untraced and traced busy time in ns and the stdout bytes
    written by the traced side.
    """
    import roothk.cli  # noqa: F401  (loads every layer module)

    caches = [
        obj
        for name in spans.LAYERS
        for obj in vars(sys.modules[f"roothk.{name}"]).values()
        if hasattr(obj, "cache_clear")
    ]
    untraced_ns = traced_ns = stdout_bytes = 0
    for invocation, argv in enumerate(order):
        code, data, start_ns, end_ns = in_process(argv, caches)
        untraced_ns += end_ns - start_ns
        session.check(argv, code, data)

        tracer.invocation = invocation
        first = len(tracer.spans)
        with spans.installed(tracer):
            code, data, start_ns, end_ns = in_process(argv, caches)
        traced_ns += end_ns - start_ns
        stdout_bytes += len(data)
        session.check(argv, code, data, span_problems(tracer.spans[first:], start_ns, end_ns))
    return untraced_ns, traced_ns, stdout_bytes


def run_traced(workload: str, seed: int, session: Session):
    """One pass in children, whose stdout every in-process run must repeat
    byte for byte, then the in-process untraced and traced runs."""
    order = shuffled(workload, random.Random(seed))
    children = run_pass(order, session)
    tracer = spans.Tracer()
    untraced_ns, traced_ns, stdout_bytes = in_process_pass(order, tracer, session)
    metrics = spans.layer_metrics(tracer.spans)
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    metrics["trace.overhead_s"] = ((traced_ns - untraced_ns) / 1e9, "s")
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.to_json()) + "\n")
    record = {
        "passes": [children],
        "in_process_untraced_s": untraced_ns / 1e9,
        "in_process_traced_s": traced_ns / 1e9,
        "spans_file": str(path.relative_to(ROOT)),
    }
    return metrics, record


# --- reporting -------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy

    from roothk.weyl import DEFAULT_GROUP_CAP

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "group_cap": DEFAULT_GROUP_CAP,
        "seed": seed,
    }


def summarize(workload: str, metrics: dict, record: dict, session: Session) -> None:
    print(f"== {workload}")
    for p in record["passes"]:
        print(f"pass {p['wall_s']:.3f} s, peak RSS {p['peak_rss_mb']:.1f} MB: {' | '.join(p['order'])}")
    walls = sorted(p["wall_s"] for p in record["passes"])
    if "wall_s" in metrics:
        # With fewer than eleven passes no percentile has ten samples above it,
        # so the upper figure is the maximum.
        print(f"wall_s median {statistics.median(walls):.3f} s, max {walls[-1]:.3f} s, n={len(walls)} passes")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" if isinstance(value, float) else f"{name} {value} {unit}")
    print(f"failed_ratio {session.failed}/{session.attempted} = {session.failed / session.attempted:g}")
    for problem in session.problems:
        print(f"FAILED {problem}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "roothk" / "cli.py").is_file():
        print(f"bench: no roothk sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("ROOTHK_GROUP_CAP", None)  # the traced run reads this process's environment
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    baseline = json.loads(BASELINE.read_text())
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))

    workloads = ALL if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    result_metrics = {}
    try:
        for workload in workloads:
            session = Session(baseline)
            if args.trace:
                metrics, record = run_traced(workload, args.seed, session)
            else:
                metrics, record = run_untraced(workload, args.seed, args.seconds, session)
            summarize(workload, metrics, record, session)
            record.update(
                environment=env,
                workload=workload,
                trace=args.trace,
                metrics=metrics,
                attempted=session.attempted,
                failed=session.failed,
                problems=session.problems,
            )
            out = OUT_DIR / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
            out.write_text(json.dumps(record, indent=1) + "\n")
            attempted += session.attempted
            failed += session.failed
            prefix = f"{workload}." if len(workloads) > 1 else ""
            result_metrics.update(
                {prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
            )
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
