"""Tests of the benchmark itself: the correctness gate, the span arithmetic,
and that a smoke run prints every metric ``BENCHMARK.json`` names.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

EXPECTED = {"lemma/A1": "pass", "freeness/E8": "skipped"}


def report(**statuses) -> bytes:
    checks = [{"name": name.replace("_", "/"), "status": st, "values": {}} for name, st in statuses.items()]
    return json.dumps({"tool_version": "0", "checks": checks}).encode()


BASELINE_REPORT = report(lemma_A1="pass", freeness_E8="skipped")


def test_gate_accepts_the_baseline_statuses():
    assert run.gate(0, BASELINE_REPORT, EXPECTED) == []


def test_gate_accepts_skipped_turning_pass_and_new_checks():
    assert run.gate(0, report(lemma_A1="pass", freeness_E8="pass", new_check="pass"), EXPECTED) == []


def test_gate_rejects_nonzero_exit():
    assert run.gate(1, BASELINE_REPORT, EXPECTED) == ["exit code 1"]


@pytest.mark.parametrize(
    "stdout",
    [
        b"",
        BASELINE_REPORT[:-7],
        b'{"checks": 3}',
        report(freeness_E8="skipped"),  # a check present in the baseline is missing
        report(lemma_A1="skipped", freeness_E8="skipped"),  # pass became skipped
        report(lemma_A1="pass", freeness_E8="fail"),
        report(lemma_A1="pass", freeness_E8="skipped", new_check="fail"),
    ],
    ids=["empty", "truncated", "no-list", "missing", "pass-to-skipped", "skipped-to-fail", "new-fail"],
)
def test_gate_rejects_a_corrupted_report(stdout):
    assert run.gate(0, stdout, EXPECTED)


def test_session_counts_failures_and_requires_identical_repeats():
    session = run.Session({"x": EXPECTED})
    assert session.check(["x"], 0, BASELINE_REPORT)
    # Same statuses, different bytes: the gate passes but the repeat does not.
    assert not session.check(["x"], 0, BASELINE_REPORT.replace(b'"0"', b'"1"'))
    assert not session.check(["x"], 2, BASELINE_REPORT)
    assert (session.attempted, session.failed) == (3, 2)


def span(id, name, start, end, parent=None):
    return spans.Span(id=id, name=name, start=start, end=end, parent=parent, invocation=0)


# cli.main [0, 100] holds weyl.generate_group [10, 40] and
# inv.invariant_report [50, 90]; the report holds inv.invariant_dim [55, 65]
# and [70, 75], and the first of those holds another inv.invariant_dim [56, 60].
TREE = [
    span(0, "cli.main", 0, 100),
    span(1, "weyl.generate_group", 10, 40, 0),
    span(2, "inv.invariant_report", 50, 90, 0),
    span(3, "inv.invariant_dim", 55, 65, 2),
    span(4, "inv.invariant_dim", 56, 60, 3),
    span(5, "inv.invariant_dim", 70, 75, 2),
]


def test_self_times_on_a_hand_built_tree():
    assert spans.self_times(TREE) == {0: 30, 1: 30, 2: 25, 3: 6, 4: 4, 5: 5}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [span(0, "a", 0, 10), span(1, "b", 2, 6, 0), span(2, "c", 4, 8, 0), span(3, "d", 9, 12, 0)]
    # Children cover [2, 8] and [9, 10] of the parent's interval.
    assert spans.self_times(tree)[0] == 3


def test_busy_time_counts_nested_spans_of_one_name_once():
    assert spans.busy(TREE, ["inv.invariant_dim"]) == 15
    assert spans.busy(TREE, ["inv.invariant_report", "inv.invariant_dim"]) == 40
    metrics = spans.layer_metrics(TREE)
    assert metrics["inv.invariant_dim.calls"] == (3, "count")
    assert metrics["inv.invariant_dim.s"] == (pytest.approx(15e-9), "s")
    assert metrics["weyl.self_s"] == (pytest.approx(30e-9), "s")
    assert metrics["inv.self_s"] == (pytest.approx(40e-9), "s")
    layer_self = [v for k, (v, _) in metrics.items() if k.endswith(".self_s") and k.count(".") == 1]
    assert sum(layer_self) == pytest.approx(100e-9)


def test_span_self_check():
    assert run.span_problems(TREE, 0, 100) == []
    assert run.span_problems(TREE, 5, 100)  # the top-level span starts before the invocation
    assert run.span_problems(TREE[1:], 0, 100)  # no top-level span
    assert run.span_problems([span(0, "cli.main", 0, 100), span(1, "x", 60, 50, 0)], 0, 100)


def test_wrappers_record_spans_and_are_removed_afterwards():
    sys.path.insert(0, str(ROOT / "src"))
    import roothk.cli
    import roothk.hk_analysis

    original = roothk.cli.generate_group
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert roothk.cli.generate_group is roothk.hk_analysis.generate_group is not original
        roothk.cli.main(["analyze", "A", "2"])
    assert roothk.cli.generate_group is roothk.hk_analysis.generate_group is original
    assert tracer.spans[0].name == "cli.main" and tracer.spans[0].parent is None
    names = {s.name for s in tracer.spans}
    assert {"weyl.generate_group", "hk.analyze", "cli.render", "inv.irreducibility_check"} <= names
    group = next(s for s in tracer.spans if s.name == "weyl.generate_group")
    assert group.counts == {"elements": 6, "array_bytes": 24}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_every_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " ") for line in lines[:-1])
    assert any(line.startswith("failed_ratio ") for line in lines[:-1])


def test_run_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "spans.py", "baseline.json"):
        (tmp_path / "bench" / f).write_bytes((BENCH / f).read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
