"""Self-tests of the benchmark.  Run: python3 -m pytest -q bench/tests

The command tests run every workload at full size for one repetition, so
this file takes about a minute.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed():
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    names += [*run.REPORTED, *spans.LAYER_METRICS]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names


def test_declared_names_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == spans.LAYER_METRICS


def test_predictions_cite_declared_names():
    table = json.loads((BENCH / "predictions.json").read_text())
    assert set(table["gated_as"]) <= set(run.REPORTED)
    for row in table["predictions"]:
        assert set(row["layer"]) <= set(spans.LAYER_METRICS), row
        assert set(row["moves"]) <= set(run.REPORTED), row
        assert set(row["on"]) | set(row["flat_on"]) <= set(workloads.WORKLOADS), row


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_command_prints_the_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(f"workload {workload} seed 0:")
    printed = {ln.split()[0] for ln in lines[1:-2]}
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) <= printed
    kind_extras = ({"loss_evals_per_s", "oracle_queries_per_s"}
                   if workloads.WORKLOADS[workload].kind == "referee" else {"rounds_per_s"})
    assert {*run.END_TO_END, "failed_frac", *kind_extras} <= printed


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_passes_the_gate_and_tracing_keeps_rows(workload):
    plain = run.run_rep(workload, 3, trace=False, tiny=True)
    traced = run.run_rep(workload, 3, trace=True, tiny=True)
    for rep in (plain, traced):
        assert rep["errors"] == [] and rep["failed"] == 0 and rep["attempted"] >= 1
    assert plain["rows"] == traced["rows"] and plain["rows"]
    assert set(traced["layers"]) == set(spans.LAYER_METRICS) - {"trace.overhead_frac"}


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    leaf = tracer.wrap("core.geometry.dist", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        leaf()
        leaf()

    tracer.wrap("protocol.run_online", body)()
    s = tracer.summary()
    top = s.mask("protocol.run_online")
    assert s.mask("core.geometry.dist").sum() == 2
    assert s.dur_ns[top][0] >= 0.05e9
    assert 0.01e9 <= s.self_ns[top][0] < 0.02e9
    assert (s.parent_row[s.mask("core.geometry.dist")] == top.nonzero()[0][0]).all()


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "child.py", "spans.py", "workloads.py"):
        (tmp_path / "bench" / f).write_bytes((BENCH / f).read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "halving-star", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_speed_probe_slowdown_averages_the_interval():
    probe = run.SpeedProbe(cpu=0)
    ref = run.SpeedProbe.REF_S
    probe.starts = [0.01 * i for i in range(100)]
    probe.durations = [ref] * 50 + [2 * ref] * 50
    assert probe.slowdown(0.0, 0.49) == pytest.approx(1.0)
    assert probe.slowdown(0.50, 0.99) == pytest.approx(2.0)
    assert probe.slowdown(0.25, 0.745) == pytest.approx(1.5)
    # an interval shorter than MIN_SAMPLES uses the samples nearest to it:
    # two before it at speed 1 and three after it at speed 2
    assert probe.slowdown(0.495, 0.496) == pytest.approx(1.6)
    assert probe.slowdown(5.0, 5.001) == pytest.approx(2.0)
