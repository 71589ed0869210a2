"""stratgame benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition runs the workload's whole
batch in a fresh interpreter (``child.py``), because CLI users pay the
import, the environment build and its validation on every call.  A closed
loop: repetitions run back to back, one process at a time, and every
experiment runs with ``threads=1``.  Repetitions are started while the
previous one's duration still fits in ``--seconds``; every repetition of a
run uses the same inputs, and metrics are medians over repetitions.

Times are corrected for the speed of the CPU.  On a shared host other
tenants slow the CPU by up to about twice, for seconds to minutes at a
time, and wall-clock medians follow them.  So the benchmark pins itself and
its repetitions to one CPU, where a ``SpeedProbe`` thread times a fixed
loop every 10 ms.  A repetition's ``setup_s`` and ``wall_s`` are its
wall-clock intervals divided by the probe's mean slowdown over each; the
raw wall-clock figures are printed and recorded beside them.

With ``--trace 1`` untraced and traced repetitions alternate: the traced
ones give the per-layer metrics and their per-seed rows must equal the
untraced ones.

The last line of standard output is the JSON result.  The full record,
with machine facts and per-seed rows, is written to ``bench/out/``.  Exit
status: 0 when every output is correct, 1 when any is wrong (after printing
the result), 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RUN_LIMIT_S = 170  # a whole run, repetitions included, ends within this

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402

# Declared in BENCHMARK.json; the result line carries exactly these.
END_TO_END = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed and recorded as well; the rates apply to one kind of workload each.
REPORTED = {**END_TO_END, "rounds_per_s": "rounds/s", "loss_evals_per_s": "evals/s",
            "oracle_queries_per_s": "queries/s", "failed_frac": "ratio",
            "setup_clock_s": "s", "wall_clock_s": "s", "cpu_slowdown": "ratio"}


TIME_UNITS = {"s", "ms", "us"}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpeedProbe:
    """Samples the speed of the CPU that the repetitions run on.

    A daemon thread pinned to ``cpu`` times ``LOOPS`` iterations of a fixed
    pure-Python loop every ``PERIOD_S``.  The repetition's process, pinned to
    the same CPU, gives way to it for that long, 3 to 5% of the time.  When
    other tenants of the host slow the CPU, the loop and the repetition slow
    alike.  ``slowdown(a, b)`` is the probe's mean loop time over the
    interval [a, b] divided by ``REF_S``, about the loop's fastest time on
    the 2.0 GHz Xeon vCPU described in README.md.  Dividing a wall-clock
    interval by it gives seconds at that reference speed.
    """

    LOOPS = 1500
    PERIOD_S = 0.01
    REF_S = 270e-6
    MIN_SAMPLES = 5  # shorter intervals use the samples nearest to them

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.starts: list = []
        self.durations: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @staticmethod
    def _loop(n: int) -> float:
        counts, acc = {}, 0.0
        for i in range(n):
            k = i & 1023
            counts[k] = counts.get(k, 0) + 1
            acc += (i * 0.5) ** 0.5
        return acc

    def _sample(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(self.PERIOD_S):
            t0 = _now()
            self._loop(self.LOOPS)
            t1 = _now()
            self.durations.append(t1 - t0)
            self.starts.append(t0)  # appended last: a reader sees whole samples

    def slowdown(self, a: float, b: float) -> float:
        n = len(self.starts)
        if n < self.MIN_SAMPLES:
            raise BenchError("the CPU speed probe took too few samples")
        i, j = bisect.bisect_left(self.starts, a, 0, n), bisect.bisect_right(self.starts, b, 0, n)
        if j - i < self.MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (a + b) / 2, 0, n)
            i = max(0, min(mid - self.MIN_SAMPLES // 2, n - self.MIN_SAMPLES))
            j = i + self.MIN_SAMPLES
        return statistics.fmean(self.durations[i:j]) / self.REF_S


def run_rep(workload: str, seed: int, trace: bool, tiny: bool = False,
            timeout: float = RUN_LIMIT_S) -> dict:
    """One repetition in a fresh interpreter; returns the child's record."""
    spans_path = OUT / f"spans-{workload}.npz" if trace else None
    spec = {"workload": workload, "seed": seed, "trace": int(trace), "tiny": tiny,
            "src": str(SRC), "spans_path": str(spans_path) if spans_path else None}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spec["t_spawn"] = _now()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition failed:\n{proc.stderr[-2000:]}")
    return {**json.loads(proc.stdout.splitlines()[-1]), "t_spawn": spec["t_spawn"]}


def rates(rep: dict) -> dict:
    """Work per second of one repetition, by the workload's own unit of work,
    at the probe's reference CPU speed."""
    work, speed = rep["work"], rep["slowdown_run"]
    if "rounds" in work:
        rounds_per_s = work["rounds"] / rep["wall_s"] * speed
        return {"work_per_s": rounds_per_s, "rounds_per_s": rounds_per_s}
    loss_evals_per_s = work["loss_evals"] / work["loss_s"] * speed if work["loss_s"] else 0.0
    return {"work_per_s": loss_evals_per_s, "loss_evals_per_s": loss_evals_per_s,
            "oracle_queries_per_s": (work["oracle_queries"] / work["oracle_s"] * speed
                                     if work["oracle_s"] else 0.0)}


def corrected_wall(rep: dict) -> float:
    return rep["wall_s"] / rep["slowdown_run"]


def end_to_end(reps: list) -> dict:
    """Median of each end-to-end metric over untraced repetitions."""
    per_rep = [{"setup_s": r["setup_s"] / r["slowdown_setup"], "wall_s": corrected_wall(r),
                "peak_rss_mb": r["peak_rss_mb"], **rates(r),
                "setup_clock_s": r["setup_s"], "wall_clock_s": r["wall_s"],
                "cpu_slowdown": r["slowdown_run"]} for r in reps]
    return {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}


def per_layer(traced: list, plain: list) -> dict:
    """Medians over traced repetitions; times at the reference CPU speed."""
    out = {k: statistics.median(r["layers"][k] / (r["slowdown_run"] if unit in TIME_UNITS
                                                  else 1.0) for r in traced)
           for k, unit in spans.LAYER_METRICS.items() if k != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (statistics.median(map(corrected_wall, traced))
                                  / statistics.median(map(corrected_wall, plain)) - 1.0)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            probe: SpeedProbe) -> list:
    """Repetitions until the next one would overrun ``seconds``; with
    tracing, untraced and traced repetitions alternate in pairs whose order
    flips each time.  Each repetition gets the probe's slowdown over its
    set-up and over its timed part."""
    start = _now()
    deadline = start + seconds

    def rep(traced):
        r = run_rep(workload, seed, traced, timeout=start + RUN_LIMIT_S - _now())
        r["slowdown_setup"] = probe.slowdown(r["t_spawn"], r["t_spawn"] + r["setup_s"])
        r["slowdown_run"] = probe.slowdown(r["t_start"], r["t_start"] + r["wall_s"])
        return r

    reps = []
    while True:
        started = _now()
        if trace:
            order = (False, True) if len(reps) % 4 == 0 else (True, False)
            reps.extend(rep(t) for t in order)
        else:
            reps.append(rep(False))
        if _now() + (_now() - started) > deadline:
            return reps


def check(reps: list) -> list:
    """Correctness problems across repetitions: each repetition's own
    errors, and any per-seed row that differs between repetitions."""
    problems = [e for r in reps for e in r["errors"]]
    if any(r["rows"] != reps[0]["rows"] for r in reps):
        problems.append("per-seed rows differ between repetitions"
                        + (" (traced vs untraced)" if any(r["traced"] for r in reps) else ""))
    return problems


def _loadavg() -> list:
    return Path("/proc/loadavg").read_text().split()[:3]


def _git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts(load_start: list, numpy_version: str) -> dict:
    nproc = shutil.which("nproc")
    return {
        "nproc": (int(subprocess.run([nproc], capture_output=True, text=True,
                                     timeout=30).stdout) if nproc else None),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
    }


def _fmt(name: str, value, unit: str) -> str:
    return f"  {name:<44} {value:>14.6g} {unit}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "stratgame" / "__init__.py").is_file():
        print(f"error: no stratgame sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    load_start = _loadavg()
    OUT.mkdir(exist_ok=True)
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})  # repetitions inherit it
    try:
        with SpeedProbe(cpu) as probe:
            reps = measure(args.workload, args.seed, args.seconds, bool(args.trace), probe)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        os.sched_setaffinity(0, cpus)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    problems = check(reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if problems and not failed:
        failed = attempted  # rows that change between repetitions are all suspect
    e2e = end_to_end(plain)
    e2e["failed_frac"] = failed / attempted
    metrics = per_layer(traced, plain) if args.trace else {k: e2e[k] for k in END_TO_END}
    units = spans.LAYER_METRICS if args.trace else END_TO_END
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    machine = machine_facts(load_start, reps[0]["numpy"])
    durations = sorted(probe.durations)
    machine["speed_probe"] = {"cpu": cpu, "samples": len(durations),
                              "loop_s_min": durations[0],
                              "loop_s_p01": durations[len(durations) // 100],
                              "loop_s_median": statistics.median(durations),
                              "ref_s": SpeedProbe.REF_S}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": result, "end_to_end": e2e,
              "problems": problems, "machine": machine,
              "repetitions": [{k: v for k, v in r.items() if k != "detail"} for r in reps],
              "span_detail": traced[-1]["detail"] if traced else None}
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    spec = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced"
          f" + {len(traced)} traced repetitions of {spec.batch}"
          f" {'seeds' if spec.kind == 'simulation' else 'draws per Monte Carlo query'}")
    for k, v in e2e.items():
        print(_fmt(k, v, REPORTED[k]))
    if args.trace:
        for k, v in metrics.items():
            print(_fmt(k, v, units[k]))
    for p in problems:
        print(f"  WRONG: {p}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
