"""One repetition of a benchmark workload in a fresh interpreter.

``run.py`` starts this script once per repetition with a JSON spec as its
only argument, and PYTHONPATH pointing at the checkout's ``src``:

    {"workload": NAME, "seed": N, "trace": 0|1, "tiny": false,
     "src": the checkout's src directory,
     "t_spawn": CLOCK_MONOTONIC seconds just before the spawn,
     "spans_path": PATH or null}

It prints one JSON line: set-up time (spawn to the end of the workload's
``make_environment`` calls), the workload's outcome, peak RSS and, when
traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(spec: dict) -> dict:
    import workloads

    wl = workloads.build(spec["workload"], spec["seed"], spec["tiny"])
    wl.setup()
    setup_s = _now() - spec["t_spawn"]

    import numpy
    import stratgame

    src = Path(spec["src"]).resolve()
    if src not in Path(stratgame.__file__).resolve().parents:
        raise SystemExit(f"stratgame imported from {stratgame.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        if isinstance(wl, workloads.Referee):
            wl.on_query = lambda run_id: setattr(tracer, "run_id", run_id)
    outcome = wl.run()
    out = {"setup_s": setup_s, "traced": tracer is not None, **asdict(outcome),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "numpy": numpy.__version__}
    if tracer is not None:
        tracer.uninstall()
        work = outcome.work
        out["layers"], out["detail"] = spans.layer_metrics(
            tracer, rounds=work.get("rounds", 0), stream_agents=work.get("stream_agents", 0),
            mc_samples=work.get("mc_samples", 0), support_atoms=work.get("support_atoms", 0))
        if spec.get("spans_path"):
            tracer.save(spec["spans_path"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
