"""Span recorder for the traced benchmark run.

``Tracer.install`` wraps the public callables of every stratgame layer from
outside the package: learner ``choose``/``observe``/``finalize``, source
``sample``/``next_agent``, ``EnvSpec.source_for_run``, the
``best_response``/``strategic_loss``/``predict`` names as ``protocol``
imports them, ``ClassDistanceIndex.row``, space ``dist``/``dist_row``,
``run_single_seed``, ``output_loss``, ``monte_carlo_loss``,
``population_loss``, ``exact_loss`` and ``analytic_union_loss``.  Nothing
under ``src/`` changes.  The wrappers read the clock and never draw from
a random stream, so traced runs reproduce untraced per-seed rows.

Every call records a span (name, id, parent id, run id = seed, start, end)
in flat in-memory arrays; ``save`` writes them out when the run ends.  A
span's self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import itertools
import time
from array import array

import numpy as np

# Per-layer metrics of the traced run, with units, in report order.
LAYER_METRICS = {
    "core.geometry.dist_row.calls": "count",
    "core.geometry.dist_row.us_per_call": "us",
    "core.geometry.dist.calls": "count",
    "core.geometry.dist.calls_per_round": "calls/round",
    "core.predictors.index_row.calls": "count",
    "core.predictors.index_row.hit_frac": "ratio",
    "core.predictors.predict.us_per_call": "us",
    "core.response.best_response.calls": "count",
    "core.response.best_response.us_per_call": "us",
    "core.response.strategic_loss.calls": "count",
    "core.response.strategic_loss.us_per_call": "us",
    "core.response.population_loss.us_per_atom": "us",
    "protocol.rounds": "count",
    "protocol.realizability.us_per_round": "us",
    "protocol.round.self_us": "us",
    "learners.choose.calls": "count",
    "learners.choose.us_per_call": "us",
    "learners.observe.calls": "count",
    "learners.observe.us_per_call": "us",
    "learners.observe.shrink_frac": "ratio",
    "environments.sample.calls": "count",
    "environments.sample.us_per_call": "us",
    "environments.next_agent.calls": "count",
    "environments.next_agent.us_per_call": "us",
    "environments.stream.us_per_agent": "us",
    "harness.seed_s.p50": "s",
    "harness.seed_s.p90": "s",
    "harness.seed_s.samples": "count",
    "harness.output_loss.us_per_call": "us",
    "harness.monte_carlo_loss.us_per_sample": "us",
    "oracle.analytic_union_loss.us_per_call": "us",
    "oracle.exact_loss.calls": "count",
    "oracle.exact_loss.ms_per_query": "ms",
    "trace.overhead_frac": "ratio",
}

_COLUMNS = ("name", "id", "parent", "run", "t0", "t1")


def _own_classes(module):
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__]


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in _COLUMNS}
        self._stack = [-1]
        self._ids = itertools.count()
        self.run_id = -1
        self.observe_calls = 0
        self.mistake_observes = 0
        self.shrinking_observes = 0
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self._name_id(name)
        stack, ids, clock, tracer = self._stack, self._ids, time.perf_counter_ns, self
        add = [self.cols[c].append for c in _COLUMNS]
        add_name, add_id, add_parent, add_run, add_t0, add_t1 = add

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                add_name(nid)
                add_id(sid)
                add_parent(parent)
                add_run(tracer.run_id)
                add_t0(t0)
                add_t1(t1)

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # installation

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr: str, name: str) -> None:
        self._patch(module, attr, self.wrap(name, getattr(module, attr)))

    def _patch_methods(self, module, method: str, name) -> None:
        """Wrap ``method`` on every class of ``module`` that defines it itself,
        so inherited definitions are wrapped once, on their owner."""
        for cls in _own_classes(module):
            if method in cls.__dict__:
                label = name(cls) if callable(name) else name
                self._patch(cls, method, self.wrap(label, cls.__dict__[method]))

    def install(self) -> None:
        from stratgame import environments, harness, learners, oracle, protocol
        from stratgame.core import geometry, predictors, response

        for method in ("dist", "dist_row"):
            self._patch_methods(geometry, method, f"core.geometry.{method}")
        self._patch(predictors.ClassDistanceIndex, "row", self.wrap(
            "core.predictors.index_row", predictors.ClassDistanceIndex.__dict__["row"]))

        self._patch_function(protocol, "predict", "core.predictors.predict")
        self._patch_function(protocol, "best_response", "core.response.best_response")
        self._patch_function(protocol, "strategic_loss", "protocol.realizability")
        self._patch_function(protocol, "run_online", "protocol.run_online")
        self._patch_function(harness, "run_online", "protocol.run_online")

        self._patch_methods(learners, "choose", "learners.choose")
        self._patch_methods(learners, "finalize", "learners.finalize")
        for cls in _own_classes(learners):
            if "observe" in cls.__dict__:
                self._patch(cls, "observe", self._observe_counter(
                    self.wrap("learners.observe", cls.__dict__["observe"])))

        self._patch_methods(environments, "sample",
                            lambda cls: f"environments.sample:{cls.tag}")
        self._patch_methods(environments, "next_agent", "environments.next_agent")
        self._patch(environments.EnvSpec, "source_for_run", self.wrap(
            "environments.stream", environments.EnvSpec.__dict__["source_for_run"]))

        self._patch(harness, "run_single_seed", self._seed_scope(
            self.wrap("harness.run_single_seed", harness.run_single_seed)))
        self._patch_function(harness, "output_loss", "harness.output_loss")
        self._patch_function(harness, "monte_carlo_loss", "harness.monte_carlo_loss")
        self._patch_function(harness, "strategic_loss", "core.response.strategic_loss")
        self._patch_function(harness, "analytic_union_loss", "oracle.analytic_union_loss")
        self._patch_function(response, "strategic_loss", "core.response.strategic_loss")
        self._patch_function(response, "population_loss", "core.response.population_loss")
        self._patch_function(oracle, "analytic_union_loss", "oracle.analytic_union_loss")
        self._patch(oracle, "exact_loss", self._per_family(oracle.exact_loss))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _seed_scope(self, fn):
        """Tag every span of one ``run_single_seed(cfg, seed)`` call with the seed."""
        tracer = self

        def scoped(cfg, seed):
            prev, tracer.run_id = tracer.run_id, seed
            try:
                return fn(cfg, seed)
            finally:
                tracer.run_id = prev

        return scoped

    def _observe_counter(self, fn):
        """Count mistake rounds, and those that changed the learner's
        ``state_version``, at the innermost learner that saw the feedback."""
        tracer = self

        def observe(learner, feedback):
            before = learner.state_version()
            mark = tracer.observe_calls = tracer.observe_calls + 1
            fn(learner, feedback)
            if (tracer.observe_calls == mark and before is not None
                    and feedback.mistake):
                tracer.mistake_observes += 1
                if learner.state_version() != before:
                    tracer.shrinking_observes += 1

        return observe

    def _per_family(self, fn):
        """``exact_loss`` spans are named per family tag (its first argument)."""
        wrapped = {}

        def exact_loss(tag, *args, **kwargs):
            w = wrapped.get(tag)
            if w is None:
                w = wrapped[tag] = self.wrap(f"oracle.exact_loss:{tag}", fn)
            return w(tag, *args, **kwargs)

        return exact_loss

    # ------------------------------------------------------------------
    # output

    def arrays(self) -> dict:
        return {c: np.frombuffer(self.cols[c], dtype=np.int64) for c in _COLUMNS}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.arrays())


class SpanSummary:
    """Per-span durations, self times and parent links as numpy arrays.

    Layers are compared by integer code; a name ``layer:family`` belongs to
    ``layer``.
    """

    def __init__(self, names: list, cols: dict):
        self.names = names
        self._codes: dict[str, int] = {}
        for nm in names:
            self._codes.setdefault(nm.split(":")[0], len(self._codes))
        code_of_name = np.array([self._codes[nm.split(":")[0]] for nm in names],
                                dtype=np.int64)
        count = len(cols["id"])
        self.name = cols["name"]
        self.base = code_of_name[self.name]
        row_of = np.empty(count, dtype=np.int64)
        row_of[cols["id"]] = np.arange(count)
        has_parent = cols["parent"] >= 0
        self.parent_row = np.where(has_parent, row_of[np.maximum(cols["parent"], 0)], -1)
        self.dur_ns = (cols["t1"] - cols["t0"]).astype(float)
        covered = np.bincount(self.parent_row[has_parent], weights=self.dur_ns[has_parent],
                              minlength=count)
        self.self_ns = self.dur_ns - covered
        self.parent_base = np.where(has_parent, self.base[np.maximum(self.parent_row, 0)], -1)

    def mask(self, base: str, top: bool = True) -> np.ndarray:
        """Spans of one layer; ``top`` drops those nested in the same layer."""
        code = self._codes.get(base, -2)
        m = self.base == code
        return m & (self.parent_base != code) if top else m

    def detail(self) -> dict:
        """Calls, mean and mean self time (us) per span name, families apart."""
        out = {}
        for nid, nm in enumerate(self.names):
            m = self.name == nid
            calls = int(m.sum())
            out[nm] = {"calls": calls,
                       "mean_us": float(self.dur_ns[m].mean()) / 1e3 if calls else 0.0,
                       "self_us": float(self.self_ns[m].mean()) / 1e3 if calls else 0.0}
        return out


def layer_metrics(tracer: Tracer, rounds: int, stream_agents: int, mc_samples: int,
                  support_atoms: int) -> tuple:
    """Every per-layer metric but ``trace.overhead_frac``, plus ``detail``.

    ``rounds`` are protocol rounds run, ``stream_agents`` the agents each
    ``source_for_run`` call is asked for, ``mc_samples`` the draws per
    ``monte_carlo_loss`` call and ``support_atoms`` the atoms evaluated by
    all ``population_loss`` calls.  A layer the workload never calls reads 0.
    """
    s = tracer.summary()

    def calls(base, top=True):
        return int(s.mask(base, top).sum())

    def total_us(base, top=True):
        return float(s.dur_ns[s.mask(base, top)].sum()) / 1e3

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def us_per_call(base):
        return per(total_us(base), calls(base))

    row_spans = s.mask("core.predictors.index_row", top=False)
    computed = np.zeros(len(s.base), dtype=bool)
    dist_row_parents = s.parent_row[s.mask("core.geometry.dist_row")]
    computed[dist_row_parents[dist_row_parents >= 0]] = True
    index_rows = int(row_spans.sum())
    seed_s = s.dur_ns[s.mask("harness.run_single_seed")] / 1e9
    exact_calls = calls("oracle.exact_loss")

    m = {
        "core.geometry.dist_row.calls": calls("core.geometry.dist_row"),
        "core.geometry.dist_row.us_per_call": us_per_call("core.geometry.dist_row"),
        "core.geometry.dist.calls": calls("core.geometry.dist", top=False),
        "core.geometry.dist.calls_per_round": per(calls("core.geometry.dist", top=False), rounds),
        "core.predictors.index_row.calls": index_rows,
        "core.predictors.index_row.hit_frac": per(index_rows - int((computed & row_spans).sum()),
                                                  index_rows),
        "core.predictors.predict.us_per_call": us_per_call("core.predictors.predict"),
        "core.response.best_response.calls": calls("core.response.best_response"),
        "core.response.best_response.us_per_call": us_per_call("core.response.best_response"),
        "core.response.strategic_loss.calls": calls("core.response.strategic_loss"),
        "core.response.strategic_loss.us_per_call": us_per_call("core.response.strategic_loss"),
        "core.response.population_loss.us_per_atom": per(
            total_us("core.response.population_loss"), support_atoms),
        "protocol.rounds": rounds,
        "protocol.realizability.us_per_round": per(total_us("protocol.realizability"), rounds),
        "protocol.round.self_us": per(
            float(s.self_ns[s.mask("protocol.run_online")].sum()) / 1e3, rounds),
        "learners.choose.calls": calls("learners.choose"),
        "learners.choose.us_per_call": us_per_call("learners.choose"),
        "learners.observe.calls": calls("learners.observe"),
        "learners.observe.us_per_call": us_per_call("learners.observe"),
        "learners.observe.shrink_frac": per(tracer.shrinking_observes, tracer.mistake_observes),
        "environments.sample.calls": calls("environments.sample"),
        "environments.sample.us_per_call": us_per_call("environments.sample"),
        "environments.next_agent.calls": calls("environments.next_agent"),
        "environments.next_agent.us_per_call": us_per_call("environments.next_agent"),
        "environments.stream.us_per_agent": per(total_us("environments.stream"),
                                                calls("environments.stream") * stream_agents),
        "harness.seed_s.p50": float(np.quantile(seed_s, 0.5)) if seed_s.size else 0.0,
        "harness.seed_s.p90": float(np.quantile(seed_s, 0.9)) if seed_s.size else 0.0,
        "harness.seed_s.samples": int(seed_s.size),
        "harness.output_loss.us_per_call": us_per_call("harness.output_loss"),
        "harness.monte_carlo_loss.us_per_sample": per(
            total_us("harness.monte_carlo_loss"), calls("harness.monte_carlo_loss") * mc_samples),
        "oracle.analytic_union_loss.us_per_call": us_per_call("oracle.analytic_union_loss"),
        "oracle.exact_loss.calls": exact_calls,
        "oracle.exact_loss.ms_per_query": per(total_us("oracle.exact_loss") / 1e3, exact_calls),
    }
    return m, s.detail()
