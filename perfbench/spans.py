"""In-memory span recorder for the advisor benchmark.

Spans are recorded from the benchmark's own code: :func:`install`
replaces the program's public entry points (and the what-if
optimizer's per-estimate methods) with wrappers for the length of one
traced operation, and :meth:`Patches.restore` puts the originals back,
so untraced operations run the unmodified program. The program's
source is never edited.

Each span stores its name, start, end and parent in flat arrays (a
traced ``advise_wide`` operation records about half a million
transition spans). A span's self time is its duration minus the time
its direct children cover; a layer's time is the sum of its spans'
self times.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: span name -> (per-layer time metric, per-layer call-count metric).
#: Either may be ``None``; a span with neither still counts towards
#: coverage and takes its time out of its parent's self time.
SPAN_METRICS: Dict[str, Tuple[Optional[str], Optional[str]]] = {
    "repro.import": ("repro.import_s", None),
    "trace.load": ("trace.load_s", None),
    "sql.parse": ("sql.parse_s", "sql.parse_count"),
    "analysis.shift_detect": ("analysis.shift_detect_s",
                              "analysis.shift_detect_calls"),
    "whatif.template": ("whatif.template_s", "whatif.template_calls"),
    "whatif.signature": ("whatif.signature_s",
                         "whatif.signature_calls"),
    "whatif.estimate": ("whatif.estimate_s", "whatif.estimate_calls"),
    "whatif.transition": ("whatif.transition_s",
                          "whatif.transition_calls"),
    "whatif.size": (None, "whatif.size_calls"),
    "costservice.exec_matrix": ("costservice.exec_matrix_s", None),
    "costservice.trans_matrix": ("costservice.trans_matrix_s", None),
    "costservice.exec_cost": ("costservice.exec_cost_s",
                              "costservice.exec_cost_calls"),
    "costservice.size_bytes": (None, None),
    "kaware.solve": ("kaware.solve_s", None),
    "deployment.schedule": ("deployment.schedule_s",
                            "deployment.plans"),
    "database.deploy": ("database.deploy_s", "database.deploy_calls"),
}


class SpanRecorder:
    """Nested ``perf_counter`` spans kept in flat in-memory arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: List[int] = []
        #: Values observed at call boundaries (e.g. the DP's shape).
        self.gauges: Dict[str, float] = {}

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``observe(args)`` runs
        first, for wrappers that also read their arguments."""
        nid = self._id(name)
        open_spans = self._open
        name_ids, parents = self.name_id, self.parent
        starts, ends = self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if observe is not None:
                observe(self, args)
            index = len(starts)
            name_ids.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()

        traced.__wrapped__ = fn
        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (e.g. an import)."""
        self.name_id.append(self._id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(start)
        self.end.append(end)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, summed ``self_s``, and ``top_s``
        (duration of spans with no parent)."""
        n = len(self.start)
        self_s = [0.0] * n
        for i in range(n):
            self_s[i] += self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= self.end[i] - self.start[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "top_s": 0.0}
            for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_id[i]]]
            entry["calls"] += 1
            entry["self_s"] += self_s[i]
            if self.parent[i] < 0:
                entry["top_s"] += self.end[i] - self.start[i]
        return out


class Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, recorder: SpanRecorder, owner, attr: str,
             name: str, observe: Optional[Callable] = None) -> None:
        self.set(owner, attr, recorder.wrap(name, owner.__dict__[attr],
                                            observe))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _observe_solve(recorder: SpanRecorder, args) -> None:
    matrices = args[0]
    recorder.gauges["kaware.n_segments"] = matrices.exec_matrix.shape[0]
    recorder.gauges["kaware.n_configs"] = matrices.exec_matrix.shape[1]


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every layer boundary the benchmark reports on.

    Names are patched where callers look them up: ``Statement.ast``
    resolves ``parse`` in :mod:`repro.workload.model`, the advisor
    resolves ``solve_constrained`` in :mod:`repro.core.advisor`, the
    bandit tuner resolves ``detect_shifts_from_profiles`` in
    :mod:`repro.core.bandit` and imports ``schedule_deployment`` from
    :mod:`repro.core.deployment` at call time, and the CLI resolves
    ``load_trace`` and ``detect_shifts`` in :mod:`repro.cli`.
    """
    import repro.cli
    import repro.core.advisor
    import repro.core.bandit
    import repro.core.deployment
    import repro.core.kaware
    import repro.workload.model
    from repro.core.costservice import CostService
    from repro.sqlengine.database import Database
    from repro.sqlengine.whatif import WhatIfOptimizer

    patches = Patches()
    for owner, attr, name in (
            (repro.workload.model, "parse", "sql.parse"),
            (repro.cli, "load_trace", "trace.load"),
            (repro.cli, "detect_shifts", "analysis.shift_detect"),
            (repro.core.bandit, "detect_shifts_from_profiles",
             "analysis.shift_detect"),
            (WhatIfOptimizer, "statement_template", "whatif.template"),
            (WhatIfOptimizer, "relevance_signature", "whatif.signature"),
            (WhatIfOptimizer, "estimate_template", "whatif.estimate"),
            (WhatIfOptimizer, "transition_units", "whatif.transition"),
            (WhatIfOptimizer, "configuration_size_bytes", "whatif.size"),
            (CostService, "exec_matrix", "costservice.exec_matrix"),
            (CostService, "trans_matrix", "costservice.trans_matrix"),
            (CostService, "exec_cost", "costservice.exec_cost"),
            (CostService, "size_bytes", "costservice.size_bytes"),
            (repro.core.deployment, "schedule_deployment",
             "deployment.schedule"),
            (Database, "deploy", "database.deploy")):
        patches.wrap(recorder, owner, attr, name)
    for owner in (repro.core.advisor, repro.core.kaware):
        patches.wrap(recorder, owner, "solve_constrained", "kaware.solve",
                     observe=_observe_solve)
    return patches


def capture_instances(patches: Patches, owner, attr: str,
                      sink: List) -> None:
    """Make ``owner.attr`` (a class) append every instance it builds
    to ``sink`` — how the traced CLI finds its service and database."""
    cls = owner.__dict__[attr]

    def build(*args, **kwargs):
        instance = cls(*args, **kwargs)
        sink.append(instance)
        return instance

    patches.set(owner, attr, build)


def service_counters(services) -> Dict[str, float]:
    """The cost-service counters the benchmark reports, summed over
    ``services``; each ratio comes with its base."""
    total = {"whatif_calls": 0, "whatif_calls_avoided": 0,
             "cache_hits": 0, "unique_signatures": 0, "trans_calls": 0}
    for service in services:
        stats = service.stats
        total["whatif_calls"] += stats.whatif_calls
        total["whatif_calls_avoided"] += stats.whatif_calls_avoided
        total["cache_hits"] += (stats.statement_hits +
                                stats.template_hits +
                                stats.signature_hits)
        total["unique_signatures"] += stats.unique_signatures
        total["trans_calls"] += stats.trans_calls
    requests = total["whatif_calls"] + total["whatif_calls_avoided"]
    lookups = total["cache_hits"] + total["whatif_calls"]
    return {
        "costservice.whatif_calls": total["whatif_calls"],
        "costservice.exec_requests": requests,
        "costservice.calls_avoided_ratio":
            total["whatif_calls_avoided"] / requests if requests else 0.0,
        "costservice.cache_lookups": lookups,
        "costservice.cache_hit_rate":
            total["cache_hits"] / lookups if lookups else 0.0,
        "costservice.unique_signatures": total["unique_signatures"],
        "costservice.trans_calls": total["trans_calls"],
    }


def buffer_counters(databases, before=None) -> Dict[str, float]:
    """Buffer-pool page counters summed over ``databases`` (minus the
    ``before`` snapshots, when given)."""
    out = {"buffer.logical_reads": 0, "buffer.physical_reads": 0,
           "buffer.physical_writes": 0}
    for i, db in enumerate(databases):
        metrics = db.buffer_manager.metrics
        base = before[i] if before is not None else None
        for field in ("logical_reads", "physical_reads",
                      "physical_writes"):
            value = getattr(metrics, field)
            if base is not None:
                value -= getattr(base, field)
            out[f"buffer.{field}"] += value
    return out


def layer_metrics(layers: Dict[str, Dict[str, float]]
                  ) -> Dict[str, float]:
    """Per-layer time and count metrics of the layers that
    :meth:`SpanRecorder.layers` saw."""
    out: Dict[str, float] = {}
    for span, (time_metric, count_metric) in SPAN_METRICS.items():
        entry = layers.get(span)
        if entry is None or not entry["calls"]:
            continue
        if time_metric is not None:
            out[time_metric] = entry["self_s"]
        if count_metric is not None:
            out[count_metric] = entry["calls"]
    return out
