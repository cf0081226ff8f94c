"""CostService: batched, instrumented cost estimation for the advisors.

Advisor runtime is dominated by what-if cost estimation (the paper's
Figure 4 measures exactly this), and historically every consumer —
advisors, the k-sweep, the bench harness — re-drove
``WhatIfOptimizer.estimate_statement`` through its own serial
per-(statement, configuration) loop with only a flat ``(sql, config)``
cache. :class:`CostService` centralizes that work behind the
:class:`~repro.core.costmatrix.CostProvider` protocol and adds:

* **a batch API** — :meth:`exec_matrix` / :meth:`trans_matrix`
  deduplicate statements by :class:`~repro.sqlengine.whatif.
  StatementTemplate` (same AST shape + table + columns, constants
  folded into the selectivities they induce) before touching the
  what-if optimizer, then expand per-template costs back to the
  per-segment axis with NumPy. With exact selectivity folding (the
  default) the resulting matrices are bit-identical to the serial
  path's.

* **one exact cache, keyed by (template key, relevance signature)** —
  the what-if optimizer derives, per template, the subset of a
  configuration's structures that can possibly affect its plan
  (:meth:`~repro.sqlengine.whatif.WhatIfOptimizer.
  relevance_signature`), and every configuration identical on that
  subset shares one bit-identical estimate. This is the CoPhy-style
  *atomic cost decomposition*: what-if work drops from
  O(templates x |C|) to O(templates x relevant subsets). The
  signature derivation itself is memoized per (template key,
  configuration).

* **instrumentation** — :class:`CostEstimationStats` counts what-if
  calls issued vs avoided, cache hits, batch sizes, and wall time per
  phase. Advisors snapshot/delta these counters into
  ``Recommendation.stats["costing"]``; the ``repro costs`` and
  ``repro perf`` CLI subcommands print them.

Costing units are either raw :class:`~repro.workload.segmentation.
Segment` s or compressed :class:`~repro.workload.summary.PhaseSummary`
phases; both reduce to ``(statement, weight)`` atoms
(:func:`~repro.workload.summary.atoms_of`), and every EXEC path —
scalar, batch, serial provider — accumulates the same canonical
left-fold ``total += weight x unit_cost`` over atoms in
first-appearance order. Swapping a :class:`~repro.core.costmatrix.
WhatIfCostProvider` for a :class:`CostService`, or a raw trace for
its summary, never changes a single matrix entry — only how many
optimizer calls (and how much per-statement bookkeeping) it took to
fill them.

Both EXEC entry points reach the optimizer through one degradation
ladder, keyed per (template, signature), whether or not a fault
injector is attached — so chaos runs exercise the production path.
The order in which :meth:`CostService.exec_matrix` issues estimates
(and hence where a seeded fault lands) is deterministic: missing
(template row, signature) items in row-major, first-appearance order,
each estimated once against its first column.

Estimation is serial by design: the what-if estimates a process pool
could fan out are about a third of an EXEC build, so Amdahl's law
caps a 4-worker pool near 1.4x before any dispatch cost (DESIGN.md
§9).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import EstimationUnavailable
from ..faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..sqlengine.whatif import StatementTemplate, WhatIfOptimizer
from ..workload.summary import CostUnit, atoms_of
from .structures import Configuration


@dataclass
class CostEstimationStats:
    """Counters for one :class:`CostService` (monotone within a stats
    epoch; snapshot/delta them to meter a single advisor run).

    Attributes:
        whatif_calls: estimates actually issued to the optimizer.
        whatif_calls_avoided: statement estimates served without an
            optimizer call (cache hits, in-batch sharing, repeated
            statements within a unit).
        statement_hits / template_hits: always 0. The service keeps
            one exact cache, whose hits count as ``signature_hits``;
            the fields stay so readers of the counter set keep
            working.
        signature_hits: hits in the ``(template, signature)`` cache
            — estimates reused across configurations that agree on the
            template's relevant structure subset.
        signature_fills: additional matrix cells filled from an
            estimate issued for *another* configuration sharing the
            signature within the same batch (in-batch sharing; the
            cross-batch reuse shows up as ``signature_hits``).
        trans_calls / trans_cache_hits: TRANS estimates issued/served.
        size_calls / size_cache_hits: SIZE estimates issued/served.
        batch_calls: :meth:`CostService.exec_matrix` invocations.
        batched_statements: statement instances covered by batches.
        batched_templates: summed per-batch unique-template counts
            (``batched_statements / batched_templates`` is the mean
            dedup factor).
        unique_templates: distinct templates seen so far.
        unique_signatures: exact ``(template, signature)`` estimates
            held in the cache — the true size of the decomposed
            estimation space (compare against
            ``unique_templates x configurations``).
        exec_seconds / trans_seconds: wall time in EXEC / TRANS
            estimation (cache management included).
        estimate_faults: :class:`EstimationUnavailable` raised by the
            optimizer (injected timeouts/failures).
        estimate_retries: immediate re-attempts of transient
            estimation faults.
        degraded_estimates: estimates served *degraded* (stale epoch
            or upper bound) instead of exact, one per (template,
            signature) issue. Consumers must never treat these as
            exact; the online tuner watches this counter to defer
            design changes.
        stale_fallbacks / upper_bound_fallbacks: which rung of the
            degradation ladder resolved each newly degraded
            (template, signature) pair.
    """

    whatif_calls: int = 0
    whatif_calls_avoided: int = 0
    statement_hits: int = 0
    template_hits: int = 0
    signature_hits: int = 0
    signature_fills: int = 0
    trans_calls: int = 0
    trans_cache_hits: int = 0
    size_calls: int = 0
    size_cache_hits: int = 0
    batch_calls: int = 0
    batched_statements: int = 0
    batched_templates: int = 0
    unique_templates: int = 0
    unique_signatures: int = 0
    exec_seconds: float = 0.0
    trans_seconds: float = 0.0
    estimate_faults: int = 0
    estimate_retries: int = 0
    degraded_estimates: int = 0
    stale_fallbacks: int = 0
    upper_bound_fallbacks: int = 0

    @property
    def exec_requests(self) -> int:
        """Statement-level EXEC estimates requested (served + issued)."""
        return self.whatif_calls + self.whatif_calls_avoided

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of EXEC requests served without an optimizer call."""
        requests = self.exec_requests
        if requests == 0:
            return 0.0
        return self.whatif_calls_avoided / requests

    def snapshot(self) -> "CostEstimationStats":
        return replace(self)

    def delta(self, earlier: "CostEstimationStats"
              ) -> "CostEstimationStats":
        """Counter difference ``self - earlier`` (for metering a span)."""
        changes = {f.name: getattr(self, f.name) - getattr(earlier, f.name)
                   for f in fields(self)}
        # Counter totals, not differences: distinct keys known now.
        changes["unique_templates"] = self.unique_templates
        changes["unique_signatures"] = self.unique_signatures
        return CostEstimationStats(**changes)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {f.name: getattr(self, f.name)
                                  for f in fields(self)}
        out["cache_hit_rate"] = self.cache_hit_rate
        return out


class CostService:
    """Batched, cached, instrumented cost estimation.

    Implements the :class:`~repro.core.costmatrix.CostProvider`
    protocol (``exec_cost`` / ``trans_cost`` / ``size_bytes``) so it
    drops in anywhere a provider is accepted, and adds the batch
    entry points ``exec_matrix`` / ``trans_matrix`` that
    :func:`~repro.core.costmatrix.build_cost_matrices` routes through
    automatically.

    Args:
        optimizer: the engine's what-if optimizer. Template keys
            carry exact predicate selectivities, so estimates are
            bit-identical to the unbatched path.
        retry_policy: how often a transient estimation fault is
            retried before the degradation ladder takes over.
    """

    def __init__(self, optimizer: WhatIfOptimizer,
                 retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY):
        self.optimizer = optimizer
        self.retry_policy = retry_policy
        self.stats = CostEstimationStats()
        self._stats_epoch = optimizer.stats_epoch
        self._template_by_sql: Dict[str, StatementTemplate] = {}
        self._template_keys: set = set()
        self._trans_cache: Dict[Tuple[Configuration, Configuration],
                                float] = {}
        self._size_cache: Dict[Configuration, int] = {}
        # Atomic cost decomposition: _units holds every exact estimate
        # by (template key, relevance signature); _signature_of
        # memoizes the signature derivation per (template key,
        # configuration).
        self._units: Dict[Tuple[Tuple, Tuple], float] = {}
        self._signature_of: Dict[Tuple[Tuple, Configuration],
                                 Tuple] = {}
        # Degradation ladder state, keyed like _units. _stale_units
        # keeps the last known exact values across epoch invalidations
        # — rung 2 of the ladder. _degraded_units pins degraded
        # answers for within-epoch determinism; it is separate
        # precisely so degraded values never enter _units.
        self._stale_units: Dict[Tuple[Tuple, Tuple], float] = {}
        self._degraded_units: Dict[Tuple[Tuple, Tuple], float] = {}
        # Pessimistic scan bounds served by upper_bound_cost — pure
        # functions of the statistics, epoch-scoped like the rest.
        self._upper_bound_units: Dict[Tuple[Tuple, Configuration],
                                      float] = {}

    # ------------------------------------------------------------------
    # CostProvider protocol (scalar path)
    # ------------------------------------------------------------------

    def exec_cost(self, segment: CostUnit,
                  config: Configuration) -> float:
        """EXEC(unit, config): the canonical weighted left-fold over
        the unit's atoms (one estimate per distinct SQL)."""
        self._check_epoch()
        start = time.perf_counter()
        total = 0.0
        for statement, weight in atoms_of(segment):
            template = self._template(statement)
            signature = self._signature(template, config)
            units = self._units.get((template.key, signature))
            if units is None:
                units, _degraded = self._issue(template, signature,
                                               config)
            else:
                self.stats.signature_hits += 1
                self.stats.whatif_calls_avoided += 1
            if weight > 1:
                # Every statement beyond the representative is served
                # from the atom's single estimate.
                self.stats.whatif_calls_avoided += weight - 1
            total += units * weight
        self.stats.exec_seconds += time.perf_counter() - start
        return total

    def trans_cost(self, old: Configuration,
                   new: Configuration) -> float:
        self._check_epoch()
        start = time.perf_counter()
        key = (old, new)
        units = self._trans_cache.get(key)
        if units is None:
            units = self.optimizer.transition_units(old.structures,
                                                    new.structures)
            self._trans_cache[key] = units
            self.stats.trans_calls += 1
        else:
            self.stats.trans_cache_hits += 1
        self.stats.trans_seconds += time.perf_counter() - start
        return units

    def upper_bound_cost(self, segment: CostUnit,
                         config: Configuration) -> float:
        """A *sound* pessimistic bound on ``exec_cost(segment,
        config)`` computed from statistics alone.

        Folds :meth:`~repro.sqlengine.whatif.WhatIfOptimizer.
        scan_upper_bound` over the unit's atoms — the same bound the
        degradation ladder's last rung serves, offered here as a
        first-class query. It never consults the fault injector, never
        raises :class:`~repro.errors.EstimationUnavailable`, and never
        advances ``degraded_estimates``: safety-gated consumers use it
        to reason conservatively *about* an outage without taking any
        degraded value as evidence.
        """
        self._check_epoch()
        total = 0.0
        for statement, weight in atoms_of(segment):
            template = self._template(statement)
            key = (template.key, config)
            units = self._upper_bound_units.get(key)
            if units is None:
                units = self.optimizer.scan_upper_bound(
                    template.representative, config.structures)
                self._upper_bound_units[key] = units
            total += units * weight
        return total

    def size_bytes(self, config: Configuration) -> int:
        self._check_epoch()
        size = self._size_cache.get(config)
        if size is None:
            size = self.optimizer.configuration_size_bytes(
                config.structures)
            self._size_cache[config] = size
            self.stats.size_calls += 1
        else:
            self.stats.size_cache_hits += 1
        return size

    # ------------------------------------------------------------------
    # batch API
    # ------------------------------------------------------------------

    def exec_matrix(self, segments: Sequence[CostUnit],
                    configs: Sequence[Configuration]) -> np.ndarray:
        """The dense EXEC matrix ``(len(units), len(configs))``.

        Each unit (segment or phase summary) is reduced to its
        ``(sql, weight)`` atoms, atoms are deduplicated by template
        across the whole batch, each template is estimated once per
        relevance signature (cache permitting), and the per-template
        costs are expanded back to the unit axis — a weighted
        left-fold over atoms in first-appearance order, matching the
        scalar and serial-provider paths bit for bit. Work is
        proportional to atoms x configurations, never raw statements.

        Cells missing from the cache are grouped into *pending* items
        — one per (template row, signature), in row-major
        first-appearance order — and each item is estimated once,
        against its first column (any sharer yields the same bits:
        that is the decomposition invariant the verify harness
        checks), then written to every column sharing the signature.
        A degraded answer fills those columns too but is never cached
        as exact.
        """
        self._check_epoch()
        start = time.perf_counter()
        templates: List[StatementTemplate] = []
        template_row: Dict[Tuple, int] = {}
        sql_row: Dict[str, int] = {}
        unit_atoms: List[List[Tuple[int, int]]] = []
        n_statements = 0
        for segment in segments:
            pairs: List[Tuple[int, int]] = []
            for statement, weight in atoms_of(segment):
                row = sql_row.get(statement.sql)
                if row is None:
                    template = self._template(statement)
                    row = template_row.get(template.key)
                    if row is None:
                        row = len(templates)
                        template_row[template.key] = row
                        templates.append(template)
                    sql_row[statement.sql] = row
                pairs.append((row, weight))
                n_statements += weight
            unit_atoms.append(pairs)

        calls_before = self.stats.whatif_calls
        units = np.empty((len(templates), len(configs)),
                         dtype=np.float64)
        pending: Dict[Tuple[int, Tuple], List[int]] = {}
        for r, template in enumerate(templates):
            for j, config in enumerate(configs):
                signature = self._signature(template, config)
                value = self._units.get((template.key, signature))
                if value is None:
                    pending.setdefault((r, signature), []).append(j)
                else:
                    self.stats.signature_hits += 1
                    units[r, j] = value
        degraded_cells = 0
        for (r, signature), cols in pending.items():
            value, degraded = self._issue(templates[r], signature,
                                          configs[cols[0]])
            if degraded:
                degraded_cells += len(cols)
            self.stats.signature_fills += len(cols) - 1
            units[r, cols] = value

        matrix = np.zeros((len(segments), len(configs)),
                          dtype=np.float64)
        for i, pairs in enumerate(unit_atoms):
            if not pairs:
                continue
            total = np.zeros(len(configs), dtype=np.float64)
            for row, weight in pairs:
                # Left-fold of weight x unit-cost terms, not np.sum:
                # matches the scalar paths' atom-order accumulation
                # bit for bit.
                total += units[row] * weight
            matrix[i] = total

        self.stats.batch_calls += 1
        self.stats.batched_statements += n_statements
        self.stats.batched_templates += len(templates)
        issued = self.stats.whatif_calls - calls_before
        self.stats.whatif_calls_avoided += \
            n_statements * len(configs) - issued - degraded_cells
        self.stats.exec_seconds += time.perf_counter() - start
        return matrix

    def trans_matrix(self, configs: Sequence[Configuration]
                     ) -> np.ndarray:
        """The dense TRANS matrix (zero diagonal), cache-shared with
        the scalar path."""
        n = len(configs)
        matrix = np.zeros((n, n), dtype=np.float64)
        for i, old in enumerate(configs):
            for j, new in enumerate(configs):
                if i != j:
                    matrix[i, j] = self.trans_cost(old, new)
        return matrix

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> CostEstimationStats:
        """A frozen copy of the counters (pair with
        :meth:`stats_delta`)."""
        return self.stats.snapshot()

    def stats_delta(self, since: CostEstimationStats
                    ) -> Dict[str, object]:
        """Counter movement since ``since``, as a plain dict (the
        shape stored in ``Recommendation.stats['costing']``)."""
        return self.stats.delta(since).as_dict()

    def invalidate(self) -> None:
        """Drop every cache (call after out-of-band stats changes; the
        optimizer's own ``refresh_stats`` is detected automatically).

        The retiring exact values are kept as the *stale epoch* —
        rung 2 of the degradation ladder — so estimation outages after
        a stats refresh degrade to the last known exact answer instead
        of the crude upper bound.
        """
        self._stale_units.update(self._units)
        self._template_by_sql.clear()
        self._template_keys.clear()
        self._trans_cache.clear()
        self._size_cache.clear()
        self._units.clear()
        self._signature_of.clear()
        self._degraded_units.clear()
        self._upper_bound_units.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check_epoch(self) -> None:
        if self.optimizer.stats_epoch != self._stats_epoch:
            self.invalidate()
            self._stats_epoch = self.optimizer.stats_epoch

    def _signature(self, template: StatementTemplate,
                   config: Configuration) -> Tuple:
        key = (template.key, config)
        sig = self._signature_of.get(key)
        if sig is None:
            sig = self.optimizer.relevance_signature(
                template, config.structures)
            self._signature_of[key] = sig
        return sig

    def _template(self, statement) -> StatementTemplate:
        template = self._template_by_sql.get(statement.sql)
        if template is None:
            template = self.optimizer.statement_template(statement.ast)
            self._template_by_sql[statement.sql] = template
            self._template_keys.add(template.key)
            self.stats.unique_templates = len(self._template_keys)
        return template

    def _issue(self, template: StatementTemplate, signature: Tuple,
               config: Configuration) -> Tuple[float, bool]:
        """One (template, signature) estimate through the degradation
        ladder: exact (with transient retries) -> last exact value
        from a previous stats epoch -> heap-scan upper bound.

        ``config`` is any configuration carrying ``signature``.
        Returns ``(units, degraded)``; exact values enter the cache,
        degraded ones are pinned separately (within-epoch
        determinism) and never promoted to it.
        """
        key = (template.key, signature)
        attempt = 1
        while True:
            try:
                units = self.optimizer.estimate_template(
                    template, config.structures).units
            except EstimationUnavailable as exc:
                self.stats.estimate_faults += 1
                if exc.retryable and \
                        attempt < self.retry_policy.max_attempts:
                    self.stats.estimate_retries += 1
                    attempt += 1
                    continue
                break
            self.stats.whatif_calls += 1
            self._units[key] = units
            self.stats.unique_signatures = len(self._units)
            return units, False
        self.stats.degraded_estimates += 1
        units = self._degraded_units.get(key)
        if units is not None:
            return units, True
        stale = self._stale_units.get(key)
        if stale is not None:
            self.stats.stale_fallbacks += 1
            units = stale
        else:
            self.stats.upper_bound_fallbacks += 1
            # Sound for every sharer: the bound depends on the config
            # only through its on-table maintenance levels, which the
            # signature pins.
            units = self.optimizer.scan_upper_bound(
                template.representative, config.structures)
        self._degraded_units[key] = units
        return units, True
