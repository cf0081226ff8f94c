"""Advisor facade: one interface over all design techniques.

Every advisor consumes a problem instance plus a
:class:`CostProvider` and returns a :class:`Recommendation` — the
design sequence, its objective cost, change count, and advisor-specific
statistics (runtime, paths examined, merge steps, ...). The harness
reproducing the paper's figures drives everything through this
interface, so techniques are trivially swappable and comparable.

Advisors are formulation-agnostic: a segmented
:class:`~repro.core.problem.ProblemInstance` and a compressed
:class:`~repro.core.problem.SummaryProblemInstance` expose the same
axis API and cost bit-identically, so any advisor accepts either. On
summaries, matrix building scales with atoms instead of raw
statements, and :class:`LPAdvisor` keeps the solve itself independent
of the change budget as well.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..errors import DesignError
from .costmatrix import (CostMatrices, CostProvider,
                         build_cost_matrices)
from .design import DesignSequence, design_from_indices
from .greedy_seq import reduce_problem
from .hybrid import solve_hybrid
from .kaware import solve_constrained
from .lp_advisor import solve_lp_rounding
from .merging import merge_to_k
from .problem import AnyProblem, ProblemInstance
from .ranking import solve_by_ranking
from .sequence_graph import solve_unconstrained


@dataclass
class Recommendation:
    """A recommended dynamic physical design.

    Attributes:
        advisor: name of the technique that produced it.
        design: the design sequence (one configuration per segment).
        cost: objective value (estimated EXEC + TRANS cost units).
        change_count: design changes under the advisor's counting mode.
        wall_time_seconds: optimization time (what Figure 4 plots).
        stats: technique-specific extras (paths examined, merge steps,
            candidate-set size, chosen hybrid method, ...).
    """

    advisor: str
    design: DesignSequence
    cost: float
    change_count: int
    wall_time_seconds: float
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def costing(self) -> Optional[Dict[str, object]]:
        """Cost-estimation instrumentation for this run, when the
        advisor ran against a :class:`~repro.core.costservice.
        CostService`: what-if calls issued/avoided, per-level cache
        hits, and costing wall time (see ``CostEstimationStats``)."""
        value = self.stats.get("costing")
        return value if isinstance(value, dict) else None

    def summary(self) -> str:
        out = (f"{self.advisor}: cost={self.cost:.1f}, "
               f"changes={self.change_count}, "
               f"time={self.wall_time_seconds * 1e3:.2f}ms")
        costing = self.costing
        if costing is not None:
            out += (f" (what-if calls={costing['whatif_calls']}, "
                    f"cache hit rate={costing['cache_hit_rate']:.0%}, "
                    f"costing={costing['costing_seconds'] * 1e3:.2f}ms)")
        return out


class Advisor:
    """Base class: builds matrices, times the solve, packages results.

    Args:
        count_initial_change: whether the C0 -> C1 step consumes the
            change budget (strict Definition 1). The paper's
            experiments use False; the library default is True.
    """

    name = "advisor"

    def __init__(self, count_initial_change: bool = True):
        self.count_initial_change = count_initial_change

    def recommend(self, problem: AnyProblem,
                  provider: CostProvider,
                  matrices: Optional[CostMatrices] = None
                  ) -> Recommendation:
        """Produce a recommendation.

        Matrices may be passed in to share the costing work across
        advisors in comparisons; sharing one
        :class:`~repro.core.costservice.CostService` as the provider
        achieves the same through its caches while also attaching
        per-run costing instrumentation to ``Recommendation.stats``.
        """
        meter = _CostingMeter(provider)
        if matrices is None:
            matrices = build_cost_matrices(problem, provider)
        start = time.perf_counter()
        assignment, cost, stats = self._solve(problem, matrices)
        elapsed = time.perf_counter() - start
        meter.attach(stats)
        design = design_from_indices(matrices, assignment,
                                     problem.initial)
        return Recommendation(
            advisor=self.name, design=design, cost=cost,
            change_count=matrices.change_count(
                assignment, self.count_initial_change),
            wall_time_seconds=elapsed, stats=stats)

    def _solve(self, problem: ProblemInstance, matrices: CostMatrices):
        """Return ``(assignment, cost, stats)``; :meth:`recommend`
        counts the assignment's changes under this advisor's
        convention."""
        raise NotImplementedError


class _CostingMeter:
    """Meters a provider's cost-estimation counters over one advisor
    run (no-op for providers without instrumentation)."""

    def __init__(self, provider: CostProvider):
        self._provider = provider
        self._snapshot = None
        self._start = time.perf_counter()
        if callable(getattr(provider, "stats_snapshot", None)):
            self._snapshot = provider.stats_snapshot()

    def attach(self, stats: Dict[str, object]) -> None:
        if self._snapshot is None:
            return
        costing = self._provider.stats_delta(self._snapshot)
        costing["costing_seconds"] = (costing["exec_seconds"] +
                                      costing["trans_seconds"])
        costing["total_seconds"] = time.perf_counter() - self._start
        stats["costing"] = costing


class UnconstrainedAdvisor(Advisor):
    """The SIGMOD'06 baseline: sequence-graph shortest path."""

    name = "unconstrained"

    def _solve(self, problem: ProblemInstance, matrices: CostMatrices):
        result = solve_unconstrained(matrices)
        return (result.assignment, result.cost,
                {"n_configurations": matrices.n_configurations})


class StaticAdvisor(Advisor):
    """Classical static advisor: one configuration for the whole
    workload (the degenerate k<=1 case; useful as a floor baseline)."""

    name = "static"

    def _solve(self, problem: ProblemInstance, matrices: CostMatrices):
        totals = matrices.exec_matrix.sum(axis=0)
        totals = totals + matrices.trans_matrix[matrices.initial_index]
        if matrices.final_index is not None:
            totals = totals + matrices.trans_matrix[
                :, matrices.final_index]
        best = int(np.argmin(totals))
        assignment = tuple([best] * matrices.n_segments)
        return (assignment, float(totals[best]),
                {"chosen": matrices.configurations[best].label})


class ConstrainedGraphAdvisor(Advisor):
    """Optimal constrained designs via the k-aware sequence graph."""

    name = "kaware"

    def __init__(self, k: int, count_initial_change: bool = True):
        super().__init__(count_initial_change)
        self.k = k

    def _solve(self, problem: ProblemInstance, matrices: CostMatrices):
        result = solve_constrained(matrices, self.k,
                                   self.count_initial_change)
        return (result.assignment, result.cost,
                {"k": self.k, "layers_used": result.layers_used})


class LPAdvisor(Advisor):
    """Constrained designs via LP-relaxation + rounding — the
    scalable alternative to the exact k-aware DP.

    The solve is O(iterations x n x |C|^2) independent of k, and the
    result carries a certified optimality interval:
    ``stats["lower_bound"] <= optimum <= cost`` with
    ``stats["gap"] = cost - lower_bound`` (zero when the relaxation
    is tight). Intended for summarized problems where phases, not
    statements, form the sequence axis; exact on any instance where
    the unconstrained optimum already fits the budget.
    """

    name = "lp"

    def __init__(self, k: int, count_initial_change: bool = True,
                 max_iterations: int = 48):
        super().__init__(count_initial_change)
        self.k = k
        self.max_iterations = max_iterations

    def _solve(self, problem: AnyProblem, matrices: CostMatrices):
        result = solve_lp_rounding(matrices, self.k,
                                   self.count_initial_change,
                                   max_iterations=self.max_iterations)
        return (result.assignment, result.cost,
                {"k": self.k, "lower_bound": result.lower_bound,
                 "gap": result.gap, "iterations": result.iterations,
                 "method": result.method})


class MergingAdvisor(Advisor):
    """Sequential design merging from the unconstrained optimum."""

    name = "merging"

    def __init__(self, k: int, count_initial_change: bool = True):
        super().__init__(count_initial_change)
        self.k = k

    def _solve(self, problem: ProblemInstance, matrices: CostMatrices):
        unconstrained = solve_unconstrained(matrices)
        merged = merge_to_k(matrices, list(unconstrained.assignment),
                            self.k, self.count_initial_change)
        return (merged.assignment, merged.cost,
                {"k": self.k, "merge_steps": len(merged.steps),
                 "initial_changes": matrices.change_count(
                     unconstrained.assignment,
                     self.count_initial_change)})


class RankingAdvisor(Advisor):
    """Optimal constrained designs via shortest-path ranking."""

    name = "ranking"

    def __init__(self, k: int, count_initial_change: bool = True,
                 max_paths: int = 200_000):
        super().__init__(count_initial_change)
        self.k = k
        self.max_paths = max_paths

    def _solve(self, problem: ProblemInstance, matrices: CostMatrices):
        result = solve_by_ranking(matrices, self.k,
                                  self.count_initial_change,
                                  max_paths=self.max_paths)
        return (result.assignment, result.cost,
                {"k": self.k,
                 "paths_examined": result.paths_examined})


class HybridAdvisor(Advisor):
    """Switches between the k-aware graph and merging by estimated
    work (the paper's Section 6.4 suggestion)."""

    name = "hybrid"

    def __init__(self, k: int, count_initial_change: bool = True,
                 bias: float = 1.0):
        super().__init__(count_initial_change)
        self.k = k
        self.bias = bias

    def _solve(self, problem: ProblemInstance, matrices: CostMatrices):
        result = solve_hybrid(matrices, self.k,
                              self.count_initial_change, self.bias)
        return (result.assignment, result.cost,
                {"k": self.k, "method": result.method,
                 "estimated_graph_ops": result.estimated_graph_ops,
                 "estimated_merge_ops": result.estimated_merge_ops})


class GreedySeqAdvisor(Advisor):
    """GREEDY-SEQ candidate reduction + k-aware search (Section 4.1)."""

    name = "greedy-seq"

    def __init__(self, k: Optional[int],
                 count_initial_change: bool = True,
                 union_window: int = 1):
        super().__init__(count_initial_change)
        self.k = k
        self.union_window = union_window

    def recommend(self, problem: ProblemInstance,
                  provider: CostProvider,
                  matrices: Optional[CostMatrices] = None
                  ) -> Recommendation:
        # Candidate generation is part of this advisor's work, so the
        # timer wraps it; prebuilt matrices cannot be reused because
        # the configuration axis changes. A shared CostService still
        # helps: the reduced problem's re-costing hits the caches the
        # probes (and any earlier advisor) already filled.
        meter = _CostingMeter(provider)
        start = time.perf_counter()
        reduced, greedy = reduce_problem(problem, provider,
                                         union_window=self.union_window)
        reduced_matrices = build_cost_matrices(reduced, provider)
        if self.k is None:
            result = solve_unconstrained(reduced_matrices)
        else:
            result = solve_constrained(reduced_matrices, self.k,
                                       self.count_initial_change)
        assignment, cost = result.assignment, result.cost
        elapsed = time.perf_counter() - start
        design = design_from_indices(reduced_matrices, assignment,
                                     problem.initial)
        stats = {"k": self.k,
                 "candidates": len(greedy.configurations),
                 "full_space": problem.n_configurations,
                 "probes": greedy.n_explored}
        meter.attach(stats)
        return Recommendation(
            advisor=self.name, design=design, cost=cost,
            change_count=reduced_matrices.change_count(
                assignment, self.count_initial_change),
            wall_time_seconds=elapsed, stats=stats)

    def _solve(self, problem, matrices):  # pragma: no cover
        raise DesignError("GreedySeqAdvisor overrides recommend()")
