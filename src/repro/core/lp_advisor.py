"""LP-relaxation + rounding solver for the constrained problem.

The k-aware DP (:mod:`repro.core.kaware`) is exact but its table is
O(k x n x |C|) — for summarized multi-tenant traces with generous
change budgets the layer dimension is pure overhead. This module
solves the same phase-sequence problem by *Lagrangian relaxation* of
the change-budget constraint, which for a shortest-path problem with
one side constraint coincides with the LP-relaxation dual bound:

* For a multiplier ``lam >= 0``, charge every counted change edge an
  extra ``lam`` and solve the now-unconstrained sequence graph with
  the ordinary O(n |C|^2) DP. The resulting path minimizes
  ``cost + lam * changes``; its dual value
  ``g(lam) = penalized_cost - lam * k`` is a valid lower bound on the
  constrained optimum for every ``lam``.
* ``changes(lam)`` is non-increasing in ``lam``, so a bisection on
  ``lam`` finds the smallest multiplier whose path is feasible
  (``changes <= k``), keeping the best feasible path seen (the
  incumbent) and the tightest dual bound ``max g(lam)``.
* If the relaxation never lands exactly on k changes (a duality gap),
  the final infeasible path is *rounded* to the budget with the
  paper's sequential merging (:func:`~repro.core.merging.merge_to_k`)
  and the cheaper of (incumbent, rounded) is returned.

The reported ``lower_bound`` and ``gap = cost - lower_bound`` certify
solution quality: the true constrained optimum lies in
``[lower_bound, cost]``. When the unconstrained optimum already fits
the budget (``lam = 0`` feasible) the result is exact and the gap is
zero. Verify family 7 cross-checks the bound and the constraints
against the exact DP on reference instances.

Changes are counted by :func:`~repro.core.costmatrix.count_changes`,
like every other solver: with
``count_initial_change`` (strict Definition 1) the C0 -> C1 hop is
penalized and counted; without it the first hop is free; a required
final configuration is charged but never penalized nor counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import InfeasibleProblemError
from .costmatrix import CostMatrices
from .merging import merge_to_k
from .sequence_graph import _walk_parents


@dataclass(frozen=True)
class LPResult:
    """Outcome of the LP-relaxation + rounding solver.

    Attributes:
        assignment: configuration index per phase (feasible: at most k
            changes under the requested counting mode).
        cost: objective value of ``assignment`` (canonical
            :meth:`~repro.core.costmatrix.CostMatrices.sequence_cost`).
        change_count: changes under the requested counting mode.
        lower_bound: best Lagrangian dual value — the constrained
            optimum is provably >= this.
        gap: ``cost - lower_bound`` (0.0 certifies optimality).
        iterations: penalized DP solves performed.
        method: how the returned path was obtained —
            ``"unconstrained"`` (lam = 0 already feasible),
            ``"dual"`` (feasible path from the bisection), or
            ``"dual+merge"`` (rounded by sequential merging).
    """

    assignment: Tuple[int, ...]
    cost: float
    change_count: int
    lower_bound: float
    gap: float
    iterations: int
    method: str


def _solve_penalized(matrices: CostMatrices, lam: float,
                     count_initial_change: bool
                     ) -> Tuple[Tuple[int, ...], float]:
    """Shortest path minimizing ``cost + lam * counted_changes``.

    Same vectorized stage DP as :func:`~repro.core.sequence_graph.
    solve_unconstrained`, with ``lam`` added to every counted change
    edge. Returns the path and its *penalized* value.
    """
    exec_matrix, trans = matrices.exec_matrix, matrices.trans_matrix
    n_seg, n_cfg = exec_matrix.shape
    trans_pen = trans + lam
    np.fill_diagonal(trans_pen, 0.0)  # staying is never a change

    parents = np.empty((n_seg, n_cfg), dtype=np.int64)
    first = trans_pen if count_initial_change else trans
    dist = first[matrices.initial_index] + exec_matrix[0]
    parents[0] = matrices.initial_index
    reach = np.empty((n_cfg, n_cfg),
                     dtype=np.result_type(trans_pen, exec_matrix, dist))
    cols = np.arange(n_cfg)
    for i in range(1, n_seg):
        np.add(trans_pen.T, dist[None, :], out=reach)  # reach[c, p]
        best_parent = np.argmin(reach, axis=1)
        np.add(reach[cols, best_parent], exec_matrix[i], out=dist)
        parents[i] = best_parent
    if matrices.final_index is not None:
        # The destination hop is charged but never counted against k,
        # so it carries no penalty.
        dist = dist + trans[:, matrices.final_index]
    last = int(np.argmin(dist))
    return _walk_parents(parents, last), float(dist[last])


def solve_lp_rounding(matrices: CostMatrices, k: int,
                      count_initial_change: bool = True,
                      max_iterations: int = 48,
                      tolerance: float = 1e-9) -> LPResult:
    """Solve the k-constrained problem by LP-relaxation + rounding.

    Args:
        matrices: EXEC/TRANS matrices (with initial/final columns).
        k: maximum number of design changes.
        count_initial_change: whether C0 -> C1 consumes change budget
            (see :func:`~repro.core.costmatrix.count_changes`).
        max_iterations: cap on penalized DP solves across the
            multiplier search.
        tolerance: relative bracket width at which the bisection
            stops.

    Runtime is O(iterations x n x |C|^2) — independent of k, unlike
    the exact DP's O(k x n x |C|^2) table.
    """
    if k < 0:
        raise InfeasibleProblemError(f"change budget k={k} is negative")

    def solve(lam: float):
        assignment, penalized = _solve_penalized(
            matrices, lam, count_initial_change)
        cost = matrices.sequence_cost(assignment)
        changes = matrices.change_count(assignment,
                                        count_initial_change)
        return assignment, cost, changes, penalized - lam * k

    iterations = 1
    assignment, cost, changes, dual = solve(0.0)
    if changes <= k:
        # The unconstrained optimum fits the budget: provably exact.
        return LPResult(assignment=assignment, cost=cost,
                        change_count=changes, lower_bound=cost,
                        gap=0.0, iterations=iterations,
                        method="unconstrained")

    best_dual = dual
    incumbent: Optional[Tuple[Tuple[int, ...], float, int]] = None
    infeasible = assignment

    # Grow an upper bracket: for a large enough multiplier the DP
    # stops changing altogether (0 changes <= k).
    lo, hi = 0.0, 1.0
    while iterations < max_iterations:
        assignment, cost, changes, dual = solve(hi)
        iterations += 1
        best_dual = max(best_dual, dual)
        if changes <= k:
            if incumbent is None or cost < incumbent[1]:
                incumbent = (assignment, cost, changes)
            break
        infeasible = assignment
        lo = hi
        hi *= 4.0
    else:
        hi = None  # bracket never closed within budget

    while (hi is not None and iterations < max_iterations and
           hi - lo > tolerance * max(1.0, hi)):
        mid = 0.5 * (lo + hi)
        assignment, cost, changes, dual = solve(mid)
        iterations += 1
        best_dual = max(best_dual, dual)
        if changes <= k:
            hi = mid
            if incumbent is None or cost < incumbent[1]:
                incumbent = (assignment, cost, changes)
        else:
            lo = mid
            infeasible = assignment

    # Round the tightest infeasible path down to the budget and keep
    # the cheaper of (incumbent, rounded).
    merged = merge_to_k(matrices, infeasible, k,
                        count_initial_change=count_initial_change)
    method = "dual+merge"
    assignment, cost, changes = (merged.assignment, merged.cost,
                                 merged.change_count)
    if incumbent is not None and incumbent[1] <= cost:
        assignment, cost, changes = incumbent
        method = "dual"
    return LPResult(assignment=tuple(assignment), cost=float(cost),
                    change_count=int(changes),
                    lower_bound=float(best_dual),
                    gap=float(cost - best_dual),
                    iterations=iterations, method=method)
