"""k-aware sequence graphs — the optimal constrained solver (Section 3).

The paper generalizes sequence graphs by *layering* them: layer l holds
the designs reachable with exactly l configuration changes so far. A
node ``(stage i, layer l, config C)`` has a same-layer edge to
``(i+1, l, C)`` (no change) and edges to ``(i+1, l+1, C')`` for every
``C' != C`` (one more change). With ``k+1`` layers, source-to-sink
paths are exactly the design sequences with at most k changes, and the
optimal constrained design is the shortest such path — O(k n |C|^2).

We solve the layered DAG with a dynamic program over
``dist[layer, config]`` per stage, vectorized with NumPy, with full
parent tracking for path reconstruction. A pure-Python reference
implementation backs the property tests.

One presentation subtlety, resolved here explicitly: Definition 1
counts the step from the given initial design C0 to C1 as a change
(``i`` ranges over 1..n). The paper's *experiments*, however, choose
``k = number of major shifts`` (2) for a design whose initial index
build would already consume one change under the strict count — so the
experimental k evidently does not charge the C0 -> C1 transition. Both
semantics are supported via ``count_initial_change`` (default True =
strict Definition 1; the experiment harness passes False to match the
paper's tables); every solver counts with the one rule,
:func:`~repro.core.costmatrix.count_changes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..errors import DesignError, InfeasibleProblemError
from .costmatrix import CostMatrices

_INF = np.inf


@dataclass(frozen=True)
class ConstrainedResult:
    """Outcome of a k-aware optimization.

    Attributes:
        assignment: configuration index per segment.
        cost: objective value (EXEC + TRANS, incl. final transition).
        change_count: changes under the counting mode used to solve.
        layers_used: the layer the optimal path ends in.
    """

    assignment: Tuple[int, ...]
    cost: float
    change_count: int
    layers_used: int


def solve_constrained(matrices: CostMatrices, k: int,
                      count_initial_change: bool = True
                      ) -> ConstrainedResult:
    """Shortest path through the (k+1)-layer k-aware sequence graph.

    Args:
        matrices: EXEC/TRANS matrices (with initial/final columns).
        k: maximum number of design changes.
        count_initial_change: whether C0 -> C1 consumes change budget
            (strict Definition 1) or not (the paper's experimental
            convention).

    Raises:
        InfeasibleProblemError: if k < 0, or no design sequence with at
            most k changes reaches the required final configuration.
    """
    if k < 0:
        raise InfeasibleProblemError(f"change budget k={k} is negative")
    exec_matrix, trans = matrices.exec_matrix, matrices.trans_matrix
    n_seg, n_cfg = exec_matrix.shape
    n_layers = k + 1
    # trans with an infinite diagonal: "change" edges must move to a
    # different configuration (a same-config hop is the stay edge).
    trans_change = trans.copy()
    np.fill_diagonal(trans_change, _INF)

    dist = np.full((n_layers, n_cfg), _INF)
    if count_initial_change:
        dist[0, matrices.initial_index] = \
            exec_matrix[0, matrices.initial_index]
        if n_layers > 1:
            first = trans_change[matrices.initial_index] + exec_matrix[0]
            better = first < dist[1]
            dist[1, better] = first[better]
    else:
        dist[0] = trans[matrices.initial_index] + exec_matrix[0]

    # Parent bookkeeping: for stage i, layer l, config c we record the
    # predecessor config (same layer and config when "stay").
    # int32 halves the solver's dominant table; config indices are
    # bounded by |C| < 2**31.
    parent_cfg = np.empty((n_seg, n_layers, n_cfg), dtype=np.int32)
    parent_stay = np.zeros((n_seg, n_layers, n_cfg), dtype=bool)
    parent_cfg[0] = matrices.initial_index
    parent_stay[0] = False

    for i in range(1, n_seg):
        stay = dist + exec_matrix[i]
        new_dist = stay.copy()
        parent_stay[i] = True
        parent_cfg[i] = np.arange(n_cfg)
        if n_layers > 1:
            # change: from layer l-1, any other config.
            reach = dist[:-1, :, None] + trans_change[None, :, :]
            change_parent = np.argmin(reach, axis=1)       # (k, n_cfg)
            change_cost = np.take_along_axis(
                reach, change_parent[:, None, :], axis=1)[:, 0, :]
            change_cost = change_cost + exec_matrix[i]
            better = change_cost < new_dist[1:]
            new_dist[1:][better] = change_cost[better]
            layer_idx, cfg_idx = np.nonzero(better)
            parent_stay[i, layer_idx + 1, cfg_idx] = False
            parent_cfg[i, layer_idx + 1, cfg_idx] = \
                change_parent[layer_idx, cfg_idx]
        dist = new_dist

    final = dist
    if matrices.final_index is not None:
        final = dist + trans[:, matrices.final_index][None, :]
    if not np.isfinite(final).any():
        raise InfeasibleProblemError(
            f"no design sequence with at most {k} changes is feasible")
    flat = int(np.argmin(final))
    layer, cfg = divmod(flat, n_cfg)
    cost = float(final[layer, cfg])

    assignment = _reconstruct(parent_cfg, parent_stay, layer, cfg)
    return ConstrainedResult(
        assignment=assignment, cost=cost,
        change_count=matrices.change_count(assignment,
                                           count_initial_change),
        layers_used=layer)


def _reconstruct(parent_cfg: np.ndarray, parent_stay: np.ndarray,
                 layer: int, cfg: int) -> Tuple[int, ...]:
    n_seg = parent_cfg.shape[0]
    assignment = [cfg]
    for i in range(n_seg - 1, 0, -1):
        stay = bool(parent_stay[i, layer, cfg])
        previous = int(parent_cfg[i, layer, cfg])
        if not stay:
            layer -= 1
        cfg = previous
        assignment.append(cfg)
    assignment.reverse()
    return tuple(assignment)


def constrained_invariant_violations(
        matrices: CostMatrices, result: ConstrainedResult, k: int,
        count_initial_change: bool = True,
        size_fn: Optional[Callable[[int], int]] = None,
        space_bound_bytes: Optional[int] = None) -> List[str]:
    """Invariant hook: everything a constrained solution must satisfy.

    Returns human-readable violation descriptions (empty = all good).
    The verification harness (:mod:`repro.verify`) runs this after
    every solve; tests can call it directly on any
    :class:`ConstrainedResult`.

    Checked: assignment length; reported cost equals the canonical
    :meth:`CostMatrices.sequence_cost` of the assignment bit-for-bit
    (summation order is fixed across solvers); change count under the
    requested counting mode never exceeds ``k`` and matches the
    reported count; with ``size_fn`` (configuration column index ->
    bytes) and a space bound, ``SIZE(C_i) <= b`` at every stage.
    """
    violations: List[str] = []
    assignment = result.assignment
    if len(assignment) != matrices.n_segments:
        violations.append(
            f"assignment length {len(assignment)} != "
            f"{matrices.n_segments} segments")
        return violations
    canonical = matrices.sequence_cost(assignment)
    if canonical != result.cost:
        violations.append(
            f"reported cost {result.cost!r} != canonical "
            f"sequence cost {canonical!r}")
    changes = matrices.change_count(assignment, count_initial_change)
    if changes != result.change_count:
        violations.append(
            f"reported change count {result.change_count} != "
            f"recomputed {changes}")
    if changes > k:
        violations.append(
            f"{changes} changes exceed the budget k={k}")
    if k == 0 and count_initial_change and any(
            cfg != matrices.initial_index for cfg in assignment):
        violations.append(
            "k=0 with strict counting must stay on the initial "
            "configuration")
    if size_fn is not None and space_bound_bytes is not None:
        for i, cfg in enumerate(assignment):
            size = size_fn(cfg)
            if size > space_bound_bytes:
                violations.append(
                    f"SIZE(C_{i}) = {size} exceeds the space bound "
                    f"{space_bound_bytes}")
                break
    return violations


def solve_constrained_reference(matrices: CostMatrices, k: int,
                                count_initial_change: bool = True
                                ) -> ConstrainedResult:
    """Pure-Python k-aware DP (validates the vectorized solver)."""
    if k < 0:
        raise InfeasibleProblemError(f"change budget k={k} is negative")
    exec_matrix, trans = matrices.exec_matrix, matrices.trans_matrix
    n_seg, n_cfg = exec_matrix.shape
    n_layers = k + 1
    inf = float("inf")
    dist = [[inf] * n_cfg for _ in range(n_layers)]
    back: List[List[List[Optional[Tuple[int, int]]]]] = []
    if count_initial_change:
        dist[0][matrices.initial_index] = float(
            exec_matrix[0, matrices.initial_index])
        if n_layers > 1:
            for c in range(n_cfg):
                if c != matrices.initial_index:
                    dist[1][c] = float(
                        trans[matrices.initial_index, c] +
                        exec_matrix[0, c])
    else:
        for c in range(n_cfg):
            dist[0][c] = float(trans[matrices.initial_index, c] +
                               exec_matrix[0, c])
    back.append([[None] * n_cfg for _ in range(n_layers)])
    for i in range(1, n_seg):
        new_dist = [[inf] * n_cfg for _ in range(n_layers)]
        pointers: List[List[Optional[Tuple[int, int]]]] = \
            [[None] * n_cfg for _ in range(n_layers)]
        for l in range(n_layers):
            for c in range(n_cfg):
                exec_cost = float(exec_matrix[i, c])
                best = dist[l][c] + exec_cost
                best_ptr: Optional[Tuple[int, int]] = (l, c)
                if l > 0:
                    # Pick the change parent on the pre-exec base
                    # (dist + trans), then compare totals with the
                    # stay edge, ties going to "stay" — exactly the
                    # vectorized solver's order. (a + e) == (b + e)
                    # can hold bitwise for a != b, so where exec is
                    # added changes which tied parent wins.
                    base, parent = inf, None
                    for p in range(n_cfg):
                        if p == c:
                            continue
                        candidate = dist[l - 1][p] + float(trans[p, c])
                        if candidate < base:
                            base, parent = candidate, p
                    if parent is not None and base + exec_cost < best:
                        best = base + exec_cost
                        best_ptr = (l - 1, parent)
                if best < inf:
                    new_dist[l][c] = best
                    pointers[l][c] = best_ptr
        dist = new_dist
        back.append(pointers)
    best, best_state = inf, None
    for l in range(n_layers):
        for c in range(n_cfg):
            total = dist[l][c]
            if matrices.final_index is not None and total < inf:
                total += float(trans[c, matrices.final_index])
            if total < best:
                best, best_state = total, (l, c)
    if best_state is None:
        raise InfeasibleProblemError(
            f"no design sequence with at most {k} changes is feasible")
    layer, cfg = best_state
    assignment = [cfg]
    for i in range(n_seg - 1, 0, -1):
        pointer = back[i][layer][cfg]
        if pointer is None:
            raise DesignError(
                f"broken backpointer chain at segment {i} "
                f"(layer {layer}, config {cfg}); the DP table is "
                f"inconsistent")
        layer, cfg = pointer
        assignment.append(cfg)
    assignment.reverse()
    assignment_t = tuple(assignment)
    return ConstrainedResult(
        assignment=assignment_t, cost=float(best),
        change_count=matrices.change_count(assignment_t,
                                           count_initial_change),
        layers_used=best_state[0])
