"""Sequential design merging — the paper's Section 4.2 heuristic.

Start from a solution to the *unconstrained* problem (l changes) and
repeatedly merge a pair of consecutive distinct configurations
``(Ci, Ci+1)`` into a single replacement configuration ``C'`` chosen to
minimize::

    TRANS(C(i-1), C') + EXEC(Si u Si+1, C') + TRANS(C', C(i+2))

Each merge reduces the change count by at least one (by two when the
replacement equals a neighbour). Among all adjacent pairs we merge the
one with the smallest *penalty* — the cost increase over the current
design — and repeat until at most k changes remain.

We operate on the run-length representation of the design: a pair of
consecutive distinct configurations generalizes to a pair of adjacent
runs, and ``Si u Si+1`` to the union of the two runs' segments. At
statement granularity (runs of length 1) this is exactly the paper's
step. EXEC costs over runs come from prefix sums, so evaluating one
candidate replacement is O(1) and one merge step is
O(#runs x |C|) — matching the paper's O(x * 2^m) per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import DesignError, InfeasibleProblemError
from .costmatrix import CostMatrices


@dataclass(frozen=True)
class MergeStep:
    """One executed merge (for tracing/ablation output).

    Attributes:
        run_index: index of the left run of the merged pair.
        replacement: configuration index chosen for the merged span.
        penalty: cost increase incurred by this merge.
    """

    run_index: int
    replacement: int
    penalty: float


@dataclass
class MergingResult:
    """Outcome of sequential design merging."""

    assignment: Tuple[int, ...]
    cost: float
    change_count: int
    steps: List[MergeStep]


@dataclass
class _Run:
    cfg: int
    start: int
    end: int  # exclusive


def merge_to_k(matrices: CostMatrices,
               assignment: Sequence[int], k: int,
               count_initial_change: bool = True) -> MergingResult:
    """Reduce ``assignment`` to at most ``k`` changes by merging.

    Args:
        matrices: EXEC/TRANS matrices.
        assignment: initial design (config index per segment), normally
            the unconstrained optimum.
        k: target change budget.
        count_initial_change: whether C0 -> C1 counts (see
            :func:`~repro.core.costmatrix.count_changes`).
    """
    if k < 0:
        raise InfeasibleProblemError(f"change budget k={k} is negative")
    if len(assignment) != matrices.n_segments:
        raise DesignError("assignment length != number of segments")
    runs = _runs_of(list(assignment))
    steps: List[MergeStep] = []
    while matrices.change_count(_assignment_of(runs),
                                count_initial_change) > k:
        if len(runs) == 1:
            # A single run differing from C0 under strict counting:
            # replace it with the initial configuration.
            runs[0].cfg = matrices.initial_index
            break
        best_penalty, best_index, best_cfg = np.inf, -1, -1
        for i in range(len(runs) - 1):
            penalty, replacement = _best_merge(matrices, runs, i)
            if penalty < best_penalty:
                best_penalty, best_index, best_cfg = penalty, i, \
                    replacement
        runs = _apply_merge(runs, best_index, best_cfg)
        steps.append(MergeStep(run_index=best_index,
                               replacement=best_cfg,
                               penalty=float(best_penalty)))
    merged = _assignment_of(runs)
    return MergingResult(
        assignment=merged, cost=matrices.sequence_cost(merged),
        change_count=matrices.change_count(merged,
                                           count_initial_change),
        steps=steps)


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------

def _runs_of(assignment: List[int]) -> List[_Run]:
    runs: List[_Run] = []
    start = 0
    for i in range(1, len(assignment) + 1):
        if i == len(assignment) or assignment[i] != assignment[start]:
            runs.append(_Run(cfg=assignment[start], start=start, end=i))
            start = i
    return runs


def _assignment_of(runs: List[_Run]) -> Tuple[int, ...]:
    out: List[int] = []
    for run in runs:
        out.extend([run.cfg] * (run.end - run.start))
    return tuple(out)


def _best_merge(matrices: CostMatrices, runs: List[_Run],
                i: int) -> Tuple[float, int]:
    """Penalty and replacement config for merging runs i and i+1.

    The penalty follows the paper: new span cost (TRANS in + EXEC of
    the union + TRANS out) minus the current cost of the same span.
    """
    left, right = runs[i], runs[i + 1]
    prev_cfg = runs[i - 1].cfg if i > 0 else matrices.initial_index
    next_cfg = runs[i + 2].cfg if i + 2 < len(runs) else \
        matrices.final_index  # may be None (unconstrained destination)
    trans = matrices.trans_matrix
    span_start, span_end = left.start, right.end

    old_cost = (trans[prev_cfg, left.cfg] +
                matrices.exec_run_cost(left.start, left.end, left.cfg) +
                trans[left.cfg, right.cfg] +
                matrices.exec_run_cost(right.start, right.end,
                                       right.cfg))
    if next_cfg is not None:
        old_cost += trans[right.cfg, next_cfg]

    exec_span = (matrices.exec_prefix_sums()[span_end] -
                 matrices.exec_prefix_sums()[span_start])
    new_costs = trans[prev_cfg, :] + exec_span
    if next_cfg is not None:
        new_costs = new_costs + trans[:, next_cfg]
    replacement = int(np.argmin(new_costs))
    penalty = float(new_costs[replacement] - old_cost)
    return penalty, replacement


def _apply_merge(runs: List[_Run], i: int, cfg: int) -> List[_Run]:
    """Replace runs i, i+1 by one run with ``cfg`` and re-coalesce."""
    merged = _Run(cfg=cfg, start=runs[i].start, end=runs[i + 1].end)
    out = runs[:i] + [merged] + runs[i + 2:]
    # Coalesce with equal neighbours (the paper's reduce-by-two case).
    coalesced: List[_Run] = []
    for run in out:
        if coalesced and coalesced[-1].cfg == run.cfg:
            coalesced[-1] = _Run(cfg=run.cfg,
                                 start=coalesced[-1].start, end=run.end)
        else:
            coalesced.append(run)
    return coalesced
