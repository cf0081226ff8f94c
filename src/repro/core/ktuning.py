"""Choosing the change budget k — the paper's first open question.

"How should k be chosen?" (Section 2; revisited in the conclusion).
The paper offers domain knowledge (count the anticipated fluctuations)
and leaves the general case open. This module implements two general
strategies:

* **Cost-curve knee** (:func:`knee_k`): sweep k, get the optimal
  constrained cost per k (non-increasing), and pick the knee — the
  point after which extra changes stop buying much. This needs only
  the trace itself.

* **Validation against variations** (:func:`validated_k`): the direct
  operationalization of the paper's "representative trace" framing.
  For each k, recommend a design from the trace, then price it on a
  set of *variations* of the trace (see
  :mod:`repro.workload.perturb`); pick the k with the best mean
  validation cost. Overfit designs (large k) lose here exactly the
  way W1's unconstrained design loses on W2/W3 in Figure 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DesignError
from ..workload.model import Workload
from ..workload.segmentation import Segment, segment_by_count
from ..workload.summary import CostUnit, WorkloadSummary
from .costmatrix import (CostMatrices, CostProvider,
                         build_cost_matrices, supports_batching)
from .design import DesignSequence, design_from_indices
from .kaware import solve_constrained
from .problem import AnyProblem, ProblemInstance
from .sequence_graph import solve_unconstrained


@dataclass(frozen=True)
class KSweepResult:
    """Optimal constrained cost per k on the training trace.

    Attributes:
        ks: the budgets swept (ascending).
        costs: optimal cost per budget (non-increasing).
        unconstrained_cost: cost at k = infinity.
        unconstrained_changes: the l of the unconstrained optimum —
            sweeping beyond it is pointless.
    """

    ks: Tuple[int, ...]
    costs: Tuple[float, ...]
    unconstrained_cost: float
    unconstrained_changes: int

    def marginal_gains(self) -> List[float]:
        """Cost reduction bought by each budget increment."""
        return [self.costs[i] - self.costs[i + 1]
                for i in range(len(self.costs) - 1)]


def sweep_k(matrices: CostMatrices,
            ks: Optional[Sequence[int]] = None,
            count_initial_change: bool = True) -> KSweepResult:
    """Solve the constrained problem for every k in ``ks`` (default:
    0..l, where l is the unconstrained optimum's change count under
    ``count_initial_change``, see
    :func:`~repro.core.costmatrix.count_changes`)."""
    unconstrained = solve_unconstrained(matrices)
    l_changes = matrices.change_count(unconstrained.assignment,
                                      count_initial_change)
    if ks is None:
        ks = range(0, l_changes + 1)
    ks = sorted(set(int(k) for k in ks))
    if any(k < 0 for k in ks):
        raise DesignError("budgets must be non-negative")
    costs = [solve_constrained(matrices, k, count_initial_change).cost
             for k in ks]
    return KSweepResult(ks=tuple(ks), costs=tuple(costs),
                        unconstrained_cost=unconstrained.cost,
                        unconstrained_changes=l_changes)


def knee_k(sweep: KSweepResult,
           min_relative_gain: float = 0.0) -> int:
    """The knee of the cost-vs-k curve, by maximum chord distance.

    Normalize both axes to [0, 1], draw the chord from (k_min, cost)
    to (k_max, cost), and return the k whose point lies furthest
    *below* the chord — the standard "kneedle" criterion, robust to
    plateaus before the cliff. Degenerate curves: a flat curve returns
    the smallest k (changes buy nothing); a perfectly linear curve
    returns the largest (every change keeps paying off equally).

    ``min_relative_gain`` optionally requires the knee's cumulative
    gain to cover at least that fraction of the total gain; points
    failing it are skipped. When no point has a kneedle score (all lie
    on or above the chord), the fallback is explicit: the smallest k
    meeting the cumulative-gain gate, else the largest k — never an
    accidental index 0 from ``argmax`` over all ``-inf``.
    """
    if len(sweep.ks) == 1:
        return sweep.ks[0]
    costs = np.asarray(sweep.costs, dtype=float)
    ks = np.asarray(sweep.ks, dtype=float)
    total_gain = costs[0] - costs[-1]
    if total_gain <= 0:
        return sweep.ks[0]
    x = (ks - ks[0]) / (ks[-1] - ks[0])
    y = (costs - costs[-1]) / total_gain          # 1 -> 0
    chord = 1.0 - x                               # straight decline
    below = chord - y                             # distance under it
    eligible = np.ones(len(sweep.ks), dtype=bool)
    if min_relative_gain > 0:
        cumulative = (costs[0] - costs) / total_gain
        eligible = cumulative >= min_relative_gain
        if not eligible.any():
            # The gate filtered every point; argmax over an all
            # -inf array would silently pick index 0.
            return sweep.ks[-1]
        below = np.where(eligible, below, -np.inf)
    best = int(np.argmax(below))
    if below[best] <= 1e-12:
        # No knee: nothing sits meaningfully under the chord. Prefer
        # the smallest budget that still clears the cumulative-gain
        # gate; without a gate, every change keeps paying off equally,
        # so take the largest.
        if min_relative_gain > 0:
            return sweep.ks[int(np.argmax(eligible))]
        return sweep.ks[-1]
    return sweep.ks[best]


@dataclass
class ValidatedKResult:
    """Outcome of validation-based k selection.

    Attributes:
        best_k: the chosen budget.
        ks: budgets evaluated.
        training_costs: optimal cost of each k's design on the trace.
        validation_costs: mean cost of each k's design across the
            variation workloads.
        designs: the design recommended per k (from the trace).
    """

    best_k: int
    ks: List[int]
    training_costs: List[float]
    validation_costs: List[float]
    designs: Dict[int, DesignSequence]


def validated_k(problem: AnyProblem, provider: CostProvider,
                variations: Sequence[object], block_size: int,
                ks: Optional[Sequence[int]] = None,
                count_initial_change: bool = True
                ) -> ValidatedKResult:
    """Pick k by validating trace-derived designs on trace variations.

    For each candidate k: solve the constrained problem on the trace,
    then price the *same design* (aligned block-by-block) on every
    variation workload; choose the k with the lowest mean validation
    cost. Ties break toward the smaller (less overfit) k.

    Args:
        problem: the training problem (segmented or summarized).
        provider: cost provider (shared across trace and variations).
        variations: similar-but-not-identical workloads — raw
            :class:`~repro.workload.model.Workload` s or compressed
            :class:`~repro.workload.summary.WorkloadSummary` s (the
            two may be mixed); each must yield the same number of
            blocks/phases as the training problem.
        block_size: segmentation used for raw variation workloads
            (summaries carry their own phase boundaries).
        ks: candidate budgets (default 0..l, as in :func:`sweep_k`).
        count_initial_change: the change-counting convention for both
            l and the constrained solves.
    """
    matrices = build_cost_matrices(problem, provider)
    unconstrained = solve_unconstrained(matrices)
    l_changes = matrices.change_count(unconstrained.assignment,
                                      count_initial_change)
    if ks is None:
        ks = range(0, l_changes + 1)
    ks = sorted(set(int(k) for k in ks))

    variation_segments: List[List[CostUnit]] = []
    for variation in variations:
        if isinstance(variation, WorkloadSummary) or \
                hasattr(variation, "phases"):
            segments = list(variation.phases)
        else:
            segments = segment_by_count(variation, block_size)
        if len(segments) != problem.n_segments:
            raise DesignError(
                f"variation {variation.name!r} has {len(segments)} "
                f"blocks, trace has {problem.n_segments}")
        variation_segments.append(segments)

    training_costs: List[float] = []
    designs: Dict[int, DesignSequence] = {}
    for k in ks:
        result = solve_constrained(matrices, k, count_initial_change)
        designs[k] = design_from_indices(matrices, result.assignment,
                                        problem.initial)
        training_costs.append(result.cost)

    # Price every k's design on every variation. A batch-capable
    # provider fills one deduplicated EXEC matrix per variation over
    # the configurations the designs actually use, so the pricing
    # loops below reduce to array lookups; the summation order (and
    # thus the result) is identical to the scalar path.
    exec_lookups: List[Optional[object]] = [None] * len(
        variation_segments)
    if supports_batching(provider):
        used: List[object] = []
        for design in designs.values():
            for config in design.assignments:
                if config not in used:
                    used.append(config)
        columns = {config: j for j, config in enumerate(used)}
        for v, segments in enumerate(variation_segments):
            exec_matrix = provider.exec_matrix(segments, tuple(used))

            def lookup(i, config, _m=exec_matrix, _c=columns):
                return float(_m[i, _c[config]])

            exec_lookups[v] = lookup
    validation_costs: List[float] = []
    for k in ks:
        design = designs[k]
        validation_costs.append(float(np.mean([
            _design_cost_on(provider, segments, design, problem,
                            exec_lookup)
            for segments, exec_lookup
            in zip(variation_segments, exec_lookups)])))
    best_index = int(np.argmin(validation_costs))
    # Prefer the smallest k within a hair of the best. The tolerance
    # needs an absolute floor: a purely relative bound collapses when
    # the best validation cost is 0 (nothing but exact zeros would
    # tie, so a near-zero smaller k loses to a zero larger k).
    best_value = validation_costs[best_index]
    for i, value in enumerate(validation_costs):
        if math.isclose(value, best_value, rel_tol=1e-9,
                        abs_tol=1e-12):
            best_index = i
            break
    return ValidatedKResult(best_k=ks[best_index], ks=list(ks),
                            training_costs=training_costs,
                            validation_costs=validation_costs,
                            designs=designs)


def _design_cost_on(provider: CostProvider,
                    segments: Sequence[CostUnit],
                    design: DesignSequence,
                    problem: AnyProblem,
                    exec_lookup=None) -> float:
    """Price a fixed design on a segment sequence.

    ``exec_lookup(i, config)``, when given, replaces the per-segment
    ``provider.exec_cost`` calls with prebuilt batch-matrix lookups.
    """
    total = 0.0
    current = design.initial
    for i, (segment, config) in enumerate(zip(segments,
                                              design.assignments)):
        if config != current:
            total += provider.trans_cost(current, config)
            current = config
        if exec_lookup is not None:
            total += exec_lookup(i, config)
        else:
            total += provider.exec_cost(segment, config)
    if problem.final is not None and problem.final != current:
        total += provider.trans_cost(current, problem.final)
    return total
