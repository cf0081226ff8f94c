"""The five differential / invariant check families.

1. **Solver equivalence** (:func:`check_solver_equivalence`) — the
   vectorized DP, the pure-Python reference DP, and the explicit
   :class:`~repro.core.sequence_graph.SequenceGraph` shortest path
   must produce the same objective *exactly* (0 ulp). This is not a
   tolerance shortcut: all three paths accumulate each design's cost
   as the same left-fold ``((dist + trans) + exec)`` per stage, the
   canonical :meth:`~repro.core.costmatrix.CostMatrices.sequence_cost`
   order, and their tie-breaking rules coincide (first-lowest index),
   so any difference at all is a bug.

2. **Constrained invariants** (:func:`check_constrained_invariants`) —
   ``cost(k)`` is non-increasing in k, ``cost(k >= l)`` equals the
   unconstrained optimum exactly, change counts never exceed k, the
   per-solution invariant hook
   (:func:`~repro.core.kaware.constrained_invariant_violations`) is
   clean, and ``SIZE(C_i) <= b`` at every stage.

3. **Cost service** (:func:`check_cost_service`) — the batched
   :class:`~repro.core.costservice.CostService` matrices are
   bit-identical to the serial
   :class:`~repro.core.costmatrix.WhatIfCostProvider` loop and to the
   service's own scalar path (warm and cold), a cold batch build
   matches too while issuing fewer what-if calls than templates x
   configurations, and a stats-epoch bump actually invalidates the
   caches without changing values.

4. **Ground truth** (:func:`check_ground_truth`) — what-if estimates
   stay within a per-access-path relative-error budget of the cost
   actually metered by executing the statement against the live
   engine, and the buffer manager's I/O counters are self-consistent.

5. **Plan identity** (:func:`check_plan_identity`) — for every SELECT
   x configuration in the trace, the physical-plan tree the what-if
   optimizer costs must compare equal (dataclass equality, node by
   node) to the tree the executor picks with the configuration
   actually deployed, with bit-identical estimated costs. This is the
   plan-IR contract: hypothetical structures are catalog substitution,
   not a second costing path.

7. **Scale advisor** (:func:`check_summary_formulation` on live
   traces, :func:`check_lp_bounds` on synthetic matrices) — the
   compressed workload-summary formulation must fill EXEC/TRANS
   matrices bit-identical to the raw segmented problem (the weighted
   atom fold is the *same* fold, not an approximation), and the
   LP-relaxation solver's output must be feasible (budget, space
   bound, endpoints — the same invariant hook as family 2) with its
   certified interval ``[lower_bound, cost]`` actually containing the
   exact DP optimum. (Family 6, fault resilience, lives in
   :mod:`repro.faults.chaos`.)

8. **Deployment** (:func:`check_deployment`) — the compression axis
   and the transition scheduler: explicit level-NONE structures are
   bitwise the uncompressed ones (definition, geometry, estimates),
   relevance signatures never conflate compression levels whose
   estimates differ (the signature-cache safety contract), scheduled
   deployments perform exactly the symmetric difference inside any
   space bound and never cost more than the unscheduled order, and
   executing a plan lands the live catalog exactly on the target
   (resumably — re-execution is a no-op).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.costmatrix import (CostMatrices, WhatIfCostProvider,
                               build_cost_matrices)
from ..core.costservice import CostService
from ..core.kaware import (constrained_invariant_violations,
                           solve_constrained,
                           solve_constrained_reference)
from ..core.lp_advisor import solve_lp_rounding
from ..core.problem import summarize_problem
from ..core.sequence_graph import (SequenceGraph, solve_unconstrained,
                                   solve_unconstrained_reference)
from ..errors import InfeasibleProblemError
from ..sqlengine.sql.ast import SelectStmt
from .generators import MatrixInstance, TraceInstance
from .report import CheckResult

#: Relative-error budgets for estimate-vs-executed cost units, per
#: access-path kind. The what-if optimizer and the executor share one
#: cost model but diverge on estimated vs actual selectivity, so the
#: scan paths (whose cost is pure geometry) are tight while the seek
#: paths (whose cost rides on per-value row counts) get slack.
DEFAULT_GROUND_TRUTH_BUDGETS: Dict[str, float] = {
    "full_scan": 0.01,
    "index_only_scan": 0.05,
    "index_seek": 0.10,
    "view_scan": 0.05,
    "other": 0.50,
}


def _max_useful_k(matrices: CostMatrices,
                  count_initial_change: bool) -> int:
    return matrices.change_count(
        solve_unconstrained(matrices).assignment, count_initial_change)


# ----------------------------------------------------------------------
# family 1: solver equivalence
# ----------------------------------------------------------------------

def check_solver_equivalence(instance: MatrixInstance,
                             result: CheckResult) -> None:
    """Cross-check the three unconstrained solver paths and the two
    constrained solver paths on one instance, exactly."""
    matrices = instance.matrices
    label = instance.label

    vec = solve_unconstrained(matrices)
    ref = solve_unconstrained_reference(matrices)
    graph = SequenceGraph(matrices).shortest_path()
    result.check(
        vec.cost == ref.cost, label,
        f"unconstrained cost: vectorized {vec.cost!r} != "
        f"reference {ref.cost!r}")
    result.check(
        vec.assignment == ref.assignment, label,
        f"unconstrained assignment: vectorized {vec.assignment} != "
        f"reference {ref.assignment}")
    result.check(
        matrices.sequence_cost(vec.assignment) == vec.cost, label,
        f"vectorized cost {vec.cost!r} != canonical sequence cost "
        f"{matrices.sequence_cost(vec.assignment)!r}")
    result.check(
        graph.cost == vec.cost, label,
        f"graph shortest-path cost {graph.cost!r} != "
        f"vectorized {vec.cost!r}")
    result.check(
        graph.change_count == matrices.change_count(graph.assignment),
        label,
        f"graph change count {graph.change_count} != recomputed "
        f"{matrices.change_count(graph.assignment)}")

    for count_initial in (True, False):
        mode = f"count_initial={count_initial}"
        max_k = _max_useful_k(matrices, count_initial)
        for k in range(0, max_k + 2):
            where = f"{label} k={k} {mode}"
            vec_exc = ref_exc = None
            try:
                vec_k = solve_constrained(matrices, k, count_initial)
            except InfeasibleProblemError as exc:
                vec_exc = exc
            try:
                ref_k = solve_constrained_reference(matrices, k,
                                                    count_initial)
            except InfeasibleProblemError as exc:
                ref_exc = exc
            if not result.check(
                    (vec_exc is None) == (ref_exc is None), where,
                    f"feasibility disagreement: vectorized raised "
                    f"{vec_exc!r}, reference raised {ref_exc!r}"):
                continue
            if vec_exc is not None:
                continue
            result.check(
                vec_k.cost == ref_k.cost, where,
                f"constrained cost: vectorized {vec_k.cost!r} != "
                f"reference {ref_k.cost!r}")
            result.check(
                vec_k.assignment == ref_k.assignment, where,
                f"constrained assignment: vectorized "
                f"{vec_k.assignment} != reference {ref_k.assignment}")
            result.check(
                vec_k.change_count == ref_k.change_count, where,
                f"constrained change count: vectorized "
                f"{vec_k.change_count} != reference "
                f"{ref_k.change_count}")


# ----------------------------------------------------------------------
# family 2: constrained-solver invariants
# ----------------------------------------------------------------------

def check_constrained_invariants(instance: MatrixInstance,
                                 result: CheckResult) -> None:
    """Invariants of the k sweep on one instance (see module
    docstring, family 2)."""
    matrices = instance.matrices
    unconstrained = solve_unconstrained(matrices)
    for count_initial in (True, False):
        mode = f"count_initial={count_initial}"
        max_k = _max_useful_k(matrices, count_initial)
        previous_cost: Optional[float] = None
        for k in range(0, max_k + 2):
            where = f"{instance.label} k={k} {mode}"
            solved = solve_constrained(matrices, k, count_initial)
            violations = constrained_invariant_violations(
                matrices, solved, k,
                count_initial_change=count_initial,
                size_fn=instance.size_of,
                space_bound_bytes=instance.space_bound_bytes)
            if violations:
                result.failed(where, "; ".join(violations))
            else:
                result.passed()
            result.check(
                previous_cost is None or solved.cost <= previous_cost,
                where,
                f"cost(k) increased: cost({k}) = {solved.cost!r} > "
                f"cost({k - 1}) = {previous_cost!r}")
            previous_cost = solved.cost
            if k >= max_k:
                result.check(
                    solved.cost == unconstrained.cost, where,
                    f"cost at k={k} >= l={max_k} is {solved.cost!r}, "
                    f"unconstrained optimum is "
                    f"{unconstrained.cost!r}")


def solver_agreement_failures(matrices: CostMatrices, k: int,
                              count_initial_change: bool,
                              label: str = "experiment"
                              ) -> List[str]:
    """The experiments' end-of-run verify pass, on real matrices.

    Runs the solver-equivalence family (plus the invariant hook at the
    experiment's k) on one :class:`CostMatrices` and returns formatted
    failure strings. Called by the ``run_*`` experiment functions; a
    non-empty return means the figures upstream cannot be trusted.
    """
    result = CheckResult("experiment-verify",
                         "post-experiment solver agreement")
    vec = solve_unconstrained(matrices)
    ref = solve_unconstrained_reference(matrices)
    graph = SequenceGraph(matrices).shortest_path()
    result.check(vec.cost == ref.cost, label,
                 f"unconstrained: vectorized {vec.cost!r} != "
                 f"reference {ref.cost!r}")
    result.check(graph.cost == vec.cost, label,
                 f"unconstrained: graph {graph.cost!r} != "
                 f"vectorized {vec.cost!r}")
    solved = solve_constrained(matrices, k, count_initial_change)
    reference = solve_constrained_reference(matrices, k,
                                            count_initial_change)
    result.check(solved.cost == reference.cost, label,
                 f"k={k}: vectorized {solved.cost!r} != "
                 f"reference {reference.cost!r}")
    violations = constrained_invariant_violations(
        matrices, solved, k,
        count_initial_change=count_initial_change)
    for violation in violations:
        result.failed(label, violation)
    return [failure.format() for failure in result.failures]


# ----------------------------------------------------------------------
# family 3: cost-service bit-identity and invalidation
# ----------------------------------------------------------------------

def check_cost_service(instance: TraceInstance,
                       result: CheckResult) -> None:
    """Batch vs scalar bit-identity and epoch invalidation (family 3)."""
    problem = instance.problem
    service = instance.service
    optimizer = service.optimizer
    label = instance.label
    segments = problem.segments
    configs = problem.configurations

    batch_exec = service.exec_matrix(segments, configs)
    batch_trans = service.trans_matrix(configs)

    serial = build_cost_matrices(problem, WhatIfCostProvider(optimizer))
    result.check(
        np.array_equal(batch_exec, serial.exec_matrix), label,
        "batched EXEC matrix differs from the serial "
        "WhatIfCostProvider loop (max abs diff "
        f"{np.max(np.abs(batch_exec - serial.exec_matrix))!r})")
    result.check(
        np.array_equal(batch_trans, serial.trans_matrix), label,
        "batched TRANS matrix differs from the serial loop (max abs "
        f"diff {np.max(np.abs(batch_trans - serial.trans_matrix))!r})")

    # The service's own scalar path — warm (cache hits from the batch)
    # and cold (a fresh service routing through templates) — must
    # reproduce every matrix entry bitwise.
    cold = CostService(optimizer)
    for i, segment in enumerate(segments):
        for j, config in enumerate(configs):
            warm_units = service.exec_cost(segment, config)
            result.check(
                warm_units == batch_exec[i, j],
                f"{label} segment={i} config={config.label}",
                f"warm scalar exec_cost {warm_units!r} != batch "
                f"matrix entry {batch_exec[i, j]!r}")
            cold_units = cold.exec_cost(segment, config)
            result.check(
                cold_units == batch_exec[i, j],
                f"{label} segment={i} config={config.label}",
                f"cold scalar exec_cost {cold_units!r} != batch "
                f"matrix entry {batch_exec[i, j]!r}")
    for i, old in enumerate(configs):
        for j, new in enumerate(configs):
            units = service.trans_cost(old, new)
            result.check(
                units == batch_trans[i, j],
                f"{label} {old.label}->{new.label}",
                f"scalar trans_cost {units!r} != batch matrix entry "
                f"{batch_trans[i, j]!r}")

    # Atomic cost decomposition: a cold service matches the serial
    # oracle bit for bit while issuing strictly fewer what-if calls
    # than one per (template, configuration) — what an undecomposed
    # build would issue.
    fresh = CostService(optimizer)
    fresh_exec = fresh.exec_matrix(segments, configs)
    result.check(
        np.array_equal(fresh_exec, serial.exec_matrix), label,
        "cold-service EXEC matrix differs from the serial "
        "WhatIfCostProvider loop (max abs diff "
        f"{np.max(np.abs(fresh_exec - serial.exec_matrix))!r})")
    undecomposed_calls = fresh.stats.unique_templates * len(configs)
    result.check(
        fresh.stats.whatif_calls < undecomposed_calls, label,
        "relevance-signature decomposition saved zero what-if calls "
        f"({fresh.stats.whatif_calls} vs {undecomposed_calls} = "
        f"templates x configurations)")

    # Epoch invalidation: bumping the optimizer's stats epoch must
    # drop the caches (new what-if calls are issued) without changing
    # values when the stats themselves are unchanged.
    calls_before = service.stats.whatif_calls
    optimizer.refresh_stats(
        {name: instance.db.stats(name) for name in instance.db.tables})
    service.exec_cost(segments[0], configs[0])
    result.check(
        service.stats.whatif_calls > calls_before, label,
        "stats-epoch bump did not invalidate the cost-service caches "
        "(no new what-if calls after refresh_stats)")
    rebuilt = service.exec_matrix(segments, configs)
    result.check(
        np.array_equal(rebuilt, batch_exec), label,
        "EXEC matrix rebuilt after an identical-stats epoch bump "
        "differs from the original")



# ----------------------------------------------------------------------
# family 4: cost model vs executed ground truth
# ----------------------------------------------------------------------

def check_ground_truth(
        instance: TraceInstance, result: CheckResult,
        budgets: Optional[Dict[str, float]] = None,
        statements_per_segment: int = 3,
        configs_to_deploy: Optional[Sequence] = None) -> None:
    """Estimates vs live execution, per access path (family 4).

    Deploys a few candidate configurations for real, executes a sample
    of the trace under each, and holds the what-if estimate for every
    executed statement to a per-access-path relative-error budget
    against the metered cost units. Also asserts the buffer manager's
    :class:`~repro.sqlengine.buffer.IoMetrics` deltas are
    self-consistent. Leaves the database in the empty design.
    """
    db = instance.db
    budgets = dict(DEFAULT_GROUND_TRUTH_BUDGETS, **(budgets or {}))
    if configs_to_deploy is None:
        # Empty design plus the first two single-index candidates:
        # covers full scans, seeks, and index-only scans.
        configs_to_deploy = instance.problem.configurations[:3]
    sample = []
    for segment in instance.problem.segments:
        sample.extend(list(segment)[:statements_per_segment])
    for config in configs_to_deploy:
        db.apply_configuration(set(config))
        optimizer = db.what_if()
        for statement in sample:
            estimate = optimizer.estimate_statement(
                statement.ast, config.structures).units
            ground = db.execute_metered(statement.ast)
            actual = ground.units(db.params)
            kind = ground.access_kind
            budget = budgets.get(kind, budgets["other"])
            where = (f"{instance.label} config={config.label} "
                     f"kind={kind} sql={statement.sql!r}")
            error = abs(estimate - actual) / max(abs(actual), 1.0)
            result.check(
                error <= budget, where,
                f"estimate {estimate:.3f} vs executed {actual:.3f} "
                f"units: relative error {error:.3f} exceeds the "
                f"{kind} budget {budget}")
            io = ground.io
            result.check(
                0 <= io.physical_reads <= io.logical_reads, where,
                f"inconsistent IoMetrics: physical={io.physical_reads}"
                f" logical={io.logical_reads}")
            result.check(
                io.physical_writes >= 0, where,
                f"negative physical_writes {io.physical_writes}")
    db.apply_configuration(set())


# ----------------------------------------------------------------------
# family 5: what-if plan == executor plan
# ----------------------------------------------------------------------

def check_plan_identity(instance: TraceInstance,
                        result: CheckResult) -> None:
    """What-if and executor plan trees must be identical (family 5).

    For every candidate configuration, deploys it for real and asserts
    — per unique SELECT in the trace — that the plan object the
    what-if optimizer costed is structurally equal to the plan object
    the executor chooses against the materialized catalog, with the
    same estimated cost, bit for bit. Also executes one statement per
    configuration and asserts the plan recorded on the result is that
    same tree. Leaves the database in the empty design.
    """
    db = instance.db
    selects = []
    seen_sql = set()
    for segment in instance.problem.segments:
        for statement in segment:
            if isinstance(statement.ast, SelectStmt) and \
                    statement.sql not in seen_sql:
                seen_sql.add(statement.sql)
                selects.append(statement)
    for config in instance.problem.configurations:
        db.apply_configuration(set(config))
        optimizer = db.what_if()
        for statement in selects:
            where = (f"{instance.label} config={config.label} "
                     f"sql={statement.sql!r}")
            estimate = optimizer.estimate_statement(
                statement.ast, config.structures)
            executed_path = db.plan(statement.ast)
            if not result.check(
                    estimate.plan is not None and
                    executed_path.plan is not None, where,
                    "missing plan tree on what-if estimate or "
                    "executor access path"):
                continue
            result.check(
                estimate.plan == executed_path.plan, where,
                f"what-if plan != executor plan:\n"
                f"what-if:\n{estimate.plan.explain()}\n"
                f"executor:\n{executed_path.plan.explain()}")
            result.check(
                estimate.cost == executed_path.cost, where,
                f"plan cost drift: what-if {estimate.cost!r} != "
                f"executor {executed_path.cost!r}")
        if selects:
            # One real execution: the plan recorded on the result is
            # the same object family the what-if optimizer costed.
            probe = selects[0]
            estimate = optimizer.estimate_statement(
                probe.ast, config.structures)
            ground = db.execute_metered(probe.ast)
            path = ground.result.access_path
            if path is not None:
                result.check(
                    path.plan == estimate.plan,
                    f"{instance.label} config={config.label} "
                    f"sql={probe.sql!r}",
                    "executed plan differs from the what-if plan")
    db.apply_configuration(set())


# ----------------------------------------------------------------------
# family 7: summary formulation + LP solver (scale advisor)
# ----------------------------------------------------------------------

def check_summary_formulation(instance: TraceInstance,
                              result: CheckResult) -> None:
    """Summary-vs-raw bit-identity on a live trace (family 7).

    Summarizing the segmented problem and rebuilding its cost
    matrices through a fresh service must reproduce the raw problem's
    matrices bit for bit — the atom fold is the canonical weighted
    accumulation, not an approximation — and the exact DP through
    both formulations must therefore recommend identical designs.
    """
    problem = instance.problem
    optimizer = instance.service.optimizer
    label = instance.label
    summary_problem = summarize_problem(problem)
    raw_statements = sum(len(segment)
                         for segment in problem.segments)
    result.check(
        summary_problem.n_statements == raw_statements, label,
        f"summary lost statements: {summary_problem.n_statements} "
        f"!= {raw_statements}")
    raw = build_cost_matrices(problem, CostService(optimizer))
    compressed = build_cost_matrices(summary_problem,
                                     CostService(optimizer))
    result.check(
        np.array_equal(raw.exec_matrix, compressed.exec_matrix),
        label,
        "summary EXEC matrix differs from the raw segmented matrix "
        "(max abs diff "
        f"{np.max(np.abs(raw.exec_matrix - compressed.exec_matrix))!r})")
    result.check(
        np.array_equal(raw.trans_matrix, compressed.trans_matrix),
        label,
        "summary TRANS matrix differs from the raw segmented matrix")
    k = problem.k if problem.k is not None else 2
    for count_initial in (True, False):
        where = f"{label} k={k} count_initial={count_initial}"
        dp_raw = solve_constrained(raw, k, count_initial)
        dp_sum = solve_constrained(compressed, k, count_initial)
        result.check(
            dp_raw.cost == dp_sum.cost and
            dp_raw.assignment == dp_sum.assignment, where,
            f"k-aware DP disagrees across formulations: raw "
            f"{dp_raw.cost!r}/{dp_raw.assignment} vs summary "
            f"{dp_sum.cost!r}/{dp_sum.assignment}")


def check_lp_bounds(instance: MatrixInstance,
                    result: CheckResult) -> None:
    """LP-relaxation feasibility and certified bounds (family 7).

    For every budget up to just past the unconstrained change count,
    in both counting modes: the LP solution must pass the same
    invariant hook as the exact DP (budget, space bound, cost
    consistency), and its certified interval must contain the DP
    optimum — ``lower_bound <= dp.cost <= lp.cost`` with
    ``lp.cost - dp.cost <= gap``. A relative epsilon absorbs the
    dual bound's floating-point accumulation; the feasibility checks
    are exact.
    """
    matrices = instance.matrices
    for count_initial in (True, False):
        mode = f"count_initial={count_initial}"
        max_k = _max_useful_k(matrices, count_initial)
        for k in range(0, max_k + 2):
            where = f"{instance.label} k={k} {mode}"
            dp = solve_constrained(matrices, k, count_initial)
            lp = solve_lp_rounding(matrices, k, count_initial)
            violations = constrained_invariant_violations(
                matrices, lp, k, count_initial_change=count_initial,
                size_fn=instance.size_of,
                space_bound_bytes=instance.space_bound_bytes)
            if violations:
                result.failed(where, "LP solution: "
                              + "; ".join(violations))
            else:
                result.passed()
            epsilon = 1e-9 * max(1.0, abs(dp.cost))
            result.check(
                lp.lower_bound <= dp.cost + epsilon, where,
                f"LP lower bound {lp.lower_bound!r} exceeds the DP "
                f"optimum {dp.cost!r}")
            result.check(
                lp.cost >= dp.cost - epsilon, where,
                f"LP cost {lp.cost!r} beats the exact DP optimum "
                f"{dp.cost!r} — one of them is wrong")
            result.check(
                lp.cost - dp.cost <= lp.gap + epsilon, where,
                f"LP suboptimality {lp.cost - dp.cost!r} exceeds its "
                f"own reported gap {lp.gap!r}")
            result.check(
                lp.gap == lp.cost - lp.lower_bound, where,
                f"gap {lp.gap!r} != cost - lower_bound "
                f"{lp.cost - lp.lower_bound!r}")
            if k >= max_k:
                result.check(
                    lp.gap == 0.0 and lp.cost == dp.cost, where,
                    f"k >= l={max_k} must be exact with zero gap; "
                    f"got cost {lp.cost!r} (dp {dp.cost!r}), gap "
                    f"{lp.gap!r}")


# ----------------------------------------------------------------------
# family 8: compression identity + deployment scheduling
# ----------------------------------------------------------------------

def check_deployment(instance: TraceInstance,
                     result: CheckResult) -> None:
    """Compression identity and deployment scheduling (family 8).

    Three contracts:

    * **NONE bit-identity** — a structure at explicit level NONE is
      *the same structure* as one that never heard of compression:
      equal definition, bitwise-equal geometry, bitwise-equal
      estimates. Compressed variants order sanely (HEAVY pages <=
      LIGHT <= NONE, CPU factors the reverse).
    * **Signature soundness** — relevance signatures may never
      conflate compression levels whose estimates differ: whenever
      two configurations share a signature, their estimates must be
      bit-identical (this is the signature-cache safety contract; a
      violation means the cache would silently serve one level's
      cost for another).
    * **Schedule feasibility + execution** — a scheduled deployment
      performs each action exactly once, only creates absent
      structures and drops present ones, keeps every intermediate
      configuration inside a space bound when one is given, never
      costs more than the unscheduled default order, has
      non-increasing concurrent-exec rates for a SELECT-only
      segment with a create-only transition, and — executed for
      real — lands the catalog exactly on the target (and resumes
      as a no-op). Leaves the database in the empty design.
    """
    from ..core.deployment import (execute_deployment,
                                   schedule_deployment)
    from ..core.structures import (Compression, Configuration,
                                   EMPTY_CONFIGURATION)
    from ..sqlengine.index import IndexGeometry

    db = instance.db
    optimizer = instance.service.optimizer
    label = instance.label
    schema = db.tables["t"].schema
    nrows = db.tables["t"].nrows

    candidates = sorted(
        {d for config in instance.problem.configurations
         for d in config.structures},
        key=lambda d: (d.table, d.columns))
    levels = (Compression.NONE, Compression.LIGHT, Compression.HEAVY)

    # --- NONE bit-identity and geometry ordering ---------------------
    for definition in candidates:
        where = f"{label} {definition.label}"
        result.check(
            definition.with_compression(Compression.NONE) ==
            definition, where,
            "explicit NONE variant is not the uncompressed identity")
        default_geometry = IndexGeometry.compute(
            schema, definition.columns, nrows)
        none_geometry = IndexGeometry.compute(
            schema, definition.columns, nrows, Compression.NONE)
        result.check(
            default_geometry == none_geometry, where,
            f"explicit-NONE geometry differs from default geometry: "
            f"{none_geometry!r} != {default_geometry!r}")
        geometries = [IndexGeometry.compute(schema, definition.columns,
                                            nrows, level)
                      for level in levels]
        result.check(
            geometries[2].leaf_pages <= geometries[1].leaf_pages <=
            geometries[0].leaf_pages, where,
            "compressed leaf pages do not shrink with level: " +
            ", ".join(str(g.leaf_pages) for g in geometries))
        result.check(
            geometries[0].cpu_factor == 1.0 and
            geometries[0].cpu_factor <= geometries[1].cpu_factor <=
            geometries[2].cpu_factor, where,
            "decode CPU factors not monotone in the level: " +
            ", ".join(str(g.cpu_factor) for g in geometries))

    # --- signature soundness across levels ---------------------------
    templates = {}
    for segment in instance.problem.segments:
        for statement in segment:
            template = optimizer.statement_template(statement.ast)
            templates.setdefault(template.key, template)
    conflated = 0
    for template in templates.values():
        for definition in candidates:
            by_level = []
            for level in levels:
                config = frozenset({definition.with_compression(level)})
                signature = optimizer.relevance_signature(template,
                                                          config)
                units = optimizer.estimate_template(
                    template, config).cost.total(db.params)
                by_level.append((level, signature, units))
            for i in range(len(by_level)):
                for j in range(i + 1, len(by_level)):
                    level_a, sig_a, units_a = by_level[i]
                    level_b, sig_b, units_b = by_level[j]
                    if sig_a == sig_b and units_a != units_b:
                        conflated += 1
                        result.failed(
                            f"{label} template={template.key!r} "
                            f"{definition.label}",
                            f"signature conflates {level_a.name} and "
                            f"{level_b.name} but estimates differ: "
                            f"{units_a!r} != {units_b!r}")
    result.check(
        conflated == 0, label,
        f"{conflated} signature conflation(s) across compression "
        f"levels (the signature cache would serve wrong-level costs)")

    # --- schedule feasibility ----------------------------------------
    segment = instance.problem.segments[0]
    source = Configuration({candidates[0]})
    target = Configuration(
        {candidates[1],
         candidates[2].with_compression(Compression.LIGHT),
         candidates[0].with_compression(Compression.HEAVY)})
    plan = schedule_deployment(instance.service, source, target,
                               segment)
    expected_creates = sorted(
        (d.label for d in target.added(source)))
    expected_drops = sorted(
        (d.label for d in target.dropped(source)))
    result.check(
        sorted(s.definition.label for s in plan.steps
               if s.action == "create") == expected_creates and
        sorted(s.definition.label for s in plan.steps
               if s.action == "drop") == expected_drops, label,
        f"schedule does not perform the symmetric difference exactly "
        f"once: {[s.label for s in plan.steps]}")
    configurations = plan.configurations()
    result.check(
        configurations[0] == source and
        configurations[-1] == target, label,
        "schedule endpoints are not (source, target)")
    greedy_only = schedule_deployment(instance.service, source,
                                      target, segment, exact_limit=0)
    result.check(
        plan.total_units <= greedy_only.total_units + 1e-9, label,
        f"exact-eligible schedule costs more than greedy/default: "
        f"{plan.total_units!r} > {greedy_only.total_units!r}")

    bound = max(
        optimizer.configuration_size_bytes(source.structures),
        optimizer.configuration_size_bytes(target.structures),
        max(optimizer.configuration_size_bytes(c.structures)
            for c in configurations))
    bounded = schedule_deployment(instance.service, source, target,
                                  segment, space_bound_bytes=bound)
    result.check(
        all(optimizer.configuration_size_bytes(c.structures) <= bound
            for c in bounded.configurations()), label,
        "bounded schedule exceeds the space bound mid-deployment")

    selects = segment.__class__(
        statements=tuple(s for s in segment.statements
                         if isinstance(s.ast, SelectStmt)),
        start=segment.start)
    create_only = schedule_deployment(
        instance.service, EMPTY_CONFIGURATION,
        Configuration({candidates[0], candidates[1]}), selects)
    rates = [step.exec_rate for step in create_only.steps]
    result.check(
        all(a >= b - 1e-9 for a, b in zip(rates, rates[1:])), label,
        f"SELECT-only create-only deployment has an increasing "
        f"intermediate exec rate: {rates}")

    # --- execution lands on the target, resume is a no-op ------------
    db.apply_configuration(set(source.structures))
    report = execute_deployment(db, plan)
    landed = Configuration(db.current_configuration())
    result.check(
        report.completed and landed == target, label,
        f"deployment landed on {landed.label}, not {target.label}")
    resumed = execute_deployment(db, plan)
    result.check(
        not resumed.executed and
        len(resumed.skipped) == len(plan.steps), label,
        "re-executing a completed plan was not a pure no-op")
    db.apply_configuration(set())


def replay_ranking_failures(
        metered_totals: Dict[Tuple[str, str], float],
        estimated_totals: Dict[Tuple[str, str], float],
        label: str = "figure3") -> List[str]:
    """Figure 3's verify pass: the cost model and the live engine must
    *rank* every pair of (workload, design) replays the same way.

    Absolute units differ between the two (estimates price each
    statement in isolation; the metered replay shares one buffer
    pool), but if any pairwise ordering flips, the estimated and
    measured versions of Figure 3 tell different stories.
    """
    failures: List[str] = []
    keys = sorted(metered_totals)
    if sorted(estimated_totals) != keys:
        return [f"[{label}] replay key sets differ: "
                f"{keys} vs {sorted(estimated_totals)}"]
    for a_index, a in enumerate(keys):
        for b in keys[a_index + 1:]:
            metered_order = _order(metered_totals[a],
                                   metered_totals[b])
            estimated_order = _order(estimated_totals[a],
                                     estimated_totals[b])
            if metered_order != estimated_order and \
                    0 not in (metered_order, estimated_order):
                failures.append(
                    f"[{label}] ranking flip for {a} vs {b}: metered "
                    f"{metered_totals[a]:.1f} vs "
                    f"{metered_totals[b]:.1f}, estimated "
                    f"{estimated_totals[a]:.1f} vs "
                    f"{estimated_totals[b]:.1f}")
    return failures


def _order(a: float, b: float, rel_tol: float = 0.02) -> int:
    """-1 / 0 / 1 ordering with a tolerance band: totals within
    ``rel_tol`` of each other count as tied (either order fine)."""
    if abs(a - b) <= rel_tol * max(abs(a), abs(b), 1.0):
        return 0
    return -1 if a < b else 1
