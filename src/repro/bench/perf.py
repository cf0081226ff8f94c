"""Costing-performance benchmark: the repo's benchmark trajectory.

``run_perf`` measures what the atomic cost decomposition buys on the
paper's Table 1 workload mixes (W1-W3 over the Section 6.1 table),
against a space large enough to matter: every mix workload is
enriched with a deterministic set of template-diverse statements
(range scans at several widths per column, ordered scans, two-column
probes — dozens of distinct templates), and the candidate space holds
44 structures (single-column indexes at every compression level,
two-column composites uncompressed and HEAVY, projection views
uncompressed and LIGHT), all configurations of at most two structures
(991 configurations).

One leg, ``decomposed``, builds the EXEC matrices for every mix
(plus a TRANS sample) through one :class:`~repro.core.costservice.
CostService` session, which issues one what-if estimate per
(template, relevance signature).

The report records wall time per phase, what-if calls, signature
cache counters and the call-reduction ratio — ``unique templates x
configurations`` (what one estimate per (template, configuration)
would issue) over the calls actually issued — plus a
:func:`~repro.bench.reporting.provenance` block (commit, Python and
numpy versions, CPUs, date). It *verifies* along the way that a
seeded sample of EXEC and TRANS cells is bit-identical to the scalar
oracles (:meth:`~repro.core.costmatrix.WhatIfCostProvider.exec_cost`
and :meth:`~repro.sqlengine.whatif.WhatIfOptimizer.
transition_units`) and that decomposition saves what-if calls;
either failure flips the CLI exit code.

``repro perf`` drives this and writes ``BENCH_PERF.json``;
``benchmarks/bench_perf.py`` wraps the same entry points under
pytest-benchmark.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.costmatrix import WhatIfCostProvider
from ..core.costservice import CostService
from ..core.problem import ProblemInstance, enumerate_configurations
from ..core.structures import Compression, EMPTY_CONFIGURATION
from ..sqlengine.database import Database
from ..sqlengine.index import IndexDef
from ..sqlengine.views import ViewDef
from ..workload.mixes import (PAPER_VALUE_RANGE, make_paper_workload,
                              paper_generator)
from ..workload.model import Statement, Workload
from ..workload.segmentation import segment_by_count
from .reporting import provenance

#: Mixes measured (the Table 1 workloads).
PERF_MIXES = ("W1", "W2", "W3")

#: TRANS is built over this many configurations (the full space
#: would be |C|^2 transition estimates).
TRANS_CHECK_CONFIGS = 48

#: Cells per matrix (each mix's EXEC, and the TRANS sample) checked
#: against the scalar oracles.
ORACLE_SAMPLE_CELLS = 32

#: Range widths (per column) of the enrichment statements; each
#: width induces a distinct selectivity, hence a distinct template.
_PERF_SPANS = (2_000, 6_000, 18_000, 54_000, 160_000, 480_000)


def perf_candidate_structures(table: str = "t") -> List:
    """The benchmark's candidate space: the four single-column
    indexes at every compression level, every ordered two-column
    composite (uncompressed and HEAVY), and four projection views
    (uncompressed and LIGHT) — 44 structures, 991 configurations of
    at most two. Views share relevance signatures with composites on
    the same columns, so the space exercises both structure kinds in
    one signature; the compressed variants are *distinct* candidates
    (distinct geometry, distinct signatures), which is exactly the
    cache-conflation surface the oracle bit-identity check guards."""
    columns = ("a", "b", "c", "d")
    singles = [IndexDef(table, (c,), level) for c in columns
               for level in (Compression.NONE, Compression.LIGHT,
                             Compression.HEAVY)]
    composites = [IndexDef(table, (x, y), level)
                  for x in columns for y in columns if x != y
                  for level in (Compression.NONE, Compression.HEAVY)]
    view_columns = (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"))
    views = [ViewDef(table, cols, level) for cols in view_columns
             for level in (Compression.NONE, Compression.LIGHT)]
    return singles + composites + views


def perf_template_statements(table: str = "t") -> List[Statement]:
    """Deterministic template-diverse statements appended to every
    mix workload: six range widths per column, one ordered scan per
    column, and four two-column probes — 32 statements spanning
    dozens of distinct :class:`StatementTemplate` keys (every span
    induces its own selectivity). No RNG: the statements are a pure
    function of the value domain, so runs stay reproducible."""
    lo, hi = PAPER_VALUE_RANGE
    columns = ("a", "b", "c", "d")
    statements: List[Statement] = []
    for ci, column in enumerate(columns):
        for si, span in enumerate(_PERF_SPANS):
            start = lo + (ci * len(_PERF_SPANS) + si) * 937
            end = min(hi - 1, start + span)
            statements.append(Statement(
                f"SELECT {column} FROM {table} WHERE {column} "
                f"BETWEEN {start} AND {end}"))
        statements.append(Statement(
            f"SELECT {column} FROM {table} WHERE {column} < "
            f"{lo + (hi - lo) // (ci + 2)} ORDER BY {column}"))
    for x, y in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")):
        statements.append(Statement(
            f"SELECT {x}, {y} FROM {table} WHERE {x} = {lo + 137} "
            f"AND {y} < {lo + (hi - lo) // 3}"))
    return statements


@dataclass
class PerfLeg:
    """The measured matrix-build session (all mixes, one service).

    ``wall_seconds`` is the whole leg (EXEC builds plus the TRANS
    sample).
    """

    name: str
    wall_seconds: float
    exec_wall_seconds: float
    trans_wall_seconds: float
    whatif_calls: int
    whatif_calls_avoided: int
    signature_hits: int
    signature_fills: int
    unique_templates: int
    unique_signatures: int

    def as_dict(self) -> Dict[str, object]:
        return dict(vars(self))


@dataclass
class PerfReport:
    """Everything ``BENCH_PERF.json`` carries.

    ``failures`` is non-empty iff a sampled matrix entry differs
    from the scalar oracle or decomposition saved zero what-if calls
    — the conditions CI gates on.
    """

    params: Dict[str, object]
    legs: Dict[str, PerfLeg]
    call_reduction: float
    exec_cells: int
    oracle_cells: int
    provenance: Dict[str, object]
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, object]:
        return {
            "label": "costing-perf",
            "params": self.params,
            "provenance": self.provenance,
            "legs": {name: leg.as_dict()
                     for name, leg in self.legs.items()},
            "exec_cells": self.exec_cells,
            "oracle_cells": self.oracle_cells,
            "call_reduction": self.call_reduction,
            "failures": list(self.failures),
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def format(self) -> str:
        lines = ["costing performance (Table 1 mixes + template "
                 f"enrichment, {self.params['n_configs']} "
                 f"configurations, {self.params['nrows']} rows)"]
        for name, leg in self.legs.items():
            lines.append(
                f"  {name:<12} exec {leg.exec_wall_seconds * 1e3:9.1f} ms"
                f"  what-if calls {leg.whatif_calls:5d}"
                f"  avoided {leg.whatif_calls_avoided:7d}"
                f"  signatures {leg.unique_signatures:4d}")
        lines.append(
            f"  call reduction (templates x configurations / what-if "
            f"calls): {self.call_reduction:.2f}x")
        if self.failures:
            lines.append("  FAILURES:")
            lines.extend(f"    - {failure}" for failure in self.failures)
        else:
            lines.append(f"  {self.oracle_cells} sampled cells "
                         f"bit-identical to the scalar oracles")
        return "\n".join(lines)


def build_perf_database(nrows: int, seed: int) -> Database:
    """The Section 6.1 table at benchmark scale."""
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER"),
                          ("c", "INTEGER"), ("d", "INTEGER")])
    rng = np.random.default_rng(seed)
    lo, hi = PAPER_VALUE_RANGE
    db.bulk_load("t", {column: rng.integers(lo, hi, nrows)
                       for column in ("a", "b", "c", "d")})
    return db


def build_perf_problems(db: Database, block_size: int, seed: int
                        ) -> Dict[str, ProblemInstance]:
    """One problem instance per Table 1 mix over the enlarged
    candidate space, each mix workload enriched with the
    template-diverse statements."""
    configurations = tuple(enumerate_configurations(
        perf_candidate_structures(), max_indexes=2))
    extras = perf_template_statements()
    problems: Dict[str, ProblemInstance] = {}
    for i, name in enumerate(PERF_MIXES):
        generator = paper_generator(seed=seed + i + 1)
        workload = make_paper_workload(name, generator,
                                       block_size=block_size)
        enriched = Workload(list(workload) + extras, name=name)
        segments = tuple(segment_by_count(enriched, block_size))
        problems[name] = ProblemInstance(
            segments=segments, configurations=configurations,
            initial=EMPTY_CONFIGURATION, final=EMPTY_CONFIGURATION)
    return problems


def _run_leg(db: Database, problems: Dict[str, ProblemInstance],
             trans_configs: Sequence
             ) -> Tuple[PerfLeg, Dict[str, np.ndarray], np.ndarray]:
    service = CostService(db.what_if())
    exec_matrices: Dict[str, np.ndarray] = {}
    start = time.perf_counter()
    for mix, problem in problems.items():
        exec_matrices[mix] = service.exec_matrix(
            problem.segments, problem.configurations)
    exec_wall = time.perf_counter() - start
    start = time.perf_counter()
    trans_matrix = service.trans_matrix(trans_configs)
    trans_wall = time.perf_counter() - start
    stats = service.stats
    leg = PerfLeg(
        name="decomposed",
        wall_seconds=exec_wall + trans_wall,
        exec_wall_seconds=exec_wall,
        trans_wall_seconds=trans_wall,
        whatif_calls=stats.whatif_calls,
        whatif_calls_avoided=stats.whatif_calls_avoided,
        signature_hits=stats.signature_hits,
        signature_fills=stats.signature_fills,
        unique_templates=stats.unique_templates,
        unique_signatures=stats.unique_signatures)
    return leg, exec_matrices, trans_matrix


def _oracle_failures(db: Database,
                     problems: Dict[str, ProblemInstance],
                     exec_matrices: Dict[str, np.ndarray],
                     trans_configs: Sequence, trans_matrix: np.ndarray,
                     seed: int) -> Tuple[List[str], int]:
    """Compare a seeded sample of cells with the scalar oracles;
    returns the mismatches and the number of cells checked."""
    oracle = WhatIfCostProvider(db.what_if())
    rng = np.random.default_rng([seed, 13])
    failures: List[str] = []
    checked = 0
    for mix, problem in problems.items():
        matrix = exec_matrices[mix]
        n_seg, n_cfg = matrix.shape
        for i, j in zip(
                rng.integers(0, n_seg, ORACLE_SAMPLE_CELLS).tolist(),
                rng.integers(0, n_cfg, ORACLE_SAMPLE_CELLS).tolist()):
            want = oracle.exec_cost(problem.segments[i],
                                    problem.configurations[j])
            checked += 1
            if matrix[i, j] != want:
                failures.append(
                    f"{mix}: EXEC[{i},{j}] {float(matrix[i, j])!r} "
                    f"differs from the scalar oracle {want!r}")
    n = len(trans_configs)
    for i, j in zip(rng.integers(0, n, ORACLE_SAMPLE_CELLS).tolist(),
                    rng.integers(0, n, ORACLE_SAMPLE_CELLS).tolist()):
        want = 0.0 if i == j else oracle.optimizer.transition_units(
            trans_configs[i].structures, trans_configs[j].structures)
        checked += 1
        if trans_matrix[i, j] != want:
            failures.append(
                f"TRANS[{i},{j}] {float(trans_matrix[i, j])!r} "
                f"differs from transition_units {want!r}")
    return failures, checked


def run_perf(nrows: int = 100_000, block_size: int = 100,
             seed: int = 0, quick: bool = False) -> PerfReport:
    """Measure the costing leg and cross-check it with the oracles.

    Args:
        nrows / block_size / seed: scale parameters (same meaning as
            the other benches).
        quick: CI scale — shrinks the table and blocks (the config
            and template spaces stay at full size; they are what the
            call reduction is measured against).
    """
    if quick:
        nrows = min(nrows, 10_000)
        block_size = min(block_size, 40)
    db = build_perf_database(nrows, seed)
    problems = build_perf_problems(db, block_size, seed)
    some_problem = next(iter(problems.values()))
    n_configs = len(some_problem.configurations)
    trans_configs = some_problem.configurations[:TRANS_CHECK_CONFIGS]

    leg, exec_matrices, trans_matrix = _run_leg(db, problems,
                                                trans_configs)
    failures, oracle_cells = _oracle_failures(
        db, problems, exec_matrices, trans_configs, trans_matrix, seed)
    undecomposed_calls = leg.unique_templates * n_configs
    if leg.whatif_calls >= undecomposed_calls:
        failures.append(
            "decomposition saved zero what-if calls "
            f"({leg.whatif_calls} vs {undecomposed_calls} = templates "
            f"x configurations)")

    exec_cells = sum(
        len(p.segments) * len(p.configurations)
        for p in problems.values())
    call_reduction = (
        undecomposed_calls / leg.whatif_calls
        if leg.whatif_calls else float("inf"))
    params = {
        "nrows": nrows, "block_size": block_size, "seed": seed,
        "quick": quick,
        "mixes": list(problems),
        "n_configs": n_configs,
        "n_candidates": len(perf_candidate_structures()),
        "n_trans_configs": len(trans_configs),
    }
    return PerfReport(params=params, legs={leg.name: leg},
                      call_reduction=call_reduction,
                      exec_cells=exec_cells, oracle_cells=oracle_cells,
                      provenance=provenance(), failures=failures)
