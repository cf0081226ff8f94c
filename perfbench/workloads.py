"""The three closed-loop workloads of the advisor benchmark.

Each workload has one caller that waits for every reply, as a DBA or
a tuner does. The benchmark generates every input itself from the
seed (SQL text, table data, the trace file) and hands the program only
those inputs, so a change to the program's own generators cannot move
the benchmark. The program is driven only through public calls.

* ``advise_wide`` — TRANS and the k-aware DP grow with |C|^2: W1 at
  block size 100 plus 32 template-diverse statements (3,032 statements,
  31 segments) over 18 candidate structures (172 configurations of at
  most two) on a 100k-row table, solved at k=2 with a fresh
  ``CostService`` per operation.
* ``recommend_long`` — the bypass case for TRANS and the DP: a 12,000
  statement W2 trace sharing 8 templates, advised by one
  ``python -m repro recommend --compression`` child per operation
  (detected k, 30 candidates, 31 configurations).
* ``online_deploy`` — scalar costing next to real index builds: a
  ``BanditTuner`` over a 3,000-statement W1 stream against a live
  30k-row database. Every operation tunes a fresh stream (and
  database) drawn from the seed, because the number of deployments,
  which dominates the time, depends on the stream.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import spans
from repro.core.advisor import ConstrainedGraphAdvisor
from repro.core.bandit import BanditTuner, default_arms
from repro.core.costmatrix import CostMatrices, WhatIfCostProvider
from repro.core.costservice import CostService
from repro.core.problem import ProblemInstance, enumerate_configurations
from repro.core.structures import (Compression, Configuration,
                                   EMPTY_CONFIGURATION,
                                   compressed_variants,
                                   single_index_configurations)
from repro.sqlengine.database import Database
from repro.sqlengine.index import IndexDef
from repro.sqlengine.views import ViewDef
from repro.workload.analysis import detect_shifts
from repro.workload.model import Statement
from repro.workload.segmentation import (iter_segments_by_count,
                                         segment_by_count)
from repro.workload.trace import load_trace

TABLE = "t"
COLUMNS = ("a", "b", "c", "d")
VALUE_RANGE = (0, 500_000)

#: Table 1 of the paper: per-mix probability of querying a, b, c, d.
MIXES = {"A": (0.55, 0.25, 0.10, 0.10), "B": (0.25, 0.55, 0.10, 0.10),
         "C": (0.10, 0.10, 0.55, 0.25), "D": (0.10, 0.10, 0.25, 0.55)}

#: Table 2 of the paper: the mix of each of the 30 blocks.
W1_BLOCKS = "AABBAABBAA" "CCDDCCDDCC" "AABBAABBAA"
W2_BLOCKS = "ABABABABAB" "CDCDCDCDCD" "ABABABABAB"

#: Range widths of the template-diverse statements (one template each).
_RANGE_WIDTHS = (2_000, 6_000, 18_000, 54_000, 160_000, 480_000)

#: Scratch directory, under the repository root, for the trace file and
#: the CLI's output; removed at the end of every run.
WORK_DIR = ".bench_work"

GOLDEN_PATH = Path(__file__).resolve().with_name("golden_advise_wide.json")

ADVISE_ROWS = 100_000
ADVISE_BLOCK = 100
ADVISE_K = 2
RECOMMEND_BLOCK = 400
RECOMMEND_ROWS = 100_000
ONLINE_BLOCK = 100
ONLINE_ROWS = 30_000
ONLINE_OBSERVE_EVERY = 20


def point_queries(rng: np.random.Generator, blocks: str,
                  block_size: int) -> List[Tuple[str, str]]:
    """``(sql, mix label)`` point queries, one block per label."""
    lo, hi = VALUE_RANGE
    out: List[Tuple[str, str]] = []
    for label in blocks:
        columns = rng.choice(len(COLUMNS), size=block_size,
                             p=MIXES[label])
        values = rng.integers(lo, hi, size=block_size)
        for ci, value in zip(columns.tolist(), values.tolist()):
            column = COLUMNS[ci]
            out.append((f"SELECT {column} FROM {TABLE} "
                        f"WHERE {column} = {value}", label))
    return out


def template_queries() -> List[Tuple[str, str]]:
    """32 deterministic range, ordered and two-column statements, each
    its own template (every range width has its own selectivity)."""
    lo, hi = VALUE_RANGE
    out: List[Tuple[str, str]] = []
    for ci, column in enumerate(COLUMNS):
        for si, span in enumerate(_RANGE_WIDTHS):
            start = lo + (ci * len(_RANGE_WIDTHS) + si) * 937
            end = min(hi - 1, start + span)
            out.append((f"SELECT {column} FROM {TABLE} WHERE {column} "
                        f"BETWEEN {start} AND {end}", "T"))
        out.append((f"SELECT {column} FROM {TABLE} WHERE {column} < "
                    f"{lo + (hi - lo) // (ci + 2)} ORDER BY {column}",
                    "T"))
    for x, y in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")):
        out.append((f"SELECT {x}, {y} FROM {TABLE} WHERE {x} = "
                    f"{lo + 137} AND {y} < {lo + (hi - lo) // 3}", "T"))
    return out


def build_database(rng: np.random.Generator, nrows: int,
                   ranges: Dict[str, Tuple[int, int]]) -> Database:
    """Table ``t`` with uniform integers in each column's closed range,
    its statistics computed (a freshly loaded, analysed table)."""
    db = Database()
    db.create_table(TABLE, [(c, "INTEGER") for c in sorted(ranges)])
    db.bulk_load(TABLE, {column: rng.integers(lo, hi + 1, nrows)
                         for column, (lo, hi) in sorted(ranges.items())})
    db.stats(TABLE)
    return db


def paper_ranges() -> Dict[str, Tuple[int, int]]:
    lo, hi = VALUE_RANGE
    return {column: (lo, hi - 1) for column in COLUMNS}


def wide_candidates() -> List:
    """18 structures: single-column indexes, uncompressed and HEAVY,
    one HEAVY two-column composite per column pair, and four
    projection views."""
    levels = (Compression.NONE, Compression.HEAVY)
    singles = [IndexDef(TABLE, (c,), level) for c in COLUMNS
               for level in levels]
    composites = [IndexDef(TABLE, (x, y), Compression.HEAVY)
                  for i, x in enumerate(COLUMNS) for y in COLUMNS[i + 1:]]
    views = [ViewDef(TABLE, cols) for cols in
             (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"))]
    return singles + composites + views


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """One operation: its wall time, the program's output, and the
    per-layer metrics when it ran traced."""

    wall_s: float
    output: object
    ok: bool = True
    detail: str = ""
    layers: Optional[Dict[str, float]] = None
    peak_rss_mb: Optional[float] = None
    #: Sub-operations beyond the operation itself (deployments), and
    #: how many of them failed.
    extra_attempted: int = 0
    extra_failed: int = 0


def _traced_call(fn, recorder: Optional[spans.SpanRecorder]):
    """``(result, wall seconds)`` of ``fn()``, inside a root ``op``
    span with every layer boundary wrapped when ``recorder`` is set."""
    if recorder is None:
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start
    patches = spans.install(recorder)
    try:
        op = recorder.wrap("op", fn)
        start = time.perf_counter()
        result = op()
        return result, time.perf_counter() - start
    finally:
        patches.restore()


def _op_layers(recorder: spans.SpanRecorder) -> Dict[str, float]:
    layers = recorder.layers()
    out = spans.layer_metrics(layers)
    out.update(recorder.gauges)
    op = layers["op"]
    out["trace.coverage"] = 1.0 - op["self_s"] / op["top_s"]
    out["trace.traced_op_s"] = op["top_s"]
    return out


# ----------------------------------------------------------------------
# advise_wide
# ----------------------------------------------------------------------

@dataclass
class AdviseInputs:
    statements: List[Statement]
    configs: Tuple[Configuration, ...]
    db: Database


@dataclass
class AdviseOutput:
    recommendation: object
    matrices: CostMatrices
    segments: Tuple
    service: CostService


class AdviseWide:
    name = "advise_wide"

    def __init__(self, root: Path):
        #: Recorded k=2 assignment and cost per seed (record_golden.py).
        self.golden: Dict[str, dict] = json.loads(
            GOLDEN_PATH.read_text(encoding="utf-8"))

    def setup(self, seed: int, op: int) -> AdviseInputs:
        rng = np.random.default_rng(seed)
        queries = point_queries(rng, W1_BLOCKS, ADVISE_BLOCK) + \
            template_queries()
        configs = tuple(enumerate_configurations(wide_candidates(),
                                                 max_indexes=2))
        db = build_database(rng, ADVISE_ROWS, paper_ranges())
        return AdviseInputs([Statement(sql, tag) for sql, tag in queries],
                            configs, db)

    def run(self, inputs: AdviseInputs,
            recorder: Optional[spans.SpanRecorder] = None
            ) -> Outcome:
        def advise() -> AdviseOutput:
            segments = tuple(segment_by_count(inputs.statements,
                                              ADVISE_BLOCK))
            configs = inputs.configs
            service = CostService(inputs.db.what_if())
            empty = configs.index(EMPTY_CONFIGURATION)
            matrices = CostMatrices(
                configurations=configs,
                exec_matrix=service.exec_matrix(segments, configs),
                trans_matrix=service.trans_matrix(configs),
                initial_index=empty, final_index=empty)
            # SIZE of every configuration, as a space-bounded advise
            # needs it.
            for config in configs:
                service.size_bytes(config)
            problem = ProblemInstance(
                segments=segments, configurations=configs,
                initial=EMPTY_CONFIGURATION, k=ADVISE_K,
                final=EMPTY_CONFIGURATION)
            recommendation = ConstrainedGraphAdvisor(
                ADVISE_K, count_initial_change=False).recommend(
                    problem, service, matrices=matrices)
            return AdviseOutput(recommendation, matrices, segments,
                                service)

        output, wall = _traced_call(advise, recorder)
        outcome = Outcome(wall, output)
        if recorder is not None:
            outcome.layers = _op_layers(recorder)
            outcome.layers.update(
                spans.service_counters([output.service]))
        return outcome

    def checks(self, seed: int, inputs: AdviseInputs,
               outcome: Outcome) -> List[Check]:
        out: AdviseOutput = outcome.output
        rec, matrices = out.recommendation, out.matrices
        assignment = [matrices.config_index(c)
                      for c in rec.design.assignments]
        checks = [Check("advise.cost_is_sequence_cost",
                        rec.cost == matrices.sequence_cost(assignment),
                        f"{rec.cost!r} vs "
                        f"{matrices.sequence_cost(assignment)!r}")]

        rng = np.random.default_rng([seed, 7])
        oracle = WhatIfCostProvider(inputs.db.what_if())
        n_seg, n_cfg = matrices.exec_matrix.shape
        bad = []
        for i, j in zip(rng.integers(0, n_seg, 16).tolist(),
                        rng.integers(0, n_cfg, 16).tolist()):
            want = oracle.exec_cost(out.segments[i],
                                    matrices.configurations[j])
            if matrices.exec_matrix[i, j] != want:
                bad.append(f"EXEC[{i},{j}]")
        for i, j in zip(rng.integers(0, n_cfg, 64).tolist(),
                        rng.integers(0, n_cfg, 64).tolist()):
            want = 0.0 if i == j else oracle.optimizer.transition_units(
                matrices.configurations[i].structures,
                matrices.configurations[j].structures)
            if matrices.trans_matrix[i, j] != want:
                bad.append(f"TRANS[{i},{j}]")
        checks.append(Check("advise.oracle_sample", not bad,
                            ", ".join(bad[:5])))

        golden = self.golden.get(str(seed))
        if golden is not None:
            labels = [c.label for c in rec.design.assignments]
            checks.append(Check(
                "advise.golden",
                labels == golden["assignment"] and
                rec.cost == golden["cost"],
                f"cost {rec.cost!r} vs {golden['cost']!r}"))
        return checks

    def golden_record(self, outcome: Outcome) -> dict:
        rec = outcome.output.recommendation
        return {"assignment": [c.label for c in rec.design.assignments],
                "cost": rec.cost}


# ----------------------------------------------------------------------
# recommend_long
# ----------------------------------------------------------------------

@dataclass
class RecommendInputs:
    trace: Path
    argv: List[str]
    seed: int


class RecommendLong:
    name = "recommend_long"

    def __init__(self, root: Path):
        self.root = root
        self.work = root / WORK_DIR
        self._expected: Optional[str] = None

    def setup(self, seed: int, op: int) -> RecommendInputs:
        rng = np.random.default_rng(seed)
        queries = point_queries(rng, W2_BLOCKS, RECOMMEND_BLOCK)
        self.work.mkdir(exist_ok=True)
        trace = self.work / "recommend_long.jsonl"
        with trace.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "format": "repro-trace", "version": 1, "name": "W2",
                "n": len(queries)}) + "\n")
            for sql, tag in queries:
                handle.write(json.dumps({"sql": sql, "tag": tag}) + "\n")
        argv = ["recommend", "--trace", str(trace), "--compression",
                "--block-size", str(RECOMMEND_BLOCK),
                "--rows", str(RECOMMEND_ROWS), "--seed", str(seed)]
        return RecommendInputs(trace, argv, seed)

    def run(self, inputs: RecommendInputs,
            recorder: Optional[spans.SpanRecorder] = None
            ) -> Outcome:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        stdout_path = self.work / "recommend_long.out"
        spans_path = self.work / "recommend_long.spans.json"
        result_path = self.work / "recommend_long.result.json"
        here = Path(__file__).resolve().parent
        if recorder is None:
            command = [sys.executable, "-m", "repro", *inputs.argv]
        else:
            command = [sys.executable, str(here / "cli_child.py"),
                       str(spans_path), *inputs.argv]
        with stdout_path.open("w", encoding="utf-8") as stdout:
            subprocess.run([sys.executable, str(here / "launch.py"),
                            str(result_path), *command], check=True,
                           stdout=stdout, stderr=subprocess.STDOUT,
                           env=env, cwd=str(self.root))
        child = json.loads(result_path.read_text(encoding="utf-8"))
        text = stdout_path.read_text(encoding="utf-8")
        outcome = Outcome(child["wall_s"], text, ok=child["exit"] == 0,
                          detail=f"exit {child['exit']}",
                          peak_rss_mb=child["peak_rss_mb"])
        if recorder is not None and outcome.ok:
            outcome.layers = json.loads(
                spans_path.read_text(encoding="utf-8"))
        return outcome

    def _reference(self, inputs: RecommendInputs) -> str:
        """The design the CLI should print, computed in process."""
        workload = load_trace(inputs.trace)
        # The CLI synthesizes its table from each column's observed
        # constants with --seed; the reference mirrors it.
        ranges: Dict[str, Tuple[int, int]] = {}
        for statement in workload:
            for predicate in statement.ast.where.predicates:
                value = int(predicate.value)
                lo, hi = ranges.get(predicate.column, (value, value))
                ranges[predicate.column] = (min(lo, value), max(hi, value))
        db = build_database(np.random.default_rng(inputs.seed),
                            RECOMMEND_ROWS, ranges)
        k = detect_shifts(workload, RECOMMEND_BLOCK).suggested_k
        counts: Dict[str, int] = {}
        for statement in workload:
            for predicate in statement.ast.where.predicates:
                counts[predicate.column] = \
                    counts.get(predicate.column, 0) + 1
        ranked = sorted(counts, key=lambda c: -counts[c])
        candidates = [IndexDef(TABLE, (c,)) for c in sorted(ranked)]
        top = ranked[:4]
        for i, first in enumerate(top):
            for second in top[i + 1:]:
                candidates.append(IndexDef(TABLE, (first, second)))
        configs = single_index_configurations(
            compressed_variants(candidates))
        problem = ProblemInstance(
            segments=tuple(segment_by_count(workload, RECOMMEND_BLOCK)),
            configurations=configs, initial=EMPTY_CONFIGURATION, k=k,
            final=EMPTY_CONFIGURATION)
        rec = ConstrainedGraphAdvisor(
            k, count_initial_change=False).recommend(
                problem, CostService(db.what_if()))
        return (f"detected k = {k}\n"
                f"kaware: cost={rec.cost:.1f}, "
                f"changes={rec.change_count}\n"
                f"{rec.design.format_table()}")

    @staticmethod
    def _printed(text: str) -> str:
        lines = text.splitlines()
        k_line = next((ln for ln in lines if "detected k = " in ln), "")
        k = k_line.split("detected k = ")[-1].split(" ")[0]
        try:
            first = next(i for i, ln in enumerate(lines)
                         if ln.startswith("kaware: "))
        except StopIteration:
            return text
        summary = ", ".join(lines[first].split(", ")[:2])
        table = []
        for ln in lines[first + 1:]:
            if not ln.strip() or ln.startswith("costing:"):
                break
            table.append(ln)
        return f"detected k = {k}\n{summary}\n" + "\n".join(table)

    def checks(self, seed: int, inputs: RecommendInputs,
               outcome: Outcome) -> List[Check]:
        if self._expected is None:
            self._expected = self._reference(inputs)
        printed = self._printed(outcome.output)
        return [Check("recommend.matches_in_process",
                      printed == self._expected,
                      f"printed {printed!r} vs "
                      f"expected {self._expected!r}")]


# ----------------------------------------------------------------------
# online_deploy
# ----------------------------------------------------------------------

@dataclass
class OnlineInputs:
    statements: List[Statement]
    arms: Tuple[Configuration, ...]
    db: Database
    seed: int


@dataclass
class OnlineOutput:
    result: object
    tuner: BanditTuner


class OnlineDeploy:
    name = "online_deploy"

    def __init__(self, root: Path):
        pass

    def setup(self, seed: int, op: int) -> OnlineInputs:
        rng = np.random.default_rng([seed, op])
        queries = point_queries(rng, W1_BLOCKS, ONLINE_BLOCK)
        db = build_database(rng, ONLINE_ROWS, paper_ranges())
        candidates = [IndexDef(TABLE, (c,)) for c in COLUMNS] + [
            IndexDef(TABLE, ("a", "b")), IndexDef(TABLE, ("c", "d"))]
        arms = default_arms(candidates,
                            levels=(Compression.NONE, Compression.HEAVY))
        return OnlineInputs([Statement(sql, tag) for sql, tag in queries],
                            arms, db, seed * 1_000 + op)

    def run(self, inputs: OnlineInputs,
            recorder: Optional[spans.SpanRecorder] = None
            ) -> Outcome:
        service = CostService(inputs.db.what_if())
        tuner = BanditTuner(inputs.arms, service, db=inputs.db,
                            observe_every=ONLINE_OBSERVE_EVERY,
                            seed=inputs.seed)
        before = [inputs.db.buffer_manager.metrics.copy()]
        result, wall = _traced_call(
            lambda: tuner.run(inputs.statements), recorder)
        safety = result.safety
        outcome = Outcome(wall, OnlineOutput(result, tuner),
                          extra_attempted=safety["deployments"] +
                          safety["rollbacks"],
                          extra_failed=safety["rollbacks"])
        if recorder is not None:
            outcome.layers = _op_layers(recorder)
            outcome.layers.update(
                spans.service_counters([service]))
            outcome.layers.update(
                spans.buffer_counters([inputs.db], before))
            outcome.layers.update({
                "bandit.observations": safety["observations"],
                "bandit.switches": safety["switches"],
                "bandit.probe_calls": safety["probe_calls"],
                "bandit.bound_skips": safety["bound_skips"],
                "bandit.shift_resets": safety["shift_resets"]})
        return outcome

    def checks(self, seed: int, inputs: OnlineInputs,
               outcome: Outcome) -> List[Check]:
        out: OnlineOutput = outcome.output
        result, tuner = out.result, out.tuner
        landed = frozenset(inputs.db.current_configuration())
        checks = [Check("online.landed_is_incumbent",
                        landed == tuner.current.structures,
                        f"{sorted(d.label for d in landed)} vs "
                        f"{tuner.current}")]
        # Re-cost the run with a clean service: table statistics do not
        # change when structures are built, so the live database's
        # what-if view is the clean twin.
        clean = CostService(inputs.db.what_if())
        pre: Dict[int, float] = {}
        post: Dict[int, float] = {}
        for decision in result.decisions:
            bucket = pre if decision.fallback else post
            bucket[decision.observation_index] = \
                bucket.get(decision.observation_index, 0.0) + \
                clean.trans_cost(decision.old, decision.new)
        realized = stayput = 0.0
        for obs, segment in enumerate(iter_segments_by_count(
                inputs.statements, ONLINE_OBSERVE_EVERY)):
            realized += pre.get(obs, 0.0)
            realized += clean.exec_cost(
                segment, result.design.assignments[segment.start])
            stayput += clean.exec_cost(segment, result.design.initial)
            realized += post.get(obs, 0.0)
        gate = tuner.gate
        allowed = stayput * (1.0 + gate.regression_bound) + \
            gate.slack_units + 1e-6
        checks.append(Check("online.regression_bound",
                            realized <= allowed,
                            f"realized {realized:.1f} vs allowed "
                            f"{allowed:.1f}"))
        return checks


WORKLOADS = {cls.name: cls for cls in (AdviseWide, RecommendLong,
                                       OnlineDeploy)}
