"""Costing-pipeline performance: atomic cost decomposition.

Measures EXEC matrix construction over the enriched Table 1 mixes
(dozens of templates via the range/ordered/two-column enrichment
statements) against the enlarged candidate space (44 structures, 991
configurations) through the signature-decomposed cost service, and
asserts the decomposition contract: sampled cells bit-identical to the
scalar oracles, with a >= 3x reduction in what-if calls against one
estimate per (template, configuration).
"""

import os

import pytest

from repro.bench.perf import (build_perf_database, build_perf_problems,
                              run_perf)
from repro.core.costservice import CostService


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


NROWS = _env_int("REPRO_BENCH_NROWS", 100_000)
BLOCK = _env_int("REPRO_BENCH_BLOCK", 100)


@pytest.fixture(scope="module")
def perf_db():
    return build_perf_database(NROWS, seed=0)


@pytest.fixture(scope="module")
def perf_problems(perf_db):
    return build_perf_problems(perf_db, BLOCK, seed=0)


def test_perf_report(capsys):
    report = run_perf(nrows=NROWS, block_size=BLOCK, seed=0)
    with capsys.disabled():
        print("\n" + report.format() + "\n")
    assert report.ok, report.failures
    assert report.call_reduction >= 3.0, (
        f"decomposition only cut what-if calls by "
        f"{report.call_reduction:.2f}x (need >= 3x)")


def _build_all(service, problems):
    return {mix: service.exec_matrix(problem.segments,
                                     problem.configurations)
            for mix, problem in problems.items()}


def test_bench_matrices_decomposed(benchmark, perf_db, perf_problems):
    def build():
        return _build_all(CostService(perf_db.what_if()),
                          perf_problems)

    matrices = benchmark(build)
    assert set(matrices) == set(perf_problems)
