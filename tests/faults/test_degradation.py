"""Graceful degradation of cost estimation under injected faults.

The ladder: exact (with transparent transient retries) -> stale epoch
cache -> heap-scan upper bound. A degraded estimate is counted, cached
separately, and never promoted into the exact cache. Faulted and
fault-free runs take the same EXEC path: one estimate per (template,
relevance signature).
"""

import numpy as np
import pytest

from repro.core.costservice import CostService
from repro.core.structures import Configuration, EMPTY_CONFIGURATION
from repro.faults import (PERMANENT, TRANSIENT, FaultInjector,
                          FaultPlan, FaultSpec)
from repro.sqlengine.database import Database
from repro.sqlengine.index import IndexDef
from repro.workload.model import Statement
from repro.workload.segmentation import Segment


def _database():
    rng = np.random.default_rng(5)
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "INTEGER")])
    db.bulk_load("t", {"a": rng.integers(0, 100, 2000),
                       "b": rng.integers(0, 100, 2000)})
    return db


def _segment(sql="SELECT a FROM t WHERE a = 3"):
    return Segment((Statement(sql),), start=0)


#: One statement per segment, so matrix row i is template i.
_SQLS = ("SELECT a FROM t WHERE a = 1",
         "SELECT b FROM t WHERE b = 2",
         "SELECT a, b FROM t WHERE a < 40",
         "SELECT b FROM t WHERE b > 10 ORDER BY b",
         "INSERT INTO t (a, b) VALUES (1, 2)")

_CONFIGS = (EMPTY_CONFIGURATION,
            Configuration({IndexDef("t", ("a",))}),
            Configuration({IndexDef("t", ("b",))}),
            Configuration({IndexDef("t", ("a",)), IndexDef("t", ("b",))}),
            Configuration({IndexDef("t", ("a", "b"))}),
            Configuration({IndexDef("t", ("b", "a"))}))


def _multi_config_problem():
    segments = [Segment((Statement(sql),), start=i)
                for i, sql in enumerate(_SQLS)]
    return segments, list(_CONFIGS)


def _counters(service):
    stats = service.stats.as_dict()
    for timing in ("exec_seconds", "trans_seconds"):
        del stats[timing]
    return stats


def _injector(kind, probability=1.0, max_faults=None, seed=0):
    return FaultInjector(
        FaultPlan(specs=(FaultSpec("estimate", kind,
                                   probability=probability,
                                   max_faults=max_faults),)),
        seed=seed)


def test_transient_faults_are_retried_to_exact_values():
    clean = CostService(_database().what_if())
    expected = clean.exec_cost(_segment(), EMPTY_CONFIGURATION)

    faulty = CostService(_database().what_if())
    faulty.optimizer.fault_injector = _injector(TRANSIENT,
                                                max_faults=1)
    actual = faulty.exec_cost(_segment(), EMPTY_CONFIGURATION)
    assert actual == expected
    assert faulty.stats.estimate_faults == 1
    assert faulty.stats.estimate_retries == 1
    assert faulty.stats.degraded_estimates == 0


def test_permanent_fault_falls_back_to_upper_bound():
    clean = CostService(_database().what_if())
    exact = clean.exec_cost(_segment(), EMPTY_CONFIGURATION)

    faulty = CostService(_database().what_if())
    faulty.optimizer.fault_injector = _injector(PERMANENT)
    degraded = faulty.exec_cost(_segment(), EMPTY_CONFIGURATION)
    assert faulty.stats.degraded_estimates == 1
    assert faulty.stats.upper_bound_fallbacks == 1
    assert faulty.stats.stale_fallbacks == 0
    # The heap-scan bound is an upper bound on the exact estimate.
    assert degraded >= exact


def test_stale_epoch_cache_preferred_over_upper_bound():
    service = CostService(_database().what_if())
    exact = service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    # Invalidation moves the exact values into the stale-epoch cache.
    service.invalidate()
    service.optimizer.fault_injector = _injector(PERMANENT)
    degraded = service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    assert degraded == exact
    assert service.stats.stale_fallbacks == 1
    assert service.stats.upper_bound_fallbacks == 0
    assert service.stats.degraded_estimates == 1


def test_degraded_values_never_promoted_to_exact():
    """Once the fault clears, the service recovers the exact value —
    the degraded answer was never cached as exact."""
    clean = CostService(_database().what_if())
    exact = clean.exec_cost(_segment(), EMPTY_CONFIGURATION)

    service = CostService(_database().what_if())
    service.optimizer.fault_injector = _injector(PERMANENT,
                                                 max_faults=1)
    degraded = service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    assert service.stats.degraded_estimates == 1
    # Fault budget exhausted: the next request retries exact
    # estimation and succeeds.
    recovered = service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    assert recovered == exact
    assert recovered <= degraded


def test_degraded_serves_are_deterministic_while_faulted():
    service = CostService(_database().what_if())
    service.optimizer.fault_injector = _injector(PERMANENT)
    first = service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    second = service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    assert first == second
    assert service.stats.degraded_estimates == 2
    # The degraded cache answered the repeat without a second
    # upper-bound computation.
    assert service.stats.upper_bound_fallbacks == 1


def test_exec_matrix_survives_partial_degradation():
    db = _database()
    service = CostService(db.what_if())
    segments = [_segment("SELECT a FROM t WHERE a = 1"),
                _segment("SELECT b FROM t WHERE b = 2")]
    configs = [EMPTY_CONFIGURATION,
               Configuration({IndexDef("t", ("a",))})]
    clean = service.exec_matrix(segments, configs)

    faulty = CostService(_database().what_if())
    faulty.optimizer.fault_injector = _injector(PERMANENT,
                                                probability=0.5,
                                                seed=3)
    matrix = faulty.exec_matrix(segments, configs)
    assert matrix.shape == clean.shape
    assert np.all(matrix >= 0)
    if faulty.stats.degraded_estimates:
        # Degraded cells are upper bounds on the exact values.
        assert np.all(matrix >= clean - 1e-9)


def test_fault_free_service_reports_no_degradation():
    service = CostService(_database().what_if())
    service.exec_cost(_segment(), EMPTY_CONFIGURATION)
    stats = service.stats
    assert stats.estimate_faults == 0
    assert stats.estimate_retries == 0
    assert stats.degraded_estimates == 0
    assert stats.stale_fallbacks == 0
    assert stats.upper_bound_fallbacks == 0


def _faulted_matrix(kind, probability, seed, max_faults=None):
    segments, configs = _multi_config_problem()
    service = CostService(_database().what_if())
    injector = _injector(kind, probability=probability,
                         max_faults=max_faults, seed=seed)
    service.optimizer.fault_injector = injector
    return service.exec_matrix(segments, configs), service, injector


def test_transient_faults_leave_exec_matrix_exact():
    """The faulted production path: transient faults are retried away
    inside the signature-keyed ladder, so the matrix is bit-identical
    to the clean build and every estimate call is accounted for."""
    segments, configs = _multi_config_problem()
    clean = CostService(_database().what_if()).exec_matrix(segments,
                                                           configs)
    # Fewer faults than retry attempts: none can exhaust the retries.
    matrix, service, injector = _faulted_matrix(TRANSIENT, 0.3, seed=4,
                                                max_faults=3)
    assert service.stats.estimate_faults == 3
    assert service.stats.degraded_estimates == 0
    assert np.array_equal(matrix, clean)
    assert injector.calls["estimate"] == \
        service.stats.whatif_calls + service.stats.estimate_faults


def test_faulted_exec_matrix_is_deterministic_in_seed():
    for kind, probability in ((TRANSIENT, 0.3), (PERMANENT, 0.2)):
        first, first_service, _ = _faulted_matrix(kind, probability,
                                                  seed=4)
        second, second_service, _ = _faulted_matrix(kind, probability,
                                                    seed=4)
        assert np.array_equal(first, second)
        assert _counters(first_service) == _counters(second_service)


def test_permanent_fault_degrades_once_per_signature():
    """A degraded (template, signature) estimate fills every column
    sharing the signature with one bound, and is counted once."""
    segments, configs = _multi_config_problem()
    clean = CostService(_database().what_if()).exec_matrix(segments,
                                                           configs)
    matrix, service, _ = _faulted_matrix(PERMANENT, 1.0, seed=0)
    optimizer = service.optimizer
    groups = {}
    for i, segment in enumerate(segments):
        template = optimizer.statement_template(segment.statements[0].ast)
        for j, config in enumerate(configs):
            signature = optimizer.relevance_signature(template,
                                                      config.structures)
            groups.setdefault((i, signature), []).append(j)
    # Non-vacuous: some signature is shared by several columns.
    assert len(groups) < len(segments) * len(configs)
    for (i, _signature), cols in groups.items():
        assert len({matrix[i, j] for j in cols}) == 1
    assert service.stats.whatif_calls == 0
    assert service.stats.degraded_estimates == len(groups)
    assert service.stats.upper_bound_fallbacks == len(groups)
    assert np.all(matrix >= clean)
    assert not service._units
