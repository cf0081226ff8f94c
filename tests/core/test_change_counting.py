"""One change-counting rule: every solver and advisor reports its
design's changes exactly as :func:`count_changes` counts them, under
the convention it solved with."""

import pytest

from repro.core.advisor import (ConstrainedGraphAdvisor,
                                GreedySeqAdvisor, HybridAdvisor,
                                LPAdvisor, MergingAdvisor,
                                RankingAdvisor, StaticAdvisor,
                                UnconstrainedAdvisor)
from repro.core.costmatrix import MatrixCostProvider, count_changes
from repro.core.hybrid import solve_hybrid
from repro.core.kaware import (solve_constrained,
                               solve_constrained_reference)
from repro.core.lp_advisor import solve_lp_rounding
from repro.core.merging import merge_to_k
from repro.core.problem import ProblemInstance
from repro.core.ranking import solve_by_ranking
from repro.core.sequence_graph import solve_unconstrained
from repro.verify.generators import matrix_instances
from repro.workload import Segment, Statement

INSTANCES = matrix_instances(seed=0, count=12)
BUDGETS = (0, 1, 2)
CONVENTIONS = pytest.mark.parametrize(
    "cic", [True, False], ids=["strict", "initial-free"])


def _expected(matrices, assignment, cic):
    return count_changes(assignment, matrices.initial_index, cic)


def _solver_results(matrices, cic):
    """(name, result) for every solver at every budget."""
    unconstrained = solve_unconstrained(matrices)
    # The unconstrained solver has no budget and counts strictly.
    yield "unconstrained", unconstrained, True
    for k in BUDGETS:
        yield f"kaware k={k}", solve_constrained(matrices, k, cic), cic
        yield (f"kaware-reference k={k}",
               solve_constrained_reference(matrices, k, cic), cic)
        yield (f"merging k={k}",
               merge_to_k(matrices, unconstrained.assignment, k, cic),
               cic)
        for bias in (0.0, 1e9):
            yield (f"hybrid k={k} bias={bias}",
                   solve_hybrid(matrices, k, cic, bias=bias), cic)
        yield f"lp k={k}", solve_lp_rounding(matrices, k, cic), cic
        if k > 0:
            yield (f"ranking k={k}",
                   solve_by_ranking(matrices, k, cic), cic)


@CONVENTIONS
@pytest.mark.parametrize("instance", INSTANCES,
                         ids=lambda instance: instance.label)
def test_solvers_count_with_the_one_rule(instance, cic):
    matrices = instance.matrices
    for name, result, counted_with in _solver_results(matrices, cic):
        assert result.change_count == _expected(
            matrices, result.assignment, counted_with), name


def _problem_and_provider(instance):
    matrices = instance.matrices
    configs = matrices.configurations
    segments = tuple(
        Segment((Statement(f"SELECT a FROM t WHERE a = {i}"),), i)
        for i in range(matrices.n_segments))
    final = None if matrices.final_index is None \
        else configs[matrices.final_index]
    problem = ProblemInstance(segments=segments, configurations=configs,
                              initial=configs[matrices.initial_index],
                              final=final)
    provider = MatrixCostProvider(
        segments, configs, matrices.exec_matrix, matrices.trans_matrix,
        sizes=dict(zip(configs, instance.sizes)))
    return problem, provider


def _advisors(cic):
    yield UnconstrainedAdvisor(cic)
    yield StaticAdvisor(cic)
    for k in (0, 1):
        yield ConstrainedGraphAdvisor(k, cic)
        yield LPAdvisor(k, cic)
        yield MergingAdvisor(k, cic)
        yield HybridAdvisor(k, cic)
    yield RankingAdvisor(1, cic)
    # union_window=0 keeps GREEDY-SEQ's candidates on the instance's
    # configuration axis (no union configurations to price).
    for k in (None, 1):
        yield GreedySeqAdvisor(k, cic, union_window=0)


@CONVENTIONS
@pytest.mark.parametrize("instance", INSTANCES,
                         ids=lambda instance: instance.label)
def test_advisors_report_under_their_own_convention(instance, cic):
    problem, provider = _problem_and_provider(instance)
    for advisor in _advisors(cic):
        if isinstance(advisor, GreedySeqAdvisor):
            rec = advisor.recommend(problem, provider)
        else:
            rec = advisor.recommend(problem, provider,
                                    instance.matrices)
        expected = count_changes(rec.design.assignments,
                                 rec.design.initial, cic)
        assert rec.change_count == expected, (advisor.name,
                                              getattr(advisor, "k",
                                                      None))
        if isinstance(advisor, MergingAdvisor):
            unconstrained = solve_unconstrained(instance.matrices)
            assert rec.stats["initial_changes"] == _expected(
                instance.matrices, unconstrained.assignment, cic)


def test_count_changes_conventions():
    assert count_changes([], 0) == 0
    assert count_changes([], 0, False) == 0
    assert count_changes([0, 0], 0) == 0
    assert count_changes([1, 1, 2, 1], 0) == 3
    assert count_changes([1, 1, 2, 1], 0, False) == 2
    assert count_changes([0, 1], 0, False) == 1
