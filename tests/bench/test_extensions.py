"""Smoke tests for the extension experiments at tiny scale."""

import pytest

from repro.bench import (build_paper_setup, run_ablation_structures,
                         run_extension_ktuning, run_extension_online,
                         run_extension_robustness)
from repro.bench.experiments import COUNT_INITIAL_CHANGE
from repro.core import build_cost_matrices
from repro.core.costmatrix import count_changes
from repro.core.kaware import solve_constrained
from repro.core.online import OnlineTuner
from repro.core.sequence_graph import solve_unconstrained


@pytest.fixture(scope="module")
def tiny_setup():
    return build_paper_setup(nrows=10_000, block_size=20, seed=2)


class TestKTuning:
    def test_structure_and_report(self, tiny_setup):
        result = run_extension_ktuning(tiny_setup, n_variants=2)
        assert result.knee >= 1
        assert result.validated.best_k in result.validated.ks
        text = result.format()
        assert "knee of the curve" in text

    def test_sweep_reaches_unconstrained(self, tiny_setup):
        result = run_extension_ktuning(tiny_setup, n_variants=2)
        assert result.sweep.costs[-1] == pytest.approx(
            result.sweep.unconstrained_cost)


class TestRobustness:
    def test_two_families_two_designs(self, tiny_setup):
        result = run_extension_robustness(tiny_setup, n_variants=2)
        assert set(result.by_family) == {"fresh constants",
                                         "jittered minors"}
        for reports in result.by_family.values():
            assert set(reports) == {"unconstrained",
                                    "constrained k=2"}
        assert "regret" in result.format()


class TestOnline:
    def test_rows_and_ordering(self, tiny_setup):
        result = run_extension_online(tiny_setup)
        labels = [label for label, _, _ in result.rows]
        assert labels == ["offline unconstrained",
                          "offline constrained k=2", "online tuner"]
        assert result.cost_of("offline unconstrained") <= \
            result.cost_of("online tuner")

    def test_every_row_counts_under_one_convention(self, tiny_setup):
        result = run_extension_online(tiny_setup)
        matrices = build_cost_matrices(tiny_setup.problem_for("W1"),
                                       tiny_setup.provider)
        online = OnlineTuner(
            tiny_setup.candidates, tiny_setup.provider,
            cooldown=tiny_setup.block_size // 2).run(
            list(tiny_setup.workloads["W1"]))
        expected = {
            "offline unconstrained": count_changes(
                solve_unconstrained(matrices).assignment,
                matrices.initial_index, COUNT_INITIAL_CHANGE),
            "offline constrained k=2": count_changes(
                solve_constrained(matrices, 2,
                                  COUNT_INITIAL_CHANGE).assignment,
                matrices.initial_index, COUNT_INITIAL_CHANGE),
            "online tuner": count_changes(
                online.design.assignments, online.design.initial,
                COUNT_INITIAL_CHANGE),
        }
        assert {label: changes for label, _, changes in result.rows} \
            == expected

    def test_unknown_label_raises(self, tiny_setup):
        result = run_extension_online(tiny_setup)
        with pytest.raises(KeyError):
            result.cost_of("nope")


class TestStructures:
    def test_three_spaces(self, tiny_setup):
        result = run_ablation_structures(tiny_setup, k=2)
        assert len(result.costs) == 3
        combined = result.costs["indexes + views"]
        assert combined <= min(result.costs.values()) + 1e-6
        assert "Ablation E" in result.format()
