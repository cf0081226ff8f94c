"""Tests for the summary-IR scaling benchmark (pytest-sized inputs;
the committed BENCH_SCALE.json comes from ``repro scale`` at 1M+)."""

import json

import pytest

from repro.bench.scale import (SCALE_MIX_LABELS, iter_scale_statements,
                               run_scale)


class TestScaleTraceGenerator:
    def test_emits_exactly_n(self):
        assert sum(1 for _ in iter_scale_statements(257, 64)) == 257

    def test_deterministic_in_seed(self):
        first = [s.sql for s in iter_scale_statements(200, 50, seed=3)]
        again = [s.sql for s in iter_scale_statements(200, 50, seed=3)]
        other = [s.sql for s in iter_scale_statements(200, 50, seed=4)]
        assert first == again
        assert first != other

    def test_streams_lazily(self):
        iterator = iter_scale_statements(10_000_000, 1_000_000)
        assert next(iterator).sql.startswith("SELECT ")

    def test_tags_are_mix_labels(self):
        tags = {s.tag for s in iter_scale_statements(400, 100)}
        assert tags <= set(SCALE_MIX_LABELS)

    def test_tenants_blend_two_mixes_per_phase(self):
        # With 4 tenants, even tenants draw this phase's mix and odd
        # tenants the next one — each phase shows exactly two labels.
        statements = list(iter_scale_statements(
            400, 100, seed=0, n_tenants=4))
        phase_tags = {s.tag for s in statements[:100]}
        assert len(phase_tags) == 2

    def test_partial_final_phase(self):
        statements = list(iter_scale_statements(130, 50))
        assert len(statements) == 130


class TestRunScale:
    @pytest.fixture(scope="class")
    def report(self):
        return run_scale(sizes=(400, 1_200), n_phases=4, k=2,
                         nrows=2_000, seed=0)

    def test_report_passes(self, report):
        assert report.ok, report.failures

    def test_all_legs_present(self, report):
        paths = [(run.path, run.advisor) for run in report.runs]
        for n in (400, 1_200):
            assert paths.count(("summary", "kaware")) == 2
            assert paths.count(("summary", "lp")) == 2
            assert paths.count(("legacy", "kaware")) == 2

    def test_summary_and_legacy_costs_bit_identical(self, report):
        by_size = {}
        for run in report.runs:
            if run.advisor == "kaware":
                by_size.setdefault(run.n_statements, {})[run.path] = \
                    run.cost
        for costs in by_size.values():
            assert costs["summary"] == costs["legacy"]

    def test_ratios_recorded(self, report):
        assert "summary_advise_1200_vs_400" in report.ratios
        assert "legacy_advise_1200_vs_400" in report.ratios
        assert "summary_lp_advise_1200_vs_400" in report.ratios
        assert all(value > 0.0 for value in report.ratios.values())

    def test_json_round_trip(self, report):
        decoded = json.loads(report.to_json())
        assert decoded["ok"] is True
        assert decoded["params"]["n_phases"] == 4
        assert len(decoded["runs"]) == len(report.runs)
        assert decoded["provenance"]["available_cpus"] >= 1

    def test_format_is_human_readable(self, report):
        text = report.format()
        assert "advise s" in text
        assert "summary" in text and "legacy" in text

    def test_legacy_max_skips_materialization(self):
        report = run_scale(sizes=(300, 900), n_phases=3, k=1,
                           nrows=1_500, seed=1, legacy_max=300)
        assert report.ok, report.failures
        legacy_sizes = {run.n_statements for run in report.runs
                        if run.path == "legacy"}
        assert legacy_sizes == {300}
