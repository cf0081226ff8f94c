"""Unit tests for ASCII reporting helpers."""

import pytest

from repro.bench import format_bars, format_series, format_table


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(["name", "value"],
                            [["alpha", 1], ["b", 22.5]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "-----" in lines[1]
        assert "alpha" in lines[2]
        assert "22.50" in lines[3]

    def test_title(self):
        text = format_table(["x"], [["y"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_empty_rows(self):
        text = format_table(["only", "header"], [])
        assert "only" in text


class TestFormatBars:
    def test_bars_scale_to_peak(self):
        text = format_bars(["a", "b"], [0.5, 1.0], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_percent_rendering(self):
        text = format_bars(["x"], [1.234])
        assert "123.4%" in text

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            format_bars(["a"], [1.0, 2.0])

    def test_zero_values(self):
        text = format_bars(["a"], [0.0])
        assert "#" not in text


class TestFormatSeries:
    def test_one_row_per_x(self):
        text = format_series("k", [1, 2],
                             {"s1": [10, 20], "s2": [30, 40]})
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert "s1" in lines[0] and "s2" in lines[0]
        assert "20" in lines[3] and "40" in lines[3]


class TestProvenance:
    def test_fields(self):
        from repro.bench.reporting import available_cpus, provenance

        block = provenance()
        assert set(block) == {"git_sha", "python", "numpy",
                              "available_cpus", "date_utc"}
        assert block["available_cpus"] == available_cpus() >= 1
        assert block["python"].count(".") == 2
        assert block["date_utc"].endswith("Z")

    def test_git_sha_from_loose_ref(self, tmp_path):
        from repro.bench.reporting import git_sha

        sha = "0123456789abcdef0123456789abcdef01234567"
        (tmp_path / ".git" / "refs" / "heads").mkdir(parents=True)
        (tmp_path / ".git" / "HEAD").write_text(
            "ref: refs/heads/main\n")
        (tmp_path / ".git" / "refs" / "heads" / "main").write_text(
            sha + "\n")
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert git_sha(nested) == sha

    def test_git_sha_from_packed_refs(self, tmp_path):
        from repro.bench.reporting import git_sha

        sha = "89abcdef0123456789abcdef0123456789abcdef"
        (tmp_path / ".git").mkdir()
        (tmp_path / ".git" / "HEAD").write_text(
            "ref: refs/heads/main\n")
        (tmp_path / ".git" / "packed-refs").write_text(
            "# pack-refs with: peeled fully-peeled sorted\n"
            f"{sha} refs/heads/main\n")
        assert git_sha(tmp_path) == sha

    def test_git_sha_detached_head(self, tmp_path):
        from repro.bench.reporting import git_sha

        sha = "fedcba9876543210fedcba9876543210fedcba98"
        (tmp_path / ".git").mkdir()
        (tmp_path / ".git" / "HEAD").write_text(sha + "\n")
        assert git_sha(tmp_path) == sha

    def test_git_sha_unknown_ref(self, tmp_path):
        from repro.bench.reporting import git_sha

        (tmp_path / ".git").mkdir()
        (tmp_path / ".git" / "HEAD").write_text(
            "ref: refs/heads/gone\n")
        assert git_sha(tmp_path) is None
