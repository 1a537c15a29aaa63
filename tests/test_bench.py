import pytest

from firstroot import UnknownProblem
from firstroot.bench import (
    CSV_HEADER,
    BenchConfig,
    BenchRow,
    emit_report,
    run_matrix,
    summarize,
)

from helpers import PUBLISHED_TRIALS


def synthetic_row(pid, method, trials, tag="first_root", x=1.0, f=0.0,
                  ref=None, err=None):
    return BenchRow(problem_id=pid, method=method, trials_used=trials,
                    outcome_tag=tag, x_result=x, f_at_result=f,
                    reference_frl=ref, abs_error=err)


class TestRunMatrix:
    def test_t01_all_methods(self):
        config = BenchConfig(problem_ids=("t01",), methods=("grid", "a1", "a2"))
        rows = run_matrix(config)
        assert [(r.problem_id, r.method) for r in rows] == [
            ("t01", "a1"), ("t01", "a2"), ("t01", "grid")]
        by_method = {r.method: r for r in rows}
        assert by_method["grid"].trials_used == 4135
        for method in ("a1", "a2"):
            row = by_method[method]
            assert row.outcome_tag == "first_root"
            assert row.abs_error is not None and row.abs_error <= 2 * 6.8e-4
            assert row.trials_used < 100

    def test_rootless_row(self):
        config = BenchConfig(problem_ids=("t02",), methods=("a2",))
        row = run_matrix(config)[0]
        assert row.outcome_tag == "no_root_global_min"
        assert row.abs_error is None
        assert row.f_at_result > 0.0

    def test_unknown_problem(self):
        with pytest.raises(UnknownProblem):
            run_matrix(BenchConfig(problem_ids=("nope",)))

    def test_reproducible(self):
        config = BenchConfig(problem_ids=("t05",), methods=("a1", "a2"))
        assert run_matrix(config) == run_matrix(config)


class TestSummarize:
    def test_reference_columns(self):
        # the targets the harness is compared against: per-method averages
        grid, a1, a2 = (PUBLISHED_TRIALS[m] for m in ("grid", "a1", "a2"))
        rows = []
        for i, (g, x, y) in enumerate(zip(grid, a1, a2), start=1):
            pid = f"t{i:02d}"
            rows += [synthetic_row(pid, "grid", g), synthetic_row(pid, "a1", x),
                     synthetic_row(pid, "a2", y)]
        summary = summarize(rows)
        # plain arithmetic means of the columns; the a1 column averages to
        # exactly 22.55
        assert summary["grid"] == pytest.approx(sum(grid) / 20)
        assert summary["a1"] == pytest.approx(22.55)
        assert summary["a2"] == pytest.approx(sum(a2) / 20)

    def test_single_row(self):
        assert summarize([synthetic_row("t01", "a1", 7)]) == {"a1": 7.0}

    def test_two_rows_average(self):
        rows = [synthetic_row("t01", "a1", 10), synthetic_row("t02", "a1", 20)]
        assert summarize(rows) == {"a1": 15.0}

    def test_filters_excluded_when_testbed_present(self):
        rows = [synthetic_row("t01", "a1", 10), synthetic_row("chebyshev", "a1", 1000)]
        assert summarize(rows) == {"a1": 10.0}

    def test_filters_only(self):
        rows = [synthetic_row("chebyshev", "a1", 12)]
        assert summarize(rows) == {"a1": 12.0}

    def test_empty(self):
        with pytest.raises(ValueError):
            summarize([])


class TestEmitReport:
    def test_empty_rows_header_only(self, tmp_path):
        path = emit_report([], {}, "csv", tmp_path / "r.csv")
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_row_two_lines(self, tmp_path):
        rows = [synthetic_row("t01", "grid", 4135, x=3.0112, f=-1e-5, ref=3.0117)]
        path = emit_report(rows, {}, "csv", tmp_path / "r.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("t01,grid,4135,first_root,3.0112,")

    def test_average_lines_last(self, tmp_path):
        rows = [synthetic_row("t01", "a1", 10), synthetic_row("t01", "grid", 100)]
        path = emit_report(rows, summarize(rows), "csv", tmp_path / "r.csv")
        lines = path.read_text().splitlines()
        assert lines[-2] == "average,a1,10.0,,,,,"
        assert lines[-1] == "average,grid,100.0,,,,,"

    def test_markdown_table(self, tmp_path):
        rows = [synthetic_row("t01", "a1", 10)]
        path = emit_report(rows, summarize(rows), "markdown", tmp_path / "r.md")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("| problem | method |")
        assert lines[1].startswith("|---")
        assert lines[-1].startswith("| average | a1 |")

    def test_byte_identical_reports(self, tmp_path):
        config = BenchConfig(problem_ids=("t03", "t16"), methods=("a1", "a2"))
        rows1, rows2 = run_matrix(config), run_matrix(config)
        p1 = emit_report(rows1, summarize(rows1), "csv", tmp_path / "r1.csv")
        p2 = emit_report(rows2, summarize(rows2), "csv", tmp_path / "r2.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], {}, "xml", tmp_path / "r.xml")
        assert not (tmp_path / "r.xml").exists()


class TestConfigParsing:
    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(problem_ids=())
        with pytest.raises(ValueError):
            BenchConfig(problem_ids=("t01",), methods=("newton",))
        # sigma, r and xi are checked even when no method of the matrix reads r and xi
        for settings in ({"sigma_fraction": 0.0}, {"r": 1.0}, {"xi": 0.0}):
            with pytest.raises(ValueError):
                BenchConfig(problem_ids=("t01",), methods=("grid",), **settings)
