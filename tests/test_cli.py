import json
import math
import re

import numpy as np
import pytest

from firstroot import bench, get_problem, grid_search
from firstroot.bench import BenchConfig, run_matrix
from firstroot.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_a2_finds_t01_root(self, capsys):
        code, out, _ = run(capsys, "solve", "--problem", "t01", "--method", "a2")
        assert code == 0
        x = float(re.search(r"x_sigma:\s+([\d.e+-]+)", out).group(1))
        assert abs(x - 3.0117) < 2e-3
        assert "first_root" in out

    def test_a1_notes_oracle_bound(self, capsys):
        code, out, _ = run(capsys, "solve", "--problem", "t01", "--method", "a1")
        assert code == 0
        assert "oracle" in out

    def test_chebyshev_cutoff(self, capsys):
        code, out, _ = run(capsys, "solve", "--problem", "chebyshev", "--method", "a2")
        assert code == 0
        x = float(re.search(r"x_sigma:\s+([\d.e+-]+)", out).group(1))
        # half-power crossing of the built-in lowpass ladder
        assert abs(x - 0.5489558363614122) <= 2e-4

    def test_lipschitz_flag_requires_a1(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "t01", "--method", "a2",
                           "--lipschitz", "5.0")
        assert code == 1
        assert "lipschitz" in err

    def test_non_finite_lipschitz(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "t01", "--method", "a1",
                           "--lipschitz", "nan")
        assert code == 1
        assert err.startswith("error:") and "lipschitz" in err

    def test_a1_bound_below_the_curvature(self, capsys):
        code, out, err = run(capsys, "solve", "--problem", "t01", "--method", "a1",
                             "--lipschitz", "1.0")
        assert code == 1 and out == ""
        assert err.startswith("error: config.lipschitz = 1.0 is below the curvature of f: "
                              "m=1.0 too small on [0.2, 7.0]")

    def test_unknown_problem(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "t99")
        assert code == 1
        assert "t99" in err

    def test_precision_exhausted_exit_code(self, capsys):
        # the passband objective is of order 1e-35, far below a2's curvature
        # floor r*xi, so the zero a2 flags near x = 1 comes from the floor
        code, out, _ = run(capsys, "solve", "--problem", "passband", "--method", "a2")
        assert code == 2
        assert "precision_exhausted" in out
        assert "curvature floor" in out

    def test_precision_exhausted_by_float_resolution(self, capsys):
        # sigma = 1e-17 * (b - a) is about 6.8e-17, below the spacing of the
        # floats near t09's root at pi: a1 with the oracle K narrows the
        # flagged interval to two ulps, 8.9e-16, still wider than sigma, and
        # no float is left inside it.  The cause is sigma, not the floor.
        code, out, _ = run(capsys, "solve", "--problem", "t09", "--method", "a1",
                           "--sigma-frac", "1e-17")
        assert code == 2
        assert "precision_exhausted" in out
        assert "raise --sigma-frac" in out and "curvature floor" not in out
        lo, hi = map(float, re.search(r"interval: \[(\S+), (\S+)\]", out).groups())
        p = get_problem("t09")
        assert hi - lo > 1e-17 * (p.b - p.a)
        assert hi == math.nextafter(math.nextafter(lo, math.inf), math.inf)

    def test_budget_exit_code(self, capsys):
        code, out, _ = run(capsys, "solve", "--problem", "t01", "--max-trials", "3")
        assert code == 3

    def test_trace_line_count_matches_trials(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run(capsys, "solve", "--problem", "t05", "--method", "a2",
                           "--trace", str(trace))
        assert code == 0
        trials = int(re.search(r"trials:\s+(\d+)", out).group(1))
        lines = trace.read_text().splitlines()
        assert len(lines) == trials
        assert list(json.loads(lines[0])) == ["iter", "x", "f", "fprime", "k", "b_n"]

    def test_grid_method(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, out, _ = run(capsys, "solve", "--problem", "t01", "--method", "grid",
                           "--trace", str(trace))
        assert code == 0
        assert re.search(r"trials:\s+4135", out)
        p = get_problem("t01")
        records = grid_search(p, 1e-4 * (p.b - p.a)).trace
        lines = trace.read_text().splitlines()
        assert len(lines) == len(records) == 4135
        assert list(json.loads(lines[0])) == ["iter", "x", "f", "fprime", "k", "b_n"]
        assert lines == [json.dumps({"iter": r.iter, "x": r.x, "f": r.f, "fprime": r.fprime,
                                     "k": r.k, "b_n": r.b_n}) for r in records]

    def test_grid_with_a_sigma_wider_than_the_interval(self, capsys):
        code, out, _ = run(capsys, "solve", "--problem", "t01", "--method", "grid",
                           "--sigma-frac", "1e10")
        assert code == 0
        assert re.search(r"trials:\s+1$", out, re.MULTILINE)
        assert re.search(r"x_sigma:\s+0.2$", out, re.MULTILINE)

    @pytest.mark.parametrize("problem, method, sigma_frac", [
        *(pytest.param("t05", method, None, id=method) for method in ("grid", "a1", "a2")),
        # rootless t02 needs 100 000 grid steps here, more than a1 and a2's budget
        pytest.param("t02", "grid", 1e-5, id="t02-grid-1e-5"),
    ])
    def test_same_run_as_the_bench(self, capsys, problem, method, sigma_frac):
        # the command line and the bench matrix resolve a method and its
        # default settings the same way
        settings = {} if sigma_frac is None else {"sigma_fraction": sigma_frac}
        flags = () if sigma_frac is None else ("--sigma-frac", repr(sigma_frac))
        row, = run_matrix(BenchConfig(problem_ids=(problem,), methods=(method,), **settings))
        code, out, _ = run(capsys, "solve", "--problem", problem, "--method", method, *flags)
        assert code == 0
        assert re.search(rf"outcome:\s+{row.outcome_tag}$", out, re.MULTILINE)
        assert re.search(rf"x_(sigma|best):\s+{re.escape(f'{row.x_result:.10g}')}$", out,
                         re.MULTILINE)
        assert re.search(rf"trials:\s+{row.trials_used}$", out, re.MULTILINE)

    def test_trace_in_a_missing_directory(self, capsys, tmp_path):
        # the path fails before the solve, so no outcome is printed
        code, out, err = run(capsys, "solve", "--problem", "t05", "--trace",
                             str(tmp_path / "missing" / "trace.jsonl"))
        assert code == 1
        assert out == "" and err.startswith("error:")

    def test_grid_obeys_max_trials(self, capsys):
        # t01's first root, at 3.01, lies far beyond 100 sigma steps from 0.2
        code, out, _ = run(capsys, "solve", "--problem", "t01", "--method", "grid",
                           "--max-trials", "100")
        assert code == 3
        assert "budget_exhausted" in out
        assert re.search(r"trials:\s+100$", out, re.MULTILINE)


class TestSample:
    def test_two_points_are_the_endpoints(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sample", "--problem", "t01", "--points", "2",
                         "--output", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "x,f,df"
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 0.2
        assert float(lines[2].split(",")[0]) == 7.0

    def test_rows_strictly_increasing(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sample", "--problem", "t07", "--points", "257",
                         "--output", str(out_file))
        assert code == 0
        xs = [float(l.split(",")[0]) for l in out_file.read_text().splitlines()[1:]]
        assert len(xs) == 257
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_chebyshev_objective_sign_structure(self, capsys, tmp_path):
        # the cutoff objective crosses zero exactly once below 0.9 rad/s
        out_file = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sample", "--problem", "chebyshev", "--points", "1001",
                         "--output", str(out_file))
        assert code == 0
        rows = [l.split(",") for l in out_file.read_text().splitlines()[1:]]
        xs = np.array([float(r[0]) for r in rows])
        fs = np.array([float(r[1]) for r in rows])
        mask = xs <= 0.9
        signs = np.sign(fs[mask])
        changes = int(np.sum(signs[:-1] != signs[1:]))
        assert changes == 1

    def test_point_validation(self, capsys):
        code, _, err = run(capsys, "sample", "--problem", "t01", "--points", "1")
        assert code == 1

    def test_unknown_problem(self, capsys):
        code, _, _ = run(capsys, "sample", "--problem", "bogus")
        assert code == 1


class TestList:
    def test_twenty_two_lines(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 22

    def test_t10_shows_root_count(self, capsys):
        _, out, _ = run(capsys, "list")
        line = next(l for l in out.splitlines() if l.startswith("t10"))
        assert "roots=34" in line

    def test_t08_shows_missing_frl(self, capsys):
        _, out, _ = run(capsys, "list")
        line = next(l for l in out.splitlines() if l.startswith("t08"))
        assert "frl=-" in line


class TestBench:
    def test_inline_flags(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code, out, _ = run(capsys, "bench", "--problems", "t01,t02",
                           "--methods", "a2", "--output", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("problem,method")
        assert len(lines) == 4  # header + 2 rows + 1 average
        assert "average trials [a2]" in out

    def test_markdown_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.md"
        code, _, _ = run(capsys, "bench", "--problems", "t05", "--methods", "a1,a2",
                         "--format", "markdown", "--output", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("| problem |")

    def test_output_in_a_missing_directory(self, capsys, tmp_path, monkeypatch):
        # the path fails before the matrix runs
        monkeypatch.setattr(bench, "run_matrix", lambda config: pytest.fail("matrix ran"))
        code, out, err = run(capsys, "bench", "--problems", "t05", "--output",
                             str(tmp_path / "missing" / "report.csv"))
        assert code == 1
        assert out == "" and err.startswith("error:")


class TestUsage:
    @pytest.mark.parametrize("flag", ["--r", "--xi"])
    def test_an_overflowing_bound_is_reported(self, capsys, flag):
        # m = r*lambda is inf at r = 1e308; at xi = 1e308, m = 1.2e308 is
        # finite but the knots of the first minorant overflow
        code, _, err = run(capsys, "solve", "--problem", "t01", flag, "1e308")
        assert code == 1
        assert "the curvature bound overflows, lower r or xi" in err

    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_bad_method(self, capsys):
        code, _, _ = run(capsys, "solve", "--problem", "t01", "--method", "newton")
        assert code == 1

    def test_bench_has_no_config_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "bench", "--config", str(tmp_path / "bench.cfg"))
        assert code == 1
        assert out == "" and "--config" in err
