import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helmlab as hl
from helmlab import oracle
from helmlab.cli import fmt_paper, fmt_sig, parse_and_dispatch
from helmlab.config import ConfigError, load_problem
from helmlab.fem import SingularSystemError

ROOT = Path(__file__).resolve().parents[1]
FORMATS_DOC = ROOT / "docs" / "formats.md"
DATA = Path(__file__).resolve().parent / "data"


UNIT_CFG = """
[problem]
omega = 1.5707963267948966
bc = pure_impedance
g_left = 0
g_right = 1

[a]
breakpoints = -1, 1
segment1 = constant 1

[c]
breakpoints = -1, 1
segment1 = constant 1
"""

LAYERED_CFG = """
[problem]
omega = 3.9269908169872414
bc = pure_impedance
g_left = 0
g_right = 1

[a]
breakpoints = -1, 1
segment1 = constant 1

[c]
breakpoints = -1, -0.76, -0.28, 0.28, 0.76, 1
segment1 = constant 0.6
segment2 = constant 1.4
segment3 = constant 0.6
segment4 = constant 1.4
segment5 = constant 0.6
"""


@pytest.fixture
def unit_cfg(tmp_path):
    path = tmp_path / "unit.cfg"
    path.write_text(UNIT_CFG)
    return str(path)


@pytest.fixture
def layered_cfg(tmp_path):
    path = tmp_path / "layered.cfg"
    path.write_text(LAYERED_CFG)
    return str(path)


class TestFormatting:
    def test_plain_four_figures(self):
        assert fmt_sig(0.774225) == "0.7742"
        assert fmt_sig(12.0309) == "12.03"
        assert fmt_sig(5.46e10) == "5.460e+10"
        assert fmt_sig(0.0) == "0"

    def test_paper_style(self):
        assert fmt_paper(0.7742) == "7.742(-1)"
        assert fmt_paper(12.03) == "1.203(+1)"
        assert fmt_paper(5.46e10, 3) == "5.46(+10)"
        assert fmt_paper(1.313) == "1.313(+0)"

    @pytest.mark.parametrize("fmt", [fmt_sig, fmt_paper])
    def test_infinities_print(self, fmt):
        assert fmt(float("inf")) == "inf"
        assert fmt(float("-inf")) == "-inf"
        assert fmt(np.float64("inf"), 3) == "inf"


class TestDispatch:
    def test_unknown_flag_exits_one(self, capsys):
        assert parse_and_dispatch(["table1", "--definitely-not-a-flag"]) == 1

    def test_unknown_command_exits_one(self):
        assert parse_and_dispatch(["frobnicate"]) == 1

    def test_missing_config_exits_one(self, capsys):
        assert parse_and_dispatch(["solve", "--config", "/nonexistent.cfg"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_omega_exits_one(self, tmp_path, capsys):
        bad = UNIT_CFG.replace("omega = 1.5707963267948966", "omega = -2.0")
        path = tmp_path / "bad.cfg"
        path.write_text(bad)
        assert parse_and_dispatch(["solve", "--config", str(path)]) == 1
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, where", [
        ("omega = 1.5707963267948966", "omega = fast", "omega"),
        ("segment1 = constant 1", "segment1 = constant one", "segment")])
    def test_non_numeric_value_is_config_error(self, tmp_path, old, new, where):
        path = tmp_path / "bad.cfg"
        path.write_text(UNIT_CFG.replace(old, new))
        with pytest.raises(ConfigError, match=where):
            load_problem(str(path))

    @pytest.mark.parametrize("command", [["solve", "--elements", "40"],
                                         ["stability"], ["oracle"]])
    @pytest.mark.parametrize("old, new", [
        ("segment4 = constant 1.4", "segment4 = constant nan"),
        ("segment2 = constant 1.4", "segment2 = linear 1.4 inf"),
        ("omega = 3.9269908169872414", "omega = nan"),
        ("omega = 3.9269908169872414", "omega = inf"),
        ("g_right = 1", "g_right = nan"),
        ("g_left = 0", "g_left = 1+infj"),
        ("breakpoints = -1, -0.76", "breakpoints = -inf, -0.76")],
        ids=["segment-nan", "linear-inf", "omega-nan", "omega-inf",
             "g_right-nan", "g_left-inf", "breakpoint-inf"])
    def test_non_finite_value_is_an_error(self, tmp_path, capsys, command, old, new):
        path = tmp_path / "bad.cfg"
        path.write_text(LAYERED_CFG.replace(old, new))
        assert parse_and_dispatch([command[0], "--config", str(path),
                                   *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("text, named", [
        (UNIT_CFG.replace("g_right = 1", "g_right = 1\nomega = 2"), "'omega'"),
        (UNIT_CFG.replace("[problem]\n", ""), "section header"),
        (UNIT_CFG.replace("g_left = 0", "g_left = 0%"), "'0%'")],
        ids=["duplicate-key", "no-section-header", "percent-sign"])
    def test_configparser_error_exits_one(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert parse_and_dispatch(["oracle", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err

    @pytest.mark.parametrize("text, named", [
        (UNIT_CFG.replace("g_right = 1", "g_rigth = 1"),
         "[problem] has unknown key 'g_rigth'"),
        (UNIT_CFG + "segment2 = constant 2\n", "[c] has unknown key 'segment2'"),
        (UNIT_CFG.replace("[a]\n", "[a]\nomega = 2\n"),
         "[a] has unknown key 'omega'"),
        (UNIT_CFG + "\n[f]\nsegment1 = constant 1\n",
         "config has unknown section [f]")],
        ids=["misspelt-key", "extra-segment", "key-of-another-section",
             "extra-section"])
    def test_unknown_section_or_key_exits_one(self, tmp_path, capsys, text, named):
        # each of these used to load, with the entry silently dropped
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_problem(str(path))
        assert parse_and_dispatch(["oracle", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {named}\n"

    def test_documented_problem_file_loads(self, tmp_path, capsys):
        # the [problem] example in docs/formats.md, inline comments included
        block = re.search(r"```ini\n(.*?)```", FORMATS_DOC.read_text(), re.S)
        path = tmp_path / "doc.ini"
        path.write_text(block.group(1))
        problem = load_problem(str(path))
        assert problem.omega == 3.9269908169872414
        assert problem.c.n_segments == 5
        assert parse_and_dispatch(["oracle", "--config", str(path)]) == 0
        assert "layers = 5" in capsys.readouterr().out

    def test_solve_reports_norms(self, unit_cfg, capsys):
        assert parse_and_dispatch(["solve", "--config", unit_cfg,
                                   "--elements", "400"]) == 0
        out = capsys.readouterr().out
        assert "norm_du = 0.707" in out
        assert "residual" in out

    def test_singular_system_exits_two(self, unit_cfg, monkeypatch, capsys):
        def singular(problem, mesh):
            raise SingularSystemError("zero pivot at row 0 during banded LU", 0)

        monkeypatch.setattr(hl.fem, "solve_problem", singular)
        assert parse_and_dispatch(["solve", "--config", unit_cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "numerical failure: zero pivot at row 0 during banded LU\n"

    def test_solve_condition_is_exact(self, tmp_path, capsys):
        # one element under pure impedance is a 2 x 2 system whose 1-norm
        # condition number is 2.9844; five Hager steps give only 1.0025
        path = tmp_path / "omega10.cfg"
        path.write_text(UNIT_CFG.replace("omega = 1.5707963267948966",
                                         "omega = 10"))
        assert parse_and_dispatch(["solve", "--config", str(path),
                                   "--elements", "1", "--condition"]) == 0
        assert "condition_estimate = 2.9844e+00" in \
            capsys.readouterr().out.splitlines()

    def test_python_dash_m_runs_the_cli(self, unit_cfg):
        result = subprocess.run(
            [sys.executable, "-m", "helmlab", "solve", "--config", unit_cfg,
             "--elements", "8", "--condition"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "condition_estimate = " in result.stdout

    def test_oracle_reports_norms(self, unit_cfg, capsys):
        assert parse_and_dispatch(["oracle", "--config", unit_cfg]) == 0
        out = capsys.readouterr().out
        assert "norm_du = 0.7071067812" in out

    def test_solution_dump_format(self, unit_cfg, tmp_path, capsys):
        dump = tmp_path / "u.dat"
        assert parse_and_dispatch(["oracle", "--config", unit_cfg,
                                   "--dump-solution", str(dump),
                                   "--dump-points", "11"]) == 0
        lines = dump.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 12
        x, re_u, im_u = (float(v) for v in lines[1].split())
        assert x == -1.0
        # |u(-1)| = 1/pi for this problem
        assert np.hypot(re_u, im_u) == pytest.approx(1.0 / np.pi, rel=1e-12)

    def test_stability_report(self, layered_cfg, capsys):
        assert parse_and_dispatch(["stability", "--config", layered_cfg]) == 0
        out = capsys.readouterr().out
        assert "Q_exact" in out and "C_II" in out
        assert "breakpoint,alpha,sigma,gamma" in out

    @pytest.mark.parametrize("breakpoints, q", [("-2, 1", "1.5"), ("-3, -1", "1")])
    def test_stability_bounds_on_any_interval(self, tmp_path, capsys,
                                              breakpoints, q):
        # a = c = 1 under pure impedance: Q and both bounds are (z_N - z_0)/2
        path = tmp_path / "shifted.cfg"
        path.write_text(UNIT_CFG.replace("breakpoints = -1, 1",
                                         f"breakpoints = {breakpoints}"))
        assert parse_and_dispatch(["stability", "--config", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        for name in ("Q_exact", "Q_bound", "Q_product_bound"):
            assert f"{name} = {q}" in out

    def test_bounds_report(self, capsys):
        assert parse_and_dispatch(["bounds", "--h", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "C_ac = 4" in out
        assert "sigma_star_bound = 0.0808" in out


SMALL_TABLE2 = ["table2", "--m", "2,4", "--base", "50", "--levels", "3"]
SMALL_TABLE3 = ["table3", "--m", "6,14", "--eps", "0,1e-3", "--base", "50",
                "--levels", "3"]


class TestTables:
    def test_table1_csv_and_determinism(self, tmp_path, capsys):
        args = ["table1", "--m", "2", "--r", "0.4", "--base", "50",
                "--levels", "3"]
        out1 = tmp_path / "t1a.csv"
        out2 = tmp_path / "t1b.csv"
        assert parse_and_dispatch(args + ["-o", str(out1)]) == 0
        assert parse_and_dispatch(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "m,||u'|| (r=0.4),kappa (r=0.4)"
        assert lines[1].startswith("2,0.77")
        assert lines[-1].startswith("grad")

    @pytest.mark.parametrize("base, grad", [(200, "grad,0.26,,0.39,"),
                                            (80, "grad,0.26,,,"),
                                            (2, "grad,,,,")])
    def test_table1_grad_row(self, tmp_path, base, grad):
        # each column's slope over the finest values of its cells without an
        # asterisk, blank with fewer than two such cells: at base 80 only
        # (4, 0.5) is unsettled, at base 2 every cell is
        out = tmp_path / "t1.csv"
        assert parse_and_dispatch(["table1", "--m", "2,4", "--r", "0.4,0.5",
                                   "--base", str(base), "--levels", "3",
                                   "-o", str(out)]) == 0
        printed = out.read_text().splitlines()[-1]
        assert printed == grad
        rates = hl.growth_rates(hl.table1((0.4, 0.5), (2, 4), base=base, levels=3))
        assert list(rates) == [0.4, 0.5]
        slopes = ["" if rate is None else f"{rate:.2f}" for rate in rates.values()]
        assert printed == ",".join(["grad"] + [f"{slope}," for slope in slopes])

    def test_parallel_output_byte_identical(self, tmp_path):
        args = ["table1", "--m", "2,4", "--r", "0.4", "--base", "25",
                "--levels", "2"]
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert parse_and_dispatch(args + ["--jobs", "1", "-o", str(serial)]) == 0
        assert parse_and_dispatch(args + ["--jobs", "2", "-o", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_table1_paper_format(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert parse_and_dispatch(["table1", "--m", "2", "--r", "0.4",
                                   "--base", "50", "--levels", "3",
                                   "--paper-format", "-o", str(out)]) == 0
        assert "7.74" in out.read_text()

    @pytest.mark.parametrize("paper", [False, True], ids=["plain", "paper"])
    def test_table1_infinite_kappa_prints(self, tmp_path, monkeypatch, paper):
        # an overflowing condition estimate is printed, not a crash
        monkeypatch.setattr(hl.fem, "condition_estimate",
                            lambda system, last=None, workspace=None: float("inf"))
        out = tmp_path / "t1.csv"
        args = ["table1", "--m", "2", "--r", "0.4", "--base", "20",
                "--levels", "2", "-o", str(out)]
        assert parse_and_dispatch(args + (["--paper-format"] if paper else [])) == 0
        assert out.read_text().splitlines()[1].split(",")[2] == "inf"

    @pytest.mark.parametrize("args, golden", [
        (SMALL_TABLE2, "table2_small"),
        (SMALL_TABLE2 + ["--paper-format"], "table2_small_paper"),
        (SMALL_TABLE3, "table3_small"),
        (SMALL_TABLE3 + ["--beyond-paper"], "table3_small_beyond"),
        (SMALL_TABLE3 + ["--attempt-blank"], "table3_small_attempt")])
    def test_small_grid_output_unchanged(self, capsys, args, golden):
        # between them: plain and paper, asterisk, blank and '!' cells
        assert parse_and_dispatch(args) == 0
        assert capsys.readouterr().out.encode() == \
            (DATA / f"{golden}.csv").read_bytes()

    def test_table2_header(self, tmp_path):
        out = tmp_path / "t2.csv"
        assert parse_and_dispatch(["table2", "--m", "2", "--base", "20",
                                   "--levels", "2", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,||u'|| (g1=1 g2=1),||u'|| (g1=2 g2=0.5)"

    def test_table3_blank_cells(self, tmp_path):
        out = tmp_path / "t3.csv"
        assert parse_and_dispatch(["table3", "--m", "14", "--eps", "1e-8,1e-3",
                                   "--base", "8", "--levels", "2",
                                   "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m\\eps,1e-08,0.001"
        cells = lines[1].split(",")
        assert cells[1] == ""          # not attempted
        assert cells[2] != ""

    def test_table3_attempt_blank_runs_the_ladder(self, tmp_path):
        # m >= 14, eps <= 1e-7 cells are left blank unless asked for; then
        # the ladder runs and the cells come out unsettled
        args = ["table3", "--m", "14", "--eps", "0,1e-7", "--base", "50",
                "--levels", "3"]
        blank = tmp_path / "blank.csv"
        attempted = tmp_path / "attempted.csv"
        assert parse_and_dispatch(args + ["-o", str(blank)]) == 0
        assert parse_and_dispatch(args + ["--attempt-blank",
                                          "-o", str(attempted)]) == 0
        assert blank.read_text().splitlines()[1] == "14,,"
        assert attempted.read_text().splitlines()[1] == "14,2.866*,3.225*"

    def test_table3_beyond_paper_cells(self, tmp_path):
        out = tmp_path / "t3.csv"
        assert parse_and_dispatch(["table3", "--m", "14", "--eps", "0,1e-3",
                                   "--base", "8", "--levels", "2",
                                   "--beyond-paper", "-o", str(out)]) == 0
        cells = out.read_text().splitlines()[1].split(",")
        amps = hl.solve_analytic(hl.family(hl.UnstableFamilySpec(14, 0.5)),
                                 extended_precision=True)
        assert cells[1] == fmt_sig(hl.exact_norms(amps)[0]) + "!"
        assert cells[2] != "" and "!" not in cells[2]

    def test_convergence_strict_exit_codes(self, capsys):
        assert parse_and_dispatch(["convergence", "--m", "2", "--r", "0.4",
                                   "--base", "50", "--levels", "3"]) == 0
        # a 3-level ladder from 2 elements per cell cannot settle 4 figures
        assert parse_and_dispatch(["convergence", "--m", "2", "--r", "0.4",
                                   "--base", "2", "--levels", "3",
                                   "--strict"]) == 2

    def test_quasiopt_csv(self, tmp_path):
        out = tmp_path / "q.csv"
        assert parse_and_dispatch(["quasiopt", "--m", "2", "--r", "0.4",
                                   "--base", "25", "--levels", "3",
                                   "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("level,energy_error")
        assert len(lines) == 4

    @pytest.mark.parametrize("m, r", [("2", "0.4"), ("8", "0.5")])
    def test_quasiopt_default_output_unchanged(self, capsys, m, r):
        # the default 7-level probe from 800 elements per subinterval; the
        # files hold the stdout of the 5-point Gauss route
        assert parse_and_dispatch(["quasiopt", "--m", m, "--r", r]) == 0
        golden = DATA / f"quasiopt_m{m}_r{r}.csv"
        assert capsys.readouterr().out.encode() == golden.read_bytes()

    def test_quasiopt_flags_a_near_singular_reference(self, capsys, monkeypatch):
        argv = ["quasiopt", "--m", "2", "--r", "0.4", "--base", "25",
                "--levels", "3"]
        assert parse_and_dispatch(argv) == 0
        clean = capsys.readouterr()
        assert clean.err == ""
        # every nonzero residual is flagged
        monkeypatch.setattr(oracle, "RESIDUAL_FLAG_LEVEL", 0.0)
        assert parse_and_dispatch(argv) == 2
        flagged = capsys.readouterr()
        assert flagged.out == clean.out
        assert flagged.err == ("warning: amplitude system near-singular; "
                               "values are unreliable\n")

    def test_quasiopt_without_boundary_data_exits_one(self, capsys):
        # with f = 0 and g = 0 the solution is 0 and so is every
        # interpolation error, which the ratios would divide by
        assert parse_and_dispatch(["quasiopt", "--m", "2", "--r", "0.4",
                                   "--g1", "0", "--g2", "0", "--base", "8",
                                   "--levels", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err
        assert "nonzero boundary data" in captured.err

    def test_quasiopt_without_levels_exits_one(self, capsys):
        assert parse_and_dispatch(["quasiopt", "--m", "2", "--r", "0.4",
                                   "--levels", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err and "at least one level" in captured.err

    def test_cache_is_a_convergence_option_only(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert parse_and_dispatch(["quasiopt", "--m", "2", "--r", "0.4",
                                   "--base", "25", "--levels", "2",
                                   "--cache", str(cache)]) == 1
        assert "--cache" in capsys.readouterr().err
        assert not cache.exists()
        assert parse_and_dispatch(["convergence", "--m", "2", "--r", "0.4",
                                   "--base", "25", "--levels", "2",
                                   "--cache", str(cache)]) == 0
        # one record per ladder
        assert [p.name for p in cache.iterdir()] == \
            [f"{hl.UnstableFamilySpec(2, 0.4).cache_key()}_base25_levels2_v3.json"]

    def test_bounds_compare_csv(self, tmp_path):
        out = tmp_path / "b.csv"
        assert parse_and_dispatch(["bounds-compare", "--m", "2,4",
                                   "--r", "0.5", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("m,ln_norm_du")
        assert all(line.endswith("True") for line in lines[1:])
