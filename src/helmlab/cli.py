"""Command-line interface: solvers, stability reports, and benchmark tables.

Exit codes: 0 success, 1 user error (bad flags, bad config, violated
invariants), 2 numerical failure (singular system, or non-convergence under
--strict).  All numeric table cells are printed with four significant
figures; --paper-format switches to the d.ddd(+e) style used in the
reference tables.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import experiments, fem, oracle, stability, theory
from .config import load_problem
from .experiments import UnstableFamilySpec
from .fem import SingularSystemError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse, but user errors exit with code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _special_text(value):
    """The text of None or nan (blank), zero and +-inf; None for the rest."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if value == 0.0:
        return "0"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return None


def fmt_sig(value: float, sigfigs: int = 4) -> str:
    """Plain formatting with a fixed number of significant figures."""
    if (text := _special_text(value)) is not None:
        return text
    rounded = experiments.round_sig(value, sigfigs)
    mag = math.floor(math.log10(abs(rounded)))
    decimals = max(0, sigfigs - 1 - mag)
    if -4 <= mag < sigfigs + 2:
        return f"%.{decimals}f" % rounded
    return f"%.{sigfigs - 1}e" % rounded


def fmt_paper(value: float, sigfigs: int = 4) -> str:
    """d.ddd(+e) scientific style, e.g. 0.7742 -> 7.742(-1)."""
    if (text := _special_text(value)) is not None:
        return text
    s = f"%.{sigfigs - 1}e" % value
    mantissa, exponent = s.split("e")
    return f"{mantissa}({int(exponent):+d})"


def _cell(value, paper: bool, asterisk: bool = False, sigfigs: int = 4) -> str:
    text = fmt_paper(value, sigfigs) if paper else fmt_sig(value, sigfigs)
    return text + ("*" if asterisk and text else "")


def _emit(lines, path):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _parse_list(text, cast):
    return [cast(p) for p in text.split(",") if p.strip() != ""]


def _print_norms(du, wu, energy, residual):
    for name, value in (("norm_du", du), ("norm_wu", wu), ("energy", energy)):
        print(f"{name} = {value:.10g}")
    print(f"residual = {residual:.3e}")


def _dump_solution(path, xs, values):
    with open(path, "w") as fh:
        fh.write("# x  Re(u)  Im(u)\n")
        for x, u in zip(xs, values):
            fh.write(f"{x:.16e}  {u.real:.16e}  {u.imag:.16e}\n")


# -- subcommands ---------------------------------------------------------------

def _cmd_solve(args) -> int:
    problem = load_problem(args.config)
    mesh = fem.build_mesh(problem, args.elements)
    solution, system = fem.solve_problem(problem, mesh)
    print(f"nodes = {mesh.n_nodes}")
    _print_norms(*fem.norms(solution, problem, mesh), solution.residual)
    if args.condition:
        print(f"condition_estimate = {fem.condition_estimate(system):.4e}")
    if args.dump_solution:
        _dump_solution(args.dump_solution, mesh.nodes, solution.values)
    return 0


def _cmd_oracle(args) -> int:
    problem = load_problem(args.config)
    amps = oracle.solve_analytic(problem, extended_precision=args.extended_precision)
    print(f"layers = {len(amps.A)}")
    _print_norms(*oracle.exact_norms(amps), amps.residual)
    _warn_if_flagged(amps.flagged)
    if args.dump_solution:
        xs = np.linspace(problem.partition[0], problem.partition[-1],
                         args.dump_points)
        _dump_solution(args.dump_solution, xs, amps.eval(xs))
    return 0 if not amps.flagged else 2


def _warn_if_flagged(flagged: bool) -> None:
    if flagged:
        print("warning: amplitude system near-singular; values are unreliable",
              file=sys.stderr)


def _cmd_stability(args) -> int:
    problem = load_problem(args.config)
    report = stability.stability_report(problem.a, problem.c, problem.bc)
    print(f"bc = {report.bc.value}")
    print(f"Q_exact = {report.Q_exact:.10g}")
    print(f"Q_bound = {report.Q_bound:.10g}")
    print(f"Q_product_bound = {report.Q_product_bound:.10g}")
    print(f"C_I = {report.C_I:.10g}")
    print(f"C_II = {report.C_II:.10g}")
    if report.bound_overflowed:
        print("warning: exponential bound overflowed; reported as inf",
              file=sys.stderr)
    print("breakpoint,alpha,sigma,gamma")
    part = problem.partition
    for j in range(len(report.factors.alpha)):
        print(f"{part[j + 1]:.10g},{report.factors.alpha[j]:.10g},"
              f"{report.factors.sigma[j]:.10g},{report.factors.gamma[j]:.10g}")
    return 0


def _cmd_bounds(args) -> int:
    # the parser's dests are the field names
    inputs = theory.FemTheoryInputs(**{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(theory.FemTheoryInputs)})
    report = theory.resolution_and_quasiopt(inputs)
    print(f"C_ac = {report.c_ac:.10g}")
    print(f"C0 = {report.c0:.10g}")
    print(f"C0_prime = {report.c0_prime:.10g}")
    print(f"K = {report.k:.10g}")
    print(f"sigma_star_bound = {report.sigma_star:.10g}")
    print(f"resolution_ok = {report.resolution_ok}")
    print(f"quasi_opt_energy = {report.quasi_opt_h:.10g}")
    print(f"quasi_opt_l2 = {report.quasi_opt_l2:.10g}")
    if report.defaults_used:
        print("note: C_reg = C_int = C_trace = 1.0 are placeholder defaults; "
              "absolute conclusions need certified constants", file=sys.stderr)
    return 0


def _table_args(args):
    return dict(m_list=_parse_list(args.m, int), base=args.base,
                levels=args.levels, jobs=args.jobs, cache_dir=args.cache)


def _write_grid(args, header, rows, column, columns, cell=None, footer=()) -> int:
    """The CSV of a table: the header, then per m of --m one cell per entry
    of `columns`, from the row whose `column` field is that entry: the text
    of its value (asterisk included), or `cell(row, text)`; then the footer."""
    by_key = {(row.m, getattr(row, column)): row for row in rows}
    lines = [",".join(header)]
    for m in _parse_list(args.m, int):
        cells = [str(m)]
        for row in (by_key[(m, c)] for c in columns):
            text = _cell(row.value, args.paper_format, row.asterisk)
            cells.append(text if cell is None else cell(row, text))
        lines.append(",".join(cells))
    _emit(lines + list(footer), args.output)
    return 0


def _cmd_table1(args) -> int:
    r_list = _parse_list(args.r, float)
    rows = experiments.table1(r_list, **_table_args(args))
    rates = experiments.growth_rates(rows)
    grad = ["grad"] + [("" if rates[r] is None else f"{rates[r]:.2f}") + ","
                       for r in r_list]
    header = ["m"] + [f"{name} (r={r:g})" for r in r_list
                      for name in ("||u'||", "kappa")]
    return _write_grid(args, header, rows, "r", r_list, lambda row, text: (
        f"{text},{_cell(row.kappa, args.paper_format, sigfigs=3)}"),
        footer=[",".join(grad)])


def _cmd_table2(args) -> int:
    g_cases = ((1.0, 1.0), (2.0, 0.5))
    rows = experiments.table2(r=args.r, g_cases=g_cases, **_table_args(args))
    header = ["m"] + [f"||u'|| (g1={g1:g} g2={g2:g})" for g1, g2 in g_cases]
    return _write_grid(args, header, rows, "g", g_cases)


def _cmd_table3(args) -> int:
    eps_list = _parse_list(args.eps, float)
    rows = experiments.table3(eps_list=eps_list, r=args.r,
                              skip_unattempted=not args.attempt_blank,
                              **_table_args(args))

    def cell(row, text):  # not attempted: blank, or the analytic value
        if row.run is not None:
            return text
        return text + "!" if args.beyond_paper else ""

    header = ["m\\eps"] + [f"{e:g}" for e in eps_list]
    return _write_grid(args, header, rows, "eps", eps_list, cell)


def _family_from_args(args) -> UnstableFamilySpec:
    return UnstableFamilySpec(args.m, args.r, eps=args.eps,
                              g=(complex(args.g1), complex(args.g2)))


def _cmd_convergence(args) -> int:
    spec = _family_from_args(args)
    problem = experiments.family(spec)
    run = experiments.refine_to_convergence(
        problem, base=args.base, levels=args.levels,
        cache_dir=args.cache, cache_key=spec.cache_key())
    print("level,elements_per_subinterval,norm_du")
    for i, v in enumerate(run.values):
        print(f"{i},{args.base * 2**i},{v:.10g}")
    print(f"converged = {run.converged}")
    print(f"reported = {fmt_sig(run.reported)}")
    print(f"condition_estimate = {run.condition_estimate:.4e}")
    print(f"residual = {run.residual:.3e}")
    amps = oracle.solve_analytic(problem)
    print(f"oracle_norm_du = {oracle.exact_norms(amps)[0]:.10g}")
    if args.strict and not run.converged:
        print("non-convergence under --strict", file=sys.stderr)
        return 2
    return 0


def _cmd_quasiopt(args) -> int:
    spec = _family_from_args(args)
    probe = experiments.quasiopt_probe(experiments.family(spec),
                                       levels=args.levels, base=args.base)
    lines = ["level,energy_error,interp_error,ratio,nodal_l2_error"]
    for i in range(len(probe.levels)):
        lines.append(f"{probe.levels[i]},{probe.energy_errors[i]:.6e},"
                     f"{probe.interp_errors[i]:.6e},{probe.ratios[i]:.6f},"
                     f"{probe.nodal_l2_errors[i]:.6e}")
    _emit(lines, args.output)
    _warn_if_flagged(probe.flagged)
    return 0 if not probe.flagged else 2


def _cmd_bounds_compare(args) -> int:
    m_list = _parse_list(args.m, int)
    rows = experiments.bound_comparison(m_list, args.r)
    lines = ["m,ln_norm_du,bound_closed_form,bound_variation,bound_exact_q,satisfied"]
    for row in rows:
        lines.append(f"{row.m},{row.ln_measured:.6f},{row.bound_closed_form:.6f},"
                     f"{row.bound_variation:.6f},{row.bound_exact_q:.6f},"
                     f"{row.satisfied}")
    _emit(lines, args.output)
    return 0


# -- parser --------------------------------------------------------------------

def _add_table_opts(p):
    p.add_argument("--base", type=int, default=800,
                   help="elements per subinterval at the first level")
    p.add_argument("--levels", type=int, default=7)
    p.add_argument("--jobs", type=int, default=1, help="parallel cells")
    p.add_argument("--cache", default=None, help="directory for resumable runs")
    p.add_argument("--paper-format", action="store_true",
                   help="d.ddd(+e) cells for diffing against the reference tables")
    p.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")


def _add_family_opts(p):
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--g1", default="0")
    p.add_argument("--g2", default="1")
    p.add_argument("--base", type=int, default=800)
    p.add_argument("--levels", type=int, default=7)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="helmlab",
                     description="1D heterogeneous Helmholtz laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[], help="P1 finite element solve")
    p.add_argument("--config", required=True)
    p.add_argument("--elements", type=int, default=800,
                   help="elements per coefficient subinterval")
    p.add_argument("--condition", action="store_true")
    p.add_argument("--dump-solution", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="analytic layered-medium solve")
    p.add_argument("--config", required=True)
    p.add_argument("--extended-precision", action="store_true")
    p.add_argument("--dump-solution", default=None)
    p.add_argument("--dump-points", type=int, default=2001)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("stability", help="multiplier and a priori bounds")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("bounds", help="finite element theory constants")
    for name, default in [("a-min", 1.0), ("a-max", 1.0), ("c-min", 1.0),
                          ("c-max", 1.0), ("omega", 1.0), ("omega0", 1.0),
                          ("h", 0.01), ("c-stab", 1.0), ("kappa-a", 0.0),
                          ("kappa-c", 0.0), ("c-reg", 1.0), ("c-int", 1.0),
                          ("c-trace", 1.0)]:
        p.add_argument(f"--{name}", type=float, default=default)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("table1", help="||u'|| and kappa over (m, r)")
    p.add_argument("--r", default="0.4,0.5,0.6")
    p.add_argument("--m", default="2,4,6,8,10,12")
    _add_table_opts(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="boundary-data sensitivity at fixed r")
    p.add_argument("--m", default="2,4,6,8,10,12")
    p.add_argument("--r", type=float, default=0.6)
    _add_table_opts(p)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("table3", help="perturbation sensitivity at r=0.5")
    p.add_argument("--m", default="6,8,10,12,14,16,18,20")
    p.add_argument("--eps", default="0,1e-9,1e-8,1e-7,1e-6,1e-5,1e-4,1e-3")
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--attempt-blank", action="store_true",
                   help="run the FEM ladder even on m>=14, eps<=1e-7 cells")
    p.add_argument("--beyond-paper", action="store_true",
                   help="fill skipped cells from the analytic reference "
                        "(extended precision); marked with '!'")
    _add_table_opts(p)
    p.set_defaults(func=_cmd_table3)

    p = sub.add_parser("convergence", help="refinement ladder for one cell")
    _add_family_opts(p)
    p.add_argument("--cache", default=None, help="directory for resumable runs")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when the ladder does not converge")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("quasiopt", help="Galerkin vs interpolation error ladder")
    _add_family_opts(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_quasiopt)

    p = sub.add_parser("bounds-compare", help="growth against theoretical bounds")
    p.add_argument("--m", default="2,4,6,8,10,12")
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_bounds_compare)

    return parser


def parse_and_dispatch(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        # config, coefficient and unsupported-problem errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SingularSystemError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
