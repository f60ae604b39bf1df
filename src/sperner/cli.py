"""Command-line interface.

Subcommands: bounds, construct, ip, scan, verify, asym.  All randomized
realization derives from --seed (default 0), and CSV output is byte-stable
for fixed flags and seed.  Exit codes: 0 success, 1 verification failure,
2 usage or input error, 141 stdout closed by its reader (the status a shell
reports for a tool killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import os
import sys
from fractions import Fraction

from . import bounds as bnd
from . import ip as ipm
from .combinat import decompose, mms
from .construction import (PartitionSystem, construct_grouped, construct_uniform,
                           plan_grouped)
from .verify import DetectingArray, check_detecting, check_system


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(rows, out: str | None):
    """Write `rows`, header first, as CSV to `out`, or to stdout."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _write(buf.getvalue(), out)


def _fmt_fraction(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)


def _fmt_approx(v: Fraction) -> str:
    """v to six decimals, or where v does not fit in a float, to seven
    significant digits in e notation, rounded from the exact integers."""
    try:
        return f"{float(v):.6f}"
    except OverflowError:
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.Emax = 7, decimal.MAX_EMAX
            return f"{decimal.Decimal(v.numerator) / v.denominator:.6e}"


def cmd_bounds(args) -> int:
    if args.k < 2:      # SP(n, 1) = 1, and the counting bound divides by 0 there
        raise ValueError(f"bounds: --k must be at least 2, got {args.k}")
    rep = bnd.bounds_report(args.n, args.k)
    params = rep.params
    lines = [f"n={params.n} k={params.k} c={params.c} r={params.r}"]
    lines.append(f"mms = {_fmt_fraction(rep.mms_value)} (~{_fmt_approx(rep.mms_value)})")
    if params.r == 0:
        lines.append(f"exact = {rep.best_lower} (uniform case)")
    lines.append(f"upper (refined) = {rep.refined if rep.refined is not None else 'n/a'}")
    lines.append(f"upper (small-r) = {rep.small_r if rep.small_r is not None else 'n/a'}")
    if rep.range_3k2 is not None:
        lines.append(f"range (n=3k-2) = {{{rep.range_3k2[0]}, {rep.range_3k2[1]}}}")
    lines.append(f"lower = {rep.best_lower} via {rep.witness}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _report_built(system: PartitionSystem, params, headline: str, out: str | None) -> int:
    """Verify a built system, print `headline` and, indented under it, the
    reports of its checks, write it to `out` if given; the exit code, 1 if
    a check failed."""
    reports = check_system(system, params)
    print(headline)
    for rep in reports:
        print("  " + rep.summary().replace("\n", "\n  "))
    if out:
        _write(system.to_text(), out)
        print(f"wrote {out}")
    return 0 if all(rep.ok for rep in reports) else 1


def cmd_construct(args) -> int:
    params = decompose(args.n, args.k)
    if params.r == 0:
        if args.m is not None or args.h is not None:
            raise ValueError("construct: --m and --h apply only when k does not divide n")
        system = construct_uniform(args.n, args.k)
    else:
        if args.m is None or args.h is None:
            raise ValueError("construct: --m and --h are required when k does not divide n")
        plan = plan_grouped(args.n, args.k, args.m, args.h, args.case)
        system = construct_grouped(plan, seed=args.seed)
    return _report_built(system, params, f"built {system.size} partitions of {system.n} "
                         f"elements into {system.k} parts", args.out)


def _exact(inst):
    """`exact_solve` with its verdict printed: nothing more when the band
    dual proves it, the parity cut by name when the cut does, and
    `(not proved optimal)` when it falls short of the bound."""
    sol, proof = ipm.exact_solve(inst)
    note = {None: " (not proved optimal)",
            "parity cut": " (optimal by the parity cut)"}.get(proof, "")
    print(f"exact objective = {sol.objective}, gap to Q = {inst.q - sol.objective}{note}")
    return sol


def cmd_ip(args) -> int:
    if args.out and not args.build:
        raise ValueError("ip --out writes the built system, so it needs --build")
    if (args.solver, args.variant) in (("greedy", "secB"), ("closed", "secA")):
        raise ValueError(f"ip --solver {args.solver} does not apply to variant {args.variant}")
    inst = ipm.build_instance(args.n, args.k, args.variant)
    print(f"instance {inst.variant} n={inst.n} k={inst.k}: "
          f"d={inst.d} u={inst.u} Q={inst.q} |Phi|={ipm.phi_size(inst.u, inst.d)}")
    solver = args.solver
    if solver == "auto":
        solver = "greedy" if inst.variant == "secA" else "exact"
    if inst.trivial:
        sol = ipm.zero_solution(inst)
        print("trivial program, objective 0")
    elif solver == "greedy":
        sol = ipm.greedy_solve(inst)
        print(f"greedy objective = {sol.objective}, gap to Q = {inst.q - sol.objective}")
    elif solver == "exact":
        sol = _exact(inst)
    elif solver == "closed":
        res = ipm.closed_form_solve(inst)
        if res.feasible:
            sol = res.solution
            print(f"closed-form objective = {sol.objective} (= Q)")
        else:
            sol = None
            print(f"closed form infeasible: violated {', '.join(res.violations)}")
    elif solver == "lp":
        value, xs = ipm.lp_relax(inst)
        print(f"lp optimum = {_fmt_fraction(value)}")
        sol = ipm.IpSolution(inst, {v: int(val) for v, val in xs.items() if int(val)})
        print(f"floor-rounded objective = {sol.objective}")
    if args.dump:
        _write(inst.to_text(sol), args.dump)
    if sol is None:
        return 1
    if args.build:
        system = ipm.realize_system(inst, sol, seed=args.seed)
        return _report_built(system, inst.params, f"built {system.size} partitions", args.out)
    return 0


def cmd_scan(args) -> int:
    if args.table == 1:
        rows = [["n", "k", "m", "h", "sp"]]
        rows += ([row.n, row.k, row.m, row.h, row.sp]
                 for row in bnd.scan_exact(args.n_max, c_max=args.c_max))
    else:
        rows = [["r", "k_threshold", "bound"]]
        rows += ([row.r, row.k_threshold, row.bound] for row in bnd.scan_small_r())
    _write_csv(rows, args.out)
    return 0


def cmd_verify(args) -> int:
    with open(args.path) as fh:
        text = fh.read()
    head = (text.split(None, 1) or [""])[0]
    try:
        if head == "SPS":
            reports = check_system(PartitionSystem.from_text(text))
        elif head == "DA":
            # the format gives each row one symbol in 1..k per column, so a
            # column holding every symbol is a partition: one check decides
            reports = [check_detecting(DetectingArray.from_text(text))]
        else:
            raise ValueError(f"unrecognized header {head!r} (expected SPS or DA)")
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    ok = all(rep.ok for rep in reports)
    for rep in reports:
        print(rep.summary())
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_asym(args) -> int:
    if args.k % 2 == 0 or args.k < 3:
        raise ValueError("asym: --k must be odd and at least 3")
    rows = [["n", "k", "variant", "d", "u", "q", "mms", "objective",
             "lp", "estar0_ratio", "u_ratio", "q_over_mms"]]
    # the first n > 2k of the class: n = k + 1 or k - 1 (mod 2k)
    first = 3 * args.k + 1 if args.variant == "secA" else 3 * args.k - 1
    for n in range(first, args.n_max + 1, 2 * args.k):
        inst = ipm.build_instance(n, args.k, args.variant)
        rep = ipm.asymptotic_report(inst)
        obj = ""
        lp = ""
        sol = None
        if args.variant == "secA":
            sol = ipm.greedy_solve(inst)
            obj = sol.objective
        if not inst.trivial:
            lp = _fmt_fraction(ipm.lp_value(inst, sol)[0])
        rows.append([n, args.k, args.variant, inst.d, inst.u, inst.q,
                     _fmt_fraction(inst.mms_value), obj, lp,
                     f"{rep.estar0_ratio:.9f}",
                     f"{rep.u_ratio:.9f}",
                     f"{rep.q_over_mms:.9f}"])
    _write_csv(rows, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args makes a fresh
    namespace on every call, so nothing carries over between commands."""
    parser = argparse.ArgumentParser(
        prog="sperner",
        description="Construct, bound and verify Sperner partition systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="counting and shadow bounds for one (n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", help="build a partition system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--case", choices=("a", "b"), default="b")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("ip", help="build and solve a structured integer program")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=ipm.VARIANTS, required=True)
    p.add_argument("--solver", choices=("auto", "greedy", "exact", "closed", "lp"),
                   default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--build", action="store_true",
                   help="realize the solution as a partition system")
    p.add_argument("--out", help="write the built system here")
    p.add_argument("--dump", help="write the instance/solution dump here")
    p.set_defaults(func=cmd_ip)

    p = sub.add_parser("scan", help="reproduce the exact-value and small-r tables")
    p.add_argument("--table", type=int, choices=(1, 2), required=True)
    p.add_argument("--n-max", type=int, default=1000)
    p.add_argument("--c-max", type=int, default=2)
    p.add_argument("--workers", type=int, choices=(1,), default=1,
                   help="the scan is serial; accepted, as 1 only, so that existing "
                        "command lines still parse")
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="verify an SPS or DA file")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("asym", help="per-n diagnostics along a congruence class")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=ipm.VARIANTS, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_asym)
    return parser


def _silence_stdout():
    """Point stdout's file descriptor, where it has one, at the null device,
    so that the interpreter's last flush of what the closed pipe refused
    stays silent."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    limit = sys.get_int_max_str_digits()   # exact values print in full; verify parses under it
    sys.set_int_max_str_digits(limit if args.func is cmd_verify else 0)
    try:
        code = args.func(args)
        sys.stdout.flush()      # so that a reader's early close raises here
        return code
    except BrokenPipeError:
        _silence_stdout()
        return 141
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
