"""Command-line interface.

Subcommands: bounds, construct, ip, scan, verify, asym.  All randomized
realization derives from --seed (default 0), and CSV output is byte-stable
for fixed flags and seed.  Exit codes: 0 success, 1 verification failure,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from fractions import Fraction

from . import bounds as bnd
from . import ip as ipm
from .combinat import decompose, mms
from .construction import (PartitionSystem, construct_grouped, construct_uniform,
                           plan_grouped)
from .verify import (DetectingArray, PartIndex, check_almost_uniform,
                     check_certificate, check_detecting, check_partition_system,
                     check_sperner, from_detecting_array)


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_fraction(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)


def cmd_bounds(args) -> int:
    rep = bnd.bounds_report(args.n, args.k)
    params = rep.params
    lines = [f"n={params.n} k={params.k} c={params.c} r={params.r}"]
    lines.append(f"mms = {_fmt_fraction(rep.mms_value)} (~{float(rep.mms_value):.6f})")
    if params.r == 0:
        lines.append(f"exact = {rep.best_lower} (uniform case)")
    lines.append(f"upper (refined) = {rep.refined if rep.refined is not None else 'n/a'}")
    lines.append(f"upper (small-r) = {rep.small_r if rep.small_r is not None else 'n/a'}")
    if rep.range_3k2 is not None:
        lines.append(f"range (n=3k-2) = {{{rep.range_3k2[0]}, {rep.range_3k2[1]}}}")
    lines.append(f"lower = {rep.best_lower} via {rep.witness}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _verify_system(system: PartitionSystem, params=None) -> tuple[list, bool]:
    """Every check that applies, each system checked exactly: one part index
    serves both the certificate's reuse test and the subset test."""
    notes = []
    ok = True
    rep = check_partition_system(system)
    notes.append(f"partition structure: {'ok' if rep.ok else 'FAIL'}")
    ok &= rep.ok
    if params is not None:
        rep = check_almost_uniform(system, params)
        notes.append(f"almost uniform: {'ok' if rep.ok else 'FAIL'}")
        ok &= rep.ok
    index = PartIndex(system.partitions)
    if system.part_tags is not None:
        rep = check_certificate(system, index)
        notes.append(f"certificate: {'ok' if rep.ok else 'FAIL'}")
        ok &= rep.ok
    rep = check_sperner(system, index)
    notes.append(f"exact subset test: {'ok' if rep.ok else 'FAIL'}")
    ok &= rep.ok
    return notes, ok


def cmd_construct(args) -> int:
    params = decompose(args.n, args.k)
    if params.r == 0:
        system = construct_uniform(args.n, args.k)
    else:
        if args.m is None or args.h is None:
            raise ValueError("construct: --m and --h are required when k does not divide n")
        plan = plan_grouped(args.n, args.k, args.m, args.h, args.case)
        system = construct_grouped(plan, seed=args.seed)
    notes, ok = _verify_system(system, params)
    print(f"built {system.size} partitions of {system.n} elements into {system.k} parts")
    for note in notes:
        print(f"  {note}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(system.to_text())
        print(f"wrote {args.out}")
    return 0 if ok else 1


def _exact(inst):
    """The floored root LP with its verdict printed: nothing more when the
    band dual proves it, the parity cut by name when the cut does, and
    `(not proved optimal)` when it falls short of the bound."""
    sol, optimal = ipm.exact_solve(inst)
    note = ""
    if not optimal:
        note = " (not proved optimal)"
    elif ipm.upper_bound(inst)[1] == "parity cut":
        note = " (optimal by the parity cut)"
    print(f"exact objective = {sol.objective}, gap to Q = {inst.q - sol.objective}{note}")
    return sol


def cmd_ip(args) -> int:
    if args.out and not args.build:
        raise ValueError("ip --out writes the built system, so it needs --build")
    inst = ipm.build_instance(args.n, args.k, args.variant)
    print(f"instance {inst.variant} n={inst.n} k={inst.k}: "
          f"d={inst.d} u={inst.u} Q={inst.q} |Phi|={len(inst.phi)}")
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write(inst.to_text())
    solver = args.solver
    if solver == "auto":
        solver = "greedy" if inst.variant == "secA" else "ladder"
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
            print(f"closed form infeasible: violated {', '.join(res.violations)}")
            return 1
    elif solver == "lp":
        value, xs = ipm.lp_relax(inst)
        print(f"lp optimum = {_fmt_fraction(value)}")
        sol = ipm.IpSolution(inst, {v: int(val) for v, val in xs.items() if int(val)})
        print(f"floor-rounded objective = {sol.objective}")
    elif solver == "ladder":
        res = ipm.closed_form_solve(inst)
        if res.feasible:
            sol = res.solution
            print(f"closed-form objective = {sol.objective} (= Q)")
        else:
            print(f"closed form infeasible ({', '.join(res.violations)}); "
                  "falling back to the exact solver")
            sol = _exact(inst)
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write(inst.to_text(sol))
    if args.build:
        system = ipm.realize_system(inst, sol, seed=args.seed)
        notes, ok = _verify_system(system, inst.params)
        print(f"built {system.size} partitions")
        for note in notes:
            print(f"  {note}")
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(system.to_text())
            print(f"wrote {args.out}")
        return 0 if ok else 1
    return 0


def cmd_scan(args) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if args.table == 1:
        writer.writerow(["n", "k", "m", "h", "sp"])
        for row in bnd.scan_exact(args.n_max, c_max=args.c_max, workers=args.workers):
            writer.writerow([row.n, row.k, row.m, row.h, row.sp])
    else:
        writer.writerow(["r", "k_threshold", "bound"])
        for row in bnd.scan_small_r():
            writer.writerow([row.r, row.k_threshold, row.bound])
    _write(buf.getvalue(), args.out)
    return 0


def cmd_verify(args) -> int:
    with open(args.path) as fh:
        text = fh.read()
    head = text.split(None, 1)[0] if text.split() else ""
    try:
        if head == "SPS":
            system = PartitionSystem.from_text(text)
            notes, ok = _verify_system(system)
        elif head == "DA":
            arr = DetectingArray.from_text(text)
            rep = check_detecting(arr)
            notes = [f"detecting property: {'ok' if rep.ok else 'FAIL'}"]
            for v in rep.violations:
                notes.append(f"  {v}")
            ok = rep.ok
            if ok:
                system = from_detecting_array(arr)
                rep2 = check_partition_system(system)
                notes.append(f"column partitions: {'ok' if rep2.ok else 'FAIL'}")
                ok &= rep2.ok
        else:
            raise ValueError(f"unrecognized header {head!r} (expected SPS or DA)")
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(note)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_asym(args) -> int:
    if args.k % 2 == 0 or args.k < 3:
        raise ValueError("asym: --k must be odd and at least 3")
    rem = (args.k + 1) % (2 * args.k) if args.variant == "secA" else (args.k - 1) % (2 * args.k)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "k", "variant", "d", "u", "q", "mms", "objective",
                     "lp", "estar0_ratio", "u_ratio", "q_over_mms"])
    n = 2 * args.k + 1
    while n <= args.n_max:
        if n % (2 * args.k) == rem:
            inst = ipm.build_instance(n, args.k, args.variant)
            rep = ipm.asymptotic_report(inst)
            obj = ""
            lp = ""
            if args.variant == "secA" and not inst.trivial:
                sol = ipm.greedy_solve(inst)
                obj = sol.objective
                gap = Fraction(inst.q - sol.objective)
                assert gap <= ipm.greedy_gap_bound(inst)
            if not inst.trivial:
                lp = _fmt_fraction(ipm.lp_relax(inst)[0])
            writer.writerow([n, args.k, args.variant, rep.d, rep.u, rep.q,
                             _fmt_fraction(rep.mms_value), obj, lp,
                             f"{rep.estar_ratios[0]:.9f}",
                             f"{rep.u_ratio:.9f}",
                             f"{rep.q_over_mms:.9f}"])
        n += 1
    _write(buf.getvalue(), args.out)
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
    p.add_argument("--workers", type=int, default=1)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
