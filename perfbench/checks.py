"""Output checks, one function per command, run outside the timed region.

Each check gets the operation, its record from the first pass and the
directory the operation wrote to, and returns a list of problems; an empty
list means the output is right.  Expected values come from `oracles`, from
the paper's tables in `data/`, or from properties the method must have.
"""

from __future__ import annotations

import csv
import math
import re
from fractions import Fraction
from pathlib import Path

import oracles

DATA = Path(__file__).resolve().parent / "data"


def _table(name: str) -> list:
    with open(DATA / name, newline="") as fh:
        return list(csv.reader(fh))


def _field(pattern: str, text: str):
    m = re.search(pattern, text, re.M)
    return m.group(1) if m else None


def table1_sizes() -> dict:
    return {tuple(int(v) for v in row[:4]): int(row[4]) for row in _table("table1.csv")[1:]}


def check_scan(op, rec, workdir, context) -> list:
    got = list(csv.reader(rec["stdout"].splitlines()))
    want = _table(f"table{op.check['table']}.csv")
    if got != want:
        return [f"scan --table {op.check['table']}: the {len(got) - 1} rows printed "
                f"differ from the paper's {len(want) - 1}"]
    problems = []
    if op.check["table"] == 1:
        for n, k, m, h, sp in ((int(v) for v in row) for row in got[1:]):
            if not oracles.refined_predicate(n, k, sp) or oracles.refined_predicate(n, k, sp + 1):
                problems.append(f"({n},{k}): {sp} is not the refined threshold")
    return problems


def check_bounds(op, rec, workdir, context) -> list:
    n, k = op.check["n"], op.check["k"]
    out = rec["stdout"]
    problems = []
    mms = _field(r"^mms = (\S+)", out)
    if mms is None or Fraction(mms) != oracles.mms(n, k):
        problems.append(f"mms {mms}, want {oracles.mms(n, k)}")
    upper = _field(r"^upper \(refined\) = (\S+)", out)
    want = oracles.refined_threshold(n, k)
    if upper != ("n/a" if want is None else str(want)):
        problems.append(f"refined upper {upper}, want {want}")
    lower = _field(r"^lower = (\d+)", out)
    if lower is None:
        problems.append("no lower bound printed")
    elif (want is not None and int(lower) > want) or int(lower) > oracles.mms(n, k):
        problems.append(f"lower {lower} exceeds an upper bound")
    return problems


def _system_problems(path: Path, size: int) -> list:
    """A built system: valid, almost uniform, Sperner, of the expected size."""
    if not path.exists():
        return [f"{path.name} was not written"]
    n, k, partitions = oracles.parse_sps(path.read_text())
    problems = []
    if not oracles.is_partition_system(n, k, partitions):
        problems.append(f"{path.name}: not a system of partitions into {k} parts")
    if not oracles.size_profile_ok(n, k, partitions):
        problems.append(f"{path.name}: parts are not of sizes c and c+1 as required")
    bad = oracles.first_violation(partitions)
    if bad:
        problems.append(f"{path.name}: part {bad[0]} lies in part {bad[1]}")
    if len(partitions) != size:
        problems.append(f"{path.name}: {len(partitions)} partitions, want {size}")
    return problems


def check_construct(op, rec, workdir, context) -> list:
    c = op.check
    n, k, m, h = c["n"], c["k"], c["m"], c["h"]
    cc = n // k
    if m is None:
        size = math.comb(n - 1, cc - 1)
    else:
        size = table1_sizes().get((n, k, m, h)) or oracles.grouped_size_case_b(n, k, m, h)
    problems = [] if rec["code"] == 0 else [f"exit code {rec['code']}"]
    built = _field(r"^built (\d+) partitions", rec["stdout"])
    if built != str(size):
        problems.append(f"reported {built} partitions, want {size}")
    problems += _system_problems(workdir / c["file"], size)
    if m is None and not problems:
        _, _, partitions = oracles.parse_sps((workdir / c["file"]).read_text())
        if not oracles.is_resolution(n, cc, partitions):
            problems.append("uniform system is not a resolution of the c-subsets")
    return problems


def check_verify(op, rec, workdir, context) -> list:
    path = workdir / op.check["file"]
    if not path.exists():
        return [f"input {path.name} was not made"]
    text = path.read_text()
    n, k, partitions = (oracles.parse_da if text.startswith("DA") else oracles.parse_sps)(text)
    valid = oracles.is_partition_system(n, k, partitions) and oracles.is_sperner(partitions)
    want = 0 if valid else 1
    if rec["code"] != want:
        return [f"wrong verdict: exit {rec['code']}, the oracle says "
                f"{'PASS' if valid else 'FAIL'}"]
    last = rec["stdout"].strip().splitlines()[-1:]
    if last != ["PASS" if valid else "FAIL"]:
        return [f"printed {last}, exit code {rec['code']}"]
    return []


def _instance_problems(out, par) -> list:
    head = re.search(r"^instance (\S+) n=(\d+) k=(\d+): d=(-?\d+) u=(-?\d+) Q=(\d+)", out, re.M)
    if head is None:
        return ["no instance line"]
    got = (int(head.group(4)), int(head.group(5)), int(head.group(6)))
    if got != (par.d, par.u, par.q):
        return [f"instance d,u,Q = {got}, recomputed {(par.d, par.u, par.q)}"]
    return []


def check_ip(op, rec, workdir, context) -> list:
    c = op.check
    par = oracles.ip_params(c["n"], c["k"], c["variant"])
    out = rec["stdout"]
    problems = [] if rec["code"] == 0 else [f"exit code {rec['code']}"]
    problems += _instance_problems(out, par)
    if c["solver"] == "lp":
        value = _field(r"^lp optimum = (\S+)", out)
        if value is None:
            return problems + ["no LP optimum printed"]
        value = Fraction(value)
        if value > par.q:
            problems.append(f"LP optimum {value} exceeds Q")
        if not oracles.lp_agrees(value, par):
            problems.append("exact LP optimum disagrees with HiGHS")
        return problems
    dump = next(workdir / op.argv[i + 1] for i, a in enumerate(op.argv) if a == "--dump")
    if not dump.exists():
        return problems + [f"{dump.name} was not written"]
    bad, objective = oracles.evaluate_ip_dump(dump.read_text())
    problems += bad
    context[f"objective:{c['n']}:{c['variant']}"] = objective
    printed = _field(r"^(?:exact|closed-form) objective = (\d+)", out)
    if printed != str(objective):
        problems.append(f"printed objective {printed}, dumped solution has {objective}")
    if c["solver"] == "auto" and objective != par.q:
        problems.append(f"closed-form objective {objective} is not Q = {par.q}")
    if "--build" in op.argv:
        built = workdir / op.argv[op.argv.index("--out") + 1]
        problems += _system_problems(built, objective)
    return problems


def check_certificate(op, rec, workdir, context) -> list:
    c = op.check
    cert = rec["result"]
    if cert is None:
        return ["no certificate"]
    par = oracles.ip_params(c["n"], c["k"], c["variant"])
    problems = oracles.certificate_problems(cert, par)
    want = context.get(f"objective:{c['n']}:{c['variant']}")
    if cert["p"] != want:
        problems.append(f"certificate covers {cert['p']} classes, the solution has {want}")
    return problems


def check_asym(op, rec, workdir, context) -> list:
    c = op.check
    rows = list(csv.DictReader(rec["stdout"].splitlines()))
    k = c["k"]
    step = 2 * k
    want_ns = [n for n in range(2 * k + 1, int(op.argv[op.argv.index("--n-max") + 1]) + 1)
               if n % step == (k - 1) % step]
    problems = []
    if [int(r["n"]) for r in rows] != want_ns:
        problems.append("asym rows do not cover the congruence class")
    for r in rows:
        n, q = int(r["n"]), int(r["q"])
        par = oracles.ip_params(n, k, c["variant"])
        mms = oracles.mms(n, k)
        if (int(r["d"]), int(r["u"]), q) != (par.d, par.u, par.q):
            problems.append(f"n={n}: d,u,q = {r['d']},{r['u']},{q}, "
                            f"recomputed {par.d},{par.u},{par.q}")
        if q % 2 or q > mms or Fraction(r["mms"]) != mms:
            problems.append(f"n={n}: q={q} odd or above mms, or mms {r['mms']} != {mms}")
        if r["lp"] and Fraction(r["lp"]) > q:
            problems.append(f"n={n}: LP optimum {r['lp']} exceeds q")
    return problems


CHECKS = {"scan": check_scan, "bounds": check_bounds, "construct": check_construct,
          "verify": check_verify, "ip": check_ip, "certificate": check_certificate,
          "asym": check_asym}
