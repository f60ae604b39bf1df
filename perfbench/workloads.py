"""The three workloads: which operations one pass runs, and their inputs.

An operation is one README command run through `sperner.cli.main`, or one
library call (`certificate`).  Every pass of a run repeats the same
operations on the same inputs, so the share of failed operations does not
depend on how many passes fit in a run.  All inputs follow from the
workload seed; the two operations that fail at the parent commit take
inputs that do not depend on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("tables", "build", "ip")

# Table-1 rows built by `build`: the group size h sets the census and arc
# count per stage, the group count m the number of stages.
BUILD_ROWS = ((88, 33, 4, 22), (138, 54, 6, 23), (230, 95, 10, 23), (336, 160, 28, 12))


@dataclass
class Op:
    name: str
    cmd: str                 # scan, bounds, construct, verify, ip, certificate, asym
    argv: list = field(default_factory=list)
    check: dict = field(default_factory=dict)
    phase: int = 0           # build: 0 writes systems, 1 verifies what phase 0 wrote
    known_fault: str = ""    # why this operation fails at the parent commit


def tables_ops(seed: int) -> list[Op]:
    ops = [Op("scan-table1", "scan", ["scan", "--table", "1", "--n-max", "1000",
                                      "--workers", "1"], {"table": 1}),
           Op("scan-table2", "scan", ["scan", "--table", "2"], {"table": 2})]
    grid = [(n, k) for n in range(20, 41) for k in range(4, n) if 2 * k < n]
    random.Random(f"perfbench:{seed}:tables").shuffle(grid)
    ops += [Op(f"bounds-{n}-{k}", "bounds", ["bounds", "--n", str(n), "--k", str(k)],
               {"n": n, "k": k}) for n, k in grid]
    return ops


def build_ops(seed: int) -> list[Op]:
    ops = []

    def construct(name, n, k, m=None, h=None, cseed=seed, known_fault=""):
        argv = ["construct", "--n", str(n), "--k", str(k)]
        if m is not None:
            argv += ["--m", str(m), "--h", str(h), "--case", "b", "--seed", str(cseed)]
        argv += ["--out", f"{name}.sps"]
        ops.append(Op(f"construct-{name}", "construct", argv,
                      {"n": n, "k": k, "m": m, "h": h, "file": f"{name}.sps"},
                      known_fault=known_fault))

    for n, k, m, h in BUILD_ROWS:
        construct(f"r{n}", n, k, m, h)
    construct("r36", 36, 15, 4, 9)          # a Table-1 row below 6,000 parts
    construct("u16", 16, 4)                 # resolve(16, 4) through partition_ground
    construct("r99", 99, 30, 9, 11)         # c = 3, not a Table-1 row
    construct("r27", 27, 7, 3, 9, cseed=0, known_fault=(
        "RealizationError: every row of T is 2, so each unit's transversal is "
        "forced, and _realize_general's fixed 40x400 reshuffle budget cannot "
        "separate two units whose forced transversals coincide"))

    def verify(file, known_fault=""):
        ops.append(Op(f"verify-{file}", "verify", ["verify", file], {"file": file},
                      phase=1, known_fault=known_fault))

    for name in [f"r{row[0]}" for row in BUILD_ROWS] + ["r36", "u16", "r99"]:
        verify(f"{name}.sps")
    for file in ("r36.da", "u16.da", "r36-dup.sps", "r36-sub.sps", "r36-sub.da",
                 "u16-dup.sps"):
        verify(file)
    verify("r88-dup.sps", known_fault=(
        "verify skips the subset test above cli.BRUTE_LIMIT = 6,000 parts and "
        "prints PASS for a system with a duplicated partition"))
    return ops


# Planted-defect copies made between the phases of `build`:
# file -> (source system, defect, output format).
DERIVED_INPUTS = {
    "r36.da": ("r36.sps", None, "da"),
    "u16.da": ("u16.sps", None, "da"),
    "r36-dup.sps": ("r36.sps", "dup", "sps"),
    "r36-sub.sps": ("r36.sps", "sub", "sps"),
    "r36-sub.da": ("r36.sps", "sub", "da"),
    "u16-dup.sps": ("u16.sps", "dup", "sps"),
    "r88-dup.sps": ("r88.sps", "dup", "sps"),
}


def ip_ops(seed: int) -> list[Op]:
    ops = []

    def ip(name, n, k, variant, solver, *extra):
        argv = ["ip", "--n", str(n), "--k", str(k), "--variant", variant,
                "--solver", solver, *extra]
        ops.append(Op(f"ip-{name}", "ip", argv,
                      {"n": n, "k": k, "variant": variant, "solver": solver}))

    ip("lp-400", 400, 3, "secA", "lp")
    ip("lp-502", 502, 3, "secA", "lp")
    for n, variant in ((202, "secA"), (304, "secA"), (26, "secB"), (302, "secB")):
        ip(f"exact-{n}", n, 3, variant, "exact", "--dump", f"ip{n}.dump")
    ip("auto-504", 504, 5, "secB", "auto", "--dump", "ip504.dump")
    # --build materialises every part: keep these below 6,000 parts.
    for n, k in ((10, 3), (16, 5)):
        ip(f"build-{n}", n, k, "secA", "exact", "--seed", str(seed), "--build",
           "--out", f"ip{n}.sps", "--dump", f"ip{n}.dump")
    ops.append(Op("certificate-26", "certificate", [],
                  {"n": 26, "k": 3, "variant": "secB"}))
    ops.append(Op("asym-secB-800", "asym",
                  ["asym", "--k", "3", "--variant", "secB", "--n-max", "800"],
                  {"k": 3, "variant": "secB"}))
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    return {"tables": tables_ops, "build": build_ops, "ip": ip_ops}[workload](seed)
