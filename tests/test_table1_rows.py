"""Opt-in: build and exactly verify the Table-1 rows.

The 26 rows of at most 200k parts hold 1.85M parts together.  The 40 rows
above 200k parts hold 24.5M, and the largest, (944,332,8,118), holds 2.49M
on its own and has needed minutes and close to a GiB.  Both runs are
outside the default suite; select them with

    PYTHONPATH=src python -m pytest -m table1 tests/test_table1_rows.py -s
    PYTHONPATH=src python -m pytest -m table1_full tests/test_table1_rows.py -s

Each row is built (case b, seed 0) and checked in a fresh process, one at
a time, so that the peak resident set printed for it is the row's own:

    python tests/test_table1_rows.py N K M H
"""

from __future__ import annotations

import csv
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PART_LIMIT = 200_000


def _rows():
    with open(ROOT / "tests" / "golden" / "table1.csv") as fh:
        return [tuple(int(row[f]) for f in ("n", "k", "m", "h", "sp"))
                for row in csv.DictReader(fh)]


ROWS = [row for row in _rows() if row[4] * row[1] <= PART_LIMIT]
FULL_ROWS = [row for row in _rows() if row[4] * row[1] > PART_LIMIT]


def build_and_check(n: int, k: int, m: int, h: int) -> dict:
    from sperner.combinat import decompose
    from sperner.construction import construct_grouped, plan_grouped
    from sperner.verify import (check_almost_uniform, check_certificate,
                                check_partition_system, check_sperner)

    start = time.perf_counter()
    system = construct_grouped(plan_grouped(n, k, m, h, "b"), seed=0)
    built = time.perf_counter()
    checks = {
        "partition": check_partition_system(system).ok,
        "almost_uniform": check_almost_uniform(system, decompose(n, k)).ok,
        "certificate": check_certificate(system).ok,
        "sperner": check_sperner(system).ok,
    }
    done = time.perf_counter()
    return {"size": system.size, "checks": checks,
            "build_s": round(built - start, 2), "check_s": round(done - built, 2),
            "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def test_row_selection():
    assert len(ROWS) == 26
    assert sum(sp * k for _, k, _, _, sp in ROWS) == 1_851_884
    assert len(FULL_ROWS) == 40
    assert sum(sp * k for _, k, _, _, sp in FULL_ROWS) == 24_549_751


def _build_and_check_apart(n, k, m, h, sp):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, *map(str, (n, k, m, h))],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    print(f"\n({n},{k},{m},{h}): {sp * k} parts, build {got['build_s']} s, "
          f"checks {got['check_s']} s, peak RSS {got['peak_rss_mib']} MiB")
    assert got["size"] == sp
    assert all(got["checks"].values()), got["checks"]


@pytest.mark.table1
@pytest.mark.parametrize("n,k,m,h,sp", ROWS, ids=[f"{r[0]}-{r[1]}" for r in ROWS])
def test_row_builds_and_verifies(n, k, m, h, sp):
    _build_and_check_apart(n, k, m, h, sp)


@pytest.mark.table1_full
@pytest.mark.parametrize("n,k,m,h,sp", FULL_ROWS, ids=[f"{r[0]}-{r[1]}" for r in FULL_ROWS])
def test_large_row_builds_and_verifies(n, k, m, h, sp):
    _build_and_check_apart(n, k, m, h, sp)


if __name__ == "__main__":
    print(json.dumps(build_and_check(*map(int, sys.argv[1:5]))))
