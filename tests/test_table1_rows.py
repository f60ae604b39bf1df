"""Opt-in: build and exactly verify every Table-1 row of at most 200k parts.

These 26 rows hold 1.85M parts together.  The run is outside the default
suite; select it with

    PYTHONPATH=src python -m pytest -m table1 tests/test_table1_rows.py -s

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
        rows = [tuple(int(row[f]) for f in ("n", "k", "m", "h", "sp"))
                for row in csv.DictReader(fh)]
    return [row for row in rows if row[4] * row[1] <= PART_LIMIT]


ROWS = _rows()


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


@pytest.mark.table1
@pytest.mark.parametrize("n,k,m,h,sp", ROWS, ids=[f"{r[0]}-{r[1]}" for r in ROWS])
def test_row_builds_and_verifies(n, k, m, h, sp):
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


if __name__ == "__main__":
    print(json.dumps(build_and_check(*map(int, sys.argv[1:5]))))
