"""Seeded planted defects and format conversions for the `verify` inputs.

Only files reach the program: the copies are written here from the
systems `construct` wrote, and the expected verdict of each copy comes from
the oracle, not from the program.
"""

from __future__ import annotations

import random

import oracles


def plant(partitions, defect: str, rng: random.Random):
    """A copy of the system with one defect; every partition stays valid.

    "dup" overwrites one partition with a copy of another.  "sub" rewrites
    a c-part of one partition, by swapping points between its parts, into
    a c-subset of a (c+1)-part of another partition.
    """
    parts = [list(p) for p in partitions]
    if defect == "dup":
        i, j = rng.sample(range(len(parts)), 2)
        parts[j] = list(parts[i])
        return parts
    if defect != "sub":
        raise ValueError(f"unknown defect {defect!r}")
    top = max(len(b) for p in parts for b in p)
    bigs = [(i, b) for i, p in enumerate(parts) for b in p if len(b) == top]
    i, big = rng.choice(bigs)
    j = rng.choice([x for x in range(len(parts)) if x != i])
    row = parts[j]
    a = rng.choice([x for x, b in enumerate(row) if len(b) == top - 1])
    target = frozenset(rng.sample(sorted(big), top - 1))
    cur = set(row[a])
    for inc, out in zip(sorted(target - cur), sorted(cur - target)):
        holder = next(x for x, b in enumerate(row) if inc in b)
        row[holder] = (row[holder] - {inc}) | {out}
        cur = (cur - {out}) | {inc}
    row[a] = frozenset(cur)
    return parts


def write_derived(workdir, derived: dict, seed: int) -> None:
    """Write every derived file whose source system exists in workdir."""
    for name, (source, defect, fmt) in sorted(derived.items()):
        src = workdir / source
        if not src.exists():
            continue
        n, k, partitions = oracles.parse_sps(src.read_text())
        if defect is not None:
            partitions = plant(partitions, defect,
                               random.Random(f"perfbench:{seed}:{name}"))
        text = (oracles.format_sps if fmt == "sps" else oracles.format_da)(n, k, partitions)
        (workdir / name).write_text(text)
