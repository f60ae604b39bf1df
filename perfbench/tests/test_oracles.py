"""Each oracle against the program on cases small enough to check both ways.

    python3 -m pytest perfbench/tests -q
"""

import math
import random
from fractions import Fraction

import pytest

import checks
import defects
import oracles
import worker
from sperner import ip
from sperner.baranyai import resolve
from sperner.bounds import refined_upper
from sperner.combinat import decompose, shadow_bound, shadow_cmp
from sperner.construction import (PartitionSystem, construct_grouped, construct_uniform,
                                  plan_grouped)
from sperner.verify import check_sperner


def _systems():
    yield construct_uniform(12, 4).partitions
    for n, k, m, h in ((8, 3, 2, 4), (16, 6, 2, 8), (36, 15, 4, 9), (24, 7, 3, 8)):
        yield construct_grouped(plan_grouped(n, k, m, h, "b"), seed=1).partitions


def _shuffle_point(partitions, rng):
    """Move one point of one partition into another of its parts."""
    parts = [list(p) for p in partitions]
    row = parts[rng.randrange(len(parts))]
    a, b = rng.sample(range(len(row)), 2)
    if len(row[a]) > 1:
        e = rng.choice(sorted(row[a]))
        row[a], row[b] = row[a] - {e}, row[b] | {e}
    return parts


def test_sperner_oracle_agrees_with_check_sperner():
    rng = random.Random(0)
    seen = {True: 0, False: 0}
    for base in _systems():
        n = max(max(p) for p in base[0]) + 1
        cases = [base]
        kinds = ["dup", "sub"] if len({len(b) for b in base[0]}) > 1 else ["dup"]
        for _ in range(6):
            cases.append(defects.plant(base, rng.choice(kinds), rng))
            cases.append(_shuffle_point(base, rng))
        for parts in cases:
            want = check_sperner(PartitionSystem(n, len(parts[0]), parts)).ok
            assert oracles.is_sperner(parts) == want
            seen[want] += 1
    assert seen[True] >= 5 and seen[False] >= 20


def test_planted_defects_keep_partitions_valid():
    base = construct_grouped(plan_grouped(36, 15, 4, 9, "b"), seed=0).partitions
    for seed in range(10):
        for defect in ("dup", "sub"):
            parts = defects.plant(base, defect, random.Random(seed))
            assert oracles.is_partition_system(36, 15, parts)
            assert oracles.size_profile_ok(36, 15, parts)
            assert not oracles.is_sperner(parts)


def test_text_formats_round_trip():
    parts = construct_grouped(plan_grouped(16, 6, 2, 8, "b"), seed=2).partitions
    canon = sorted(sorted(sorted(b) for b in p) for p in parts)
    for fmt, parse in ((oracles.format_sps, oracles.parse_sps),
                       (oracles.format_da, oracles.parse_da)):
        n, k, back = parse(fmt(16, 6, parts))
        assert (n, k) == (16, 6)
        assert sorted(sorted(sorted(b) for b in p) for p in back) == canon


def test_resolution_oracle():
    for m, c in ((6, 2), (8, 4), (9, 3), (12, 3)):
        classes = [[frozenset(e - 1 for e in b) for b in cls] for cls in resolve(m, c).classes]
        assert oracles.is_resolution(m, c, classes)
        broken = [list(cls) for cls in classes]
        broken[-1] = broken[0]
        assert not oracles.is_resolution(m, c, broken)
    assert oracles.is_resolution(16, 4, construct_uniform(16, 4).partitions)


def test_closed_form_comparator_agrees_with_shadow_cmp():
    rng = random.Random(1)
    for _ in range(400):
        c = rng.randint(2, 8)
        x = rng.randint(0, 3000)
        near = shadow_bound(c, x)
        y = Fraction(near).limit_denominator(1000) + Fraction(rng.randint(-40, 40), 97)
        if y <= 0:
            continue
        assert oracles.shadow_le(c, x, y) == shadow_cmp(c, x, y), (c, x, y)


def test_refined_threshold_agrees_with_refined_upper():
    for n in range(14, 41, 3):
        for k in range(4, n // 2):
            assert oracles.refined_threshold(n, k) == refined_upper(decompose(n, k))


def test_mms_and_case_b_size():
    for n, k in ((36, 15), (99, 30), (230, 95)):
        from sperner.combinat import mms
        assert oracles.mms(n, k) == mms(decompose(n, k))
    for n, k, m, h in ((36, 15, 4, 9), (99, 30, 9, 11), (336, 160, 28, 12)):
        assert oracles.grouped_size_case_b(n, k, m, h) == plan_grouped(n, k, m, h, "b").size


@pytest.mark.parametrize("n,k,variant", [(22, 3, "secA"), (202, 3, "secA"), (40, 3, "secA"),
                                         (26, 3, "secB"), (302, 3, "secB"), (504, 5, "secB"),
                                         (24, 5, "secB")])
def test_ip_parameters_and_dump_evaluator(n, k, variant):
    inst = ip.build_instance(n, k, variant)
    par = oracles.ip_params(n, k, variant)
    assert (par.d, par.u, par.q, par.cap_diag) == (inst.d, inst.u, inst.q, inst.cap_diag)
    assert (par.cap_off, par.cap_row) == (inst.cap_off, inst.cap_row)
    assert tuple(par.index_set()) == inst.phi
    if inst.trivial:
        return
    sol = (ip.greedy_solve(inst) if variant == "secA"
           else ip.closed_form_solve(inst).solution or ip.exact_solve(inst)[0])
    problems, objective = oracles.evaluate_ip_dump(inst.to_text(sol))
    assert problems == [] and objective == sol.objective
    (i, j), v = next(iter(sol.x.items()))
    bad = dict(sol.x)
    bad[(i, j)] = v + (inst.cap_diag if i == j else inst.cap_off[j - i]) + 1
    problems, _ = oracles.evaluate_ip_dump(inst.to_text(ip.IpSolution(inst, bad)))
    assert problems


@pytest.mark.parametrize("n,k,variant", [(202, 3, "secA"), (304, 3, "secA"),
                                         (26, 3, "secB"), (302, 3, "secB")])
def test_highs_agrees_with_exact_lp(n, k, variant):
    value, _ = ip.lp_relax(ip.build_instance(n, k, variant))
    par = oracles.ip_params(n, k, variant)
    assert oracles.lp_agrees(value, par)
    assert not oracles.lp_agrees(value * (1 + Fraction(1, 10 ** 6)), par)


def test_certificate_oracle():
    inst = ip.build_instance(16, 5, "secA")
    sol, _ = ip.exact_solve(inst)
    par = oracles.ip_params(16, 5, "secA")
    cert = worker.certificate_data(ip.certificate(inst, sol))
    assert cert["p"] == sol.objective
    assert oracles.certificate_problems(cert, par) == []
    parts, count = cert["profiles"][0]
    cert["profiles"][0] = [parts, count + math.comb(8, 4) ** 2]
    cert["p"] += math.comb(8, 4) ** 2
    assert oracles.certificate_problems(cert, par)


def test_table1_sizes_pass_the_oracle_threshold():
    for (n, k, m, h), sp in checks.table1_sizes().items():
        assert oracles.refined_threshold(n, k) == sp
