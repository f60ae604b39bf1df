"""Acceptance suite: one criterion per test, one pass line per criterion.

Every expected value here is either computed by an independent route
inside the test or pinned after hand verification; tolerances are stated
inline and nothing is recalibrated at runtime.
"""

import time
from fractions import Fraction

from sperner.bounds import refined_upper, scan_exact, scan_small_r
from sperner.combinat import binom, decompose
from sperner.construction import construct_grouped, construct_uniform, plan_grouped
from sperner.ip import (IpSolution, asymptotic_report, build_instance,
                        closed_form_solve, exact_solve, greedy_gap_bound,
                        greedy_solve, lp_relax, realize_system)
from sperner.verify import (check_almost_uniform, check_certificate,
                            check_detecting, check_partition_system,
                            check_sperner, to_detecting_array)

# Exact-determination table: the 66 parameter sets with n <= 1000 where the
# case-(b) grouped construction meets the refined upper bound, with their
# witnesses.
EXACT_TABLE = [
    (36, 15, 4, 9, 54), (44, 18, 4, 11, 72), (56, 22, 4, 14, 117),
    (88, 33, 4, 22, 264), (128, 54, 8, 16, 210), (138, 54, 6, 23, 330),
    (144, 56, 6, 24, 360), (144, 60, 8, 18, 252), (150, 58, 6, 25, 390),
    (150, 65, 10, 15, 225), (160, 66, 8, 20, 294), (168, 77, 14, 12, 208),
    (230, 95, 10, 23, 432), (252, 111, 14, 18, 364), (288, 105, 6, 48, 1280),
    (288, 128, 16, 18, 405), (300, 120, 10, 30, 675), (306, 111, 6, 51, 1445),
    (318, 115, 6, 53, 1560), (324, 117, 6, 54, 1620), (330, 119, 6, 55, 1680),
    (336, 144, 14, 24, 546), (336, 160, 28, 12, 378), (342, 123, 6, 57, 1805),
    (360, 129, 6, 60, 2000), (360, 135, 8, 45, 1260), (368, 138, 8, 46, 1288),
    (378, 135, 6, 63, 2205), (420, 175, 14, 30, 780), (480, 176, 8, 60, 2100),
    (528, 192, 8, 66, 2541), (528, 220, 16, 33, 990), (546, 221, 14, 39, 1183),
    (560, 203, 8, 70, 2800), (560, 232, 16, 35, 1080), (564, 220, 12, 47, 1518),
    (576, 224, 12, 48, 1584), (588, 228, 12, 49, 1650), (600, 224, 10, 60, 2250),
    (600, 260, 20, 30, 950), (624, 304, 52, 12, 663), (640, 230, 8, 80, 3584),
    (672, 266, 14, 48, 1664), (672, 273, 16, 42, 1440), (680, 323, 40, 17, 780),
    (700, 275, 14, 50, 1820), (720, 290, 16, 45, 1620), (720, 330, 30, 24, 928),
    (750, 275, 10, 75, 3375), (756, 360, 42, 18, 861), (768, 352, 32, 24, 992),
    (770, 282, 10, 77, 3510), (800, 335, 20, 40, 1482), (812, 315, 14, 58, 2301),
    (816, 289, 8, 102, 5712), (840, 315, 12, 70, 3080), (840, 350, 20, 42, 1596),
    (840, 378, 30, 28, 1160), (852, 319, 12, 71, 3168), (864, 342, 16, 54, 2160),
    (880, 365, 20, 44, 1710), (936, 348, 12, 78, 3718), (938, 358, 14, 67, 3003),
    (944, 332, 8, 118, 7497), (960, 448, 40, 24, 1170), (994, 378, 14, 71, 3276),
]

SMALL_R_TABLE = [(3, 17, "2k+6"), (4, 35, "2k+9"), (5, 32, "2k+13"),
                 (6, 97, "2k+16"), (7, 71, "2k+20"), (8, 189, "2k+23"),
                 (9, 253, "2k+27"), (10, 311, "2k+30")]


def _report(num, desc):
    print(f"ACCEPTANCE {num}: PASS - {desc}")


def test_criterion_01_exact_value_table():
    t0 = time.time()
    rows = [(r.n, r.k, r.m, r.h, r.sp) for r in scan_exact(1000)]
    elapsed = time.time() - t0
    assert rows == EXACT_TABLE
    for (n, k, m, h, sp) in rows:
        plan = plan_grouped(n, k, m, h, "b")
        assert plan.size == sp == refined_upper(decompose(n, k))
    assert elapsed < 600, f"scan took {elapsed:.0f}s, budget is 10 minutes"
    _report(1, f"66-row exact-value table reproduced in {elapsed:.1f}s")


def test_criterion_02_small_r_table():
    rows = [(r.r, r.k_threshold, r.bound) for r in scan_small_r()]
    assert rows == SMALL_R_TABLE
    _report(2, "small-r thresholds and bounds match exactly")


def test_criterion_03_uniform_case():
    checked = 0
    for c in (2, 3, 4):
        for k in (3, 4, 5):
            n = c * k
            if n > 16:
                continue
            system = construct_uniform(n, k)
            assert system.size == binom(n - 1, c - 1)
            assert check_partition_system(system).ok
            assert check_sperner(system).ok
            checked += 1
    assert checked == 8
    _report(3, f"{checked} uniform systems at exactly binom(n-1,c-1), all verified")


def test_criterion_04_two_value_sandwich():
    for k in (4, 6, 8, 10):
        n = 3 * k - 2
        lo = binom(n // 2, 2)
        plan = plan_grouped(n, k, 2, n // 2, "b")
        assert plan.size == lo
        system = construct_grouped(plan, seed=0)
        assert system.size == lo
        assert check_partition_system(system).ok
        assert check_almost_uniform(system, decompose(n, k)).ok
        assert check_certificate(system).ok
        if k <= 6:
            assert check_sperner(system).ok
        assert refined_upper(decompose(n, k)) == lo + 1
    _report(4, "constructions hit binom(n/2,2) and the bound is one more, k in {4,6,8,10}")


def test_criterion_05_ip_pipeline_secA():
    inst = build_instance(22, 3, "secA")
    assert (inst.u, inst.q) == (0, 30822)
    greedy = greedy_solve(inst)
    assert greedy.objective == 30822
    exact, optimal = exact_solve(inst)
    assert optimal and exact.objective == 30822

    inst10 = build_instance(10, 3, "secA")
    sol10, optimal = exact_solve(inst10)
    assert optimal and sol10.objective == 10
    system = realize_system(inst10, sol10, seed=0)
    assert system.size == 10
    assert check_partition_system(system).ok
    assert check_sperner(system).ok
    _report(5, "secA pipeline: (22,3) solved to 30822, (10,3) realized and verified")


def test_criterion_06_ip_pipeline_secB():
    inst = build_instance(26, 3, "secB")
    assert (inst.u, inst.q) == (0, 511224)
    exact, optimal = exact_solve(inst)
    assert optimal and exact.objective == 511224
    closed = closed_form_solve(inst)
    assert not closed.feasible
    lp_value, _ = lp_relax(inst)
    assert lp_value == 511224
    _report(6, "secB pipeline: exact 511224, closed form rejected, LP exact")


def _secA_range(k, n_max):
    return [n for n in range(2 * k + 1, n_max + 1) if n % (2 * k) == k + 1]


def test_criterion_07_greedy_gap_bound():
    checked = exact_checked = 0
    for k in (3, 5, 7):
        for n in _secA_range(k, 600):
            inst = build_instance(n, k, "secA")
            sol = greedy_solve(inst)
            gap = greedy_gap_bound(inst)
            assert Fraction(sol.objective) >= Fraction(inst.q) - gap
            checked += 1
            if n <= 150:
                exact, optimal = exact_solve(inst)
                assert optimal
                assert Fraction(sol.objective) >= Fraction(exact.objective) - gap
                exact_checked += 1
    _report(7, f"greedy within the stated gap on {checked} instances "
               f"({exact_checked} also against exact optima)")


def test_criterion_08_lp_sandwich():
    cases = []
    for k in (3, 5, 7):
        cases += [(n, k, "secA") for n in _secA_range(k, 150)]
    cases += [(n, 3, "secB") for n in range(26, 151) if n % 6 == 2]
    cases += [(174, 5, "secB")]
    checked = 0
    for n, k, variant in cases:
        inst = build_instance(n, k, variant)
        if inst.trivial:
            continue
        exact, optimal = exact_solve(inst)
        assert optimal
        lp_value, lp_x = lp_relax(inst)
        two_phi = 2 * len(inst.phi)
        assert Fraction(exact.objective) <= lp_value <= exact.objective + two_phi
        floored = IpSolution(inst, {v: int(val) for v, val in lp_x.items() if int(val)})
        assert floored.feasible()
        checked += 1
    _report(8, f"exact <= lp <= exact + 2|Phi| with feasible floors on {checked} instances")


def test_criterion_09_lp_matches_q_desk_scale():
    checked = 0
    for n in range(26, 501):
        if n % 6 != 2:
            continue
        inst = build_instance(n, 3, "secB")
        lp_value, _ = lp_relax(inst)
        assert lp_value == inst.q, (n, lp_value, inst.q)
        checked += 1
    assert checked == 80
    _report(9, f"LP optimum equals Q exactly on all {checked} instances, n <= 500")


def test_criterion_10_asymptotic_surrogates():
    for n, k in ((8750, 3), (16004, 5)):
        rep = asymptotic_report(build_instance(n, k, "secB"))
        assert 0.97 <= rep.estar0_ratio <= 1.03, (n, k, rep.estar0_ratio)
        assert abs(rep.u_ratio - 1) <= 0.10, (n, k, rep.u_ratio)
        assert 0.9 <= rep.q_over_mms <= 1.0, (n, k, rep.q_over_mms)
    _report(10, "finite-n surrogates within stated tolerances at n=8750 (k=3), "
                "n=16004 (k=5)")


def test_criterion_11_verifier_soundness():
    dual_checked = []
    for (n, k, m, h) in [(8, 3, 2, 4), (10, 4, 2, 5), (16, 6, 2, 8),
                         (22, 8, 2, 11), (28, 10, 2, 14), (36, 15, 4, 9)]:
        dual_checked.append(construct_grouped(plan_grouped(n, k, m, h, "b"), seed=0))
    dual_checked.append(construct_grouped(plan_grouped(36, 11, 6, 6, "a"), seed=0))
    inst = build_instance(10, 3, "secA")
    dual_checked.append(realize_system(inst, exact_solve(inst)[0], seed=0))
    inst = build_instance(16, 5, "secA")
    dual_checked.append(realize_system(inst, exact_solve(inst)[0], seed=0))
    inst = build_instance(34, 5, "secB")
    dual_checked.append(realize_system(inst, IpSolution(inst, {(1, 1): 2, (2, 2): 1}),
                                       seed=0))
    for system in dual_checked:
        assert system.n <= 40
        assert check_certificate(system).ok
        assert check_sperner(system).ok

    small = [s for s in dual_checked if s.n <= 16]
    small.append(construct_uniform(6, 3))
    small.append(construct_uniform(12, 4))
    for system in small:
        sperner_ok = check_sperner(system).ok
        detecting_ok = check_detecting(to_detecting_array(system)).ok
        assert sperner_ok == detecting_ok == True
    from sperner.construction import PartitionSystem
    parts = [(0, 1), (2, 3)]
    planted = PartitionSystem(4, 2, [parts, list(parts)])
    assert not check_sperner(planted).ok
    assert not check_detecting(to_detecting_array(planted)).ok
    _report(11, f"certificate => brute force on {len(dual_checked)} systems; "
                f"detecting <=> subset-free on {len(small) + 1} systems")
