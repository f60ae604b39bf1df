import dataclasses
import heapq
import itertools
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from sperner import ip
from sperner.cli import main
from sperner.combinat import Params, binom, decompose, mms
from sperner.ip import (IpInstance, IpSolution, _build_lp, _floor_improve,
                        asymptotic_report, band_dual, build_instance,
                        certificate, closed_form_solve, exact_solve,
                        greedy_gap_bound, greedy_solve, lp_relax, lp_value,
                        realize_system, upper_bound, zero_solution)
from sperner.simplex import LinearProgram
from sperner.verify import (check_certificate, check_certificate_summary,
                            check_partition_system, check_sperner)


def solve(inst, solver):
    if solver == "exact":
        return exact_solve(inst)[0]
    if solver == "greedy":
        return greedy_solve(inst)
    return closed_form_solve(inst).solution


def small_solutions(parts=3000, n_max=60):
    """(n, k, variant, solver) for every solution with at most `parts` parts."""
    cases = []
    for k in (3, 5):
        for variant, other in (("secA", "greedy"), ("secB", "closed")):
            for n in range(2 * k + 1, n_max):
                try:
                    inst = build_instance(n, k, variant)
                except ValueError:
                    continue
                for solver in ("exact", other):
                    sol = solve(inst, solver)
                    if sol is not None and sol.objective * k <= parts:
                        cases.append((n, k, variant, solver))
    return cases


SMALL_SOLUTIONS = small_solutions()


def family_sizes_by_enumeration(n, c):
    """Oracle: count c-sets and (c+1)-sets of a split n-set by first-half size."""
    half = n // 2
    e = {}
    estar = {}
    for size, out in ((c, e), (c + 1, estar)):
        for t in range(size + 1):
            count = 0
            for a in itertools.combinations(range(half), t):
                count += binom(half, size - t)
            out[t] = count
    return e, estar


def families(inst):
    """((E_0, ..., E_{c//2}), (E*_0, ..., E*_{(c+1)//2})): the c-sets and
    the (c+1)-sets l levels off the balanced split, every level read."""
    return tuple(tuple(levels.values()) for levels in ip._families(inst.n // 2, inst.params.c))


def read_slacks(sol):
    """`IpSolution.sparse_slacks` with rows read over u + 1, ..., d: (band,
    row), row[l] for R_l and 0 for l <= u."""
    inst = sol.instance
    band, row = sol.sparse_slacks()
    return band, [0] * (inst.u + 1) + [row[ell] for ell in range(inst.u + 1, inst.d + 1)]


@dataclasses.dataclass
class Reference:
    """Every field of an instance, computed up front: the header, both
    family tuples and every cap."""
    variant: str
    params: Params
    d: int
    u: int
    q: int
    e: tuple
    estar: tuple
    cap_diag: int
    cap_off: dict
    cap_row: dict

    @classmethod
    def of(cls, inst):
        """A built instance's fields, its families and rows read in full;
        e_0 and e*_0 of its header are the families' first terms."""
        e, estar = families(inst)
        assert (inst.e0, inst.estar0) == (e[0], estar[0])
        return cls(inst.variant, inst.params, inst.d, inst.u, inst.q, e, estar,
                   inst.cap_diag, dict(inst.cap_off), dict(inst.cap_row))

    def instance(self) -> IpInstance:
        """The same program as an instance with explicit caps."""
        return IpInstance(self.variant, self.params, self.d, self.u, self.q, self.e[0],
                          self.estar[0], self.cap_diag, self.cap_off, self.cap_row)


def oracle_instance(n, k, variant):
    """The instance from the defining formulas: one math.comb per binomial,
    and u found by summing the families afresh for every candidate x."""
    params = decompose(n, k)
    half = n // 2
    if variant == "secA":
        d = (n - k - 1) // (2 * k)
        e = tuple(binom(half, d - ell) * binom(half, d + 1 + ell)
                  for ell in range(d + 1))
        estar = tuple(binom(half, d + 1 - ell) * binom(half, d + 1 + ell)
                      for ell in range(d + 2))

        def a(x):
            return 2 * sum(e[x + 1:])

        def b(x):
            return estar[0] + sum(estar[1:x + 1])

        u = next(x for x in range(d + 1) if a(x) <= (k - 1) * b(x))
        q = 2 * (a(u) // (2 * (k - 1)))
        # q/2 spent on the diagonal (in pairs of (c+1)-sets) and then on the
        # bands, each band taking what the diagonal and the full bands
        # before it leave, up to its family size
        diag = min(q // 2, estar[0] // 2)
        off = {ell: max(0, min(estar[ell], q // 2 - estar[0] // 2 - sum(estar[1:ell])))
               for ell in range(1, u + 1)}
        return Reference("secA", params, d, u, q, e, estar, diag, off,
                         {ell: e[ell] for ell in range(u + 1, d + 1)})
    d = (n + 1 - k) // (2 * k)
    e = tuple(binom(half, d - ell) * binom(half, d + ell) for ell in range(d + 1))
    estar = tuple(binom(half, d - ell) * binom(half, d + 1 + ell)
                  for ell in range(d + 1))

    def a(x):
        return 0 if x < 0 else e[0] + 2 * sum(e[1:x + 1])

    def b(x):
        return binom(n, 2 * d + 1) if x < 0 else 2 * sum(estar[x + 1:])

    u = max(x for x in range(-1, d) if (k - 1) * a(x) <= b(x))
    q = a(u) - (a(u) & 1)
    return Reference("secB", params, d, u, q, e, estar, e[0] // 2,
                     {ell: e[ell] for ell in range(1, u + 1)},
                     {ell: estar[ell] for ell in range(u + 1, d + 1)})


def reference_instance(n: int, k: int, variant: str) -> Reference:
    """The O(d) builder that `build_instance` replaced, kept as its
    reference: the whole binomial row, both family tuples and full sums."""
    if variant not in ip.VARIANTS:
        raise ValueError(f"variant must be one of {ip.VARIANTS}, got {variant!r}")
    if k < 3 or k % 2 == 0:
        raise ValueError(f"need odd k >= 3, got {k}")
    if n <= 2 * k:
        raise ValueError(f"need n > 2k, got n={n}, k={k}")
    params = decompose(n, k)
    if n % (2 * k) != (k + 1 if variant == "secA" else k - 1):
        sign = "+" if variant == "secA" else "-"
        raise ValueError(f"variant {variant} needs n = k{sign}1 (mod 2k), got n={n}, k={k}")
    # c = 2d + 1 (secA) or 2d (secB); E_l and E*_l are the c-sets and
    # (c+1)-sets l levels off the balanced split of the two halves
    c = params.c
    d = c // 2
    row = _binom_row(n // 2, c + 1)

    def levels(s):
        return tuple(row[s // 2 - ell] * row[s - s // 2 + ell] for ell in range(s // 2 + 1))
    e, estar = levels(c), levels(c + 1)
    if variant == "secA":
        # a(x) = 2 (e_{x+1} + ... + e_d) falls and b(x) = estar_0 + ... +
        # estar_x grows; u is the first x with a(x) <= (k-1) b(x), at most
        # d - 1: h = n/2 >= 3d + 2 gives 3 e_d <= binom(2d+1, d+1) e_d =
        # binom(h, d+1) binom(h-d-1, d) <= estar_0, so a(d-1) = 2 e_d < b(d-1).
        a = 2 * sum(e[1:])
        b = estar[0]
        u = 0
        while a > (k - 1) * b:
            u += 1
            a -= 2 * e[u]
            b += estar[u]
        q = 2 * (a // (2 * (k - 1)))
        # spend q/2 on the diagonal, then band by band, each up to its
        # (c+1)-family size: all of it, as the stop test makes
        # q/2 <= b(u) // 2 <= estar_0 // 2 + estar_1 + ... + estar_u
        rest = q // 2
        cap_diag = min(rest, estar[0] // 2)
        rest -= cap_diag
        cap_off = {}
        for ell in range(1, u + 1):
            cap_off[ell] = min(rest, estar[ell])
            rest -= cap_off[ell]
        cap_row = {ell: e[ell] for ell in range(u + 1, d + 1)}
    else:
        # a(x) = e_0 + 2 (e_1 + ... + e_x) grows and b(x) = 2 (estar_{x+1} +
        # ... + estar_d) falls; u is the last x < d with (k-1) a(x) <= b(x),
        # or -1, where a(-1) = 0; x < d needs no test, as b(d) = 0 < a(d).  With
        # C(n, j) the binomial, n - c = (c+1)(k-1) makes (k-1) C(n, c) =
        # C(n, c+1) and mms = C(n, c) / 2 identities, so neither is checked.
        u, au = -1, 0
        a, b = e[0], 2 * sum(estar[1:])
        while (k - 1) * a <= b:
            u, au = u + 1, a
            a += 2 * e[u + 1]
            b -= 2 * estar[u + 1]
        q = au - (au & 1)
        cap_diag = e[0] // 2
        cap_off = {ell: e[ell] for ell in range(1, u + 1)}
        cap_row = {ell: estar[ell] for ell in range(u + 1, d + 1)}
    assert q <= mms(params)
    return Reference(variant, params, d, u, q, e, estar, cap_diag, cap_off, cap_row)


def _binom_row(h: int, top: int) -> list:
    """[binom(h, 0), ..., binom(h, top)] by the exact recurrence
    binom(h, j+1) = binom(h, j) (h - j) / (j + 1)."""
    row = [1]
    for j in range(top):
        row.append(row[-1] * (h - j) // (j + 1))
    return row


class TestInstances:
    @pytest.mark.parametrize("k", (3, 5, 7))
    @pytest.mark.parametrize("variant", ("secA", "secB"))
    def test_matches_defining_formulas(self, k, variant):
        rem = (k + 1) % (2 * k) if variant == "secA" else (k - 1) % (2 * k)
        ns = [n for n in range(2 * k + 1, 401) if n % (2 * k) == rem]
        assert len(ns) >= 27
        for n in ns:
            inst = build_instance(n, k, variant)
            assert Reference.of(inst) == oracle_instance(n, k, variant), (n, k, variant)
            d, u = inst.d, inst.u
            assert inst.phi == tuple((i, j) for i in range(d + 1) for j in range(d + 1)
                                     if u < i <= j <= d and j - i <= u)

    def test_trivial_exactly_when_phi_is_empty(self):
        # u < d in both variants, so Phi is empty exactly when u = -1
        count = 0
        for k in range(3, 12, 2):
            for variant, rem in (("secA", k + 1), ("secB", k - 1)):
                for n in range(2 * k + rem, 2001, 2 * k):
                    inst = build_instance(n, k, variant)
                    assert inst.trivial == (not inst.phi), (n, k, variant)
                    # the secA u-search starts at 0, so only secB can be trivial
                    assert not (variant == "secA" and inst.trivial), (n, k)
                    count += 1
        assert count == 1747

    def test_asym_never_builds_phi(self, monkeypatch, tmp_path):
        def no_phi(u, d):
            raise AssertionError("Phi built")
        monkeypatch.setattr(ip, "_phi", no_phi)
        for variant, n_max in (("secA", 300), ("secB", 800)):
            assert main(["asym", "--k", "3", "--variant", variant, "--n-max", str(n_max),
                         "--out", str(tmp_path / "asym.csv")]) == 0

    def test_ip_header_and_dumps_never_build_phi(self, monkeypatch, tmp_path, capsys):
        # |Phi| is counted in closed form and a dump lists x itself; only
        # the LP builds Phi, and none of these runs reaches it
        runs = [("16", "5", "secA", "greedy"), ("406", "3", "secA", "exact"),
                ("302", "3", "secB", "exact"), ("774", "5", "secB", "closed")]
        expect = []
        for n, k, variant, solver in runs:
            inst = build_instance(int(n), int(k), variant)
            expect.append((f"|Phi|={len(inst.phi)}\n", inst.to_text(solve(inst, solver))))
        monkeypatch.setattr(ip, "_phi", lambda u, d: pytest.fail("Phi built"))
        for (n, k, variant, solver), (header, dump) in zip(runs, expect):
            out = tmp_path / "ip.dump"
            assert main(["ip", "--n", n, "--k", k, "--variant", variant,
                         "--solver", solver, "--dump", str(out)]) == 0
            assert header in capsys.readouterr().out
            assert out.read_text() == dump

    def test_phi_size_in_closed_form(self):
        for u in range(-1, 9):
            for d in range(u + 1, 3 * u + 12):
                assert ip.phi_size(u, d) == len(ip._phi(u, d)), (u, d)
        for inst in nontrivial_instances((3, 5, 7, 9, 11), 1200):
            assert ip.phi_size(inst.u, inst.d) == len(inst.phi), (inst.n, inst.k)

    @pytest.mark.parametrize("case", ((22, 3, "secA"), (302, 3, "secB"), (1112, 11, "secA"),
                                      (24, 5, "secB"), (30002, 3, "secB")))
    def test_one_binomial_of_n(self, monkeypatch, case):
        # the u-search and mms_value share the one binom(n, c)
        n, k, variant = case
        calls = []
        comb = math.comb

        def counted(a, b):
            calls.append((a, b))
            return comb(a, b)

        monkeypatch.setattr(math, "comb", counted)
        inst = build_instance(n, k, variant)
        c = inst.params.c
        assert [call for call in calls if call[0] == n] == [(n, c)]
        monkeypatch.setattr(math, "comb", comb)
        assert inst.mms_value == mms(inst.params) == mms(decompose(n, k))

    def test_matches_the_reference_to_3000(self):
        # on every instance with k <= 11 and n <= 3000, against the O(d)
        # reference: lp_value's (value, proof), on rows not yet read in full
        # (secA's greedy, which reads them all, computed once for both
        # sides); exact_solve's optimum, feasible for the reference's caps
        # and meeting its bound by the same proof, where no simplex runs;
        # then the header, the families and every cap
        fallbacks = [(1310, 3, "secB"), (1802, 3, "secB"), (1808, 3, "secB")]
        count = 0
        for k in range(3, 12, 2):
            for variant, rem in (("secA", k + 1), ("secB", k - 1)):
                for n in range(2 * k + rem, 3001, 2 * k):
                    inst, ref = build_instance(n, k, variant), reference_instance(n, k, variant)
                    explicit = ref.instance()
                    if not inst.trivial:
                        greedy = greedy_solve(inst) if variant == "secA" else None
                        assert lp_value(inst, greedy) == lp_value(explicit, greedy), (n, k)
                    if (n, k, variant) not in fallbacks:
                        sol, proof = exact_solve(inst)
                        assert IpSolution(explicit, sol.x).feasible(), (n, k, variant)
                        assert upper_bound(explicit) == (sol.objective, proof), (n, k, variant)
                    assert Reference.of(inst) == ref, (n, k, variant)
                    count += 1
        assert count == 2624

    def test_secB_rows_read_on_demand(self, monkeypatch, tmp_path):
        # asym's secB column and lp_value read the rows their primals meet
        # and walk, never every row: the levels are never iterated, which
        # is the one way to read them all at once
        def every_row(*args):
            raise AssertionError("every row read")
        monkeypatch.setattr(ip._Levels, "__iter__", every_row)
        assert main(["asym", "--k", "3", "--variant", "secB", "--n-max", "800",
                     "--out", str(tmp_path / "asym.csv")]) == 0
        proved = 0
        for k in (3, 5, 7):
            for n in range(3 * k - 1, 1501, 2 * k):
                inst = build_instance(n, k, "secB")
                if not inst.trivial and (n, k) != (1310, 3):    # the simplex's one row
                    assert lp_value(inst)[1] != "simplex"
                    proved += 1
        assert proved == 496

    def test_32000_3_secB(self):
        # d = 5,333: the O(d) reference takes about a second, the header
        # and the lp proof a few hundredths of one
        inst, ref = build_instance(32000, 3, "secB"), reference_instance(32000, 3, "secB")
        assert (inst.d, inst.u) == (ref.d, ref.u) == (5333, 27)
        assert (inst.q, inst.cap_diag, inst.cap_off) == (ref.q, ref.cap_diag, ref.cap_off)
        assert lp_value(inst) == lp_value(ref.instance()) == (ref.q, "fill band desc, i asc")

    def test_secA_22_3(self):
        inst = build_instance(22, 3, "secA")
        assert inst.d == 3
        assert families(inst) == ((54450, 25410, 5082, 330), (108900, 76230, 25410, 3630, 165))
        assert inst.u == 0
        assert inst.q == 30822
        assert inst.cap_off == {}
        assert inst.phi == ((1, 1), (2, 2), (3, 3))
        assert inst.cap_diag == 15411
        assert inst.cap_row == {1: 25410, 2: 5082, 3: 330}

    def test_secA_10_3(self):
        inst = build_instance(10, 3, "secA")
        assert inst.d == 1
        e, estar = families(inst)
        assert (e, estar) == ((50, 10), (100, 50, 5))
        assert inst.u == 0 and inst.q == 10
        assert inst.phi == ((1, 1),)
        # family sizes against the enumeration oracle
        e_cnt, estar_cnt = family_sizes_by_enumeration(10, 3)
        assert e_cnt[inst.d - 0] == e[0]
        assert e_cnt[inst.d - 1] == e_cnt[inst.d + 2] == e[1]
        assert estar_cnt[inst.d + 1] == estar[0]
        assert estar_cnt[inst.d] == estar_cnt[inst.d + 2] == estar[1]

    def test_secA_16_3_shape(self):
        inst = build_instance(16, 3, "secA")
        assert inst.d == 2
        assert inst.u == 0
        e, estar = families(inst)
        a0 = 2 * sum(e[1:])
        assert a0 <= 2 * estar[0]

    def test_secB_26_3(self):
        inst = build_instance(26, 3, "secB")
        assert inst.d == 4
        assert families(inst) == ((511225, 368082, 133848, 22308, 1287),
                                  (920205, 490776, 133848, 16731, 715))
        assert inst.u == 0 and inst.q == 511224
        assert inst.phi == ((1, 1), (2, 2), (3, 3), (4, 4))

    def test_secB_trivial(self):
        inst = build_instance(24, 5, "secB")
        assert inst.u == -1 and inst.trivial and inst.q == 0
        inst = build_instance(14, 3, "secB")
        assert inst.u == -1 and inst.trivial

    def test_congruence_validation(self):
        with pytest.raises(ValueError):
            build_instance(24, 3, "secA")
        with pytest.raises(ValueError):
            build_instance(22, 3, "secB")
        with pytest.raises(ValueError):
            build_instance(22, 4, "secA")
        with pytest.raises(ValueError):
            build_instance(6, 3, "secA")
        with pytest.raises(ValueError, match="variant must be one of"):
            build_instance(22, 3, "secC")

    def test_one_family_rule_matches_the_index_formulas(self):
        # levels(s)_l = binom(h, s//2 - l) binom(h, s - s//2 + l) for s = c,
        # c + 1 against each variant's own index formulas, on every instance
        # with k <= 13 and n <= 1000; on secA, the two facts `build_instance`
        # proves instead of checking: u <= d - 1, and the caps spend q/2
        count = 0
        for k in range(3, 14, 2):
            for variant, rem in (("secA", k + 1), ("secB", k - 1)):
                for n in range(2 * k + rem, 1001, 2 * k):
                    inst = build_instance(n, k, variant)
                    d = inst.d
                    b = [math.comb(n // 2, j) for j in range(2 * d + 3)]
                    if variant == "secA":
                        e = [b[d - ell] * b[d + 1 + ell] for ell in range(d + 1)]
                        estar = [b[d + 1 - ell] * b[d + 1 + ell] for ell in range(d + 2)]
                        assert inst.u <= d - 1, (n, k)
                        assert inst.cap_diag + sum(inst.cap_off.values()) == inst.q // 2, (n, k)
                    else:
                        e = [b[d - ell] * b[d + ell] for ell in range(d + 1)]
                        estar = [b[d - ell] * b[d + 1 + ell] for ell in range(d + 1)]
                    assert families(inst) == (tuple(e), tuple(estar)), (n, k, variant)
                    count += 1
        assert count == 945

    def test_secB_identities_sweep(self):
        # n - c = (c+1)(k-1) makes (k-1) binom(n, c) = binom(n, c+1) and
        # mms = binom(n, c) / 2, so `build_instance` checks neither; the band
        # dual is q on every nontrivial instance, and 2u + 1 <= d puts every
        # index of the closed form in Phi, so it can break only rows
        count = 0
        for k in range(3, 12, 2):
            for n in range(3 * k - 1, 3001, 2 * k):
                inst = build_instance(n, k, "secB")
                c = inst.params.c
                assert (k - 1) * binom(n, c) == binom(n, c + 1), (n, k)
                assert inst.mms_value == Fraction(binom(n, c), 2), (n, k)
                assert inst.q <= inst.mms_value, (n, k)
                assert inst.trivial or band_dual(inst) == inst.q, (n, k)
                assert 2 * inst.u + 1 <= inst.d, (n, k)
                res = closed_form_solve(inst)
                assert all(name.startswith("R_") for name in res.violations), (n, k)
                assert res.feasible == (not res.violations), (n, k)
                count += 1
        assert count == 1312

    def test_eta_identity_sweep(self):
        for n in range(10, 301):
            if n % 6 == 4:
                inst = build_instance(n, 3, "secA")
                assert inst.cap_diag + sum(inst.cap_off.values()) == inst.q // 2
                if inst.cap_diag < families(inst)[1][0] // 2:
                    assert not any(inst.cap_off.values())

    def test_q_le_mms_both_variants(self):
        for n, k, variant in [(22, 3, "secA"), (26, 3, "secB"), (36, 5, "secA"),
                              (34, 5, "secB"), (100, 9, "secA")]:
            inst = build_instance(n, k, variant)
            assert Fraction(inst.q) <= mms(inst.params)

    def test_q_even(self):
        for n, k, variant in [(22, 3, "secA"), (26, 3, "secB"), (16, 5, "secA"),
                              (34, 5, "secB"), (44, 3, "secB")]:
            assert build_instance(n, k, variant).q % 2 == 0

    def test_dump_format(self):
        inst = build_instance(10, 3, "secA")
        sol, _ = exact_solve(inst)
        text = inst.to_text(sol)
        lines = text.splitlines()
        assert lines[0] == "IP secA 10 3 1 0 10"
        assert lines[1] == "cap D 5"
        assert "cap R 1 10" in lines
        assert "x 1 1 5" in lines


# The dict-based checks and the sorted fill orders that the flat slack
# lists replaced, kept as oracles.

def oracle_slacks(sol):
    inst = sol.instance
    out = {("D",): inst.cap_diag}
    out.update((("O", ell), cap) for ell, cap in inst.cap_off.items())
    out.update((("R", ell), cap) for ell, cap in inst.cap_row.items())
    for (i, j), v in sol.x.items():
        band = ("D",) if i == j else ("O", j - i)
        for key in (band, ("R", i), ("R", j)):
            if key in out:
                out[key] -= v
    return out


def oracle_slack_lists(inst, x):
    """The oracle's slacks laid out as `read_slacks` lays them out."""
    slack = oracle_slacks(IpSolution(inst, x))
    return ([slack[("D",)]] + [slack[("O", ell)] for ell in range(1, inst.u + 1)],
            [0] * (inst.u + 1) + [slack[("R", ell)] for ell in range(inst.u + 1, inst.d + 1)])


def oracle_feasible(sol):
    if any(v < 0 for v in sol.x.values()):
        return False
    phi = set(sol.instance.phi)
    if any(v not in phi for v in sol.x):
        return False
    return all(s >= 0 for s in oracle_slacks(sol).values())


def oracle_floor_improve(inst, base, order):
    x = {v: int(val) for v, val in base.items() if int(val)}
    sol = IpSolution(inst, x)
    slack = oracle_slacks(sol)
    for (i, j) in order:
        gains = [slack[("O", j - i)] if i != j else slack[("D",)]]
        if i == j:
            gains.append(slack[("R", i)] // 2)
        else:
            gains.append(slack[("R", i)])
            gains.append(slack[("R", j)])
        inc = min(gains)
        if inc > 0:
            x[(i, j)] = x.get((i, j), 0) + inc
            if i == j:
                slack[("D",)] -= inc
                slack[("R", i)] -= 2 * inc
            else:
                slack[("O", j - i)] -= inc
                slack[("R", i)] -= inc
                slack[("R", j)] -= inc
    out = IpSolution(inst, x)
    assert oracle_feasible(out)
    return out


ORACLE_FILL_ORDERS = {
    "band desc, i asc": lambda phi: sorted(phi, key=lambda v: (v[0] - v[1], v[0])),
    "band desc, i desc": lambda phi: sorted(phi, key=lambda v: (v[0] - v[1], -v[0])),
}


class TestSolutionChecks:
    def test_slacks_match_constraint_sums(self):
        rng = random.Random(5)
        for n, k, variant in ((76, 3, "secA"), (202, 3, "secA"), (302, 3, "secB")):
            inst = build_instance(n, k, variant)
            keys = list(inst.phi) + [(inst.u, inst.u), (inst.d + 1, inst.d + 2)]
            for _ in range(20):
                x = {v: rng.randint(0, 3) for v in rng.sample(keys, 6)}
                band = [inst.cap_diag - sum(v for (i, j), v in x.items() if i == j)]
                for ell in range(1, inst.u + 1):
                    band.append(inst.cap_off[ell] - sum(v for (i, j), v in x.items()
                                                        if j - i == ell))
                row = [0] * (inst.u + 1)
                for ell in range(inst.u + 1, inst.d + 1):
                    row.append(inst.cap_row[ell] - sum(v * ((i == ell) + (j == ell))
                                                       for (i, j), v in x.items()))
                assert read_slacks(IpSolution(inst, x)) == (band, row)
                assert read_slacks(IpSolution(inst, x)) == oracle_slack_lists(inst, x)

    def test_variable_outside_phi_rejected(self):
        inst = build_instance(302, 3, "secB")
        assert inst.u == 2
        assert IpSolution(inst, {inst.phi[-1]: 1}).feasible()
        for outside in ((inst.d + 1, inst.d + 1), (inst.u, inst.u),
                        (inst.d, inst.d - 1), (inst.u + 1, inst.d)):
            assert outside not in inst.phi
            assert not IpSolution(inst, {outside: 1}).feasible()
            assert not IpSolution(inst, {inst.phi[-1]: 1, outside: 0}).feasible()


def oracle_greedy_solve(inst: IpInstance) -> IpSolution:
    """The oracle of `greedy_solve`, with its improvement tail written out
    as unit loops: slack-consuming, for variant secA, with batched steps.

    Each step picks the deepest off-diagonal budget y still worth y, the
    furthest row z with enough slack, and increments an anti-diagonal run
    of y variables; with y = 0 it grows the diagonal instead.  Steps are
    applied in the largest batch that leaves every intermediate unit step
    valid, so the trace matches the unit process exactly.
    """
    if inst.variant != "secA":
        raise ValueError("greedy_solve applies to variant secA")
    u, d, k = inst.u, inst.d, inst.k
    x: dict = defaultdict(int)
    beta = {0: inst.cap_diag}
    for ell in range(1, u + 1):
        beta[ell] = inst.cap_off[ell]
    alpha = {ell: inst.cap_row[ell] for ell in range(u + 1, d + 1)}
    if inst.trivial:
        return zero_solution(inst)
    while True:
        y = next((ell for ell in range(u, 0, -1) if beta[ell] >= ell), None)
        if y is None:
            if beta[0] * (k - 1) >= d - u + 1:
                y = 0
            else:
                break
        delta_req = 1 if y >= 1 else 2
        z = next((ell for ell in range(d, u, -1) if alpha[ell] >= delta_req), None)
        if z is None:
            raise AssertionError("no row with enough slack; greedy invariant broken")
        if z < u + 2 * y:
            raise AssertionError(f"z = {z} < u + 2y = {u + 2 * y}; greedy invariant broken")
        if y >= 1:
            window = range(z - 2 * y + 1, z + 1)
            if any(alpha[ell] < 1 for ell in window):
                raise AssertionError("slack run below 1; greedy invariant broken")
            step = min(beta[y] // y, min(alpha[ell] for ell in window))
            for i in range(y):
                x[(z - y - i, z - i)] += step
            beta[y] -= step * y
            for ell in window:
                alpha[ell] -= step
        else:
            by_beta = beta[0] - (-(-(d - u + 1) // (k - 1))) + 1
            step = min(by_beta, alpha[z] // 2)
            x[(z, z)] += step
            beta[0] -= step
            alpha[z] -= 2 * step
    # The termination threshold above is what makes the existence of z
    # provable, not what exhausts the budgets; keep improving while any
    # single move stays feasible.
    for y in range(u, 0, -1):
        for z in range(d, u + y, -1):
            while beta[y] >= 1 and alpha[z] >= 1 and alpha[z - y] >= 1:
                x[(z - y, z)] += 1
                beta[y] -= 1
                alpha[z] -= 1
                alpha[z - y] -= 1
    for z in range(d, u, -1):
        step = min(beta[0], alpha[z] // 2)
        if step:
            x[(z, z)] += step
            beta[0] -= step
            alpha[z] -= 2 * step
    sol = IpSolution(inst, dict(x))
    assert sol.feasible()
    assert sol.objective <= inst.q
    assert Fraction(sol.objective) >= inst.q - greedy_gap_bound(inst)
    return sol


class TestGreedy:
    def test_attains_q_22_3(self):
        inst = build_instance(22, 3, "secA")
        sol = greedy_solve(inst)
        assert sol.objective == 30822 == inst.q
        assert sol.feasible()

    def test_single_variable(self):
        inst = build_instance(10, 3, "secA")
        sol = greedy_solve(inst)
        assert sol.x == {(1, 1): 5} and sol.objective == 10

    def test_zero_instance(self):
        inst = build_instance(24, 5, "secB")
        sol = zero_solution(inst)
        assert sol.objective == 0 and sol.feasible()

    def test_variant_guard(self):
        with pytest.raises(ValueError):
            greedy_solve(build_instance(26, 3, "secB"))

    def test_matches_the_oracle(self):
        # the tail of the oracle is the band-desc fill written out by hand;
        # it changes x on 495 of these 504 instances, so the match is not
        # a match of the batched main loop alone
        insts = [inst for inst in nontrivial_instances((3, 5, 7), 1500)
                 if inst.variant == "secA"]
        assert len(insts) == 504
        for inst in insts:
            want = {v: x for v, x in oracle_greedy_solve(inst).x.items() if x}
            assert greedy_solve(inst).x == want, (inst.n, inst.k)

    @pytest.mark.parametrize("n,k", ((32002, 3), (8006, 5)))
    def test_matches_the_oracle_at_large_d(self, n, k):
        # d = 5,333 and 800: thousands of steps, on which one falling z
        # pointer must give the oracle's rescans from d
        inst = build_instance(n, k, "secA")
        want = {v: x for v, x in oracle_greedy_solve(inst).x.items() if x}
        assert greedy_solve(inst).x == want

    def test_gap_bound_sweep(self):
        for k in (3, 5, 7):
            for n in range(2 * k + 1, 301):
                if n % (2 * k) == k + 1:
                    inst = build_instance(n, k, "secA")
                    sol = greedy_solve(inst)
                    assert Fraction(sol.objective) >= inst.q - greedy_gap_bound(inst)
                    assert sol.objective <= inst.q


class TestClosedForm:
    def test_26_3_infeasible(self):
        res = closed_form_solve(build_instance(26, 3, "secB"))
        assert not res.feasible
        assert res.violations == ["R_1"]

    def test_u_zero_single_diagonal(self):
        inst = build_instance(26, 3, "secB")
        # with u = 0 the candidate is the single diagonal variable
        res = closed_form_solve(inst)
        assert not res.feasible  # k = 3 rejects it, but the shape is right

    def test_first_k5_instance_with_u1(self):
        # the first n = 4 (mod 10) with u >= 1 for k = 5; pinned regression
        inst = build_instance(174, 5, "secB")
        assert inst.u == 1
        res = closed_form_solve(inst)
        assert res.feasible
        assert res.solution.objective == inst.q
        assert res.solution.feasible()

    def test_trivial(self):
        res = closed_form_solve(build_instance(24, 5, "secB"))
        assert res.feasible and res.solution.objective == 0

    def test_variant_guard(self):
        with pytest.raises(ValueError):
            closed_form_solve(build_instance(22, 3, "secA"))


def oracle_lp_rows(inst, lb, ub):
    """The LP's constraints, one scan of Phi per band and per row:
    [(row, bound)] in the order the solver sees them."""
    phi = inst.phi
    idx = {v: i for i, v in enumerate(phi)}
    out = []

    def adj(row, cap):
        out.append((row, cap - sum(coef * lb.get(phi[j], 0) for j, coef in row.items())))

    for ell, cap in sorted(inst.cap_off.items()):
        adj({idx[(i, j)]: 1 for (i, j) in phi if j - i == ell}, cap)
    adj({idx[(i, j)]: 1 for (i, j) in phi if i == j}, inst.cap_diag)
    for ell, cap in sorted(inst.cap_row.items()):
        row = {idx[(i, j)]: (i == ell) + (j == ell) for (i, j) in phi
               if i == ell or j == ell}
        if row:
            adj(row, cap)
    for v, bound in sorted(ub.items()):
        out.append(({idx[v]: 1}, bound - lb.get(v, 0)))
    return out


def phi_runs(inst):
    """Fill runs of one index each, in Phi's order."""
    return ((j - i, (i,)) for i, j in inst.phi)


def search_oracle(inst, node_budget):
    """Branch and bound with exact LP bounds, best bound first from the
    floored root LP: the search `exact_solve` replaced.  (solution,
    finished), where finished is False if it stopped at node_budget."""
    best = zero_solution(inst)
    counter = 0
    heap = []

    def push(lb, ub):
        nonlocal counter
        # every coefficient is nonnegative, so a node is infeasible exactly
        # when a shifted cap is negative, and otherwise x - lb = 0 is feasible
        rows = oracle_lp_rows(inst, lb, ub)
        if any(cap < 0 for _, cap in rows):
            return
        lp = LinearProgram(len(inst.phi))
        lp.set_objective([2] * len(inst.phi))
        for row, cap in rows:
            lp.add_constraint(row, cap)
        value, xs = lp.solve()
        bound = value + 2 * sum(lb.values())
        ibound = math.floor(bound)
        ibound -= ibound & 1
        if ibound <= best.objective:
            return
        xfull = {v: xs[col] + lb.get(v, 0) for col, v in enumerate(inst.phi)}
        counter += 1
        heapq.heappush(heap, (-ibound, counter, lb, ub, xfull))

    push({}, {})
    if heap:    # the incumbent starts from the root relaxation, floored
        best = _floor_improve(inst, heap[0][4], phi_runs(inst))
    expanded = 0
    optimal = True
    while heap:
        nbound, _, lb, ub, xfull = heapq.heappop(heap)
        if -nbound <= best.objective:
            continue
        if expanded >= node_budget:
            optimal = False
            break
        expanded += 1
        frac = {v: val for v, val in xfull.items()
                if val != int(val)}
        if not frac:
            cand = IpSolution(inst, {v: int(val) for v, val in xfull.items() if val})
            assert cand.feasible()
            if cand.objective > best.objective:
                best = cand
            continue
        cand = _floor_improve(inst, xfull, phi_runs(inst))
        if cand.objective > best.objective:
            best = cand
        v = min(frac, key=lambda vv: (abs(frac[vv] - int(frac[vv]) - Fraction(1, 2)), vv))
        val = frac[v]
        ub1 = dict(ub)
        ub1[v] = math.floor(val)
        push(lb, ub1)
        lb1 = dict(lb)
        lb1[v] = math.floor(val) + 1
        push(lb1, ub)
    assert best.objective <= inst.q
    return best, optimal


def sandwich_cases():
    cases = []
    for n in range(10, 141):
        if n % 6 == 4:
            cases.append((n, 3, "secA"))
        if n % 6 == 2 and n >= 26:
            cases.append((n, 3, "secB"))
    cases += [(16, 5, "secA"), (36, 5, "secA"), (174, 5, "secB")]
    return [inst for inst in (build_instance(*case) for case in cases) if not inst.trivial]


def milp_optimum(inst):
    """Oracle: the IP optimum by HiGHS branch and cut (scipy.optimize.milp)."""
    np = pytest.importorskip("numpy")
    opt = pytest.importorskip("scipy.optimize")
    phi = inst.phi
    rows = [[int(i == j) for i, j in phi]]
    caps = [inst.cap_diag]
    for ell, cap in inst.cap_off.items():
        rows.append([int(j - i == ell) for i, j in phi])
        caps.append(cap)
    for ell, cap in inst.cap_row.items():
        rows.append([(i == ell) + (j == ell) for i, j in phi])
        caps.append(cap)
    res = opt.milp(-2 * np.ones(len(phi)),
                   constraints=opt.LinearConstraint(np.array(rows), -np.inf, caps),
                   integrality=np.ones(len(phi)), bounds=opt.Bounds(0, np.inf))
    assert res.success
    return round(-res.fun)


# small real instances with no, one and two off-diagonal bands
SYNTHETIC_BASES = ((26, 3, "secB"), (100, 3, "secA"), (174, 5, "secB"), (674, 9, "secB"))


def synthetic_instance(seed):
    """(instance, kind, saturating x or None): a small real instance with
    its caps replaced.  "random" draws every cap from 0..6, and "random
    tight" then moves row caps until sum R_l is the band dual.  The other
    kinds set the caps to the loads of a random x, which then saturates
    every band and row; "row slack" adds 1 to one even row, so sum R_l
    exceeds the band dual and no cut applies, and "cut" adds 1 to D, to
    an even row and to an odd row, which keeps sum R_l at the band dual
    and flips the parity, so the cut fires and x attains it."""
    rng = random.Random(seed)
    base = build_instance(*SYNTHETIC_BASES[seed % len(SYNTHETIC_BASES)])
    kinds = ("random", "random tight", "saturated", "row slack", "cut")
    kind = kinds[seed // len(SYNTHETIC_BASES) % len(kinds)]
    if kind.startswith("random"):
        cap_diag = rng.randint(0, 6)
        cap_off = {ell: rng.randint(0, 6) for ell in base.cap_off}
        cap_row = {ell: rng.randint(0, 6) for ell in base.cap_row}
        if kind == "random tight":
            excess = sum(cap_row.values()) - 2 * (cap_diag + sum(cap_off.values()))
            while excess:
                ell = rng.choice([ell for ell in cap_row if excess < 0 or cap_row[ell]])
                cap_row[ell] -= 1 if excess > 0 else -1
                excess -= 1 if excess > 0 else -1
        return dataclasses.replace(base, cap_diag=cap_diag, cap_off=cap_off,
                                   cap_row=cap_row), kind, None
    support = rng.sample(base.phi, rng.randint(1, min(8, len(base.phi))))
    x = {v: rng.randint(1, 2) for v in support}
    cap_diag = sum(v for (i, j), v in x.items() if i == j)
    cap_off = {ell: sum(v for (i, j), v in x.items() if j - i == ell) for ell in base.cap_off}
    cap_row = {ell: sum(v * ((i == ell) + (j == ell)) for (i, j), v in x.items())
               for ell in base.cap_row}
    even = rng.choice([ell for ell in cap_row if ell % 2 == 0])
    if kind == "row slack":
        cap_row[even] += 1
    elif kind == "cut":
        cap_diag += 1
        cap_row[even] += 1
        cap_row[rng.choice([ell for ell in cap_row if ell % 2])] += 1
    inst = dataclasses.replace(base, cap_diag=cap_diag, cap_off=cap_off, cap_row=cap_row)
    return inst, kind, IpSolution(inst, x)


class TestExactAndLp:
    def test_lp_rows_match_per_constraint_scan(self):
        built = 0
        for k in (3, 5):
            for variant in ("secA", "secB"):
                rem = (k + 1) % (2 * k) if variant == "secA" else (k - 1) % (2 * k)
                for n in range(2 * k + 1, 320):
                    if n % (2 * k) != rem:
                        continue
                    inst = build_instance(n, k, variant)
                    if inst.trivial:
                        continue
                    lp = _build_lp(inst)
                    expect = oracle_lp_rows(inst, {}, {})
                    assert list(zip(lp.rows, lp.b)) == expect, (n, k, variant)
                    assert lp.c == [2] * len(inst.phi)
                    built += 1
        assert built >= 100

    def test_every_root_lp_is_integer_with_x0_feasible(self):
        # the one input shape the solver takes; add_constraint rejects any other
        built = 0
        for k in (3, 5, 7):
            for variant in ip.VARIANTS:
                rem = (k + 1) % (2 * k) if variant == "secA" else (k - 1) % (2 * k)
                for n in range(2 * k + 1, 1501):
                    if n % (2 * k) != rem:
                        continue
                    inst = build_instance(n, k, variant)
                    if inst.trivial:
                        continue
                    lp = _build_lp(inst)
                    assert all(type(v) is int and v >= 0 for v in lp.b)
                    assert all(type(v) is int for row in lp.rows for v in row.values())
                    built += 1
        assert built == 1001

    def test_exact_matches_q(self):
        inst = build_instance(22, 3, "secA")
        sol, optimal = exact_solve(inst)
        assert optimal and sol.objective == 30822

    def test_exact_secB(self):
        inst = build_instance(26, 3, "secB")
        sol, optimal = exact_solve(inst)
        assert optimal and sol.objective == 511224

    def test_trivial(self):
        sol, optimal = exact_solve(build_instance(24, 5, "secB"))
        assert optimal and sol.objective == 0

    def test_lp_relax_trivial(self):
        # over an empty Phi the LP is one row {} <= D and no column: the
        # simplex stops at x = 0 without a pivot
        inst = build_instance(24, 5, "secB")
        lp = _build_lp(inst)
        assert lp.rows == [{}] and lp.b == [inst.cap_diag] and lp.c == []
        assert lp.solve() == (0, []) and lp.pivots == []
        assert lp_relax(inst) == (0, {})

    def test_exact_agrees_with_search_oracle(self):
        for inst in sandwich_cases():
            sol, optimal = exact_solve(inst)
            best, finished = search_oracle(inst, node_budget=100)
            assert optimal and finished, (inst.n, inst.k, inst.variant)
            assert sol.objective == best.objective, (inst.n, inst.k, inst.variant)

    def test_upper_bound_against_highs(self):
        # sound everywhere, attained wherever a saturating x exists; on
        # random caps the cut may still fall short of the optimum's bound
        seen = Counter()
        for seed in range(200):
            inst, kind, x = synthetic_instance(seed)
            bound, reason = upper_bound(inst)
            best = milp_optimum(inst)
            assert bound >= best and bound % 2 == 0, (seed, kind)
            if x is not None:
                assert x.feasible() and x.objective == best == bound, (seed, kind)
            seen[kind, reason, bound == best] += 1
        assert seen == {("random", "band dual", True): 38, ("random", "band dual", False): 2,
                        ("random tight", "band dual", True): 6,
                        ("random tight", "band dual", False): 18,
                        ("random tight", "parity cut", True): 7,
                        ("random tight", "parity cut", False): 9,
                        ("saturated", "band dual", True): 40,
                        ("row slack", "band dual", True): 40,
                        ("cut", "parity cut", True): 40}

    def test_parity_cut_instances(self):
        # the k = 3 secA instances where the greedy stops at Q - 2
        cut = [n for n in range(10, 1001, 6)
               if upper_bound(build_instance(n, 3, "secA"))[1] == "parity cut"]
        assert cut == [406, 430, 478, 502, 766, 790, 814, 862, 892, 988]
        for k in (3, 5, 7):
            for variant in ip.VARIANTS:
                rem = (k + 1) % (2 * k) if variant == "secA" else (k - 1) % (2 * k)
                for n in range(2 * k + 1, 1501):
                    if n % (2 * k) == rem:
                        inst = build_instance(n, k, variant)
                        bound, reason = upper_bound(inst)
                        assert bound == inst.q - 2 * (reason == "parity cut")

    def test_lp_values(self):
        assert lp_relax(build_instance(26, 3, "secB"))[0] == 511224
        assert lp_relax(build_instance(10, 3, "secA"))[0] == 10

    def test_lp_sandwich_sweep(self):
        for inst in sandwich_cases():
            sol, optimal = exact_solve(inst)
            assert optimal
            if inst.variant == "secA":
                assert sol.objective >= greedy_solve(inst).objective
            lp_val, lp_x = lp_relax(inst)
            assert Fraction(sol.objective) <= lp_val <= inst.q
            assert lp_val <= sol.objective + 2 * len(inst.phi)
            floored = IpSolution(inst, {v: int(val) for v, val in lp_x.items()
                                        if int(val)})
            assert floored.feasible()
            assert floored.objective >= lp_val - 2 * len(inst.phi)

    def test_1802_3_secB_proved(self):
        # the first instance past the old limit of 2,000 variables
        inst = build_instance(1802, 3, "secB")
        assert len(inst.phi) == 2037
        sol, optimal = exact_solve(inst)
        assert optimal and sol.objective == inst.q
        assert upper_bound(inst) == (inst.q, "band dual")

    def test_1802_3_secB_exits_0(self, capsys):
        code = main(["ip", "--n", "1802", "--k", "3", "--variant", "secB",
                     "--solver", "exact"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.rstrip().endswith(", gap to Q = 0")

    def test_parity_cut_closes_406_3_secA(self):
        # every LP bound of the old search stayed at Q here
        inst = build_instance(406, 3, "secA")
        assert lp_relax(inst)[0] == inst.q
        sol, proof = exact_solve(inst)
        assert proof == "parity cut" and sol.feasible()
        assert upper_bound(inst) == (inst.q - 2, "parity cut")
        assert sol.objective == inst.q - 2

    def test_proof_names_the_bound_met(self):
        inst = build_instance(202, 3, "secA")
        sol, proof = exact_solve(inst)
        assert proof == "band dual" and sol.feasible()
        assert upper_bound(inst) == (sol.objective, "band dual")

    def test_unmet_bound_gives_no_proof(self, monkeypatch):
        inst = build_instance(202, 3, "secA")
        monkeypatch.setattr(ip, "upper_bound", lambda inst: (inst.q + 2, "band dual"))
        sol, proof = exact_solve(inst)
        assert proof is None and sol.feasible() and sol.objective <= inst.q

    def test_lp_fallback_keeps_the_floored_lp_on_a_tie(self, monkeypatch):
        # a bound raised by one no primal meets, so the LP fallback runs; the
        # floored LP and the best primal both reach Q, and the LP is kept
        inst = build_instance(202, 3, "secA")
        bound = upper_bound(inst)[0]
        monkeypatch.setattr(ip, "upper_bound", lambda inst: (bound + 1, "band dual"))
        floored = _floor_improve(inst, lp_relax(inst)[1],
                                 ip._FILL_ORDERS["band desc, i asc"](inst.u, inst.d))
        sol, proof = exact_solve(inst)
        assert proof is None and sol.x == floored.x
        assert sol.objective == greedy_solve(inst).objective == bound

    def test_lp_fallback_returns_a_better_primal(self, monkeypatch):
        # an empty LP vertex and an empty fill "band desc, i asc" leave the
        # fallback's floored LP empty: the first primal of the largest
        # objective, the greedy here, is returned instead
        inst = build_instance(202, 3, "secA")
        bound = upper_bound(inst)[0]
        monkeypatch.setattr(ip, "upper_bound", lambda inst: (bound + 1, "band dual"))
        monkeypatch.setattr(ip, "lp_relax", lambda inst: (Fraction(0), {}))
        monkeypatch.setitem(ip._FILL_ORDERS, "band desc, i asc", lambda u, d: ())
        sol, proof = exact_solve(inst)
        assert proof is None and sol.feasible()
        assert sol.x == greedy_solve(inst).x and sol.objective == bound


def nontrivial_instances(ks, n_max):
    """Every non-trivial instance with k in `ks`, both variants, n <= n_max."""
    for k in ks:
        for variant in ip.VARIANTS:
            rem = (k + 1) % (2 * k) if variant == "secA" else (k - 1) % (2 * k)
            for n in range(2 * k + 1, n_max + 1):
                if n % (2 * k) == rem:
                    inst = build_instance(n, k, variant)
                    if not inst.trivial:
                        yield inst


def count_simplex_solves(monkeypatch) -> list:
    """Patch `LinearProgram.solve` to log each call; returns the log."""
    calls = []
    solve = LinearProgram.solve

    def counted(lp):
        calls.append(len(lp.c))
        return solve(lp)

    monkeypatch.setattr(LinearProgram, "solve", counted)
    return calls


class TestLpValue:
    def test_agrees_with_the_simplex(self):
        cases = list(nontrivial_instances((3, 5, 7), 600))
        cases += [build_instance(n, 3, variant)
                  for n, variant in ((406, "secA"), (430, "secA"), (1310, "secB"))]
        assert len(cases) == 396
        for inst in cases:
            assert lp_value(inst)[0] == lp_relax(inst)[0], (inst.n, inst.k, inst.variant)

    def test_proofs_up_to_1500(self, monkeypatch):
        calls = count_simplex_solves(monkeypatch)
        proofs = Counter()
        fallbacks = []
        for inst in nontrivial_instances((3, 5, 7), 1500):
            value, proof = lp_value(inst)
            assert value == band_dual(inst) == inst.q, (inst.n, inst.k, inst.variant)
            proofs[inst.k, inst.variant, proof] += 1
            if proof == "simplex":
                fallbacks.append((inst.n, inst.k, inst.variant))
        assert fallbacks == [(1310, 3, "secB")]
        assert len(calls) == 1
        assert proofs == {(3, "secA", "greedy"): 239, (3, "secA", "half loops"): 10,
                          (3, "secB", "closed form"): 15,
                          (3, "secB", "fill band desc, i asc"): 229,
                          (3, "secB", "fill band desc, i desc"): 1,
                          (3, "secB", "simplex"): 1,
                          (5, "secA", "greedy"): 149, (5, "secB", "closed form"): 147,
                          (7, "secA", "greedy"): 106, (7, "secB", "closed form"): 104}

    def test_exact_proofs_up_to_1500(self, monkeypatch):
        # an integral primal meets upper_bound everywhere but (1310,3,secB)
        calls = count_simplex_solves(monkeypatch)
        fallbacks = []
        solved = 0
        for inst in nontrivial_instances((3, 5, 7), 1500):
            before = len(calls)
            sol, optimal = exact_solve(inst)
            assert optimal and sol.feasible(), (inst.n, inst.k, inst.variant)
            assert sol.objective == upper_bound(inst)[0]
            assert all(type(v) is int for v in sol.x.values()), (inst.n, inst.k)
            if len(calls) > before:
                fallbacks.append((inst.n, inst.k, inst.variant))
            solved += 1
        assert solved == 1001
        assert fallbacks == [(1310, 3, "secB")]
        assert len(calls) == 1

    def test_half_loops_close_the_parity_instances(self):
        for n in (406, 430, 478, 502, 766, 790, 814, 862, 892, 988):
            inst = build_instance(n, 3, "secA")
            greedy = greedy_solve(inst)
            assert greedy.objective == inst.q - 2
            half = ip._half_loops(greedy)
            assert half.feasible() and half.objective == inst.q
            added = {v: half.x[v] - greedy.x.get(v, 0) for v in half.x
                     if half.x[v] != greedy.x.get(v, 0)}
            assert sorted(added.values()) == [Fraction(1, 2)] * 2
            assert all(i == j for i, j in added)
            # the fractional primal proves the LP value, never the integer optimum
            assert all(type(v) is int for _, sol in ip._integral_primals(inst)
                       for v in sol.x.values())

    @pytest.mark.parametrize("n", (6148, 6622))
    def test_half_loops_on_the_last_fill(self, monkeypatch, n):
        # a parity-cut row (6148) and a band-dual row (6622) where the greedy
        # stops 6 below Q: the half loops on the fill "band desc, i desc",
        # 2 below Q, prove the LP value without the simplex
        inst = build_instance(n, 3, "secA")
        assert upper_bound(inst)[1] == ("parity cut" if n == 6148 else "band dual")
        greedy = greedy_solve(inst)
        assert greedy.objective == inst.q - 6
        calls = count_simplex_solves(monkeypatch)
        assert lp_value(inst, greedy) == (inst.q, "half loops")
        assert calls == []
        *_, (name, last), (proof, half) = ip._lp_primals(inst, greedy)
        assert (name, proof) == ("fill band desc, i desc", "half loops")
        assert last.objective == inst.q - 2 and half.feasible() and half.objective == inst.q

    def test_reuses_the_given_greedy(self, monkeypatch):
        inst = build_instance(406, 3, "secA")
        greedy = greedy_solve(inst)
        monkeypatch.setattr(ip, "greedy_solve", None)
        assert lp_value(inst, greedy) == (inst.q, "half loops")

    def test_infeasible_primal_not_accepted(self, monkeypatch):
        # a primal at the bound proves nothing unless it is feasible, for
        # the LP value and for the integer optimum alike
        inst = build_instance(22, 3, "secA")
        over = IpSolution(inst, {inst.phi[0]: inst.q // 2})
        assert over.objective == band_dual(inst) == upper_bound(inst)[0]
        assert not over.feasible()
        monkeypatch.setattr(ip, "_integral_primals",
                            lambda inst, greedy=None: [("over", over)])
        calls = count_simplex_solves(monkeypatch)
        assert lp_value(inst) == (inst.q, "simplex")
        assert len(calls) == 1
        sol, optimal = exact_solve(inst)
        assert sol.feasible()
        assert optimal and sol.objective == inst.q
        assert len(calls) == 2

    def test_trivial(self):
        assert lp_value(build_instance(24, 5, "secB")) == (0, "empty index set")


def capped(inst, cap_diag, cap_off, cap_row):
    return dataclasses.replace(inst, cap_diag=cap_diag, cap_off=cap_off, cap_row=cap_row)


class TestFlatSlackChecks:
    """`IpSolution.feasible`, `_floor_improve` and the fills of
    `_FILL_ORDERS` against the dict-based oracles they replaced."""

    def test_fills_and_verdicts_match_the_oracles(self):
        checked = 0
        for inst in nontrivial_instances((3, 5, 7), 1500):
            primals = list(ip._lp_primals(inst))
            for name, order in ip._FILL_ORDERS.items():
                got = dict(primals)[f"fill {name}"]
                expect = oracle_floor_improve(inst, {}, ORACLE_FILL_ORDERS[name](inst.phi))
                assert got.x == expect.x, (inst.n, inst.k, inst.variant, name)
            for proof, sol in primals:
                if sol is not None:
                    assert sol.feasible() == oracle_feasible(sol), (inst.n, inst.k, proof)
            checked += 1
        assert checked == 1001

    def test_fills_on_small_caps(self):
        # caps of 0 to 6, where a band's budget runs out within its run
        for seed in range(200):
            inst, kind, _ = synthetic_instance(seed)
            for name, order in ip._FILL_ORDERS.items():
                got = _floor_improve(inst, {}, order(inst.u, inst.d))
                expect = oracle_floor_improve(inst, {}, ORACLE_FILL_ORDERS[name](inst.phi))
                assert got.x == expect.x, (seed, kind, name)

    @pytest.mark.parametrize("n", (1310, 1802))
    def test_floored_lp_matches_the_oracle(self, n):
        # in the order of `exact_solve`'s LP fallback; the LP vertex is
        # integral here, so halve it too, which leaves fractions to floor and
        # slack to grow into
        inst = build_instance(n, 3, "secB")
        vertex = lp_relax(inst)[1]
        halved = {v: Fraction(2 * val + 1, 4) for v, val in vertex.items()}
        name = "band desc, i asc"
        for base in (vertex, halved):
            got = _floor_improve(inst, base, ip._FILL_ORDERS[name](inst.u, inst.d))
            assert got.x == oracle_floor_improve(inst, base,
                                                 ORACLE_FILL_ORDERS[name](inst.phi)).x
            assert got.feasible() and oracle_feasible(got)
        floored = _floor_improve(inst, vertex, ip._FILL_ORDERS[name](inst.u, inst.d))
        assert floored.x == vertex and floored.objective == upper_bound(inst)[0]
        assert got.x != {v: int(val) for v, val in halved.items() if int(val)}

    @pytest.mark.parametrize("case", ((302, 3, "secB"), (674, 9, "secB"), (304, 3, "secA")))
    def test_membership_by_arithmetic(self, case):
        inst = build_instance(*case)
        phi = set(inst.phi)
        box = range(-1, inst.d + 3)
        assert all(((i, j) in inst) == ((i, j) in phi) for i in box for j in box)

    def test_keys_outside_phi(self):
        inst = build_instance(302, 3, "secB")
        u, d = inst.u, inst.d
        assert u == 2
        inside = inst.phi[-1]
        for key in ((u, u), (u, u + 1), (d, d + 1), (d + 1, d + 1), (u + 2, u + 1),
                    (d, d - 1), (u + 1, 2 * u + 2), (u + 1, d), (1, 2, 3), (u + 1,),
                    u + 1, "ab", ("a", "b"), (float(u + 1), float(u + 1))):
            for x in ({key: 1}, {inside: 1, key: 0}):
                sol = IpSolution(inst, x)
                assert sol.feasible() is False, key
                if key != (float(u + 1), float(u + 1)):    # the set holds 1.0 == 1
                    assert oracle_feasible(sol) is False, key
        assert IpSolution(inst, {inside: 1}).feasible()

    def test_negative_value(self):
        inst = build_instance(302, 3, "secB")
        for v in (-1, Fraction(-1, 2)):
            sol = IpSolution(inst, {inst.phi[0]: 1, inst.phi[-1]: v})
            assert not sol.feasible() and not oracle_feasible(sol)

    @pytest.mark.parametrize("case", ((302, 3, "secB"), (674, 9, "secB"), (304, 3, "secA")))
    def test_each_constraint_exceeded_by_one(self, case):
        # caps far above any load but the one under test, which is the load
        # of one unit on an index that meets it, then one less
        base = build_instance(*case)
        u, d = base.u, base.d
        big = 10 ** 6
        constraints = [("D", 0, (d, d))]
        constraints += [("O", ell, (u + 1, u + 1 + ell)) for ell in range(1, u + 1)]
        constraints += [("R", ell, (ell, ell)) for ell in range(u + 1, d + 1)]
        constraints += [("R", ell, (ell - 1, ell)) for ell in range(u + 2, d + 1)]
        for kind, ell, key in constraints:
            load = 2 if kind == "R" and key[0] == key[1] else 1
            for cap, ok in ((load, True), (load - 1, False)):
                inst = capped(base, cap if kind == "D" else big,
                              {e: cap if (kind, e) == ("O", ell) else big for e in base.cap_off},
                              {e: cap if (kind, e) == ("R", ell) else big for e in base.cap_row})
                sol = IpSolution(inst, {key: 1})
                assert sol.feasible() is ok == oracle_feasible(sol), (kind, ell, key, cap)

    @pytest.mark.parametrize("case", ((302, 3, "secB"), (674, 9, "secB"), (304, 3, "secA")))
    def test_built_rows_read_where_x_meets_them(self, case):
        # on a built instance feasible() tests the bands and the rows x
        # meets and reads no other row, yet refuses one unit too many on a
        # band or on a row x meets
        inst = build_instance(*case)
        u, d = inst.u, inst.d
        assert IpSolution(inst, {(u + 1, u + 1): 1}).feasible()
        assert inst.cap_row.read == [inst.cap_row[u + 1]]         # R_{u+1} alone
        for v, ok in ((inst.cap_row[d] // 2, True), (inst.cap_row[d] // 2 + 1, False)):
            assert IpSolution(inst, {(d, d): v}).feasible() is ok   # the loop loads row d twice
        full = ip._integral_primals(inst)
        sol = next(sol for _, sol in full if sol and sol.objective == band_dual(inst))
        assert sol.feasible()                   # every band at its cap
        for key in sol.x:
            over = IpSolution(inst, {**sol.x, key: sol.x[key] + 1})
            assert not over.feasible() and not oracle_feasible(over), key

    def test_explicit_caps_checked_once(self):
        # explicit caps must list rows u + 1..d in order and be >= 0, or an
        # untouched row's slack, its cap, could be negative or misplaced
        base = build_instance(302, 3, "secB")
        rows = dict(base.cap_row)
        assert capped(base, base.cap_diag, base.cap_off, rows) == base
        for diag, off, row in ((-1, base.cap_off, rows),
                               (base.cap_diag, {**base.cap_off, 1: -1}, rows),
                               (base.cap_diag, base.cap_off, {**rows, base.d: -1}),
                               (base.cap_diag, base.cap_off, dict(reversed(rows.items()))),
                               (base.cap_diag, base.cap_off, {**rows, base.d + 1: 0})):
            with pytest.raises(ValueError):
                capped(base, diag, off, row)

    def test_half_loops_with_fractions(self):
        for n in (406, 430, 988):
            inst = build_instance(n, 3, "secA")
            half = ip._half_loops(greedy_solve(inst))
            assert any(type(v) is Fraction for v in half.x.values())
            assert half.feasible() and oracle_feasible(half)
        base = build_instance(304, 3, "secA")
        ell = base.d
        for cap_diag, cap_row, ok in ((1, 1, True), (0, 1, False), (1, 0, False)):
            inst = capped(base, cap_diag, dict.fromkeys(base.cap_off, 0),
                          {e: cap_row if e == ell else 0 for e in base.cap_row})
            sol = IpSolution(inst, {(ell, ell): Fraction(1, 2)})
            assert sol.feasible() is ok == oracle_feasible(sol), (cap_diag, cap_row)


class TestRealization:
    def test_10_3_full(self):
        inst = build_instance(10, 3, "secA")
        sol, _ = exact_solve(inst)
        system = realize_system(inst, sol, seed=0)
        assert system.size == 10
        assert all(sorted(len(p) for p in parts) == [3, 3, 4]
                   for parts in system.partitions)
        assert check_partition_system(system).ok
        assert check_sperner(system).ok
        assert check_certificate(system).ok

    def test_zero_solution(self):
        inst = build_instance(10, 3, "secA")
        system = realize_system(inst, zero_solution(inst), seed=0)
        assert system.size == 0

    def test_truncated_26_3(self):
        inst = build_instance(26, 3, "secB")
        system = realize_system(inst, IpSolution(inst, {(1, 1): 3}), seed=1)
        assert system.size == 6
        assert check_partition_system(system).ok
        assert check_sperner(system).ok
        assert check_certificate(system).ok

    def test_16_5_padded_classes(self):
        inst = build_instance(16, 5, "secA")
        sol, _ = exact_solve(inst)
        system = realize_system(inst, sol, seed=0)
        assert system.size == 28
        assert all(len(parts) == 5 for parts in system.partitions)
        assert check_partition_system(system).ok
        assert check_sperner(system).ok
        assert check_certificate(system).ok

    def test_34_5_truncated_secB(self):
        inst = build_instance(34, 5, "secB")
        system = realize_system(inst, IpSolution(inst, {(1, 1): 2, (2, 2): 1}),
                                seed=0)
        assert system.size == 6
        assert check_partition_system(system).ok
        assert check_sperner(system).ok
        assert check_certificate(system).ok

    def test_16_3_full_secA(self):
        # family (EA, 4) uses all 70 * 8 pairs of a side-one 4-block and a
        # side-two point, so side blocks repeat and only the pairs differ
        inst = build_instance(16, 3, "secA")
        sol = greedy_solve(inst)
        assert sol.objective * inst.k == 1848
        system = realize_system(inst, sol, seed=0)
        assert check_partition_system(system).ok
        assert check_certificate(system).ok
        assert check_sperner(system).ok
        quads = [p[:4] for parts in system.partitions for p in parts
                 if len(p) == 5 and p[3] < 8 <= p[4]]
        assert len(quads) == 560 and len(set(quads)) == 70

    @pytest.mark.parametrize("n,k,variant,capped", ((16, 5, "secA", False),
                                                    (22, 7, "secA", False),
                                                    (26, 5, "secA", False),
                                                    (34, 5, "secB", True)))
    def test_runs_expand_to_the_class_sequence(self, n, k, variant, capped, monkeypatch):
        # the runs of `_class_profiles`, expanded, are the classes cut from
        # the level sequence written out in full, and the realization hands
        # partition_ground one unit per class in that order
        inst = build_instance(n, k, variant)
        sol = greedy_solve(inst) if variant == "secA" else closed_form_solve(inst).solution
        if capped:
            sol = IpSolution(inst, {v: min(x, 3) for v, x in sol.x.items()})
        classes = naive_classes(inst, sol)
        assert [prof for prof, m in ip._class_profiles(inst, sol) for _ in range(m)] == classes
        seen = []

        def record(points, units, **kwargs):
            seen.extend(units)
            raise StopIteration
        monkeypatch.setattr(ip, "partition_ground", record)
        with pytest.raises(StopIteration):
            realize_system(inst, sol)
        assert seen == [[shape for _, _, shape in prof] for prof in classes]
        # every case pads from one level; (26, 5, secA) has slack on rows 1
        # and 2, 5,291 and 1, and its 5,290 pads all come from row 1
        assert len({t for prof in classes for (_, t), _, _ in prof[3:]}) == 2
        assert (n, k) != (26, 5) or read_slacks(sol)[1] == [0, 5291, 1]

    @pytest.mark.parametrize("n,k,variant,solver", SMALL_SOLUTIONS,
                             ids=["-".join(map(str, case)) for case in SMALL_SOLUTIONS])
    def test_every_small_solution_realizes(self, n, k, variant, solver):
        inst = build_instance(n, k, variant)
        sol = solve(inst, solver)
        system = realize_system(inst, sol, seed=0)
        assert system.size == sol.objective
        assert check_partition_system(system).ok
        assert check_sperner(system).ok
        assert check_certificate(system).ok

    def test_small_solution_list(self):
        # the nonempty ones; the others are trivial secB programs
        assert [case for case in SMALL_SOLUTIONS
                if solve(build_instance(*case[:3]), case[3]).objective] == [
            (10, 3, "secA", "exact"), (10, 3, "secA", "greedy"),
            (16, 3, "secA", "exact"), (16, 3, "secA", "greedy"),
            (16, 5, "secA", "exact"), (16, 5, "secA", "greedy")]

    def test_certificate_of_full_solution(self):
        inst = build_instance(22, 3, "secA")
        sol = greedy_solve(inst)
        cert = certificate(inst, sol)
        assert cert.p == 30822
        rep = check_certificate_summary(cert)
        assert rep.ok, rep.summary()

    def test_certificate_of_full_secB(self):
        inst = build_instance(26, 3, "secB")
        sol, _ = exact_solve(inst)
        cert = certificate(inst, sol)
        assert cert.p == 511224
        assert check_certificate_summary(cert).ok


def naive_classes(inst, sol):
    """Oracle: every class's profile in class order, its pads cut one class
    at a time from the level sequence written out in full (level l repeated
    as often as row l has slack, levels u+1, ..., d in turn)."""
    c, d, u = inst.params.c, inst.d, inst.u
    width = (inst.k - 3) // 2
    pair, single = (c, c + 1) if inst.variant == "secA" else (c + 1, c)

    def part(size, t):
        return ("EA" if size == c else "EB", t), size, (t, size - t)
    row = oracle_slack_lists(inst, sol.x)[1]
    levels = (ell for ell in range(u + 1, d + 1) for _ in range(row[ell]))
    classes = []
    for (i, j), x in sorted(sol.x.items()):
        for a, b in ((i, j), (j, i)):
            base = (part(pair, d - a), part(pair, d + 1 + b), part(single, single // 2 + a - b))
            for _ in range(x):
                pads = [part(pair, t) for ell in itertools.islice(levels, width)
                        for t in (d - ell, d + 1 + ell)]
                assert len(pads) == 2 * width
                classes.append(base + tuple(pads))
    return classes


def streamed_certificate(inst, sol):
    """Oracle: the certificate's profiles counted one class at a time."""
    return sorted(Counter(tuple(sorted(prof)) for prof in naive_classes(inst, sol)).items())


def level_sequence_windows(slack, width, runs):
    """Oracle: level l written out s times for each (l, s) of `slack`, cut
    into windows of `width`, run after run, equal neighbours counted."""
    levels = [ell for ell, s in slack for _ in range(s)]
    out, pos = [], 0
    for m in runs:
        windows = []
        for _ in range(m):
            window = tuple(levels[pos:pos + width])
            assert len(window) == width
            pos += width
            if windows and windows[-1][0] == window:
                windows[-1][1] += 1
            else:
                windows.append([window, 1])
        out.append([tuple(pair) for pair in windows])
    return out


def random_composition(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


class TestClosedFormCertificate:
    def test_matches_the_streamed_counter(self):
        cases = []
        for k in (3, 5, 7, 9):
            for variant in ip.VARIANTS:
                for n in range(2 * k + 1, 401):
                    try:
                        inst = build_instance(n, k, variant)
                    except ValueError:
                        continue
                    if inst.trivial:
                        continue
                    sols = {"greedy": greedy_solve(inst)} if variant == "secA" else \
                        {"closed": closed_form_solve(inst).solution}
                    if len(inst.phi) <= 60:
                        sols["exact"] = exact_solve(inst)[0]
                    # each solution capped at 3 per index stays feasible
                    # and reaches the instances whose optima are too large
                    for solver, sol in list(sols.items()):
                        if sol is not None:
                            sols["capped " + solver] = IpSolution(
                                inst, {v: min(x, 3) for v, x in sol.x.items()})
                    for solver, sol in sols.items():
                        if sol is None or sol.objective > 10 ** 5:
                            continue
                        cases.append((n, k, variant, solver))
                        assert certificate(inst, sol).profiles == \
                            streamed_certificate(inst, sol), cases[-1]
        assert len(cases) == 490
        assert sum(not solver.startswith("capped") for *_, solver in cases) == 18
        assert {k for _, k, _, _ in cases} == {3, 5, 7, 9}
        assert {v for _, _, v, _ in cases} == {"secA", "secB"}

    def test_pad_windows_match_the_level_sequence(self):
        across = three_levels = used_up = 0
        for seed in range(1000):
            rng = random.Random(seed)
            width = rng.randint(1, 9)
            windows = rng.randint(0, 30)
            spare = 0 if seed % 3 == 0 else rng.randint(1, 20)
            levels = sorted(rng.sample(range(20), rng.randint(1, 6)))
            slack = list(zip(levels, random_composition(rng, windows * width + spare,
                                                        len(levels))))
            runs = random_composition(rng, windows, rng.randint(1, 5))
            got = ip._pad_windows(slack, width, runs)
            assert got == level_sequence_windows(slack, width, runs), seed
            spans = [len(set(window)) for run in got for window, _ in run]
            across += any(s > 1 for s in spans)
            three_levels += any(s > 2 for s in spans)
            used_up += sum(runs) * width == sum(s for _, s in slack)
        assert across and three_levels and used_up
        assert ip._pad_windows([(1, 5)], 0, [2, 0, 3]) == [[((), 2)], [], [((), 3)]]

    def test_8750_13_secA(self):
        # Q has 3,414 bits; the classes could never be streamed
        inst = build_instance(8750, 13, "secA")
        sol = greedy_solve(inst)
        cert = certificate(inst, sol)
        assert cert.p == sol.objective == inst.q
        assert inst.q.bit_length() == 3414
        assert len(cert.profiles) == 336
        rep = check_certificate_summary(cert)
        assert rep.ok, rep.summary()


class TestAsymptotics:
    def test_26_3_ratios(self):
        rep = asymptotic_report(build_instance(26, 3, "secB"))
        assert rep.estar0_ratio == pytest.approx(920205 / 1022450)
        # mms(26, 3) = binom(26, 8) / 2 = 781137.5 exactly
        assert mms(build_instance(26, 3, "secB").params) == Fraction(1562275, 2)
        assert rep.q_over_mms == pytest.approx(511224 / 781137.5, rel=1e-9)
