import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sperner import verify
from sperner.cli import main
from sperner.combinat import decompose
from sperner.construction import (PartitionSystem, construct_grouped,
                                  construct_uniform, extend_system, plan_grouped)
from sperner.ip import (IpSolution, build_instance, certificate, exact_solve,
                        realize_system)
from sperner.verify import (DetectingArray, SystemCertificate,
                            check_almost_uniform, check_certificate,
                            check_certificate_summary, check_detecting,
                            check_partition_system, check_sperner,
                            from_detecting_array, to_detecting_array)


def small_fleet():
    """Systems with n <= 16 for the exhaustive dual checks."""
    fleet = [construct_uniform(6, 3), construct_uniform(8, 4),
             construct_uniform(9, 3), construct_uniform(12, 4),
             construct_uniform(12, 3)]
    for (n, k, m, h) in [(8, 3, 2, 4), (10, 4, 2, 5), (16, 6, 2, 8)]:
        fleet.append(construct_grouped(plan_grouped(n, k, m, h, "b"), seed=0))
    inst = build_instance(10, 3, "secA")
    fleet.append(realize_system(inst, exact_solve(inst)[0], seed=0))
    inst = build_instance(16, 5, "secA")
    fleet.append(realize_system(inst, exact_solve(inst)[0], seed=0))
    fleet.append(extend_system(construct_uniform(6, 3)))
    return fleet


class TestPartitionStructure:
    def test_valid_system(self):
        assert check_partition_system(construct_uniform(6, 3)).ok

    def test_duplicate_element(self):
        bad = PartitionSystem(4, 2, [[(0, 1), (1, 2, 3)]])
        rep = check_partition_system(bad)
        assert not rep.ok
        assert any("more than one part" in v for v in rep.violations)

    def test_empty_system_passes(self):
        assert check_partition_system(PartitionSystem(5, 2, [])).ok

    def test_missing_element(self):
        bad = PartitionSystem(4, 2, [[(0,), (1, 2)]])
        rep = check_partition_system(bad)
        assert any("bad cover" in v for v in rep.violations)

    def test_missing_elements_listed_up_to_ten(self):
        rep = check_partition_system(PartitionSystem(12, 2, [[(0, 1, 2), (3, 15)]]))
        assert rep.violations == [
            "partition 0: bad cover (missing [4, 5, 6, 7, 8, 9, 10, 11], extra [15])"]
        rep = check_partition_system(PartitionSystem(14, 2, [[(0, 2), (4, 20)]]))
        assert rep.violations == [
            "partition 0: bad cover (missing [1, 3, 5, 6, 7, 8, 9, 10, 11, 12] and 1 more, "
            "extra [20])"]
        rep = check_partition_system(PartitionSystem(2, 2, [[(0,), (1, 2)]]))
        assert rep.violations == ["partition 0: bad cover (missing [], extra [2])"]

    def test_wrong_part_count(self):
        bad = PartitionSystem(4, 3, [[(0, 1), (2, 3)]])
        assert not check_partition_system(bad).ok
        # k parts read from a file, one of them empty
        bad = PartitionSystem.from_text("SPS 4 2 1\n0 1 2 3 | \n")
        assert check_partition_system(bad).violations == ["partition 0: part 1 is empty"]

    def test_element_repeated_inside_a_part(self):
        bad = PartitionSystem(4, 2, [[(0, 0, 1), (2, 3)]])
        rep = check_partition_system(bad)
        assert rep.violations == ["partition 0: element(s) [0] repeated inside a part"]

    def test_repeat_in_file_fails_verify(self, tmp_path, capsys):
        # read as sets, this file was two valid partitions of {0..3}
        path = tmp_path / "repeat.sps"
        path.write_text("SPS 4 2 2\n0 0 1 | 2 3\n0 2 | 1 3\n")
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "partition structure: FAIL" in out
        assert out[-1] == "FAIL"


class TestReports:
    def test_check_system_runs_what_applies_in_print_order(self):
        grouped = construct_grouped(plan_grouped(8, 3, 2, 4, "b"), seed=0)
        plain = PartitionSystem(grouped.n, grouped.k, grouped.partitions)
        assert [rep.name for rep in verify.check_system(grouped, decompose(8, 3))] == [
            "partition structure", "almost uniform", "certificate", "exact subset test"]
        assert [rep.name for rep in verify.check_system(plain)] == [
            "partition structure", "exact subset test"]
        assert all(rep.ok for rep in verify.check_system(grouped, decompose(8, 3)))

    def test_certificate_runs_exactly_when_groups_are_set(self):
        grouped = construct_grouped(plan_grouped(8, 3, 2, 4, "b"), seed=0)
        empty = construct_grouped(plan_grouped(18, 8, 6, 3, "b"), seed=0)
        inst = build_instance(16, 5, "secA")
        realized = realize_system(inst, exact_solve(inst)[0], seed=0)
        read_back = PartitionSystem.from_text(grouped.to_text())
        for system, grouped_build in ((grouped, True), (empty, True), (realized, True),
                                      (construct_uniform(6, 3), False), (read_back, False)):
            assert (system.groups is not None) == grouped_build
            reports = verify.check_system(system)
            assert ("certificate" in [rep.name for rep in reports]) == grouped_build
            assert all(rep.ok for rep in reports)


class TestSperner:
    def test_equal_size_parts_pass(self):
        assert check_sperner(construct_uniform(12, 4)).ok

    def test_grouped_output(self):
        system = construct_grouped(plan_grouped(8, 3, 2, 4, "b"), seed=0)
        assert check_sperner(system).ok

    def test_identical_partitions_fail(self):
        parts = [(0, 1), (2, 3)]
        bad = PartitionSystem(4, 2, [parts, list(parts)])
        rep = check_sperner(bad)
        assert not rep.ok

    def test_duplicate_in_large_file_fails(self, tmp_path, capsys):
        # 111 round-robin classes of 56 pairs: 6,216 parts, no certificate metadata
        system = construct_uniform(112, 56)
        lines = system.to_text().splitlines()
        assert sum(len(parts) for parts in system.partitions) > 6000
        path = tmp_path / "good.sps"
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(path)]) == 0
        lines[40] = lines[7]
        path = tmp_path / "dup.sps"
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "exact subset test: FAIL" in out
        assert out.splitlines()[-1] == "FAIL"

    @pytest.mark.parametrize("part", [(1, 0), [0, 1], frozenset({0, 1})],
                             ids=["unsorted", "list", "frozenset"])
    def test_part_not_a_sorted_tuple_is_refused(self, part):
        # the structure check reads parts as sets; the index refuses the form
        bad = PartitionSystem(4, 2, [[(0, 1), (2, 3)], [part, (2, 3)]])
        assert check_partition_system(bad).ok
        with pytest.raises(ValueError, match="partition 1: part .* is not a sorted tuple"):
            check_sperner(bad)
        with pytest.raises(ValueError, match="not a sorted tuple"):
            verify.PartIndex(bad.partitions)

    def test_unsorted_copy_does_not_pass(self):
        bad = PartitionSystem(4, 2, [[(1, 0), (3, 2)], [(0, 1), (2, 3)]])
        with pytest.raises(ValueError, match="partition 0: part \\(1, 0\\)"):
            check_sperner(bad)

    def test_pairwise_fallback(self):
        # one size-1 part per partition, so binom(4, 1) > 2 picks the pairwise scan
        bad = PartitionSystem(5, 2, [[(0,), (1, 2, 3, 4)], [(0, 1, 2, 3), (4,)]])
        assert sorted(check_sperner(bad).violations) == sorted(pairwise_violations(bad))
        assert len(check_sperner(bad).violations) == 2


def pairwise_violations(system):
    """Oracle: every pair of parts from distinct partitions, one containing the other."""
    parts = [(idx, j, part) for idx, ps in enumerate(system.partitions)
             for j, part in enumerate(ps)]
    parts.sort(key=lambda t: len(t[2]))
    out = []
    for ai, (pa, ja, a) in enumerate(parts):
        for pb, jb, b in parts[ai + 1:]:
            if pa != pb and set(a) <= set(b):
                out.append(f"part {ja} of partition {pa} is contained in "
                           f"part {jb} of partition {pb}")
    return out


def random_system(rng):
    n = rng.randint(3, 10)
    k = rng.randint(2, min(4, n))
    partitions = []
    for _ in range(rng.randint(1, 6)):
        labels = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        rng.shuffle(labels)
        partitions.append([tuple(e for e in range(n) if labels[e] == s)
                           for s in range(k)])
    return PartitionSystem(n, k, partitions)


def mutated(system, rng):
    """A copy with one partition duplicated and, unless all parts have one
    size, a copy with a c-part moved inside a (c+1)-part of another
    partition."""
    parts = [list(ps) for ps in system.partitions]
    i, j = rng.sample(range(len(parts)), 2)
    dup = [list(ps) for ps in parts]
    dup[j] = list(dup[i])
    yield PartitionSystem(system.n, system.k, dup)
    top = max(len(b) for ps in parts for b in ps)
    if all(len(b) == top for ps in parts for b in ps):
        return      # uniform: no c-part to move
    i, big = rng.choice([(i, b) for i, ps in enumerate(parts) for b in ps
                         if len(b) == top])
    j = rng.choice([x for x in range(len(parts)) if x != i])
    row = list(parts[j])
    a = rng.choice([x for x, b in enumerate(row) if len(b) == top - 1])
    target = frozenset(rng.sample(sorted(big), top - 1))
    cur = set(row[a])
    for inc, out in zip(sorted(target - cur), sorted(cur - target)):
        holder = next(x for x, b in enumerate(row) if inc in b)
        row[holder] = tuple(sorted(set(row[holder]) - {inc} | {out}))
        cur = (cur - {out}) | {inc}
    row[a] = tuple(sorted(cur))
    sub = [list(ps) for ps in parts]
    sub[j] = row
    yield PartitionSystem(system.n, system.k, sub)


class TestSpernerOracle:
    """The hashed check against the pairwise scan it replaced."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_systems(self, seed):
        rng = random.Random(f"sperner-oracle:{seed}")
        for _ in range(50):
            system = random_system(rng)
            got = check_sperner(system)
            want = pairwise_violations(system)
            assert Counter(got.violations) == Counter(want)
            assert got.ok == (not want)

    def test_constructions_and_mutations(self):
        rng = random.Random("sperner-oracle:mutations")
        for system in small_fleet():
            assert check_sperner(system).ok and not pairwise_violations(system)
            for bad in mutated(system, rng):
                got = check_sperner(bad)
                assert not got.ok
                assert Counter(got.violations) == Counter(pairwise_violations(bad))


class TestAlmostUniform:
    def test_grouped_profile(self):
        system = construct_grouped(plan_grouped(36, 15, 4, 9, "b"), seed=0)
        assert check_almost_uniform(system, decompose(36, 15)).ok

    def test_extension_profile(self):
        ext = extend_system(construct_uniform(6, 3))
        assert check_almost_uniform(ext, decompose(7, 3)).ok

    def test_oversized_part(self):
        bad = PartitionSystem(7, 3, [[(0, 1, 2, 3), (4, 5), (6,)]])
        rep = check_almost_uniform(bad, decompose(7, 3))
        assert not rep.ok


def oracle_check_detecting(arr):
    """The pairwise row-set comparison, kept as a test-only oracle: every
    (column, symbol) row set as a bit mask, each tested against every other
    for containment; True iff none is contained in another."""
    rowsets = {}
    for j in range(arr.p):
        for s in range(1, arr.k + 1):
            rowsets[(j, s)] = sum(1 << i for i in range(arr.n) if arr.rows[i][j] == s)
    return all(ma & ~mb for ka, ma in rowsets.items()
               for kb, mb in rowsets.items() if ka != kb)


def random_arrays(count=300, seed=5):
    """Small seeded arrays over few symbols; at this seed a third are
    detecting and a quarter miss a symbol in some column."""
    rng = random.Random(seed)
    for _ in range(count):
        n, k, p = rng.randint(5, 8), rng.randint(2, 3), rng.randint(1, 4)
        cols = [[rng.randint(1, k) for _ in range(n)] for _ in range(p)]
        yield DetectingArray(n, k, p, [tuple(col[i] for col in cols) for i in range(n)])


class TestDetectingArrays:
    def test_round_trip_and_shape(self):
        system = construct_uniform(6, 3)
        arr = to_detecting_array(system)
        assert (arr.n, arr.k, arr.p) == (6, 3, 5)
        back = from_detecting_array(arr)
        assert back.canonical() == system.canonical()

    def test_single_partition_vacuous(self):
        system = construct_uniform(4, 1)
        arr = to_detecting_array(system)
        assert arr.p == 1
        assert check_detecting(arr).ok

    def test_text_round_trip(self):
        arr = to_detecting_array(construct_uniform(6, 3))
        back = DetectingArray.from_text(arr.to_text())
        assert back.rows == arr.rows

    def test_missing_symbol_rejected(self):
        arr = to_detecting_array(construct_uniform(6, 3))
        rows = [list(r) for r in arr.rows]
        for i in range(arr.n):
            if rows[i][0] == 3:
                rows[i][0] = 1
        broken = DetectingArray(arr.n, arr.k, arr.p, [tuple(r) for r in rows])
        rep = check_detecting(broken)
        assert not rep.ok
        with pytest.raises(ValueError):
            from_detecting_array(broken)
        # and the other way, a system that misses a point has no array
        with pytest.raises(ValueError, match="does not cover the ground set"):
            to_detecting_array(PartitionSystem(4, 2, [[(0,), (1, 2)]]))

    def test_missing_symbols_listed_up_to_ten(self):
        arr = DetectingArray(4, 14, 2, [(1, 1), (2, 2), (3, 3), (1, 14)])
        assert check_detecting(arr).violations == [
            "column 0: symbol(s) [4, 5, 6, 7, 8, 9, 10, 11, 12, 13] and 1 more never appear",
            "column 1: symbol(s) [4, 5, 6, 7, 8, 9, 10, 11, 12, 13] never appear"]
        with pytest.raises(ValueError, match=r"^column 0: symbol\(s\) \[4, .*, 13\] and 1 more "):
            from_detecting_array(arr)

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            DetectingArray.from_text("XX 1 2 3\n")
        with pytest.raises(ValueError, match="line 2"):
            DetectingArray.from_text("DA 2 2 2\n1 9\n2 1\n")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 7), st.integers(0, 4), st.data())
    def test_every_symbol_in_every_column_makes_partitions(self, k, n, p, data):
        # why `verify` runs no partition check on a DA file: the format
        # gives each row one symbol in 1..k per column, so a column with
        # all k symbols is a partition into k parts, and check_detecting
        # fails a column without
        rows = data.draw(st.lists(st.lists(st.integers(1, k), min_size=p, max_size=p),
                                  min_size=n, max_size=n))
        text = "\n".join([f"DA {n} {k} {p}"] + [" ".join(map(str, r)) for r in rows])
        arr = DetectingArray.from_text(text + "\n")
        if all({row[j] for row in arr.rows} == set(range(1, k + 1)) for j in range(p)):
            assert check_partition_system(from_detecting_array(arr)).ok
        else:
            assert not check_detecting(arr).ok

    def test_rows_past_the_declared_count_rejected(self, tmp_path, capsys):
        text = to_detecting_array(construct_uniform(4, 2)).to_text()
        path = tmp_path / "extra.da"
        path.write_text(text)
        assert main(["verify", str(path)]) == 0
        extra = text + "1 1 1\n"
        with pytest.raises(ValueError, match="line 6"):
            DetectingArray.from_text(extra)
        path.write_text(extra)
        assert main(["verify", str(path)]) == 2
        assert "parse error: line 6" in capsys.readouterr().err

    def test_detecting_equivalent_to_sperner_small(self):
        for system in small_fleet():
            want = check_sperner(system).ok
            got = check_detecting(to_detecting_array(system)).ok
            assert got == want
        # and on a planted failure
        parts = [(0, 1), (2, 3)]
        bad = PartitionSystem(4, 2, [parts, list(parts)])
        assert not check_sperner(bad).ok
        assert not check_detecting(to_detecting_array(bad)).ok

    def test_agrees_with_mask_oracle(self):
        arrays = [to_detecting_array(system) for system in small_fleet()]
        verdicts = Counter()
        for arr in random_arrays():
            want = oracle_check_detecting(arr)
            assert check_detecting(arr).ok == want
            verdicts[want] += 1
        assert verdicts[True] >= 90 and verdicts[False] >= 190
        for arr in (to_detecting_array(system) for system in small_fleet()):
            assert check_detecting(arr).ok == oracle_check_detecting(arr)


def certified_fleet():
    """Systems with family metadata: grouped constructions in both cases
    and IP realizations with and without padding."""
    fleet = [construct_grouped(plan_grouped(n, k, m, h, "b"), seed=0)
             for (n, k, m, h) in [(8, 3, 2, 4), (10, 4, 2, 5), (16, 6, 2, 8),
                                  (22, 8, 2, 11), (28, 10, 2, 14),
                                  (36, 15, 4, 9)]]
    fleet.append(construct_grouped(plan_grouped(36, 11, 6, 6, "a"), seed=0))
    inst = build_instance(10, 3, "secA")
    fleet.append(realize_system(inst, exact_solve(inst)[0], seed=0))
    inst = build_instance(16, 5, "secA")
    fleet.append(realize_system(inst, exact_solve(inst)[0], seed=0))
    inst = build_instance(34, 5, "secB")
    fleet.append(realize_system(inst, IpSolution(inst, {(1, 1): 2, (2, 2): 1}),
                                seed=0))
    return fleet


def oracle_check_certificate(system) -> bool:
    """The materialized-system certificate check by frozenset intersections
    per part and group, kept as the oracle: families keyed by (size,
    signature), each of capacity the product of comb(|G_w|, sig_w)."""
    if system.groups is None:
        return False
    ok = True
    groups = [frozenset(g) for g in system.groups]
    seen = set()
    usage = Counter()
    for parts in system.partitions:
        ok &= len(parts) == system.k
        for part in parts:
            ok &= frozenset(part) not in seen
            seen.add(frozenset(part))
            sig = tuple(len(g.intersection(part)) for g in groups)
            ok &= sum(sig) == len(part)
            usage[len(part), sig] += 1
        for g in groups:
            ok &= sum(len(g.intersection(part)) for part in parts) == len(g)
    sizes = sorted({size for size, _ in usage})
    ok &= not sizes or sizes[-1] - sizes[0] <= 1
    if len(sizes) == 2:
        small = [sig for size, sig in usage if size == sizes[0]]
        large = [sig for size, sig in usage if size == sizes[1]]
        ok &= not any(all(x <= y for x, y in zip(sa, sb))
                      for sa in small for sb in large)
    for (_, sig), cnt in usage.items():
        ok &= cnt <= math.prod(math.comb(len(g), x) for g, x in zip(groups, sig))
    return ok


def _swap(parts, a, b, x, y):
    """Exchange point x of part a with point y of part b."""
    parts[a] = tuple(sorted(set(parts[a]) - {x} | {y}))
    parts[b] = tuple(sorted(set(parts[b]) - {y} | {x}))


def _block_out_of_group(parts, groups):
    """Move a point of another group into a part that lies in one group."""
    a, home = next((j, set(g)) for j, q in enumerate(parts) for g in groups
                   if set(g).issuperset(q))
    b, y = next((j, y) for j, q in enumerate(parts) for y in q if y not in home)
    _swap(parts, a, b, min(parts[a]), y)


def _transversal_twice(parts, groups):
    """Give a part that meets several groups a second point of one of them."""
    group_of = {e: w for w, g in enumerate(groups) for e in g}
    cross = [j for j, q in enumerate(parts) if len({group_of[e] for e in q}) > 1]
    for a in cross:
        for b in cross[cross.index(a) + 1:]:
            for x in parts[a]:
                for y in parts[b]:
                    gy = group_of[y]
                    if group_of[x] != gy and gy in {group_of[e] for e in parts[a]}:
                        return _swap(parts, a, b, x, y)
    raise LookupError("no two transversals to exchange points between")


def _drop_part(parts, groups):
    del parts[-1]


# name -> (mutation of class 0's parts, violation text, systems it applies to)
MUTATIONS = {
    "block-out-of-group": (_block_out_of_group, "dominated", ("grouped",)),
    "transversal-meets-twice": (_transversal_twice, "dominated", ("grouped",)),
    "class-of-k-1-parts": (_drop_part, "parts, want", ("grouped", "ip")),
}


def mutants():
    """(mutated system, violation text) for each planted defect, on a
    grouped system and on an IP-realized one with padding."""
    out = []
    grouped = construct_grouped(plan_grouped(16, 6, 2, 8, "b"), seed=0)
    inst = build_instance(16, 5, "secA")
    realized = realize_system(inst, exact_solve(inst)[0], seed=0)
    for sname, system in (("grouped", grouped), ("ip", realized)):
        for name, (mutate, text, systems) in MUTATIONS.items():
            if sname not in systems:
                continue
            parts = [list(q) for q in system.partitions]
            mutate(parts[0], system.groups)
            out.append(pytest.param(PartitionSystem(
                system.n, system.k, parts, system.groups), text,
                id=f"{sname}-{name}"))
        parts = [list(q) for q in system.partitions]
        parts[1] = list(parts[0])
        out.append(pytest.param(PartitionSystem(
            system.n, system.k, parts, system.groups), "reused",
            id=f"{sname}-reused-part"))
    return out


MUTANTS = mutants()


def _summary(k, group_sizes, profiles):
    p = sum(cnt for _, cnt in profiles)
    return SystemCertificate(sum(group_sizes), k, p, group_sizes, profiles)


class TestCertificates:
    def test_pass_implies_brute_force(self):
        for system in certified_fleet():
            assert check_certificate(system).ok
            assert check_sperner(system).ok

    def test_requires_metadata(self):
        rep = check_certificate(construct_uniform(6, 3))
        assert not rep.ok
        # groups that miss a point or overlap are not metadata of the system
        system = construct_grouped(plan_grouped(8, 3, 2, 4, "b"), seed=0)
        g0, g1 = system.groups
        for groups, text in (([g0, g1[1:]], "signature does not split size"),
                             ([g0, g1 + g0[:1]], "groups overlap")):
            bad = PartitionSystem(system.n, system.k, system.partitions, groups)
            rep = check_certificate(bad)
            assert any(text in v for v in rep.violations), rep.violations
            assert not oracle_check_certificate(bad)

    def test_reused_part_detected(self):
        system = construct_grouped(plan_grouped(8, 3, 2, 4, "b"), seed=0)
        parts = [list(p) for p in system.partitions]
        # plant a reuse: copy a class wholesale
        parts[1] = list(parts[0])
        bad = PartitionSystem(system.n, system.k, parts, system.groups)
        rep = check_certificate(bad)
        assert not rep.ok
        assert any("reused" in v for v in rep.violations)

    @pytest.mark.parametrize("system,text", MUTANTS)
    def test_planted_mutation(self, system, text):
        rep = check_certificate(system)
        assert not rep.ok
        assert any(text in v for v in rep.violations), rep.violations
        assert not oracle_check_certificate(system)

    def test_mutation_list(self):
        assert len(MUTANTS) == 6

    def test_reuse_above_6000_parts_fails_through_shared_index(self, monkeypatch):
        # (88,33,4,22): 8,712 parts, the size range where certified systems
        # once skipped the subset test
        system = construct_grouped(plan_grouped(88, 33, 4, 22, "b"), seed=0)
        assert sum(len(parts) for parts in system.partitions) > 6000
        parts = [list(q) for q in system.partitions]
        parts[5] = list(parts[2])
        bad = PartitionSystem(system.n, system.k, parts, system.groups)
        built = []
        real = verify.PartIndex

        def counting(partitions):
            built.append(len(partitions))
            return real(partitions)

        monkeypatch.setattr(verify, "PartIndex", counting)
        reports = verify.check_system(bad, decompose(88, 33))
        assert not all(rep.ok for rep in reports)
        notes = [rep.summary().splitlines()[0] for rep in reports]
        assert "certificate: FAIL" in notes
        assert "exact subset test: FAIL" in notes
        assert built == [len(bad.partitions)]
        index = real(bad.partitions)
        rep = check_certificate(bad, index)
        assert any("reused by classes 2 and 5" in v for v in rep.violations)
        rep = check_sperner(bad, index)
        assert any("of partition 2 is contained in" in v and "of partition 5" in v
                   for v in rep.violations)

    def test_oracle_agrees_on_fleet(self):
        fleet = certified_fleet() + small_fleet()
        for system in fleet:
            assert check_certificate(system).ok == oracle_check_certificate(system)
        assert sum(oracle_check_certificate(s) for s in fleet) == 15


class TestCertificateSummary:
    def test_real_certificates_pass(self):
        for n, k, variant in ((10, 3, "secA"), (16, 5, "secA"), (26, 3, "secB")):
            inst = build_instance(n, k, variant)
            rep = check_certificate_summary(certificate(inst, exact_solve(inst)[0]))
            assert rep.ok, rep.summary()

    def test_certificate_counts_the_realized_profiles(self):
        for n, k, variant in ((10, 3, "secA"), (16, 5, "secA")):
            inst = build_instance(n, k, variant)
            sol = exact_solve(inst)[0]
            system = realize_system(inst, sol, seed=0)
            half = set(system.groups[0])

            def entry(part):
                t = len(half.intersection(part))
                name = ("EA" if len(part) == inst.params.c else "EB", t)
                return name, len(part), (t, len(part) - t)
            counts = Counter(tuple(sorted(map(entry, parts)))
                             for parts in system.partitions)
            assert certificate(inst, sol).profiles == sorted(counts.items())

    def test_over_capacity(self):
        # size 3 and signature (3, 0) with groups of 6: binom(6, 3) = 20 parts
        profile = ((("EA", 3), 3, (3, 0)), (("EA", 3), 3, (3, 0)),
                   (("EA", 0), 3, (0, 3)), (("EA", 0), 3, (0, 3)))
        assert check_certificate_summary(_summary(4, (6, 6), [(profile, 10)])).ok
        rep = check_certificate_summary(_summary(4, (6, 6), [(profile, 1000)]))
        assert not rep.ok
        assert any("capacity 20" in v for v in rep.violations), rep.violations

    def test_mixed_large_layer(self):
        profile = ((("A", 1, 1), 2, (1, 1)), (("B", 1), 3, (3, 0)),
                   (("B", 1), 4, (4, 0)), (("B", 2), 3, (0, 3)),
                   (("B", 2), 4, (0, 4)))
        rep = check_certificate_summary(_summary(5, (8, 8), [(profile, 1)]))
        assert rep.violations == ["part sizes [2, 3, 4] are not c and c+1"]

    def test_dominated_signature(self):
        profile = ((("EA", 2), 3, (2, 1)), (("EA", 1), 3, (1, 2)),
                   (("EB", 2), 4, (2, 2)))
        rep = check_certificate_summary(_summary(3, (5, 5), [(profile, 1)]))
        assert len(rep.violations) == 1
        assert "dominated" in rep.violations[0]

    def test_count_differs_from_p(self):
        inst = build_instance(10, 3, "secA")
        cert = certificate(inst, exact_solve(inst)[0])
        for p in (cert.p - 1, cert.p + 1):
            bad = SystemCertificate(cert.n, cert.k, p, cert.group_sizes, cert.profiles)
            rep = check_certificate_summary(bad)
            assert rep.violations == [f"profiles cover {cert.p} classes, want {p}"]
