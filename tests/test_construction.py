import gc
import random
import tracemalloc

import pytest

from sperner import baranyai
from sperner.cli import main
from sperner.combinat import binom, decompose
from sperner.construction import (PartitionSystem, balanced_matrix,
                                  construct_grouped, construct_uniform,
                                  extend_system, plan_grouped)
from sperner.ip import build_instance, exact_solve, realize_system
from sperner.verify import (check_almost_uniform, check_certificate,
                            check_partition_system, check_sperner)


def greedy_balanced_matrix(n_rows, n_cols, low, n_high):
    """Oracle: the row-by-row greedy, each new row putting its larger
    entries on the columns of currently minimum sum, least index first."""
    mat = []
    sums = [0] * n_cols
    for _ in range(n_rows):
        order = sorted(range(n_cols), key=lambda j: (sums[j], j))
        row = [low] * n_cols
        for j in order[:n_high]:
            row[j] = low + 1
        for j in range(n_cols):
            sums[j] += row[j]
        mat.append(row)
    return mat


class TestBalancedMatrix:
    def test_small_example(self):
        mat = balanced_matrix(3, 4, 0, 2)
        for row in mat:
            assert sorted(row) == [0, 0, 1, 1]
        sums = [sum(col) for col in zip(*mat)]
        assert max(sums) - min(sums) <= 1
        assert set(sums) <= {1, 2}

    def test_single_row(self):
        assert balanced_matrix(1, 5, 7, 0) == [[7] * 5]

    def test_all_promoted(self):
        mat = balanced_matrix(4, 4, 0, 4)
        assert mat == [[1] * 4] * 4
        assert [sum(col) for col in zip(*mat)] == [4] * 4

    def test_invariants_exhaustive(self):
        # the closed form against the greedy oracle, with its row counts and
        # its column sums
        for s1 in (*range(1, 9), 40):
            for s2 in range(1, 25):
                for x in range(3):
                    for a in range(s2 + 1):
                        shape = (s1, s2, x, a)
                        mat = balanced_matrix(*shape)
                        assert mat == greedy_balanced_matrix(*shape), shape
                        for row in mat:
                            assert row.count(x + 1) == a
                            assert row.count(x) + row.count(x + 1) == s2
                        sums = [sum(col) for col in zip(*mat)]
                        assert max(sums) - min(sums) <= 1

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            balanced_matrix(2, 3, 0, 4)


class TestPlans:
    def test_plan_36_15(self):
        plan = plan_grouped(36, 15, 4, 9, "b")
        assert (plan.caps, plan.p) == ((18, 18), 18)
        assert plan.size == 54

    def test_plan_8_3(self):
        plan = plan_grouped(8, 3, 2, 4, "b")
        assert (plan.caps, plan.p) == ((16, 4), 4)
        assert plan.size == 4

    def test_plan_44_18(self):
        plan = plan_grouped(44, 18, 4, 11, "b")
        assert plan.size == 72

    def test_case_a_values(self):
        plan = plan_grouped(36, 15, 4, 9, "a")
        assert plan.caps == (17, 18) and plan.p == 17
        assert plan.size == 51

    def test_rejects_divisibility_violation(self):
        # case (b) requires p*r divisible by m; p=8, r=2, m=6 fails
        with pytest.raises(ValueError):
            plan_grouped(42, 20, 6, 7, "b")

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            plan_grouped(12, 4, 4, 3, "b")

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError):
            plan_grouped(36, 15, 5, 7, "b")
        with pytest.raises(ValueError):
            plan_grouped(36, 15, 3, 12, "b")
        # and a bad case, c < 2 (5 = 1*3 + 2) or k < 3 (5 = 2*2 + 1)
        with pytest.raises(ValueError, match="case must be 'a' or 'b', got 'c'"):
            plan_grouped(36, 15, 4, 9, "c")
        for n, k in ((5, 3), (5, 2)):
            with pytest.raises(ValueError, match=f"need c >= 2 and k >= 3, got c=., k={k}"):
                plan_grouped(n, k, 1, n, "b")


def test_caps_prove_the_supply_bounds():
    # grouped_factor's docstring proves that its caps keep T's row and
    # column sums within what one class block and one group can supply;
    # checked here on every plan with 8 <= n <= 300, both cases and p > 0
    count = 0
    for n in range(8, 301):
        for k in range(3, n):
            params = decompose(n, k)
            c, r = params.c, params.r
            if c < 2 or r == 0:
                continue
            for m in range(c, n + 1, c):
                if n % m:
                    continue
                h = n // m
                for case in "ab":
                    try:
                        plan = plan_grouped(n, k, m, h, case)
                    except ValueError:
                        continue
                    p, cols, x = plan.p, m // c, r // m
                    if p == 0:
                        continue
                    count += 1
                    # T as construct_grouped builds it; row z depends on z
                    # mod cols alone, so one period of rows gives every sum
                    rows = balanced_matrix(cols + 1, cols, x, (r - m * x) // c)
                    assert rows[cols] == rows[0]
                    assert all(sum(row) * c == r for row in rows)
                    whole, extra = divmod(p, cols)
                    sums = [whole * sum(col) + sum(col[:extra])
                            for col in zip(*rows[:cols])]
                    key = (n, k, m, case)
                    assert all(p * r // m <= s <= -(-p * r // m) for s in sums), key
                    assert all(p * h - (c + 1) * s <= h ** c for s in sums), key
                    assert all(s * plan.n_classes <= binom(h, c + 1) for s in sums), key
                    assert h >= (c + 1) * max(rows[0]), key
    assert count == 27033


def profile(parts):
    return sorted(len(p) for p in parts)


def _small_plans(n_max: int, size_max: int) -> list:
    """(n, k, m, h, case) of every nonempty grouped plan with 8 <= n <= n_max
    and at most size_max partitions."""
    out = []
    for n in range(8, n_max + 1):
        for k in range(3, n):
            params = decompose(n, k)
            if params.c < 2 or params.r == 0:
                continue
            for m in range(params.c, n + 1, params.c):
                for case in "ab":
                    try:
                        plan = plan_grouped(n, k, m, n // m, case)
                    except ValueError:
                        continue
                    if 0 < plan.size <= size_max:
                        out.append((n, k, m, n // m, case))
    return out


# includes the c = 3 plans whose transversals are all forced, such as
# (27,7,3,9), where every row of T is 2
SMALL_PLANS = _small_plans(36, 2000)


class TestConstructGrouped:
    @pytest.mark.parametrize("n,k,m,h", [(8, 3, 2, 4), (10, 4, 2, 5), (16, 6, 2, 8),
                                         (36, 15, 4, 9)])
    def test_tight_instances(self, n, k, m, h):
        plan = plan_grouped(n, k, m, h, "b")
        system = construct_grouped(plan, seed=0)
        params = decompose(n, k)
        assert system.size == plan.size
        assert check_partition_system(system).ok
        assert check_almost_uniform(system, params).ok
        assert check_certificate(system).ok
        assert check_sperner(system).ok

    def test_higher_c_instance(self):
        # c = 3 with case (a): 20 partitions of a 36-set into 11 parts
        plan = plan_grouped(36, 11, 6, 6, "a")
        assert plan.p == 2 and plan.size == 20
        system = construct_grouped(plan, seed=0)
        assert system.size == 20
        assert check_partition_system(system).ok
        assert check_almost_uniform(system, decompose(36, 11)).ok
        assert check_certificate(system).ok
        assert check_sperner(system).ok

    def test_small_plan_list(self):
        assert len(SMALL_PLANS) == 178
        assert (27, 7, 3, 9, "b") in SMALL_PLANS

    @pytest.mark.parametrize("n", range(8, 37))
    def test_every_small_plan_builds(self, n):
        for _, k, m, h, case in (key for key in SMALL_PLANS if key[0] == n):
            plan = plan_grouped(n, k, m, h, case)
            system = construct_grouped(plan, seed=0)
            assert system.size == plan.size, (k, m, case)
            assert check_sperner(system).ok, (k, m, case)
            assert check_certificate(system).ok, (k, m, case)
            assert check_almost_uniform(system, decompose(n, k)).ok, (k, m, case)

    def test_empty_plan(self):
        plan = plan_grouped(18, 8, 6, 3, "b")
        assert plan.p == 0
        system = construct_grouped(plan, seed=0)
        assert system.size == 0

    def test_deterministic_for_seed(self):
        plan = plan_grouped(16, 6, 2, 8, "b")
        a = construct_grouped(plan, seed=3)
        b = construct_grouped(plan, seed=3)
        assert a.canonical() == b.canonical()


class TestConstructUniform:
    def test_six_three(self):
        system = construct_uniform(6, 3)
        assert system.size == 5
        assert all(profile(parts) == [2, 2, 2] for parts in system.partitions)
        assert check_sperner(system).ok

    def test_k_one(self):
        system = construct_uniform(4, 1)
        assert system.size == 1
        assert system.partitions[0] == [(0, 1, 2, 3)]

    def test_twelve_four(self):
        system = construct_uniform(12, 4)
        assert system.size == binom(11, 2)
        assert check_partition_system(system).ok
        assert check_sperner(system).ok

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError):
            construct_uniform(10, 3)


class TestExtend:
    def test_single_extension(self):
        base = construct_uniform(6, 3)
        ext = extend_system(base)
        assert ext.n == 7 and ext.size == 5
        assert all(profile(parts) == [2, 2, 3] for parts in ext.partitions)
        assert check_partition_system(ext).ok
        assert check_sperner(ext).ok

    def test_triple_extension(self):
        system = construct_uniform(6, 3)
        for _ in range(3):
            system = extend_system(system)
        assert system.n == 9 and system.size == 5
        assert check_partition_system(system).ok
        assert check_sperner(system).ok
        assert check_almost_uniform(system, decompose(9, 3)).ok

    def test_extend_empty(self):
        empty = PartitionSystem(5, 3, [])
        assert extend_system(empty).size == 0


class TestPartForm:
    """Every part leaves the program as a sorted tuple of ints."""

    @staticmethod
    def systems():
        inst = build_instance(16, 5, "secA")
        return [construct_grouped(plan_grouped(36, 15, 4, 9, "b"), seed=0),
                construct_grouped(plan_grouped(99, 30, 9, 11, "b"), seed=0),
                construct_uniform(16, 4), construct_uniform(12, 4),
                extend_system(construct_uniform(6, 3)),
                realize_system(inst, exact_solve(inst)[0], seed=0)]

    def test_parts_are_sorted_tuples(self):
        for system in self.systems():
            for parts in system.partitions:
                assert all(type(p) is tuple and list(p) == sorted(set(p)) for p in parts)

    def test_text_round_trip_gives_equal_tuples(self):
        for system in self.systems():
            back = PartitionSystem.from_text(system.to_text())
            assert back.partitions == system.canonical()
            assert all(type(p) is tuple for parts in back.partitions for p in parts)

    def test_parts_take_under_100_bytes_each(self):
        # every part of a grouped system with c = 2 is made by
        # partition_ground: what its module still holds after the build is
        # the parts (a frozenset of any size takes at least 216 B).  Tuples
        # reused from the interpreter's free lists are not traced, so the
        # average is taken over the traced ones, at least half of the parts.
        plan = plan_grouped(88, 33, 4, 22, "b")
        tracemalloc.start()
        try:
            system = construct_grouped(plan, seed=0)
            gc.collect()
            held = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, baranyai.__file__)]).statistics("filename")
        finally:
            tracemalloc.stop()
        n_parts = sum(map(len, system.partitions))
        assert n_parts == 8712
        count = sum(st.count for st in held)
        assert count >= n_parts / 2
        assert sum(st.size for st in held) <= 100 * count


class TestSpsFormat:
    def test_round_trip(self):
        system = construct_uniform(6, 3)
        text = system.to_text()
        back = PartitionSystem.from_text(text)
        assert back.n == 6 and back.k == 3
        assert back.canonical() == system.canonical()

    def test_text_follows_canonical_order(self):
        def via_canonical(system):
            # parts by least element, then partitions lexicographically
            rows = sorted(sorted(map(sorted, parts), key=min) for parts in system.partitions)
            assert system.canonical() == [list(map(tuple, parts)) for parts in rows]
            lines = [f"SPS {system.n} {system.k} {system.size}"]
            lines += [" | ".join(" ".join(map(str, p)) for p in parts) for parts in rows]
            return "\n".join(lines) + "\n"

        grouped = construct_grouped(plan_grouped(36, 15, 4, 9, "b"), seed=0)
        rng = random.Random(0)
        shuffled = [rng.sample(parts, len(parts)) for parts in grouped.partitions]
        rng.shuffle(shuffled)
        parsed = PartitionSystem.from_text(
            "SPS 6 3 4\n5 4 | 1 0 | 3 2\n2 0 | 5 1 | 4 3\n4 5 | 0 1 | 2 3\n3 | 0 1 2 | 5 4\n")
        for system in (grouped, PartitionSystem(36, 15, shuffled),
                       construct_uniform(12, 4), parsed):
            assert system.to_text() == via_canonical(system)
        assert parsed.to_text().splitlines()[1:3] == ["0 1 | 2 3 | 4 5"] * 2

    def test_header_line(self):
        system = construct_uniform(6, 3)
        assert system.to_text().splitlines()[0] == "SPS 6 3 5"

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 1"):
            PartitionSystem.from_text("BOGUS 1 2 3\n")
        with pytest.raises(ValueError, match="line 2"):
            PartitionSystem.from_text("SPS 4 2 1\n0 1 | 2 x\n")
        with pytest.raises(ValueError, match="line 2"):
            PartitionSystem.from_text("SPS 4 3 1\n0 1 | 2 3\n")
        with pytest.raises(ValueError, match="^empty input$"):
            PartitionSystem.from_text("")

    def test_lines_past_the_declared_count_rejected(self, tmp_path, capsys):
        # the second line would show {0,1} inside {0,1,2}; a parser that
        # stops after the header's count would pass the file
        text = "SPS 4 2 1\n0 1 | 2 3\n0 1 2 | 3\n"
        with pytest.raises(ValueError, match="line 3"):
            PartitionSystem.from_text(text)
        path = tmp_path / "extra.sps"
        path.write_text(text)
        assert main(["verify", str(path)]) == 2
        assert "parse error: line 3" in capsys.readouterr().err
        path.write_text("SPS 4 2 1\n0 1 | 2 3\n\n  \n")
        assert main(["verify", str(path)]) == 0
