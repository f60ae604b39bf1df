import itertools
import random

import pytest

from sperner.baranyai import (Resolution, allocate_blocks, partition_ground,
                              resolve, verify_resolution)
from sperner.combinat import binom


class TestResolve:
    def test_k4_factorization(self):
        res = resolve(4, 2)
        assert res.n_classes == 3
        for cls in res.classes:
            assert len(cls) == 2
            a, b = cls
            assert not set(a) & set(b)
        assert {blk for cls in res.classes for blk in cls} == \
            set(itertools.combinations(range(1, 5), 2))

    def test_single_block(self):
        res = resolve(4, 4)
        assert res.classes == [[(1, 2, 3, 4)]]

    def test_six_choose_three(self):
        res = resolve(6, 3)
        assert res.n_classes == 10
        blocks = [blk for cls in res.classes for blk in cls]
        assert len(blocks) == 20
        assert set(blocks) == set(itertools.combinations(range(1, 7), 3))
        for cls in res.classes:
            assert len(cls) == 2 and not set(cls[0]) & set(cls[1])

    def test_eight_pairs_coverage(self):
        res = resolve(8, 2)
        assert res.n_classes == 7
        assert sum(len(cls) for cls in res.classes) == 28 == binom(8, 2)
        assert not verify_resolution(res)

    @pytest.mark.parametrize("m,c", [(m, c) for m in range(2, 13)
                                     for c in (2, 3, 4, 6) if m % c == 0 and m >= c])
    def test_all_small_resolutions_valid(self, m, c):
        res = resolve(m, c)
        assert verify_resolution(res) == []
        assert res.n_classes == binom(m - 1, c - 1)
        assert all(len(cls) == m // c for cls in res.classes)

    @pytest.mark.parametrize("m,c", [(1, 1), (3, 3), (5, 5), (6, 6), (9, 9), (30, 30),
                                     (2, 1), (3, 1), (7, 1), (12, 1), (30, 1)])
    def test_one_block_and_singletons_through_the_flow(self, m, c):
        # c = m and c = 1 have one class each, which the flow builds
        expect = [[tuple(range(1, m + 1))]] if c == m else [[(e,) for e in range(1, m + 1)]]
        res = resolve(m, c)
        assert res.classes == expect
        assert not verify_resolution(res)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            resolve(7, 2)


class TestVerifyResolution:
    def test_planted_duplicate(self):
        res = resolve(4, 2)
        classes = [list(cls) for cls in res.classes]
        classes[1][0] = classes[0][0]
        bad = Resolution(4, 2, classes)
        violations = verify_resolution(bad)
        assert any("appears in classes" in v for v in violations)

    def test_planted_bad_cover(self):
        classes = [[(1, 2), (1, 3)]]
        bad = Resolution(4, 2, classes)
        violations = verify_resolution(bad)
        assert violations
        # a class of the wrong size, and a block of the wrong size
        violations = verify_resolution(Resolution(4, 2, [[(1, 2, 3)]]))
        assert "class 0: 1 blocks, want 2" in violations
        assert "class 0: block [1, 2, 3] has size 3" in violations


class TestPartitionGround:
    def test_uniform_wrapper(self):
        out = allocate_blocks(range(8), 3, [2] * 28)
        blocks = [b for unit in out for b in unit]
        assert len(set(blocks)) == 56
        for unit in out:
            assert not set(unit[0]) & set(unit[1])
        with pytest.raises(ValueError, match="unit sizes sum to 5, need 6"):
            allocate_blocks(range(4), 2, [2, 3])

    def test_uniform_wrapper_takes_an_iterator(self):
        # the points are read once, so a one-shot iterable gives the same
        # allocation as the range it came from
        want = allocate_blocks(range(4), 2, [2, 2, 2])
        assert allocate_blocks(iter(range(4)), 2, [2, 2, 2]) == want
        assert sorted(sorted(b) for unit in want for b in unit) == \
            [list(pair) for pair in itertools.combinations(range(4), 2)]

    def test_mixed_sizes_partition(self):
        # ten classes each splitting a 5-set into a 3-block and a 2-block
        out = partition_ground(range(5), [[3, 2]] * 10)
        triples = set()
        pairs = set()
        for unit in out:
            blocks = sorted(unit, key=len)
            assert [len(b) for b in blocks] == [2, 3]
            assert not set(blocks[0]) & set(blocks[1])
            pairs.add(blocks[0])
            triples.add(blocks[1])
        assert len(pairs) == 10 and len(triples) == 10

    def test_complete_pads_slack(self):
        # 3 of the 15 pairs: the rest of the pool is padded implicitly
        out = partition_ground(range(6), [[2], [2], [2]])
        blocks = [b for unit in out for b in unit]
        assert len(blocks) == 3 and len(set(blocks)) == 3

    def test_over_pool_rejected(self):
        with pytest.raises(ValueError):
            partition_ground(range(4), [[2]] * 7)

    def test_deterministic_given_rng(self):
        a = partition_ground(range(6), [[3]] * 20, rng=random.Random(7))
        b = partition_ground(range(6), [[3]] * 20, rng=random.Random(7))
        assert a == b

    def test_window_regularity(self):
        # 14 units of one triple each over a 7-set: degrees are 0 or 1
        out = partition_ground(range(7), [[3]] * binom(7, 3))
        for unit in out:
            assert len(unit) == 1

    def test_bad_size(self):
        with pytest.raises(ValueError):
            partition_ground(range(4), [[5]])

    def test_blocks_are_sorted_tuples(self):
        # whatever order the points are placed in, and with stubs or sides
        outs = [partition_ground(range(5), [[3, 2]] * 10, rng=random.Random(1)),
                partition_ground(range(6), [[2]] * 6, parents=["a"] * 6,
                                 stubs=[[(100,)]] * 6, rng=random.Random(2)),
                partition_ground(range(7), [[(2, 1), (1, 1), (0, 2)]] * 6,
                                 sides=(range(3), range(3, 7)), rng=random.Random(3))]
        for out in outs:
            for unit in out:
                assert all(type(b) is tuple and list(b) == sorted(set(b)) for b in unit)
                assert unit == sorted(unit, key=lambda b: (len(b), b))


class TestStubs:
    """Stubs: sets from outside the ground, each completed by one point."""

    OUTSIDE = (100,)

    @staticmethod
    def points_of(unit, stubs):
        """The ground points a unit's output took for its stubs."""
        return [next(iter(set(b) - set(st))) for b in unit for st in stubs
                if set(st) < set(b)]

    def test_equal_stubs_up_to_h_get_distinct_points(self):
        # 6 units under one parent, each with a pair and the same stub
        out = partition_ground(range(6), [[2]] * 6, parents=["a"] * 6,
                               stubs=[[self.OUTSIDE]] * 6)
        got = [p for unit in out for p in self.points_of(unit, [self.OUTSIDE])]
        assert sorted(got) == list(range(6))
        for unit in out:
            assert sorted(len(b) for b in unit) == [2, 2]

    def test_equal_stubs_above_h_share_points_evenly(self):
        out = partition_ground(range(6), [[]] * 9, parents=["a"] * 9,
                               stubs=[[self.OUTSIDE]] * 9)
        got = [p for unit in out for p in self.points_of(unit, [self.OUTSIDE])]
        assert len(got) == 9
        assert sorted(got.count(p) for p in range(6)) == [1, 1, 1, 2, 2, 2]

    def test_parents_are_not_coupled(self):
        # 5 equal stubs under each of two parents over 5 points, next to a
        # pair per unit: the stubs are distinct within a parent, while the
        # 10 of them together would only be held to 2 per point
        parents = ["a"] * 5 + ["b"] * 5
        for seed in range(3):
            out = partition_ground(range(5), [[2]] * 10, parents=parents,
                                   stubs=[[self.OUTSIDE]] * 10, rng=random.Random(seed))
            got = [self.points_of(unit, [self.OUTSIDE])[0] for unit in out]
            assert sorted(got[:5]) == sorted(got[5:]) == [0, 1, 2, 3, 4]

    def test_blocks_and_stubs_stay_disjoint(self):
        # each unit takes a triple and completes three stubs, which uses
        # all 6 points: the triple's and the stubs' points must be disjoint
        stubs = [[(100 + j,), (200 + j,), (300 + j,)] for j in range(20)]
        out = partition_ground(range(6), [[3]] * 20, parents=list(range(20)),
                               stubs=stubs)
        triples = set()
        for unit, st in zip(out, stubs):
            blocks = [b for b in unit if len(b) == 3]
            filled = [b for b in unit if len(b) == 2]
            assert len(blocks) == 1 and len(filled) == 3
            triples.add(blocks[0])
            used = sorted(set(blocks[0]) | set(self.points_of(filled, st)))
            assert used == list(range(6))
        assert len(triples) == binom(6, 3)

    def test_deterministic_given_rng(self):
        def run(seed):
            return partition_ground(range(5), [[2]] * 10, parents=[z % 2 for z in range(10)],
                                    stubs=[[self.OUTSIDE, (z + 10,)]
                                           for z in range(10)],
                                    rng=random.Random(seed))
        assert run(3) == run(3)

    def test_stub_meeting_the_ground_rejected(self):
        with pytest.raises(ValueError):
            partition_ground(range(4), [[]], stubs=[[(2,)]])


class TestSides:
    """A ground split into sides, with block sizes as per-side tuples."""

    SIDES = (range(3), range(3, 7))
    FIRST = frozenset(range(3))

    def blocks_by_type(self, out):
        """Every unit partitions the ground; its blocks grouped by type."""
        by_type = {}
        for unit in out:
            assert sorted(e for b in unit for e in b) == list(range(7))
            for b in unit:
                t = len(self.FIRST.intersection(b))
                by_type.setdefault((t, len(b) - t), []).append(b)
        return by_type

    @pytest.mark.parametrize("seed", range(4))
    def test_partial_family(self, seed):
        # 6 units split 3 + 4 points into (2,1), (1,1) and (0,2) blocks:
        # 6 of the 12 (2,1) and (1,1) blocks, all 6 (0,2) blocks
        out = partition_ground(range(7), [[(2, 1), (1, 1), (0, 2)]] * 6,
                               sides=self.SIDES, rng=random.Random(seed))
        by_type = self.blocks_by_type(out)
        assert sorted(by_type) == [(0, 2), (1, 1), (2, 1)]
        for blocks in by_type.values():
            assert len(set(blocks)) == len(blocks) == 6

    def test_side_blocks_repeat_with_distinct_completions(self):
        # 9 of the 12 (2,1) blocks: some side-one pair occurs more than
        # once, which only the typed census allows
        out = partition_ground(range(7), [[(2, 1), (1, 3)]] * 9, sides=self.SIDES,
                               rng=random.Random(0))
        by_type = self.blocks_by_type(out)
        for blocks in by_type.values():
            assert len(set(blocks)) == len(blocks) == 9
        pairs = [tuple(e for e in b if e in self.FIRST) for b in by_type[(2, 1)]]
        assert len(set(pairs)) < len(pairs)

    def test_over_pool_rejected(self):
        with pytest.raises(ValueError, match="exceed the pool"):
            partition_ground(range(7), [[(0, 2), (3, 2)]] * 7, sides=self.SIDES)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            partition_ground(range(7), [[(1, 1)]], sides=(range(3), range(4, 7)))
        with pytest.raises(ValueError):
            partition_ground(range(7), [[2]], sides=self.SIDES)
        with pytest.raises(ValueError):
            partition_ground(range(7), [[(1, 1)]], sides=self.SIDES,
                             stubs=[[(100,)]])
