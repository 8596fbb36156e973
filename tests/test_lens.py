import math
import random

import pytest

from spinebound import (
    Exactness,
    LONGITUDE,
    LensSpace,
    MERIDIAN,
    PathKind,
    Slope,
    equivalent_reps,
    even_trace,
    is_even_vertex,
    normalize,
    prop_bound_table,
    twisted_bound,
    untwisted_bound,
)


class TestNormalize:
    def test_mod_reduction(self):
        assert normalize(7, 9) == LensSpace(7, 2)
        assert normalize(5, -1) == LensSpace(5, 4)

    def test_gcd_rejected(self):
        with pytest.raises(ValueError):
            normalize(4, 2)

    def test_excluded_manifolds(self):
        with pytest.raises(ValueError):
            normalize(1, 0)
        with pytest.raises(ValueError):
            normalize(0, 1)

    def test_multiple_of_p_rejected(self):
        with pytest.raises(ValueError):
            normalize(5, 10)


class TestEquivalentReps:
    def test_examples(self):
        assert equivalent_reps(LensSpace(7, 2)) == {
            LensSpace(7, 2), LensSpace(7, 5), LensSpace(7, 4), LensSpace(7, 3)
        }
        assert equivalent_reps(LensSpace(5, 4)) == {LensSpace(5, 4), LensSpace(5, 1)}
        assert equivalent_reps(LensSpace(2, 1)) == {LensSpace(2, 1)}

    def test_closure(self):
        rng = random.Random(12)
        for _ in range(40):
            p = rng.randint(2, 100)
            q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
            reps = equivalent_reps(LensSpace(p, q))
            for member in reps:
                assert equivalent_reps(member) == reps

    def test_equivalence_relation(self):
        # reflexive + symmetric come from closure; spot-check transitivity
        for p in range(2, 60):
            classes = {}
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                key = min(r.q for r in equivalent_reps(LensSpace(p, q)))
                classes.setdefault(key, set()).add(q)
            for key, members in classes.items():
                assert {r.q for r in equivalent_reps(LensSpace(p, key))} == members


class TestTwistedBound:
    def test_integer_family(self):
        for n in range(2, 10):
            res = twisted_bound(LensSpace(n, 1))
            assert res.n == 1
            assert res.path.vertices == (MERIDIAN, LONGITUDE, Slope(n, 1))
            assert res.exactness is Exactness.CERTIFIED

    def test_7_2(self):
        res = twisted_bound(LensSpace(7, 2))
        assert res.n == 2
        assert [str(v) for v in res.path.vertices] == ["0/1", "1/0", "3/1", "7/2"]

    def test_5_4_uses_better_representative(self):
        res = twisted_bound(LensSpace(5, 4))
        assert res.n == 1
        assert res.representative == LensSpace(5, 1)
        assert res.path.vertices == (MERIDIAN, LONGITUDE, Slope(5, 1))

    def test_19_18_uses_integer_representative(self):
        res = twisted_bound(LensSpace(19, 18))
        assert res.n == 1
        assert res.representative == LensSpace(19, 1)


class TestUntwistedBound:
    def test_7_2(self):
        res = untwisted_bound(LensSpace(7, 2))
        assert res.n == 2
        assert [str(v) for v in res.path.vertices] == ["0/1", "1/0", "4/1", "7/2"]
        assert res.path.kind is PathKind.EVEN_FAREY

    def test_4_1(self):
        res = untwisted_bound(LensSpace(4, 1))
        assert res.n == 1
        assert res.path.vertices == (MERIDIAN, LONGITUDE, Slope(4, 1))

    def test_19_18_trace_value(self):
        res = untwisted_bound(LensSpace(19, 18))
        assert res.n == 18
        assert res.representative == LensSpace(19, 18)
        assert res.path.vertices[:3] == (MERIDIAN, LONGITUDE, Slope(2, 1))
        assert res.path.vertices[-1] == Slope(19, 18)

    def test_long_even_trace_is_certified(self):
        # The even trace 0/1, 1/0, 2/1, ..., 81/80 is the exact answer.
        res = untwisted_bound(LensSpace(81, 1))
        assert res.exactness is Exactness.CERTIFIED
        assert res.n == 80
        assert res.representative == LensSpace(81, 80)
        ladder = tuple(Slope(k + 1, k) for k in range(1, 81))
        assert res.path.vertices == (MERIDIAN, LONGITUDE) + ladder

    def test_3_1_via_3_2(self):
        res = untwisted_bound(LensSpace(3, 1))
        assert res.n == 2
        assert res.representative == LensSpace(3, 2)
        assert [str(v) for v in res.path.vertices] == ["0/1", "1/0", "2/1", "3/2"]

    def test_every_witness_vertex_even(self):
        rng = random.Random(13)
        for _ in range(25):
            p = rng.randint(2, 50)
            q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
            res = untwisted_bound(LensSpace(p, q))
            assert all(is_even_vertex(v) for v in res.path.vertices)
            assert res.n == res.path.edges - 1

    def test_shortest_even_trace_for_every_lens_space_to_300(self):
        """n is one less than the shortest even trace over the even
        representatives, and the walk is that trace reversed, the smaller
        q winning ties.  The bound depends only on the class of
        representatives, so one member per class covers every lens space
        with p <= 300."""
        for p in range(2, 301):
            done = set()
            for q in range(1, p):
                if math.gcd(p, q) != 1 or q in done:
                    continue
                reps = sorted(equivalent_reps(LensSpace(p, q)), key=lambda r: r.q)
                done.update(r.q for r in reps)
                targets = [Slope(r.p, r.q) for r in reps if is_even_vertex(Slope(r.p, r.q))]
                best = min((even_trace(t) for t in targets), key=lambda t: t.edges)
                res = untwisted_bound(LensSpace(p, q))
                assert res.n == best.edges - 1, (p, q)
                assert res.path.vertices[1:] == best.vertices[-2::-1], (p, q)
                assert res.exactness is Exactness.CERTIFIED

    def test_never_below_twisted(self):
        rng = random.Random(14)
        for _ in range(25):
            p = rng.randint(2, 50)
            q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
            lens = LensSpace(p, q)
            assert twisted_bound(lens).n <= untwisted_bound(lens).n


class TestBoundTable:
    def test_small_table_rows(self):
        rows = {(r.lens.p, r.lens.q): r for r in prop_bound_table(5)}
        assert rows[(2, 1)].twisted.n == 1
        assert rows[(2, 1)].untwisted.n == 1
        assert rows[(3, 1)].twisted.n == 1
        assert rows[(3, 1)].untwisted.n == 2
        assert rows[(5, 1)].twisted.n == 1

    def test_one_row_per_class(self):
        rows = prop_bound_table(12)
        seen = set()
        for row in rows:
            reps = frozenset(equivalent_reps(row.lens))
            assert reps not in seen
            seen.add(reps)
            assert row.lens.q == min(r.q for r in reps)

    def test_untwisted_below_p(self):
        for row in prop_bound_table(12):
            assert row.untwisted.n <= row.lens.p - 1
