import math
import random

import pytest

import oracles
from spinebound import (
    DomainError,
    InvalidSlopeError,
    LONGITUDE,
    MERIDIAN,
    NoPathWithinCap,
    PathKind,
    Slope,
    SlopePath,
    canonical,
    common_neighbors,
    farey_det,
    farey_distance,
    farey_parents,
    is_even_vertex,
    neighbors,
)
from spinebound import farey


def S(text):
    return Slope.parse(text)


class TestCanonical:
    def test_gcd_reduction(self):
        assert canonical(6, 4) == Slope(3, 2)

    def test_sign_normalization(self):
        assert canonical(-3, -2) == Slope(3, 2)

    def test_infinity_representative(self):
        assert canonical(5, 0) == Slope(1, 0)

    def test_zero_zero_rejected(self):
        with pytest.raises(InvalidSlopeError):
            canonical(0, 0)

    def test_noncanonical_constructor_rejected(self):
        with pytest.raises(InvalidSlopeError):
            Slope(2, 4)
        with pytest.raises(InvalidSlopeError):
            Slope(3, -1)
        with pytest.raises(InvalidSlopeError):
            Slope(0, 0)

    def test_idempotent_and_antipodal(self):
        rng = random.Random(1)
        for _ in range(500):
            p, q = rng.randint(-60, 60), rng.randint(-60, 60)
            if (p, q) == (0, 0):
                continue
            s = canonical(p, q)
            assert canonical(s.p, s.q) == s
            assert canonical(-p, -q) == s

    def test_parse_roundtrip(self):
        assert S("7/2") == Slope(7, 2)
        assert S("-3/1") == Slope(-3, 1)
        assert S("1/0") == Slope(1, 0)
        with pytest.raises(InvalidSlopeError):
            S("0/0")
        with pytest.raises(InvalidSlopeError):
            S("7")


class TestDet:
    def test_basis_pair(self):
        assert farey_det(S("0/1"), S("1/0")) == -1

    def test_adjacent_path_vertices(self):
        # (3,1) and (7,2) sit on consecutive layers of the L(7,2) walk
        assert farey_det(S("3/1"), S("7/2")) == -1

    def test_direct_arithmetic(self):
        assert farey_det(S("1/0"), S("3/1")) == 1

    def test_antisymmetry(self):
        rng = random.Random(2)
        slopes = [canonical(rng.randint(-30, 30), rng.randint(0, 30) or 1) for _ in range(40)]
        for a in slopes:
            for b in slopes:
                assert farey_det(a, b) == -farey_det(b, a)


class TestEvenVertex:
    def test_examples(self):
        assert is_even_vertex(S("7/2"))
        assert not is_even_vertex(S("3/1"))
        assert is_even_vertex(S("1/0"))


class TestParents:
    def test_examples(self):
        assert farey_parents(S("7/2")) == (Slope(3, 1), Slope(4, 1))
        assert farey_parents(S("5/4")) == (Slope(1, 1), Slope(4, 3))
        assert farey_parents(S("1/1")) == (Slope(1, 0), Slope(0, 1))

    def test_roots_have_no_parents(self):
        with pytest.raises(DomainError):
            farey_parents(MERIDIAN)
        with pytest.raises(DomainError):
            farey_parents(LONGITUDE)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            farey_parents(S("-3/2"))

    def test_mediant_identities_small(self):
        # exhaustively to 120 here; the acceptance suite pushes to 500
        for p in range(0, 121):
            for q in range(0, 121):
                if p + q < 2 or math.gcd(p, q) != 1:
                    continue
                s = Slope(p, q)
                a, c = farey_parents(s)
                assert a.p + c.p == p and a.q + c.q == q
                assert abs(farey_det(a, c)) == 1
                assert abs(farey_det(a, s)) == 1
                assert abs(farey_det(c, s)) == 1
                assert (a.q, a.p) <= (c.q, c.p)


class TestNeighbors:
    def test_meridian_cap3(self):
        expect = [(1, 0), (-1, 1), (1, 1), (-1, 2), (1, 2), (-1, 3), (1, 3)]
        assert [(t.p, t.q) for t in neighbors(S("0/1"), 3)] == sorted(
            expect, key=lambda t: (t[1], t[0])
        )

    def test_longitude_cap2(self):
        expect = [(-2, 1), (-1, 1), (0, 1), (1, 1), (2, 1)]
        assert [(t.p, t.q) for t in neighbors(S("1/0"), 2)] == expect

    def test_membership(self):
        assert Slope(4, 3) in neighbors(S("5/4"), 4)

    def test_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(25):
            s = canonical(rng.randint(-8, 8), rng.randint(0, 8) or 1)
            cap = rng.randint(max(abs(s.p), s.q, 1), 12)
            got = [(t.p, t.q) for t in neighbors(s, cap)]
            assert got == oracles.naive_neighbors((s.p, s.q), cap)

    def test_every_small_slope_and_cap_against_brute_force(self):
        """The closed-form runs match the scan for every slope with
        |p|, q <= 12 at every cap from its complexity to 14."""
        for p, q in oracles.all_slopes(12):
            s = Slope(p, q)
            for cap in range(max(abs(p), q), 15):
                want = oracles.naive_neighbors((p, q), cap)
                assert [(t.p, t.q) for t in neighbors(s, cap)] == want, (s, cap)

    def test_monotone_in_cap_and_all_dual(self):
        for s in (S("0/1"), S("1/0"), S("7/2"), S("-5/3")):
            smaller = set(neighbors(s, 9))
            larger = set(neighbors(s, 17))
            assert smaller <= larger
            for t in larger:
                assert abs(farey_det(s, t)) == 1


class TestCommonNeighbors:
    def test_examples(self):
        assert common_neighbors(S("1/0"), S("3/1")) == [Slope(2, 1), Slope(4, 1)]
        assert common_neighbors(S("0/1"), S("1/0")) == [Slope(-1, 1), Slope(1, 1)]
        assert common_neighbors(S("0/1"), S("7/2")) == []

    def test_degenerate_input(self):
        with pytest.raises(ValueError):
            common_neighbors(S("3/2"), S("3/2"))

    def test_against_neighbor_intersection(self):
        rng = random.Random(4)
        for _ in range(40):
            a = canonical(rng.randint(-7, 7), rng.randint(0, 7) or 1)
            b = canonical(rng.randint(-7, 7), rng.randint(0, 7) or 1)
            if a == b:
                continue
            got = set(common_neighbors(a, b))
            # any solution has coordinates bounded by |p_a| + |p_b|, q_a + q_b
            cap = abs(a.p) + abs(b.p) + a.q + b.q + 2
            brute = set(neighbors(a, cap)) & set(neighbors(b, cap))
            assert got == brute


class TestDistance:
    def test_identity(self):
        d, path = farey_distance(S("0/1"), S("0/1"), 8)
        assert d == 0 and path.vertices == (MERIDIAN,)

    def test_paper_walk(self):
        d, path = farey_distance(S("0/1"), S("7/2"), 32)
        assert d == 3
        assert [str(v) for v in path.vertices] == ["0/1", "1/0", "3/1", "7/2"]

    def test_integer_slopes_via_longitude(self):
        for n in range(2, 9):
            d, path = farey_distance(S("0/1"), Slope(n, 1), max(8, n))
            assert d == 2
            assert path.vertices == (MERIDIAN, LONGITUDE, Slope(n, 1))

    def test_cap_below_endpoints_rejected(self):
        with pytest.raises(ValueError):
            farey_distance(S("0/1"), S("7/2"), 3)

    def test_matches_naive_bfs(self):
        rng = random.Random(5)
        cap = 12
        verts = [v for v in oracles.all_slopes(6)]
        for _ in range(30):
            a = Slope(*rng.choice(verts))
            b = Slope(*rng.choice(verts))
            d, path = farey_distance(a, b, cap)
            assert d == oracles.naive_distance((a.p, a.q), (b.p, b.q), cap)
            assert path.edges == d
            assert path.vertices[0] == a and path.vertices[-1] == b

    def test_monotone_nonincreasing_in_cap(self):
        pairs = [(S("0/1"), S("7/2")), (S("3/1"), S("8/5")), (S("-5/2"), S("9/4"))]
        for a, b in pairs:
            last = None
            for cap in (16, 32, 64):
                d, _ = farey_distance(a, b, cap)
                if last is not None:
                    assert d <= last
                last = d

    def test_triangle_inequality_sampled(self):
        # slopes small enough that every distance-2 witness fits in cap,
        # making the reported distance the true capped-graph metric
        rng = random.Random(6)
        cap = 64
        verts = oracles.all_slopes(7)
        for _ in range(25):
            a, b, c = (Slope(*rng.choice(verts)) for _ in range(3))
            if len({a, b, c}) < 3:
                continue
            dab, _ = farey_distance(a, b, cap)
            dbc, _ = farey_distance(b, c, cap)
            dac, _ = farey_distance(a, c, cap)
            assert dac <= dab + dbc

    def test_budget_exhaustion_carries_witness(self, monkeypatch):
        monkeypatch.setattr(farey, "_MAX_NODES", 1)
        with pytest.raises(NoPathWithinCap) as info:
            farey_distance(S("0/1"), S("89/55"), 712)
        exc = info.value
        assert exc.path.vertices[0] == S("0/1")
        assert exc.path.vertices[-1] == S("89/55")
        assert exc.upper_bound == exc.path.edges


class TestSlopePath:
    def test_rejects_non_dual_step(self):
        with pytest.raises(ValueError):
            SlopePath((Slope(0, 1), Slope(7, 2)))

    def test_rejects_repeat(self):
        with pytest.raises(ValueError):
            SlopePath((Slope(0, 1), Slope(0, 1)))

    def test_even_kind_rejects_odd_vertex(self):
        with pytest.raises(ValueError):
            SlopePath((Slope(0, 1), Slope(1, 1)), PathKind.EVEN_FAREY)
