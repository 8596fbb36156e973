import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from spinebound import (
    DomainError,
    LONGITUDE,
    MERIDIAN,
    PathKind,
    Slope,
    canonical,
    even_distance,
    even_parent,
    even_trace,
    farey_det,
    farey_distance,
    farey_parents,
    is_even_vertex,
    iteration_index,
)
from spinebound import evenfarey, farey


def S(text):
    return Slope.parse(text)


class TestEvenParent:
    def test_examples(self):
        assert even_parent(S("7/2")) == Slope(4, 1)
        assert even_parent(S("5/4")) == Slope(4, 3)
        assert even_parent(S("2/1")) == Slope(1, 0)

    def test_boundary_rows(self):
        assert even_parent(S("1/2")) == MERIDIAN
        assert even_parent(S("1/4")) == MERIDIAN
        assert even_parent(S("4/1")) == LONGITUDE

    def test_odd_rejected(self):
        with pytest.raises(DomainError):
            even_parent(S("3/1"))

    def test_roots_rejected(self):
        with pytest.raises(DomainError):
            even_parent(MERIDIAN)

    def test_unique_even_parent_small(self):
        # exhaustive to 120 here; the acceptance suite pushes to 300
        for p in range(0, 121):
            for q in range(0, 121):
                if p + q < 2 or math.gcd(p, q) != 1 or (p * q) % 2:
                    continue
                a, c = farey_parents(Slope(p, q))
                assert is_even_vertex(a) != is_even_vertex(c)


class TestEvenTrace:
    def test_figure_walk(self):
        path = even_trace(S("5/4"))
        assert [str(v) for v in path.vertices] == ["5/4", "4/3", "3/2", "2/1", "1/0", "0/1"]
        assert path.edges == 5

    def test_7_2(self):
        path = even_trace(S("7/2"))
        assert [str(v) for v in path.vertices] == ["7/2", "4/1", "1/0", "0/1"]
        assert path.edges == 3

    def test_longitude_base_edge(self):
        path = even_trace(LONGITUDE)
        assert path.vertices == (LONGITUDE, MERIDIAN)
        assert path.edges == 1

    def test_odd_rejected(self):
        with pytest.raises(DomainError):
            even_trace(S("1/1"))

    def test_trace_validates_and_is_short(self):
        rng = random.Random(7)
        for _ in range(60):
            p = rng.randint(0, 80)
            q = rng.randint(0, 80)
            if p + q == 0 or math.gcd(p, q) != 1 or (p * q) % 2:
                continue
            s = Slope(p, q)
            path = even_trace(s)
            assert path.kind is PathKind.EVEN_FAREY  # validates evenness + duality
            assert path.vertices[0] == s and path.vertices[-1] == MERIDIAN
            assert path.edges <= p + 1
            if 0 < q < p:
                assert path.edges <= p


class TestEvenDistance:
    def test_7_2(self):
        d, path = even_distance(S("0/1"), S("7/2"))
        assert d == 3
        assert [str(v) for v in path.vertices] == ["0/1", "1/0", "4/1", "7/2"]

    def test_adjacent_roots(self):
        d, _ = even_distance(S("0/1"), S("1/0"))
        assert d == 1

    def test_5_4(self):
        d, _ = even_distance(S("0/1"), S("5/4"))
        assert d == 5

    def test_odd_endpoint_rejected(self):
        with pytest.raises(DomainError):
            even_distance(S("1/1"), S("0/1"))

    def test_dominates_full_graph_distance(self):
        rng = random.Random(8)
        evens = [v for v in oracles.all_slopes(7) if (v[0] * v[1]) % 2 == 0]
        for _ in range(25):
            a = Slope(*rng.choice(evens))
            b = Slope(*rng.choice(evens))
            de, _ = even_distance(a, b)
            df, _ = farey_distance(a, b)
            assert de >= df

    def test_matches_naive_even_bfs(self):
        rng = random.Random(9)
        cap = 12
        evens = [v for v in oracles.all_slopes(6) if (v[0] * v[1]) % 2 == 0]
        for _ in range(25):
            a = Slope(*rng.choice(evens))
            b = Slope(*rng.choice(evens))
            d, path = even_distance(a, b)
            naive = oracles.naive_distance((a.p, a.q), (b.p, b.q), cap, even=True)
            assert d == naive
            assert path.edges == d

    def test_every_small_pair_against_naive_even_bfs(self):
        """Every ordered pair of even slopes with |p|, q <= 8 against the
        scanned even graph at cap 16 = 2 * 8: the distance matches, and the
        walk joins the endpoints through even duals in that many edges."""
        evens = [v for v in oracles.all_slopes(8) if (v[0] * v[1]) % 2 == 0]
        for a in evens:
            naive = oracles.naive_distances(a, 16, even=True)
            for b in evens:
                d, path = even_distance(Slope(*a), Slope(*b))
                assert d == naive[b], (a, b)
                vertices = [(v.p, v.q) for v in path.vertices]
                assert vertices[0] == a and vertices[-1] == b
                assert all(u[0] * u[1] % 2 == 0 for u in vertices)
                assert all(abs(oracles.det(u, w)) == 1 for u, w in zip(vertices, vertices[1:]))
                assert path.edges == d

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-5000, 5000), st.integers(0, 5000),
        st.integers(-5000, 5000), st.integers(0, 5000),
    )
    def test_large_pairs_give_symmetric_even_walks(self, pa, qa, pb, qb):
        assume((pa, qa) != (0, 0) and (pb, qb) != (0, 0))
        a, b = canonical(pa, qa), canonical(pb, qb)
        assume(is_even_vertex(a) and is_even_vertex(b))
        d, path = even_distance(a, b)
        assert path.vertices[0] == a and path.vertices[-1] == b
        assert all(is_even_vertex(v) for v in path.vertices)
        assert all(abs(farey_det(u, v)) == 1 for u, v in zip(path.vertices, path.vertices[1:]))
        assert path.edges == d
        back, _ = even_distance(b, a)
        assert back == d

    def test_bounded_by_trace_concatenation(self):
        rng = random.Random(10)
        evens = [v for v in oracles.all_slopes(9) if (v[0] * v[1]) % 2 == 0 and v[0] >= 0]
        for _ in range(20):
            a = Slope(*rng.choice(evens))
            b = Slope(*rng.choice(evens))
            d, _ = even_distance(a, b)
            assert d <= even_trace(a).edges + even_trace(b).edges


class TestIterationIndex:
    def test_first_iterations(self):
        assert iteration_index(S("1/1")) == 1
        assert iteration_index(S("2/1")) == 2
        assert iteration_index(S("3/2")) == 3
        assert iteration_index(S("3/1")) == 3

    def test_roots(self):
        assert iteration_index(MERIDIAN) == 0
        assert iteration_index(LONGITUDE) == 0

    def test_depth_vs_distance_discrepancy(self):
        # The mediant depth of 7/2 is 5 while its even-graph distance
        # from 0/1 is 3, so depth and distance must stay separate
        # quantities; depth only ever bounds the distance from above.
        assert iteration_index(S("7/2")) == 5
        d, _ = even_distance(S("0/1"), S("7/2"))
        assert d == 3
        assert iteration_index(S("5/2")) == 4

    def test_dominates_even_distance(self):
        # the depth/distance comparison concerns vertices the iteration
        # adds, so the two depth-0 roots are excluded
        rng = random.Random(11)
        evens = [
            v
            for v in oracles.all_slopes(9)
            if (v[0] * v[1]) % 2 == 0 and v[0] >= 0 and v not in ((0, 1), (1, 0))
        ]
        for _ in range(30):
            s = Slope(*rng.choice(evens))
            d, _ = even_distance(MERIDIAN, s)
            assert iteration_index(s) >= d


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(-5000, 5000), st.integers(0, 5000), st.booleans())
def test_integer_trace_matches_the_slope_reference(p, q, even):
    """`parent_trace` steps on integer pairs; each of its two steps must give
    the trace that `farey_parents` and the parity rule give slope by slope."""
    assume((p, q) != (0, 0))
    s = canonical(p, q)
    assume(not even or is_even_vertex(s))
    step = evenfarey._even_step if even else farey._mediant_step
    assert farey.parent_trace(s, step) == oracles.slope_trace(s, even)
