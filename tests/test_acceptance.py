"""Acceptance suite: one test per release criterion, with stated budgets.

Each test prints a single `[C#] PASS ...` line (visible under `pytest -s`
or in failure output) and enforces the runtime budget it was specified
with.  Run with `pytest tests/test_acceptance.py -v`.
"""

import math
import random
import time

import oracles
from test_construct import random_valid_path
from spinebound import (
    DualPath,
    LONGITUDE,
    LensSpace,
    MERIDIAN,
    PathMode,
    Slope,
    build_diagram,
    canonical,
    classify,
    congruence,
    consistency_check,
    equivalent_reps,
    even_distance,
    even_trace,
    farey_det,
    farey_distance,
    farey_parents,
    is_even_vertex,
    kirby_link,
    neighbors,
    path_from_lens,
    twisted_bound,
    untwisted_bound,
)


def S(text):
    return Slope.parse(text)


def report(tag, text):
    print(f"[{tag}] PASS {text}")


def test_c1_l72_pipeline():
    start = time.perf_counter()
    path = path_from_lens(LensSpace(7, 2), "any")
    assert [str(s[0]) for s in path.systems] == ["0/1", "1/0", "3/1", "7/2"]
    d, _ = farey_distance(S("0/1"), S("7/2"))
    assert d == 3
    link = kirby_link(path)
    assert [c.framing for c in link.curves] == [0, 3, 14, 3]
    diagram = build_diagram(path)
    csum = classify(path)
    assert diagram.total_genus == 4
    assert csum.normal_form == "#2 S2x~S2"
    assert diagram.ball_count == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"pipeline took {elapsed:.2f}s"
    report("C1", f"L(7,2) pipeline exact in {elapsed * 1000:.0f}ms")


def test_c2_integer_family():
    start = time.perf_counter()
    for n in range(2, 10):
        path = path_from_lens(LensSpace(n, 1), "any")
        diagram = build_diagram(path)
        assert diagram.total_genus == 2
        link = kirby_link(path)
        assert [c.framing for c in link.curves] == [0, n]
        assert link.linking_matrix == ((0, 1), (1, n))
        csum = classify(path)
        assert csum.total == 1
        assert (csum.raw_twisted == 0) == (n % 2 == 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"family took {elapsed:.2f}s"
    report("C2", f"L(n,1) for n=2..9: Hopf framings and parity in {elapsed * 1000:.0f}ms")


def test_c3_untwisted_bound_exhaustive_to_40():
    start = time.perf_counter()
    checked = 0
    for p in range(2, 41):
        done = set()
        for q in range(1, p):
            if math.gcd(p, q) != 1 or q in done:
                continue
            lens = LensSpace(p, q)
            reps = equivalent_reps(lens)
            done.update(r.q for r in reps)
            result = untwisted_bound(lens)
            assert result.n <= p - 1, f"{lens}: untwisted {result.n} > p-1"
            assert all(is_even_vertex(v) for v in result.path.vertices), lens
            walk = DualPath(tuple((v,) for v in result.path.vertices), PathMode.DUAL)
            assert classify(walk).raw_twisted == 0, lens
            checked += len(reps)
    assert checked == sum(
        1 for p in range(2, 41) for q in range(1, p) if math.gcd(p, q) == 1
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"exhaustive check took {elapsed:.2f}s"
    report("C3", f"untwisted n <= p-1 with even untwisted witnesses for all p <= 40 "
                 f"({checked} lens spaces) in {elapsed:.1f}s")


def test_c4_l19_18():
    start = time.perf_counter()
    result = untwisted_bound(LensSpace(19, 18))
    trace_value = even_trace(Slope(19, 18)).edges - 1
    assert trace_value == 18
    assert result.n <= 18
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"L(19,18) took {elapsed:.2f}s"
    assert result.n == 18, (
        f"FINDING: search certified untwisted bound {result.n} < 18 for L(19,18); "
        "log this against the open question instead of silently accepting it"
    )
    report("C4", f"L(19,18) untwisted bound 18 via even trace "
                 f"({result.exactness.value}) in {elapsed * 1000:.0f}ms")


def test_c5_even_figure_walk():
    path = even_trace(S("5/4"))
    assert [str(v) for v in path.vertices] == ["5/4", "4/3", "3/2", "2/1", "1/0", "0/1"]
    assert path.edges == 5
    d, _ = even_distance(S("0/1"), S("5/4"))
    assert d <= 5
    assert d == 5, (
        f"FINDING: even-graph distance {d} < 5 to 5/4, contradicting the "
        "iteration-depth expectation; log this against the open question"
    )
    report("C5", "even trace of 5/4 has length 5 and the even distance agrees")


def test_c6_unique_even_parent_to_300():
    start = time.perf_counter()
    violations = 0
    checked = 0
    for p in range(0, 301):
        for q in range(0, 301):
            if p + q < 2 or math.gcd(p, q) != 1 or (p * q) % 2:
                continue
            a, c = farey_parents(Slope(p, q))
            if is_even_vertex(a) == is_even_vertex(c):
                violations += 1
            checked += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    assert elapsed < 30.0, f"exhaustive parent check took {elapsed:.2f}s"
    report("C6", f"unique even parent for all {checked} even slopes with p,q <= 300 "
                 f"in {elapsed:.1f}s")


def _random_lens(rng, p_max):
    p = rng.randint(2, p_max)
    q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
    return LensSpace(p, q)


def c7_walks(resampled: list | None = None):
    """C7's 200 random walks of genus 1-3; each oversize walk skipped is
    appended to `resampled`."""
    rng = random.Random(20260810)
    cases = 0
    while cases < 200:
        genus = rng.choice([1, 1, 1, 2, 3])
        parts = [
            path_from_lens(_random_lens(rng, 100), rng.choice(["any", "even"]))
            for _ in range(genus)
        ]
        if genus == 1:
            path = parts[0]
        else:
            path = oracles.path_product(parts, rng.choice([PathMode.DUAL, PathMode.PARALLEL]))
        if 2 * path.genus * (path.steps - 1) > 400:
            # keep the run desk-scale: the dense linking matrix and the
            # dense oracle of C7 are O(n^2)
            if resampled is not None:
                resampled.append(path)
            continue
        yield path
        cases += 1


def test_c7_oracle_cross_validation():
    start = time.perf_counter()
    resampled = []
    for path in c7_walks(resampled):
        link = kirby_link(path)
        report_ = consistency_check(link, classify(path))
        assert report_.ok, (path, report_.failures)
        assert congruence(link.curves) == oracles.dense_congruence(link.linking_matrix, link.curves)
        dual_steps = sum(
            1
            for i in range(2, path.steps + 1)
            for j in range(path.genus)
            if path.systems[i][j] != path.systems[i - 1][j]
        )
        assert report_.invariants.rank == 2 * dual_steps
        assert report_.invariants.signature == 0
        assert all(d == 1 for d in report_.invariants.elementary_divisors)
        twisted = report_.classified.raw_twisted >= 1
        assert (report_.invariants.parity.value == "odd") == twisted
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"cross-validation took {elapsed:.2f}s"
    report("C7", f"forms agree with the classifier on 200 random walks "
                 f"({len(resampled)} oversize walks resampled) in {elapsed:.1f}s")


def test_c8_parallel_step_law():
    rng = random.Random(414213)
    for _ in range(100):
        genus = rng.choice([1, 2, 3])
        parts = [
            path_from_lens(_random_lens(rng, 40), rng.choice(["any", "even"]))
            for _ in range(genus)
        ]
        path = oracles.path_product(parts, PathMode.PARALLEL) if genus > 1 else DualPath(
            parts[0].systems, PathMode.PARALLEL
        )
        extended = DualPath(path.systems + (path.systems[-1],), PathMode.PARALLEL)
        assert classify(extended) == classify(path)
    report("C8", "appending a repeat-final step never changes the connect sum (100 cases)")


def test_c9_property_suites():
    start = time.perf_counter()
    rng = random.Random(1729)

    # canonical idempotence and antipode identification
    for _ in range(2000):
        p, q = rng.randint(-200, 200), rng.randint(-200, 200)
        if (p, q) == (0, 0):
            continue
        s = canonical(p, q)
        assert canonical(s.p, s.q) == s and canonical(-p, -q) == s

    # determinant antisymmetry
    slopes = [canonical(rng.randint(-50, 50), rng.randint(0, 50) or 1) for _ in range(60)]
    for a in slopes:
        for b in slopes:
            assert farey_det(a, b) == -farey_det(b, a)

    # mediant parent identities, exhaustively to 500
    for p in range(0, 501):
        for q in range(0, 501):
            if p + q < 2 or math.gcd(p, q) != 1:
                continue
            s = Slope(p, q)
            a, c = farey_parents(s)
            assert a.p + c.p == p and a.q + c.q == q
            assert abs(farey_det(a, c)) == 1
            assert abs(farey_det(a, s)) == 1 and abs(farey_det(c, s)) == 1
            assert (a.q, a.p) <= (c.q, c.p)

    # neighbor-set monotonicity in cap, and duality of every neighbor
    for s in (S("0/1"), S("1/0"), S("7/2"), S("-8/5"), S("13/4")):
        previous = set()
        for cap in (13, 21, 34):
            current = set(neighbors(s, cap))
            assert previous <= current
            assert all(abs(farey_det(s, t)) == 1 for t in current)
            previous = current

    # BFS path validity: endpoints, length, duality (validated on build)
    verts = oracles.all_slopes(8)
    for _ in range(40):
        a, b = Slope(*rng.choice(verts)), Slope(*rng.choice(verts))
        d, path = farey_distance(a, b)
        assert path.vertices[0] == a and path.vertices[-1] == b
        assert path.edges == d

    # triangle inequality on sampled triples
    for _ in range(30):
        a, b, c = (Slope(*rng.choice(verts)) for _ in range(3))
        if len({a, b, c}) < 3:
            continue
        dab, _ = farey_distance(a, b)
        dbc, _ = farey_distance(b, c)
        dac, _ = farey_distance(a, c)
        assert dac <= dab + dbc

    # The dense oracle: Smith divisibility chains
    def rand_sym(order, lo=-12, hi=12):
        rows = [[0] * order for _ in range(order)]
        for i in range(order):
            for j in range(i, order):
                rows[i][j] = rows[j][i] = rng.randint(lo, hi)
        return rows

    for _ in range(60):
        rows = rand_sym(rng.randint(1, 6))
        divisors = oracles.dense_smith(rows)
        for d1, d2 in zip(divisors, divisors[1:]):
            assert d2 % d1 == 0
        if len(divisors) == len(rows):
            assert math.prod(divisors) == abs(oracles.dense_det(rows))

    # the oracle's Bareiss determinant against cofactor expansion up to order 5
    for order in range(0, 6):
        for _ in range(10):
            rows = rand_sym(order, -20, 20)
            assert oracles.dense_det(rows) == oracles.cofactor_det(rows)

    # congruence invariance of the oracle's signature
    for _ in range(25):
        order = rng.randint(2, 6)
        rows = rand_sym(order, -9, 9)
        base = oracles.dense_signature(rows)
        u = [[1 if i == j else 0 for j in range(order)] for i in range(order)]
        for _ in range(6):
            i, j = rng.sample(range(order), 2)
            coef = rng.randint(-3, 3)
            for k in range(order):
                u[i][k] += coef * u[j][k]
        um = [[sum(u[i][k] * rows[k][j] for k in range(order)) for j in range(order)]
              for i in range(order)]
        umu = [[sum(um[i][k] * u[j][k] for k in range(order)) for j in range(order)]
               for i in range(order)]
        assert oracles.dense_signature(umu) == base

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"property suites took {elapsed:.2f}s"
    report("C9", f"all property suites green in {elapsed:.1f}s")


def c10_walks():
    """C10's long walks, as (name, walk)."""
    return [
        ("even walk of L(81,80)", path_from_lens(LensSpace(81, 80), "even")),
        ("even walk of L(501,500)", path_from_lens(LensSpace(501, 500), "even")),
        (
            "genus-3 dual product",
            oracles.path_product(
                [
                    path_from_lens(LensSpace(21, 20), "even"),
                    path_from_lens(LensSpace(13, 5), "any"),
                    path_from_lens(LensSpace(11, 10), "even"),
                ],
                PathMode.DUAL,
            ),
        ),
    ]


def test_c10_long_walk_consistency():
    # Walks past C7's order limit, up to order 1000, under a budget the
    # O(n) congruence, the O(n^2) dense linking matrix and the O(n^2)
    # dense oracle meet and a dense O(n^3) elimination would not.
    start = time.perf_counter()
    orders = []
    for name, path in c10_walks():
        link = kirby_link(path)
        matrix = link.linking_matrix
        order = len(matrix)
        report_ = consistency_check(link, classify(path))
        assert report_.ok, (name, report_.failures)
        assert congruence(link.curves) == oracles.dense_congruence(matrix, link.curves)
        inv = report_.invariants
        assert inv.signature == 0
        assert inv.rank == order and abs(inv.determinant) == 1
        assert all(d == 1 for d in inv.elementary_divisors)
        orders.append(order)
    assert orders[:2] == [160, 1000] and orders[2] >= 120
    elapsed = time.perf_counter() - start
    assert elapsed < 15.0, f"long-walk consistency took {elapsed:.2f}s"
    report("C10", f"forms agree on long walks of orders {orders} in {elapsed:.1f}s")


def test_linking_matrix_is_the_dense_fill():
    """`FramedLink.linking_matrix`, computed from the curves row by row,
    equals the dense fill of the oracle on random walks of genus 1-3 and
    on the walks of C7 and C10."""
    rng = random.Random(5)
    walks = [random_valid_path(rng) for _ in range(100)]
    walks += [*c7_walks(), *(path for _, path in c10_walks())]
    for path in walks:
        link = kirby_link(path)
        assert link.linking_matrix == oracles.linking_matrix(link.curves), path
