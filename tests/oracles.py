"""Brute-force oracles, kept independent of the library's algorithms.

Everything here works by exhaustive scanning or dense elimination, so it
is slow but obviously correct; tests freeze expected values computed this
way or compare library output against these directly.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations


def all_slopes(cap):
    """Every canonical slope with |p| <= cap and q <= cap, by full scan."""
    out = set()
    for q in range(0, cap + 1):
        for p in range(-cap, cap + 1):
            if (p, q) == (0, 0):
                continue
            if q == 0:
                if abs(p) == 1:
                    out.add((1, 0))
            elif math.gcd(p, q) == 1:
                out.add((p, q))
    return sorted(out)


def det(a, b):
    return a[0] * b[1] - b[0] * a[1]


def naive_neighbors(s, cap):
    return sorted(
        (t for t in all_slopes(cap) if abs(det(s, t)) == 1),
        key=lambda t: (t[1], t[0]),
    )


_ADJ_CACHE: dict = {}


def naive_adjacency(cap, even=False):
    key = (cap, even)
    if key not in _ADJ_CACHE:
        verts = [
            v for v in all_slopes(cap) if not even or (v[0] * v[1]) % 2 == 0
        ]
        adj = {v: [] for v in verts}
        for u, w in combinations(verts, 2):
            if abs(det(u, w)) == 1:
                adj[u].append(w)
                adj[w].append(u)
        _ADJ_CACHE[key] = adj
    return _ADJ_CACHE[key]


def naive_distances(a, cap, even=False):
    """Unidirectional BFS over the scanned adjacency: the distance from a
    to every slope it reaches within the cap."""
    adj = naive_adjacency(cap, even)
    dist = {a: 0}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def naive_distance(a, b, cap, even=False):
    """The distance from a to b by `naive_distances`; None if disconnected."""
    if a not in naive_adjacency(cap, even):
        return None
    return naive_distances(a, cap, even).get(b)


def cofactor_det(rows):
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def char_poly_signature(rows):
    """Signature from the exact characteristic polynomial.

    Faddeev-LeVerrier gives the integer coefficients of det(xI - A).
    A symmetric matrix has only real eigenvalues, so after the factor
    x^m of the zero eigenvalues is divided out, Descartes' rule of signs
    counts the positive roots of p(x) and the negative roots (those of
    p(-x)) exactly.
    """
    n = len(rows)
    coeffs = [0] * n + [1]  # coeffs[i] multiplies x^i
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        c = coeffs[n - k + 1]
        mk = [
            [sum(rows[i][t] * mk[t][j] for t in range(n)) + (c if i == j else 0)
             for j in range(n)]
            for i in range(n)
        ]
        trace = sum(rows[i][t] * mk[t][i] for i in range(n) for t in range(n))
        assert trace % k == 0
        coeffs[n - k] = -trace // k
    m = next(i for i, c in enumerate(coeffs) if c)
    poly = coeffs[m:]

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    positive = sign_changes(poly)
    negative = sign_changes([c * (-1) ** i for i, c in enumerate(poly)])
    return positive - negative


# --- dense integer forms ---------------------------------------------------
#
# The reference for `spinebound.forms`: one symmetric fraction-free Bareiss
# pass per matrix and a Smith reduction, O(n^3) on the full matrix, with no
# use of the slopes the library's congruence is built from.


def dense_det(rows):
    return _det(_leading_minors(rows), len(rows))


def _det(minors, order):
    """Exact determinant: the last leading minor when the rank is full."""
    if len(minors) < order:
        return 0
    return minors[-1] if minors else 1


def dense_signature(rows):
    """Jacobi's rule on the nonzero leading minors of a congruent matrix."""
    return _jacobi(_leading_minors(rows))


def _jacobi(minors):
    total = 0
    prev = 1
    for d in minors:
        total += 1 if (d > 0) == (prev > 0) else -1
        prev = d
    return total


def dense_smith(rows):
    """The elementary divisors d_1 | d_2 | ..., zeros omitted."""
    return _snf([list(row) for row in rows])


def dense_invariants(rows):
    """(rank, det, signature, parity, elementary divisors) from one pass.

    A nonzero determinant means full rank, and then the elementary
    divisors are positive integers whose product is |det|; so |det| = 1
    forces them all to be 1, and only other forms run the Smith reduction.
    """
    minors = _leading_minors(rows)
    det = _det(minors, len(rows))
    divisors = (1,) * len(rows) if abs(det) == 1 else tuple(dense_smith(rows))
    even = all(row[i] % 2 == 0 for i, row in enumerate(rows))
    return len(divisors), det, _jacobi(minors), "even" if even else "odd", divisors


def _leading_minors(rows) -> list[int]:
    """Nonzero leading principal minors d_1, d_2, ... of a congruent matrix.

    Symmetric fraction-free Bareiss elimination.  The active block holds
    the bordered minors det M[L+i, L+j] over the pivots L eliminated so
    far; each step replaces it by (pivot*m_ij - m_0i*m_0j) // prev, an
    exact division by Sylvester's identity.  The block is symmetric, so
    it is stored as its upper triangle: row i holds the entries j >= i,
    and each step computes only those.  A zero pivot is replaced by a
    unimodular congruence on active indices (`_make_pivot`): a symmetric
    swap with a nonzero diagonal entry, else x_0 -> x_0 + x_j, which
    gives the pivot 2*m_0j.  By multilinearity of the minors the block
    transforms the same way, so the division stays exact.  An index
    whose row is zero in the active block spans part of the radical and
    is dropped, so the list has one entry per unit of rank.
    """
    tri = [list(row[i:]) for i, row in enumerate(rows)]
    minors: list[int] = []
    prev = 1
    while tri:
        if tri[0][0] == 0:
            k = next((i for i in range(1, len(tri)) if tri[i][0]), None)
            if k is None and not any(tri[0]):  # rank deficit
                del tri[0]
                continue
            tri = _make_pivot(tri, k)
        top = tri[0]
        pivot = top[0]
        tri = [
            [(pivot * x - a * y) // prev for x, y in zip(row, top[i:])]
            for i, (a, row) in enumerate(zip(top[1:], tri[1:]), 1)
        ]
        minors.append(pivot)
        prev = pivot
    return minors


def _make_pivot(tri: list[list[int]], k: int | None) -> list[list[int]]:
    """The triangle after the congruence that makes its zero pivot nonzero.

    With a nonzero diagonal entry k, swap indices 0 and k; otherwise add
    x_k to x_0 for the first k with m_0k != 0.  Both moves act on the
    full block, so it is expanded here and folded back into a triangle.
    """
    n = len(tri)
    block = [[0] * n for _ in range(n)]
    for i, row in enumerate(tri):
        for j, x in enumerate(row, i):
            block[i][j] = block[j][i] = x
    if k is not None:
        block[0], block[k] = block[k], block[0]
        for row in block:
            row[0], row[k] = row[k], row[0]
    else:
        k = next(j for j, x in enumerate(block[0]) if x)
        for row in block:
            row[0] += row[k]
        block[0] = [x + y for x, y in zip(block[0], block[k])]
    return [row[i:] for i, row in enumerate(block)]


def _snf(m: list[list[int]]) -> list[int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    divisors = []
    t = 0
    while t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        # Each promotion below strictly shrinks |m[t][t]|, so this ends.
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t]:
                    f = m[i][t] // m[t][t]
                    for j in range(t, cols):
                        m[i][j] -= f * m[t][j]
                    if m[i][t]:  # promote the smaller remainder to pivot
                        m[t], m[i] = m[i], m[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, cols):
                if m[t][j]:
                    f = m[t][j] // m[t][t]
                    for i in range(t, rows):
                        m[i][j] -= f * m[i][t]
                    if m[t][j]:
                        for i in range(t, rows):
                            m[i][t], m[i][j] = m[i][j], m[i][t]
                        dirty = True
                        break
            if dirty:
                continue
            # Row and column t are clear; enforce the divisibility chain.
            stray = None
            for i in range(t + 1, rows):
                if any(m[i][j] % m[t][t] for j in range(t + 1, cols)):
                    stray = i
                    break
            if stray is None:
                break
            for j in range(t, cols):
                m[t][j] += m[stray][j]
        divisors.append(abs(m[t][t]))
        t += 1
    return divisors


def wrap_segments_fraction(p, q, x_phase, y_phase):
    """Rational reference for the SVG wrap segments of the (p, q) line.

    The curve is t -> (p*t + x_phase, q*t + y_phase) mod 1 for t in
    [0, 1]; it is cut at every t where a coordinate crosses an integer,
    found by scanning the integers around each coordinate's range.
    """
    if p == 0 and q == 0:
        return []
    breaks = {Fraction(0), Fraction(1)}
    for step, phase in ((p, x_phase), (q, y_phase)):
        if step == 0:
            continue
        lo = min(phase, step + phase)
        hi = max(phase, step + phase)
        k = int(lo) - 1
        while k <= hi + 1:
            t = Fraction(k - phase, step)
            if 0 < t < 1:
                breaks.add(t)
            k += 1
    ts = sorted(breaks)
    segments = []
    for t0, t1 in zip(ts, ts[1:]):
        tm = (t0 + t1) / 2
        xm = (p * tm + x_phase) % 1
        ym = (q * tm + y_phase) % 1
        x0 = xm + p * (t0 - tm)
        y0 = ym + q * (t0 - tm)
        x1 = xm + p * (t1 - tm)
        y1 = ym + q * (t1 - tm)
        segments.append((x0, y0, x1, y1))
    return segments


def wrap_segments_lattice(p, q):
    """Integer reference for the SVG wrap segments of the blue (p, q) line.

    The blue curve is t -> (p*t, q*t + 1/2) mod 1 for t in [0, 1], with
    p != 0 < q.  Over the denominator D = 2*|p|*q, x crosses an integer
    at the multiples of 2q and y at the odd multiples of |p|.  Between
    two cuts n0 < n1 neither coordinate crosses an integer, so taking
    off the floor of its value at the midpoint (n0 + n1) / (2D) moves
    both ends into [0, 1].  Every end is an exact quotient of two
    integers, and Python's int / int rounds it correctly to a float.
    """
    d = 2 * abs(p) * q
    cuts = sorted({0, d, *range(2 * q, d, 2 * q), *range(abs(p), d, 2 * abs(p))})
    segments = []
    for n0, n1 in zip(cuts, cuts[1:]):
        fx = p * (n0 + n1) // (2 * d)
        fy = (q * (n0 + n1) + d) // (2 * d)
        segments.append((
            (p * n0 - fx * d) / d,
            (2 * q * n0 + d - 2 * fy * d) / (2 * d),
            (p * n1 - fx * d) / d,
            (2 * q * n1 + d - 2 * fy * d) / (2 * d),
        ))
    return segments
