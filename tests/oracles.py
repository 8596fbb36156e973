"""Brute-force oracles, kept independent of the library's algorithms.

Everything here works by exhaustive scanning or dense elimination, so it
is slow but obviously correct; tests freeze expected values computed this
way or compare library output against these directly.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from spinebound.construct import DualPath
from spinebound.farey import (
    LONGITUDE,
    MERIDIAN,
    DomainError,
    canonical,
    farey_parents,
    is_even_vertex,
)
from spinebound.forms import CongruenceError, TridiagonalForm


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


def longitude_distance(p, q):
    """The Farey distance from 1/0 to the reduced slope p/q >= 0, with no
    graph search: the separation recurrence d(x) = 1 + min(d(L), d(R))
    over the mediant parents L, R of x, from d(1/0) = 0 and d(0/1) = 1.
    A Stern-Brocot descent towards p/q carries the distances of the two
    ends of its current interval."""
    if (p, q) == (1, 0):
        return 0
    left, right = (0, 1, 1), (1, 0, 0)  # (p, q, d) of each end
    while left[:2] != (p, q):
        mid = (left[0] + right[0], left[1] + right[1], 1 + min(left[2], right[2]))
        if p * mid[1] < mid[0] * q:
            right = mid
        else:
            left = mid
    return left[2]


def iteration_index(s):
    """Depth of the slope s >= 0 in the mediant tree grown from 0/1 and
    1/0: 0 at the roots, else 1 + the larger depth of its two mediant
    parents, which are the ends of the Stern-Brocot interval it splits.
    A tree depth, not an even-graph distance: 7/2 has depth 5 but even
    distance 3 from 0/1."""
    if s.p < 0:
        raise DomainError(f"{s} is negative; depth is defined on the nonnegative fan")
    if s in (MERIDIAN, LONGITUDE):
        return 0
    left, right = (0, 1, 0), (1, 0, 0)  # (p, q, depth) of each end
    while True:
        mid = (left[0] + right[0], left[1] + right[1], 1 + max(left[2], right[2]))
        if mid[:2] == (s.p, s.q):
            return mid[2]
        if s.p * mid[1] < mid[0] * s.q:
            right = mid
        else:
            left = mid


def even_parent(s):
    """The mediant parent of an even slope s >= 0, not a root, that is
    itself even; it is unique, since each Farey triangle has one odd
    vertex."""
    if not is_even_vertex(s) or s.p < 0 or s in (MERIDIAN, LONGITUDE):
        raise DomainError(f"{s} has no even parent: it is odd, negative or a root")
    (parent,) = [v for v in farey_parents(s) if is_even_vertex(v)]
    return parent


def slope_trace(s, even=False):
    """The parent trace of `farey.parent_trace`, one `Slope` at a time: each
    step takes `farey_parents`, then the parent of even parity (even=True)
    or the parent other than 0/1.  A trace that ends at 1/0 gets the edge
    to 0/1, and a negative slope is traced by reflection."""
    if s.p < 0:
        return [canonical(-v.p, v.q) for v in slope_trace(canonical(-s.p, s.q), even)]
    out = [s]
    while out[-1] not in (MERIDIAN, LONGITUDE):
        first, second = farey_parents(out[-1])
        if even:
            (parent,) = [v for v in (first, second) if is_even_vertex(v)]
        else:
            parent = second if first == MERIDIAN else first
        out.append(parent)
    if out[-1] == LONGITUDE:
        out.append(MERIDIAN)
    return out


def blue_layer_path(diagram, mode):
    """The walk read back from a diagram's blue curves: the meridians, then
    the last copy's slopes as D_2, then copy k's as D_{k+3}."""
    g, copies = diagram.genus_per_copy, diagram.num_copies
    by_pos = {(c.copy, c.coordinate): c.slope for c in diagram.blue}
    systems = [(MERIDIAN,) * g, tuple(by_pos[copies - 1, j] for j in range(g))]
    for k in range(copies // 2):
        systems.append(tuple(by_pos[k, j] for j in range(g)))
    return DualPath(tuple(systems), mode)


def linking_matrix(curves):
    """The dense linking matrix of a framed link's curves, row by row: the
    curves of one coordinate on layers a <= b link p_a * q_b times."""
    g = len({c.coordinate for c in curves})
    layers = [curves[i : i + g] for i in range(0, len(curves), g)]
    columns = [([s[j].slope.p for s in layers], [s[j].slope.q for s in layers]) for j in range(g)]
    matrix = []
    for c in curves:
        ps, qs = columns[c.coordinate]
        p, q, pos = c.slope.p, c.slope.q, c.layer
        row = [0] * len(curves)
        row[c.coordinate :: g] = [x * q for x in ps[:pos]] + [p * y for y in qs[pos:]]
        matrix.append(tuple(row))
    return tuple(matrix)


def _packed(n):
    """An integer as a diagram file holds it: a string beyond the float53 range."""
    return n if abs(n) <= 2**53 - 1 else str(n)


def diagram_doc(diagram, link, csum):
    """The JSON document of a diagram file, as a dict: the file's bytes are
    `json.dumps(diagram_doc(...), indent=2) + "\n"`."""

    def slope(s):
        return {"p": _packed(s.p), "q": _packed(s.q)}

    def scaffold(curves):
        return [{"kind": c.kind, "location": c.location, "coordinate": c.coordinate} for c in curves]

    return {
        "version": 1,
        "genus_per_copy": diagram.genus_per_copy,
        "num_copies": diagram.num_copies,
        "path": {
            "mode": diagram.path.mode.value,
            "systems": [[slope(s) for s in system] for system in diagram.path.systems],
        },
        "blue": [
            {
                "copy": c.copy,
                "coordinate": c.coordinate,
                "slope": slope(c.slope),
                "reflected": c.reflected,
            }
            for c in diagram.blue
        ],
        "red": scaffold(diagram.red),
        "green": scaffold(diagram.green),
        "kirby": {
            "curves": [
                {
                    "layer": c.layer,
                    "coordinate": c.coordinate,
                    "slope": slope(c.slope),
                    "framing": _packed(c.framing),
                }
                for c in link.curves
            ],
            "linking_matrix": [[_packed(x) for x in row] for row in linking_matrix(link.curves)],
        },
        "classification": {
            "raw_untwisted": csum.raw_untwisted,
            "raw_twisted": csum.raw_twisted,
            "normal_form": csum.normal_form,
        },
        "stats": {
            "total_genus": diagram.total_genus,
            "ball_count": diagram.ball_count,
            "minimal": diagram.total_genus == 2 * csum.total,
        },
    }


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
# The references for `spinebound.forms`: the congruence multiplied out
# entry by entry from the full matrix, and one symmetric fraction-free
# Bareiss pass per matrix and a Smith reduction, O(n^3) on the full matrix,
# with no use of the slopes the library's congruence is built from.


@dataclass(frozen=True)
class SymIntMatrix:
    """An immutable symmetric integer matrix."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")
        if tuple(zip(*self.entries)) != self.entries:
            i, j = next(
                (i, j) for i in range(n) for j in range(i + 1, n)
                if self.entries[i][j] != self.entries[j][i]
            )
            raise ValueError(f"matrix not symmetric at ({i}, {j})")

    @classmethod
    def from_rows(cls, rows) -> "SymIntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.entries)


def dense_congruence(rows, curves) -> TridiagonalForm:
    """`forms.congruence` entry by entry: P from the slopes, then all of
    T = P^T M P multiplied out from the matrix `rows` and checked against
    the whole pattern.

    `curves[k]` is the curve of row k; `rows` must be square and
    symmetric.  Raises `CongruenceError` naming the first entry of T, in
    row-major order, outside the pattern.
    """
    matrix = SymIntMatrix.from_rows(rows)
    n = matrix.order
    if len(curves) != n:
        raise ValueError(f"{len(curves)} curves for a matrix of order {n}")

    def det2(a, b):
        return a.p * b.q - b.p * a.q

    moves = []  # (k, i, alpha, h, beta): f_k = e_k - alpha*e_i - beta*e_h
    kept: dict[int, list[int]] = {}
    for k, curve in enumerate(curves):
        chain = kept.setdefault(curve.coordinate, [])
        s = curve.slope
        if chain and curves[chain[-1]].slope == s:
            moves.append((k, chain[-1], 1, k, 0))
            continue
        if len(chain) < 2:
            moves.append((k, k, 0, k, 0))
        else:
            i, h = chain[-1], chain[-2]
            d = det2(curves[i].slope, curves[h].slope)
            if abs(d) != 1:
                raise CongruenceError(f"curves {h} and {i} are neither equal nor dual")
            alpha = det2(s, curves[h].slope) * d
            beta = det2(curves[i].slope, s) * d
            moves.append((k, i, alpha, h, beta))
        chain.append(k)

    mp = [[r[k] - a * r[i] - b * r[h] for k, i, a, h, b in moves] for r in matrix.entries]
    t = [[x - a * y - b * z for x, y, z in zip(mp[k], mp[i], mp[h])] for k, i, a, h, b in moves]

    neighbours: dict[int, list[int]] = {k: [] for chain in kept.values() for k in chain}
    for chain in kept.values():
        for x, y in zip(chain, chain[1:]):
            neighbours[x].append(y)
            neighbours[y].append(x)
    for k, row in enumerate(t):
        rest = row[:]  # the entries outside the pattern, and flags for bad ones in it
        if k in neighbours:
            rest[k] = 0
            for c in neighbours[k]:
                rest[c] = abs(row[c]) != 1
        if any(rest):
            c = next(c for c, x in enumerate(rest) if x)
            want = "+-1" if c in neighbours.get(k, ()) else "0"
            raise CongruenceError(f"P^T M P entry ({k}, {c}) is {row[c]}, expected {want}")
    return TridiagonalForm(
        order=n,
        blocks=tuple(tuple(t[k][k] for k in chain) for chain in kept.values()),
        radical=n - sum(map(len, kept.values())),
    )


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
