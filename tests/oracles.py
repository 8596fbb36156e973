"""Brute-force oracles, kept independent of the library's algorithms.

Everything here works by exhaustive scanning so it is slow but obviously
correct; tests freeze expected values computed this way or compare
library output against these directly.
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


def naive_distance(a, b, cap, even=False):
    """Unidirectional BFS over the scanned adjacency; None if disconnected."""
    adj = naive_adjacency(cap, even)
    if a not in adj or b not in adj:
        return None
    dist = {a: 0}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        if v == b:
            return dist[v]
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return None


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
