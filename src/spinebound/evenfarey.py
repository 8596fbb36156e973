"""The even Farey graph: slopes whose curves have even surface framing.

The torus embedding frames a (p, q) curve with framing p*q, so walks that
should only split off untwisted sphere bundles must stay on slopes with
p*q even.  Every triangle of the Farey tessellation has exactly one odd
vertex (reduce p_i*q_j - p_j*q_i = +-1 mod 2), which gives every even
non-root slope a unique even mediant parent.  The subgraph is bipartite
(classes p even / p odd), so all even walks between two fixed slopes
share one length parity.

Distances from 1/0.  Let x = p/q be an even slope other than the roots,
with p >= 0, and let L, R be its mediant parents (`farey_parents`).  The
Farey edge L--R separates x from 1/0: the edges of the tessellation are
disjoint hyperbolic geodesics, so no edge crosses L--R, and every walk
from 1/0 to x passes through L or R.  One of L, R is odd (they span a
Farey triangle with x), so every even walk from 1/0 to x passes through
the even parent e(x), and

    d(1/0, x) = d(1/0, e(x)) + 1.

Unwinding gives d(1/0, x) = the number of even parents taken until the
trace reaches a root, plus one if that root is 0/1, since d(1/0, 0/1) =
1.  So the even trace of x, cut at 1/0 or started 1/0, 0/1, ..., is a
shortest even walk.  A negative x follows by the reflection p -> -p,
which fixes both roots.  No search is made and no cap bounds the answer.

Arbitrary pairs.  For an even a = p/q take integers x, y with
x*p + y*q = 1 and

    g = [[x - k*q, y + k*p], [-q, p]],   k = y (p odd) or k = x (p even).

Then det g = 1 and g(a) = 1/0.  Mod 2, p - q is odd and the first row
sums to x + y + k, which the choice of k makes odd, so g fixes the odd
class (1, 1) mod 2: g lies in the theta group, and it maps even slopes
to even slopes and the even graph onto itself.  Hence d(a, b) =
d(1/0, g(b)), and g^-1 carries a shortest walk from 1/0 to g(b) onto
one from a to b.  See Short & Walker, *Even-integer continued fractions
and the Farey tree* (2016).

The even trace and the map g^-1 both run on plain (p, q) integer pairs,
and each vertex of the walk becomes a slope once.
"""

from __future__ import annotations

from .farey import (
    DomainError,
    PathKind,
    Slope,
    SlopePath,
    _canon_pair,
    _is_even_pair,
    _pair_trace,
    _parent_pairs,
    _sign_pair,
    is_even_vertex,
    parent_trace,
)


def _even_step(p: int, q: int) -> tuple[int, int]:
    """The even one of the two mediant parents of an even pair other than
    a root: the step of an even trace."""
    first, second = _parent_pairs(p, q)
    first_even = _is_even_pair(*first)
    if first_even == _is_even_pair(*second):
        # One odd vertex per Farey triangle makes this impossible.
        raise RuntimeError(
            f"parity structure violated at {p}/{q}: parents "
            f"{first[0]}/{first[1]}, {second[0]}/{second[1]}"
        )
    return first if first_even else second


def even_trace(s: Slope) -> SlopePath:
    """The canonical even walk from s down to 0/1.

    Repeatedly takes the unique even parent; when the trace bottoms out
    at 1/0 the final 1/0 -- 0/1 edge is appended so every trace ends at
    0/1.  The numerators strictly decrease along the parent segment, so
    the length is at most p + 1 (at most p once 0 < q < p).
    """
    if not is_even_vertex(s):
        raise DomainError(f"{s} is odd; it has no even trace")
    if s.p < 0:
        raise DomainError(f"{s} is negative; reflect before tracing")
    return SlopePath(tuple(parent_trace(s, _even_step)), PathKind.EVEN_FAREY)


def even_distance(a: Slope, b: Slope) -> tuple[int, SlopePath]:
    """Distance and a shortest walk between two slopes in the even Farey graph.

    Exact for the whole even graph, by the theta-group construction of
    the module docstring: g sends a to 1/0, and g^-1 carries the even
    walk from 1/0 to g(b) back.  For a = 1/0, g is the identity and the
    walk is the even trace of b, cut at 1/0.  The result is never below
    the full-graph distance.
    """
    if not (is_even_vertex(a) and is_even_vertex(b)):
        raise DomainError("both endpoints of an even-graph walk must be even")
    if a == b:
        return 0, SlopePath((a,), PathKind.EVEN_FAREY)
    p, q = a.p, a.q
    x = pow(p, -1, q) if q else 1  # x*p + y*q = 1; a = 1/0 gives g = I
    y = (1 - x * p) // q if q else 0
    k = (y if p % 2 else x) % 2
    gp, gq = x - k * q, y + k * p  # first row of g; its second row is (-q, p)
    # The even trace of g(b) from 0/1, cut at 1/0 when it passes there and
    # else started 1/0, 0/1, ...; the module docstring proves it shortest.
    walk = _pair_trace(*_canon_pair(gp * b.p + gq * b.q, p * b.q - q * b.p), _even_step)[::-1]
    walk = walk[1:] if walk[1:2] == [(1, 0)] else [(1, 0)] + walk
    # g^-1 = [[p, -gq], [q, gp]] carries the walk from 1/0 to one from a;
    # g^-1 is unimodular, so each image is primitive and only its sign is fixed
    vertices = tuple(Slope(*_sign_pair(p * r - gq * t, q * r + gp * t)) for r, t in walk)
    path = SlopePath(vertices, PathKind.EVEN_FAREY)
    return path.edges, path
