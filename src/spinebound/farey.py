"""Exact slope arithmetic and shortest paths in the Farey graph.

A slope is a reduced fraction p/q (with 1/0 allowed) labelling the isotopy
class of an essential simple closed curve on the torus.  Two slopes are
*dual* when the curves can be isotoped to intersect exactly once, which
happens exactly when p1*q2 - p2*q1 = +-1.  The Farey graph has slopes as
vertices and dual pairs as edges.

Distances 0, 1 and 2 are decided by closed forms.  Longer distances come
from a bidirectional breadth-first search over the box of slopes with
|p| <= m and q <= m, where m is the largest coordinate of the two
endpoints.  The box holds a shortest walk, so every distance the search
returns is exact for the whole graph:

- Separation.  Take x not a root (0/1 or 1/0), with mediant parents L
  and R (reflected when x < 0).  No two Farey edges cross, so the edge
  L--R cuts the slopes strictly between L and R, on the side of x, off
  from all other slopes.  So if b is not strictly between them,
  d(x, b) = 1 + min(d(L, b), d(R, b)).
- Recursion.  The slopes strictly between the parents of x are x and
  its descendants in the mediant tree, so two distinct slopes cannot
  each lie strictly inside the other's parent interval, and a root lies
  inside none.  So one endpoint can always be replaced by a parent,
  down to the two roots, which are adjacent: some shortest walk from a
  to b runs through mediant ancestors of a and b only.
- Box.  The parents of p/q have numerators of size at most |p| and
  denominators at most q, so every ancestor of a or b lies in the box.

Mediant parents come from one integer step, `_parent_pairs`, on plain
(p, q) pairs.  Parent traces (`parent_trace`) walk those pairs down to a
root and build each slope of the walk once, at the end.

The search serves the full graph only: even distances have a closed
form, in :mod:`spinebound.evenfarey`.  A node budget, `_MAX_NODES`, still
bounds the work on large inputs.  All arithmetic is plain Python integer
arithmetic, hence exact at every size.

The search expands vertices in (q, p) order, and each expansion lists its
neighbours in closed form: the slopes dual to v are x0 + t*v up to sign,
all primitive and no two antipodal, so their canonical forms make two
arithmetic runs that alternate in (q, p) order and are interleaved with
no gcd, set or sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

# How many vertices a single search may expand before giving up and
# falling back to a walk that is only an upper bound.
_MAX_NODES = 10_000


class InvalidSlopeError(ValueError):
    """An integer pair that does not describe a torus slope."""


class DomainError(ValueError):
    """An operation was called outside the domain it is defined on."""


class NoPathWithinCap(Exception):
    """The search passed its node budget before connecting the endpoints.

    Carries a valid (generally non-minimal) witness path assembled from
    mediant parent traces, so callers can still report an upper bound.
    """

    def __init__(self, upper_bound: int, path: "SlopePath"):
        super().__init__(
            f"no path found within the search limits; "
            f"best known upper bound is {upper_bound}"
        )
        self.upper_bound = upper_bound
        self.path = path


@dataclass(frozen=True, slots=True)
class Slope:
    """A reduced fraction p/q with q >= 1, or exactly 1/0.

    Antipodal integer pairs describe the same unoriented curve, so the
    canonical form fixes q >= 1 (or (1, 0) for the infinite slope).  Use
    :func:`canonical` to build one from an arbitrary integer pair.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.q < 0 or (self.q == 0 and self.p != 1):
            raise InvalidSlopeError(f"({self.p}, {self.q}) is not in canonical form")
        if math.gcd(self.p, self.q) != 1:
            raise InvalidSlopeError(f"({self.p}, {self.q}) is not reduced")

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"

    @staticmethod
    def parse(text: str) -> "Slope":
        num, slash, den = text.strip().partition("/")
        if not slash:
            raise InvalidSlopeError(f"expected 'p/q', got {text!r}")
        try:
            return canonical(int(num), int(den))
        except InvalidSlopeError:
            raise
        except ValueError as exc:
            raise InvalidSlopeError(f"cannot parse slope {text!r}") from exc


MERIDIAN = Slope(0, 1)
LONGITUDE = Slope(1, 0)


def canonical(p: int, q: int) -> Slope:
    """Reduce and sign-normalize: canonical(p, q) == canonical(-p, -q)."""
    if p == 0 and q == 0:
        raise InvalidSlopeError("(0, 0) does not represent a curve")
    return Slope(*_canon_pair(p, q))


def _canon_pair(p: int, q: int) -> tuple[int, int]:
    g = math.gcd(p, q)
    return _sign_pair(p // g, q // g)


def _sign_pair(p: int, q: int) -> tuple[int, int]:
    """The sign-normalized form of a primitive pair: q > 0, or p/q = 1/0."""
    if q < 0 or (q == 0 and p < 0):
        return -p, -q
    return p, q


def farey_det(a: Slope, b: Slope) -> int:
    """p_a*q_b - p_b*q_a; the slopes are dual exactly when this is +-1."""
    return a.p * b.q - b.p * a.q


def is_even_vertex(s: Slope) -> bool:
    """True when p*q is even, i.e. the curve's surface framing is even."""
    return _is_even_pair(s.p, s.q)


def _is_even_pair(p: int, q: int) -> bool:
    """`is_even_vertex` on an integer pair."""
    return not (p & q & 1)


class PathKind(str, Enum):
    FAREY = "farey"
    EVEN_FAREY = "even_farey"


@dataclass(frozen=True)
class SlopePath:
    """A walk in the Farey graph: consecutive vertices are dual."""

    vertices: tuple[Slope, ...]
    kind: PathKind = PathKind.FAREY

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a path needs at least one vertex")
        for u, v in zip(self.vertices, self.vertices[1:]):
            if u == v:
                raise ValueError(f"consecutive vertices both equal {u}")
            if abs(farey_det(u, v)) != 1:
                raise ValueError(f"consecutive slopes {u} and {v} are not dual")
        if self.kind is PathKind.EVEN_FAREY:
            for v in self.vertices:
                if not is_even_vertex(v):
                    raise ValueError(f"{v} is not an even vertex")

    @property
    def edges(self) -> int:
        return len(self.vertices) - 1

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.vertices)


def _parent_pairs(p: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The mediant parents of the nonnegative non-root slope p/q, as integer
    pairs ordered by (denominator, numerator)."""
    # b1 in [1, q] with b1 == p^-1 (mod q); then a1*q - b1*p = -1.
    b1 = pow(p, -1, q) or q
    a1 = (b1 * p - 1) // q
    if (b1, a1) < (q - b1, p - a1):
        return (a1, b1), (p - a1, q - b1)
    return (p - a1, q - b1), (a1, b1)


def farey_parents(s: Slope) -> tuple[Slope, Slope]:
    """Mediant decomposition of a nonnegative slope.

    Returns the unique pair (a, c) with a + c = s componentwise and all
    three pairwise determinants equal to +-1, ordered by (denominator,
    numerator).  s = 1/1 follows the same order: its parents are the two
    roots, returned as (1/0, 0/1).
    """
    if s.p < 0:
        raise DomainError(f"{s} is negative; reflect before taking parents")
    if s in (MERIDIAN, LONGITUDE):
        raise DomainError(f"{s} is a root of the mediant tree and has no parents")
    first, second = _parent_pairs(s.p, s.q)
    return Slope(*first), Slope(*second)


def _neighbor_tuples(v: tuple[int, int], box: int) -> list[tuple[int, int]]:
    """Canonical slopes dual to v with |p| <= box and q <= box, sorted by (q, p).

    For v = p/q with q >= 1, take x0 = (a0, b0) with det(v, x0) = 1 and
    1 <= b0 <= q.  The solutions of det(v, x) = 1 are x_t = x0 + t*v; a
    common factor of x_t would divide det = 1, so each is primitive and
    no gcd is taken.  The solutions of det = -1 are their antipodes, so
    no two members of the family are one slope and no set is needed.
    Canonical forms split the family into two runs, x_t for t >= 0 and
    -x_t = k*v - x0 for t = -k <= -1; q = 0 occurs only as -x_{-1} = 1/0,
    when v = n/1.  Both runs step by +v, and adding v keeps (q, p)
    order, so the runs alternate from their heads on: 1 <= b0 <= q gives
    x_0 < -x_{-1} < x_1 or -x_{-1} < x_0 < -x_{-2}.  The box is an
    interval of t, so when both runs are nonempty it cuts only their far
    ends, and interleaving them from the smaller head, then appending
    the longer run's tail, is the sorted list without a keyed sort.
    """
    p, q = v
    if not q:  # v = 1/0: the family is (t, 1), a single run
        return [(t, 1) for t in range(-box, box + 1)]
    b0 = pow(p, -1, q) or q
    a0 = (p * b0 - 1) // q  # det(v, x0) = p*b0 - a0*q = 1
    lo, hi = -((box + b0) // q), (box - b0) // q  # |b0 + t*q| <= box
    if p:  # |a0 + t*p| <= box; c keeps the floors on the right side for p < 0
        c = box if p > 0 else -box
        lo, hi = max(lo, -((c + a0) // p)), min(hi, (c - a0) // p)
    s, k = max(lo, 0), max(-hi, 1)  # first t of the x_t run, first k of the k*v - x0 run
    xs = [(a0 + t * p, b0 + t * q) for t in range(s, hi + 1)]
    ys = [(t * p - a0, t * q - b0) for t in range(k, 1 - lo)]
    if not (xs and ys):
        return xs or ys
    if (ys[0][1], ys[0][0]) < (xs[0][1], xs[0][0]):
        xs, ys = ys, xs
    n = min(len(xs), len(ys))
    out = xs[:n] * 2
    out[::2], out[1::2] = xs[:n], ys[:n]
    return out + xs[n:] + ys[n:]


def neighbors(s: Slope, cap: int) -> list[Slope]:
    """All slopes dual to s with |p| <= cap and q <= cap, sorted by (q, p).

    The duals are x0 + t*s up to sign: each is primitive because its
    determinant with s is 1, so no gcd is taken, and their canonical
    forms make two runs that alternate in (q, p) order, so they are
    interleaved rather than sorted.  The full argument is at
    `_neighbor_tuples`.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return [Slope(p, q) for p, q in _neighbor_tuples((s.p, s.q), cap)]


def common_neighbors(a: Slope, b: Slope) -> list[Slope]:
    """The complete (at most two-element) list of slopes dual to both.

    Solves the four 2x2 unimodular systems det(x, a) = +-1,
    det(x, b) = +-1 exactly; an empty result for non-adjacent a, b
    certifies distance(a, b) >= 3 in the full graph.
    """
    if a == b:
        raise ValueError("common_neighbors needs two distinct slopes")
    d = farey_det(a, b)
    found = set()
    for e1, e2 in ((1, 1), (1, -1)):  # the (-1, *) pairs give antipodes
        pn = a.p * e2 - b.p * e1
        qn = a.q * e2 - b.q * e1
        if pn % d == 0 and qn % d == 0:
            found.add(_canon_pair(pn // d, qn // d))
    return [Slope(p, q) for p, q in sorted(found, key=lambda t: (t[1], t[0]))]


def _splice(vertices: list[Slope]) -> list[Slope]:
    """Cut out the loops of a walk, keeping it a valid dual walk."""
    out: list[Slope] = []
    index: dict[Slope, int] = {}
    for v in vertices:
        if v in index:
            for w in out[index[v] + 1:]:
                index.pop(w, None)
            del out[index[v] + 1:]
        else:
            index[v] = len(out)
            out.append(v)
    return out


def _mediant_step(p: int, q: int) -> tuple[int, int]:
    """The step of a mediant trace: the parent of the pair (p, q) other
    than 0/1, so the trace reaches 1/0 first whenever it can."""
    first, second = _parent_pairs(p, q)
    return second if first == (0, 1) else first


def _pair_trace(
    p: int, q: int, step: Callable[[int, int], tuple[int, int]]
) -> list[tuple[int, int]]:
    """The trace of the canonical pair (p, q) as integer pairs; see `parent_trace`."""
    if p < 0:  # reflect; 1/0 is its own reflection
        return [(-a if b else a, b) for a, b in _pair_trace(-p, q, step)]
    out = [(p, q)]
    while p and q:  # the roots 0/1 and 1/0 are the nonnegative pairs with a zero
        p, q = step(p, q)
        out.append((p, q))
    if not q:
        out.append((0, 1))
    return out


def parent_trace(s: Slope, step: Callable[[int, int], tuple[int, int]]) -> list[Slope]:
    """Walk the integer parent `step` from s down to a root, ending at 0/1.

    The walk steps on plain (p, q) pairs and builds each slope once, at
    the end.  When it bottoms out at 1/0 the final 1/0 -- 0/1 edge is
    appended.  Negative slopes are handled by reflection, which is a
    graph automorphism fixing both roots.
    """
    return [Slope(p, q) for p, q in _pair_trace(s.p, s.q, step)]


def _fallback_walk(a: Slope, b: Slope) -> SlopePath:
    """A valid a-to-b walk through 0/1 built from the mediant traces of both ends."""
    walk = parent_trace(a, _mediant_step) + parent_trace(b, _mediant_step)[::-1][1:]
    return SlopePath(tuple(_splice(walk)))


def _branch(
    prev: dict[tuple[int, int], tuple[int, int] | None], v: tuple[int, int] | None
) -> list[tuple[int, int]]:
    """v and its ancestors in a BFS tree of parent links, the root last."""
    out = []
    while v is not None:
        out.append(v)
        v = prev[v]
    return out


def farey_distance(
    a: Slope, b: Slope, *, upper: SlopePath | None = None
) -> tuple[int, SlopePath]:
    """Distance and witness path between two slopes, exact for the whole graph.

    Distances 0/1/2 are decided by closed forms.  Otherwise a
    bidirectional BFS runs over the endpoint box of the module docstring,
    expanding the smaller frontier one full layer at a time; the first
    layer after which the two visited sets intersect yields the distance.
    When `upper` is given and no shorter path can exist the witness is
    returned as the answer.  Expanding more than `_MAX_NODES` vertices
    raises :class:`NoPathWithinCap` carrying `upper`, or else the walk
    through 0/1 that the mediant traces of both endpoints give.
    """
    if a == b:
        return 0, SlopePath((a,))
    if abs(farey_det(a, b)) == 1:
        return 1, SlopePath((a, b))
    mids = common_neighbors(a, b)
    if mids:
        return 2, SlopePath((a, mids[0], b))

    def give_up() -> None:
        witness = upper if upper is not None else _fallback_walk(a, b)
        raise NoPathWithinCap(witness.edges, witness)

    upper_edges = upper.edges if upper is not None else None
    box = max(abs(a.p), a.q, abs(b.p), b.q)
    src, dst = (a.p, a.q), (b.p, b.q)
    prev_f: dict[tuple[int, int], tuple[int, int] | None] = {src: None}
    prev_b: dict[tuple[int, int], tuple[int, int] | None] = {dst: None}
    frontier_f, frontier_b = [src], [dst]
    radius_f = radius_b = 0
    expanded = 0
    while frontier_f and frontier_b:
        if upper_edges is not None and radius_f + radius_b + 1 >= upper_edges:
            # No meet so far means d >= radius_f + radius_b + 1, so the
            # witness is already a shortest walk.
            return upper_edges, upper
        forward = len(frontier_f) <= len(frontier_b)
        frontier = frontier_f if forward else frontier_b
        prev_here, prev_there = (prev_f, prev_b) if forward else (prev_b, prev_f)
        next_frontier: list[tuple[int, int]] = []
        for v in sorted(frontier, key=lambda t: (t[1], t[0])):
            expanded += 1
            if expanded > _MAX_NODES:
                give_up()
            for w in _neighbor_tuples(v, box):
                if w not in prev_here:
                    prev_here[w] = v
                    next_frontier.append(w)
        if forward:
            frontier_f, radius_f = next_frontier, radius_f + 1
        else:
            frontier_b, radius_b = next_frontier, radius_b + 1
        meets = [w for w in next_frontier if w in prev_there]
        if meets:
            # Each meet joins its branches of the two BFS trees into a
            # walk; the shortest wins, ties going to the smaller (q, p).
            walks = {w: _branch(prev_f, w)[::-1] + _branch(prev_b, w)[1:] for w in meets}
            meet = min(meets, key=lambda t: (len(walks[t]), t[1], t[0]))
            path = SlopePath(tuple(Slope(p, q) for p, q in walks[meet]))
            return path.edges, path
    raise AssertionError("unreachable: the endpoint box is connected")
