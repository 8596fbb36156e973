"""Lens space normalization and sphere-bundle embedding bounds.

A lens space L(p, q) with p >= 2 has a genus-1 Heegaard splitting whose
two sides are the 0/1 curve and the p/q curve.  Walking from 0/1 through
1/0 to a slope of L(p, q) in the Farey graph (or its even subgraph)
produces a trisected connect sum of n sphere bundles containing the lens
space, where n is one less than the number of edges walked.  The twisted
bound minimizes over all homeomorphism representatives in the full graph,
by a capped search that is exact for the cap-restricted graph.  The
untwisted bound does the same in the even subgraph, where every summand
split off is S2 x S2; its distances have a closed form, exact for the
whole even graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

# even_trace is not called here; it stays importable as lens.even_trace,
# which perfbench/spans.py wraps next to the two distance engines.
from .evenfarey import even_distance, even_trace  # noqa: F401
from .farey import (
    LONGITUDE,
    MERIDIAN,
    NoPathWithinCap,
    Slope,
    SlopePath,
    default_cap,
    farey_distance,
    is_even_vertex,
    mediant_parent,
    parent_trace,
)


@dataclass(frozen=True, slots=True)
class LensSpace:
    """L(p, q) with p >= 2 and 1 <= q < p coprime to p.

    p = 0 and p = 1 (the sphere and S1 x S2) are rejected: they are not
    lens spaces in the sense used here and the bound machinery needs
    distance >= 2 targets.
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"L({self.p}, {self.q}): need p >= 2")
        if not 1 <= self.q < self.p:
            raise ValueError(f"L({self.p}, {self.q}): need 1 <= q < p")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"L({self.p}, {self.q}) is not a lens space (gcd > 1)")

    def __str__(self) -> str:
        return f"L({self.p},{self.q})"


class Exactness(str, Enum):
    # Untwisted answers: exact for the whole even graph.  Twisted ones:
    # exact for the cap-restricted full graph.
    CERTIFIED = "certified"
    UPPER_BOUND = "upper_bound"  # twisted only: a parent-trace witness; the search gave up


@dataclass(frozen=True)
class BoundResult:
    """Summand-count bound with its witness walk.

    The walk always starts 0/1, 1/0, ... as the diagram construction
    requires, and n equals its edge count minus one.
    """

    n: int
    path: SlopePath
    representative: LensSpace
    exactness: Exactness

    def __post_init__(self):
        if self.n != self.path.edges - 1:
            raise ValueError("n must be one less than the walk's edge count")
        if self.path.vertices[0] != MERIDIAN or self.path.vertices[1] != LONGITUDE:
            raise ValueError("bound walks must start 0/1, 1/0")


def normalize(p: int, q: int) -> LensSpace:
    """Reduce q modulo p into (0, p) and validate the result."""
    if p < 2:
        raise ValueError(f"L({p}, {q}) is excluded; need p >= 2")
    qm = q % p
    if qm == 0 or math.gcd(p, qm) != 1:
        raise ValueError(f"L({p}, {q}) is not a lens space")
    return LensSpace(p, qm)


def equivalent_reps(lens: LensSpace) -> frozenset[LensSpace]:
    """All unoriented homeomorphism representatives {+-q^{+-1} mod p}."""
    p, q = lens.p, lens.q
    qinv = pow(q, -1, p)
    return frozenset(LensSpace(p, r) for r in (q, p - q, qinv, p - qinv))


def _mediant_tail(target: Slope) -> SlopePath:
    """The mediant-trace walk [1/0, ..., target].

    For a lens representative the target has p > q >= 1, and every
    mediant ancestor of such a slope again has numerator >= denominator,
    so the trace bottoms out at 1/0.
    """
    trace = parent_trace(target, mediant_parent)
    if trace[-2] != LONGITUDE:
        raise RuntimeError(f"trace of {target} does not route through 1/0")
    return SlopePath(tuple(reversed(trace[:-1])))


_Walk = tuple[int, SlopePath, Exactness]


def _best_bound(lens: LensSpace, walk: Callable[[Slope], _Walk], *, even: bool) -> BoundResult:
    """The shortest `walk` from 1/0 over the lens space's representatives,
    prefixed with 0/1; in the even graph only even targets are tried."""
    best: BoundResult | None = None
    for rep in sorted(equivalent_reps(lens), key=lambda r: r.q):
        target = Slope(rep.p, rep.q)
        if even and not is_even_vertex(target):
            continue
        d, path, exactness = walk(target)
        if best is None or d < best.n:
            best = BoundResult(d, SlopePath((MERIDIAN,) + path.vertices, path.kind), rep, exactness)
        if best.n == 1:
            break
    if best is None:
        # Unreachable: p even makes every q' odd, p odd makes one of
        # q', p - q' even, so an even representative always exists.
        raise RuntimeError(f"no even representative for {lens}")
    return best


def twisted_bound(lens: LensSpace, cap: int | None = None) -> BoundResult:
    """Fewest twisted-bundle summands our walks realize for this lens space.

    Minimizes the walk length from 0/1 through 1/0 over all homeomorphism
    representatives; n >= 1 always since p >= 2 keeps the target at
    distance >= 2 from 0/1.  A `certified` answer is exact for the graph
    capped at `cap` (default `default_cap`); when the search gives up,
    the mediant trace is the `upper_bound` answer.
    """
    cap = cap if cap is not None else default_cap(Slope(lens.p, lens.q))

    def walk(target: Slope) -> _Walk:
        try:
            d, path = farey_distance(LONGITUDE, target, cap, upper=_mediant_tail(target))
        except NoPathWithinCap as exc:
            return exc.upper_bound, exc.path, Exactness.UPPER_BOUND
        return d, path, Exactness.CERTIFIED

    return _best_bound(lens, walk, even=False)


def untwisted_bound(lens: LensSpace) -> BoundResult:
    """Like :func:`twisted_bound` but restricted to the even Farey graph.

    Every vertex of the witness walk is even, so the resulting connect
    sum is built from untwisted bundles only.  Every answer is
    `certified`, which here means exact for the whole even graph: the
    walk is the even trace of the winning representative.
    """
    return _best_bound(
        lens, lambda target: (*even_distance(LONGITUDE, target), Exactness.CERTIFIED), even=True
    )


@dataclass(frozen=True)
class TableRow:
    lens: LensSpace
    twisted: BoundResult
    untwisted: BoundResult


def prop_bound_table(p_max: int, cap: int | None = None) -> list[TableRow]:
    """Both bounds for every lens space with 2 <= p <= p_max.

    One row per homeomorphism class, keyed by the representative with the
    smallest q; rows are ordered by (p, q).  `cap` bounds the twisted
    search only.
    """
    if p_max < 2:
        raise ValueError("p_max must be at least 2")
    rows = []
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            lens = LensSpace(p, q)
            if min(r.q for r in equivalent_reps(lens)) != q:
                continue
            rows.append(TableRow(lens, twisted_bound(lens, cap), untwisted_bound(lens)))
    return rows
