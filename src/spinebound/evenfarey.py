"""The even Farey graph: slopes whose curves have even surface framing.

The torus embedding frames a (p, q) curve with framing p*q, so walks that
should only split off untwisted sphere bundles must stay on slopes with
p*q even.  Every triangle of the Farey tessellation has exactly one odd
vertex (reduce p_i*q_j - p_j*q_i = +-1 mod 2), which gives every even
non-root slope a unique even mediant parent; tracing those parents is an
explicit connectivity witness for the even subgraph.

Note the subgraph is bipartite (classes p even / p odd), so all even
walks between two fixed slopes share one length parity.
"""

from __future__ import annotations

from .farey import (
    DEFAULT_MAX_NODES,
    DomainError,
    LONGITUDE,
    MERIDIAN,
    PathKind,
    Slope,
    SlopePath,
    _graph_distance,
    farey_parents,
    is_even_vertex,
    parent_trace,
)


def even_parent(s: Slope) -> Slope:
    """The unique mediant parent of an even slope that is itself even.

    Covers the boundary rows as well: (1, 2k) -> 0/1 and (2k, 1) -> 1/0
    fall out of the general parent computation.
    """
    if not is_even_vertex(s):
        raise DomainError(f"{s} is odd; even parents exist only for even slopes")
    if s.p < 0:
        raise DomainError(f"{s} is negative; reflect before tracing")
    if s in (MERIDIAN, LONGITUDE):
        raise DomainError(f"{s} is a root of the even Farey graph")
    first, second = farey_parents(s)
    first_even, second_even = is_even_vertex(first), is_even_vertex(second)
    if first_even == second_even:
        # One odd vertex per Farey triangle makes this impossible.
        raise RuntimeError(f"parity structure violated at {s}: parents {first}, {second}")
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
    return SlopePath(tuple(parent_trace(s, even_parent)), PathKind.EVEN_FAREY)


def even_distance(
    a: Slope,
    b: Slope,
    cap: int,
    *,
    max_nodes: int = DEFAULT_MAX_NODES,
    upper: SlopePath | None = None,
) -> tuple[int, SlopePath]:
    """Distance between two even slopes inside the even Farey graph.

    Same exactness contract as :func:`spinebound.farey.farey_distance`,
    with the search restricted to even vertices; the result is never below
    the full-graph distance.
    """
    return _graph_distance(
        a, b, cap, even=True, max_nodes=max_nodes, upper=upper, parent=even_parent
    )


def iteration_index(s: Slope) -> int:
    """Depth of s in the mediant tree grown from 0/1 and 1/0.

    index(0/1) = index(1/0) = 0 and index(s) = 1 + max over the two
    mediant parents.  This is a tree depth, not an even-graph distance;
    for example 7/2 has depth 5 but even-graph distance 3 from 0/1, so
    the two are reported separately and never assumed equal.
    """
    if s.p < 0:
        raise DomainError(f"{s} is negative; depth is defined on the nonnegative fan")
    memo: dict[Slope, int] = {MERIDIAN: 0, LONGITUDE: 0}
    stack = [s]
    while stack:
        v = stack[-1]
        if v in memo:
            stack.pop()
            continue
        parents = farey_parents(v)
        missing = [w for w in parents if w not in memo]
        if missing:
            stack.extend(missing)
        else:
            memo[v] = 1 + max(memo[parents[0]], memo[parents[1]])
            stack.pop()
    return memo[s]
