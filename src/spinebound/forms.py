"""Exact invariants of integer symmetric bilinear forms.

Used as an independent oracle for the connect-sum classifier: the linking
matrix of a framed link presents the intersection form of the ambient
4-manifold, and connect sums of sphere bundles are recognized by rank,
signature, parity and unimodularity alone.  Everything is computed in
exact integer arithmetic: one symmetric fraction-free Bareiss pass gives
the leading minors of a congruent matrix, from which the rank is their
count, the determinant is the last minor at full rank and the signature
follows by Jacobi's rule.  A matrix runs that pass at most once and keeps
its minors.  A unimodular form (|det| = 1) has all elementary divisors 1;
any other form gets them from integer Smith reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from . import construct
from .construct import ConnectSum, DualPath


@dataclass(frozen=True)
class SymIntMatrix:
    """An immutable symmetric integer matrix."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"matrix not symmetric at ({i}, {j})")

    @classmethod
    def from_rows(cls, rows) -> "SymIntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.entries)

    @cached_property
    def leading_minors(self) -> tuple[int, ...]:
        """The nonzero leading minors of `_leading_minors`, computed once.

        `det_int`, `signature` and `form_invariants` all read them, so a
        matrix pays for one elimination however many of them it meets.
        """
        return tuple(_leading_minors(self))


def _leading_minors(matrix: SymIntMatrix) -> list[int]:
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
    tri = [list(row[i:]) for i, row in enumerate(matrix.entries)]
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


def det_int(matrix: SymIntMatrix) -> int:
    """Exact determinant: the last leading minor when the rank is full.

    Congruence by a unimodular matrix leaves the determinant unchanged.
    """
    minors = matrix.leading_minors
    if len(minors) < matrix.order:
        return 0
    return minors[-1] if minors else 1


def signature(matrix: SymIntMatrix) -> int:
    """(# positive) - (# negative) eigenvalues, by Jacobi's rule.

    With d_0 = 1 and d_1, d_2, ... the nonzero leading minors of a
    congruent matrix, each step whose sign agrees with the previous one
    adds +1 and each sign change adds -1.
    """
    total = 0
    prev = 1
    for d in matrix.leading_minors:
        total += 1 if (d > 0) == (prev > 0) else -1
        prev = d
    return total


class Parity(str, Enum):
    EVEN = "even"
    ODD = "odd"


def parity(matrix: SymIntMatrix) -> Parity:
    """Even iff Q(x, x) is always even, iff every diagonal entry is even."""
    if all(matrix.entries[i][i] % 2 == 0 for i in range(matrix.order)):
        return Parity.EVEN
    return Parity.ODD


def smith_normal_form(matrix: SymIntMatrix) -> list[int]:
    """The elementary divisors d_1 | d_2 | ..., zeros omitted."""
    return _snf(list(list(row) for row in matrix.entries))


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


@dataclass(frozen=True)
class FormInvariants:
    rank: int
    determinant: int
    signature: int
    parity: Parity
    elementary_divisors: tuple[int, ...]


def form_invariants(matrix: SymIntMatrix) -> FormInvariants:
    """Rank, determinant, signature, parity and elementary divisors.

    The signature and the determinant share the matrix's one Bareiss
    pass.  A nonzero determinant means full rank, and then the elementary
    divisors are positive integers whose product is |det|; so |det| = 1
    forces them all to be 1, and only other forms run the Smith reduction.
    """
    sig = signature(matrix)
    det = det_int(matrix)
    if abs(det) == 1:
        divisors = (1,) * matrix.order
    else:
        divisors = tuple(smith_normal_form(matrix))
    return FormInvariants(
        rank=len(divisors),
        determinant=det,
        signature=sig,
        parity=parity(matrix),
        elementary_divisors=divisors,
    )


def identify(inv: FormInvariants) -> ConnectSum | None:
    """Recognize the form of a connect sum of sphere bundles, else None.

    Requires positive even rank, zero signature and a unimodular
    nondegenerate part (all elementary divisors 1); even forms are
    #^n S2xS2, odd forms #^n S2x~S2 with n = rank / 2.
    """
    if inv.rank == 0 or inv.rank % 2:
        return None
    if inv.signature != 0:
        return None
    if any(d != 1 for d in inv.elementary_divisors):
        return None
    n = inv.rank // 2
    if inv.parity is Parity.EVEN:
        return ConnectSum(n, 0)
    return ConnectSum(0, n)


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    invariants: FormInvariants
    classified: ConnectSum
    identified: ConnectSum | None
    failures: tuple[str, ...]

    def __str__(self) -> str:
        if self.ok:
            return f"consistent: {self.classified.normal_form}"
        return "inconsistent: " + "; ".join(self.failures)


def consistency_check(path: DualPath) -> ConsistencyReport:
    """Cross-validate the classifier against the linking-matrix form.

    The Kirby linking matrix of the walk must have rank twice the dual
    step count, zero signature, a unimodular nondegenerate part, and odd
    parity exactly when the classifier emits a twisted summand; its
    recognized connect sum must match the classifier's normal form.  Any
    mismatch points at a linking sign-convention bug.
    """
    link = construct.kirby_link(path)
    matrix = SymIntMatrix(link.linking_matrix)
    inv = form_invariants(matrix)
    classified = construct.classify(path)
    identified = identify(inv)
    failures = []
    expected_rank = 2 * classified.total
    if inv.rank != expected_rank:
        failures.append(f"rank {inv.rank} != 2*(a+b) = {expected_rank}")
    if inv.signature != 0:
        failures.append(f"signature {inv.signature} != 0")
    if any(d != 1 for d in inv.elementary_divisors):
        failures.append(
            "nondegenerate part not unimodular: "
            f"elementary divisors {list(inv.elementary_divisors)}"
        )
    twisted = classified.raw_twisted >= 1
    if (inv.parity is Parity.ODD) != twisted:
        failures.append(
            f"parity {inv.parity.value} inconsistent with "
            f"{classified.raw_twisted} twisted summand(s)"
        )
    if identified is None:
        failures.append("linking form not recognized as a connect sum of sphere bundles")
    elif identified.normal_form != classified.normal_form:
        failures.append(
            f"form says {identified.normal_form}, classifier says {classified.normal_form}"
        )
    return ConsistencyReport(
        ok=not failures,
        invariants=inv,
        classified=classified,
        identified=identified,
        failures=tuple(failures),
    )
