"""Exact invariants of the Kirby linking form, certified by a congruence.

The linking matrix M of a walk's framed link presents the intersection
form of the ambient 4-manifold, and connect sums of sphere bundles are
recognized by rank, signature, parity and unimodularity alone.  Rather
than eliminate M densely, `congruence` builds a unimodular P from the
link's slopes, computes T = P^T M P from M's own entries and checks that
T is block tridiagonal; every invariant is then read off O(n) integers.

The construction.  Number one coordinate's curves in link order; their
entries are M_ab = p_a * q_b for a <= b (the framing p*q on the
diagonal), and curves of distinct coordinates never link.  A curve equal
to the last kept curve s_i of its coordinate gets f_k = e_k - e_i.  The
first two kept curves get f_k = e_k.  Any later curve s_k is dual to the
last kept curve s_i, and s_i is dual to the kept curve s_h before it, so
det(s_i, s_h) = +-1 and s_k = alpha*s_i + beta*s_h with integers alpha,
beta; it gets f_k = e_k - alpha*e_i - beta*e_h.  The f_k are the columns
of P.

The proof.
- Unimodularity: each f_k is e_k minus earlier basis vectors, so P is
  unitriangular with det P = 1, and T has the rank, determinant,
  signature, parity and elementary divisors of M.
- Radical vectors: every curve from s_i to a repeat s_k equals s_i, so
  M_ck = M_ci for every c (p_c*q_k = p_c*q_i below i, p_k*q_c = p_i*q_c
  above k, p_i*q_i in between) and M f_k = 0.
- |b| = 1: for a later kept curve, (M f_k)_c = p_c*(q_k - alpha*q_i -
  beta*q_h) = 0 for c <= h and q_c*(p_k - alpha*p_i - beta*p_h) = 0 for
  c >= k, while for h < c < k it is beta*det(s_i, s_h) when c is i or a
  repeat of s_i and 0 when c repeats s_h.  Duality of s_k and s_i gives
  |beta| = 1, so M f_k = b*(e_i + repeats of s_i) with b = +-1.  Hence
  T is tridiagonal on each coordinate's kept curves, with off-diagonal
  entries +-1 (the first one is p*q' of the first two curves, 1 for a
  walk from 1/0), zero rows for the repeats and zero across coordinates.
  `congruence` checks all of this entry by entry and names the first
  entry of T that breaks the pattern.

The invariants.  A diagonal +-1 congruence makes every off-diagonal 1,
so a block with diagonal a_1 .. a_L has the leading minors d_k = a_k *
d_{k-1} - d_{k-2} (d_0 = 1, d_{-1} = 0), and gcd(d_k, d_{k-1}) = 1.
Signature: Jacobi's rule counts +1 for each step between minors of the
same sign and -1 for a sign change.  A zero d_k inside a block has
d_{k+1} = -d_{k-1} != 0, and by Frobenius's rule its two steps add one
positive and one negative square.  A zero d_L leaves the nondegenerate
leading block of order L - 1 and one unit of nullity.  Smith form: the
minor without the first row and last column is the product of the
off-diagonals, +-1, so a block's elementary divisors are L - 1 ones and
|d_L| (none when d_L = 0); the blocks' last divisors are combined by
gcd/lcm.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from . import construct
from .construct import ConnectSum, DualPath, KirbyCurve
from .farey import farey_det


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


class CongruenceError(ValueError):
    """The slopes give no congruence that makes the matrix block tridiagonal."""


@dataclass(frozen=True)
class TridiagonalForm:
    """A form congruent to T = P^T M P: irreducible tridiagonal blocks.

    Each block is given by its diagonal; its off-diagonal entries are
    +-1.  `radical` more rows are zero.  The order counts both.
    """

    order: int
    blocks: tuple[tuple[int, ...], ...]
    radical: int = 0

    @cached_property
    def minors(self) -> tuple[tuple[int, ...], ...]:
        """Each block's leading minors d_1 .. d_L, as continuants."""
        out = []
        for diagonal in self.blocks:
            ds = []
            before, d = 0, 1
            for a in diagonal:
                before, d = d, a * d - before
                ds.append(d)
            out.append(tuple(ds))
        return tuple(out)


def congruence(matrix: SymIntMatrix, curves: Sequence[KirbyCurve]) -> TridiagonalForm:
    """The certified tridiagonal form of a linking matrix (see the module doc).

    `curves[k]` is the curve of row k.  Raises `CongruenceError` naming the
    first entry of P^T M P, in row-major order, outside the pattern.
    """
    n = matrix.order
    if len(curves) != n:
        raise ValueError(f"{len(curves)} curves for a matrix of order {n}")
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
            d = farey_det(curves[i].slope, curves[h].slope)
            if abs(d) != 1:
                raise CongruenceError(f"curves {h} and {i} are neither equal nor dual")
            alpha = farey_det(s, curves[h].slope) * d  # Cramer's rule; 1/d = d
            beta = farey_det(curves[i].slope, s) * d
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


def det_int(form: TridiagonalForm) -> int:
    """Exact determinant: the product of the blocks' last minors, 0 below full rank."""
    if form.radical:
        return 0
    return math.prod(ds[-1] for ds in form.minors)


def signature(form: TridiagonalForm) -> int:
    """(# positive) - (# negative) squares, by Jacobi's and Frobenius's rules.

    A step between nonzero minors adds +1 when their signs agree and -1
    when they differ; a step into or out of a zero minor adds nothing.
    """
    total = 0
    for ds in form.minors:
        prev = 1
        for d in ds:
            if d and prev:
                total += 1 if (d > 0) == (prev > 0) else -1
            prev = d
    return total


class Parity(str, Enum):
    EVEN = "even"
    ODD = "odd"


def parity(form: TridiagonalForm) -> Parity:
    """Even iff Q(x, x) is always even, iff every diagonal entry of a basis is even."""
    if all(a % 2 == 0 for diagonal in form.blocks for a in diagonal):
        return Parity.EVEN
    return Parity.ODD


def smith_normal_form(form: TridiagonalForm) -> list[int]:
    """The elementary divisors d_1 | d_2 | ..., zeros omitted.

    Pairwise gcd/lcm in selection-sort order sorts each prime's exponents
    among the blocks' last divisors, which makes them a divisibility chain.
    """
    ends = [abs(ds[-1]) for ds in form.minors if ds[-1]]
    for i in range(len(ends)):
        for j in range(i + 1, len(ends)):
            g = math.gcd(ends[i], ends[j])
            ends[i], ends[j] = g, ends[i] * ends[j] // g
    return [1] * sum(len(ds) - 1 for ds in form.minors) + ends


@dataclass(frozen=True)
class FormInvariants:
    rank: int
    determinant: int
    signature: int
    parity: Parity
    elementary_divisors: tuple[int, ...]


def form_invariants(form: TridiagonalForm) -> FormInvariants:
    """Rank, determinant, signature, parity and elementary divisors."""
    sig = signature(form)
    divisors = tuple(smith_normal_form(form))
    return FormInvariants(
        rank=len(divisors),
        determinant=det_int(form),
        signature=sig,
        parity=parity(form),
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
    invariants: FormInvariants | None  # None when the congruence fails
    classified: ConnectSum
    identified: ConnectSum | None
    failures: tuple[str, ...]

    def __str__(self) -> str:
        if self.ok:
            return f"consistent: {self.classified.normal_form}"
        return "inconsistent: " + "; ".join(self.failures)


def consistency_check(path: DualPath) -> ConsistencyReport:
    """Cross-validate the classifier against the linking-matrix form.

    The linking matrix must be certified tridiagonal by `congruence`,
    and then have rank twice the dual step count, zero signature, a
    unimodular nondegenerate part, and odd parity exactly when the
    classifier emits a twisted summand; its recognized connect sum must
    match the classifier's normal form.  Any mismatch points at a
    linking sign-convention bug.
    """
    link = construct.kirby_link(path)
    classified = construct.classify(path)
    try:
        form = congruence(SymIntMatrix(link.linking_matrix), link.curves)
    except CongruenceError as exc:
        return ConsistencyReport(False, None, classified, None, (f"linking form: {exc}",))
    inv = form_invariants(form)
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
