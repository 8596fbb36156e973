"""Exact invariants of the Kirby linking form, certified by a congruence.

The linking matrix M of a walk's framed link presents the intersection
form of the ambient 4-manifold, and connect sums of sphere bundles are
recognized by rank, signature, parity and unimodularity alone.  Rather
than eliminate M densely, `congruence` builds a unimodular P from the
link's slopes, for which T = P^T M P is block tridiagonal, and computes
from the slopes alone the O(n) entries of T that the proof below leaves
open; every invariant is then read off those integers.

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

The computation.  Each f_k has at most three terms, so T_kk and the
entry T_ik between neighbours i < k of a chain are sums of at most nine
products p_a*q_b with a <= b.  `congruence` computes only these, O(n)
integers, and never reads M.  The neighbour entries are the b above and
the first pair's p*q', so checking each against +-1 catches a kept curve
that is not dual to the one before it; every other entry of T is zero by
the proof.  The tests keep the dense check: `oracles.dense_congruence`
multiplies out all n^2 entries of T from M's own entries and names the
first that breaks the pattern.

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

from .construct import ConnectSum, FramedLink, KirbyCurve
from .farey import farey_det


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


def congruence(curves: Sequence[KirbyCurve]) -> TridiagonalForm:
    """The certified tridiagonal form of the curves' linking matrix (see the
    module doc).

    `curves[k]` is the curve of row k.  Only the diagonal of each kept
    curve and the entries between neighbours in a chain are computed; the
    proof makes every other entry zero.  Raises `CongruenceError` naming
    the first entry of P^T M P, in row-major order, outside the pattern.
    """
    p = [c.slope.p for c in curves]
    q = [c.slope.q for c in curves]

    def entry(f, g) -> int:
        """f^T M g for vectors of (index, coefficient) terms in one coordinate."""
        return sum(x * y * (p[a] * q[b] if a <= b else p[b] * q[a]) for a, x in f for b, y in g)

    kept: dict[int, list[int]] = {}
    moves = {}  # the terms of f_k for each kept curve k
    for k, curve in enumerate(curves):
        chain = kept.setdefault(curve.coordinate, [])
        s = curve.slope
        if chain and curves[chain[-1]].slope == s:
            continue  # f_k = e_k - e_i spans part of the radical: row k of T is zero
        if len(chain) < 2:
            moves[k] = ((k, 1),)
        else:
            i, h = chain[-1], chain[-2]
            d = farey_det(curves[i].slope, curves[h].slope)
            if abs(d) != 1:
                raise CongruenceError(f"curves {h} and {i} are neither equal nor dual")
            alpha = farey_det(s, curves[h].slope) * d  # Cramer's rule; 1/d = d
            beta = farey_det(curves[i].slope, s) * d
            moves[k] = ((k, 1), (i, -alpha), (h, -beta))
        chain.append(k)

    bad = []
    for chain in kept.values():
        for i, k in zip(chain, chain[1:]):
            t = entry(moves[i], moves[k])
            if abs(t) != 1:
                bad.append((i, k, t))
    if bad:
        i, k, t = min(bad)
        raise CongruenceError(f"P^T M P entry ({i}, {k}) is {t}, expected +-1")
    return TridiagonalForm(
        order=len(curves),
        blocks=tuple(tuple(entry(moves[k], moves[k]) for k in chain) for chain in kept.values()),
        radical=len(curves) - len(moves),
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


def consistency_check(link: FramedLink, classified: ConnectSum) -> ConsistencyReport:
    """Cross-validate the classifier against the linking-matrix form.

    `link` is a walk's framed link (`construct.kirby_link`) and
    `classified` the same walk's connect sum (`construct.classify`); the
    caller builds both once and may write them out as well.  Only
    `link.curves` is read: `congruence` certifies the linking form
    tridiagonal from the slopes, and it must then have rank twice the
    dual step count, zero signature, a
    unimodular nondegenerate part, and odd parity exactly when the
    classifier emits a twisted summand; its recognized connect sum must
    match the classifier's normal form.  Any mismatch points at a
    linking sign-convention bug.
    """
    try:
        form = congruence(link.curves)
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
