import math
import random
from collections import Counter

import pytest

import oracles
from spinebound import forms
from spinebound import (
    ConnectSum,
    FormInvariants,
    LensSpace,
    Parity,
    PathMode,
    SymIntMatrix,
    consistency_check,
    det_int,
    form_invariants,
    identify,
    kirby_link,
    parity,
    path_from_lens,
    path_product,
    signature,
    smith_normal_form,
)

PAPER_72_MATRIX = SymIntMatrix.from_rows(
    [[0, 1, 2, 1], [1, 3, 6, 3], [2, 6, 14, 7], [1, 3, 7, 3]]
)


def rand_sym(rng, order, lo=-20, hi=20):
    rows = [[0] * order for _ in range(order)]
    for i in range(order):
        for j in range(i, order):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return SymIntMatrix.from_rows(rows)


def rand_unimodular(rng, order, shears):
    """A random product of `shears` row shears x_a += c*x_b, |c| <= 3."""
    u = [[1 if i == j else 0 for j in range(order)] for i in range(order)]
    for _ in range(shears):
        a, b = rng.sample(range(order), 2)
        c = rng.randint(-3, 3)
        for k in range(order):
            u[a][k] += c * u[b][k]
    return u


def congruent(rows, u):
    """U M U^T."""
    order = len(rows)
    um = [[sum(u[i][k] * rows[k][j] for k in range(order)) for j in range(order)] for i in range(order)]
    return [[sum(um[i][k] * u[j][k] for k in range(order)) for j in range(order)] for i in range(order)]


class TestDet:
    def test_hopf_family(self):
        for n in range(-5, 10):
            assert det_int(SymIntMatrix.from_rows([[0, 1], [1, n]])) == -1

    def test_identity(self):
        assert det_int(SymIntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1

    def test_paper_matrix_unimodular(self):
        assert abs(det_int(PAPER_72_MATRIX)) == 1

    def test_against_cofactor_expansion(self):
        rng = random.Random(21)
        for order in range(0, 6):
            for _ in range(12):
                m = rand_sym(rng, order)
                assert det_int(m) == oracles.cofactor_det([list(r) for r in m.entries])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            SymIntMatrix.from_rows([[0, 1], [2, 0]])


class TestSignature:
    def test_hyperbolic_plane(self):
        assert signature(SymIntMatrix.from_rows([[0, 1], [1, 0]])) == 0

    def test_diag_mixed(self):
        assert signature(SymIntMatrix.from_rows([[1, 0], [0, -1]])) == 0

    def test_indefinite_rank2(self):
        assert signature(SymIntMatrix.from_rows([[0, 1], [1, 3]])) == 0

    def test_definite(self):
        assert signature(SymIntMatrix.from_rows([[2, 1], [1, 2]])) == 2
        assert signature(SymIntMatrix.from_rows([[-1, 0], [0, -3]])) == -2

    def test_degenerate(self):
        assert signature(SymIntMatrix.from_rows([[0, 0], [0, 5]])) == 1

    def test_signature_plus_rank_even_when_unimodular_part(self):
        rng = random.Random(22)
        for _ in range(40):
            m = rand_sym(rng, rng.randint(1, 6))
            inv = form_invariants(m)
            assert (inv.signature - inv.rank) % 2 == 0
            assert abs(inv.signature) <= inv.rank

    def test_congruence_invariance(self):
        rng = random.Random(23)
        for _ in range(25):
            order = rng.randint(2, 6)
            m = rand_sym(rng, order, -9, 9)
            base = signature(m)
            umu = congruent([list(r) for r in m.entries], rand_unimodular(rng, order, 6))
            assert signature(SymIntMatrix.from_rows(umu)) == base


class TestAgainstCharPoly:
    """Bareiss-Jacobi signature and det against the characteristic polynomial."""

    @staticmethod
    def zero_heavy(rng, order):
        rows = [[0] * order for _ in range(order)]
        for i in range(order):
            for j in range(i, order):
                if rng.random() < 0.6:
                    rows[i][j] = rows[j][i] = rng.randint(-6, 6)
        if order >= 2 and rng.random() < 0.4:
            # duplicate a row and column: a forced rank deficit
            a, b = rng.sample(range(order), 2)
            rows[b] = list(rows[a])
            for row in rows:
                row[b] = row[a]
        return rows

    @staticmethod
    def unimodular_image(rng, order):
        """P^T H P for H a sum of hyperbolic and odd unimodular blocks and P unimodular."""
        blocks = ([[0, 1], [1, 0]], [[0, 1], [1, 1]], [[1]], [[-1]])
        rows = [[0] * order for _ in range(order)]
        i = 0
        while i < order:
            block = rng.choice([b for b in blocks if len(b) <= order - i])
            for r, row in enumerate(block):
                rows[i + r][i : i + len(row)] = row
            i += len(block)
        return congruent(rows, rand_unimodular(rng, order, 3 * order))

    def test_random_zero_heavy(self):
        rng = random.Random(25)
        deficient = 0
        for order in range(0, 9):
            for _ in range(40):
                rows = self.zero_heavy(rng, order)
                m = SymIntMatrix.from_rows(rows)
                assert signature(m) == oracles.char_poly_signature(rows), rows
                assert det_int(m) == oracles.cofactor_det(rows), rows
                deficient += det_int(m) == 0
        assert deficient >= 60  # the rank-deficit moves were exercised

    def test_kirby_matrices(self):
        for lens in (LensSpace(7, 2), LensSpace(13, 5)):
            for mode in ("any", "even"):
                rows = [list(r) for r in kirby_link(path_from_lens(lens, mode)).linking_matrix]
                m = SymIntMatrix.from_rows(rows)
                assert signature(m) == oracles.char_poly_signature(rows) == 0
                assert det_int(m) == oracles.cofactor_det(rows)

    def test_form_invariants_match_parts(self):
        """The shared pass and the |det| = 1 shortcut agree with det,
        signature and Smith form computed on a fresh copy of the matrix."""
        rng = random.Random(26)
        samples = [self.zero_heavy(rng, order) for order in range(0, 9) for _ in range(40)]
        samples += [self.unimodular_image(rng, order) for order in range(2, 13) for _ in range(8)]
        kinds = Counter()
        for rows in samples:
            m = SymIntMatrix.from_rows(rows)
            snf = smith_normal_form(m)
            expected = FormInvariants(len(snf), det_int(m), signature(m), parity(m), tuple(snf))
            assert form_invariants(SymIntMatrix.from_rows(rows)) == expected, rows
            if len(snf) < m.order:
                kinds["rank-deficient"] += 1
            elif abs(expected.determinant) == 1:
                kinds["dense unimodular"] += sum(x != 0 for r in rows for x in r) > m.order**2 // 2
            else:
                kinds["|det| > 1"] += 1
        assert kinds["dense unimodular"] >= 60, kinds
        assert kinds["rank-deficient"] >= 60 and kinds["|det| > 1"] >= 60, kinds


def test_one_elimination_per_matrix(monkeypatch):
    calls = []
    kernel = forms._leading_minors
    monkeypatch.setattr(forms, "_leading_minors", lambda m: calls.append(m) or kernel(m))
    m = SymIntMatrix.from_rows(PAPER_72_MATRIX.entries)
    inv = form_invariants(m)
    assert (det_int(m), signature(m)) == (inv.determinant, inv.signature) == (1, 0)
    assert calls == [m]


class TestParity:
    def test_examples(self):
        assert parity(SymIntMatrix.from_rows([[0, 1], [1, 4]])) is Parity.EVEN
        assert parity(SymIntMatrix.from_rows([[0, 1], [1, 3]])) is Parity.ODD
        assert parity(PAPER_72_MATRIX) is Parity.ODD


class TestSmith:
    def test_coprime_pair(self):
        assert smith_normal_form(SymIntMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]

    def test_zero_matrix(self):
        assert smith_normal_form(SymIntMatrix.from_rows([[0, 0], [0, 0]])) == []

    def test_hopf_family(self):
        for n in range(-4, 8):
            assert smith_normal_form(SymIntMatrix.from_rows([[0, 1], [1, n]])) == [1, 1]

    def test_divisibility_chain_and_det(self):
        rng = random.Random(24)
        for _ in range(40):
            m = rand_sym(rng, rng.randint(1, 6), -12, 12)
            divisors = smith_normal_form(m)
            for d1, d2 in zip(divisors, divisors[1:]):
                assert d2 % d1 == 0
            if len(divisors) == m.order:
                assert math.prod(divisors) == abs(det_int(m))
            else:
                assert det_int(m) == 0


class TestIdentify:
    def test_rank2_even(self):
        inv = FormInvariants(2, -1, 0, Parity.EVEN, (1, 1))
        assert identify(inv) == ConnectSum(1, 0)
        assert identify(inv).normal_form == "#1 S2xS2"

    def test_rank2_odd(self):
        inv = FormInvariants(2, -1, 0, Parity.ODD, (1, 1))
        assert identify(inv) == ConnectSum(0, 1)
        assert identify(inv).normal_form == "#1 S2x~S2"

    def test_rank4_odd(self):
        inv = FormInvariants(4, 1, 0, Parity.ODD, (1, 1, 1, 1))
        assert identify(inv).normal_form == "#2 S2x~S2"

    def test_rejections(self):
        assert identify(FormInvariants(3, 2, 1, Parity.ODD, (1, 1, 2))) is None
        assert identify(FormInvariants(2, -4, 0, Parity.EVEN, (1, 4))) is None
        assert identify(FormInvariants(2, 1, 2, Parity.ODD, (1, 1))) is None
        assert identify(FormInvariants(0, 1, 0, Parity.EVEN, ())) is None


class TestConsistency:
    def test_integer_family(self):
        for n in range(2, 10):
            report = consistency_check(path_from_lens(LensSpace(n, 1), "any"))
            assert report.ok, report.failures

    def test_paper_walk_agrees_twisted(self):
        report = consistency_check(path_from_lens(LensSpace(7, 2), "any"))
        assert report.ok
        assert report.classified.normal_form == "#2 S2x~S2"
        assert report.invariants.parity is Parity.ODD

    def test_even_walk_agrees_untwisted(self):
        report = consistency_check(path_from_lens(LensSpace(7, 2), "even"))
        assert report.ok
        assert report.classified.normal_form == "#2 S2xS2"
        assert report.invariants.parity is Parity.EVEN

    def test_parallel_steps_drop_rank(self):
        prod = path_product(
            [path_from_lens(LensSpace(2, 1), "any"), path_from_lens(LensSpace(3, 2), "even")],
            PathMode.PARALLEL,
        )
        report = consistency_check(prod)
        assert report.ok, report.failures
        matrix_order = len(kirby_link(prod).linking_matrix)
        assert report.invariants.rank == 6 < matrix_order
