import math
import random
from collections import Counter

import pytest

import oracles
from spinebound import (
    CongruenceError,
    ConnectSum,
    DualPath,
    FormInvariants,
    FramedLink,
    LONGITUDE,
    LensSpace,
    MERIDIAN,
    Parity,
    PathMode,
    TridiagonalForm,
    canonical,
    classify,
    congruence,
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

# The linking matrix of the L(7,2) walk 0/1, 1/0, 3/1, 7/2.
PAPER_72_ROWS = [[0, 1, 2, 1], [1, 3, 6, 3], [2, 6, 14, 7], [1, 3, 7, 3]]


def rand_sym(rng, order, lo=-20, hi=20):
    rows = [[0] * order for _ in range(order)]
    for i in range(order):
        for j in range(i, order):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return rows


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


def kirby_form(path, rows=None):
    """The certified form of a walk's link, or the dense oracle's form of
    `rows` in place of its linking matrix."""
    curves = kirby_link(path).curves
    return congruence(curves) if rows is None else oracles.dense_congruence(rows, curves)


def as_tuple(inv: FormInvariants):
    return inv.rank, inv.determinant, inv.signature, inv.parity.value, inv.elementary_divisors


def random_lens(rng, p_max):
    p = rng.randint(2, p_max)
    q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
    return LensSpace(p, q)


def random_walk(rng, genus, steps, mode):
    """A walk from 0/1, 1/0 by random dual steps t = a*s +- r, where r is the
    slope before s; in parallel mode a coordinate also repeats a third of
    the time, so repeats land anywhere in the link, not only at its turn."""
    systems = [(MERIDIAN,) * genus, (LONGITUDE,) * genus]
    before = [MERIDIAN] * genus
    while len(systems) <= steps:
        cur = list(systems[-1])
        moves = [mode is PathMode.DUAL or rng.random() < 2 / 3 for _ in range(genus)]
        if not any(moves):
            continue
        for j, move in enumerate(moves):
            if move:
                s, r = cur[j], before[j]
                a, sign = rng.randint(-3, 3), rng.choice((1, -1))
                before[j], cur[j] = s, canonical(a * s.p + sign * r.p, a * s.q + sign * r.q)
        systems.append(tuple(cur))
    return DualPath(tuple(systems), mode)


def random_kirby_walk(rng):
    """Genus 1-3 walks: lens walks of both modes with p <= 150 and their dual
    and parallel products (a quarter, as the searches are slow), and random
    dual or parallel walks."""
    genus = rng.randint(1, 3)
    mode = rng.choice(list(PathMode))
    if rng.random() < 0.75:
        return random_walk(rng, genus, rng.randint(2, 12), mode)
    parts = [
        path_from_lens(random_lens(rng, 150), rng.choice(["any", "even"])) for _ in range(genus)
    ]
    return parts[0] if genus == 1 else path_product(parts, mode)


class TestCongruence:
    def test_matches_dense_oracle_on_random_walks(self):
        rng = random.Random(6)
        kinds = Counter()
        resampled = 0
        while kinds["walks"] < 320:
            path = random_kirby_walk(rng)
            rows = [list(r) for r in kirby_link(path).linking_matrix]
            if len(rows) > 160:
                # the O(n^3) oracle, not the certificate, sets this limit
                resampled += 1
                continue
            form = kirby_form(path)
            assert as_tuple(form_invariants(form)) == oracles.dense_invariants(rows), path
            assert form.order == len(rows) and len(form.blocks) == path.genus
            kinds["walks"] += 1
            kinds[path.mode.value] += 1
            kinds["with radical"] += form.radical > 0
            kinds["genus 3"] += path.genus == 3
            kinds["odd"] += parity(form) is Parity.ODD
        assert min(kinds.values()) >= 60, kinds
        assert resampled <= 20

    def test_paper_walk(self):
        form = kirby_form(path_from_lens(LensSpace(7, 2), "any"))
        assert form == TridiagonalForm(order=4, blocks=((0, 3, 2, 0),), radical=0)
        assert form.minors == ((0, -1, -2, 1),)

    def test_repeats_are_radical(self):
        prod = path_product(
            [path_from_lens(LensSpace(2, 1), "any"), path_from_lens(LensSpace(3, 2), "even")],
            PathMode.PARALLEL,
        )
        form = kirby_form(prod)
        assert form.radical == 2 and form.order == 8
        assert [len(b) for b in form.blocks] == [2, 4]

    def test_tampered_matrix_names_an_entry(self):
        rows = [list(r) for r in PAPER_72_ROWS]
        rows[0][1] += 1
        rows[1][0] += 1
        with pytest.raises(CongruenceError, match=r"P\^T M P entry \(0, 1\) is 2, expected \+-1"):
            kirby_form(path_from_lens(LensSpace(7, 2), "any"), rows)

    def test_tampered_far_entry(self):
        path = path_from_lens(LensSpace(13, 5), "even")
        rows = [list(r) for r in kirby_link(path).linking_matrix]
        n = len(rows)
        rows[0][n - 1] += 1
        rows[n - 1][0] += 1
        with pytest.raises(CongruenceError, match=r"entry \(0, "):
            kirby_form(path, rows)

    def test_non_dual_curves(self):
        curves = list(kirby_link(path_from_lens(LensSpace(7, 2), "any")).curves)
        curves[2] = curves[2]._replace(slope=canonical(7, 3))
        with pytest.raises(CongruenceError, match="curves 1 and 2 are neither equal nor dual"):
            congruence(curves)
        with pytest.raises(CongruenceError, match="curves 1 and 2 are neither equal nor dual"):
            oracles.dense_congruence(PAPER_72_ROWS, curves)

    def test_non_unit_neighbour_entry(self):
        """A kept curve not dual to the one before it: both paths name the entry."""
        curves = list(kirby_link(path_from_lens(LensSpace(7, 2), "any")).curves)[:3]
        curves[2] = curves[2]._replace(slope=canonical(5, 1))  # det(5/1, 3/1) = 2
        rows = [[curves[min(a, b)].slope.p * curves[max(a, b)].slope.q for b in range(3)] for a in range(3)]
        for certify in (congruence, lambda cs: oracles.dense_congruence(rows, cs)):
            with pytest.raises(CongruenceError, match=r"entry \(1, 2\) is -?2, expected \+-1"):
                certify(curves)

    def test_curve_count_must_match(self):
        curves = kirby_link(path_from_lens(LensSpace(7, 2), "any")).curves
        with pytest.raises(ValueError):
            oracles.dense_congruence(PAPER_72_ROWS, curves[:3])

    def test_equals_dense_congruence(self):
        """The O(n) form is the dense oracle's, repeats and all."""
        rng = random.Random(28)
        kinds = Counter()
        while kinds["walks"] < 150:
            path = random_kirby_walk(rng)
            link = kirby_link(path)
            if len(link.curves) > 160:
                continue
            form = congruence(link.curves)
            assert form == oracles.dense_congruence(link.linking_matrix, link.curves), path
            kinds["walks"] += 1
            kinds[path.mode.value] += 1
            kinds["with radical"] += form.radical > 0
            kinds["genus 3"] += path.genus == 3
        assert min(kinds.values()) >= 30, kinds


class TestTridiagonalForm:
    """The continuant invariants against the dense oracle on the same form."""

    @staticmethod
    def expand(rng, form):
        """The form as a matrix: its blocks with random +-1 off-diagonals,
        then its radical rows, each position shuffled by one permutation."""
        rows = [[0] * form.order for _ in range(form.order)]
        at = 0
        for diagonal in form.blocks:
            for k, a in enumerate(diagonal):
                rows[at + k][at + k] = a
                if k:
                    rows[at + k][at + k - 1] = rows[at + k - 1][at + k] = rng.choice((1, -1))
            at += len(diagonal)
        perm = list(range(form.order))
        rng.shuffle(perm)
        return [[rows[i][j] for j in perm] for i in perm]

    def test_random_forms(self):
        rng = random.Random(27)
        kinds = Counter()
        for _ in range(600):
            blocks = tuple(
                tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 6)))
                for _ in range(rng.randint(0, 4))
            )
            radical = rng.choice((0, 0, 1))
            form = TridiagonalForm(sum(map(len, blocks)) + radical, blocks, radical)
            rows = self.expand(rng, form)
            assert as_tuple(form_invariants(form)) == oracles.dense_invariants(rows), form
            assert oracles.dense_smith(rows) == smith_normal_form(form)
            minors = [d for ds in form.minors for d in ds]
            kinds["inner zero"] += any(d == 0 for ds in form.minors for d in ds[:-1])
            kinds["zero end"] += any(ds[-1] == 0 for ds in form.minors)
            kinds["|det| > 1"] += abs(det_int(form)) > 1
            kinds["coprime ends"] += len({abs(ds[-1]) for ds in form.minors} - {0, 1}) > 1
            kinds["nonzero"] += all(minors)
        assert min(kinds.values()) >= 60, kinds

    def test_signature_frobenius(self):
        # diag(0, 0) bordered by 1s: d = 0, -1, so one + and one - square
        assert signature(TridiagonalForm(2, ((0, 0),))) == 0
        assert signature(TridiagonalForm(3, ((1, 0, 1),))) == 1  # d = 1, -1, -2
        assert signature(TridiagonalForm(2, ((2, 2),))) == 2
        assert signature(TridiagonalForm(3, ((1, 1),), 1)) == 1  # d = 1, 0: nullity 1

    def test_det_and_smith(self):
        form = TridiagonalForm(5, ((2,), (3,), (4, 1)))  # ends 2, 3, 3
        assert det_int(form) == 18
        assert smith_normal_form(form) == [1, 1, 3, 6]
        assert det_int(TridiagonalForm(0, ())) == 1
        assert det_int(TridiagonalForm(2, ((5,),), 1)) == 0


class TestDet:
    """The dense oracle's Bareiss determinant."""

    def test_hopf_family(self):
        for n in range(-5, 10):
            assert oracles.dense_det([[0, 1], [1, n]]) == -1

    def test_identity(self):
        assert oracles.dense_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_paper_matrix_unimodular(self):
        assert abs(oracles.dense_det(PAPER_72_ROWS)) == 1
        assert det_int(kirby_form(path_from_lens(LensSpace(7, 2), "any"))) == 1

    def test_against_cofactor_expansion(self):
        rng = random.Random(21)
        for order in range(0, 6):
            for _ in range(12):
                rows = rand_sym(rng, order)
                assert oracles.dense_det(rows) == oracles.cofactor_det(rows)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            oracles.SymIntMatrix.from_rows([[0, 1], [2, 0]])
        with pytest.raises(ValueError, match="square"):
            oracles.SymIntMatrix.from_rows([[0, 1], [1]])


class TestSignature:
    """The dense oracle's Bareiss-Jacobi signature."""

    def test_hyperbolic_plane(self):
        assert oracles.dense_signature([[0, 1], [1, 0]]) == 0

    def test_diag_mixed(self):
        assert oracles.dense_signature([[1, 0], [0, -1]]) == 0

    def test_indefinite_rank2(self):
        assert oracles.dense_signature([[0, 1], [1, 3]]) == 0

    def test_definite(self):
        assert oracles.dense_signature([[2, 1], [1, 2]]) == 2
        assert oracles.dense_signature([[-1, 0], [0, -3]]) == -2

    def test_degenerate(self):
        assert oracles.dense_signature([[0, 0], [0, 5]]) == 1

    def test_signature_plus_rank_even_when_unimodular_part(self):
        rng = random.Random(22)
        for _ in range(40):
            rank, _, sig, _, _ = oracles.dense_invariants(rand_sym(rng, rng.randint(1, 6)))
            assert (sig - rank) % 2 == 0
            assert abs(sig) <= rank

    def test_congruence_invariance(self):
        rng = random.Random(23)
        for _ in range(25):
            order = rng.randint(2, 6)
            rows = rand_sym(rng, order, -9, 9)
            base = oracles.dense_signature(rows)
            umu = congruent(rows, rand_unimodular(rng, order, 6))
            assert oracles.dense_signature(umu) == base


class TestAgainstCharPoly:
    """The dense oracle's signature and det against the characteristic polynomial."""

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
                assert oracles.dense_signature(rows) == oracles.char_poly_signature(rows), rows
                assert oracles.dense_det(rows) == oracles.cofactor_det(rows), rows
                deficient += oracles.dense_det(rows) == 0
        assert deficient >= 60  # the rank-deficit moves were exercised

    def test_kirby_matrices(self):
        """The certificate, the dense oracle and the characteristic polynomial agree."""
        for lens in (LensSpace(7, 2), LensSpace(13, 5)):
            for mode in ("any", "even"):
                path = path_from_lens(lens, mode)
                rows = [list(r) for r in kirby_link(path).linking_matrix]
                form = kirby_form(path)
                sig = oracles.char_poly_signature(rows)
                assert signature(form) == oracles.dense_signature(rows) == sig == 0
                assert det_int(form) == oracles.dense_det(rows) == oracles.cofactor_det(rows)

    def test_form_invariants_match_parts(self):
        """The oracle's shared pass and its |det| = 1 shortcut agree with det,
        signature and Smith form computed separately."""
        rng = random.Random(26)
        samples = [self.zero_heavy(rng, order) for order in range(0, 9) for _ in range(40)]
        samples += [self.unimodular_image(rng, order) for order in range(2, 13) for _ in range(8)]
        kinds = Counter()
        for rows in samples:
            snf = oracles.dense_smith(rows)
            det = oracles.dense_det(rows)
            even = all(rows[i][i] % 2 == 0 for i in range(len(rows)))
            expected = (
                len(snf), det, oracles.dense_signature(rows), "even" if even else "odd", tuple(snf)
            )
            assert oracles.dense_invariants(rows) == expected, rows
            if len(snf) < len(rows):
                kinds["rank-deficient"] += 1
            elif abs(det) == 1:
                nonzero = sum(x != 0 for r in rows for x in r)
                kinds["dense unimodular"] += nonzero > len(rows) ** 2 // 2
            else:
                kinds["|det| > 1"] += 1
        assert kinds["dense unimodular"] >= 60, kinds
        assert kinds["rank-deficient"] >= 60 and kinds["|det| > 1"] >= 60, kinds


def test_one_elimination_per_matrix(monkeypatch):
    calls = []
    kernel = oracles._leading_minors
    monkeypatch.setattr(oracles, "_leading_minors", lambda rows: calls.append(rows) or kernel(rows))
    assert oracles.dense_invariants(PAPER_72_ROWS) == (4, 1, 0, "odd", (1, 1, 1, 1))
    assert calls == [PAPER_72_ROWS]


class TestParity:
    def test_examples(self):
        assert parity(TridiagonalForm(2, ((0, 4),))) is Parity.EVEN
        assert parity(TridiagonalForm(2, ((0, 3),))) is Parity.ODD
        assert parity(TridiagonalForm(3, ((0, 2), (0,)), 0)) is Parity.EVEN
        assert parity(kirby_form(path_from_lens(LensSpace(7, 2), "any"))) is Parity.ODD


class TestSmith:
    """The dense oracle's Smith reduction."""

    def test_coprime_pair(self):
        assert oracles.dense_smith([[2, 0], [0, 3]]) == [1, 6]

    def test_zero_matrix(self):
        assert oracles.dense_smith([[0, 0], [0, 0]]) == []

    def test_hopf_family(self):
        for n in range(-4, 8):
            assert oracles.dense_smith([[0, 1], [1, n]]) == [1, 1]

    def test_divisibility_chain_and_det(self):
        rng = random.Random(24)
        for _ in range(40):
            rows = rand_sym(rng, rng.randint(1, 6), -12, 12)
            divisors = oracles.dense_smith(rows)
            for d1, d2 in zip(divisors, divisors[1:]):
                assert d2 % d1 == 0
            if len(divisors) == len(rows):
                assert math.prod(divisors) == abs(oracles.dense_det(rows))
            else:
                assert oracles.dense_det(rows) == 0


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
            path = path_from_lens(LensSpace(n, 1), "any")
            report = consistency_check(kirby_link(path), classify(path))
            assert report.ok, report.failures

    def test_paper_walk_agrees_twisted(self):
        path = path_from_lens(LensSpace(7, 2), "any")
        report = consistency_check(kirby_link(path), classify(path))
        assert report.ok
        assert report.classified.normal_form == "#2 S2x~S2"
        assert report.invariants.parity is Parity.ODD

    def test_even_walk_agrees_untwisted(self):
        path = path_from_lens(LensSpace(7, 2), "even")
        report = consistency_check(kirby_link(path), classify(path))
        assert report.ok
        assert report.classified.normal_form == "#2 S2xS2"
        assert report.invariants.parity is Parity.EVEN

    def test_parallel_steps_drop_rank(self):
        prod = path_product(
            [path_from_lens(LensSpace(2, 1), "any"), path_from_lens(LensSpace(3, 2), "even")],
            PathMode.PARALLEL,
        )
        report = consistency_check(kirby_link(prod), classify(prod))
        assert report.ok, report.failures
        matrix_order = len(kirby_link(prod).linking_matrix)
        assert report.invariants.rank == 6 < matrix_order

    def test_reads_only_the_curves(self, monkeypatch):
        """The check is O(n): it gives its report without the matrix."""
        walks = [
            path_from_lens(LensSpace(7, 2), "any"),
            path_product(
                [
                    path_from_lens(LensSpace(7, 2), "any"),
                    path_from_lens(LensSpace(13, 5), "even"),
                    path_from_lens(LensSpace(2, 1), "any"),
                ],
                PathMode.PARALLEL,
            ),
        ]

        def no_rows(link):
            raise AssertionError("the check read the linking matrix")

        monkeypatch.setattr(FramedLink, "rows", no_rows)
        for path in walks:
            link = kirby_link(path)
            report = consistency_check(FramedLink(link.curves), classify(path))
            assert report.ok, report.failures
        assert walks[1].genus == 3 and report.invariants.rank < len(link.curves)
