import random

import pytest

from spinebound import (
    DualPath,
    LONGITUDE,
    LensSpace,
    MERIDIAN,
    PathMode,
    Slope,
    ViolationKind,
    blue_layer_path,
    build_diagram,
    classify,
    farey_det,
    kirby_link,
    path_from_lens,
    path_product,
    validate_path,
)
from spinebound.cli import _diagram_doc


def S(text):
    return Slope.parse(text)


def genus1_path(*texts, mode=PathMode.DUAL):
    return DualPath(tuple((S(t),) for t in texts), mode)


PAPER_72 = genus1_path("0/1", "1/0", "3/1", "7/2")


def random_lens(rng, p_max=30):
    import math

    p = rng.randint(2, p_max)
    q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
    return LensSpace(p, q)


def random_valid_path(rng, genus_max=3, p_max=30):
    parts = [
        path_from_lens(random_lens(rng, p_max), rng.choice(["any", "even"]))
        for _ in range(rng.randint(1, genus_max))
    ]
    if len(parts) == 1:
        return parts[0]
    return path_product(parts, rng.choice([PathMode.DUAL, PathMode.PARALLEL]))


class TestPathFromLens:
    def test_7_2_any(self):
        path = path_from_lens(LensSpace(7, 2), "any")
        assert [str(s[0]) for s in path.systems] == ["0/1", "1/0", "3/1", "7/2"]

    def test_7_2_even(self):
        path = path_from_lens(LensSpace(7, 2), "even")
        assert [str(s[0]) for s in path.systems] == ["0/1", "1/0", "4/1", "7/2"]

    def test_integer_family(self):
        for n in range(2, 8):
            path = path_from_lens(LensSpace(n, 1), "any")
            assert [str(s[0]) for s in path.systems] == ["0/1", "1/0", f"{n}/1"]

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            path_from_lens(LensSpace(7, 2), "both")


class TestPathProduct:
    def test_parallel_padding(self):
        prod = path_product(
            [path_from_lens(LensSpace(2, 1), "any"), path_from_lens(LensSpace(3, 2), "even")],
            PathMode.PARALLEL,
        )
        assert prod.genus == 2 and prod.steps == 3
        assert [str(s[0]) for s in prod.systems] == ["0/1", "1/0", "2/1", "2/1"]
        assert [str(s[1]) for s in prod.systems] == ["0/1", "1/0", "2/1", "3/2"]
        assert validate_path(prod) == []

    def test_equal_lengths_no_padding(self):
        part = path_from_lens(LensSpace(7, 2), "any")
        prod = path_product([part, part], PathMode.DUAL)
        assert prod.genus == 2 and prod.steps == part.steps
        assert all(s[0] == s[1] for s in prod.systems)

    def test_dual_padding_with_shim(self):
        prod = path_product(
            [path_from_lens(LensSpace(2, 1), "any"), path_from_lens(LensSpace(7, 2), "even")],
            PathMode.DUAL,
        )
        assert prod.genus == 2 and prod.steps == 3
        assert validate_path(prod) == []
        assert prod.systems[-1][0] == Slope(2, 1)
        assert prod.systems[-1][1] == Slope(7, 2)

    def test_even_shim_when_parity_allows(self):
        # padding L(3,1) against a three-step part inserts the framing-2 shim
        prod = path_product(
            [path_from_lens(LensSpace(3, 1), "any"), path_from_lens(LensSpace(7, 2), "any")],
            PathMode.DUAL,
        )
        assert [str(s[0]) for s in prod.systems] == ["0/1", "1/0", "2/1", "3/1"]
        assert validate_path(prod) == []

    def test_longer_even_padding(self):
        five = genus1_path("0/1", "1/0", "2/1", "5/2", "12/5", "17/7")
        prod = path_product(
            [path_from_lens(LensSpace(7, 2), "any"), five], PathMode.DUAL
        )
        assert prod.steps == 5
        assert [str(s[0]) for s in prod.systems] == ["0/1", "1/0", "0/1", "1/0", "3/1", "7/2"]
        assert validate_path(prod) == []

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            path_product([], PathMode.DUAL)


class TestValidatePath:
    def test_constructed_paths_are_valid(self):
        assert validate_path(PAPER_72) == []

    def test_dual_step_accepted(self):
        path = genus1_path("0/1", "1/0", "3/1", "5/2")
        assert farey_det(S("3/1"), S("5/2")) == 1
        assert validate_path(path) == []

    def test_equal_step_rejected_in_strict_mode(self):
        path = genus1_path("0/1", "1/0", "3/1", "3/1")
        violations = validate_path(path)
        assert len(violations) == 1
        assert violations[0].step == 3 and violations[0].coordinate == 0

    def test_non_dual_step_named(self):
        path = genus1_path("0/1", "1/0", "7/2")
        violations = validate_path(path)
        assert any(v.step == 2 and "not dual" in v.condition for v in violations)

    def test_wrong_start_named(self):
        path = genus1_path("1/0", "0/1", "2/1")
        conditions = [v.condition for v in validate_path(path)]
        assert any("first system" in c for c in conditions)
        assert any("second system" in c for c in conditions)

    def test_too_short(self):
        path = genus1_path("0/1", "1/0")
        assert any("at least 2 steps" in v.condition for v in validate_path(path))

    def test_violation_kinds(self):
        def kinds(*texts, mode=PathMode.DUAL):
            return [v.kind for v in validate_path(genus1_path(*texts, mode=mode))]

        assert kinds("0/1", "1/0") == [ViolationKind.TOO_SHORT]
        assert kinds("1/0", "0/1", "1/1") == [ViolationKind.BAD_START] * 2
        assert kinds("0/1", "1/0", "3/1", "3/1") == [ViolationKind.EQUAL_SLOPES]
        assert kinds("0/1", "1/0", "7/2") == [ViolationKind.NOT_DUAL]
        repeat = ("0/1", "1/0", "3/1", "3/1")
        assert kinds(*repeat, mode=PathMode.PARALLEL) == [ViolationKind.PARALLEL_STEP]


class TestBuildDiagram:
    def test_integer_family(self):
        for n in (2, 5):
            d = build_diagram(path_from_lens(LensSpace(n, 1), "any"))
            assert d.num_copies == 2 and d.total_genus == 2
            assert [(c.copy, str(c.slope), c.reflected) for c in d.blue] == [
                (0, f"{n}/1", True),
                (1, "1/0", False),
            ]
            assert len(d.red) == 2 and len(d.green) == 2
            assert d.ball_count == 1

    def test_paper_walk(self):
        d = build_diagram(PAPER_72)
        assert d.num_copies == 4 and d.total_genus == 4
        assert [(c.copy, str(c.slope), c.reflected) for c in d.blue] == [
            (0, "3/1", True),
            (1, "7/2", False),
            (2, "3/1", True),
            (3, "1/0", False),
        ]
        assert len(d.red) == len(d.green) == 4
        assert d.ball_count == 2

    def test_scaffold_structure(self):
        d = build_diagram(PAPER_72)
        reds = [(c.kind, c.location) for c in d.red]
        greens = [(c.kind, c.location) for c in d.green]
        assert reds.count(("longitude", 0)) == 1
        assert greens.count(("meridian", 3)) == 1
        for gap in range(3):
            assert ("bridge", gap) in reds
            assert ("bridge", gap) in greens

    def test_genus2_product_counts(self):
        prod = path_product(
            [path_from_lens(LensSpace(2, 1), "any"), path_from_lens(LensSpace(3, 2), "even")],
            PathMode.PARALLEL,
        )
        d = build_diagram(prod)
        assert d.num_copies == 4 and d.total_genus == 8
        assert len(d.blue) == len(d.red) == len(d.green) == 8
        assert d.ball_count is None

    def test_curve_counts_randomized(self):
        rng = random.Random(15)
        for _ in range(60):
            path = random_valid_path(rng)
            d = build_diagram(path)
            expect = 2 * path.genus * (path.steps - 1)
            assert d.total_genus == expect
            assert len(d.blue) == len(d.red) == len(d.green) == expect

    def test_blue_round_trip(self):
        rng = random.Random(16)
        for _ in range(30):
            path = random_valid_path(rng)
            d = build_diagram(path)
            assert blue_layer_path(d, path.mode) == path

    def test_invalid_path_rejected(self):
        with pytest.raises(ValueError):
            build_diagram(genus1_path("0/1", "1/0", "7/2"))


class TestKirbyLink:
    def test_paper_framings(self):
        link = kirby_link(PAPER_72)
        assert [c.framing for c in link.curves] == [0, 3, 14, 3]
        assert [str(c.slope) for c in link.curves] == ["1/0", "3/1", "7/2", "3/1"]

    def test_paper_linking_matrix(self):
        link = kirby_link(PAPER_72)
        assert link.linking_matrix == (
            (0, 1, 2, 1),
            (1, 3, 6, 3),
            (2, 6, 14, 7),
            (1, 3, 7, 3),
        )

    def test_hopf_link_family(self):
        for n in range(2, 10):
            link = kirby_link(path_from_lens(LensSpace(n, 1), "any"))
            assert [c.framing for c in link.curves] == [0, n]
            assert link.linking_matrix == ((0, 1), (1, n))

    def test_matrix_structure_randomized(self):
        rng = random.Random(17)
        for _ in range(40):
            path = random_valid_path(rng)
            link = kirby_link(path)
            m = link.linking_matrix
            n = len(m)
            for i in range(n):
                assert m[i][i] == link.curves[i].slope.p * link.curves[i].slope.q
                for j in range(n):
                    assert m[i][j] == m[j][i]
                    if link.curves[i].coordinate != link.curves[j].coordinate:
                        assert m[i][j] == 0


class TestClassify:
    def test_paper_walk(self):
        csum = classify(PAPER_72)
        assert (csum.raw_untwisted, csum.raw_twisted) == (1, 1)
        assert csum.normal_form == "#2 S2x~S2"

    def test_even_walk(self):
        csum = classify(path_from_lens(LensSpace(7, 2), "even"))
        assert (csum.raw_untwisted, csum.raw_twisted) == (2, 0)
        assert csum.normal_form == "#2 S2xS2"

    def test_parallel_product(self):
        prod = path_product(
            [path_from_lens(LensSpace(2, 1), "any"), path_from_lens(LensSpace(3, 2), "even")],
            PathMode.PARALLEL,
        )
        csum = classify(prod)
        assert (csum.raw_untwisted, csum.raw_twisted) == (3, 0)
        assert csum.normal_form == "#3 S2xS2"

    def test_integer_family_parity(self):
        for n in range(2, 10):
            csum = classify(path_from_lens(LensSpace(n, 1), "any"))
            assert csum.total == 1
            assert (csum.raw_twisted == 0) == (n % 2 == 0)

    def test_summand_count_is_dual_step_count(self):
        rng = random.Random(18)
        for _ in range(40):
            path = random_valid_path(rng)
            dual_steps = sum(
                1
                for i in range(2, path.steps + 1)
                for j in range(path.genus)
                if path.systems[i][j] != path.systems[i - 1][j]
            )
            assert classify(path).total == dual_steps

    def test_even_mode_paths_stay_untwisted(self):
        rng = random.Random(19)
        for _ in range(25):
            lens = random_lens(rng, 40)
            csum = classify(path_from_lens(lens, "even"))
            assert csum.raw_twisted == 0

    def test_append_parallel_step_invariant(self):
        rng = random.Random(20)
        for _ in range(30):
            path = random_valid_path(rng)
            if path.mode is not PathMode.PARALLEL:
                path = DualPath(path.systems, PathMode.PARALLEL)
            extended = DualPath(path.systems + (path.systems[-1],), PathMode.PARALLEL)
            assert classify(extended) == classify(path)


def stats_block(path):
    return _diagram_doc(build_diagram(path), kirby_link(path), classify(path))["stats"]


class TestDiagramStats:
    def test_integer_family(self):
        path = path_from_lens(LensSpace(5, 1), "any")
        assert stats_block(path) == {"total_genus": 2, "ball_count": 1, "minimal": True}

    def test_paper_walk(self):
        assert stats_block(PAPER_72) == {"total_genus": 4, "ball_count": 2, "minimal": True}

    def test_non_minimal_product(self):
        prod = path_product(
            [path_from_lens(LensSpace(2, 1), "any"), path_from_lens(LensSpace(3, 2), "even")],
            PathMode.PARALLEL,
        )
        assert stats_block(prod) == {"total_genus": 8, "ball_count": None, "minimal": False}
