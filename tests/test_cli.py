import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

import oracles
from spinebound.cli import _blue_lines, _wrap_segments, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_paper_distance(self, capsys):
        code, out, _ = run(capsys, "dist", "0/1", "7/2")
        assert code == 0
        assert out.splitlines()[0] == "3 : 0/1 1/0 3/1 7/2"

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "dist", "0/1", "0/1")
        assert code == 0
        assert out.splitlines()[0] == "0"

    def test_even_figure_distance(self, capsys):
        code, out, _ = run(capsys, "dist", "0/1", "5/4", "--even", "--cap", "64")
        assert code == 0
        assert out.splitlines()[0].startswith("5 : ")

    def test_even_give_up_exits_3(self, capsys):
        code, out, _ = run(capsys, "dist", "--even", "1/0", "81/80")
        assert code == 3
        assert out.startswith("no path within cap 648; upper bound 80 : 1/0 2/1 ")

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "dist", "0/0", "1/2")
        assert code == 1 and "error" in err

    def test_odd_endpoint_in_even_mode(self, capsys):
        code, _, err = run(capsys, "dist", "1/1", "0/1", "--even")
        assert code == 1


class TestLensBounds:
    def test_7_2(self, capsys):
        code, out, _ = run(capsys, "lens-bounds", "7", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["twisted"]["n"] == 2
        assert doc["untwisted"]["n"] == 2
        assert doc["twisted"]["path"] == ["0/1", "1/0", "3/1", "7/2"]
        assert doc["untwisted"]["path"] == ["0/1", "1/0", "4/1", "7/2"]
        assert [r["q"] for r in doc["reps"]] == [2, 3, 4, 5]

    def test_integer_family(self, capsys):
        code, out, _ = run(capsys, "lens-bounds", "5", "1")
        assert code == 0
        assert json.loads(out)["twisted"]["n"] == 1

    def test_invalid_lens(self, capsys):
        code, _, err = run(capsys, "lens-bounds", "4", "2")
        assert code == 1 and "error" in err

    def test_cap_below_endpoint(self, capsys):
        code, out, err = run(capsys, "lens-bounds", "7", "2", "--cap", "3")
        assert code == 1 and out == ""
        assert err.startswith("error: cap 3 is below")


class TestBuild:
    def test_paper_build(self, capsys, tmp_path):
        out_file = tmp_path / "d.json"
        code, out, _ = run(capsys, "build", "7", "2", "--mode", "any", "--out", str(out_file))
        assert code == 0
        assert out.strip() == "genus 4 #2 S2x~S2"
        doc = json.loads(out_file.read_text())
        assert doc["stats"]["total_genus"] == 4
        assert doc["classification"]["normal_form"] == "#2 S2x~S2"
        framings = [c["framing"] for c in doc["kirby"]["curves"]]
        assert framings == [0, 3, 14, 3]

    def test_even_build(self, capsys, tmp_path):
        out_file = tmp_path / "d.json"
        code, out, _ = run(capsys, "build", "7", "2", "--mode", "even", "--out", str(out_file))
        assert code == 0
        assert out.strip() == "genus 4 #2 S2xS2"

    def test_odd_integer_build(self, capsys, tmp_path):
        out_file = tmp_path / "d.json"
        code, out, _ = run(capsys, "build", "3", "1", "--out", str(out_file))
        assert code == 0
        assert out.strip() == "genus 2 #1 S2x~S2"

    def test_path_file_build(self, capsys, tmp_path):
        walk = {
            "mode": "dual",
            "systems": [
                [{"p": 0, "q": 1}],
                [{"p": 1, "q": 0}],
                [{"p": 3, "q": 1}],
                [{"p": 7, "q": 2}],
            ],
        }
        path_file = tmp_path / "walk.json"
        path_file.write_text(json.dumps(walk))
        out_file = tmp_path / "d.json"
        code, out, _ = run(
            capsys, "build", "--path-file", str(path_file), "--out", str(out_file)
        )
        assert code == 0
        assert out.strip() == "genus 4 #2 S2x~S2"

    def test_invalid_path_file_lists_violations(self, capsys, tmp_path):
        walk = {
            "mode": "dual",
            "systems": [
                [{"p": 0, "q": 1}],
                [{"p": 1, "q": 0}],
                [{"p": 7, "q": 2}],
            ],
        }
        path_file = tmp_path / "walk.json"
        path_file.write_text(json.dumps(walk))
        code, _, err = run(capsys, "build", "--path-file", str(path_file), "--out", "x.json")
        assert code == 1
        assert "not dual" in err

    def test_invalid_lens(self, capsys):
        code, _, err = run(capsys, "build", "4", "2")
        assert code == 1

    def test_cap_below_endpoint(self, capsys, tmp_path):
        out_file = tmp_path / "d.json"
        code, _, err = run(capsys, "build", "7", "2", "--cap", "3", "--out", str(out_file))
        assert code == 1 and not out_file.exists()
        assert err.startswith("error: cap 3 is below")


class TestTable:
    def test_pmax2_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--pmax", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,q,twisted_n,untwisted_n,twisted_path,untwisted_path,exact"
        assert len(lines) == 2
        assert lines[1].startswith("2,1,1,1,")

    def test_pmax5_contents(self, capsys):
        code, out, _ = run(capsys, "table", "--pmax", "5")
        assert code == 0
        rows = {tuple(line.split(",")[:2]): line for line in out.strip().splitlines()[1:]}
        assert rows[("5", "1")].split(",")[2] == "1"
        for line in rows.values():
            p, _, _, untwisted_n = line.split(",")[:4]
            assert int(untwisted_n) <= int(p) - 1

    def test_deterministic_file_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "table", "--pmax", "6", "--out", str(a))
        run(capsys, "table", "--pmax", "6", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_cap_below_endpoint(self, capsys):
        code, out, err = run(capsys, "table", "--pmax", "5", "--cap", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: cap 1 is below")


class TestRenderAndVerify:
    @pytest.fixture()
    def diagram_file(self, capsys, tmp_path):
        out_file = tmp_path / "d.json"
        code, _, _ = run(capsys, "build", "7", "2", "--mode", "any", "--out", str(out_file))
        assert code == 0
        return out_file

    def test_round_trip_verifies(self, capsys, diagram_file):
        code, out, _ = run(capsys, "verify", str(diagram_file))
        assert code == 0 and out.startswith("OK")

    def test_render_deterministic(self, capsys, diagram_file, tmp_path):
        svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(capsys, "render", str(diagram_file), str(svg1))[0] == 0
        assert run(capsys, "render", str(diagram_file), str(svg2))[0] == 0
        assert svg1.read_bytes() == svg2.read_bytes()
        text = svg1.read_text()
        assert text.count("<rect") == 4
        assert "#0000CC" in text and "#CC0000" in text and "#008800" in text

    def test_render_rejects_genus2(self, capsys, tmp_path):
        import spinebound as sb
        from spinebound.cli import _diagram_doc, _dump_json

        prod = sb.path_product(
            [
                sb.path_from_lens(sb.LensSpace(2, 1), "any"),
                sb.path_from_lens(sb.LensSpace(3, 2), "even"),
            ],
            sb.PathMode.PARALLEL,
        )
        diagram = sb.build_diagram(prod)
        doc = _diagram_doc(
            diagram, sb.kirby_link(prod), sb.classify(prod),
            sb.diagram_stats(diagram, sb.classify(prod)),
        )
        g2 = tmp_path / "g2.json"
        g2.write_text(_dump_json(doc))
        code, _, err = run(capsys, "render", str(g2), str(tmp_path / "g2.svg"))
        assert code == 2
        assert "unsupported" in err

    def test_render_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "render", str(bad), str(tmp_path / "x.svg"))
        assert code == 1

    def test_render_non_object_json(self, capsys, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1]")
        code, _, err = run(capsys, "render", str(bad), str(tmp_path / "x.svg"))
        assert code == 1
        assert err.startswith("error: malformed diagram")

    def test_verify_non_object_json(self, capsys, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1]")
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: malformed diagram")

    def test_render_pinned_bytes(self, capsys, tmp_path):
        diagram, svg = tmp_path / "d.json", tmp_path / "d.svg"
        code, _, _ = run(capsys, "build", "19", "7", "--mode", "even", "--out", str(diagram))
        assert code == 0
        assert run(capsys, "render", str(diagram), str(svg))[0] == 0
        # Digest of the SVG written by the exact-rational renderer.
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
            "2d263e2ed702b9ab4c676eeb710bb5d7586866345b8e21aa3a62b3b6e313b8db"
        )

    def test_wrap_segments_match_rational_reference(self):
        rng = random.Random(26)
        steps = list(range(-80, 81))
        for trial in range(300):
            p, q = rng.choice(steps), rng.choice(steps)
            if trial % 10 == 0:
                p = 0
            elif trial % 10 == 1:
                q = 0
            phases = [Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(2)]
            want = [
                tuple(float(c) for c in seg)
                for seg in oracles.wrap_segments_fraction(p, q, *phases)
            ]
            assert _wrap_segments(p, q, *phases) == want, (p, q, phases)

    def test_blue_line_count_matches_segments(self):
        for p in range(-40, 41):
            for q in range(1, 41):
                if p and math.gcd(p, q) == 1:
                    segments = _wrap_segments(p, q, Fraction(0), Fraction(1, 2))
                    assert _blue_lines(p, q) == len(segments), (p, q)
        assert _blue_lines(1, 0) == _blue_lines(-1, 0) == _blue_lines(0, 1) == 1

    def test_render_refuses_a_huge_curve(self, capsys, tmp_path):
        """A 1.6 kB diagram of the walk 0/1, 1/0, (10^20+1)/1 would need
        10^20 lines; the count comes first, so this ends at once."""
        walk = {
            "mode": "dual",
            "systems": [[{"p": 0, "q": 1}], [{"p": 1, "q": 0}], [{"p": str(10**20 + 1), "q": 1}]],
        }
        walk_file, diagram, svg = tmp_path / "w.json", tmp_path / "d.json", tmp_path / "d.svg"
        walk_file.write_text(json.dumps(walk))
        assert run(capsys, "build", "--path-file", str(walk_file), "--out", str(diagram))[0] == 0
        code, out, err = run(capsys, "render", str(diagram), str(svg))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "100000000000000000003 lines" in err
        assert not svg.exists()

    def test_verify_names_the_linking_entry(self, capsys, diagram_file):
        doc = json.loads(diagram_file.read_text())
        doc["kirby"]["linking_matrix"][0][1] += 1
        diagram_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(diagram_file))
        assert code == 2 and out.startswith("FAIL ")
        assert "FAIL linking matrix entry (0, 1): file says 2, recomputed 1\n" in out

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.pop(), "linking matrix: file has 3 rows, recomputed 4"),
            (
                lambda m: m[2].pop(),
                "linking matrix row 2: file says [2, 6, 14], recomputed 4 entries",
            ),
            (
                lambda m: m[3].__setitem__(0, True),
                "linking matrix entry (3, 0): file says true, recomputed 1",
            ),
        ],
        ids=["row-count", "row-length", "entry-type"],
    )
    def test_verify_names_the_linking_shape(self, capsys, diagram_file, edit, message):
        doc = json.loads(diagram_file.read_text())
        edit(doc["kirby"]["linking_matrix"])
        diagram_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(diagram_file))
        assert code == 2 and out.startswith("FAIL ")
        assert f"FAIL {message}\n" in out

    @pytest.mark.parametrize("version", ["anything", 2, True, None])
    def test_verify_and_render_read_the_version(self, capsys, diagram_file, version):
        doc = json.loads(diagram_file.read_text())
        if version is None:
            del doc["version"]
        else:
            doc["version"] = version
        diagram_file.write_text(json.dumps(doc))
        svg = diagram_file.with_suffix(".svg")
        for argv in (["verify", str(diagram_file)], ["render", str(diagram_file), str(svg)]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error: diagram version ")
        assert not svg.exists()

    def test_verify_rejects_unknown_keys(self, capsys, diagram_file):
        doc = json.loads(diagram_file.read_text())
        doc["unexpected"] = [1, 2]
        diagram_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(diagram_file))
        assert (code, out) == (2, 'FAIL unknown top-level key "unexpected"\n')

    def test_verify_catches_tampered_framing(self, capsys, diagram_file):
        doc = json.loads(diagram_file.read_text())
        doc["kirby"]["curves"][2]["framing"] = 13
        diagram_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(diagram_file))
        assert code == 2
        assert any("layer 2" in line for line in out.splitlines())

    def test_verify_catches_non_dual_layers(self, capsys, tmp_path):
        walk = {
            "mode": "dual",
            "systems": [
                [{"p": 0, "q": 1}],
                [{"p": 1, "q": 0}],
                [{"p": 3, "q": 1}],
                [{"p": 7, "q": 3}],
            ],
        }
        doc = {
            "version": 1,
            "genus_per_copy": 1,
            "num_copies": 4,
            "path": walk,
            "blue": [],
            "red": [],
            "green": [],
            "kirby": {"curves": [], "linking_matrix": []},
            "classification": {},
            "stats": {},
        }
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(f))
        assert code == 2
        assert any("step 3" in line for line in out.splitlines())

    def test_verify_unreadable(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", str(tmp_path / "missing.json"))
        assert code == 1


def _set_copy(doc):
    doc["blue"][0]["copy"] = False


def _set_genus(doc):
    doc["genus_per_copy"] = True


def _set_reflected(doc):
    doc["blue"][0]["reflected"] = 1


def _set_framing(doc):
    curve = doc["kirby"]["curves"][1]
    curve["framing"] = float(curve["framing"])


def _set_minimal(doc):
    doc["stats"]["minimal"] = 1


def _set_linking(doc):
    row = doc["kirby"]["linking_matrix"][0]
    row[1] = float(row[1])


@pytest.mark.parametrize(
    "edit", [_set_copy, _set_genus, _set_reflected, _set_framing, _set_minimal, _set_linking]
)
def test_verify_tells_json_types_apart(capsys, tmp_path, edit):
    """true == 1 == 1.0 in Python, but a diagram with a changed JSON type
    is not the recomputed one."""
    f = tmp_path / "d.json"
    assert run(capsys, "build", "7", "2", "--out", str(f))[0] == 0
    doc = json.loads(f.read_text())
    edit(doc)
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 2 and out.startswith("FAIL ")


def test_render_num_copies_must_match_blue(capsys, tmp_path):
    f = tmp_path / "d.json"
    assert run(capsys, "build", "19", "7", "--mode", "even", "--out", str(f))[0] == 0
    doc = json.loads(f.read_text())
    assert doc["num_copies"] == len(doc["blue"]) == 8
    doc["num_copies"] = 40
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "render", str(f), str(tmp_path / "x.svg"))
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert not (tmp_path / "x.svg").exists()


class TestMalformedNestedFields:
    """A nested field of the wrong JSON type is an input error, not a traceback."""

    WALK = {
        "mode": "dual",
        "systems": [[{"p": 0, "q": 1}], [{"p": 1, "q": 0}], [{"p": 3, "q": 1}]],
    }

    @staticmethod
    def write(tmp_path, doc):
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc))
        return str(f)

    def assert_input_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_verify_path_not_an_object(self, capsys, tmp_path):
        self.assert_input_error(capsys, "verify", self.write(tmp_path, {"path": 1}))

    def test_verify_kirby_not_an_object(self, capsys, tmp_path):
        f = self.write(tmp_path, {"path": self.WALK, "kirby": 3})
        self.assert_input_error(capsys, "verify", f)

    def test_render_scaffold_not_a_list(self, capsys, tmp_path):
        f = self.write(tmp_path, {"genus_per_copy": 1, "num_copies": 1, "red": 5})
        self.assert_input_error(capsys, "render", f, str(tmp_path / "x.svg"))

    @pytest.mark.parametrize("copy", [0.5, -3, 8, "x"])
    def test_render_blue_copy_invalid(self, capsys, tmp_path, copy):
        run(capsys, "build", "19", "7", "--mode", "even", "--out", str(tmp_path / "d.json"))
        doc = json.loads((tmp_path / "d.json").read_text())
        assert doc["num_copies"] <= 8
        doc["blue"][0]["copy"] = copy
        f = self.write(tmp_path, doc)
        self.assert_input_error(capsys, "render", f, str(tmp_path / "x.svg"))

    def test_build_systems_not_a_list(self, capsys, tmp_path):
        f = self.write(tmp_path, {"mode": "dual", "systems": 5})
        out = str(tmp_path / "d.json")
        self.assert_input_error(capsys, "build", "--path-file", f, "--out", out)

    def test_build_walk_not_an_object(self, capsys, tmp_path):
        f = self.write(tmp_path, [1])
        out = str(tmp_path / "d.json")
        self.assert_input_error(capsys, "build", "--path-file", f, "--out", out)


class TestBigIntJson:
    def test_large_framings_round_trip(self, capsys, tmp_path):
        big = 2**60  # needs the decimal-string integer encoding
        walk = {
            "mode": "dual",
            "systems": [
                [{"p": 0, "q": 1}],
                [{"p": 1, "q": 0}],
                [{"p": str(big), "q": 1}],
            ],
        }
        path_file = tmp_path / "walk.json"
        path_file.write_text(json.dumps(walk))
        out_file = tmp_path / "d.json"
        code, _, _ = run(
            capsys, "build", "--path-file", str(path_file), "--out", str(out_file)
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        curve = doc["kirby"]["curves"][1]
        assert isinstance(curve["framing"], str)
        assert int(curve["framing"]) == big
        assert isinstance(curve["slope"]["p"], str)
        code, out, _ = run(capsys, "verify", str(out_file))
        assert code == 0, out
