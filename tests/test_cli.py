import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from spinebound import farey
from spinebound.cli import _blue_line_elements, _blue_lines, main


# Every reduced blue slope p/q with 0 < |p| <= 80 and 0 < q <= 80, p
# negated when the curve is reflected.
BLUE_SLOPES = [
    (p, q) for p in range(-80, 81) for q in range(1, 81) if p and math.gcd(p, q) == 1
]


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
        code, out, _ = run(capsys, "dist", "0/1", "5/4", "--even")
        assert code == 0
        assert out.splitlines() == ["5 : 0/1 1/0 2/1 3/2 4/3 5/4", "exactness: exact"]

    def test_even_long_walk_is_exact(self, capsys):
        code, out, _ = run(capsys, "dist", "--even", "1/0", "81/80")
        assert code == 0
        walk = " ".join(["1/0"] + [f"{k + 1}/{k}" for k in range(1, 81)])
        assert out.splitlines() == [f"80 : {walk}", "exactness: exact"]

    @pytest.mark.parametrize(
        "a, b, first",
        [
            ("-5/2", "9/4", "4 : -5/2 -3/1 1/0 2/1 9/4"),
            ("9/4", "-5/2", "4 : 9/4 2/1 1/0 -3/1 -5/2"),
            ("-1/0", "0/1", "1 : 1/0 0/1"),
        ],
        ids=["negative-first", "negative-second", "negative-root"],
    )
    def test_negative_slope_is_an_argument(self, capsys, a, b, first):
        code, out, err = run(capsys, "dist", a, b)
        assert code == 0 and err == ""
        assert out.splitlines() == [first, "exactness: exact"]

    def test_budget_give_up_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(farey, "_MAX_NODES", 1)
        code, out, err = run(capsys, "dist", "0/1", "89/55")
        assert code == 3 and err == ""
        assert out == (
            "no path within the search budget; upper bound 6 : "
            "0/1 1/0 2/1 5/3 13/8 34/21 89/55\n"
        )

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

    def test_pinned_bytes(self, capsys):
        code, out, _ = run(capsys, "lens-bounds", "1009", "920")
        assert code == 0
        # Digest recorded with the earlier neighbour enumeration (gcd per
        # candidate, a set and a keyed sort); the closed-form runs must
        # reproduce every search byte for byte.
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "12002837166dac00183b1b4245f51dad0c18437db610f50573908a5ef374880f"
        )


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

    @pytest.mark.parametrize(
        "extra, named",
        [(["7", "2"], "p q"), (["--mode", "any"], "--mode")],
        ids=["p-q", "mode"],
    )
    def test_path_file_refuses_lens_arguments(self, capsys, tmp_path, extra, named):
        walk = {"mode": "dual", "systems": [[{"p": 0, "q": 1}], [{"p": 1, "q": 0}]]}
        path_file, out_file = tmp_path / "walk.json", tmp_path / "d.json"
        path_file.write_text(json.dumps(walk))
        argv = ["build", *extra, "--path-file", str(path_file), "--out", str(out_file)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and not out_file.exists()
        assert err == f"error: --path-file takes no {named}\n"

    def test_invalid_lens(self, capsys):
        code, _, err = run(capsys, "build", "4", "2")
        assert code == 1


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

    def test_pinned_bytes(self, capsys, tmp_path):
        csv = tmp_path / "t.csv"
        assert run(capsys, "table", "--pmax", "30", "--out", str(csv))[0] == 0
        # Digest recorded with the earlier neighbour enumeration (gcd per
        # candidate, a set and a keyed sort).
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "9aabeff7262fef10b4bccbdfdeaedbd49bd6ba7b02b8504e3f44f344538d0edf"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["dist", "0/1", "7/2"],
        ["lens-bounds", "7", "2"],
        ["build", "7", "2", "--mode", "even"],
        ["table", "--pmax", "5"],
    ],
    ids=["dist", "lens-bounds", "build", "table"],
)
def test_cap_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    """The search box comes from the endpoints, so no command takes --cap."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([*argv, "--cap", "64"])
    out, err = capsys.readouterr()
    assert info.value.code == 1 and out == ""
    assert err.endswith("error: unrecognized arguments: --cap 64\n")
    assert "Traceback" not in err and not list(tmp_path.iterdir())


def test_a_reused_parser_leaks_no_state(capsys, tmp_path):
    """`main` builds its parser once per process, so a command run after
    others must print and exit exactly as it does alone in a new process."""
    diagram = str(tmp_path / "d.json")
    assert main(["build", "7", "2", "--out", diagram]) == 0
    capsys.readouterr()
    commands = [
        ["dist", "0/1", "7/2"],
        ["lens-bounds", "7"],  # a usage error: q is missing
        ["lens-bounds", "19", "7"],
        ["verify", diagram],
    ]
    in_turn = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        in_turn.append((out.getvalue(), err.getvalue(), code))
    src = Path(farey.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    alone = []
    for argv in commands:
        done = subprocess.run(
            [sys.executable, "-m", "spinebound.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        alone.append((done.stdout, done.stderr, done.returncode))
    assert in_turn == alone
    assert [code for _, _, code in alone] == [0, 1, 0, 0]


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
        doc = _diagram_doc(sb.build_diagram(prod), sb.kirby_link(prod), sb.classify(prod))
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "{file}"], "error: cannot read diagram: "),
            (["render", "{file}", "{tmp}/x.svg"], "error: cannot read diagram: "),
            (["build", "--path-file", "{file}", "--out", "{tmp}/d.json"], "error: cannot read walk: "),
        ],
        ids=["verify", "render", "build"],
    )
    def test_deep_nesting_is_an_input_error(self, capsys, tmp_path, argv, message):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        argv = [a.format(file=deep, tmp=tmp_path) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(message) and "recursion" in err
        assert not (tmp_path / "x.svg").exists() and not (tmp_path / "d.json").exists()

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
        """Every blue curve's lines are the exact reference's segments,
        formatted with the float expressions of the segment-per-line renderer."""
        tail = '" stroke="#0000CC" stroke-width="2.000" stroke-linecap="round"/>'
        for p, q in BLUE_SLOPES:
            ox = 10.0 + (p % 7) * 120.0
            want = [
                f'<line x1="{ox + x0 * 100.0:.3f}" '
                f'y1="{10.0 + (1.0 - y0) * 100.0:.3f}" '
                f'x2="{ox + x1 * 100.0:.3f}" '
                f'y2="{10.0 + (1.0 - y1) * 100.0:.3f}{tail}'
                for x0, y0, x1, y1 in oracles.wrap_segments_lattice(p, q)
            ]
            assert _blue_line_elements(ox, p, q) == want, (p, q)

    def test_lattice_reference_matches_fraction_reference(self):
        """The integer reference above rounds the segments of the scanning
        Fraction reference, float for float."""
        for p, q in BLUE_SLOPES:
            if abs(p) <= 20 and q <= 20:
                want = oracles.wrap_segments_fraction(p, q, Fraction(0), Fraction(1, 2))
                assert oracles.wrap_segments_lattice(p, q) == [
                    tuple(map(float, segment)) for segment in want
                ], (p, q)

    def test_blue_line_count_matches_segments(self):
        for p, q in BLUE_SLOPES:
            assert _blue_lines(p, q) == len(_blue_line_elements(10.0, p, q)), (p, q)
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
        assert "FAIL kirby.linking_matrix[0][1]: file says 2, recomputed 1\n" in out

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.pop(), "kirby.linking_matrix: file has 3, recomputed 4"),
            (lambda m: m[2].pop(), "kirby.linking_matrix[2]: file has 3, recomputed 4"),
            (
                lambda m: m[3].__setitem__(0, True),
                "kirby.linking_matrix[3][0]: file says true, recomputed 1",
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
        assert (code, out) == (2, 'FAIL unknown key "unexpected"\n')

    @pytest.mark.parametrize(
        "key, field, value, message",
        [
            (
                "classification",
                "normal_form",
                "#2 S2xS2",
                'classification.normal_form: file says "#2 S2xS2", recomputed "#2 S2x~S2"',
            ),
            ("stats", "total_genus", 5, "stats.total_genus: file says 5, recomputed 4"),
            ("stats", "ball_count", 3, "stats.ball_count: file says 3, recomputed 2"),
            ("stats", "minimal", False, "stats.minimal: file says false, recomputed true"),
        ],
        ids=["classification", "stats", "stats-ball_count", "stats-minimal"],
    )
    def test_verify_names_the_differing_key(self, capsys, diagram_file, key, field, value, message):
        doc = json.loads(diagram_file.read_text())
        doc[key][field] = value
        diagram_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(diagram_file))
        assert (code, out) == (2, f"FAIL {message}\n")

    @pytest.mark.parametrize("color", ["blue", "red", "green"])
    def test_verify_says_a_curve_list_is_missing(self, capsys, diagram_file, color):
        doc = json.loads(diagram_file.read_text())
        del doc[color]
        diagram_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(diagram_file))
        assert (code, out) == (2, f"FAIL {color}: missing, recomputed a list of 4\n")

    def test_verify_catches_tampered_framing(self, capsys, diagram_file):
        doc = json.loads(diagram_file.read_text())
        doc["kirby"]["curves"][2]["framing"] = 13
        diagram_file.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(diagram_file))
        assert (code, out) == (2, "FAIL kirby.curves[2].framing: file says 13, recomputed 14\n")

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
        return err

    def test_verify_path_not_an_object(self, capsys, tmp_path):
        f = self.write(tmp_path, {"version": 1, "path": 1})
        err = self.assert_input_error(capsys, "verify", f)
        assert "expected the walk to be an object, got int" in err

    def test_verify_kirby_not_an_object(self, capsys, tmp_path):
        """A readable walk is recomputed, so a wrong `kirby` is a failed check."""
        f = self.write(tmp_path, {"version": 1, "path": self.WALK, "kirby": 3})
        code, out, _ = run(capsys, "verify", f)
        assert code == 2
        assert "FAIL kirby: file says 3, recomputed an object\n" in out

    def test_render_scaffold_not_a_list(self, capsys, tmp_path):
        blue = {"copy": 0, "coordinate": 0, "slope": {"p": 0, "q": 1}, "reflected": False}
        doc = {"version": 1, "genus_per_copy": 1, "num_copies": 1, "blue": [blue], "red": 5}
        f = self.write(tmp_path, doc)
        err = self.assert_input_error(capsys, "render", f, str(tmp_path / "x.svg"))
        assert 'expected "red" to be a list, got int' in err

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

    def test_integers_too_long_to_write_are_input_errors(self, capsys, tmp_path):
        """Every field of the walk fits Python's 4300-digit int-string limit,
        but a framing and linking entries of its diagram do not."""
        walk = {
            "mode": "dual",
            "systems": [
                [{"p": 0, "q": 1}],
                [{"p": 1, "q": 0}],
                [{"p": str(10**2500), "q": 1}],
                [{"p": str(10**4000 + 1), "q": str(10**1500)}],
            ],
        }
        path_file, out_file = tmp_path / "walk.json", tmp_path / "d.json"
        path_file.write_text(json.dumps(walk))
        code, out, err = run(capsys, "build", "--path-file", str(path_file), "--out", str(out_file))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "digits" in err
        assert not out_file.exists()
        diagram = tmp_path / "v.json"
        diagram.write_text(json.dumps({"version": 1, "path": walk}))
        code, out, err = run(capsys, "verify", str(diagram))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "digits" in err
