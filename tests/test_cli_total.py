"""The CLI is total on malformed documents: replacing any one field of a
built diagram or of a walk file by an arbitrary JSON value makes `verify`,
`render` and `build --path-file` end with an exit code in {0, 1, 2, 3},
never a traceback, and a repeat run gives the same bytes.  `main` is also
total on its argument lists: any mix of command names, flags, slopes, small
integers and paths ends in an exit code or in argparse's own exit."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from spinebound.cli import main

# Integers reach 64 bits: `render` counts a diagram's lines before it draws
# them and refuses more than its limit, so a large slope ends at once.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

RUNS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

WALK = {
    "mode": "dual",
    "systems": [
        [{"p": 0, "q": 1}, {"p": 0, "q": 1}],
        [{"p": 1, "q": 0}, {"p": 1, "q": 0}],
        [{"p": 3, "q": 1}, {"p": 2, "q": 1}],
        [{"p": 7, "q": 2}, {"p": 5, "q": 2}],
    ],
}


def _built_diagram() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "d.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["build", "7", "2", "--out", str(out)]) == 0
        return json.loads(out.read_text())


DIAGRAM = _built_diagram()


def field_paths(doc, prefix=()):
    """The key/index path of every field nested in `doc`."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def run_twice(argv_for, doc, output_name=None):
    """Run the command twice on `doc`; assert a clean, repeatable ending
    and return its exit code."""
    results = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            doc_file, output = Path(tmp) / "doc.json", Path(tmp) / (output_name or "none")
            doc_file.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv_for(str(doc_file), str(output)))
            written = output.read_bytes() if output.exists() else None
            # Temporary paths differ between the runs; error messages may name them.
            text = (out.getvalue() + err.getvalue()).replace(tmp, "<tmp>")
            results.append((code, text, written))
    code, text, _ = results[0]
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in text
    assert results[0] == results[1]
    return code


@RUNS
@given(st.sampled_from(list(field_paths(DIAGRAM))), JSON_VALUES)
def test_verify_total(path, value):
    run_twice(lambda doc, _: ["verify", doc], replaced(DIAGRAM, path, value))


@RUNS
@given(st.sampled_from(list(field_paths(DIAGRAM))), JSON_VALUES)
def test_render_total(path, value):
    run_twice(lambda doc, svg: ["render", doc, svg], replaced(DIAGRAM, path, value), "d.svg")


@RUNS
@given(st.sampled_from(list(field_paths(WALK))), JSON_VALUES)
def test_build_path_file_total(path, value):
    run_twice(
        lambda doc, out: ["build", "--path-file", doc, "--out", out],
        replaced(WALK, path, value),
        "d.json",
    )


def test_unmutated_documents_succeed():
    assert run_twice(lambda doc, _: ["verify", doc], DIAGRAM) == 0
    assert run_twice(lambda doc, svg: ["render", doc, svg], DIAGRAM, "d.svg") == 0
    build = lambda doc, out: ["build", "--path-file", doc, "--out", out]  # noqa: E731
    assert run_twice(build, WALK, "d.json") == 0


# Argument lists for `main`: every command and flag, valid and malformed
# slopes, integers small enough (|x| <= 60) that each run ends at once, and
# paths to a missing file, a directory, malformed JSON, a valid diagram and
# a valid walk.
# This covers argument handling only, not the time or memory of large inputs.
COMMANDS = ["dist", "lens-bounds", "build", "table", "render", "verify"]
FLAGS = ["--even", "--path-file", "--mode", "--out", "--pmax", "--help"]
SLOPES = ["0/1", "1/0", "7/2", "-5/2", "3/-7", "-1/0", "0/0", "1/", "/2", "x/3", "1//2", "1.5"]
MODES = ["any", "even", "odd"]
PATHS = ["missing.json", "subdir", "bad.json", "valid.json", "walk.json"]
SLOPE, MODE, PATH = map(st.sampled_from, (SLOPES, MODES, PATHS))
INTS = st.integers(-60, 60).map(str)
# p q: a lens space half the time, else any two integers.
LENS = st.integers(2, 60).flatmap(
    lambda p: st.integers(1, p - 1).filter(lambda q: math.gcd(p, q) == 1).map(lambda q: [p, q])
).map(lambda pq: [str(n) for n in pq]) | st.lists(INTS, min_size=2, max_size=2)
TOKENS = st.sampled_from(COMMANDS + FLAGS + SLOPES + MODES + PATHS) | INTS


def shaped(command, *chunks):
    """`command` followed by its chunks of arguments in any order; an
    option chunk may be left out."""
    return (
        st.tuples(*chunks)
        .flatmap(st.permutations)
        .map(lambda cs: [command] + [token for chunk in cs for token in chunk])
    )


def positional(pool):
    return pool.map(lambda token: [token])


def option(flag, pool=None):
    chunk = st.just([flag]) if pool is None else positional(pool).map(lambda arg: [flag] + arg)
    return st.just([]) | chunk


ARGVS = st.one_of(
    shaped("dist", positional(SLOPE), positional(SLOPE), option("--even")),
    shaped("lens-bounds", LENS),
    shaped(
        "build",
        st.just([]) | LENS,
        option("--mode", MODE),
        option("--out", PATH),
        option("--path-file", PATH),
    ),
    shaped("table", option("--pmax", INTS), option("--out", PATH)),
    shaped("render", positional(PATH), positional(PATH)),
    shaped("verify", positional(PATH), option("--help")),
    # Any tokens in any order, for the argument lists no command expects.
    st.lists(TOKENS, max_size=6),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(ARGVS)
@example(["render", "valid.json", "d.svg"])
@example(["verify", "valid.json"])
@example(["build", "--path-file", "walk.json"])
def test_main_total_on_arguments(argv):
    # A fresh directory per example: `build` without `--out` writes
    # diagram.json to the working directory, and any command may overwrite
    # one of the fixture files.
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "subdir").mkdir()
        (Path(tmp) / "bad.json").write_text("{not json")
        (Path(tmp) / "valid.json").write_text(json.dumps(DIAGRAM))
        (Path(tmp) / "walk.json").write_text(json.dumps(WALK))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.chdir(tmp), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code in (0, 1), (argv, exc.code)
            else:
                assert code in (0, 1, 2, 3), (argv, code)
