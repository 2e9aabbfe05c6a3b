"""Command-line interface: exit codes, JSON output, seed independence."""
import contextlib
import io
import itertools
import json
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATA

from eqflag.cli import PARSER, run


def path(name):
    return os.path.join(DATA, name)


def run_json(capsys, *argv):
    code = run(["--json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def write(tmp_path, name, data):
    target = tmp_path / name
    target.write_text(json.dumps(data))
    return str(target)


def isolated(n):
    """A graph with n vertices and no edges: its group is S_n."""
    return {"vertices": [f"w{i}" for i in range(n)], "undirected": [], "directed": []}


def complete_join(blocks):
    """Every colour transversal on blocks of the given sizes; its colour
    automorphism group has order prod(size!)."""
    by_color = [[f"c{c}v{i}" for i in range(size)] for c, size in enumerate(blocks, 1)]
    faces = [list(f) for r in range(len(blocks) + 1)
             for cs in itertools.combinations(by_color, r) for f in itertools.product(*cs)]
    return {"vertices": [v for block in by_color for v in block],
            "colors": {v: c for c, block in enumerate(by_color, 1) for v in block},
            "num_colors": len(blocks), "faces": faces}


class TestExitCodes:
    def test_validate_ok(self, capsys):
        code, report = run_json(capsys, "validate", "--complex", path("fig1.json"))
        assert code == 0 and report["problems"] == []

    def test_validate_broken(self, capsys):
        code, report = run_json(capsys, "validate", "--complex", path("broken.json"))
        assert code == 2
        assert "sandwich" in report["error"]

    def test_missing_file(self, capsys):
        code, report = run_json(capsys, "hilb", "--complex", path("nope.json"))
        assert code == 2 and "not found" in report["error"]

    def test_missing_argument(self, capsys):
        code, report = run_json(capsys, "hilb")
        assert code == 2

    def test_library_error_exits_2(self, capsys, tmp_path):
        # 126 proper ideals exceed the vertex cap of a complex
        graph = write(tmp_path, "iso7.json", isolated(7))
        code, report = run_json(capsys, "compile", "--graph", graph)
        assert code == 2 and report["error"].startswith("InvalidComplex")

    def test_compile_checks_ideal_cap_first(self, capsys, tmp_path):
        # 254 proper ideals: no stable chain is enumerated before the cap
        graph = write(tmp_path, "iso8.json", isolated(8))
        t0 = time.perf_counter()
        code, report = run_json(capsys, "compile", "--graph", graph)
        assert code == 2
        assert report["error"] == "InvalidComplex: more than 32 vertices"
        assert time.perf_counter() - t0 < 1.0

    def test_validate_checks_face_size_first(self, capsys, tmp_path):
        # one face of 21 vertices: Delta alone would have 2^21 faces
        names = [f"x{i}" for i in range(21)]
        for num_colors in (3, 21):
            colors = {v: 1 + i % num_colors for i, v in enumerate(names)}
            data = {"vertices": names, "colors": colors, "num_colors": num_colors,
                    "faces": [names]}
            t0 = time.perf_counter()
            code, report = run_json(capsys, "validate", "--complex",
                                    write(tmp_path, "big.json", data))
            assert code == 2 and report["error"].startswith("InvalidComplex")
            assert time.perf_counter() - t0 < 1.0

    def test_compile_long_directed_path(self, capsys, tmp_path):
        # 8,192 stable chains: validation is linear in the faces
        names = [f"p{i}" for i in range(14)]
        arcs = [list(e) for e in zip(names, names[1:])]
        graph = write(tmp_path, "path14.json",
                      {"vertices": names, "undirected": [], "directed": arcs})
        t0 = time.perf_counter()
        code, report = run_json(capsys, "compile", "--graph", graph)
        assert code == 0 and len(report["complex"]["faces"]) == 8192
        assert time.perf_counter() - t0 < 10.0

    @pytest.mark.parametrize("basis", ["m", "f"])
    def test_colour_count_is_capped(self, capsys, tmp_path, basis):
        # a void complex: only the number of colours is large
        for num_colors, expect in ((20, 0), (21, 2)):
            data = {"vertices": [], "colors": {}, "num_colors": num_colors, "faces": []}
            t0 = time.perf_counter()
            code, report = run_json(capsys, "hilb", "--complex",
                                    write(tmp_path, "void.json", data), "--basis", basis)
            assert code == expect
            assert time.perf_counter() - t0 < 2.0
            if expect == 0:
                assert report["hilb"]["degree"] == 21 and report["hilb"]["terms"] == []
            else:
                assert "more than 20 colors" in report["error"]

    def test_chromatic_checks_size_cap_first(self, capsys, tmp_path):
        graph = write(tmp_path, "iso13.json", isolated(13))
        t0 = time.perf_counter()
        code, report = run_json(capsys, "chromatic", "--graph", graph)
        assert code == 2 and "capped at 10 vertices" in report["error"]
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("argv, flag, name, data", [
        (["hilb"], "--complex", "join.json", complete_join((3, 3, 2))),
        (["chromatic"], "--graph", "iso4.json", isolated(4)),
        (["verify", "--theorem", "graphtocomplex"], "--graph", "iso4.json", isolated(4)),
        (["verify", "--theorem", "mixedgraph"], "--graph", "iso4.json", isolated(4)),
        (["verify", "--theorem", "doubleposet"], "--dposet", "anti4.json",
         {"elements": ["a", "b", "c", "d"], "order1": [], "order2": []}),
    ])
    def test_bound_reaches_every_group(self, capsys, tmp_path, argv, flag, name, data):
        code, report = run_json(capsys, "--bound", "10", *argv, flag,
                                write(tmp_path, name, data))
        assert code == 2 and "exceeds bound 10" in report["error"]

    def test_verify_pass(self, capsys):
        code, report = run_json(capsys, "verify", "--theorem", "restriction",
                                "--complex", path("fig1.json"))
        assert code == 0 and report["counterexamples"] == []


class TestReports:
    def test_hilb_fig1(self, capsys):
        code, report = run_json(capsys, "hilb", "--complex", path("fig1.json"),
                                "--group", path("z2.json"))
        assert code == 0
        terms = {tuple(t["subset"]): t["character"]["values"]
                 for t in report["hilb"]["terms"]}
        assert terms == {(2,): [1, 1], (1, 2): [2, 0], (2, 3): [2, 0],
                         (1, 2, 3): [4, 0]}

    def test_hilb_f_basis_effective_flags(self, capsys):
        code, report = run_json(capsys, "hilb", "--complex", path("fig1.json"),
                                "--group", path("z2.json"), "--basis", "f")
        assert code == 0
        assert all(t["character"]["effective"] for t in report["hilb"]["terms"])

    def test_serre_depth(self, capsys):
        code, report = run_json(capsys, "serre", "--depth",
                                "--complex", path("fig1.json"))
        assert code == 0 and report["depth"] == 3 and report["relatively_cm"]

    def test_homology_betti(self, capsys):
        code, report = run_json(capsys, "homology", "--complex", path("fig1.json"))
        assert code == 0 and report["betti"] == {"0": 0, "1": 0, "2": 1}

    def test_chromatic_edge(self, capsys):
        code, report = run_json(capsys, "chromatic", "--graph", path("edge.json"))
        assert code == 0
        terms = {tuple(t["subset"]): t["character"]["values"]
                 for t in report["chromatic"]["terms"]}
        assert terms == {(): [1], (1,): [1]}

    def test_dpartitions_fig3(self, capsys):
        code, report = run_json(capsys, "dpartitions", "--dposet",
                                path("fig3_dposet.json"), "--max-colors", "3")
        assert code == 0 and report["counts"] == {"1": 0, "2": 1, "3": 6}

    def test_compile_roundtrip(self, capsys):
        code, report = run_json(capsys, "compile", "--graph", path("edge.json"))
        assert code == 0
        assert report["complex"]["num_colors"] == 1
        assert report["complex"]["ideals"] == [["u"]]

    def test_verify_mixedgraph_edge(self, capsys):
        code, report = run_json(capsys, "verify", "--theorem", "mixedgraph",
                                "--graph", path("edge.json"))
        assert code == 0 and report["ok"] and not report["skipped"]

    def test_verify_doubleposet(self, capsys):
        code, report = run_json(capsys, "verify", "--theorem", "doubleposet",
                                "--dposet", path("fig2_dposet.json"))
        assert code == 0 and not report["tertispecial"]


class TestGlobalFlags:
    def test_json_after_the_subcommand(self, capsys):
        argv = ["hilb", "--complex", path("fig1.json"), "--group", path("z2.json")]
        reports = []
        for order in (["--json", *argv], [*argv, "--json"]):
            assert run(order) == 0
            report = json.loads(capsys.readouterr().out)
            del report["started"], report["elapsed"]
            reports.append(report)
        assert reports[0] == reports[1]

    def test_bound_and_seed_after_the_subcommand(self, capsys):
        code, report = run_json(capsys, "hilb", "--complex", path("fig1.json"),
                                "--bound", "1", "--seed", "3")
        assert code == 2 and "exceeds bound 1" in report["error"]

    def test_flag_before_is_not_overwritten(self, capsys):
        code, report = run_json(capsys, "--bound", "1", "hilb", "--complex", path("fig1.json"))
        assert code == 2 and "exceeds bound 1" in report["error"]

    def test_one_parser_many_commands(self):
        """The module's parser, reused: no value carries over from one parse
        to the next, with the flags before or after the subcommand."""
        defaults = PARSER.parse_args(["hilb", "--complex", "a.json"])
        assert (defaults.json, defaults.seed, defaults.basis) == (False, 0, "m")
        for before, after in (([], ["--json", "--seed", "3", "--bound", "7"]),
                              (["--json", "--seed", "3", "--bound", "7"], [])):
            args = PARSER.parse_args([*before, "hilb", "--complex", "b.json",
                                      "--basis", "f", *after])
            assert (args.json, args.seed, args.bound) == (True, 3, 7)
            assert (args.complex, args.basis) == ("b.json", "f")
            again = PARSER.parse_args(["serre", "--complex", "c.json"])
            assert (again.json, again.seed, again.ell) == (False, 0, None)
            assert not hasattr(again, "basis")
        assert vars(PARSER.parse_args(["hilb", "--complex", "a.json"])) == vars(defaults)


class TestDeterminism:
    def test_seed_does_not_change_combinatorics(self, capsys):
        reports = []
        for seed in ("0", "1", "12345"):
            code, report = run_json(capsys, "--seed", seed, "hilb",
                                    "--complex", path("fig1.json"),
                                    "--group", path("z2.json"))
            assert code == 0
            reports.append(report["hilb"])
        assert reports[0] == reports[1] == reports[2]

    def test_plain_text_output(self, capsys):
        code = run(["serre", "--depth", "--complex", path("fig1.json")])
        out = capsys.readouterr().out
        assert code == 0 and "depth: 3" in out


FIG1 = json.loads(open(path("fig1.json")).read())
EDGE = json.loads(open(path("edge.json")).read())
DPOSET = json.loads(open(path("fig2_dposet.json")).read())
COMMANDS = [(["validate"], "--complex", FIG1), (["hilb"], "--complex", FIG1),
            (["homology"], "--complex", FIG1), (["validate"], "--graph", EDGE),
            (["compile"], "--graph", EDGE), (["validate"], "--dposet", DPOSET),
            (["compile"], "--dposet", DPOSET)]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4),
                                                                 inner, max_size=4),
    max_leaves=8)


@st.composite
def wrongly_typed(draw, data):
    """One value anywhere in the document replaced by a JSON value of any type."""
    def paths(x, prefix=()):
        yield prefix
        items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else []
        for k, v in items:
            yield from paths(v, prefix + (k,))
    where = draw(st.sampled_from(list(paths(data))))
    value = draw(JSON_VALUES)
    if not where:
        return value
    doc = json.loads(json.dumps(data))
    target = doc
    for k in where[:-1]:
        target = target[k]
    target[where[-1]] = value
    return doc


@st.composite
def missing_keys(draw, data):
    drop = draw(st.sets(st.sampled_from(sorted(data)), min_size=1))
    return {k: v for k, v in data.items() if k not in drop}


@st.composite
def oversized(draw, flag):
    """More than 32 vertices, or (for a graph) more ideals than a complex may
    have vertices."""
    n = draw(st.integers(6, 60) if flag == "--graph" else st.integers(33, 60))
    names = [f"x{i}" for i in range(n)]
    if flag == "--graph":
        return {"vertices": names, "undirected": [], "directed": []}
    if flag == "--dposet":
        return {"elements": names, "order1": [], "order2": []}
    return {"vertices": names, "colors": {v: 1 for v in names}, "num_colors": 1,
            "faces": [[v] for v in names]}


@st.composite
def cli_inputs(draw):
    argv, flag, data = draw(st.sampled_from(COMMANDS))
    kind = draw(st.sampled_from(["malformed", "typed", "missing", "oversized"]))
    if kind == "malformed":
        text = json.dumps(data)
        return argv, flag, draw(st.one_of(st.text(max_size=20),
                                          st.integers(0, len(text) - 1).map(lambda k: text[:k])))
    if kind == "typed":
        doc = draw(wrongly_typed(data))
    elif kind == "missing":
        doc = draw(missing_keys(data))
    else:
        doc = draw(oversized(flag))
    return argv, flag, json.dumps(doc)


class TestRobustness:
    """Bad input of any kind ends in a documented exit code and a report that
    parses, never in a traceback."""

    @pytest.mark.parametrize("num_colors", [-3, "Infinity"])
    def test_bad_number_of_colors(self, capsys, tmp_path, num_colors):
        target = tmp_path / "void.json"
        target.write_text('{"vertices": [], "colors": {}, "faces": [], '
                          f'"num_colors": {num_colors}}}')
        code, report = run_json(capsys, "hilb", "--complex", str(target))
        assert code == 2 and "invalid complex" in report["error"]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cli_inputs())
    def test_bad_input_never_escapes(self, tmp_path, case):
        argv, flag, text = case
        target = tmp_path / "input.json"
        target.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(["--json", *argv, flag, str(target)])
        assert code in (0, 1, 2, 3)
        report = json.loads(out.getvalue())
        assert report["command"] == argv[0]
        if code == 2:
            assert report["error"]
