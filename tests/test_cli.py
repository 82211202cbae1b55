import dataclasses
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from intcolor import cli, generators, graphio
from intcolor.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_emits_graph_json(tmp_path, capsys):
    code, out = run(capsys, "gen", "balanced(n=2,r=3)")
    assert code == 0
    g = graphio.graph_from_json(json.loads(out))
    assert g.vertex_count == 6 and g.edge_count == 12


@pytest.mark.parametrize("spec,param", [
    ("tree(n=5,seed=x)", "seed"), ("tree(n=x)", "n"), ("biregular(a=3)", "b"),
    ("balanced(n=2)", "r"), ("circular_complete(p=5)", "q"), ("fixture", "name"),
    ("complete_multipartite(sizes=3+x)", "sizes"), ("bipartite_random(simple=no)", "simple"),
    ("tree(n=--5)", "n"), ("tree(n=5,seed=--1)", "seed"), ("tree(n=\u00b2)", "n"),
    ("cactus(blocks=0)", "blocks"), ("cactus(blocks=-3)", "blocks"),
    ("bipartite_random(nx=2,ny=2,edges=-3)", "edges"), ("eulerian_bipartite(nx=-1,ny=3)", "nx"),
    ("eulerian_bipartite(ny=0)", "ny"), ("eulerian_bipartite(walks=-1)", "walks"),
    ("eulerian_bipartite(walk_len=0)", "walk_len"), ("eulerian_bipartite(walk_len=-4)", "walk_len"),
    ("bipartite_random(nx=1,ny=1,edges=5,max_degree=1)", "edges=5"),
])
def test_gen_missing_or_non_integer_parameter_exit_code(capsys, spec, param):
    assert f" {param}" in _exits_2_with_one_error_line(capsys, "gen", spec)


def test_gen_seed_flag_overrides(tmp_path, capsys):
    a = run(capsys, "gen", "tree(n=10)", "--seed", "1")[1]
    b = run(capsys, "gen", "tree(n=10)", "--seed", "2")[1]
    assert a != b


def test_color_and_verify_round_trip(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    cpath = tmp_path / "c.json"
    assert main(["gen", "fixture(name=k33)", "--out", str(gpath)]) == 0
    assert main(["color", str(gpath), "--method", "subcubic", "--out", str(cpath)]) == 0
    code, out = run(capsys, "verify", str(gpath), str(cpath))
    assert code == 0
    assert json.loads(out)["interval"] is True


def test_verify_fails_on_gap(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    bad = tmp_path / "bad.json"
    main(["gen", "fixture(name=k3)", "--out", str(gpath)])
    bad.write_text("[1, 2, 4]\n")
    code, out = run(capsys, "verify", str(gpath), str(bad))
    assert code == 1
    rep = json.loads(out)
    assert rep["proper"] and not rep["interval"]
    assert rep["offending_vertices"]


def test_decompose_auto_k5(tmp_path, capsys):
    gpath = tmp_path / "k5.json"
    main(["gen", "fixture(name=k5)", "--out", str(gpath)])
    code, out = run(capsys, "decompose", str(gpath), "--method", "auto")
    assert code == 0
    payload = json.loads(out)
    assert max(payload["part"]) + 1 == 2
    assert "odd complete" in payload["trace"]["bound_formula"]
    assert payload["trace"]["certified"]


def test_decompose_output_reverifies(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    dpath = tmp_path / "d.json"
    main(["gen", "bipartite_random(nx=6,ny=6,edges=24,max_degree=6,seed=3)",
          "--out", str(gpath)])
    assert main(["decompose", str(gpath), "--method", "bipartite-thirds", "--out", str(dpath)]) == 0
    code, _ = run(capsys, "verify", str(gpath), str(dpath))
    assert code == 0


def test_decompose_cyclic_split(tmp_path, capsys):
    gpath = tmp_path / "c5.json"
    cpath = tmp_path / "cyc.json"
    main(["gen", "fixture(name=c5)", "--out", str(gpath)])
    cpath.write_text("[1, 2, 3, 4, 5]\n")
    code, out = run(capsys, "decompose", str(gpath),
                    "--cyclic-coloring", str(cpath), "--t", "5")
    assert code == 0
    assert max(json.loads(out)["part"]) + 1 == 2
    assert json.loads(out)["trace"] == {
        "method": "cyclic-split", "bound_formula": "2 (cyclic interval)",
        "bound_value": 2, "parts": 2, "certified": True}


def test_timetable_command(tmp_path, capsys):
    mpath = tmp_path / "school.csv"
    mpath.write_text("2,1\n1,2\n")
    code, out = run(capsys, "timetable", str(mpath), "--even")
    assert code == 0
    days = json.loads(out)
    assert len(days) == 1 and len(days[0]) == 2


def test_oracle_theta(tmp_path, capsys):
    gpath = tmp_path / "k3.json"
    main(["gen", "fixture(name=k3)", "--out", str(gpath)])
    code, out = run(capsys, "oracle", str(gpath), "theta")
    assert code == 0 and json.loads(out)["theta"] == 2


def test_oracle_interval_witness(tmp_path, capsys):
    gpath = tmp_path / "c4.json"
    main(["gen", "fixture(name=c4)", "--out", str(gpath)])
    code, out = run(capsys, "oracle", str(gpath), "interval")
    payload = json.loads(out)
    assert code == 0 and payload["interval_colorable"] and payload["witness"]


def test_text_graph_format_accepted(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("3 3\n0 1\n1 2\n2 0\n")
    code, out = run(capsys, "oracle", str(gpath), "chi")
    assert code == 0 and json.loads(out)["chi"] == 3


def test_bench_quick(tmp_path, capsys):
    for suite in ("quick", "sweep"):
        code, out = run(capsys, "bench", suite)
        assert code == 0
        rows = json.loads(out)
        assert all(r["certified"] and r["parts"] <= r["bound"] for r in rows)
    # the biregular row's two paths: k = 4 pairs all four classes, k = 7 has star forests
    won = {r["instance"]: (r["method"], r["parts"]) for r in rows}
    assert won["biregular(a=4,b=8,scale=3)"] == ("biregular", 2)
    assert won["biregular(a=7,b=14,scale=2)"] == ("biregular", 5)


def test_bench_fails_a_row_above_its_bound(monkeypatch, capsys):
    original = cli.dispatch_theta_upper

    def understated(g):
        d, trace = original(g)
        return d, dataclasses.replace(trace, bound_value=trace.parts - 1)

    monkeypatch.setattr(cli, "dispatch_theta_upper", understated)
    assert run(capsys, "bench", "quick")[0] == 1


def test_bench_names_an_unknown_suite_and_seeds_every_instance(capsys):
    assert _exits_2_with_one_error_line(capsys, "bench", "nope") == (
        "error: unknown suite 'nope'; have ['quick', 'sweep']\n")
    code, out = run(capsys, "bench", "quick", "--seed", "3")
    assert code == 0
    seeded = [generators.generate(dataclasses.replace(generators.FamilySpec.parse(r["instance"]),
                                                      seed=3)).graph for r in json.loads(out)]
    assert [(r["vertices"], r["edges"]) for r in json.loads(out)] == [
        (g.vertex_count, g.edge_count) for g in seeded]


def test_color_exact_reports_the_chromatic_index(tmp_path, capsys):
    gpath = tmp_path / "k3.json"
    main(["gen", "fixture(name=k3)", "--out", str(gpath)])
    assert main(["color", str(gpath), "--method", "exact"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "chromatic index: 3\n"
    assert sorted(json.loads(captured.out)) == [1, 2, 3]


def test_decompose_cyclic_coloring_without_t_exit_code(tmp_path, capsys):
    gpath = tmp_path / "c5.json"
    cpath = tmp_path / "cyc.json"
    main(["gen", "fixture(name=c5)", "--out", str(gpath)])
    cpath.write_text("[1, 2, 3, 4, 5]\n")
    assert _exits_2_with_one_error_line(
        capsys, "decompose", str(gpath), "--cyclic-coloring", str(cpath)) == (
        "error: --cyclic-coloring requires --t\n")


def test_timetable_grid_goes_to_stderr(tmp_path, capsys):
    mpath = tmp_path / "school.csv"
    mpath.write_text("2,1\n1,2\n")
    assert main(["timetable", str(mpath), "--grid"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("Day 1\n")
    assert captured.err.endswith("days: 1  method: subcubic [3-colorable subcubic: 1]\n")
    assert len(json.loads(captured.out)) == 1


def test_oracle_arboricity(tmp_path, capsys):
    gpath = tmp_path / "k3.json"
    main(["gen", "fixture(name=k3)", "--out", str(gpath)])
    code, out = run(capsys, "oracle", str(gpath), "arboricity")
    assert code == 0 and json.loads(out) == {"arboricity": 2}


def test_bad_input_exit_code(tmp_path, capsys):
    gpath = tmp_path / "nope.json"
    gpath.write_text('{"vertex_count": 2, "edges": [[0, 9]]}\n')
    assert main(["oracle", str(gpath), "chi"]) == 2


def test_color_methods_all_verify(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    main(["gen", "fixture(name=c4)", "--out", str(gpath)])
    for method in ("vizing", "shannon", "kernel:low_even"):
        code, out = run(capsys, "color", str(gpath), "--method", method)
        assert code == 0 and len(json.loads(out)) == 4
    tpath = tmp_path / "t.json"
    main(["gen", "tree(n=8,seed=1)", "--out", str(tpath)])
    code, out = run(capsys, "color", str(tpath), "--method", "kernel:forest")
    assert code == 0
    cpath = tmp_path / "cactus.json"
    main(["gen", "cactus(blocks=4,seed=2)", "--out", str(cpath)])
    assert run(capsys, "color", str(cpath), "--method", "kernel:cactus")[0] == 0


def test_kernel_cactus_color_says_why_the_cactus_row_does_not_apply(tmp_path, capsys):
    # K_4 is no cactus: the cactus row's reason, exit 2
    gpath = tmp_path / "k4.json"
    main(["gen", "fixture(name=k4)", "--out", str(gpath)])
    assert main(["color", str(gpath), "--method", "kernel:cactus"]) == 2
    err = capsys.readouterr().err
    assert err == "error: too many edges for a cactus\n"


def test_verify_cyclic_flag(tmp_path, capsys):
    gpath = tmp_path / "c5.json"
    cpath = tmp_path / "col.json"
    main(["gen", "fixture(name=c5)", "--out", str(gpath)])
    cpath.write_text("[1, 2, 3, 4, 5]\n")
    code, out = run(capsys, "verify", str(gpath), str(cpath), "--cyclic", "5")
    assert code == 0 and json.loads(out)["cyclic_interval"] is True
    code, _ = run(capsys, "verify", str(gpath), str(cpath))
    assert code == 1  # plain interval mode fails on the wrap palette


def test_timetable_accepts_json_matrix(tmp_path, capsys):
    mpath = tmp_path / "b.json"
    mpath.write_text('{"b": [[1, 1], [1, 1]]}\n')
    code, out = run(capsys, "timetable", str(mpath))
    assert code == 0 and len(json.loads(out)) == 1


def test_timetable_reads_a_one_cell_csv_as_text(tmp_path, capsys):
    # "3" also parses as a JSON number; it is one class meeting one teacher 3 times
    mpath = tmp_path / "b.csv"
    mpath.write_text("3\n")
    code, out = run(capsys, "timetable", str(mpath))
    assert code == 0 and json.loads(out) == [[[0, 0, 0]]]


def test_timetable_one_cell_csv_that_is_no_integer_names_the_cell(tmp_path, capsys):
    mpath = tmp_path / "b.csv"
    mpath.write_text("1e2\n")
    assert _exits_2_with_one_error_line(capsys, "timetable", str(mpath)) == (
        "error: expected an integer, got '1e2'\n")


def test_unknown_decompose_method(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    main(["gen", "fixture(name=c4)", "--out", str(gpath)])
    assert main(["decompose", str(gpath), "--method", "nonsense"]) == 2


def test_subcubic_color_uses_exact_search_off_bipartite(tmp_path, capsys):
    gpath = tmp_path / "k4.json"
    main(["gen", "fixture(name=k4)", "--out", str(gpath)])
    code, out = run(capsys, "color", str(gpath), "--method", "subcubic")
    assert code == 0
    cpath = tmp_path / "col.json"
    cpath.write_text(out)
    assert main(["verify", str(gpath), str(cpath)]) == 0


def test_subcubic_color_rejects_class2(tmp_path, capsys):
    gpath = tmp_path / "c5.json"
    main(["gen", "fixture(name=c5)", "--out", str(gpath)])
    assert main(["color", str(gpath), "--method", "subcubic"]) == 2


@pytest.mark.parametrize("certificates", [None, [[1, 2], None], [[1], [1]]])
def test_verify_decomposition_with_bad_certificate_exit_code(tmp_path, capsys, certificates):
    gpath = tmp_path / "k3.json"
    dpath = tmp_path / "d.json"
    main(["gen", "fixture(name=k3)", "--out", str(gpath)])
    obj = {"part": [0, 0, 1]}
    if certificates is not None:
        obj["certificates"] = certificates
    dpath.write_text(json.dumps(obj))
    assert main(["verify", str(gpath), str(dpath)]) == 2


def _exits_2_with_one_error_line(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


HUGE = 10 ** 30        # above sys.maxsize, so nothing is ever sized by it


@pytest.mark.parametrize("command,graph,target", [
    ("verify", {"vertex_count": HUGE, "edges": [[7, 1]]}, [1]),
    ("decompose", {"vertex_count": HUGE, "edges": [[7, 1]]}, None),
    ("verify", {"vertex_count": 10 ** 19, "edges": []}, []),
])
def test_vertex_count_beyond_an_index_exit_code(tmp_path, capsys, command, graph, target):
    gpath, tpath = tmp_path / "g.json", tmp_path / "t.json"
    gpath.write_text(json.dumps(graph))
    argv = [command, str(gpath)]
    if target is not None:
        tpath.write_text(json.dumps(target))
        argv.append(str(tpath))
    assert _exits_2_with_one_error_line(capsys, *argv) == (
        f"error: vertex_count must be at most {sys.maxsize}\n")


def test_gen_parameter_beyond_an_index_exit_code(capsys, monkeypatch):
    # a tree of that many vertices would grow a list until killed
    monkeypatch.setattr(generators, "random_tree", lambda *args: pytest.fail("sized a tree"))
    assert _exits_2_with_one_error_line(capsys, "gen", f"tree(n={HUGE})") == (
        f"error: tree parameter n must be at most {sys.maxsize}\n")


def test_timetable_lecture_count_beyond_an_index_exit_code(tmp_path, capsys):
    mpath = tmp_path / "b.csv"
    mpath.write_text(f"1,{10 ** 29}\n2,3\n")
    assert _exits_2_with_one_error_line(capsys, "timetable", str(mpath)) == (
        f"error: lecture counts must be at most {sys.maxsize}\n")


LOOP_GRAPH = '{"vertex_count": 2, "edges": [[0, 1], [1, 1]], "allows_loops": true}\n'


def test_decompose_graph_with_loop_exit_code(tmp_path, capsys):
    gpath = tmp_path / "loop.json"
    gpath.write_text(LOOP_GRAPH)
    err = _exits_2_with_one_error_line(capsys, "decompose", str(gpath))
    assert "edge 1 is a loop (1,1) but loops are disallowed" in err


@pytest.mark.parametrize("argv", [["verify", "{g}", "{c}"], ["color", "{g}"],
                                  ["oracle", "{g}", "chi"]], ids=["verify", "color", "oracle"])
def test_every_command_reading_a_graph_with_a_loop_names_the_edge(tmp_path, capsys, argv):
    gpath, cpath = tmp_path / "loop.json", tmp_path / "col.json"
    gpath.write_text(LOOP_GRAPH)
    cpath.write_text("[1, 2]\n")
    err = _exits_2_with_one_error_line(
        capsys, *(a.format(g=gpath, c=cpath) for a in argv))
    assert "edge 1 is a loop (1,1) but loops are disallowed" in err


@pytest.mark.parametrize("argv", [["decompose", "{deep}"], ["verify", "{deep}", "{c}"],
                                  ["verify", "{g}", "{deep}"], ["timetable", "{deep}"]],
                         ids=["decompose", "verify-graph", "verify-target", "timetable"])
def test_deeply_nested_json_exit_code(tmp_path, capsys, argv):
    # json.loads recurses once per bracket, so this overflows the stack
    deep, gpath, cpath = tmp_path / "deep.json", tmp_path / "g.json", tmp_path / "col.json"
    deep.write_text("[" * 100_000)
    gpath.write_text('{"vertex_count": 2, "edges": [[0, 1]]}\n')
    cpath.write_text("[1]\n")
    err = _exits_2_with_one_error_line(
        capsys, *(a.format(deep=deep, g=gpath, c=cpath) for a in argv))
    assert f"{deep}: JSON nested too deeply" in err


def test_decompose_eulerian_on_an_odd_degree_vertex_exit_code(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"vertex_count": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 0], [0, 4]]}\n')
    err = _exits_2_with_one_error_line(capsys, "decompose", str(gpath),
                                       "--method", "eulerian-bipartite")
    assert "vertex 0 has odd degree" in err


def _assert_names_an_odd_cycle_of_c5(err):
    assert "graph is not bipartite: odd cycle " in err
    cycle = [int(v) for v in err.rsplit(" ", 1)[1].split("-")]
    steps = {frozenset(e) for e in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))}
    assert len(cycle) % 2 == 1
    assert all(frozenset(p) in steps for p in zip(cycle, cycle[1:] + cycle[:1]))


def test_bipartite_row_on_an_odd_cycle_names_the_cycle(tmp_path, capsys):
    gpath = tmp_path / "c5.json"
    gpath.write_text('{"vertex_count": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}\n')
    _assert_names_an_odd_cycle_of_c5(_exits_2_with_one_error_line(
        capsys, "decompose", str(gpath), "--method", "bipartite-thirds"))


def test_konig_coloring_on_an_odd_cycle_names_the_cycle(tmp_path, capsys):
    gpath = tmp_path / "c5.json"
    gpath.write_text('{"vertex_count": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}\n')
    _assert_names_an_odd_cycle_of_c5(_exits_2_with_one_error_line(
        capsys, "color", str(gpath), "--method", "konig"))


def test_graph_json_with_non_boolean_allows_loops_exit_code(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"vertex_count": 2, "edges": [[0, 1]], "allows_loops": "no"}\n')
    _exits_2_with_one_error_line(capsys, "decompose", str(gpath))


def test_verify_cyclic_color_out_of_range_exit_code(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    cpath = tmp_path / "col.json"
    gpath.write_text('{"vertex_count": 3, "edges": [[0, 1], [1, 2]]}\n')
    cpath.write_text("[1, 5]\n")
    _exits_2_with_one_error_line(capsys, "verify", str(gpath), str(cpath), "--cyclic", "3")


def test_graph_json_without_edges_exit_code(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"vertex_count": 3}\n')
    _exits_2_with_one_error_line(capsys, "decompose", str(gpath))


def test_text_graph_with_non_integer_endpoint_exit_code(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("3 2\n0 1\n0 x\n")
    _exits_2_with_one_error_line(capsys, "decompose", str(gpath))


@pytest.mark.parametrize("command,text", [
    ("timetable", "1,x\n"),
    ("timetable", '{"c": 1}\n'),
    ("decompose", '{"vertex_count": 2, "edges": [[0.5, 1]]}\n'),
])
def test_malformed_input_exit_code(tmp_path, capsys, command, text):
    path = tmp_path / "input"
    path.write_text(text)
    _exits_2_with_one_error_line(capsys, command, str(path))


@pytest.mark.parametrize("argv", [("decompose", "{dir}"), ("decompose", "{binary}"),
                                  ("gen", "fixture(name=k5)", "--out", "{dir}")])
def test_unreadable_input_or_output_exit_code(tmp_path, capsys, argv):
    # a directory as the graph, a file that is not UTF-8 text, a directory as --out
    binary = tmp_path / "g.bin"
    binary.write_bytes(bytes(range(128, 256)))
    _exits_2_with_one_error_line(capsys, *(a.format(dir=tmp_path, binary=binary) for a in argv))


# Inputs stay small: a large vertex count or lecture count is valid input and
# would only make the run long.  Values are integers about half the time, so
# many inputs are well formed or one value away from it.
_ATOMS = st.sampled_from([0, 1, 2, 3, -1, 1.0, 0.5, "1", "x", "", None, True, [], {}])
_VALUE = st.integers(0, 3) | _ATOMS
_JSON = st.recursive(_ATOMS, lambda inner: st.lists(inner, max_size=5)
                     | st.dictionaries(st.sampled_from(["vertex_count", "edges", "u", "v", "id",
                                                        "allows_loops", "b", "part",
                                                        "certificates"]), inner, max_size=4),
                     max_leaves=16)
_EDGE = st.lists(_VALUE, min_size=2, max_size=2) | st.fixed_dictionaries(
    {"u": _VALUE, "v": _VALUE}) | _ATOMS
_GRAPH_JSON = st.fixed_dictionaries(
    {"vertex_count": st.integers(2, 5) | _ATOMS, "edges": st.lists(_EDGE, max_size=5)},
    optional={"allows_loops": _ATOMS})
_TOKENS = st.sampled_from(["0", "1", "2", "3"]) | st.sampled_from(["x", "-1", "1.5", "", " "])
_GRAPH_TEXT = st.builds(lambda n, rows: f"{n} {len(rows)}\n" + "\n".join(map(" ".join, rows)),
                        st.sampled_from(["4", "5"]) | _TOKENS,
                        st.lists(st.lists(_TOKENS, min_size=1, max_size=3), max_size=5))
_TARGET = _JSON | st.lists(_VALUE, max_size=6) | st.fixed_dictionaries(
    {"part": st.lists(_VALUE, max_size=6), "certificates": st.lists(st.lists(_VALUE), max_size=3)})
_ROWS = st.lists(st.lists(_VALUE, min_size=1, max_size=3), min_size=1, max_size=3)
_MATRIX_JSON = _JSON | _ROWS | st.fixed_dictionaries({"b": _ROWS})
_CSV = st.lists(st.lists(_TOKENS, min_size=1, max_size=3).map(",".join),
                max_size=4).map("\n".join)


def _clean_exit(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert "error:" not in err


_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@given(graph=(_GRAPH_JSON | _JSON).map(json.dumps) | _GRAPH_TEXT,
       target=_TARGET.map(json.dumps))
@_FUZZ
def test_fuzzed_graph_input_exits_cleanly(tmp_path, capsys, graph, target):
    gpath, tpath = tmp_path / "graph", tmp_path / "target"
    gpath.write_text(graph)
    tpath.write_text(target)
    _clean_exit(capsys, "decompose", str(gpath))
    _clean_exit(capsys, "verify", str(gpath), str(tpath))


@given(matrix=_MATRIX_JSON.map(json.dumps) | _CSV)
@_FUZZ
def test_fuzzed_matrix_input_exits_cleanly(tmp_path, capsys, matrix):
    mpath = tmp_path / "matrix"
    mpath.write_text(matrix)
    _clean_exit(capsys, "timetable", str(mpath))
