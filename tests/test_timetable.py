import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from intcolor import timetable
from intcolor.multigraph import Decomposition, GraphError, bipartition
from intcolor.timetable import (RequirementMatrix, Timetable, build_requirement_graph,
                                daily_loads, decomposition_to_timetable,
                                make_weekly_timetable, render_timetable,
                                timetable_to_decomposition, verify_timetable)

from reference_checkers import reference_verify_timetable


def _random_matrix(rng, n_max=8, m_max=8, entry_max=3):
    n, m = rng.randint(1, n_max), rng.randint(1, m_max)
    return RequirementMatrix.from_rows(
        [[rng.randint(0, entry_max) for _ in range(m)] for _ in range(n)])


def test_matrix_csv_round_trip():
    B = RequirementMatrix.from_csv("2,0,1\n1,1,1\n")
    assert B.n_classes == 2 and B.m_teachers == 3
    assert RequirementMatrix.from_csv(B.to_csv()) == B


def test_matrix_rejects_negative():
    with pytest.raises(GraphError):
        RequirementMatrix.from_rows([[1, -1]])


def test_requirement_graph_digon():
    g = build_requirement_graph(RequirementMatrix.from_rows([[2]]))
    assert g.vertex_count == 2 and g.edge_count == 2
    assert bipartition(g) == (0, 1)


def test_requirement_graph_c4():
    g = build_requirement_graph(RequirementMatrix.from_rows([[1, 1], [1, 1]]))
    assert g.edge_count == 4 and all(g.degree(v) == 2 for v in range(4))


def test_requirement_graph_degrees_are_row_sums():
    rng = random.Random(3)
    B = _random_matrix(rng)
    g = build_requirement_graph(B)
    for i in range(B.n_classes):
        assert g.degree(i) == sum(B.b[i])
    for j in range(B.m_teachers):
        assert g.degree(B.n_classes + j) == sum(row[j] for row in B.b)


def test_digon_schedules_two_consecutive_periods():
    B = RequirementMatrix.from_rows([[2]])
    S, _ = make_weekly_timetable(B)
    assert S.day_count == 1
    assert S.days[0][0] == (0, 0)


def test_weekly_timetable_failure_names_the_parties(monkeypatch):
    # a translation that leaves class 0 and teacher 0 (vertex 1) a free period
    monkeypatch.setattr(timetable, "_timetable", lambda B, d: Timetable((((0, None, 0),),)))
    with pytest.raises(AssertionError, match="failed verification at vertices 0, 1$"):
        make_weekly_timetable(RequirementMatrix.from_rows([[2]]))


def test_interruption_detection():
    B = RequirementMatrix.from_rows([[2]])
    gappy = Timetable((((0, None, 0),),))
    rep = verify_timetable(B, gappy)
    assert rep.proper and not rep.interval
    assert 0 in rep.offending_vertices


def test_translating_a_timetable_with_a_wait_or_a_clash_names_the_parties():
    # class 0 and teacher 0 (vertex 1) wait in period 2
    with pytest.raises(GraphError, match="wait or a clash at vertices 0, 1$"):
        timetable_to_decomposition(RequirementMatrix.from_rows([[2]]),
                                   Timetable((((0, None, 0),),)))
    # teacher 0 (vertex 2) meets both classes in period 1
    with pytest.raises(GraphError, match="wait or a clash at vertices 2$"):
        timetable_to_decomposition(RequirementMatrix.from_rows([[1], [1]]),
                                   Timetable((((0,), (0,)),)))


def test_wrong_totals_detected():
    B = RequirementMatrix.from_rows([[2]])
    short = Timetable((((0,),),))
    rep = verify_timetable(B, short)
    assert not rep.proper


def test_translating_a_timetable_with_too_many_or_too_few_lectures_names_the_fault():
    B = RequirementMatrix.from_rows([[2]])
    with pytest.raises(GraphError, match=r"^timetable schedules more \(0,0\) lectures than required$"):
        timetable_to_decomposition(B, Timetable((((0, None, 0),), ((0,),))))
    with pytest.raises(GraphError, match="^timetable misses some required lectures$"):
        timetable_to_decomposition(B, Timetable((((0,),),)))


def test_decomposition_to_timetable_refuses_another_graphs_or_an_uncertified_decomposition():
    B = RequirementMatrix.from_rows([[1, 1], [1, 1]])
    other = build_requirement_graph(RequirementMatrix.from_rows([[2]]))
    with pytest.raises(GraphError, match="^decomposition does not belong to this requirement graph$"):
        decomposition_to_timetable(B, Decomposition(other, (0, 0), (1, 2)))
    g = build_requirement_graph(B)
    with pytest.raises(GraphError, match="^decomposition is not certified$"):
        decomposition_to_timetable(B, Decomposition(g, (0, 0, 0, 0), (1, 1, 1, 1)))


def test_column_clash_detected():
    B = RequirementMatrix.from_rows([[1], [1]])
    clash = Timetable((((0,), (0,)),))
    rep = verify_timetable(B, clash)
    assert not rep.proper
    assert 2 in rep.offending_vertices  # the teacher vertex


def test_teacher_interruption_detected():
    # every class is gapless but teacher 0 works periods 1 and 3 with 2 free
    B = RequirementMatrix.from_rows([[1, 1, 0], [1, 0, 1]])
    S = Timetable((((0, 1, None), (None, 2, 0)),))
    rep = verify_timetable(B, S)
    assert rep.proper and not rep.interval
    assert 2 in rep.offending_vertices  # teacher 0 is vertex n + 0


def test_consecutive_periods_pass():
    B = RequirementMatrix.from_rows([[3]])
    S = Timetable((((0, 0, 0),),))
    assert verify_timetable(B, S).interval


def test_delta_three_single_day():
    B = RequirementMatrix.from_rows([[2, 1], [1, 0]])
    S, _ = make_weekly_timetable(B)
    assert S.day_count == 1


def test_single_lecture():
    S, _ = make_weekly_timetable(RequirementMatrix.from_rows([[1]]))
    assert S.day_count == 1 and S.days[0][0] == (0,)


def test_empty_matrix_gives_empty_timetable():
    S, _ = make_weekly_timetable(RequirementMatrix.from_rows([[0, 0]]))
    assert S.day_count == 0


def test_even_spread_of_an_empty_matrix_is_bound_by_zero_days():
    S, trace = make_weekly_timetable(RequirementMatrix.from_rows([[0, 0], [0, 0]]), "even_spread")
    assert S.day_count == 0
    assert (trace.bound_formula, trace.bound_value, trace.parts) == ("ceil(0/3) = 0", 0, 0)


def test_json_round_trip():
    B = RequirementMatrix.from_rows([[1, 2], [2, 1]])
    S, _ = make_weekly_timetable(B, "even_spread")
    assert Timetable.from_json(S.to_json()) == S


def test_render_contains_grid():
    B = RequirementMatrix.from_rows([[1, 1], [1, 1]])
    S, _ = make_weekly_timetable(B)
    text = render_timetable(S)
    assert "Day 1" in text and "J1" in text


@given(st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_round_trip_and_no_interruptions(seed):
    rng = random.Random(seed)
    B = _random_matrix(rng)
    S, _ = make_weekly_timetable(B)
    rep = verify_timetable(B, S)
    assert rep.interval
    d = timetable_to_decomposition(B, S)
    assert decomposition_to_timetable(B, d) == S


@pytest.mark.parametrize("colors, lowest", [((0, 1, 0), 0), ((-1, 0, -1), -1)])
def test_timetable_refuses_a_part_colored_below_period_one(colors, lowest):
    # certified decompositions both: one raised AssertionError, the other IndexError
    B = RequirementMatrix.from_rows([[1, 1], [0, 1]])
    d = Decomposition(build_requirement_graph(B), (0, 0, 0), colors)
    with pytest.raises(GraphError, match=f"^part 0 has smallest color {lowest}; "):
        decomposition_to_timetable(B, d)
    shifted = Decomposition(d.graph, d.parts, tuple(c + 1 - lowest for c in colors))
    assert verify_timetable(B, decomposition_to_timetable(B, shifted)).interval


@given(st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_even_spread_daily_loads(seed):
    rng = random.Random(seed)
    B = _random_matrix(rng)
    S, trace = make_weekly_timetable(B, "even_spread")
    assert verify_timetable(B, S).interval
    cl, tl = daily_loads(S, B.n_classes, B.m_teachers)
    for loads in cl + tl:
        if loads:
            assert max(loads) - min(loads) <= 1
    delta = max(
        max((sum(row) for row in B.b), default=0),
        max((sum(row[j] for row in B.b) for j in range(B.m_teachers)), default=0))
    assert S.day_count <= max(1, -(-delta // 3)) or delta == 0


def test_weekly_timetable_builds_the_requirement_graph_once(monkeypatch):
    built = []
    original = timetable.build_requirement_graph
    monkeypatch.setattr(timetable, "build_requirement_graph",
                        lambda B: built.append(B) or original(B))
    B = RequirementMatrix.from_rows([[2, 1], [1, 2]])
    for mode in ("fewest_days", "even_spread"):
        S, _ = make_weekly_timetable(B, mode)
        assert verify_timetable(B, S).interval
    assert len(built) == 2


@pytest.mark.parametrize("rows", [[[1, "x"]], [[0.5]], [[True]], [1, 2], None, "1,2"])
def test_malformed_matrix_rows_raise_graph_error(rows):
    with pytest.raises(GraphError):
        RequirementMatrix.from_rows(rows)


@pytest.mark.parametrize("text, message", [
    ("1,1.5\n", "expected an integer, got '1.5'"),
    ("1,2\nx,0\n", "expected an integer, got 'x'"),
    ("1,,2\n", "expected an integer, got ''"),
    ("1,-1\n", "lecture counts must be nonnegative"),
    ("1,2\n3\n", "ragged requirement matrix"),
])
def test_csv_errors_name_the_first_bad_cell(text, message):
    with pytest.raises(GraphError) as parsed:
        RequirementMatrix.from_csv(text)
    assert str(parsed.value) == message
    # the entry-by-entry parse of the split cells gives the same text
    with pytest.raises(GraphError) as by_rows:
        RequirementMatrix.from_rows([line.split(",") for line in text.splitlines()])
    assert str(by_rows.value) == message


def test_rejects_a_lecture_count_beyond_an_index():
    with pytest.raises(GraphError, match=f"^lecture counts must be at most {sys.maxsize}$"):
        RequirementMatrix(((1, sys.maxsize + 1), (2, 3)))


def test_rows_parse_exact_integers_only():
    for bad in (True, 0.5):
        with pytest.raises(GraphError, match="expected an integer"):
            RequirementMatrix.from_rows([[1, bad]])
    assert RequirementMatrix.from_rows([[2.0, "3"]]).b == ((2, 3),)


def _busy_cells(S: Timetable) -> list[tuple[int, int, int]]:
    return [(d, i, h) for d, day in enumerate(S.days) for i, row in enumerate(day)
            for h, j in enumerate(row) if j is not None]


def _corrupt(B: RequirementMatrix, S: Timetable, kind: str, rng) -> Timetable:
    """S with one fault of the given kind, or S itself when it has no lecture
    (or, for a double booking, a single class)."""
    days = [[list(row) for row in day] for day in S.days]
    busy = _busy_cells(S)
    if not busy:
        return S
    d, i, h = rng.choice(busy)
    rows = days[d]
    j = rows[i][h]

    def put(i2: int, h2: int, teacher: int | None) -> None:
        rows[i2].extend([None] * (h2 + 1 - len(rows[i2])))
        rows[i2][h2] = teacher

    if kind == "move":          # may open a gap for the class or the teacher, or clash
        rows[i][h] = None
        h2 = rng.choice([x for x in range(len(rows[i]) + 2)
                         if x >= len(rows[i]) or rows[i][x] is None])
        put(i, h2, j)
    elif kind == "double":      # the teacher meets a second class in that period
        others = [x for x in range(len(rows)) if x != i]
        if not others:
            return S
        put(rng.choice(others), h, j)
    elif kind == "drop":
        rows[i][h] = None
    elif kind == "extra":
        put(i, len(rows[i]) + rng.randint(0, 1), rng.randrange(B.m_teachers))
    elif kind == "unknown teacher":
        rows[i][h] = rng.choice([-1, B.m_teachers])
    elif kind == "row count":
        if rng.random() < 0.5:
            del rows[rng.randrange(len(rows))]
        else:
            rows.append([])
    return Timetable(tuple(tuple(tuple(row) for row in day) for day in days))


def _report_or_error(verifier, B: RequirementMatrix, S: Timetable):
    try:
        return verifier(B, S)
    except GraphError as exc:
        return str(exc)


_CORRUPTIONS = ["move", "double", "drop", "extra", "unknown teacher", "row count"]


@given(st.integers(0, 100_000), st.sampled_from([None] + _CORRUPTIONS),
       st.sampled_from(["fewest_days", "even_spread"]))
@settings(max_examples=150, deadline=None)
def test_verifier_matches_the_reference(seed, kind, mode):
    rng = random.Random(seed)
    B = _random_matrix(rng, n_max=6, m_max=6)
    built, _ = make_weekly_timetable(B, mode)
    S = built if kind is None else _corrupt(B, built, kind, rng)
    got = _report_or_error(verify_timetable, B, S)
    assert got == _report_or_error(reference_verify_timetable, B, S)
    if kind not in (None, "move") and S != built:
        assert isinstance(got, str) or not got.proper
