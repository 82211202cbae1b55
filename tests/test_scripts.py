"""The scripts under scripts/ run end to end: each exits 0 and prints its headers,
and stops quietly when its stdout is closed early."""
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PERFBENCH = SCRIPTS.parent / "perfbench"


def _run(name: str, *args: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_thickness_gap_scan():
    # drives the interval color sweep through exact_theta on every trial of the
    # full default scan; its output is pinned (13 gaps: 12 of size 1, 1 of size 2),
    # so a change to a part count re-pins it, as with the digest pins below
    proc = subprocess.run([sys.executable, str(SCRIPTS / "thickness_gap_scan.py"), "--seed", "0"],
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().splitlines()
    assert lines[0].startswith("trials with edges: ")
    assert lines[1].startswith("  dispatcher gap 0: ")
    assert any(line.startswith("largest exact thickness seen: ") for line in lines)
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "0f86f7dafea16bb7b5e4214d28488422184216adcf6c83b4ba0dd5f21a47308b")


def test_timetable_demo():
    lines = _run("timetable_demo.py")
    assert lines[0] == "requirement matrix (rows = classes, columns = teachers):"
    for mode in ("fewest_days", "even_spread"):
        header = [line for line in lines if line.startswith(f"== {mode}: ")]
        assert len(header) == 1 and header[0].endswith("verified=True")
    assert lines[-1].startswith("largest daily-load spread over all parties: ")


def _script_module(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_selftest_passes_and_its_tracer_installs_and_uninstalls():
    # a library name the benchmark wraps (Multigraph.subgraph, say) that is
    # deleted fails here rather than in the benchmark's trace run
    out = PERFBENCH / "out"
    before = sorted(out.iterdir()) if out.exists() else []
    proc = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "PASS", proc.stdout + proc.stderr
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = [importlib.import_module(f"intcolor.{m}") for m in spans.MODULES]
    owners = [importlib.import_module("intcolor"), *modules, modules[0].Multigraph]
    bound = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert modules[0].Multigraph.subgraph is not bound[-1]["subgraph"]
    finally:
        tracer.uninstall()
    assert all(dict(vars(owner)) == was for owner, was in zip(owners, bound))
    assert (sorted(out.iterdir()) if out.exists() else []) == before


def _digest_module():
    return _script_module("output_digest.py")


# golden lines of `output_digest.py 101 202`: any change to a decomposition the
# dispatcher returns, to its trace, or to a timetable built from it changes one
PINNED_DIGESTS = {
    (101, "sparse"): (40, 40, "3f2a02a119306a52f9e44766cdfdfb83fc8cee60d6e65113cb35e247536e20c7"),
    (101, "general"): (60, 244, "f3e0d7b3b04b23984ce4ddb9bcc91e0e29a0c525b118d1e77ed734763f73ccbf"),
    (101, "timetable"): (112, 798, "a4fd5b7fdee851aa4d898896dde5d39da9bc090ccf90ee3c7a752a9c0d6aea25"),
    (202, "sparse"): (40, 40, "a517fd04aac515455b3e76fb2e8deaf511f4d96b490550596ae8e154233be7d2"),
    (202, "general"): (60, 244, "b2d595bd5a5d626d1c110201453ef14df6282dd722431bf086b5c62d74ccc6bf"),
    (202, "timetable"): (112, 798, "7e1af4c8b6f854d8650f3ac48186646a179b8dec2e9c740939a14866ab6dcf3c"),
}


# seed 101 keeps the bare workload as its test id
@pytest.mark.parametrize("seed,workload", PINNED_DIGESTS,
                         ids=[w if s == 101 else f"{w}-{s}" for s, w in PINNED_DIGESTS])
def test_output_digest_is_pinned(seed, workload):
    assert _digest_module().workload_digest(workload, seed) == PINNED_DIGESTS[seed, workload]


def test_output_digest_prints_only_the_workloads_named():
    jobs, parts, digest = PINNED_DIGESTS[202, "sparse"]
    assert _run("output_digest.py", "202", "--workload", "sparse") == [
        f"seed 202 sparse: jobs {jobs} parts {parts} sha256 {digest}"]


@pytest.mark.parametrize("name,args", [("thickness_gap_scan.py", ("--trials", "5")),
                                       ("timetable_demo.py", ()),
                                       ("output_digest.py", ("101",)),
                                       ("code_lines.py", ())])
def test_closed_stdout_gives_no_traceback(name, args):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 1


def _pairs_module():
    return _script_module("perf_pairs.py")


def _result(correct=True, **values):
    return {"correct": correct, "metrics": {k: {"value": v} for k, v in values.items()}}


_METRICS = [{"name": "edges_per_s", "unit": "edges/s", "better": "higher"},
            {"name": "latency_p50_ms", "unit": "ms", "better": "lower"}]


def test_perf_pairs_summary_counts_the_pairs_the_change_won():
    pairs = [(_result(edges_per_s=p, latency_p50_ms=lp), _result(edges_per_s=c, latency_p50_ms=lc))
             for p, c, lp, lc in [(100, 130, 5.0, 4.0), (80, 120, 6.0, 6.0),
                                  (90, 85, 5.5, 5.0), (110, 140, 4.0, 4.5)]]
    throughput, latency = _pairs_module().summarize(pairs, _METRICS)
    # quartiles of statistics.quantiles' default method: 80,90,100,110 -> 82.5, 107.5
    assert throughput == {"name": "edges_per_s", "unit": "edges/s",
                          "parent_median": 95, "parent_iqr": 25.0,
                          "change_median": 125, "change_iqr": 43.75, "wins": 3, "pairs": 4,
                          "beats_every_parent_run": False}
    # lower is better for latency, and a tie counts for neither side
    assert (latency["wins"], latency["parent_median"], latency["change_median"]) == (2, 5.25, 4.75)


def test_perf_pairs_alternates_the_first_side_and_fails_on_an_incorrect_run(monkeypatch, capsys):
    perf_pairs = _pairs_module()
    order = []

    def fake_run(checkout, workload, seed, seconds):
        order.append(str(checkout))
        return _result(correct=len(order) != 4, **{m["name"]: 1.0
                                                    for m in perf_pairs.end_to_end_metrics()})

    monkeypatch.setattr(perf_pairs, "run_once", fake_run)
    monkeypatch.setattr(sys, "argv", ["perf_pairs.py", "p", "c", "--workload", "timetable",
                                      "--seed", "1", "--seconds", "1", "--pairs", "3"])
    assert perf_pairs.main() == 1
    assert order == ["p", "c", "c", "p", "p", "c"]
    out = capsys.readouterr().out.splitlines()
    assert out[3].split()[:2] == ["metric", "unit"]
    assert [line.split()[0] for line in out[4:]] == [m["name"]
                                                     for m in perf_pairs.end_to_end_metrics()]


def test_perf_pairs_verdict_per_metric():
    metrics = [{"name": "edges_per_s", "unit": "edges/s", "better": "higher", "bound": 0.25},
               {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
               {"name": "latency_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
    # ten pairs: throughput wins 9 and moves 2.5 parent IQRs, p50 wins 10 but by
    # less than one IQR on a parent IQR wider than its bound, p90 loses by 30%
    # and RSS wins only 8
    parent_p50 = [3.0, 3.2, 3.4, 3.6, 3.8, 4.0, 4.2, 4.4, 4.6, 4.8]
    pairs = [(_result(edges_per_s=100 + 4 * i, latency_p50_ms=lp, latency_p90_ms=10.0,
                      peak_rss_mb=20.0),
              _result(edges_per_s=(90 if i == 0 else 144 + 4 * i), latency_p50_ms=lp - 0.5,
                      latency_p90_ms=13.0, peak_rss_mb=19.0 if i < 8 else 21.0))
             for i, lp in enumerate(parent_p50)]
    perf_pairs = _pairs_module()
    rows = perf_pairs.summarize(pairs, metrics)
    verdicts = [perf_pairs.verdict(r, m) for r, m in zip(rows, metrics)]
    # parent throughput 100..136: median 118, IQR 107..129 by statistics.quantiles'
    # default method; the change's median is 162, 44 = 2 IQRs above
    assert rows[0]["parent_iqr"] == 22 and verdicts[0] == (2.0, "gain")
    assert verdicts[1][1] == "unresolved" and verdicts[1][0] < 1 and rows[1]["wins"] == 10
    assert verdicts[2] == (float("inf"), "worse")
    assert verdicts[3] == (float("inf"), "flat") and rows[3]["wins"] == 8
    lines = perf_pairs.format_rows(rows, metrics)
    assert lines[0].split()[-2:] == ["Δ/IQR", "verdict"]
    assert [line.split()[-1] for line in lines[1:]] == ["gain", "unresolved", "worse", "flat"]
    assert lines[1].split()[-2] == "2.00"


def _run_pairs(monkeypatch, perf_pairs, argv, values):
    """perf_pairs.main on canned result lines: the parent's values, then the
    change's, for every end-to-end metric."""
    def fake_run(checkout, workload, seed, seconds):
        value = values[str(checkout) == "c"]
        return _result(**{m["name"]: value for m in perf_pairs.end_to_end_metrics()})

    monkeypatch.setattr(perf_pairs, "run_once", fake_run)
    monkeypatch.setattr(perf_pairs, "commit", lambda checkout: f"{checkout}-commit")
    monkeypatch.setattr(sys, "argv", ["perf_pairs.py", *argv])
    return perf_pairs.main()


def test_perf_pairs_out_merges_runs_by_workload_and_seed(monkeypatch, tmp_path, capsys):
    perf_pairs = _pairs_module()
    out = tmp_path / "BENCH.json"
    for workload, seed, values in [("general", 202, (4.0, 2.0)), ("general", 101, (4.0, 3.0)),
                                   ("general", 202, (4.0, 1.0))]:
        argv = ["p", "c", "--workload", workload, "--seed", str(seed), "--seconds", "2",
                "--pairs", "3", "--out", str(out)]
        assert _run_pairs(monkeypatch, perf_pairs, argv, values) == 0
    runs = json.loads(out.read_text())["runs"]
    # the second run of seed 202 replaced the first, and runs sort by seed
    assert [(r["workload"], r["seed"]) for r in runs] == [("general", 101), ("general", 202)]
    run = runs[1]
    assert {k: run[k] for k in ("seconds", "pairs", "parent_commit", "change_commit",
                                "correct", "python", "cpu_count")} == {
        "seconds": 2.0, "pairs": 3, "parent_commit": "p-commit", "change_commit": "c-commit",
        "correct": True, "python": platform.python_version(), "cpu_count": os.cpu_count()}
    assert [row["name"] for row in run["rows"]] == [m["name"]
                                                    for m in perf_pairs.end_to_end_metrics()]
    p50 = next(row for row in run["rows"] if row["name"] == "latency_p50_ms")
    # every pair ties within a side, so the IQR is 0 and the ratio has no finite value
    assert (p50["parent_median"], p50["change_median"], p50["wins"]) == (4.0, 1.0, 3)
    assert (p50["verdict"], p50["delta_over_iqr"]) == ("gain", None)


@pytest.mark.parametrize("change, lower, higher", [
    # medians tie on a parent IQR of 2 around a median of 5: wider than any bound
    ((4.5, 5.5, 4.5, 5.5), "unresolved", "unresolved"),
    # every change run beats every parent run when lower is better
    ((3.0, 3.5, 3.0, 3.5), "flat", "worse"),
    # 4 of 4 pairs won and 1.375 parent IQRs, though 4.5 does not beat the parent's 4
    ((2.0, 2.5, 2.0, 4.5), "gain", "worse"),
])
def test_perf_pairs_marks_a_bound_the_parent_runs_cannot_resolve(monkeypatch, tmp_path, capsys,
                                                                 change, lower, higher):
    perf_pairs = _pairs_module()
    runs = {"p": iter((4.0, 6.0, 4.0, 6.0)), "c": iter(change)}

    def fake_run(checkout, workload, seed, seconds):
        value = next(runs[str(checkout)])
        return _result(**{m["name"]: value for m in perf_pairs.end_to_end_metrics()})

    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(perf_pairs, "run_once", fake_run)
    monkeypatch.setattr(perf_pairs, "commit", lambda checkout: None)
    monkeypatch.setattr(sys, "argv", ["perf_pairs.py", "p", "c", "--workload", "sparse",
                                      "--seed", "1", "--seconds", "1", "--pairs", "4",
                                      "--out", str(out)])
    assert perf_pairs.main() == 0
    want = [higher if m["better"] == "higher" else lower for m in perf_pairs.end_to_end_metrics()]
    printed = capsys.readouterr().out.splitlines()[-len(want):]
    assert [line.split()[-1] for line in printed] == want
    rows = json.loads(out.read_text())["runs"][0]["rows"]
    assert [row["verdict"] for row in rows] == want


def test_perf_pairs_compare_prints_the_ratio_of_change_medians(monkeypatch, tmp_path, capsys):
    perf_pairs = _pairs_module()
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    for path, values in ((old, (4.0, 2.0)), (new, (2.0, 1.5))):
        argv = ["p", "c", "--workload", "general", "--seed", "101", "--seconds", "2",
                "--pairs", "2", "--out", str(path)]
        assert _run_pairs(monkeypatch, perf_pairs, argv, values) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["perf_pairs.py", "--compare", str(old), str(new)])
    assert perf_pairs.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["workload", "seed", "metric", "old", "new", "new/old"]
    assert [line.split() for line in lines[1:3]] == [
        ["general", "101", "edges_per_s", "2", "1.5", "0.750"],
        ["general", "101", "latency_p50_ms", "2", "1.5", "0.750"]]
    assert len(lines) == 1 + len(perf_pairs.end_to_end_metrics())


@pytest.mark.parametrize("argv", [["--workload", "general"],
                                  ["--compare", "missing.json", "missing.json"]])
def test_perf_pairs_without_checkouts_or_records_exits_with_usage(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["perf_pairs.py", *argv])
    with pytest.raises(SystemExit) as exc:
        _pairs_module().main()
    assert exc.value.code == 2


_CANNED_SOURCE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment keeps its line

# a comment alone


class Point:
    """Class docstring."""
    x: int = 0


def f(a,
      b):
    """Function docstring
    over two lines."""
    text = """a multi-line string
that is no docstring"""
    return (a +
            b)
'''


def test_code_lines_counts_tokens_outside_docstrings_and_comments():
    # import, class, x, then def, text and return over two lines each
    assert _script_module("code_lines.py").code_lines(_CANNED_SOURCE) == 9


def test_code_lines_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(_CANNED_SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# c\n")
    assert _run("code_lines.py", str(tmp_path)) == ["a.py 9", "b.py 1", "total 10"]
