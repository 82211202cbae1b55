"""The scripts under scripts/ run end to end: each exits 0 and prints its headers,
and stops quietly when its stdout is closed early."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name: str, *args: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_thickness_gap_scan():
    # drives the interval color sweep through exact_theta on every trial
    lines = _run("thickness_gap_scan.py", "--trials", "60", "--seed", "0")
    assert lines[0].startswith("trials with edges: ")
    assert lines[1].startswith("  dispatcher gap 0: ")
    assert any(line.startswith("largest exact thickness seen: ") for line in lines)


def test_timetable_demo():
    lines = _run("timetable_demo.py")
    assert lines[0] == "requirement matrix (rows = classes, columns = teachers):"
    for mode in ("fewest_days", "even_spread"):
        header = [line for line in lines if line.startswith(f"== {mode}: ")]
        assert len(header) == 1 and header[0].endswith("verified=True")
    assert lines[-1].startswith("largest daily-load spread over all parties: ")


def _digest_module():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPTS / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_output_digest_is_repeatable():
    digest = _digest_module()
    first = digest.workload_digest("sparse", 101)
    assert first[:2] == (40, 40)    # 40 jobs, one part each
    assert digest.workload_digest("sparse", 101) == first


def test_timetable_output_digest_is_pinned():
    # golden: any change to a Konig, equalized or Petersen coloring, or to the
    # timetable built from it, changes this line of `output_digest.py 101`
    assert _digest_module().workload_digest("timetable", 101) == (
        112, 798, "a4fd5b7fdee851aa4d898896dde5d39da9bc090ccf90ee3c7a752a9c0d6aea25")


@pytest.mark.parametrize("name,args", [("thickness_gap_scan.py", ("--trials", "5")),
                                       ("timetable_demo.py", ()),
                                       ("output_digest.py", ("101",))])
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
