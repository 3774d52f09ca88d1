"""tools/search_sweep.py: per-seed recovery tallies of both searches."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "search_sweep.py"


def sweep(lo, hi):
    done = subprocess.run([sys.executable, str(TOOL), str(lo), str(hi)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done


def test_sweep_prints_a_line_per_seed_and_search_and_the_totals():
    lines = sweep(0, 2).stdout.splitlines()
    assert [line.split()[:4] for line in lines[:4]] == [
        ["proxyless", "seed", "0", "recovered"],
        ["proxy_cells", "seed", "0", "recovered"],
        ["proxyless", "seed", "1", "recovered"],
        ["proxy_cells", "seed", "1", "missed"],
    ]
    assert lines[1].split("  edges ")[1].startswith("[0, 2, 3, 5]  test error ")
    assert lines[3].split("  edges ")[1].startswith("[1, 4]  test error ")
    assert lines[4:] == ["proxyless: 2/2 recovered", "proxy_cells: 1/2 recovered"]


def test_sweep_prints_no_numpy_warning_for_a_diverging_seed():
    # the DAG search at seed 20 overflows in the graph's forward walk
    done = sweep(20, 21)
    assert done.stdout.splitlines()[0] == "proxyless    seed  20  FloatingPointError"
    assert "RuntimeWarning" not in done.stderr


def test_sweep_names_the_exception_a_search_raised(monkeypatch):
    spec = importlib.util.spec_from_file_location("search_sweep", TOOL)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)

    def diverges():
        raise FloatingPointError("non-finite training loss")

    monkeypatch.setitem(sweep.SEARCHES, "proxyless", lambda seed: ({0}, diverges))
    assert sweep.sweep_line("proxyless", 20) == (
        "proxyless    seed  20  FloatingPointError", False)
