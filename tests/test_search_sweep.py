"""tools/search_sweep.py: per-seed recovery tallies of both searches."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "search_sweep.py"


def test_sweep_prints_a_line_per_seed_and_search_and_the_totals():
    done = subprocess.run([sys.executable, str(TOOL), "0", "2"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:4] for line in lines[:4]] == [
        ["proxyless", "seed", "0", "recovered"],
        ["proxy_cells", "seed", "0", "recovered"],
        ["proxyless", "seed", "1", "recovered"],
        ["proxy_cells", "seed", "1", "recovered"],
    ]
    assert lines[1].split("  edges ")[1].startswith("[0, 2, 3, 5]  test error ")
    assert lines[4:] == ["proxyless: 2/2 recovered", "proxy_cells: 2/2 recovered"]


def test_sweep_names_the_exception_a_search_raised(monkeypatch):
    spec = importlib.util.spec_from_file_location("search_sweep", TOOL)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)

    def diverges():
        raise FloatingPointError("non-finite training loss")

    monkeypatch.setitem(sweep.SEARCHES, "proxyless", lambda seed: ({0}, diverges))
    assert sweep.sweep_line("proxyless", 20) == (
        "proxyless    seed  20  FloatingPointError", False)
