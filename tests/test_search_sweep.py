"""tools/search_sweep.py: per-seed recovery tallies of both searches."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from ardnet import supergraph as sg

TOOL = Path(__file__).resolve().parent.parent / "tools" / "search_sweep.py"


def sweep(lo, hi):
    done = subprocess.run([sys.executable, str(TOOL), str(lo), str(hi)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done


def load_tool():
    spec = importlib.util.spec_from_file_location("search_sweep", TOOL)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_sweep_prints_a_line_per_seed_and_search_and_the_totals():
    lines = sweep(0, 2).stdout.splitlines()
    assert [line.split()[:4] for line in lines[:6]] == [
        ["proxyless", "seed", "0", "recovered"],
        ["proxy_cells", "seed", "0", "recovered"],
        ["twin_dag", "seed", "0", "twins"],
        ["proxyless", "seed", "1", "recovered"],
        ["proxy_cells", "seed", "1", "recovered"],
        ["twin_dag", "seed", "1", "recovered"],
    ]
    assert lines[1].split("  edges ")[1].startswith("[0, 2, 3, 5]  test error ")
    # seed 0's twin search keeps its planted edges 2, 9 and 11 and the twins
    # 13 and 14 of edges 9 and 11
    assert lines[2].split("  edges ")[1].startswith("[2, 9, 11, 13, 14]  test error ")
    assert lines[4].split("  edges ")[1].startswith("[0, 2, 3, 5]  test error ")
    assert lines[6:] == ["proxyless: 2/2 recovered", "proxy_cells: 2/2 recovered",
                         "twin_dag: 1/2 recovered"]


def test_sweep_prints_no_numpy_warning_for_a_diverging_seed():
    # the twin search at seed 8 overflows in the graph's forward walk
    done = sweep(8, 9)
    assert done.stdout.splitlines()[2] == "twin_dag     seed   8  FloatingPointError"
    assert "RuntimeWarning" not in done.stderr


def test_sweep_names_the_exception_a_search_raised(monkeypatch):
    sweep = load_tool()

    def diverges():
        raise FloatingPointError("non-finite training loss")

    monkeypatch.setitem(sweep.SEARCHES, "proxyless", lambda seed: ({0}, {}, diverges))
    assert sweep.sweep_line("proxyless", 20) == (
        "proxyless    seed  20  FloatingPointError", False)


def test_twin_outcomes_are_counted_apart():
    sweep = load_tool()
    planted, twins = {2, 9}, {2: 12, 9: 13}
    assert [sweep._status(alive, planted, twins, False) for alive in (
        {2, 9}, {2, 9, 13}, {2, 13}, {12, 13}, {2}, {2, 9, 5}, {2, 13, 5})] == [
        "recovered", "twins", "swapped", "swapped", "missed", "missed", "missed"]
    assert sweep._status({2, 9}, planted, twins, True) == "stopped"
    assert sweep._status({2, 9, 5}, planted, {}, False) == "missed"


def test_twin_recovery_needs_the_edge_curvature(monkeypatch):
    # without curvature every omega update sees a flat energy, and the twin
    # task's searches keep the twins (or diverge, which counts as a miss)
    sweep = load_tool()

    def recovered():
        return sum(sweep.sweep_line("twin_dag", seed)[1] for seed in range(10))

    with_curvature = recovered()
    monkeypatch.setattr(sg, "arch_scalar_hessian",
                        lambda graph, gcache, h_seed: np.zeros(len(graph.ops)))
    assert with_curvature >= recovered() + 5
