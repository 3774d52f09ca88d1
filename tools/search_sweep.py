"""Count how often each search recovers its planted architecture.

    python3 tools/search_sweep.py LO HI

For task seeds LO..HI-1, runs ``run_proxyless`` on ``gen_synthetic_dag_task``
with ``dag_task_config``, ``run_proxy_cells`` on ``gen_two_cell_task`` with
``two_cell_task_config``, and ``run_proxyless`` on ``gen_twin_dag_task`` with
``twin_dag_task_config``, using the ``ardnet`` of this source tree.  One line
per seed and search: ``recovered`` when the alive non-gate edges are exactly
the planted ones, ``stopped`` when the search stopped on a prune that would
have severed the graph; on the twin task, when every alive edge is a planted
edge or its twin and each pair keeps one, ``twins`` if some pair kept both
and ``swapped`` if a twin stands in for its planted edge; else ``missed``.
Then those edges and the test error of the model the search returns (its
``final_test_error``, the last history row's).  A search that raised gets
the name of its exception instead, and, as in the CLI, no numpy warning
lines.  The last three lines give the total per search.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# one BLAS thread, as the benchmark runs, set before numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from ardnet import data, engine  # noqa: E402


def _proxyless(seed):
    graph, dataset, planted = data.gen_synthetic_dag_task(seed)
    return planted, {}, lambda: engine.run_proxyless(graph, dataset, data.dag_task_config(seed))


def _proxy_cells(seed):
    graph, dataset, groups, slots = data.gen_two_cell_task(seed)
    # group g < 3 ties slot g across the cells
    planted = {eid for slot in slots for eid in groups[slot].members.tolist()}
    return planted, {}, lambda: engine.run_proxy_cells(
        graph, dataset, data.two_cell_task_config(seed), groups)


def _twin_dag(seed):
    graph, dataset, planted, twins = data.gen_twin_dag_task(seed)
    return planted, twins, lambda: engine.run_proxyless(
        graph, dataset, data.twin_dag_task_config(seed))


SEARCHES = {"proxyless": _proxyless, "proxy_cells": _proxy_cells, "twin_dag": _twin_dag}


def _status(alive, planted, twins, degenerate):
    if degenerate:
        return "stopped"
    if alive == planted:
        return "recovered"
    pairs = [(eid in alive, twin in alive) for eid, twin in twins.items()]
    if pairs and all(map(any, pairs)) and alive <= planted | set(twins.values()):
        return "twins" if any(map(all, pairs)) else "swapped"
    return "missed"


def sweep_line(name, seed):
    """(line for one search at one task seed, whether it recovered the plant)."""
    planted, twins, search = SEARCHES[name](seed)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            graph, run = search()
    except Exception as exc:  # a failed search is a tally, not a crash
        return f"{name:<12} seed {seed:>3}  {type(exc).__name__}", False
    alive = sorted(eid for eid in run.report["alive_edges"] if not graph.edges[eid].is_gate)
    status = _status(set(alive), planted, twins, graph.degenerate)
    ok = status == "recovered"
    return (f"{name:<12} seed {seed:>3}  {status:<9}  edges {alive}  "
            f"test error {run.report['final_test_error']:.4g}"), ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("lo", type=int, help="first task seed")
    parser.add_argument("hi", type=int, help="one past the last task seed")
    args = parser.parse_args(argv)
    seeds = range(args.lo, args.hi)
    hits = dict.fromkeys(SEARCHES, 0)
    for seed in seeds:
        for name in SEARCHES:
            line, ok = sweep_line(name, seed)
            hits[name] += ok
            print(line, flush=True)
    for name, count in hits.items():
        print(f"{name}: {count}/{len(seeds)} recovered")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
