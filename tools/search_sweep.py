"""Count how often each search recovers its planted architecture.

    python3 tools/search_sweep.py LO HI

For task seeds LO..HI-1, runs ``run_proxyless`` on ``gen_synthetic_dag_task``
with ``dag_task_config`` and ``run_proxy_cells`` on ``gen_two_cell_task``
with ``two_cell_task_config``, using the ``ardnet`` of this source tree.  One
line per seed and search: whether the alive non-gate edges are exactly the
planted ones (a graph that fell apart and had its widest path restored does
not count), those edges and the final test error; or the name of the
exception the search raised.  The last two lines give the total per search.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# one BLAS thread, as the benchmark runs, set before numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ardnet import data, engine  # noqa: E402


def _proxyless(seed):
    graph, dataset, planted = data.gen_synthetic_dag_task(seed)
    return planted, lambda: engine.run_proxyless(graph, dataset, data.dag_task_config(seed))


def _proxy_cells(seed):
    graph, dataset, groups, slots = data.gen_two_cell_task(seed)
    # group g < 3 ties slot g across the cells
    planted = {eid for slot in slots for eid in groups[slot].members.tolist()}
    return planted, lambda: engine.run_proxy_cells(
        graph, dataset, data.two_cell_task_config(seed), groups)


SEARCHES = {"proxyless": _proxyless, "proxy_cells": _proxy_cells}


def sweep_line(name, seed):
    """(line for one search at one task seed, whether it recovered the plant)."""
    planted, search = SEARCHES[name](seed)
    try:
        graph, run = search()
    except Exception as exc:  # a failed search is a tally, not a crash
        return f"{name:<12} seed {seed:>3}  {type(exc).__name__}", False
    alive = sorted(eid for eid in run.report["alive_edges"] if not graph.edges[eid].is_gate)
    ok = set(alive) == planted and not graph.degenerate
    status = "recovered" if ok else "restored" if graph.degenerate else "missed"
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
