"""Time two source trees on one benchmark workload, alternating in one process.

    python3 tools/ab_time.py PARENT_ROOT CHANGE_ROOT --workload W [--reps N] [--seed S]

Each tree's ``src/ardnet`` is imported under its own package name, and the
tree's ``perfbench/workloads.py`` against that package, so both trees run in
this one process.  Each tree builds the workload's inputs at ``--seed`` with
its own ``prepare`` and ``setup``, as ``tools/compare_outputs.py`` does;
then the two trees' ``run`` calls alternate sample by sample, the order
flipping every sample, each sample cycling through the workload's tasks.
It prints each tree's minimum and median engine-call time, in how many
pairs (the two trees' samples of one task) the change was faster, and
whether the two trees' output digests agree on every sample.

It is a diagnostic: samples alternated inside one process see the same
host state, which helps to find where a difference comes from.  Gains and
regressions are read from ``perfbench/run.py``'s parent/change pairs.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import pkgutil
import statistics
import sys
import tempfile

# one BLAS thread, as the benchmark runs, set before numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def load_workloads(root, tag):
    """The workloads module of the tree at `root`, bound to that tree's
    package, which is imported as `tag` (its modules as `tag`.nn, ...)."""
    pkg_dir = os.path.join(root, "src", "ardnet")
    spec = importlib.util.spec_from_file_location(
        tag, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[tag] = package
    spec.loader.exec_module(package)
    for info in pkgutil.iter_modules([pkg_dir]):
        importlib.import_module(f"{tag}.{info.name}")
    name = f"{tag}_workloads"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[name] = workloads
    # workloads.py imports `ardnet`: while it loads, that name is this tree's
    saved = sys.modules.get("ardnet")
    sys.modules["ardnet"] = package
    try:
        spec.loader.exec_module(workloads)
    finally:
        if saved is None:
            del sys.modules["ardnet"]
        else:
            sys.modules["ardnet"] = saved
    return workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root")
    parser.add_argument("change_root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--reps", type=int, default=20, help="samples per tree")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    roots = {"parent": os.path.abspath(args.parent_root),
             "change": os.path.abspath(args.change_root)}
    runs = {}
    for side, root in roots.items():
        workload = load_workloads(root, f"ardnet_{side}").WORKLOADS.get(args.workload)
        if workload is None:
            parser.error(f"unknown workload {args.workload!r} in {root}")
        with tempfile.TemporaryDirectory() as workdir:
            tasks = workload.setup(workload.prepare(args.seed), workdir)
        runs[side] = (workload, tasks)
    times = {side: [] for side in roots}
    digests = {side: [] for side in roots}
    for rep in range(args.reps):
        order = list(roots) if rep % 2 == 0 else list(reversed(roots))
        for side in order:
            workload, tasks = runs[side]
            sample = workload.run(tasks[rep % len(tasks)])
            if not sample.ok:
                print(f"{side} sample {rep} failed: {sample.error}", file=sys.stderr)
                return 2
            times[side].append(sample.wall_s)
            digests[side].append(sample.digest)
    print(f"{args.workload} seed {args.seed}: {args.reps} samples per tree, alternating")
    for side, root in roots.items():
        print(f"{side:6} min {min(times[side]):.4f} s  median "
              f"{statistics.median(times[side]):.4f} s  ({root})")
    ratio = statistics.median(times["change"]) / statistics.median(times["parent"]) - 1.0
    faster = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"median change/parent: {100.0 * ratio:+.1f}%; change faster in "
          f"{faster} of {args.reps} pairs")
    differ = sum(a != b for a, b in zip(digests["parent"], digests["change"]))
    print(f"outputs agree: {'yes' if not differ else 'no'} "
          f"({differ} of {args.reps} sample digests differ)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
