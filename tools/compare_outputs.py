"""Record a source tree's search and compression outputs, or compare two records.

    python3 tools/compare_outputs.py dump SRC_ROOT OUT [--search-seeds N] [--compress-seeds N]
    python3 tools/compare_outputs.py diff A B

``dump`` imports ``ardnet`` from ``SRC_ROOT/src`` and the benchmark's
workloads from ``SRC_ROOT/perfbench``, then records as JSON in ``OUT``:

- ``run_proxyless`` and ``run_proxy_cells`` on the package's synthetic tasks
  at task seeds 0..N-1 (default 50): history, architecture export and
  report, or the text of the exception the search raised, and in either
  case the search's ``trace=`` snapshots: per iteration, the
  (w, s, omega, gamma, alive) of every edge;
- both searches again on fresh copies of the same tasks with
  ``retrain_epochs=2`` (keys ``proxyless_retrain`` and
  ``proxy_cells_retrain``): the same record, plus the digest and float64
  l2 norm of every op layer's weights and bias, per edge id;
- ``run_compression`` on the inputs of both compress workloads of the
  benchmark at seeds 0..N-1 (default 5): history, report, mask export, and
  the digest and float64 l2 norm of every weight, bias and mask array.

Floats are written with ``repr``, so a record compares bit for bit.
``diff`` prints every difference between two records and exits 1 if there
is one, 0 if there is none.  When there are differences, a summary line
counts the structural ones (a key or length, or a value that is not a
float) apart from the float-only ones, with the largest relative float
difference; before it, one line per path pattern (each index or seed
replaced by ``*``) counts the differences found there, for example
``search/*/proxyless/history/*/loss: 122 float``.  An array whose digest
changed but whose shape and dtype did not is one float difference, of its
l2 norm, so a last-bit drift reads as its relative size (0 when the norms
are equal).  A tree is dumped in its
own process, so to compare a change against its parent, dump each tree and
diff the two files.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile

# one BLAS thread, as the benchmark runs, set before numpy is imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

COMPRESS_WORKLOADS = ("compress-lenet5", "compress-fc-exact")


def _plain(value):
    """JSON-ready copy: numpy scalars and tuples to Python, arrays to a digest
    and a float64 l2 norm."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return {"array": list(arr.shape), "dtype": str(arr.dtype),
                "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
                "l2": float(np.linalg.norm(arr.ravel().astype(np.float64)))}
    if isinstance(value, np.generic):
        return value.item()
    return value


def _search_record(exports, config, search):
    """Outputs of search(config, trace), which returns (graph, run) and
    appends one snapshot per iteration to trace."""
    trace = []
    try:  # a diverging search leaves its error, as in the CLI, and no numpy warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            graph, run = search(config, trace)
    except Exception as exc:  # the record keeps what the search raised
        return {"error": f"{type(exc).__name__}: {exc}", "trace": _plain(trace)}
    record = {"history": _plain(run.history), "report": _plain(run.report),
              "export": _plain(exports.arch_export(graph, config)), "trace": _plain(trace)}
    if config.retrain_epochs:  # the op weights that retraining moved
        record["ops"] = [[{"weights": _plain(layer.weights), "bias": _plain(layer.bias)}
                          for layer in op.layers or ()] for op in graph.ops]
    return record


def _compress_record(engine, exports, task):
    net = copy.deepcopy(task.net)
    try:
        net, run = engine.run_compression(net, task.dataset, task.config, task.patterns)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    layers = [{"weights": _plain(layer.weights), "bias": _plain(layer.bias),
               "mask": _plain(layer.mask)} for layer in net]
    masks = exports.mask_export(net, task.config, run.report["widths"])
    for layer in masks["layers"]:
        layer["mask"] = _plain(np.asarray(layer["mask"]))
    return {"history": _plain(run.history), "report": _plain(run.report),
            "masks": _plain(masks), "layers": layers}


def dump(src_root, out, search_seeds, compress_seeds):
    src_root = os.path.abspath(src_root)
    sys.path[:0] = [os.path.join(src_root, "src"), src_root]
    from ardnet import data, engine, exports
    from perfbench import workloads

    record = {"search": {}, "compress": {}}
    for seed in range(search_seeds):
        runs = record["search"][str(seed)] = {}
        for suffix, changes in (("", {}), ("_retrain", {"retrain_epochs": 2})):
            # a search changes its graph, so each run takes freshly generated tasks
            graph, dataset, _ = data.gen_synthetic_dag_task(seed)
            cgraph, cdata, groups, _ = data.gen_two_cell_task(seed)
            runs["proxyless" + suffix] = _search_record(
                exports, dataclasses.replace(data.dag_task_config(seed), **changes),
                lambda cfg, trace: engine.run_proxyless(graph, dataset, cfg, trace))
            runs["proxy_cells" + suffix] = _search_record(
                exports, dataclasses.replace(data.two_cell_task_config(seed), **changes),
                lambda cfg, trace: engine.run_proxy_cells(cgraph, cdata, cfg, groups, trace))
    for name in COMPRESS_WORKLOADS:
        workload = workloads.WORKLOADS[name]
        for seed in range(compress_seeds):
            with tempfile.TemporaryDirectory() as workdir:
                (task,) = workload.setup(workload.prepare(seed), workdir)
            record["compress"][f"{name}/{seed}"] = _compress_record(engine, exports, task)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return repr(a) == repr(b)  # tells -0.0 from 0.0, and nan equals nan
    return type(a) is type(b) and a == b


def _relative(a, b):
    """Relative difference of two floats; inf when only one is finite or a nan."""
    if a == b:
        return 0.0  # 0.0 and -0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _drifted_array(a, b):
    """Two array records of one shape and dtype with different digests."""
    keys = {"array", "dtype", "sha256", "l2"}
    return (all(isinstance(r, dict) and set(r) == keys for r in (a, b))
            and (a["array"], a["dtype"]) == (b["array"], b["dtype"])
            and a["sha256"] != b["sha256"])


def differences(a, b, path=""):
    """Every path at which two records differ, as (path, text naming both
    values, relative difference when both are floats, else None)."""
    if _drifted_array(a, b):
        return [(path, f"array digest differs, l2 {a['l2']!r} != {b['l2']!r}",
                 _relative(a["l2"], b["l2"]))]
    if isinstance(a, dict) and isinstance(b, dict):
        found = []
        for key in sorted(set(a) | set(b)):
            sub = f"{path}/{key}"
            if key not in a or key not in b:
                found.append((sub, f"only in {'B' if key not in a else 'A'}", None))
            else:
                found.extend(differences(a[key], b[key], sub))
        return found
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [(path, f"length {len(a)} != {len(b)}", None)]
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in differences(x, y, f"{path}/{i}")]
    if _same(a, b):
        return []
    floats = isinstance(a, float) and isinstance(b, float)
    return [(path, f"{a!r} != {b!r}", _relative(a, b) if floats else None)]


def _pattern(path):
    """The path with every all-digit part (a list index or a seed) as *."""
    return "/".join("*" if part.isdigit() else part for part in path.split("/")[1:])


def diff(path_a, path_b):
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    found = differences(a, b)
    counts = {}  # pattern -> [structural, float], in the order first found
    for path, text, rel in found:
        print(f"{path}: {text}")
        counts.setdefault(_pattern(path), [0, 0])[rel is not None] += 1
    for pattern, (structural, floats) in counts.items():
        kinds = [f"{n} {kind}" for n, kind in ((structural, "structural"), (floats, "float")) if n]
        print(f"{pattern}: {', '.join(kinds)}")
    if found:
        drift = [rel for _, _, rel in found if rel is not None]
        print(f"{len(found) - len(drift)} structural difference(s); {len(drift)} float "
              f"difference(s), largest relative {max(drift, default=0.0):.3g}")
    print(f"{len(found)} difference(s)")
    return 1 if found else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="record a source tree's outputs")
    p_dump.add_argument("src_root")
    p_dump.add_argument("out")
    p_dump.add_argument("--search-seeds", type=int, default=50)
    p_dump.add_argument("--compress-seeds", type=int, default=5)
    p_diff = sub.add_parser("diff", help="print every difference between two records")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.src_root, args.out, args.search_seeds, args.compress_seeds)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
