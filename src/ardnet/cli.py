"""Command-line entry point.

Subcommands:

  search        per-edge architecture search on a synthetic planted-DAG task
  proxy-search  tied-cell search on a synthetic stacked-cell task
  compress      structured compression of a reference classifier on IDX data
  retrain       retrain a compressed classifier from a saved mask record
  eval          evaluate saved classifier weights on IDX data
  export        convert an architecture record to DOT (or echo the JSON)

Exit codes: 0 success, 1 invalid usage or configuration, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import engine, exports, models
from . import supergraph as sg


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="ardnet", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("--config", required=True,
                       help="JSON config file (empty file = defaults)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("search", help="per-edge search on a synthetic DAG task")
    common(p)
    p = sub.add_parser("proxy-search", help="tied-cell search on a stacked-cell task")
    common(p)

    p = sub.add_parser("compress", help="structured compression on IDX data")
    common(p)
    p.add_argument("--mode", choices=["exact", "approx-hessian"],
                   help="layer curvature mode override")
    p.add_argument("--data", required=True, help="directory with IDX files")
    p.add_argument("--net", default="lenet300-100",
                   choices=["lenet300-100", "lenet5"])

    p = sub.add_parser("retrain", help="retrain under a saved mask record")
    common(p)
    p.add_argument("--data", required=True, help="directory with IDX files")
    p.add_argument("--net", default="lenet300-100",
                   choices=["lenet300-100", "lenet5"])
    p.add_argument("--masks", required=True, help="mask record (masks.json)")
    p.add_argument("--weights", help="optional starting weights (weights.npz)")

    p = sub.add_parser("eval", help="evaluate saved weights on IDX data")
    p.add_argument("--data", required=True, help="directory with IDX files")
    p.add_argument("--net", default="lenet300-100",
                   choices=["lenet300-100", "lenet5"])
    p.add_argument("--weights", required=True, help="weights.npz to evaluate")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export", help="convert an architecture record")
    p.add_argument("--arch", required=True, help="architecture JSON to read")
    p.add_argument("--format", default="dot", choices=["dot", "json"])
    p.add_argument("--out", help="output file (default: stdout)")
    return parser


def _load_config(args):
    config = exports.parse_config(args.config)
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "mode", None) is not None:
        config.hessian_mode = "exact" if args.mode == "exact" else "approx"
    config.validate()
    return config


def _cmd_search(args):
    """search (planted-DAG task) and proxy-search (two-cell task)."""
    config = _load_config(args)
    if args.command == "search":
        graph, data, _ = data_mod.gen_synthetic_dag_task(config.seed)
        graph, run = engine.run_proxyless(graph, data, config)
    else:
        graph, data, groups, _ = data_mod.gen_two_cell_task(config.seed)
        graph, run = engine.run_proxy_cells(graph, data, config, groups)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    exports.write_metrics_csv(run.history, out_dir / "metrics.csv")
    record = exports.arch_export(graph, config)
    exports.save_json(record, out_dir / "arch.json")
    (out_dir / "graph.dot").write_text(exports.to_dot(record))
    print(f"alive edges: {len(run.report['alive_edges'])}  "
          f"test error: {run.report['final_test_error']:.4g}")
    return 0


def _cmd_compress(args):
    config = _load_config(args)
    dataset = data_mod.load_mnist_idx(args.data)
    net = models.build_model(args.net, config.seed)
    net, run = engine.run_compression(net, dataset, config,
                                      models.default_patterns(args.net))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    exports.write_metrics_csv(run.history, out_dir / "metrics.csv")
    exports.save_json(
        exports.mask_export(net, config, run.report["widths"]),
        out_dir / "masks.json",
    )
    models.save_weights(net, out_dir / "weights.npz")
    print(f"widths: {run.report['widths']}  "
          f"param ratio: {run.report['param_ratio']:.4g}  "
          f"test error: {run.report['final_test_error']:.4g}")
    return 0


def _cmd_retrain(args):
    config = _load_config(args)
    dataset = data_mod.load_mnist_idx(args.data)
    net = models.build_model(args.net, config.seed)
    if args.weights:
        models.load_weights(net, args.weights)
    masks = exports.load_mask_json(args.masks)
    weighted = [layer for layer in net if layer.weights is not None]
    if len(masks) != len(weighted):
        raise ValueError(
            f"mask record has {len(masks)} weighted layers, model has "
            f"{len(weighted)}"
        )
    for layer, (shape, mask) in zip(weighted, masks):
        if layer.weights.shape != shape:
            raise ValueError(
                f"mask shape {shape} does not match layer shape "
                f"{layer.weights.shape}"
            )
        layer.mask = mask
        layer.weights = layer.weights * mask
    run = engine.SearchRun(mode="retrain", config=config)
    err = engine.retrain_pruned(net, dataset, config, run)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    exports.write_metrics_csv(run.history, out_dir / "metrics.csv")
    models.save_weights(net, out_dir / "weights.npz")
    print(f"test error: {err:.4g}")
    return 0


def _cmd_eval(args):
    dataset = data_mod.load_mnist_idx(args.data)
    net = models.build_model(args.net, args.seed)
    models.load_weights(net, args.weights)
    err = engine.evaluate(net, dataset)
    print(f"test error: {err:.4g}")
    return 0


def _cmd_export(args):
    record = exports.load_arch_record(args.arch)
    sg.import_architecture(record)  # rejects a broken topology
    if args.format == "dot":
        text = exports.to_dot(record)
    else:
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "search": _cmd_search,
    "proxy-search": _cmd_search,
    "compress": _cmd_compress,
    "retrain": _cmd_retrain,
    "eval": _cmd_eval,
    "export": _cmd_export,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a command is required", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
