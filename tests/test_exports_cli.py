"""Artifact serialization and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ardnet import data, exports, nn
from ardnet import supergraph as sg
from ardnet.updates import SearchConfig


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "ardnet.cli", *argv],
                          capture_output=True, text=True, env=env)


# ---------------------------------------------------------------------------
# config parsing


def test_empty_config_file_gives_defaults(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("")
    assert exports.parse_config(path) == SearchConfig()


def test_config_known_keys_applied(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"lambda_w": 0.01, "seed": 3}')
    cfg = exports.parse_config(path)
    assert cfg.lambda_w == 0.01
    assert cfg.seed == 3


def test_config_unknown_keys_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"lamda_w": 0.01}')
    with pytest.raises(ValueError, match="lamda_w"):
        exports.parse_config(path)


def test_config_invalid_value_names_field(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"lambda_w": -1}')
    with pytest.raises(ValueError, match="lambda_w"):
        exports.parse_config(path)


@pytest.mark.parametrize("payload, name", [
    ('{"t_max": "a"}', "t_max"),
    ('{"t_max": 2.5}', "t_max"),
    ('{"lambda_w": true}', "lambda_w"),
    ('{"hessian_mode": null}', "hessian_mode"),
])
def test_config_wrong_type_names_field(tmp_path, payload, name):
    path = tmp_path / "c.json"
    path.write_text(payload)
    with pytest.raises(ValueError, match=name):
        exports.parse_config(path)


def test_config_accepts_an_integer_for_a_float_field(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"lambda_w": 1}')
    assert exports.parse_config(path).lambda_w == 1


def test_int_and_float_spellings_share_one_config_hash(tmp_path):
    assert SearchConfig(lambda_w=1).config_hash() == SearchConfig(lambda_w=1.0).config_hash()
    hashes = set()
    for text in ('{"lambda_w": 1}', '{"lambda_w": 1.0}'):
        path = tmp_path / "c.json"
        path.write_text(text)
        hashes.add(exports.parse_config(path).config_hash())
    assert len(hashes) == 1
    # configurations written with floats keep their hashes
    assert SearchConfig().config_hash() == "3e5bebc4c415873f"
    assert data.dag_task_config(0).config_hash() == "13058cff8eb1379e"


# ---------------------------------------------------------------------------
# architecture JSON


def make_graph():
    g = sg.SuperGraph(3, [sg.Edge(0, 1, sg.make_op("identity")),
                          sg.Edge(1, 2, sg.make_op("identity"))])
    sg.insert_zero_gates(g)
    return g


def test_arch_json_round_trip(tmp_path):
    g = make_graph()
    record = exports.arch_export(g, SearchConfig())
    path = tmp_path / "arch.json"
    exports.save_json(record, path)
    g2 = exports.load_arch_json(path)
    assert sg.export_architecture(g2) == sg.export_architecture(g)


def test_arch_json_empty_graph(tmp_path):
    g = sg.SuperGraph(1, [])
    record = exports.arch_export(g)
    assert record["edges"] == []
    path = tmp_path / "arch.json"
    exports.save_json(record, path)
    exports.load_arch_json(path)


def test_arch_json_unknown_field_rejected(tmp_path):
    record = exports.arch_export(make_graph())
    record["surprise"] = 1
    path = tmp_path / "arch.json"
    exports.save_json(record, path)
    with pytest.raises(ValueError, match="surprise"):
        exports.load_arch_json(path)


def test_arch_json_wrong_schema_version_rejected(tmp_path):
    record = exports.arch_export(make_graph())
    record["schema_version"] = "2"
    path = tmp_path / "arch.json"
    exports.save_json(record, path)
    with pytest.raises(ValueError, match="schema version"):
        exports.load_arch_json(path)


def test_records_name_a_missing_field(tmp_path):
    path = tmp_path / "rec.json"
    record = exports.arch_export(make_graph())
    del record["edges"][0]["dst"]
    exports.save_json(record, path)
    with pytest.raises(ValueError, match="dst"):
        exports.load_arch_json(path)
    record = exports.mask_export([nn.fc_layer(2, 3)])
    del record["layers"][0]["shape"]
    exports.save_json(record, path)
    with pytest.raises(ValueError, match="shape"):
        exports.load_mask_json(path)
    path.write_text('["not", "an", "object"]')
    with pytest.raises(ValueError, match="JSON object"):
        exports.load_mask_json(path)


@pytest.mark.parametrize("kind, path, value", [
    ("arch", ("edges",), 5),
    ("arch", ("n_nodes",), "a"),
    ("arch", ("edges", 0, "src"), "x"),
    ("mask", ("layers",), 5),
    ("mask", ("layers", 0, "shape"), 3),
], ids=["arch-edges-int", "arch-n_nodes-str", "arch-src-str", "mask-layers-int",
        "mask-shape-int"])
def test_wrong_typed_record_field_is_named_without_traceback(tmp_path, kind, path, value):
    if kind == "arch":
        record = exports.arch_export(make_graph())
    else:
        record = exports.mask_export([nn.fc_layer(2, 3)])
    *keys, name = path
    target = record
    for key in keys:
        target = target[key]
    target[name] = value
    rec_path = tmp_path / "rec.json"
    exports.save_json(record, rec_path)
    if kind == "mask":
        with pytest.raises(ValueError, match=name):
            exports.load_mask_json(rec_path)
        return
    res = run_cli("export", "--arch", str(rec_path))
    assert res.returncode == 1
    assert "error:" in res.stderr and name in res.stderr
    assert "Traceback" not in res.stderr


def test_arch_provenance_carries_config_hash():
    cfg = SearchConfig(seed=5)
    record = exports.arch_export(make_graph(), cfg)
    assert record["provenance"]["config_hash"] == cfg.config_hash()
    assert record["provenance"]["seed"] == 5


# ---------------------------------------------------------------------------
# masks, DOT, CSV


def test_mask_export_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    net = [nn.fc_layer(4, 3, rng=rng)]
    net[0].mask = np.ones((3, 4))
    net[0].mask[0, 0] = 0.0
    record = exports.mask_export(net, SearchConfig())
    path = tmp_path / "masks.json"
    exports.save_json(record, path)
    [(shape, mask)] = exports.load_mask_json(path)
    assert shape == (3, 4)
    assert np.array_equal(mask, net[0].mask)


def test_dot_styles_alive_and_pruned_edges():
    g = make_graph()
    g.edges[1].alive = False
    text = exports.to_dot(sg.export_architecture(g))
    assert text.startswith("digraph")
    assert "style=solid" in text and "style=dashed" in text


def test_metrics_csv_header_and_rows(tmp_path):
    history = [
        {"iteration": 1, "epoch": 1, "loss": 0.5, "test_error": 0.25,
         "alive_edges": 7, "gamma_min": 0.1, "gamma_median": 0.4,
         "entropy_pruned": 1, "cascade_pruned": 0},
    ]
    path = tmp_path / "metrics.csv"
    exports.write_metrics_csv(history, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(exports.METRICS_HEADER)
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "1"


# ---------------------------------------------------------------------------
# CLI


def write_search_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "t_max": 3, "epochs_per_iteration": 3, "learning_rate": 0.01,
        "hessian_mode": "exact", "retrain_epochs": 0,
    }))
    return path


def test_cli_search_writes_artifacts(tmp_path):
    cfg = write_search_config(tmp_path)
    out = tmp_path / "run"
    res = run_cli("search", "--config", str(cfg), "--seed", "0",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert (out / "arch.json").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "graph.dot").exists()


def test_cli_runs_are_byte_identical(tmp_path):
    cfg = write_search_config(tmp_path)
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        res = run_cli("search", "--config", str(cfg), "--seed", "0",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        outs.append(out)
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    assert (outs[0] / "arch.json").read_bytes() == (outs[1] / "arch.json").read_bytes()


def test_cli_missing_config_exits_one(tmp_path):
    res = run_cli("search", "--seed", "0", "--out", str(tmp_path / "x"))
    assert res.returncode == 1
    assert "config" in res.stderr


def test_cli_unknown_command_exits_one():
    res = run_cli("frobnicate")
    assert res.returncode == 1
    assert "usage" in res.stderr


def test_cli_no_command_exits_one():
    res = run_cli()
    assert res.returncode == 1
    assert "usage" in res.stderr


def test_cli_bad_config_exits_one(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"t_max": -1}')
    res = run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert res.returncode == 1
    assert "t_max" in res.stderr


def test_cli_missing_data_exits_two(tmp_path):
    cfg = write_search_config(tmp_path)
    res = run_cli("compress", "--config", str(cfg), "--data",
                  str(tmp_path / "nope"), "--out", str(tmp_path / "x"))
    assert res.returncode == 2


def test_cli_compress_that_severs_the_network_exits_two(tmp_path):
    rng = np.random.default_rng(0)
    for name, n in (("train", 64), ("t10k", 32)):
        data.write_idx(tmp_path / f"{name}-images-idx3-ubyte",
                       rng.integers(0, 256, (n, 28, 28)))
        data.write_idx(tmp_path / f"{name}-labels-idx1-ubyte", rng.integers(0, 10, n))
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"prune_threshold": 1e9, "t_max": 1}')
    res = run_cli("compress", "--config", str(cfg), "--data", str(tmp_path),
                  "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "error: network severed" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_export_dot(tmp_path):
    cfg = write_search_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("search", "--config", str(cfg), "--seed", "0",
                   "--out", str(out)).returncode == 0
    res = run_cli("export", "--arch", str(out / "arch.json"), "--format", "dot")
    assert res.returncode == 0
    assert res.stdout.startswith("digraph")


@pytest.mark.parametrize("command, extra", [
    ("search", ()),
    ("proxy-search", ()),
    ("retrain", ("--data", "idx", "--masks", "masks.json")),
], ids=["search", "proxy-search", "retrain"])
def test_cli_mode_is_a_compress_option_only(tmp_path, command, extra):
    cfg = write_search_config(tmp_path)
    res = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "run"),
                  *extra, "--mode", "exact")
    assert res.returncode == 1
    assert "error: unrecognized arguments: --mode exact" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, text", [
    ("export", "[]"),
    ("export", '{"schema_version": "1"}'),
    ("search", '{"t_max": "a"}'),
], ids=["arch-not-an-object", "arch-without-edges", "config-wrong-type"])
def test_cli_malformed_input_exits_one_without_traceback(tmp_path, command, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    if command == "export":
        res = run_cli("export", "--arch", str(path))
    else:
        res = run_cli("search", "--config", str(path), "--out", str(tmp_path / "x"))
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr
