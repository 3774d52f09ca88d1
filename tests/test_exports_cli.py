"""Artifact serialization and the command-line interface."""

import dataclasses
import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ardnet import data, exports, models, nn
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


FLOAT_FIELDS = ["lambda_w", "weight_decay", "learning_rate", "momentum",
                "omega_floor", "s_cap", "prune_threshold"]


def test_every_float_field_is_checked_for_finiteness():
    assert sorted(f.name for f in dataclasses.fields(SearchConfig)
                  if f.type == "float") == sorted(FLOAT_FIELDS)


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_config_rejects_a_non_finite_float(tmp_path, name, value):
    # Python's json reads these spellings as floats
    path = tmp_path / "c.json"
    path.write_text(f'{{"{name}": {value}}}')
    with pytest.raises(ValueError, match=f"^config field {name} must be finite$"):
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
    assert data.two_cell_task_config(0).config_hash() == "aaa84c0c7846d34c"
    assert models.mnist_compression_config("lenet5", 0).config_hash() == "56d8a36654d357a5"


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
    g2 = exports.import_architecture(exports.load_arch_record(path))
    assert exports.arch_export(g2) == exports.arch_export(g)


def test_arch_json_empty_graph(tmp_path):
    g = sg.SuperGraph(1, [])
    record = exports.arch_export(g)
    assert record["edges"] == []
    path = tmp_path / "arch.json"
    exports.save_json(record, path)
    exports.load_arch_record(path)


def test_arch_json_unknown_field_rejected(tmp_path):
    record = exports.arch_export(make_graph())
    record["surprise"] = 1
    path = tmp_path / "arch.json"
    exports.save_json(record, path)
    with pytest.raises(ValueError, match="surprise"):
        exports.load_arch_record(path)


def test_arch_json_wrong_schema_version_rejected(tmp_path):
    record = exports.arch_export(make_graph())
    record["schema_version"] = "2"
    path = tmp_path / "arch.json"
    exports.save_json(record, path)
    with pytest.raises(ValueError, match="schema version"):
        exports.load_arch_record(path)


def test_records_name_a_missing_field(tmp_path):
    path = tmp_path / "rec.json"
    record = exports.arch_export(make_graph())
    del record["edges"][0]["dst"]
    exports.save_json(record, path)
    with pytest.raises(ValueError, match="dst"):
        exports.load_arch_record(path)
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


@pytest.mark.parametrize("path, value, message", [
    (("output_node",), 99, "error: output_node 99 is not a node"),
    (("input_node",), -5, "error: input_node -5 is not a node"),
    (("gate_map",), {"1": 999}, "error: gate_map entry 1: 999 is not a gate edge"),
    (("edges", 0, "id"), 7, "error: edge field id must be the edge's position 0"),
    (("edges", 1, "w"), float("nan"), "error: edge field w must be a finite number"),
    (("edges", 0, "is_gate"), True, "entry per is_gate edge"),
], ids=["output-node", "input-node", "gate-edge", "edge-id", "nan-w", "extra-gate"])
def test_cli_export_rejects_a_record_naming_what_its_graph_lacks(tmp_path, path, value, message):
    record = exports.arch_export(make_graph())
    *keys, field = path
    target = record
    for key in keys:
        target = target[key]
    target[field] = value
    rec_path = tmp_path / "arch.json"
    exports.save_json(record, rec_path)
    res = run_cli("export", "--arch", str(rec_path))
    assert res.returncode == 1
    assert message in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""


def test_load_arch_record_rejects_a_cycle_on_its_own(tmp_path):
    record = exports.arch_export(make_graph())
    record["edges"][1]["dst"] = 1  # aux node 3 -> 1 closes 1 -> 3 -> 1
    path = tmp_path / "arch.json"
    exports.save_json(record, path)
    with pytest.raises(ValueError, match="cycle"):
        exports.load_arch_record(path)


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
    g.alive[1] = False
    text = exports.to_dot(exports.arch_export(g))
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


@pytest.mark.parametrize("command", ["search", "proxy-search"])
def test_cli_empty_config_runs_the_tuned_search(tmp_path, command):
    # an empty file means the command's tuned task config: the defaults
    # alone diverge on the planted-DAG task
    cfg = tmp_path / "empty.json"
    cfg.write_text("")
    archs = []
    for name in ("r1", "r2"):
        res = run_cli(command, "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / name))
        assert res.returncode == 0, res.stderr
        archs.append((tmp_path / name / "arch.json").read_bytes())
    assert archs[0] == archs[1]
    tuned = data.dag_task_config(0) if command == "search" else data.two_cell_task_config(0)
    assert json.loads(archs[0])["provenance"]["config_hash"] == tuned.config_hash()


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


@pytest.mark.parametrize("command", ["search", "proxy-search"])
def test_cli_negative_seed_names_its_field(tmp_path, command):
    # a negative seed used to reach numpy, whose error named no field
    cfg = tmp_path / "seed.json"
    cfg.write_text('{"seed": -3}')
    for args in (("--config", str(cfg)), ("--config", str(write_search_config(tmp_path)),
                                          "--seed", "-1")):
        res = run_cli(command, *args, "--out", str(tmp_path / "x"))
        assert res.returncode == 1
        assert res.stderr == "error: config field seed must be >= 0\n"
        assert not (tmp_path / "x").exists()


def test_cli_non_finite_config_exits_one(tmp_path):
    # a NaN prune threshold used to run, prune nothing and exit 0
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"prune_threshold": NaN}')
    res = run_cli("search", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert res.returncode == 1
    assert "error: config field prune_threshold must be finite" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "x").exists()


def test_cli_missing_data_exits_two(tmp_path):
    cfg = write_search_config(tmp_path)
    res = run_cli("compress", "--config", str(cfg), "--data",
                  str(tmp_path / "nope"), "--out", str(tmp_path / "x"))
    assert res.returncode == 2


# learning rates at which these DAG tasks overflow in a training step
OVERFLOWING_LEARNING_RATE = {20: 0.5, 26: 0.09}


def test_cli_diverging_search_prints_its_one_error_line_and_no_warning(tmp_path):
    # seed 20 at a large learning rate overflows in the graph's forward walk
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": OVERFLOWING_LEARNING_RATE[20]}))
    res = run_cli("search", "--config", str(cfg), "--seed", "20", "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert res.stderr == "error: non-finite output of edge 3 (fc)\n"


def test_cli_search_stopped_on_a_severing_prune_says_so(tmp_path):
    # a prune threshold above every gamma makes the first prune sever the
    # graph: the search rolls it back and stops; the run still exits 0, and
    # its summary line names the stop
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"prune_threshold": 1e9}')
    out = tmp_path / "x"
    res = run_cli("proxy-search", "--config", str(cfg), "--seed", "10", "--out", str(out))
    assert res.returncode == 0
    assert res.stdout.endswith("  stopped: a prune would have severed the graph\n")
    assert json.loads((out / "arch.json").read_text())["degenerate"] is True


@pytest.mark.parametrize("seed, eid", [(20, 3), (26, 8)])
def test_cli_search_that_overflows_names_the_edge(tmp_path, seed, eid):
    # at these learning rates the DAG tasks overflow in a training step: the
    # generated loop names the same edge as the walk that graph_forward runs,
    # and the run exits 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": OVERFLOWING_LEARNING_RATE[seed]}))
    res = run_cli("search", "--config", str(cfg), "--seed", str(seed),
                  "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert res.stderr == f"error: non-finite output of edge {eid} (fc)\n"


def write_idx_set(directory, n_train=64, n_test=32):
    """A small random 28x28 IDX data set: by default 64 training and 32 test
    images."""
    rng = np.random.default_rng(0)
    for name, n in (("train", n_train), ("t10k", n_test)):
        data.write_idx(directory / f"{name}-images-idx3-ubyte",
                       rng.integers(0, 256, (n, 28, 28)))
        data.write_idx(directory / f"{name}-labels-idx1-ubyte", rng.integers(0, 10, n))


def test_cli_compress_that_severs_the_network_exits_two(tmp_path):
    write_idx_set(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"prune_threshold": 1e9, "t_max": 1}')
    res = run_cli("compress", "--config", str(cfg), "--data", str(tmp_path),
                  "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "error: network severed" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_retrain_reports_the_groups_its_compression_left(tmp_path):
    write_idx_set(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"t_max": 3, "retrain_epochs": 1, "prune_threshold": 0.3}')
    common = ("--config", str(cfg), "--data", str(tmp_path))
    res = run_cli("compress", *common, "--out", str(tmp_path / "c"))
    assert res.returncode == 0, res.stderr
    res = run_cli("retrain", *common, "--masks", str(tmp_path / "c" / "masks.json"),
                  "--out", str(tmp_path / "r"))
    assert res.returncode == 0, res.stderr
    alive = []
    for name in ("c", "r"):
        lines = (tmp_path / name / "metrics.csv").read_text().splitlines()
        column = lines[0].split(",").index("alive_edges")
        alive.append(lines[-1].split(",")[column])  # the last retrain row
    total = (300 + 784) + (100 + 300) + 100  # the row and column groups, pruned or not
    assert alive[0] == alive[1] and 0 < int(alive[1]) < total


@pytest.mark.parametrize("payload, name", [
    ('{"batch_size": -4}', "batch_size"),
    ('{"batch_size": 0}', "batch_size"),
    ('{"curvature_batch": 0}', "curvature_batch"),
    ('{"retrain_epochs": -1}', "retrain_epochs"),
])
def test_cli_compress_rejects_impossible_batch_settings(tmp_path, payload, name):
    write_idx_set(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(payload)
    res = run_cli("compress", "--config", str(cfg), "--data", str(tmp_path),
                  "--net", "lenet300-100", "--out", str(tmp_path / "run"))
    assert res.returncode == 1
    assert f"error: config field {name} must be" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "run").exists()


def test_cli_retrain_rejects_a_mask_that_is_not_binary(tmp_path):
    # a 0.5 mask would shrink every weight once per step, since each
    # masked step multiplies the weights by it
    write_idx_set(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("")
    record = exports.mask_export(models.build_model("lenet300-100", 0))
    record["layers"][1]["mask"] = [0.5 * v for v in record["layers"][1]["mask"]]
    exports.save_json(record, tmp_path / "masks.json")
    res = run_cli("retrain", "--config", str(cfg), "--data", str(tmp_path),
                  "--masks", str(tmp_path / "masks.json"), "--out", str(tmp_path / "run"))
    assert res.returncode == 1
    assert "error: mask layer 1 field mask must be a list of 0s and 1s" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("mask", [np.full((100, 300), 0.5), np.ones((100, 1))],
                         ids=["half", "broadcast-shape"])
def test_cli_eval_rejects_weights_whose_mask_is_not_binary(tmp_path, mask):
    write_idx_set(tmp_path)
    net = models.build_model("lenet300-100", 0)
    net[2].mask = mask
    models.save_weights(net, tmp_path / "weights.npz")
    res = run_cli("eval", "--data", str(tmp_path), "--weights", str(tmp_path / "weights.npz"))
    assert res.returncode == 1
    assert "error: layer 2 mask is not 0s and 1s of its weights' shape" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("split", ["train", "test"])
@pytest.mark.parametrize("command", ["compress", "retrain", "eval"])
def test_cli_split_without_images_exits_one(tmp_path, command, split):
    write_idx_set(tmp_path, **{f"n_{split}": 0})
    cfg = tmp_path / "cfg.json"
    cfg.write_text("")
    net = models.build_model("lenet300-100", 0)
    models.save_weights(net, tmp_path / "weights.npz")
    exports.save_json(exports.mask_export(net), tmp_path / "masks.json")
    extra = {"compress": ("--config", str(cfg), "--out", str(tmp_path / "run")),
             "retrain": ("--config", str(cfg), "--out", str(tmp_path / "run"),
                         "--masks", str(tmp_path / "masks.json")),
             "eval": ("--weights", str(tmp_path / "weights.npz"))}[command]
    res = run_cli(command, "--data", str(tmp_path), *extra)
    assert res.returncode == 1
    assert f"error: {split} split has no images" in res.stderr
    assert "Traceback" not in res.stderr


def test_cli_compress_rejects_constant_train_images(tmp_path):
    write_idx_set(tmp_path)
    data.write_idx(tmp_path / "train-images-idx3-ubyte", np.zeros((64, 28, 28), np.uint8))
    cfg = tmp_path / "cfg.json"
    cfg.write_text("")
    res = run_cli("compress", "--config", str(cfg), "--data", str(tmp_path),
                  "--net", "lenet300-100", "--out", str(tmp_path / "x"))
    assert res.returncode == 1
    assert res.stderr == "error: train images are constant (every pixel is 0)\n"


@pytest.mark.parametrize("bias", [np.zeros(1), np.zeros((300, 300))],
                         ids=["broadcast-shape", "matrix"])
def test_cli_eval_rejects_a_bias_of_the_wrong_shape(tmp_path, bias):
    write_idx_set(tmp_path)
    net = models.build_model("lenet300-100", 0)
    net[1].bias = bias
    models.save_weights(net, tmp_path / "weights.npz")
    res = run_cli("eval", "--data", str(tmp_path), "--weights", str(tmp_path / "weights.npz"))
    assert res.returncode == 1
    assert (f"error: layer 1 bias shape mismatch: file has {bias.shape}, model has (300,)"
            in res.stderr)
    assert "Traceback" not in res.stderr


def test_cli_eval_takes_no_seed(tmp_path):
    # the file holds every weight and bias, so a model seed would set nothing
    write_idx_set(tmp_path)
    models.save_weights(models.build_model("lenet300-100", 3), tmp_path / "weights.npz")
    args = ("eval", "--data", str(tmp_path), "--weights", str(tmp_path / "weights.npz"))
    assert run_cli(*args).returncode == 0
    res = run_cli(*args, "--seed", "3")
    assert res.returncode == 1
    assert "unrecognized arguments: --seed 3" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("defect, message", [
    ("drop b1", "error: weight file is missing the bias of layer 1"),
    ("add w9", "error: weight file key 'w9' matches no layer of the model"),
    ("add b0", "error: weight file key 'b0' matches no layer of the model"),
], ids=["missing-bias", "unknown-layer", "flatten-bias"])
@pytest.mark.parametrize("command", ["eval", "retrain"])
def test_cli_rejects_a_weight_file_of_another_network(tmp_path, command, defect, message):
    write_idx_set(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("")
    net = models.build_model("lenet300-100", 0)
    models.save_weights(net, tmp_path / "full.npz")
    exports.save_json(exports.mask_export(net), tmp_path / "masks.json")
    with np.load(tmp_path / "full.npz") as full:
        arrays = dict(full)
    action, key = defect.split()
    if action == "drop":
        del arrays[key]
    else:
        arrays[key] = np.zeros(3)
    np.savez(tmp_path / "weights.npz", **arrays)
    extra = {"eval": (),
             "retrain": ("--config", str(cfg), "--out", str(tmp_path / "run"),
                         "--masks", str(tmp_path / "masks.json"))}[command]
    res = run_cli(command, "--data", str(tmp_path),
                  "--weights", str(tmp_path / "weights.npz"), *extra)
    assert res.returncode == 1
    assert message in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["compress", "retrain", "eval"])
def test_cli_damaged_gzip_idx_file_exits_one(tmp_path, command):
    # a truncated gzip stream in place of the test labels
    write_idx_set(tmp_path)
    plain = tmp_path / "t10k-labels-idx1-ubyte"
    damaged = tmp_path / "t10k-labels-idx1-ubyte.gz"
    whole = gzip.compress(plain.read_bytes())
    damaged.write_bytes(whole[: len(whole) // 2])
    plain.unlink()
    cfg = tmp_path / "cfg.json"
    cfg.write_text("")
    extra = {"compress": ("--config", str(cfg), "--out", str(tmp_path / "run")),
             "retrain": ("--config", str(cfg), "--out", str(tmp_path / "run"),
                         "--masks", str(tmp_path / "masks.json")),
             "eval": ("--weights", str(tmp_path / "weights.npz"))}[command]
    res = run_cli(command, "--data", str(tmp_path), *extra)
    assert res.returncode == 1
    assert res.stderr.startswith(f"error: {damaged}: damaged gzip stream (")
    assert res.stderr.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["eval", "retrain"])
def test_cli_truncated_weight_file_exits_one(tmp_path, command):
    write_idx_set(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("")
    net = models.build_model("lenet300-100", 0)
    models.save_weights(net, tmp_path / "full.npz")
    exports.save_json(exports.mask_export(net), tmp_path / "masks.json")
    whole = (tmp_path / "full.npz").read_bytes()
    weights = tmp_path / "weights.npz"
    weights.write_bytes(whole[: len(whole) // 2])
    extra = {"eval": (),
             "retrain": ("--config", str(cfg), "--out", str(tmp_path / "run"),
                         "--masks", str(tmp_path / "masks.json"))}[command]
    res = run_cli(command, "--data", str(tmp_path), "--weights", str(weights), *extra)
    assert res.returncode == 1
    assert res.stderr == f"error: {weights}: not a readable weight file (File is not a zip file)\n"
    assert not (tmp_path / "run").exists()


def test_cli_compress_mode_sets_the_curvature_mode(tmp_path):
    # --mode reaches the config that the run records: the tuned LeNet-300-100
    # config with hessian_mode set, as masks.json's provenance hashes it
    write_idx_set(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_max": 0, "retrain_epochs": 0}))
    for mode, hessian_mode in (("exact", "exact"), ("approx-hessian", "approx")):
        out = tmp_path / mode
        res = run_cli("compress", "--config", str(cfg), "--data", str(tmp_path),
                      "--mode", mode, "--out", str(out))
        assert res.returncode == 0, res.stderr
        expected = dataclasses.replace(models.mnist_compression_config("lenet300-100"),
                                       t_max=0, retrain_epochs=0, hessian_mode=hessian_mode)
        record = json.loads((out / "masks.json").read_text())
        assert record["provenance"]["config_hash"] == expected.config_hash()


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
