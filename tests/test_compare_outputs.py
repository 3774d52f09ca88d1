"""tools/compare_outputs.py: dump a tree's outputs, diff two dumps."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_dump_diffs_clean_against_itself_and_names_a_change(tmp_path):
    dump = tmp_path / "dump.json"
    done = run_tool("dump", ROOT, dump, "--search-seeds", 2, "--compress-seeds", 1)
    assert done.returncode == 0, done.stderr
    record = json.loads(dump.read_text())
    assert sorted(record["search"]) == ["0", "1"]
    assert sorted(record["search"]["0"]) == ["proxy_cells", "proxy_cells_retrain",
                                              "proxyless", "proxyless_retrain"]
    assert sorted(record["compress"]) == ["compress-fc-exact/0", "compress-lenet5/0"]
    # every iteration's (w, s, omega, gamma, alive) of every edge, as trace= records it
    for search in ("proxy_cells", "proxyless"):
        result = record["search"]["0"][search]
        trace, edges = result["trace"], result["export"]["edges"]
        assert [snap["iteration"] for snap in trace] == list(range(1, len(trace) + 1))
        assert len(trace) == len(result["history"]) > 0
        last = trace[-1]["edges"]
        assert sorted(last, key=int) == [str(e["id"]) for e in edges]
        for e in edges:
            w, s, omega, gamma, alive = last[str(e["id"])]
            assert (w, s, gamma, alive) == (e["w"], e["s"], e["gamma"], e["alive"])
            assert isinstance(omega, float)
    # the same searches with two retrain epochs, and every op layer's arrays
    # after them, per edge id
    for search in ("proxy_cells", "proxyless"):
        assert "ops" not in record["search"]["0"][search]
        result = record["search"]["0"][search + "_retrain"]
        assert [row["epoch"] for row in result["history"] if row["iteration"] == -1] == [1, 2]
        assert len(result["ops"]) == len(result["export"]["edges"])
        layers = [layer for op in result["ops"] for layer in op]
        assert layers and all(sorted(layer) == ["bias", "weights"] for layer in layers)
        assert all(sorted(layer["weights"]) == ["array", "dtype", "l2", "sha256"]
                   for layer in layers)
    same = run_tool("diff", dump, dump)
    assert same.returncode == 0 and same.stdout.strip() == "0 difference(s)"

    record["search"]["1"]["proxyless"]["history"][0]["loss"] += 1.0
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(record))
    differ = run_tool("diff", dump, changed)
    assert differ.returncode == 1
    lines = differ.stdout.splitlines()
    assert lines[0].startswith("/search/1/proxyless/history/0/loss: ")
    loss = record["search"]["1"]["proxyless"]["history"][0]["loss"]
    assert lines[1:] == ["search/*/proxyless/history/*/loss: 1 float",
                         f"0 structural difference(s); 1 float difference(s), "
                         f"largest relative {1.0 / abs(loss):.3g}", "1 difference(s)"]

    # a drifted array: a new digest, and a norm that moved in the last bits
    drifted = json.loads(dump.read_text())
    weights = drifted["compress"]["compress-lenet5/0"]["layers"][0]["weights"]
    assert sorted(weights) == ["array", "dtype", "l2", "sha256"]
    old_l2 = weights["l2"]
    weights["sha256"], weights["l2"] = "0" * 64, old_l2 * (1.0 + 4e-15)
    changed.write_text(json.dumps(drifted))
    differ = run_tool("diff", dump, changed)
    assert differ.returncode == 1
    rel = abs(weights["l2"] - old_l2) / max(abs(weights["l2"]), abs(old_l2))
    assert 0 < rel < 1e-14
    assert differ.stdout.splitlines() == [
        f"/compress/compress-lenet5/0/layers/0/weights: array digest differs, "
        f"l2 {old_l2!r} != {weights['l2']!r}",
        "compress/compress-lenet5/*/layers/*/weights: 1 float",
        f"0 structural difference(s); 1 float difference(s), largest relative {rel:.3g}",
        "1 difference(s)"]

    del record["search"]["1"]["proxyless"]["history"][0]["loss"]
    changed.write_text(json.dumps(record))
    differ = run_tool("diff", dump, changed)
    assert differ.returncode == 1
    assert differ.stdout.splitlines()[-3:] == [
        "search/*/proxyless/history/*/loss: 1 structural",
        "1 structural difference(s); 0 float difference(s), largest relative 0",
        "1 difference(s)"]

    # one count line per path pattern, in the order the list first names it
    moved = json.loads(dump.read_text())
    for seed in ("0", "1"):
        for search in ("proxyless", "proxyless_retrain"):
            for row in moved["search"][seed][search]["history"]:
                row["loss"] *= 1.0 + 1e-15
    del moved["search"]["0"]["proxy_cells"]["history"][0]["loss"]
    moved["search"]["1"]["proxy_cells"]["history"][0]["loss"] += 1.0
    changed.write_text(json.dumps(moved))
    differ = run_tool("diff", dump, changed)
    assert differ.returncode == 1
    counts = [line for line in differ.stdout.splitlines() if not line.startswith("/")][:-2]
    runs = {(seed, search): len(record["search"][seed][search]["history"])
            for seed in ("0", "1") for search in ("proxyless", "proxyless_retrain")}
    assert counts == [
        "search/*/proxy_cells/history/*/loss: 1 structural, 1 float",
        f"search/*/proxyless/history/*/loss: {runs['0', 'proxyless'] + runs['1', 'proxyless']} "
        "float",
        "search/*/proxyless_retrain/history/*/loss: "
        f"{runs['0', 'proxyless_retrain'] + runs['1', 'proxyless_retrain']} float"]
