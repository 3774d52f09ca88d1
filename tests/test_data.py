"""IDX parsing and synthetic task generation."""

import gzip

import numpy as np
import pytest

from ardnet import data
from ardnet import supergraph as sg


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.integers(0, 256, (5, 7, 3), dtype=np.uint8)
    path = tmp_path / "sample-idx3-ubyte"
    data.write_idx(path, arr)
    back = data.read_idx(path)
    assert np.array_equal(arr, back)


def test_idx_gzip_round_trip(tmp_path):
    arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
    raw = tmp_path / "plain"
    data.write_idx(raw, arr)
    gz = tmp_path / "sample.gz"
    gz.write_bytes(gzip.compress(raw.read_bytes()))
    assert np.array_equal(data.read_idx(gz), arr)


def test_idx_truncated_names_byte_offset(tmp_path):
    arr = np.zeros((4, 4), dtype=np.uint8)
    path = tmp_path / "trunc"
    data.write_idx(path, arr)
    whole = path.read_bytes()
    path.write_bytes(whole[:-5])
    with pytest.raises(ValueError, match=r"byte \d+"):
        data.read_idx(path)


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"\x00\x00\x0d\x02" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        data.read_idx(path)


def test_mnist_label_range_checked(tmp_path):
    rng = np.random.default_rng(1)
    data.write_idx(tmp_path / "train-images-idx3-ubyte",
                   rng.integers(0, 256, (10, 28, 28), dtype=np.uint8))
    data.write_idx(tmp_path / "train-labels-idx1-ubyte",
                   np.full(10, 11, dtype=np.uint8))
    data.write_idx(tmp_path / "t10k-images-idx3-ubyte",
                   rng.integers(0, 256, (4, 28, 28), dtype=np.uint8))
    data.write_idx(tmp_path / "t10k-labels-idx1-ubyte",
                   np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError, match="outside 0-9"):
        data.load_mnist_idx(tmp_path)


def test_mnist_shapes_and_standardization(tmp_path):
    rng = np.random.default_rng(2)
    data.write_idx(tmp_path / "train-images-idx3-ubyte",
                   rng.integers(0, 256, (10, 28, 28), dtype=np.uint8))
    data.write_idx(tmp_path / "train-labels-idx1-ubyte",
                   rng.integers(0, 10, 10).astype(np.uint8))
    data.write_idx(tmp_path / "t10k-images-idx3-ubyte",
                   rng.integers(0, 256, (4, 28, 28), dtype=np.uint8))
    data.write_idx(tmp_path / "t10k-labels-idx1-ubyte",
                   rng.integers(0, 10, 4).astype(np.uint8))
    ds = data.load_mnist_idx(tmp_path)
    assert ds.x_train.shape == (10, 1, 28, 28)
    assert ds.y_train.shape == (10,)
    assert abs(ds.x_train.mean()) < 1e-10  # train-stat standardization
    assert ds.x_train.std() == pytest.approx(1.0)


def test_dataset_count_mismatch():
    with pytest.raises(ValueError, match="count mismatch"):
        data.Dataset(np.zeros((3, 2)), np.zeros(2), np.zeros((1, 2)), np.zeros(1))


def test_synthetic_task_deterministic():
    g1, d1, p1 = data.gen_synthetic_dag_task(0, n_train=32, n_test=16)
    g2, d2, p2 = data.gen_synthetic_dag_task(0, n_train=32, n_test=16)
    assert p1 == p2
    assert np.array_equal(d1.x_train, d2.x_train)
    assert np.array_equal(d1.y_train, d2.y_train)
    for e1, e2 in zip(g1.edges, g2.edges):
        assert (e1.src, e1.dst) == (e2.src, e2.dst)
        assert np.array_equal(e1.op.layers[0].weights, e2.op.layers[0].weights)


def test_synthetic_planted_subgraph_reproduces_noiseless_targets():
    graph, ds, planted = data.gen_synthetic_dag_task(1, n_train=32, n_test=16,
                                                     sigma2=1e-30)
    for eid in range(len(graph.ops)):
        graph.w[eid] = 1.0 if eid in planted else 0.0
        graph.alive[eid] = eid in planted
    out, _ = sg.graph_forward(graph, ds.x_train)
    assert np.max(np.abs(out - ds.y_train)) < 1e-12


def test_synthetic_planted_edges_are_functional():
    for seed in range(5):
        graph, _, planted = data.gen_synthetic_dag_task(seed, n_train=8, n_test=4)
        graph.alive[:] = False
        graph.alive[sorted(planted)] = True
        fwd, bwd = sg.reachable_nodes(graph), sg.reachable_nodes(graph, reverse=True)
        assert all(graph.src[eid] in fwd and graph.dst[eid] in bwd for eid in planted)


def test_two_cell_task_groups_partition_edges():
    graph, ds, groups, planted = data.gen_two_cell_task(0, n_train=16, n_test=8)
    seen = sorted(eid for grp in groups for eid in grp.members.tolist())
    assert seen == list(range(len(graph.edges)))
    assert planted == {0, 2}
    # the three slots are tied across the two cells
    slot_groups = [grp for grp in groups if grp.pattern == "cell_tied"
                   and len(grp.members) == 2]
    assert len(slot_groups) >= 3
