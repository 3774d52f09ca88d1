"""IDX parsing and synthetic task generation."""

import gzip
import re

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


def gzipped_idx(tmp_path):
    """A small IDX file's gzip bytes, and the path to write a damaged copy to."""
    raw = tmp_path / "plain"
    data.write_idx(raw, np.arange(200, dtype=np.uint8).reshape(10, 20))
    return gzip.compress(raw.read_bytes(), mtime=0), tmp_path / "damaged.gz"


def test_idx_truncated_gzip_names_the_file(tmp_path):
    whole, path = gzipped_idx(tmp_path)
    path.write_bytes(whole[: len(whole) // 2])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: damaged gzip stream \(Compressed file ended"):
        data.read_idx(path)


def test_idx_corrupt_deflate_stream_names_the_file(tmp_path):
    whole, path = gzipped_idx(tmp_path)
    # after the 10-byte header, a final block of the reserved type 3
    path.write_bytes(whole[:10] + b"\x07" + whole[11:])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: damaged gzip stream \(.*invalid block type"):
        data.read_idx(path)


def test_idx_gzip_crc_mismatch_names_the_file(tmp_path):
    whole, path = gzipped_idx(tmp_path)
    crc = bytes(b ^ 0xFF for b in whole[-8:-4])  # the trailer holds CRC-32, then the size
    path.write_bytes(whole[:-8] + crc + whole[-4:])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: damaged gzip stream \(CRC check failed"):
        data.read_idx(path)


def test_idx_huge_declared_size_reads_as_truncated(tmp_path):
    # 65536**4 bytes overflow int64; the header declares them over 100 data bytes
    path = tmp_path / "huge"
    header = ((0x08 << 8) | 4).to_bytes(4, "big") + (65536).to_bytes(4, "big") * 4
    path.write_bytes(header + bytes(100))
    with pytest.raises(ValueError, match=rf"truncated data, file ends at byte 120 "
                                         rf"\(expected {20 + 65536**4}\)$"):
        data.read_idx(path)


def test_idx_trailing_bytes_name_where_the_data_ends(tmp_path):
    path = tmp_path / "long"
    data.write_idx(path, np.zeros((4, 4), dtype=np.uint8))
    path.write_bytes(path.read_bytes() + b"\x00\x07")
    # 4 magic bytes, two 4-byte sizes, then 16 data bytes
    with pytest.raises(ValueError, match=r"2 trailing bytes, the data should end at byte 28$"):
        data.read_idx(path)


def test_mnist_test_images_of_another_size_are_rejected(tmp_path):
    rng = np.random.default_rng(1)
    for name, n, side in (("train", 10, 28), ("t10k", 4, 14)):
        data.write_idx(tmp_path / f"{name}-images-idx3-ubyte",
                       rng.integers(0, 256, (n, side, side), dtype=np.uint8))
        data.write_idx(tmp_path / f"{name}-labels-idx1-ubyte",
                       rng.integers(0, 10, n, dtype=np.uint8))
    with pytest.raises(ValueError, match=r"^test images are \(14, 14\) \(H, W\), "
                                         r"train images \(28, 28\)$"):
        data.load_mnist_idx(tmp_path)


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


@pytest.mark.parametrize("pixel", [0, 128])
def test_mnist_constant_train_images_rejected(tmp_path, pixel):
    # zero spread: all-zero images would standardize to 0/0, a constant
    # non-zero image to rounding noise of +-1
    data.write_idx(tmp_path / "train-images-idx3-ubyte", np.full((10, 28, 28), pixel, np.uint8))
    data.write_idx(tmp_path / "train-labels-idx1-ubyte", np.zeros(10, dtype=np.uint8))
    data.write_idx(tmp_path / "t10k-images-idx3-ubyte",
                   np.random.default_rng(1).integers(0, 256, (4, 28, 28), dtype=np.uint8))
    data.write_idx(tmp_path / "t10k-labels-idx1-ubyte", np.zeros(4, dtype=np.uint8))
    message = rf"^train images are constant \(every pixel is {pixel}\)$"
    with pytest.raises(ValueError, match=message):
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


def test_twin_task_adds_a_near_orthogonal_twin_beside_each_planted_edge():
    for seed in range(3):
        base, base_ds, base_planted = data.gen_synthetic_dag_task(seed)
        graph, ds, planted, twins = data.gen_twin_dag_task(seed)
        n = len(base.ops)
        assert planted == base_planted and sorted(twins) == sorted(planted)
        assert sorted(twins.values()) == list(range(n, n + len(planted)))
        # the task's own edges, ops and data are those of the planted-DAG task
        for e, b in zip(graph.edges[:n], base.edges):
            assert (e.src, e.dst) == (b.src, b.dst)
            assert e.op.layers[0].weights.tobytes() == b.op.layers[0].weights.tobytes()
        for name in ("x_train", "y_train", "x_test", "y_test"):
            assert getattr(ds, name).tobytes() == getattr(base_ds, name).tobytes()
        for eid, twin in twins.items():
            assert (graph.src[twin], graph.dst[twin]) == (graph.src[eid], graph.dst[eid])
            q, t = graph.ops[eid].layers[0].weights, graph.ops[twin].layers[0].weights
            np.testing.assert_allclose(t @ t.T, np.eye(len(t)), atol=1e-12)
            assert 0 < np.linalg.norm(t - q) < 0.5 * np.linalg.norm(q)
        again = data.gen_twin_dag_task(seed)[0]
        assert all(a.op.layers[0].weights.tobytes() == b.op.layers[0].weights.tobytes()
                   for a, b in zip(graph.edges[n:], again.edges[n:]))
    assert data.twin_dag_task_config(4).learning_rate == 0.005
    assert data.twin_dag_task_config(4).seed == 4
