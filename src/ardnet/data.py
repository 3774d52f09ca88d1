"""Dataset ingestion: IDX files, normalization, synthetic graph tasks."""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import supergraph as sg
from .updates import GroupSpec, SearchConfig

__all__ = [
    "Dataset",
    "read_idx",
    "write_idx",
    "load_mnist_idx",
    "gen_synthetic_dag_task",
    "gen_two_cell_task",
    "dag_task_config",
    "two_cell_task_config",
]


@dataclass
class Dataset:
    """Train/test split."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    kind: str = "labels"  # "labels" (int targets) or "regression"

    def __post_init__(self):
        if len(self.x_train) != len(self.y_train):
            raise ValueError(
                f"train count mismatch: {len(self.x_train)} inputs vs "
                f"{len(self.y_train)} targets"
            )
        if len(self.x_test) != len(self.y_test):
            raise ValueError(
                f"test count mismatch: {len(self.x_test)} inputs vs "
                f"{len(self.y_test)} targets"
            )


# ---------------------------------------------------------------------------
# IDX binary format (big-endian, unsigned-byte payload)


def _open_maybe_gzip(path):
    path = str(path)
    if path.endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def read_idx(path):
    """Parse one IDX file into a numpy array.

    Magic layout: two zero bytes, a type code (0x08 = unsigned byte), and
    the dimension count; each dimension size follows as a big-endian u32.
    """
    with _open_maybe_gzip(path) as fh:
        buf = fh.read()
    if len(buf) < 4:
        raise ValueError(f"{path}: truncated header, file ends at byte {len(buf)}")
    magic = int.from_bytes(buf[0:4], "big")
    if magic >> 8 != 0x08:
        raise ValueError(f"{path}: bad magic 0x{magic:08x} at byte 0 "
                         "(expected unsigned-byte IDX, 0x000008xx)")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(buf) < header:
        raise ValueError(f"{path}: truncated dimension table, file ends at "
                         f"byte {len(buf)} (need {header})")
    dims = [int.from_bytes(buf[4 + 4 * i : 8 + 4 * i], "big") for i in range(ndim)]
    expected = header + int(np.prod(dims))
    if len(buf) < expected:
        raise ValueError(f"{path}: truncated data, file ends at byte {len(buf)} "
                         f"(expected {expected})")
    return np.frombuffer(buf, dtype=np.uint8, offset=header,
                         count=int(np.prod(dims))).reshape(dims).copy()


def write_idx(path, array):
    """Write a uint8 array in IDX layout (round-trip partner of read_idx)."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    magic = (0x08 << 8) | array.ndim
    with open(path, "wb") as fh:
        fh.write(magic.to_bytes(4, "big"))
        for d in array.shape:
            fh.write(int(d).to_bytes(4, "big"))
        fh.write(array.tobytes())


_MNIST_FILES = {
    "x_train": "train-images-idx3-ubyte",
    "y_train": "train-labels-idx1-ubyte",
    "x_test": "t10k-images-idx3-ubyte",
    "y_test": "t10k-labels-idx1-ubyte",
}


def _find_idx_file(data_dir, stem):
    for name in (stem, stem + ".gz", stem.replace("-idx", ".idx"),
                 stem.replace("-idx", ".idx") + ".gz"):
        candidate = Path(data_dir) / name
        if candidate.exists():
            return candidate
    raise FileNotFoundError(f"no {stem}[.gz] under {data_dir}")


def load_mnist_idx(data_dir):
    """Load the four standard IDX files from a directory.

    Pixels are scaled to [0, 1] and standardized by the train-set mean/std;
    the test split reuses the train statistics.
    """
    raw = {key: read_idx(_find_idx_file(data_dir, stem))
           for key, stem in _MNIST_FILES.items()}
    for split in ("train", "test"):
        xs, ys = raw[f"x_{split}"], raw[f"y_{split}"]
        if xs.ndim != 3:
            raise ValueError(f"{split} images must be 3-d (count, H, W), got {xs.shape}")
        if ys.ndim != 1:
            raise ValueError(f"{split} labels must be 1-d, got {ys.shape}")
        if len(xs) != len(ys):
            raise ValueError(f"{split} count mismatch: {len(xs)} images vs {len(ys)} labels")
        if not len(xs):
            raise ValueError(f"{split} split has no images")
        if ys.size and ys.max() > 9:
            raise ValueError(f"{split} labels contain value {ys.max()} outside 0-9")
    x_train = raw["x_train"].astype(np.float64)[:, None] / 255.0
    x_test = raw["x_test"].astype(np.float64)[:, None] / 255.0
    mean = float(x_train.mean())
    std = float(x_train.std())
    x_train = (x_train - mean) / std
    x_test = (x_test - mean) / std
    return Dataset(x_train, raw["y_train"].astype(np.int64),
                   x_test, raw["y_test"].astype(np.int64))


# ---------------------------------------------------------------------------
# synthetic planted-subgraph regression


def dag_task_config(seed=0):
    """Search hyperparameters tuned for gen_synthetic_dag_task."""
    return SearchConfig(t_max=20, epochs_per_iteration=20, batch_size=32,
                        lambda_w=0.01, learning_rate=0.01,
                        hessian_mode="exact", retrain_epochs=0, seed=seed)


def two_cell_task_config(seed=0):
    """Search hyperparameters tuned for gen_two_cell_task."""
    return SearchConfig(t_max=20, epochs_per_iteration=20, batch_size=32,
                        lambda_w=0.02, learning_rate=0.005,
                        hessian_mode="exact", retrain_epochs=0, seed=seed)


def _orthogonal(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))  # sign fix keeps the draw unique


def _regression_data(rng, truth, dim, n_train, n_test, sigma2):
    """Standard-normal inputs; targets from the truth graph plus N(0, sigma2)
    noise."""
    x_train = rng.normal(size=(n_train, dim))
    x_test = rng.normal(size=(n_test, dim))
    noise = np.sqrt(sigma2)
    y_train = sg.graph_forward(truth, x_train)[0] + rng.normal(0, noise, (n_train, dim))
    y_test = sg.graph_forward(truth, x_test)[0] + rng.normal(0, noise, (n_test, dim))
    return Dataset(x_train, y_train, x_test, y_test, kind="regression")


def _planted_is_functional(n_nodes, edges, planted):
    """Every planted edge must lie on an input->output path inside the
    planted subgraph.  Each edge (i, j) has i < j, so ascending node id is
    a topological order."""
    sub = sorted(edges[i] for i in planted)
    fwd = sg.reach_along(sub, 0)
    bwd = sg.reach_along(sorted(((j, i) for i, j in sub), reverse=True), n_nodes - 1)
    return all(i in fwd and j in bwd for (i, j) in sub)


def gen_synthetic_dag_task(seed, n_nodes=6, n_edges=12, planted_size=3, dim=6,
                           n_train=512, n_test=256, sigma2=0.01):
    """Build a candidate DAG plus a regression set generated by a hidden
    sub-DAG.

    Ops are frozen orthogonal linear maps; targets come from running the
    graph with w = 1 on the planted edges and w = 0 elsewhere, plus
    N(0, sigma2) noise.  Returns (SuperGraph, Dataset, planted edge-id set).
    """
    rng = np.random.default_rng(seed)
    candidates = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    if n_edges > len(candidates):
        raise ValueError(f"at most {len(candidates)} edges fit on {n_nodes} nodes")
    while True:
        pick = rng.choice(len(candidates), size=n_edges, replace=False)
        pairs = sorted(candidates[i] for i in pick)
        # the full candidate graph must connect input to output
        if _planted_is_functional(n_nodes, pairs, list(range(n_edges))):
            break
    if planted_size > n_edges:
        raise ValueError("planted subset larger than the edge set")
    for _ in range(10000):
        planted = sorted(rng.choice(n_edges, size=planted_size, replace=False).tolist())
        if _planted_is_functional(n_nodes, pairs, planted):
            break
    else:
        raise ValueError("could not sample a connected planted subset")

    edges = [sg.Edge(i, j, sg.make_op("fc", matrix=_orthogonal(rng, dim)))
             for (i, j) in pairs]
    graph = sg.SuperGraph(n_nodes, edges)

    truth = sg.SuperGraph(n_nodes, edges)  # every w is 1; only the planted edges run
    truth.alive[:] = False
    truth.alive[planted] = True

    data = _regression_data(rng, truth, dim, n_train, n_test, sigma2)
    return graph, data, set(planted)


def gen_two_cell_task(seed, dim=6, n_cells=2, n_train=512, n_test=256, sigma2=0.01):
    """Stacked-cell search task with tied operation slots.

    Each cell has three candidate slots on nodes (in, a, b): in->a, in->b,
    a->b, with the same frozen orthogonal op reused in every cell.  Targets
    come from a planted per-cell slot subset (either the skip in->b or the
    chain in->a->b), identical across cells.  Gates are inserted and tied
    across corresponding cell nodes.

    Returns (graph, data, groups, planted slot set) with groups covering
    every edge (gate edges included) for the grouped search mode.
    """
    rng = np.random.default_rng(seed)
    slot_ops = [sg.make_op("fc", matrix=_orthogonal(rng, dim)) for _ in range(3)]
    # the chain through a generates the targets; the skip is the distractor.
    # A planted skip would starve both chain slots of curvature jointly
    # (each slot's Hessian scales with the other's weight), which stalls
    # the reweighting ratchet, so the planted subset is fixed to the chain.
    planted = {0, 2}

    edges, slot_of, cell_in = [], [], 0
    for cell in range(n_cells):
        a, b = 1 + 2 * cell, 2 + 2 * cell
        for slot, (src, dst) in enumerate([(cell_in, a), (cell_in, b), (a, b)]):
            edges.append(sg.Edge(src, dst, slot_ops[slot]))
            slot_of.append(slot)
        cell_in = b
    truth = sg.SuperGraph(1 + 2 * n_cells, edges)  # every w is 1; only planted slots run
    truth.alive[:] = [slot in planted for slot in slot_of]
    graph = sg.SuperGraph(1 + 2 * n_cells, edges)
    sg.insert_zero_gates(graph)

    groups = []
    for slot in range(3):
        members = [eid for eid, s in enumerate(slot_of) if s == slot]
        groups.append(GroupSpec(len(groups), members, "cell_tied"))
    # tie the gates of corresponding cell nodes; boundary nodes stay single
    a_gates = [graph.gate_map[1 + 2 * cell] for cell in range(n_cells)
               if 1 + 2 * cell in graph.gate_map]
    if a_gates:
        groups.append(GroupSpec(len(groups), a_gates, "cell_tied"))
    grouped = {eid for grp in groups for eid in grp.members.tolist()}
    for eid in range(len(graph.ops)):
        if eid not in grouped:
            groups.append(GroupSpec(len(groups), [eid], "edge_singleton"))

    data = _regression_data(rng, truth, dim, n_train, n_test, sigma2)
    return graph, data, groups, planted
