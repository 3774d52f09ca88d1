"""Artifact serialization: architecture JSON, mask JSON, DOT, metrics CSV,
and run-configuration parsing.

All writers are byte-deterministic for a fixed (config, seed, data): floats
are rendered with repr, dict keys are sorted, and no timestamps or paths
enter the payload.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import reprlib

import numpy as np

from . import supergraph as sg
from .engine import SearchRun, surviving_widths
from .updates import SearchConfig

__all__ = [
    "SCHEMA_VERSION",
    "parse_config",
    "arch_export",
    "import_architecture",
    "save_json",
    "load_arch_record",
    "mask_export",
    "load_mask_json",
    "to_dot",
    "write_metrics_csv",
    "METRICS_HEADER",
]

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# configuration


def parse_config(path, base=None):
    """Read a JSON config file into a SearchConfig: the file's keys
    override `base` (all defaults when None), so an empty file gives base.

    Unknown keys, values of the wrong JSON type (a boolean is not a number)
    and invalid values are rejected with the offending field named.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read().strip()
    payload = json.loads(text) if text else {}
    if not isinstance(payload, dict):
        raise ValueError("config file must contain a JSON object")
    known = {f.name for f in dataclasses.fields(SearchConfig)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    defaults = SearchConfig()
    for name, value in payload.items():
        want = type(getattr(defaults, name))
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if want is float else want):
            raise ValueError(f"config field {name} must be {want.__name__}, "
                             f"got {value!r}")
    config = dataclasses.replace(base or defaults, **payload)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# architecture export


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return _is_int(value) or isinstance(value, float)


# every field of a record schema -> (JSON type check, its name), or None
# for a field the loaders do not read
_INT = (_is_int, "an integer")
_FINITE = (lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v),
           "a finite number")
_BOOL = (lambda v: isinstance(v, bool), "a boolean")
_LIST = (lambda v: isinstance(v, list), "a list")
_INT_MAP = (lambda v: isinstance(v, dict) and all(map(_is_int, v.values())),
            "an object of integers")
_ARCH_FIELDS = {"schema_version": None, "n_nodes": _INT, "input_node": _INT,
                "output_node": _INT, "degenerate": _BOOL, "gate_map": _INT_MAP,
                "gate_node_of": _INT_MAP, "edges": _LIST, "provenance": None}
_ARCH_REQUIRED = ("n_nodes", "input_node", "output_node", "edges")
# one table serves the export, the field check (every field is required)
# and the rebuild
_EDGE_FIELDS = {"id": _INT, "src": _INT, "dst": _INT,
                "op": (lambda v: isinstance(v, str), "a string"), "w": _FINITE,
                "gamma": _FINITE, "s": _FINITE, "alive": _BOOL, "is_gate": _BOOL}


def _provenance(config):
    """The config hash and seed a record was written under (None without one)."""
    return {"config_hash": config.config_hash() if config is not None else None,
            "seed": config.seed if config is not None else None}


def arch_export(graph, config=None):
    """Record of a graph's topology, op tags and (w, gamma, s), plus run
    provenance (config hash and seed)."""
    columns = {"id": range(len(graph.ops)), "op": [op.tag for op in graph.ops]}
    rows = zip(*(columns[name] if name in columns else getattr(graph, name).tolist()
                 for name in _EDGE_FIELDS))
    return {
        "schema_version": SCHEMA_VERSION,
        "n_nodes": graph.n_nodes,
        "input_node": graph.input_node,
        "output_node": graph.output_node,
        "degenerate": bool(graph.degenerate or not graph.alive.any()),
        "gate_map": {str(k): v for k, v in graph.gate_map.items()},
        "gate_node_of": {str(k): v for k, v in graph.gate_node_of.items()},
        "edges": [dict(zip(_EDGE_FIELDS, row)) for row in rows],
        "provenance": _provenance(config),
    }


def import_architecture(record):
    """Rebuild a SuperGraph (topology + op tags) from an architecture record.

    Layer-backed ops come back as topology stubs: the frozen weights are
    not serialized, so the imported graph reproduces structure, not
    numerics.
    """
    edges = [sg.Edge(**{name: sg.Op(rec[name]) if name == "op" else rec[name]
                        for name in _EDGE_FIELDS if name != "id"})
             for rec in record["edges"]]
    gate_map, gate_node_of = ({int(k): v for k, v in record.get(name, {}).items()}
                              for name in ("gate_map", "gate_node_of"))
    return sg.SuperGraph(record["n_nodes"], edges, record["input_node"], record["output_node"],
                         gate_map, gate_node_of, record.get("degenerate", False))


def save_json(record, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_fields(obj, fields, required, what):
    """Reject anything but a JSON object holding every required field, no
    field outside `fields` and every field of its JSON type."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")
    missing = [name for name in required if name not in obj]
    if missing:
        raise ValueError(f"{what} is missing fields: {', '.join(missing)}")
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ValueError(f"unknown {what} fields: {', '.join(unknown)}")
    for name, kind in fields.items():
        if kind is not None and name in obj and not kind[0](obj[name]):
            raise ValueError(f"{what} field {name} must be {kind[1]}, "
                             f"got {reprlib.repr(obj[name])}")


def _load_record(path, fields, required, what):
    """Read a JSON record of this schema version.

    Fields outside the versioned schema are rejected, so records written by
    a future schema fail loudly instead of being half-read.
    """
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise ValueError(f"{what} record must be a JSON object")
    if record.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {record.get('schema_version')!r} "
            f"(expected {SCHEMA_VERSION!r})"
        )
    _check_fields(record, fields, required, what)
    return record


def load_arch_record(path):
    """Load and validate an architecture record; returns the record dict.

    The last check rebuilds its graph, so a broken topology (a cycle, a
    node or gate the graph does not have) is rejected here too.
    """
    record = _load_record(path, _ARCH_FIELDS, _ARCH_REQUIRED, "architecture")
    for pos, edge in enumerate(record["edges"]):
        _check_fields(edge, _EDGE_FIELDS, _EDGE_FIELDS, "edge")
        if edge["id"] != pos:
            raise ValueError(f"edge field id must be the edge's position {pos}, "
                             f"got {edge['id']}")
    import_architecture(record)
    return record


# ---------------------------------------------------------------------------
# mask export


def mask_export(net, config=None, widths=None):
    """Per-layer zero-mask record for a compressed layer stack."""
    layers = []
    for layer in net:
        if layer.weights is None:
            continue
        mask = layer.mask if layer.mask is not None else np.ones_like(layer.weights)
        layers.append({
            "kind": layer.kind,
            "shape": list(layer.weights.shape),
            "mask": mask.astype(int).ravel().tolist(),
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "layers": layers,
        "widths": widths if widths is not None else surviving_widths(net),
        "provenance": _provenance(config),
    }


_MASK_FIELDS = {"schema_version": None, "layers": _LIST, "widths": None,
                "provenance": None}
_MASK_LAYER_FIELDS = {
    "kind": None,
    "shape": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    "mask": (lambda v: isinstance(v, list) and all(_is_number(x) and x in (0, 1) for x in v),
             "a list of 0s and 1s"),
}


def load_mask_json(path):
    """Load a mask record; returns a list of (shape, mask array) pairs."""
    record = _load_record(path, _MASK_FIELDS, ("layers",), "mask")
    out = []
    for i, entry in enumerate(record["layers"]):
        _check_fields(entry, _MASK_LAYER_FIELDS, ("shape", "mask"), f"mask layer {i}")
        shape = tuple(entry["shape"])
        mask = np.asarray(entry["mask"], dtype=np.float64).reshape(shape)
        out.append((shape, mask))
    return out


# ---------------------------------------------------------------------------
# DOT rendering


def to_dot(record):
    """Graphviz text: alive edges solid, pruned edges dashed."""
    lines = ["digraph arch {", "  rankdir=LR;"]
    for node in range(record["n_nodes"]):
        shape = "doublecircle" if node in (record["input_node"],
                                           record["output_node"]) else "circle"
        lines.append(f'  n{node} [shape={shape}, label="{node}"];')
    for edge in record["edges"]:
        style = "solid" if edge["alive"] else "dashed"
        label = f'{edge["op"]} w={edge["w"]:.3g} g={edge["gamma"]:.3g}'
        lines.append(
            f'  n{edge["src"]} -> n{edge["dst"]} [style={style}, label="{label}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# metrics CSV


METRICS_HEADER = list(SearchRun.ROW_DEFAULTS)


def write_metrics_csv(history, path):
    """One row per recorded epoch; float cells rendered with repr for
    byte-stable output."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for row in history:
            writer.writerow([
                repr(row[key]) if isinstance(row[key], float) else row[key]
                for key in METRICS_HEADER
            ])
