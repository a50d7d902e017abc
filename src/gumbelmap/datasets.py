"""Dataset and weight-artifact files.

Datasets are JSON Lines, one instance per line, with fields
num_vars, label_counts, edges, node_features, edge_features, labels,
volumes.  Every variable of an instance has the same label count, so
label_counts lists num_vars equal entries.  Unobserved labels are null.
num_vars, label_counts, edges and labels hold JSON integers only: a
fractional or boolean index is an input error at its line, never rounded.
Chain structure is recognized from the edge list; anything else loads as
a general graph.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import DatasetError, StructuralError
from .model import (
    FeatureInstance,
    PairwiseModel,
    WeightLayout,
    WeightVector,
)

_FIELDS = ("num_vars", "label_counts", "edges", "node_features",
           "edge_features", "labels", "volumes")


def instance_to_record(x: FeatureInstance) -> dict:
    labels: list = [None] * x.model.num_vars
    if x.labels is not None:
        labels = [None if int(v) < 0 else int(v) for v in x.labels]
    return {
        "num_vars": x.model.num_vars,
        "label_counts": list(x.model.label_counts),
        "edges": [list(e) for e in x.model.edges],
        "node_features": x.node_features.tolist(),
        "edge_features": x.edge_features.tolist(),
        "labels": labels,
        "volumes": x.volumes().tolist(),
    }


def record_to_instance(rec: dict, line: int | None = None) -> FeatureInstance:
    if not isinstance(rec, dict):
        raise DatasetError("record is not an object", line)
    missing = [f for f in _FIELDS if f not in rec]
    if missing:
        raise DatasetError(f"missing fields: {', '.join(missing)}", line)
    try:
        d = rec["num_vars"]
        counts = rec["label_counts"]
        edges = tuple(tuple(e) for e in rec["edges"])
        raw_labels = rec["labels"]
        for field, values, null in (
                ("num_vars", [d], False), ("label_counts", counts, False),
                ("edges", [v for e in edges for v in e], False),
                ("labels", raw_labels or [], True)):
            # bool is a subclass of int, and JSON true is no index
            if not all(type(v) is int or (null and v is None)
                       for v in values):
                raise DatasetError(f"{field} must hold integers", line)
        if len(counts) != d or len(set(counts)) != 1:
            raise DatasetError(
                f"label_counts must hold {d} equal entries", line)
        model = PairwiseModel(d, counts[0], edges)
        nf = np.asarray(rec["node_features"], dtype=np.float64)
        ef = np.asarray(rec["edge_features"], dtype=np.float64)
        for field, block, rows in (("node_features", nf, d),
                                   ("edge_features", ef, len(edges))):
            if rows and block.size == 0:
                raise DatasetError(f"{field} rows have width 0", line)
        if ef.size == 0:  # an edgeless record: an empty (0, 0) block
            ef = ef.reshape(0, 0)
        labels = None
        if raw_labels is not None:
            labels = np.array([-1 if v is None else v for v in raw_labels],
                              dtype=np.int64)
        vols = np.asarray(rec["volumes"], dtype=np.float64)
        return FeatureInstance(model, nf, ef, labels, vols)
    except DatasetError:
        raise
    except Exception as exc:
        raise DatasetError(str(exc), line) from exc


def write_dataset(path: str, instances: list[FeatureInstance]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for x in instances:
            fh.write(json.dumps(instance_to_record(x), sort_keys=True))
            fh.write("\n")


def read_dataset(path: str) -> list[FeatureInstance]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"bad JSON: {exc.msg}", lineno) from exc
            out.append(record_to_instance(rec, lineno))
    return out


def record_lines(path: str) -> list[int]:
    """The 1-based file line of each record ``read_dataset`` returns, in
    order: blank lines hold no record."""
    with open(path, "r", encoding="utf-8") as fh:
        return [lineno for lineno, raw in enumerate(fh, start=1)
                if raw.strip()]


def dataset_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Weight artifacts
# ---------------------------------------------------------------------------

_WEIGHTS_FORMAT = "gumbelmap-weights-v1"
_WEIGHT_FIELDS = ("num_labels", "node_feat_dim", "edge_feat_dim",
                  "pairwise_form", "values")


def write_weights(path: str, w: WeightVector,
                  last_iterate: WeightVector | None = None,
                  extra: dict | None = None) -> None:
    doc = {
        "format": _WEIGHTS_FORMAT,
        "num_labels": w.layout.num_labels,
        "node_feat_dim": w.layout.node_feat_dim,
        "edge_feat_dim": w.layout.edge_feat_dim,
        "pairwise_form": w.layout.pairwise_form,
        "values": w.values.tolist(),
    }
    if last_iterate is not None:
        doc["last_values"] = last_iterate.values.tolist()
    if extra:
        doc["extra"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def read_weights(path: str) -> WeightVector:
    """A weight artifact.  Anything but a JSON object of this format with
    a valid layout (integer dimensions, a known pairwise form) and a list
    of finite numbers matching it is an input error naming the file;
    non-finite values (NaN, infinities, JSON null) are rejected here,
    before they reach any potential."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: bad JSON: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _WEIGHTS_FORMAT:
        raise DatasetError(f"not a {_WEIGHTS_FORMAT} file: {path}")
    missing = [f for f in _WEIGHT_FIELDS if f not in doc]
    if missing:
        raise DatasetError(f"{path}: missing fields: {', '.join(missing)}")
    dims = [doc[f] for f in _WEIGHT_FIELDS[:3]]
    if not all(type(v) is int for v in dims):
        raise DatasetError(f"{path}: layout dimensions must be integers")
    raw = doc["values"]
    # JSON null is let through to be reported as not finite below
    if not isinstance(raw, list) or not all(
            v is None or type(v) in (int, float) for v in raw):
        raise DatasetError(f"{path}: values must be a list of numbers")
    try:
        values = np.asarray(raw, dtype=np.float64)
    except OverflowError as exc:
        raise DatasetError(f"{path}: a weight is beyond float range") from exc
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DatasetError(f"{path}: weight {int(bad[0])} is not finite "
                           f"({raw[bad[0]]!r})")
    try:
        return WeightVector(values, WeightLayout(*dims, doc["pairwise_form"]))
    except StructuralError as exc:
        raise DatasetError(f"{path}: {exc}") from exc
