"""Dataset and weight-artifact files.

Datasets are JSON Lines, one instance per line, with fields
num_vars, label_counts, edges, node_features, edge_features, labels,
volumes.  Every variable of an instance has the same label count, so
label_counts lists num_vars equal entries.  Unobserved labels are null.
Chain structure is recognized from the edge list; anything else loads as
a general graph.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .errors import DatasetError
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
        d = int(rec["num_vars"])
        counts = [int(k) for k in rec["label_counts"]]
        if len(counts) != d or len(set(counts)) != 1:
            raise DatasetError(
                f"label_counts must hold {d} equal entries", line)
        edges = tuple(tuple(int(v) for v in e) for e in rec["edges"])
        model = PairwiseModel(d, counts[0], edges)
        nf = np.asarray(rec["node_features"], dtype=np.float64)
        if nf.size == 0:
            nf = nf.reshape(d, 0)
        ef = np.asarray(rec["edge_features"], dtype=np.float64)
        if ef.size == 0:
            ef = ef.reshape(len(edges), ef.shape[-1] if ef.ndim == 2 else 0)
        raw_labels = rec["labels"]
        labels = None
        if raw_labels is not None:
            labels = np.array([-1 if v is None else int(v)
                               for v in raw_labels], dtype=np.int64)
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
    """A weight artifact; non-finite values (NaN, infinities, JSON null)
    are rejected here, before they reach any potential."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != _WEIGHTS_FORMAT:
        raise DatasetError(f"not a {_WEIGHTS_FORMAT} file: {path}")
    layout = WeightLayout(doc["num_labels"], doc["node_feat_dim"],
                          doc["edge_feat_dim"], doc["pairwise_form"])
    values = np.asarray(doc["values"], dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DatasetError(f"{path}: weight {int(bad[0])} is not finite "
                           f"({doc['values'][bad[0]]!r})")
    return WeightVector(values, layout)
