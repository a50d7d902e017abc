"""Core data types: graph structure, potentials, weights, losses.

A pairwise model assigns the score

    f(y) = sum_d u_d(y_d) + sum_e p_e(y_i, y_j)

to each joint labeling ``y`` of ``D`` discrete variables, each taking a
label from the same set of ``K`` labels: unary tables are (D, K) and
pairwise tables (E, K, K).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInstanceError, StructuralError

Labeling = np.ndarray  # int array of shape (D,)

PAIRWISE_FULL = "full"
PAIRWISE_POTTS = "potts"


# ---------------------------------------------------------------------------
# Graph structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairwiseModel:
    """Variable count, the label count shared by every variable, and the
    edge list.

    Edges are unordered pairs ``(i, j)`` with ``i < j``, sorted and
    duplicate-free.  ``is_chain`` is derived from them: true exactly
    when the edges are ``{(d, d+1)}``, the structure the chain solver
    (Viterbi and forward-backward) needs.
    """

    num_vars: int
    num_labels: int
    edges: tuple[tuple[int, int], ...]
    is_chain: bool = field(init=False, repr=False, compare=False)
    _edge_arr: np.ndarray = field(init=False, repr=False, compare=False)
    # edge endpoints, and the flat offsets of each variable's unary row
    # and each edge's pairwise table, that evaluate_potential gathers with
    _edge_i: np.ndarray = field(init=False, repr=False, compare=False)
    _edge_j: np.ndarray = field(init=False, repr=False, compare=False)
    _unary_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _pair_offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.num_vars < 1:
            raise StructuralError("num_vars must be >= 1")
        if self.num_labels < 2:
            raise StructuralError("num_labels must be >= 2")
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < j < self.num_vars):
                raise StructuralError(f"bad edge ({i}, {j})")
            if (i, j) in seen:
                raise StructuralError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        if list(self.edges) != sorted(self.edges):
            raise StructuralError("edge list must be sorted")
        chain = tuple((d, d + 1) for d in range(self.num_vars - 1))
        object.__setattr__(self, "is_chain", self.edges == chain)
        if self.edges:
            ea = np.asarray(self.edges, dtype=np.int64)
        else:
            ea = np.zeros((0, 2), dtype=np.int64)
        object.__setattr__(self, "_edge_arr", ea)
        object.__setattr__(self, "_edge_i", ea[:, 0].copy())
        object.__setattr__(self, "_edge_j", ea[:, 1].copy())
        k = self.num_labels
        object.__setattr__(self, "_unary_offsets",
                           np.arange(self.num_vars) * k)
        object.__setattr__(self, "_pair_offsets",
                           np.arange(len(self.edges)) * (k * k))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def label_counts(self) -> tuple[int, ...]:
        """The label count of each variable, as the dataset file lists it."""
        return (self.num_labels,) * self.num_vars

    @property
    def is_binary(self) -> bool:
        return self.num_labels == 2

    def edge_array(self) -> np.ndarray:
        """Edges as an (E, 2) int array (empty -> shape (0, 2))."""
        return self._edge_arr


def chain_model(num_vars: int, num_labels: int) -> PairwiseModel:
    edges = tuple((d, d + 1) for d in range(num_vars - 1))
    return PairwiseModel(num_vars, num_labels, edges)


def grid_model(rows: int, cols: int, num_labels: int = 2) -> PairwiseModel:
    """4-connected rows x cols lattice, variables in row-major order."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            d = r * cols + c
            if c + 1 < cols:
                edges.append((d, d + 1))
            if r + 1 < rows:
                edges.append((d, d + cols))
    edges.sort()
    return PairwiseModel(rows * cols, num_labels, tuple(edges))


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledPotentials:
    """Numeric tables realizing f(y) for one instance.

    ``unary`` has shape (D, K); ``pairwise`` has shape (E, K, K).
    """

    model: PairwiseModel
    unary: np.ndarray
    pairwise: np.ndarray

    def __post_init__(self):
        k = self.model.num_labels
        if self.unary.shape != (self.model.num_vars, k):
            raise StructuralError(
                f"unary shape {self.unary.shape} != {(self.model.num_vars, k)}")
        if self.pairwise.shape != (self.model.num_edges, k, k):
            raise StructuralError(
                f"pairwise shape {self.pairwise.shape} != "
                f"{(self.model.num_edges, k, k)}")

    def with_unary(self, unary: np.ndarray) -> "CompiledPotentials":
        return CompiledPotentials(self.model, unary, self.pairwise)


def zero_potentials(model: PairwiseModel) -> CompiledPotentials:
    k = model.num_labels
    return CompiledPotentials(model, np.zeros((model.num_vars, k)),
                              np.zeros((model.num_edges, k, k)))


def check_labeling(model: PairwiseModel, y: np.ndarray) -> np.ndarray:
    """``y`` as an int64 array, checked once: a (D,) labeling or an (n, D)
    block of labelings, every label in range.  A bad block raises the
    error its first bad row would raise alone."""
    y = np.asarray(y, dtype=np.int64)
    d = model.num_vars
    if y.ndim not in (1, 2) or y.shape[-1] != d:
        raise StructuralError(f"labeling shape {y.shape} != ({d},) or (n, {d})")
    # as unsigned, a negative label is out of range too
    if np.count_nonzero(y.view(np.uint64) >= model.num_labels):
        bad = int(np.flatnonzero((y < 0) | (y >= model.num_labels))[0])
        raise StructuralError(
            f"label {y.flat[bad]} out of range at variable {bad % d}")
    return y


def evaluate_potential(p: CompiledPotentials,
                       y: np.ndarray) -> float | np.ndarray:
    """f(y): a float for a (D,) labeling, an (n,) array for an (n, D)
    block, one value per row.

    Every value is summed in one fixed order, from 0.0: variables
    ascending, then edges ascending.  Both shapes share the kernel, so a
    row of a block gives the bits of the labeling alone, and repeated
    evaluations are bit-identical."""
    model = p.model
    y = check_labeling(model, y)
    block = y.reshape(-1, model.num_vars)
    k = model.num_labels
    pair_cells = (block.take(model._edge_i, axis=1) * k
                  + block.take(model._edge_j, axis=1) + model._pair_offsets)
    terms = np.concatenate((np.zeros((block.shape[0], 1)),
                            p.unary.take(block + model._unary_offsets),
                            p.pairwise.take(pair_cells)), axis=1)
    # a running sum adds strictly left to right (``sum`` adds pairwise)
    vals = np.add.accumulate(terms, axis=1)[:, -1]
    return float(vals[0]) if y.ndim == 1 else vals


# ---------------------------------------------------------------------------
# Weights and the linear feature parameterization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightLayout:
    """Block layout of the learnable weight vector.

    Unary weights are one row of length ``node_feat_dim`` per label.  The
    pairwise block is either one row per ordered label pair (``full``) or a
    single row applied to disagreeing label pairs (``potts``).
    """

    num_labels: int
    node_feat_dim: int
    edge_feat_dim: int
    pairwise_form: str = PAIRWISE_FULL

    def __post_init__(self):
        if self.pairwise_form not in (PAIRWISE_FULL, PAIRWISE_POTTS):
            raise StructuralError(f"unknown pairwise_form {self.pairwise_form!r}")
        if self.num_labels < 2 or self.node_feat_dim < 1 or self.edge_feat_dim < 1:
            raise StructuralError("layout dimensions out of range")

    @property
    def unary_size(self) -> int:
        return self.num_labels * self.node_feat_dim

    @property
    def pairwise_size(self) -> int:
        if self.pairwise_form == PAIRWISE_POTTS:
            return self.edge_feat_dim
        return self.num_labels * self.num_labels * self.edge_feat_dim

    @property
    def total_size(self) -> int:
        return self.unary_size + self.pairwise_size


@dataclass
class WeightVector:
    """A flat weight vector with designated unary and pairwise blocks."""

    values: np.ndarray
    layout: WeightLayout

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.layout.total_size,):
            raise StructuralError(
                f"weight length {self.values.shape} != ({self.layout.total_size},)")

    @property
    def unary_block(self) -> slice:
        return slice(0, self.layout.unary_size)

    @property
    def pairwise_block(self) -> slice:
        return slice(self.layout.unary_size, self.layout.total_size)

    def unary_weights(self) -> np.ndarray:
        """(K, Fn) view."""
        return self.values[self.unary_block].reshape(
            self.layout.num_labels, self.layout.node_feat_dim)

    def pairwise_weights(self) -> np.ndarray:
        """(K, K, Fe) view for 'full', (Fe,) view for 'potts'."""
        block = self.values[self.pairwise_block]
        if self.layout.pairwise_form == PAIRWISE_POTTS:
            return block
        k = self.layout.num_labels
        return block.reshape(k, k, self.layout.edge_feat_dim)

    def copy(self) -> "WeightVector":
        return WeightVector(self.values.copy(), self.layout)


def zero_weights(layout: WeightLayout) -> WeightVector:
    return WeightVector(np.zeros(layout.total_size), layout)


@dataclass(frozen=True)
class FeatureInstance:
    """One data point: structure, features, and (possibly partial) labels.

    ``labels`` entries use -1 for unobserved variables.  ``node_volumes``
    are the finite positive per-variable sizes used by volume-balanced
    weights.  Features must be finite.
    """

    model: PairwiseModel
    node_features: np.ndarray  # (D, Fn)
    edge_features: np.ndarray  # (E, Fe)
    labels: np.ndarray | None = None  # (D,) int, -1 = unobserved
    node_volumes: np.ndarray | None = None  # (D,) positive

    def __post_init__(self):
        d, e = self.model.num_vars, self.model.num_edges
        if self.node_features.ndim != 2 or self.node_features.shape[0] != d:
            raise StructuralError("node_features must be (D, Fn)")
        if self.edge_features.ndim != 2 or self.edge_features.shape[0] != e:
            raise StructuralError("edge_features must be (E, Fe)")
        if not (np.all(np.isfinite(self.node_features))
                and np.all(np.isfinite(self.edge_features))):
            raise StructuralError("features must be finite")
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (d,):
                raise StructuralError("labels must be length D")
            bad = (lab < -1) | (lab >= self.model.num_labels)
            if bad.any():
                i = int(np.argmax(bad))
                raise StructuralError(f"label {lab[i]} out of range at {i}")
            object.__setattr__(self, "labels", lab)
        if self.node_volumes is not None:
            vol = np.asarray(self.node_volumes, dtype=np.float64)
            if vol.shape != (d,):
                raise StructuralError("node_volumes must be length D")
            if not np.all(np.isfinite(vol) & (vol > 0)):
                raise StructuralError("node volumes must be finite and positive")
            object.__setattr__(self, "node_volumes", vol)

    @property
    def fully_labeled(self) -> bool:
        return self.labels is not None and bool(np.all(self.labels >= 0))

    @property
    def partially_labeled(self) -> bool:
        return self.labels is not None and bool(np.any(self.labels >= 0)) \
            and not self.fully_labeled

    def volumes(self) -> np.ndarray:
        if self.node_volumes is None:
            return np.ones(self.model.num_vars)
        return self.node_volumes

    def given_labels(self) -> dict[int, int]:
        """Observed (variable -> label) pairs."""
        if self.labels is None:
            return {}
        return {d: int(k) for d, k in enumerate(self.labels) if k >= 0}


def _check_layout_compat(layout: WeightLayout, x: FeatureInstance) -> None:
    if x.node_features.shape[1] != layout.node_feat_dim:
        raise StructuralError(
            f"node feature dim {x.node_features.shape[1]} != {layout.node_feat_dim}")
    if x.model.num_edges and x.edge_features.shape[1] != layout.edge_feat_dim:
        raise StructuralError(
            f"edge feature dim {x.edge_features.shape[1]} != {layout.edge_feat_dim}")
    if x.model.num_labels > layout.num_labels:
        raise StructuralError(
            f"instance needs {x.model.num_labels} labels, layout has "
            f"{layout.num_labels}")


def compile_potentials(w: WeightVector, x: FeatureInstance) -> CompiledPotentials:
    """u_d(k) = <w_unary[k], node_features[d]>;
    p_e(k,l) = <w_pair[k,l], edge_features[e]> (full) or
    [k != l] * <w_pair, edge_features[e]> (potts)."""
    _check_layout_compat(w.layout, x)
    model = x.model
    k = model.num_labels
    unary = x.node_features @ w.unary_weights()[:k].T  # (D, K)
    unary = np.ascontiguousarray(unary, dtype=np.float64)
    e = model.num_edges
    if e == 0:
        pairwise = np.zeros((0, k, k))
    elif w.layout.pairwise_form == PAIRWISE_POTTS:
        strength = x.edge_features @ w.pairwise_weights()  # (E,)
        pairwise = np.zeros((e, k, k))
        off = ~np.eye(k, dtype=bool)
        pairwise[:, off] = strength[:, None]
    else:
        wp = w.pairwise_weights()[:k, :k]  # (K, K, Fe)
        pairwise = np.einsum("klf,ef->ekl", wp, x.edge_features)
        pairwise = np.ascontiguousarray(pairwise, dtype=np.float64)
    return CompiledPotentials(model, unary, pairwise)


def feature_map(x: FeatureInstance, y: np.ndarray,
                layout: WeightLayout) -> np.ndarray:
    """The structured feature vector, the gradient of f(y|x) with respect
    to w: an (F,) vector for a (D,) labeling, an (n, F) array for an
    (n, D) block, one row per labeling.

    Each entry is summed from 0.0 in one fixed order: node features in
    variable order, edge features in edge order.  Both shapes share the
    kernel, so a row of a block gives the bits of the labeling alone.  The
    potts entry follows that order too (it was a pairwise ``sum``); with
    integer edge features, as every synthetic dataset has, both orders
    give the same exact sums."""
    _check_layout_compat(layout, x)
    y = check_labeling(x.model, y)
    block = y.reshape(-1, x.model.num_vars)
    n = block.shape[0]
    rows = np.arange(n)[:, None]
    k, fe = layout.num_labels, layout.edge_feat_dim
    # np.add.at adds in index order: row by row, then along the row
    unary = np.zeros((n, k, layout.node_feat_dim))
    np.add.at(unary, (rows, block), x.node_features)
    potts = layout.pairwise_form == PAIRWISE_POTTS
    pair = np.zeros((n, fe) if potts else (n, k, k, fe))
    if x.model.num_edges:
        yi = block.take(x.model._edge_i, axis=1)
        yj = block.take(x.model._edge_j, axis=1)
        if potts:
            r, e = np.nonzero(yi != yj)
            np.add.at(pair, r, x.edge_features[e])
        else:
            np.add.at(pair, (rows, yi, yj), x.edge_features)
    psi = np.concatenate((unary.reshape(n, -1), pair.reshape(n, -1)), axis=1)
    return psi[0] if y.ndim == 1 else psi


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

ZERO_ONE = "zero_one"
HAMMING = "hamming"
WEIGHTED_HAMMING = "weighted_hamming"

VOLUME_BALANCED = "volume_balanced"


@dataclass(frozen=True)
class LossSpec:
    """Loss selector.  For weighted Hamming, ``weight_rule`` is either the
    string 'volume_balanced' or an explicit (D, K) table of weights."""

    kind: str
    weight_rule: object = None

    def __post_init__(self):
        if self.kind not in (ZERO_ONE, HAMMING, WEIGHTED_HAMMING):
            raise StructuralError(f"unknown loss kind {self.kind!r}")
        if self.kind == WEIGHTED_HAMMING:
            if self.weight_rule is None:
                raise StructuralError("weighted_hamming requires a weight_rule")
        elif self.weight_rule is not None:
            raise StructuralError("weight_rule only valid for weighted_hamming")


def volume_weights(y_true: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """Volume-balanced per-variable weights for binary ground truth:

        theta_d = V_d / (2 V_fg)  if y_d = 1,   V_d / (2 V_bg)  if y_d = 0.

    A one-sided ground truth raises DegenerateInstanceError.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    volumes = np.asarray(volumes, dtype=np.float64)
    if np.any((y_true != 0) & (y_true != 1)):
        raise StructuralError("volume-balanced weights require binary labels")
    v_fg = float(volumes[y_true == 1].sum())
    v_bg = float(volumes[y_true == 0].sum())
    if v_fg == 0.0 or v_bg == 0.0:
        raise DegenerateInstanceError(
            "all-foreground or all-background ground truth")
    return np.where(y_true == 1, volumes / (2.0 * v_fg), volumes / (2.0 * v_bg))


def loss(spec: LossSpec, y_true: np.ndarray, y_pred: np.ndarray,
         volumes: np.ndarray | None = None) -> float:
    """Evaluate the configured loss; weights are taken at the true labels."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise StructuralError("labelings must have equal length")
    d = y_true.shape[0]
    mism = y_true != y_pred
    if spec.kind == ZERO_ONE:
        return float(np.any(mism))
    if spec.kind == HAMMING:
        return float(mism.sum()) / d
    theta = loss_weights(spec, y_true, volumes)
    return float((theta * mism).sum()) / d


def loss_weights(spec: LossSpec, y_true: np.ndarray,
                 volumes: np.ndarray | None = None) -> np.ndarray:
    """Per-variable theta_d(y_d) for Hamming-family losses (ones for plain
    Hamming)."""
    y_true = np.asarray(y_true, dtype=np.int64)
    d = y_true.shape[0]
    if spec.kind in (ZERO_ONE, HAMMING):
        return np.ones(d)
    if isinstance(spec.weight_rule, str):
        if spec.weight_rule != VOLUME_BALANCED:
            raise StructuralError(f"unknown weight rule {spec.weight_rule!r}")
        if volumes is None:
            volumes = np.ones(d)
        return volume_weights(y_true, volumes)
    table = np.asarray(spec.weight_rule, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] != d:
        raise StructuralError("explicit weight table must be (D, K)")
    return table[np.arange(d), y_true]


# ---------------------------------------------------------------------------
# Marginal tables
# ---------------------------------------------------------------------------


def exact_row_normalize(counts: np.ndarray, total: int) -> np.ndarray:
    """counts / total with each row nudged by a sub-ulp correction so that
    it sums to exactly 1.0."""
    q = counts.astype(np.float64) / float(total)
    for row in q:
        for _ in range(4):
            s = row.sum()
            if s == 1.0:
                break
            # the residual is sub-ulp at the largest entry: try candidates
            # in order of increasing magnitude (finest granularity first)
            fixed = False
            for i in np.argsort(row, kind="stable"):
                trial = row[i] + (1.0 - s)
                if trial < 0.0:
                    continue
                old = row[i]
                row[i] = trial
                if row.sum() == 1.0:
                    fixed = True
                    break
                row[i] = old
            if not fixed:
                row[int(np.argmax(row))] += 1.0 - s
    return q
