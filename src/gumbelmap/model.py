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
    """4-connected rows x cols lattice, variables in row-major order; each
    side is at least 1."""
    if rows < 1 or cols < 1:
        raise StructuralError(f"grid sides must be >= 1, not {rows} x {cols}")
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


def _label_array(y) -> tuple[np.ndarray, np.ndarray | None]:
    """``y`` as int64 labels and, when an entry is not an integer (1.7,
    NaN, an infinity), ``y`` as floats, else None: cast, such an entry
    would name another label.  An int64 array, as every solver returns,
    is taken as it is."""
    if isinstance(y, np.ndarray) and y.dtype == np.int64:
        return y, None
    a = np.asarray(y)
    if a.dtype.kind in "biu":
        return a.astype(np.int64), None
    a = a.astype(np.float64)
    # a NaN, an infinity or a value past int64 casts to an integer that
    # differs from it
    with np.errstate(invalid="ignore"):
        labels = a.astype(np.int64)
    return labels, (a if np.any(labels != a) else None)


def _integer_labels(y) -> np.ndarray:
    """``y`` as int64 labels by ``_label_array``'s rule, or a refusal."""
    labels, floats = _label_array(y)
    if floats is not None:
        i = int(np.flatnonzero(labels != floats)[0])
        raise StructuralError(
            f"label {float(floats.flat[i])} is not an integer at variable {i}")
    return labels


def check_labeling(model: PairwiseModel, y: np.ndarray) -> np.ndarray:
    """``y`` as an int64 array, checked once: a (D,) labeling or an (n, D)
    block of labelings, every label an integer in range.  A bad block
    raises the error its first bad row would raise alone, with a note
    that names the row."""
    y, floats = _label_array(y)
    d = model.num_vars
    if y.ndim not in (1, 2) or y.shape[-1] != d:
        raise StructuralError(f"labeling shape {y.shape} != ({d},) or (n, {d})")
    # as unsigned, a negative label is out of range too
    bad = y.view(np.uint64) >= model.num_labels
    if floats is not None:
        bad |= y != floats
    if np.count_nonzero(bad):
        i = int(np.flatnonzero(bad)[0])
        if floats is not None and y.flat[i] != floats.flat[i]:
            error = StructuralError(f"label {float(floats.flat[i])} is not "
                                    f"an integer at variable {i % d}")
        else:
            error = StructuralError(
                f"label {y.flat[i]} out of range at variable {i % d}")
        if y.ndim == 2:
            error.add_note(f"in row {i // d} of a block of {len(y)}")
        raise error
    return y


def _runs(models: list[PairwiseModel], ys: list) -> tuple[int, list]:
    """The labelings of a list form, one (D,) labeling or (n, D) block per
    model, checked in order (``check_labeling``; in a list of several, its
    error gets a note that names the item), then split into runs of
    consecutive items with equal models.  Returns the number of rows, and
    per run: its model, its items ``first:stop``, its first row, the
    (n, D) labels of its rows stacked, and the item of each row within
    the run."""
    if len(models) != len(ys):
        raise StructuralError(f"{len(models)} models and {len(ys)} labelings")
    blocks = []
    for i, (model, y) in enumerate(zip(models, ys)):
        try:
            blocks.append(check_labeling(model, y).reshape(-1, model.num_vars))
        except StructuralError as error:
            if len(ys) > 1:
                error.add_note(f"in item {i} of {len(ys)}")
            raise
    runs, row, first = [], 0, 0
    for stop in range(1, len(models) + 1):
        if stop < len(models) and models[stop] == models[first]:
            continue
        labels = np.concatenate(blocks[first:stop])
        item = np.repeat(np.arange(stop - first),
                         [len(b) for b in blocks[first:stop]])
        runs.append((models[first], first, stop, row, labels, item))
        row += len(labels)
        first = stop
    return row, runs


def evaluate_potential(p: CompiledPotentials | list[CompiledPotentials],
                       y) -> float | np.ndarray:
    """f(y): a float for a (D,) labeling, an (n,) array for an (n, D)
    block, one value per row.

    The list form takes a list of compiled tables and a list of matching
    labelings or blocks, one per table, and returns the values of all
    their rows as one array, concatenated in order.  A single table is a
    list of one.  Both run in runs of consecutive tables of equal models:
    each run gathers its rows' terms from its tables stacked, so each row
    reads the entries of its own table, and one ``_sum_terms`` call sums
    the run's rows.  Every value is summed in one fixed order, from 0.0:
    variables ascending, then edges ascending, so each row has the bits
    of the labeling alone, whatever the other rows of the call; a run's
    rows all have its width, so none is padded."""
    single = isinstance(p, CompiledPotentials)
    ps, ys = ([p], [np.asarray(y)]) if single else (p, y)
    n, runs = _runs([pi.model for pi in ps], ys)
    vals = np.empty(n)
    for model, first, stop, row, labels, item in runs:
        m, k = stop - first, model.num_labels
        unary = np.array([pi.unary for pi in ps[first:stop]])
        pairwise = np.array([pi.pairwise for pi in ps[first:stop]])
        item = item[:, None]
        vals[row:row + len(labels)] = _sum_terms(
            unary.reshape(m, -1)[item, labels + model._unary_offsets],
            pairwise.reshape(m, model.num_edges * k * k)[
                item, _pair_cells(model, labels)])
    return float(vals[0]) if single and ys[0].ndim == 1 else vals


def _pair_cells(model: PairwiseModel, block: np.ndarray) -> np.ndarray:
    """(n, E) flat indices into an (E, K, K) pairwise table of the cells
    that the checked (n, D) labelings ``block`` select, edges ascending."""
    k = model.num_labels
    return (block.take(model._edge_i, axis=1) * k
            + block.take(model._edge_j, axis=1) + model._pair_offsets)


def _sum_terms(unary_terms: np.ndarray, pair_terms: np.ndarray) -> np.ndarray:
    """(n,) values of n labelings from their (n, D) unary terms and (n, E)
    pairwise terms: each row summed from 0.0, its unary terms left to
    right, then its pairwise terms, edges ascending.  The one summation
    kernel of ``evaluate_potential`` and ``gumbel.estimate_A``."""
    terms = np.concatenate((np.zeros((len(unary_terms), 1)), unary_terms,
                            pair_terms), axis=1)
    # a running sum adds strictly left to right (``sum`` adds pairwise)
    return np.add.accumulate(terms, axis=1)[:, -1]


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


def zero_weights(layout: WeightLayout) -> WeightVector:
    return WeightVector(np.zeros(layout.total_size), layout)


def project_supermodular(w: WeightVector) -> WeightVector:
    """Clamp the pairwise block to be non-positive (idempotent).  With the
    disagreement ('potts') parameterization and non-negative edge features
    this keeps every compiled instance cut-solvable."""
    values = w.values.copy()
    block = w.pairwise_block
    values[block] = np.minimum(values[block], 0.0)
    return WeightVector(values, w.layout)


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
    # every variable observed; set once, as PairwiseModel.is_chain is
    fully_labeled: bool = field(init=False, repr=False, compare=False)

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
            lab = _integer_labels(self.labels)
            if lab.shape != (d,):
                raise StructuralError("labels must be length D")
            bad = (lab < -1) | (lab >= self.model.num_labels)
            if bad.any():
                i = int(np.argmax(bad))
                raise StructuralError(f"label {lab[i]} out of range at {i}")
            object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "fully_labeled", self.labels is not None
                           and bool(np.all(self.labels >= 0)))
        if self.node_volumes is not None:
            vol = np.asarray(self.node_volumes, dtype=np.float64)
            if vol.shape != (d,):
                raise StructuralError("node_volumes must be length D")
            if not np.all(np.isfinite(vol) & (vol > 0)):
                raise StructuralError("node volumes must be finite and positive")
            object.__setattr__(self, "node_volumes", vol)

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


def feature_map(x: FeatureInstance | list[FeatureInstance], y,
                layout: WeightLayout) -> np.ndarray:
    """The structured feature vector, the gradient of f(y|x) with respect
    to w: an (F,) vector for a (D,) labeling, an (n, F) array for an
    (n, D) block, one row per labeling.

    The list form takes a list of instances and a list of matching
    labelings or blocks, one per instance, and returns the rows of all of
    them as one (N, F) array, concatenated in order.  A single instance is
    a list of one.  Both run in runs of consecutive instances of equal
    models (``_runs``): a run's (row, variable) and (row, edge) cells are
    flattened with its first row as offset, and read their features from
    the run's instances stacked.  Each entry is summed from 0.0 in one
    fixed order: node features in variable order, edge features in edge
    order.  ``np.add.at`` adds in index order, row by row, so each row has
    the bits of the labeling alone, whatever the other rows of the call.
    The potts entry follows that order too (it was a pairwise ``sum``);
    with integer edge features, as every synthetic dataset has, both
    orders give the same exact sums."""
    single = isinstance(x, FeatureInstance)
    xs, ys = ([x], [np.asarray(y)]) if single else (x, y)
    for xi in xs:
        _check_layout_compat(layout, xi)
    n, runs = _runs([xi.model for xi in xs], ys)
    k, fn, fe = layout.num_labels, layout.node_feat_dim, layout.edge_feat_dim
    potts = layout.pairwise_form == PAIRWISE_POTTS
    unary = np.zeros((n * k, fn))
    pair = np.zeros((n if potts else n * k * k, fe))
    for model, first, stop, row, labels, item in runs:
        rows = np.arange(row, row + len(labels))[:, None]
        node = np.array([xi.node_features for xi in xs[first:stop]])
        np.add.at(unary, (rows * k + labels).ravel(),
                  node[item].reshape(-1, fn))
        if model.num_edges:
            edge = np.array([xi.edge_features for xi in xs[first:stop]])
            ya = labels.take(model._edge_i, axis=1)
            yb = labels.take(model._edge_j, axis=1)
            if potts:
                r, e = np.nonzero(ya != yb)
                np.add.at(pair, r + row, edge[item[r], e])
            else:
                np.add.at(pair, ((rows * k + ya) * k + yb).ravel(),
                          edge[item].reshape(-1, fe))
    psi = np.concatenate((unary.reshape(n, -1), pair.reshape(n, -1)), axis=1)
    return psi[0] if single and ys[0].ndim == 1 else psi


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

ZERO_ONE = "zero_one"
HAMMING = "hamming"
WEIGHTED_HAMMING = "weighted_hamming"


@dataclass(frozen=True)
class LossSpec:
    """Loss selector.  Weighted Hamming always takes its weights from
    ``volume_weights`` over the instance's volumes (unit volumes when the
    instance has none)."""

    kind: str

    def __post_init__(self):
        if self.kind not in (ZERO_ONE, HAMMING, WEIGHTED_HAMMING):
            raise StructuralError(f"unknown loss kind {self.kind!r}")


def volume_weights(y_true: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """Volume-balanced per-variable weights for binary ground truth:

        theta_d = V_d / (2 V_fg)  if y_d = 1,   V_d / (2 V_bg)  if y_d = 0.

    A one-sided ground truth raises DegenerateInstanceError.
    """
    y_true = _integer_labels(y_true)
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
    """Evaluate the configured loss; weights are taken at the true labels.
    A label that is not an integer raises ``StructuralError``."""
    y_true = _integer_labels(y_true)
    y_pred = _integer_labels(y_pred)
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
    """Per-variable theta_d(y_d) for Hamming-family losses: ones for plain
    Hamming, ``volume_weights`` for weighted Hamming.  Every entry is in
    [0, 1]."""
    y_true = _integer_labels(y_true)
    d = y_true.shape[0]
    if spec.kind in (ZERO_ONE, HAMMING):
        return np.ones(d)
    return volume_weights(y_true, np.ones(d) if volumes is None else volumes)


# ---------------------------------------------------------------------------
# Marginal tables
# ---------------------------------------------------------------------------


def exact_row_normalize(counts: np.ndarray, total: int) -> np.ndarray:
    """counts / total with each row nudged by a sub-ulp correction so that
    it sums to exactly 1.0.  Rows that already do are left as they are:
    every row sum is taken at once, by the reduction ``row.sum()`` makes."""
    q = counts.astype(np.float64) / float(total)
    for r in np.flatnonzero(q.sum(axis=1) != 1.0):
        row = q[r]
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
