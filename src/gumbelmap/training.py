"""Double stochastic gradient descent: random mini-batches, fresh Gumbel
perturbations every iteration.

The Hamming, weighted Hamming, unlabeled and partially labeled objectives
are one estimator, sum_d sum_k w_dk (B_dk - A) under shared noise, where A
is the unconditional perturbed maximum and B_dk the maximum with y_d
clamped to k.  Only the weight table w changes: theta_d at the label for a
labeled element, q_d(k) theta_d(k) from frozen marginals for an unlabeled
one, with given labels conditioned on rather than weighted.  A clamp is a
unary raise on the unreduced model by a margin that provably pins the
label (``cuts.clamp_variables``), applied in one of two ways:

* a per-draw clamp of y_d = k pins the perturbed tables p + z, and B_dk is
  their value at the clamped maximizer less z_d(k), on every solver;
* given labels pin p once per element and zero their noise rows, so that
  under the pin those rows add only a constant.

One per-variable kernel (``_element``) computes the estimator; the
whole-labeling likelihood (zero-one loss) needs only the unconditional
MAP.  The three public steps share one update helper, and one driver loop
serves ``train`` and both training phases of ``train_semisupervised``.

Two exact accelerations apply to the clamped solves:

* skipping clamped solves whose maximizer provably equals the
  unconditional one under the shared noise (zero gradient contribution);
* re-solving the clamped problems on one dynamic cut state instead of
  building each from scratch (graph-cut solver only).

Both are exact rewrites: trajectories do not depend on them.

Only graph-cut training projects: ``project_supermodular`` after each step
keeps every MAP a min-cut on the binary potts layout that ``TrainConfig``
requires of graph cuts.  Chain and brute-force MAPs are exact for any
weights, so their pairwise weights are free.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field

import numpy as np

from .cuts import build_cut_problem, clamp_variables, pin_margins
from .errors import InternalInvariantError, StructuralError
from .gumbel import (
    EstimatorConfig,
    SOLVER_GRAPHCUT,
    TAG_BATCH,
    _map_labels,
    check_solver_name,
    conditional_counting_marginals,
    counting_marginals,
    perturbed_conditional_map,
    perturbed_map,
    sample_noise,
    stream,
    zero_given_rows,
)
from .model import (
    CompiledPotentials,
    FeatureInstance,
    LossSpec,
    PAIRWISE_POTTS,
    WeightLayout,
    WeightVector,
    ZERO_ONE,
    WEIGHTED_HAMMING,
    compile_potentials,
    evaluate_potential,
    feature_map,
    loss_weights,
    zero_weights,
)

PHASE_SUPERVISED = 1
PHASE_MARGINALS = 2
PHASE_MIXED = 3

PREDICT_MAP = "map"
PREDICT_MARGINAL = "marginal"


@dataclass
class TrainConfig:
    lam: float
    iters: int
    batch: int
    loss: LossSpec
    seed: int
    solver: str
    layout: WeightLayout
    kappa: float = 1.0
    inference_samples: int = 100
    stepsize: float | None = None  # None -> 1 / (lam * h)
    acceleration: bool = True
    dynamic_cuts: bool = True

    def __post_init__(self):
        check_solver_name(self.solver)
        if not (0 < self.lam < math.inf and 1 / self.lam < math.inf):
            raise StructuralError("lambda and 1/lambda must be finite and > 0")
        if self.iters < 1 or self.batch < 1:
            raise StructuralError("iters and batch must be >= 1")
        if not 0 <= self.kappa < math.inf:
            raise StructuralError("kappa must be finite and >= 0")
        if self.stepsize is not None and not 0 < self.stepsize < math.inf:
            raise StructuralError("stepsize must be finite and > 0")
        if self.inference_samples < 1:
            raise StructuralError("inference samples must be >= 1")
        if self.solver == SOLVER_GRAPHCUT and (
                self.layout.num_labels != 2
                or self.layout.pairwise_form != PAIRWISE_POTTS):
            raise StructuralError("graphcut needs the binary potts layout, "
                                  "the one its projection keeps solvable")


@dataclass
class TrainCounters:
    map_solves: int = 0
    clamp_solves: int = 0
    clamp_skipped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"map_solves": self.map_solves,
                "clamp_solves": self.clamp_solves,
                "clamp_skipped": self.clamp_skipped}


@dataclass
class TrainReport:
    weights: WeightVector          # last iterate
    averaged: WeightVector         # mean of the last half of the iterates
    objective_estimates: np.ndarray
    counters: TrainCounters
    phase_seconds: dict[str, float] = field(default_factory=dict)
    skipped_fraction_series: list[tuple[int, float]] = field(default_factory=list)


def project_supermodular(w: WeightVector) -> WeightVector:
    """Clamp the pairwise block to be non-positive (idempotent).  With the
    disagreement ('potts') parameterization and non-negative edge features
    this keeps every compiled instance cut-solvable."""
    values = w.values.copy()
    block = w.pairwise_block
    values[block] = np.minimum(values[block], 0.0)
    return WeightVector(values, w.layout)


def _noise_for(model, seed: int, phase: int, h: int, slot: int) -> np.ndarray:
    return sample_noise(model, seed, context=(slot, (phase << 48) | h))


# ---------------------------------------------------------------------------
# Per-element solving
# ---------------------------------------------------------------------------


class _ElementSolver:
    """Unconditional and clamped perturbed MAPs for one batch element,
    sharing one noise realization.  Both return labels alone; ``_element``
    evaluates them together on ``perturbed`` where it reads their values.

    A clamp is ``perturbed_conditional_map``.  With dynamic cuts the
    clamped problems run on one retained cut state instead: the same pin
    of p + z is one ``update_unary``, undone afterwards, so the trees carry
    over between the D re-solves.
    """

    def __init__(self, p: CompiledPotentials, z: np.ndarray, solver: str,
                 dynamic: bool):
        self.p = p
        self.z = z
        self.solver = solver
        self.perturbed = p.with_unary(p.unary + z)
        self.dynamic = dynamic and solver == SOLVER_GRAPHCUT
        self.state = None

    def map_full(self) -> np.ndarray:
        if self.dynamic:
            self.state = build_cut_problem(self.perturbed)
            return self.state.solve()[0]
        return _map_labels(self.perturbed, self.solver)

    def clamped(self, pairs: list[tuple[int, int]]) -> np.ndarray:
        """Maximizers with y_d pinned to k under the shared noise, one row
        of an (n, D) block per (d, k) pair in order."""
        if not self.dynamic:
            return np.array([perturbed_conditional_map(self.p, d, k, self.z,
                                                       self.solver)[0]
                             for d, k in pairs])
        unary = self.perturbed.unary.tolist()
        pins = pin_margins(self.perturbed).tolist()
        block = []
        for d, k in pairs:
            pinned = unary[d].copy()
            pinned[k] += pins[d]
            self.state.update_unary(d, pinned)
            y = self.state.solve()[0]
            self.state.update_unary(d, unary[d])
            if y[d] != k:
                raise InternalInvariantError(
                    f"pinning bound failed to clamp variable {d}")
            block.append(y)
        return np.array(block)


def _element(x: FeatureInstance, weights: np.ndarray, given: dict[int, int],
             p: CompiledPotentials, z: np.ndarray, solver: str,
             dynamic: bool, acceleration: bool, layout: WeightLayout,
             counters: TrainCounters) -> tuple[np.ndarray, float]:
    """Gradient and objective estimate of sum_d sum_k w_dk (B_dk - A) for
    one element under one noise realization.

    ``weights`` is a (D, K) table: a labeled element carries theta_d at
    its label and 0 elsewhere, an unlabeled one q_d(k) theta_d(k).  Entries
    of weight 0 are neither solved nor counted.  The ``given`` labels are
    pinned and their noise rows zeroed: both the unconditional and the
    clamped solves run conditioned on them, and their rows of ``weights``
    are ignored.

    After the solves, one batched pass evaluates the unconditional and
    clamped maximizers on p + z and maps their features; an element with
    no clamp evaluates nothing.  The gradient and objective terms are
    added in the order of the (d, k) loop, so they match term-by-term
    accumulation bit for bit.
    """
    model = x.model
    if len(given) == model.num_vars:
        # every conditional marginal is degenerate: nothing to match
        return np.zeros(layout.total_size), 0.0
    if given:
        p = clamp_variables(p, given)
        z = zero_given_rows(z, given)
    es = _ElementSolver(p, z, solver, dynamic)
    y_a = es.map_full()
    counters.map_solves += 1
    pairs, clamp_weights = [], []
    terms = []  # objective terms in loop order; None marks a clamp
    for d in range(model.num_vars):
        if d in given:
            continue
        for k in range(model.num_labels):
            w_dk = weights[d, k]
            if w_dk == 0.0:
                continue
            if y_a[d] == k and acceleration:
                # shared noise: the clamped maximizer equals y_a, so the
                # gradient term vanishes and B_dk - A is exactly -z_d(k)
                counters.clamp_skipped += 1
                terms.append(w_dk * (-z[d, k]))
                continue
            pairs.append((d, k))
            clamp_weights.append(w_dk)
            terms.append(None)
    counters.clamp_solves += len(pairs)
    grad = np.zeros(layout.total_size)
    clamp_terms = iter(())
    if pairs:
        labelings = np.vstack((y_a, es.clamped(pairs)))
        vals = evaluate_potential(es.perturbed, labelings)
        psi = feature_map(x, labelings, layout)
        w_b = np.array(clamp_weights)
        for term in w_b[:, None] * (psi[1:] - psi[0]):
            grad += term
        z_b = np.array([z[d, k] for d, k in pairs])
        clamp_terms = iter(w_b * ((vals[1:] - z_b) - vals[0]))
    obj = 0.0
    for term in terms:
        obj += next(clamp_terms) if term is None else term
    return grad, obj


def _label_table(x: FeatureInstance, y: np.ndarray,
                 loss_spec: LossSpec) -> np.ndarray:
    """One-hot weight table of a labeled element: theta_d at y_d."""
    table = np.zeros((x.model.num_vars, x.model.num_labels))
    table[np.arange(x.model.num_vars), y] = loss_weights(loss_spec, y,
                                                         x.volumes())
    return table


def _unlabeled_table(w: WeightVector, x: FeatureInstance, index: int,
                     cfg: TrainConfig) -> np.ndarray:
    """Weight table q_d(k) theta_d(k) of an unlabeled (or partially
    labeled) element: q are counting marginals under w, conditioned on the
    given labels; theta, for the weighted loss, are frozen volume-balanced
    weights with foreground/background volumes taken from q."""
    p = compile_potentials(w, x)
    est = EstimatorConfig(cfg.inference_samples, cfg.seed, cfg.solver,
                          stream_context=index + 1)
    q = conditional_counting_marginals(p, x.given_labels(), est)
    if cfg.loss.kind != WEIGHTED_HAMMING:
        return q
    if not x.model.is_binary:
        raise StructuralError("weighted loss requires binary labels")
    vols = x.volumes()
    eps = 1e-6 * float(vols.sum())
    v_fg = max(float((q[:, 1] * vols).sum()), eps)
    v_bg = max(float((q[:, 0] * vols).sum()), eps)
    theta = np.zeros((x.model.num_vars, 2))
    theta[:, 1] = vols / (2.0 * v_fg)
    theta[:, 0] = vols / (2.0 * v_bg)
    return q * theta


# ---------------------------------------------------------------------------
# SGD steps
# ---------------------------------------------------------------------------


def _batch_mean(w: WeightVector,
                items: list[tuple[FeatureInstance, np.ndarray, dict[int, int]]],
                h: int, cfg: TrainConfig, counters: TrainCounters, phase: int,
                first_slot: int) -> tuple[np.ndarray, float]:
    """Mean gradient and objective of the per-variable kernel over
    (instance, weight table, given labels) items; item t draws noise slot
    first_slot + t.  An empty batch contributes zero."""
    gsum = np.zeros(w.layout.total_size)
    obj = 0.0
    for t, (x, weights, given) in enumerate(items):
        p = compile_potentials(w, x)
        z = _noise_for(x.model, cfg.seed, phase, h, first_slot + t)
        g, o = _element(x, weights, given, p, z, cfg.solver, cfg.dynamic_cuts,
                        cfg.acceleration, w.layout, counters)
        gsum += g
        obj += o
    n = max(len(items), 1)
    return gsum / n, obj / n


def _labeled_mean(w: WeightVector, batch: list[FeatureInstance], h: int,
                  cfg: TrainConfig, counters: TrainCounters, phase: int
                  ) -> tuple[np.ndarray, float]:
    if not all(x.fully_labeled for x in batch):
        raise StructuralError("marginal step requires full labels")
    items = [(x, _label_table(x, x.labels, cfg.loss), {}) for x in batch]
    return _batch_mean(w, items, h, cfg, counters, phase, 1)


def _update(w: WeightVector, grad: np.ndarray, obj: float, h: int,
            cfg: TrainConfig) -> tuple[WeightVector, float]:
    """w + gamma_h (grad - lam w), gamma_h = cfg.stepsize or 1 / (lam h),
    projected for graph cuts; and the objective regularised with the old w."""
    gamma = cfg.stepsize if cfg.stepsize is not None else 1.0 / (cfg.lam * h)
    w_new = WeightVector(w.values + gamma * (grad - cfg.lam * w.values),
                         w.layout)
    if cfg.solver == SOLVER_GRAPHCUT:
        w_new = project_supermodular(w_new)
    return w_new, obj - 0.5 * cfg.lam * float(w.values @ w.values)


def sgd_loglik_step(w: WeightVector, batch: list[FeatureInstance], h: int,
                    cfg: TrainConfig, counters: TrainCounters | None = None,
                    phase: int = PHASE_SUPERVISED
                    ) -> tuple[WeightVector, float]:
    """One whole-labeling likelihood step: the gradient is the empirical
    feature average minus the average perturbed maximizer's features."""
    counters = counters if counters is not None else TrainCounters()
    if not all(x.fully_labeled for x in batch):
        raise StructuralError("log-likelihood step requires full labels")
    layout = w.layout
    gsum = np.zeros(layout.total_size)
    obj = 0.0
    for t, x in enumerate(batch):
        p = compile_potentials(w, x)
        z = _noise_for(x.model, cfg.seed, phase, h, t + 1)
        y_star, val = perturbed_map(p, z, cfg.solver)
        counters.map_solves += 1
        gsum += feature_map(x, x.labels, layout) - feature_map(x, y_star, layout)
        obj += evaluate_potential(p, x.labels) - val
    return _update(w, gsum / len(batch), obj / len(batch), h, cfg)


def sgd_marginal_step(w: WeightVector, batch: list[FeatureInstance], h: int,
                      cfg: TrainConfig, counters: TrainCounters | None = None,
                      phase: int = PHASE_SUPERVISED
                      ) -> tuple[WeightVector, float]:
    """One marginal-likelihood step (plain or weighted Hamming)."""
    counters = counters if counters is not None else TrainCounters()
    grad, obj = _labeled_mean(w, batch, h, cfg, counters, phase)
    return _update(w, grad, obj, h, cfg)


def sgd_unsup_step(w: WeightVector, labeled: list[FeatureInstance],
                   unlabeled: list[tuple[FeatureInstance, np.ndarray]],
                   h: int, cfg: TrainConfig,
                   counters: TrainCounters | None = None,
                   phase: int = PHASE_MIXED) -> tuple[WeightVector, float]:
    """One mixed step: the marginal-likelihood mean over the labeled batch
    plus kappa times the expected-marginal mean over the unlabeled batch.

    Unlabeled items are (instance, weight table) pairs, the table being
    q_d(k) theta_d(k) from frozen marginals; their given labels are
    conditioned on.  Labeled element t draws noise slot t + 1, unlabeled
    element t slot len(labeled) + t + 1.  With no unlabeled items the step
    equals ``sgd_marginal_step`` bit for bit.
    """
    counters = counters if counters is not None else TrainCounters()
    grad, obj = _labeled_mean(w, labeled, h, cfg, counters, phase)
    if unlabeled:
        items = [(x, weights, x.given_labels()) for x, weights in unlabeled]
        g_u, o_u = _batch_mean(w, items, h, cfg, counters, phase,
                               len(labeled) + 1)
        grad = grad + cfg.kappa * g_u
        obj = obj + cfg.kappa * o_u
    return _update(w, grad, obj, h, cfg)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _draw(data: list, cfg: TrainConfig, phase: int, h: int,
          group: int) -> list:
    rng = stream(cfg.seed, group, (phase << 48) | h, TAG_BATCH)
    return [data[int(i)] for i in rng.integers(0, len(data), size=cfg.batch)]


def _drive(step, w: WeightVector, labeled: list[FeatureInstance],
           cfg: TrainConfig, counters: TrainCounters, phase: int,
           unlabeled: list | None = None
           ) -> tuple[WeightVector, WeightVector, np.ndarray,
                      list[tuple[int, float]]]:
    """cfg.iters steps from h = 1: each draws a labeled batch (stream
    group 0) and, when ``unlabeled`` is given, an unlabeled batch (group 1,
    empty if there are no unlabeled items).  Returns the last iterate, the
    mean of the last half of the iterates, the objective estimates and the
    skipped-clamp fraction every 100 iterations."""
    objs = np.zeros(cfg.iters)
    tail_from = cfg.iters // 2 + 1
    tail_sum = np.zeros(cfg.layout.total_size)
    series: list[tuple[int, float]] = []
    for h in range(1, cfg.iters + 1):
        args = [_draw(labeled, cfg, phase, h, 0)]
        if unlabeled is not None:
            args.append(_draw(unlabeled, cfg, phase, h, 1) if unlabeled else [])
        w, objs[h - 1] = step(w, *args, h, cfg, counters, phase)
        if h >= tail_from:
            tail_sum += w.values
        if h % 100 == 0 or h == cfg.iters:
            budget = counters.clamp_solves + counters.clamp_skipped
            frac = counters.clamp_skipped / budget if budget else 0.0
            series.append((h, frac))
    averaged = WeightVector(tail_sum / (cfg.iters - tail_from + 1), cfg.layout)
    return w, averaged, objs, series


def train(dataset: list[FeatureInstance], cfg: TrainConfig) -> TrainReport:
    """Supervised training from w = 0 with the loss-appropriate step."""
    if not dataset:
        raise StructuralError("dataset is empty")
    step = sgd_loglik_step if cfg.loss.kind == ZERO_ONE else sgd_marginal_step
    counters = TrainCounters()
    t0 = _time.perf_counter()
    w, averaged, objs, series = _drive(step, zero_weights(cfg.layout), dataset,
                                       cfg, counters, PHASE_SUPERVISED)
    return TrainReport(
        weights=w, averaged=averaged, objective_estimates=objs,
        counters=counters,
        phase_seconds={"supervised": _time.perf_counter() - t0},
        skipped_fraction_series=series)


def train_semisupervised(d1: list[FeatureInstance],
                         d2: list[FeatureInstance],
                         cfg: TrainConfig) -> TrainReport:
    """Three phases: supervised training of w1; weight tables q theta for
    the unlabeled data from counting marginals under w1 (only when
    kappa > 0); mixed updates combining a labeled batch with a
    kappa-scaled unlabeled batch.

    The mixed phase restarts the stepsize sequence at h = 1.  With the
    1/(lam h) rule the first mixed step replaces w1 by the bare gradient
    over lam, so w1 survives only through the frozen tables; the mixed
    phase is a fresh run on labeled plus pseudo-labeled data.
    """
    if cfg.loss.kind == ZERO_ONE:
        raise StructuralError("semi-supervised training needs a Hamming or "
                              "weighted Hamming loss, not zero-one")
    if not d1:
        raise StructuralError("the labeled dataset is empty")
    counters = TrainCounters()
    timings: dict[str, float] = {}

    t0 = _time.perf_counter()
    w, _, objs1, _ = _drive(sgd_marginal_step, zero_weights(cfg.layout), d1,
                            cfg, counters, PHASE_SUPERVISED)
    timings["supervised"] = _time.perf_counter() - t0

    t0 = _time.perf_counter()
    tables = []
    if cfg.kappa > 0.0:
        tables = [(x, _unlabeled_table(w, x, i, cfg)) for i, x in enumerate(d2)]
    timings["marginals"] = _time.perf_counter() - t0

    t0 = _time.perf_counter()
    w, averaged, objs3, series = _drive(sgd_unsup_step, w, d1, cfg, counters,
                                        PHASE_MIXED, tables)
    timings["mixed"] = _time.perf_counter() - t0

    return TrainReport(
        weights=w, averaged=averaged,
        objective_estimates=np.concatenate([objs1, objs3]),
        counters=counters, phase_seconds=timings,
        skipped_fraction_series=[(cfg.iters + h, f) for h, f in series])


# ---------------------------------------------------------------------------
# Prediction and the frozen-noise objective
# ---------------------------------------------------------------------------


def predict(w: WeightVector, x: FeatureInstance, mode: str,
            est: EstimatorConfig) -> np.ndarray:
    """MAP decoding with ``est.solver``, or the per-variable argmax (ties
    to the smallest label) of counting marginals drawn as ``est`` says."""
    p = compile_potentials(w, x)
    if mode == PREDICT_MAP:
        return _map_labels(p, est.solver)
    if mode == PREDICT_MARGINAL:
        return counting_marginals(p, est).argmax(axis=1)
    raise StructuralError(f"unknown prediction mode {mode!r}")


def frozen_noise_objective(w: WeightVector, x: FeatureInstance,
                           y: np.ndarray, z: np.ndarray, loss_spec: LossSpec,
                           solver: str) -> tuple[float, np.ndarray]:
    """Value and analytic gradient of the per-element marginal objective at
    one fixed noise realization: piecewise linear in w, so away from
    argmax-switch boundaries the gradient matches finite differences."""
    grad, obj = _element(x, _label_table(x, y, loss_spec), {},
                         compile_potentials(w, x), z, solver, False, True,
                         w.layout, TrainCounters())
    return obj, grad
