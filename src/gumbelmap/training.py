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
* given labels pin p once per element and zero their noise rows
  (``gumbel.condition_on_given``), so that under the pin those rows add
  only a constant.

One per-variable kernel computes the estimator, in two halves: the
solves of each element of a step (``_solve_element``), in order, its
labeled elements and then its unlabeled ones, then the arithmetic of
the whole step at once (``_batch_sums``): one ``feature_map`` and one
``evaluate_potential`` call over every element's maximizers, whose rows
keep the bits they have alone, and the gradient and objective terms
added per element in (d, k) order, as term-by-term accumulation adds
them.  The whole-labeling likelihood (zero-one loss) needs only the
unconditional MAP.  The three public steps share one update helper, and
one driver loop serves ``train`` and both training phases of
``train_semisupervised``; its batch draws, like every element's noise
table, come from ``gumbel``'s retained generator, drawn and discarded at
once.

Three exact accelerations apply to the clamped solves:

* skipping clamped solves whose maximizer provably equals the
  unconditional one under the shared noise (zero gradient contribution);
* re-solving the clamped problems on one dynamic cut state instead of
  building each from scratch (graph-cut solver only);
* on that state, answering without a solve each clamp of y_d to the
  label y_a does not have that the residual graph of the unconditional
  solve proves flips y_d alone (``DynamicCutState.flips_alone``): its
  maximizer is y_a with y_d flipped.  It comes with dynamic cuts and
  has no switch of its own; every clamped maximizer, solved or
  certified, counts in ``clamp_solves``.

All are exact rewrites: trajectories do not depend on them.  The clamps
of an element are one call into ``gumbel``, which alone knows how each
solver answers them: ``perturbed_conditional_map``, or with dynamic cuts
``_cut_clamped_map`` on the cut state that solved the unconditional MAP.
Both take the element's p + z and return labels alone; A and every B_dk
are read from the batch's one evaluation of the maximizers, each row on
its element's p + z.

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

from .cuts import build_cut_problem
from .errors import StructuralError
from .gumbel import (
    EstimatorConfig,
    SOLVER_GRAPHCUT,
    TAG_BATCH,
    _cut_clamped_map,
    _map_labels,
    _rekeyed,
    check_solvable,
    check_solver_name,
    condition_on_given,
    conditional_counting_marginals,
    counting_marginals,
    perturbed_conditional_map,
    perturbed_map,
    sample_noise,
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
    project_supermodular,
    zero_weights,
)

PHASE_SUPERVISED = 1
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


@dataclass
class TrainReport:
    weights: WeightVector          # last iterate
    averaged: WeightVector         # mean of the last half of the iterates
    objective_estimates: np.ndarray
    counters: TrainCounters
    phase_seconds: dict[str, float] = field(default_factory=dict)
    skipped_fraction_series: list[tuple[int, float]] = field(default_factory=list)


def _noise_for(model, seed: int, phase: int, h: int, slot: int) -> np.ndarray:
    return sample_noise(model, seed, context=(slot, (phase << 48) | h))


# ---------------------------------------------------------------------------
# Per-element solving, then the batch's arithmetic
# ---------------------------------------------------------------------------


@dataclass
class _Solved:
    """One element's solves under one noise draw: the perturbed tables,
    the unconditional maximizer stacked over the clamped maximizers (one
    row per clamp, in (d, k) order; ``None`` with no clamp), each clamp's
    weight w_dk and noise z_d(k), and the objective terms in (d, k)
    order, ``None`` marking a clamp's."""
    x: FeatureInstance
    perturbed: CompiledPotentials
    stack: np.ndarray | None
    weights: list[float]
    noise: list[float]
    terms: list[float | None]


def _solve_element(x: FeatureInstance, weights: np.ndarray,
                   given: dict[int, int], p: CompiledPotentials,
                   z: np.ndarray, solver: str, dynamic: bool,
                   acceleration: bool, counters: TrainCounters) -> _Solved:
    """The solves of sum_d sum_k w_dk (B_dk - A) for one element under
    one noise realization; ``_batch_sums`` does its arithmetic.

    ``weights`` is a (D, K) table: a labeled element carries theta_d at
    its label and 0 elsewhere, an unlabeled one q_d(k) theta_d(k).  Entries
    of weight 0 are neither solved nor counted.  The ``given`` labels are
    pinned and their noise rows zeroed: both the unconditional and the
    clamped solves run conditioned on them, and their rows of ``weights``
    are ignored.  An element whose every label is given has nothing to
    match: it solves nothing and has no term.

    p + z is built once.  With ``dynamic`` graph cuts ``y_a`` and the
    clamps are solved on one retained cut state of it; otherwise the
    clamps are one ``perturbed_conditional_map`` call.  A clamp whose
    maximizer provably equals ``y_a`` (acceleration) is not solved: its
    term is exactly -w_dk z_d(k)."""
    model = x.model
    if len(given) == model.num_vars:
        return _Solved(x, p, None, [], [], [])
    p, z = condition_on_given(p, z, given)
    perturbed = p.with_unary(p.unary + z)
    state = None
    if dynamic and solver == SOLVER_GRAPHCUT:
        state = build_cut_problem(perturbed)
        y_a = state.solve()[0]
    else:
        y_a = _map_labels(perturbed, solver)
    counters.map_solves += 1
    pairs, clamp_weights, terms = [], [], []
    labels = range(model.num_labels)
    noise = z.tolist()
    for d, (row, z_d, y_d) in enumerate(zip(weights.tolist(), noise,
                                            y_a.tolist())):
        if d in given:
            continue
        for k in labels:
            w_dk = row[k]
            if w_dk == 0.0:
                continue
            if y_d == k and acceleration:
                # shared noise: the clamped maximizer equals y_a, so the
                # gradient term vanishes and B_dk - A is exactly -z_d(k)
                counters.clamp_skipped += 1
                terms.append(w_dk * -z_d[k])
                continue
            pairs.append((d, k))
            clamp_weights.append(w_dk)
            terms.append(None)
    counters.clamp_solves += len(pairs)
    stack = None
    if pairs:
        if state is None:
            block = perturbed_conditional_map(perturbed, pairs, solver)
        else:
            block = _cut_clamped_map(state, perturbed, pairs)
        stack = np.concatenate((y_a[None], block))
    return _Solved(x, perturbed, stack, clamp_weights,
                   [noise[d][k] for d, k in pairs], terms)


def _batch_sums(solved: list[_Solved], layout: WeightLayout
                ) -> tuple[np.ndarray, list[float]]:
    """Each element's gradient, one row of an (n, F) array, and its
    objective estimate, from the solves of a batch.

    The stacks of every element with a clamp are feature-mapped in one
    ``feature_map`` call and evaluated on their p + z in one
    ``evaluate_potential`` call; each row keeps the bits it has alone.
    B_dk is its row's value less z_d(k).  One ``np.add.at`` adds each
    clamp's weighted feature difference into its element's row, clamps in
    (d, k) order, and each objective adds its terms in (d, k) order from
    0.0, so both match term-by-term accumulation per element bit for
    bit.  A batch with no clamp makes neither call."""
    grads = np.zeros((len(solved), layout.total_size))
    clamped = [(i, s) for i, s in enumerate(solved) if s.stack is not None]
    clamp_terms = iter(())
    if clamped:
        stacks = [s.stack for _, s in clamped]
        psi = feature_map([s.x for _, s in clamped], stacks, layout)
        vals = evaluate_potential([s.perturbed for _, s in clamped], stacks)
        # per clamp: its element's row of grads, its y_a row and its own
        # row of the stacks
        owner, a_rows, b_rows, w_b, z_b = [], [], [], [], []
        first = 0
        for i, s in clamped:
            n = len(s.weights)
            owner += [i] * n
            a_rows += [first] * n
            b_rows += range(first + 1, first + 1 + n)
            w_b += s.weights
            z_b += s.noise
            first += n + 1
        w_b = np.array(w_b)
        np.add.at(grads, owner, w_b[:, None] * (psi[b_rows] - psi[a_rows]))
        clamp_terms = iter((w_b * ((vals[b_rows] - np.array(z_b))
                                   - vals[a_rows])).tolist())
    objs = []
    for s in solved:
        obj = 0.0
        for term in s.terms:
            obj += next(clamp_terms) if term is None else term
        objs.append(obj)
    return grads, objs


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


def _mean(grads: np.ndarray, objs: list[float]) -> tuple[np.ndarray, float]:
    """Mean of element gradients and objectives, the element sums added
    in order; both are zero with no element."""
    gsum = np.zeros(grads.shape[1])
    obj = 0.0
    for g, o in zip(grads, objs):
        gsum += g
        obj += o
    n = max(len(objs), 1)
    return gsum / n, obj / n


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


def _marginal_step(w: WeightVector, labeled: list[FeatureInstance],
                   unlabeled: list[tuple[FeatureInstance, np.ndarray]],
                   h: int, cfg: TrainConfig, counters: TrainCounters | None,
                   phase: int) -> tuple[WeightVector, float]:
    """The body of both marginal steps: the labeled mean, plus kappa times
    the unlabeled mean when there are unlabeled items.  The labeled items
    are solved, then the unlabeled ones, item t drawing noise slot t + 1;
    one ``_batch_sums`` pass does the arithmetic of all of them, and each
    half's mean adds its own element sums in item order."""
    counters = counters if counters is not None else TrainCounters()
    if not all(x.fully_labeled for x in labeled):
        raise StructuralError("marginal step requires full labels")
    items = [(x, _label_table(x, x.labels, cfg.loss), {}) for x in labeled]
    items += [(x, weights, x.given_labels()) for x, weights in unlabeled]
    solved = []
    for t, (x, weights, given) in enumerate(items):
        p = compile_potentials(w, x)
        z = _noise_for(x.model, cfg.seed, phase, h, t + 1)
        solved.append(_solve_element(x, weights, given, p, z, cfg.solver,
                                     cfg.dynamic_cuts, cfg.acceleration,
                                     counters))
    grads, objs = _batch_sums(solved, w.layout)
    n = len(labeled)
    grad, obj = _mean(grads[:n], objs[:n])
    if unlabeled:
        g_u, o_u = _mean(grads[n:], objs[n:])
        grad = grad + cfg.kappa * g_u
        obj = obj + cfg.kappa * o_u
    return _update(w, grad, obj, h, cfg)


def sgd_marginal_step(w: WeightVector, batch: list[FeatureInstance], h: int,
                      cfg: TrainConfig, counters: TrainCounters | None = None,
                      phase: int = PHASE_SUPERVISED
                      ) -> tuple[WeightVector, float]:
    """One marginal-likelihood step (plain or weighted Hamming)."""
    return _marginal_step(w, batch, [], h, cfg, counters, phase)


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
    return _marginal_step(w, labeled, unlabeled, h, cfg, counters, phase)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _draw(data: list, cfg: TrainConfig, phase: int, h: int,
          group: int) -> list:
    rng = _rekeyed(cfg.seed, group, (phase << 48) | h, TAG_BATCH)
    return [data[i] for i in rng.integers(0, len(data),
                                          size=cfg.batch).tolist()]


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


def _check_bounded(cfg: TrainConfig, labeled: list[FeatureInstance],
                   unlabeled: list[FeatureInstance], steps: int) -> None:
    """Refuse, before any solve, a lambda (or stepsize) under which the
    iterates can overflow.  A gradient entry is at most G = (1 + kappa)
    D S, S being the largest sum of |features| of an instance, since every
    loss weight-table entry lies in [0, 1].  So |w_i| <= B = G/lambda
    under steps 1/(lambda h) (Shalev-Shwartz et al., "Pegasos", ICML
    2007), and B = gamma G sum_{j < steps} |1 - gamma lambda|^j under a
    constant gamma.  B must keep ||w||^2 finite, and 3 B S, which bounds
    every table entry plus its pin margin."""
    data = labeled + unlabeled
    with np.errstate(over="ignore", invalid="ignore"):
        size = max(float(np.abs(x.node_features).sum()
                         + np.abs(x.edge_features).sum()) for x in data)
        g = ((1.0 + (cfg.kappa if unlabeled else 0.0)) * size
             * max(x.model.num_vars for x in data))
        bound = g / cfg.lam
        if cfg.stepsize is not None:
            r = np.float64(abs(1.0 - cfg.stepsize * cfg.lam))
            bound = cfg.stepsize * g * (
                steps if r == 1.0 else (r ** steps - 1.0) / (r - 1.0))
        finite = (np.isfinite(bound * bound * cfg.layout.total_size)
                  and np.isfinite(3.0 * bound * size))
    if not finite:
        raise StructuralError(
            f"lambda {cfg.lam:g} lets the weights grow to {bound:.3g}, "
            f"where their squared norm or a pinned table entry can overflow")


def train(dataset: list[FeatureInstance], cfg: TrainConfig) -> TrainReport:
    """Supervised training from w = 0 with the loss-appropriate step."""
    if not dataset:
        raise StructuralError("dataset is empty")
    _check_bounded(cfg, dataset, [], cfg.iters)
    check_solvable(cfg.solver, "the labeled dataset",
                   (x.model for x in dataset))
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
    # the unlabeled elements are solved only when kappa > 0
    used = d2 if cfg.kappa > 0.0 else []
    if cfg.loss.kind == WEIGHTED_HAMMING:
        for i, x in enumerate(used):
            if not x.model.is_binary:
                raise StructuralError(f"the unlabeled dataset, instance {i}: "
                                      f"weighted loss requires binary labels")
    _check_bounded(cfg, d1, used, 2 * cfg.iters)
    check_solvable(cfg.solver, "the labeled dataset", (x.model for x in d1))
    check_solvable(cfg.solver, "the unlabeled dataset",
                   (x.model for x in used))
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
# Prediction
# ---------------------------------------------------------------------------


def predict(p: CompiledPotentials, mode: str,
            est: EstimatorConfig) -> np.ndarray:
    """Labels decoded from the compiled potentials ``p``: a MAP labeling
    with ``est.solver``, or the per-variable argmax (ties to the smallest
    label) of counting marginals drawn as ``est`` says."""
    if mode == PREDICT_MAP:
        return _map_labels(p, est.solver)
    if mode == PREDICT_MARGINAL:
        return counting_marginals(p, est).argmax(axis=1)
    raise StructuralError(f"unknown prediction mode {mode!r}")

