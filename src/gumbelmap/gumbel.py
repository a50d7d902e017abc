"""Gumbel noise and perturb-and-MAP estimators.

The perturbed maximum  max_y ( f(y) + sum_d z_d(y_d) )  with independent
zero-mean Gumbel draws z upper-bounds the log-partition A(f) in
expectation, with equality for separable f.  Noise is a plain (D, K)
array, shaped like the unary table.  Clamps pin variables on the
unreduced model (``cuts.clamp_variables``) in one of two ways:

* a per-draw clamp of y_d = k pins the perturbed tables p + z, solves
  them and returns the value on p + z less z_d(k);
* given labels, shared by many draws, pin p and zero their noise rows:
  under the pin such a row adds a constant, so the labels do not change,
  and the pin margins, taken without the noise, hold for every draw.

Every solver returns labels alone (``_map_labels``).  A value is
evaluated only where it is read, on the unpinned perturbed tables:
``perturbed_map`` and ``perturbed_conditional_map`` evaluate their one
maximizer, and ``estimate_A`` sums its draws' values over the tables and
the noise.  Counting the labels of many perturbed maximizers estimates
marginals, returned as a plain (D, K) array whose rows sum to exactly 1.

All randomness comes from counter-based streams keyed on
(seed, context words), so estimates are reproducible regardless of
batching or evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cuts import build_cut_problem, clamp_variables
from .errors import InternalInvariantError, StructuralError
from .exact import all_state_values, viterbi_map, viterbi_map_batch
from .model import (
    CompiledPotentials,
    PairwiseModel,
    evaluate_potential,
    exact_row_normalize,
)

EULER_GAMMA = 0.5772156649015329
_U_LO = 2.0 ** -53
_U_HI = 1.0 - 2.0 ** -53

SOLVER_CHAIN = "chain"
SOLVER_GRAPHCUT = "graphcut"
SOLVER_BRUTE = "brute"
SOLVERS = (SOLVER_CHAIN, SOLVER_GRAPHCUT, SOLVER_BRUTE)  # and the CLI choices

# context tags keep independent purposes on disjoint Philox counters
TAG_NOISE = 1
TAG_ESTIMATE = 2
TAG_COUNT = 3
TAG_BATCH = 4
TAG_DATA = 5


def stream(seed: int, w1: int = 0, w2: int = 0, w3: int = 0) -> np.random.Generator:
    """Counter-based generator: identical (seed, words) always yields the
    identical stream, independent of any other stream's consumption."""
    key = int(seed) & ((1 << 128) - 1)
    bits = np.random.Philox(key=key, counter=[0, int(w1), int(w2), int(w3)])
    return np.random.Generator(bits)


def gumbel_from_uniform(u):
    """Zero-mean Gumbel via the inverse CDF of exp(-exp(-(z + c)))."""
    return -np.log(-np.log(u)) - EULER_GAMMA


@dataclass(frozen=True)
class EstimatorConfig:
    num_samples: int
    seed: int
    solver: str = SOLVER_BRUTE
    stream_context: int = 0  # extra counter word, e.g. an instance index

    def __post_init__(self):
        if self.num_samples < 1:
            raise StructuralError("num_samples must be >= 1")
        check_solver_name(self.solver)


def check_solver_name(solver: str) -> None:
    if solver not in SOLVERS:
        raise StructuralError(f"unknown solver {solver!r}")


def _gumbel_table(rng: np.random.Generator, model: PairwiseModel) -> np.ndarray:
    """(D, K) zero-mean Gumbel draws from ``rng``.  Uniforms are clamped
    away from {0, 1}."""
    u = np.clip(rng.random((model.num_vars, model.num_labels)), _U_LO, _U_HI)
    return gumbel_from_uniform(u)


def zero_given_rows(values: np.ndarray, given) -> np.ndarray:
    """A copy of noise of shape (D, K) or (M, D, K) with the rows of
    the ``given`` variables (valid indices) set to 0; see the module
    docstring for why."""
    out = values.copy()
    out[..., list(given), :] = 0.0
    return out


def sample_noise(model: PairwiseModel, seed: int,
                 context: tuple[int, ...] = ()) -> np.ndarray:
    """(D, K) independent zero-mean Gumbel per (variable, label);
    deterministic given (seed, context)."""
    words = tuple(context) + (0, 0)
    rng = stream(seed, words[0], words[1], TAG_NOISE)
    return _gumbel_table(rng, model)


# ---------------------------------------------------------------------------
# Perturbed MAP
# ---------------------------------------------------------------------------


def _check_solver(p: CompiledPotentials, solver: str) -> None:
    check_solver_name(solver)
    if solver == SOLVER_CHAIN and not p.model.is_chain:
        raise StructuralError("chain solver requires chain structure")
    if solver == SOLVER_GRAPHCUT and not p.model.is_binary:
        raise StructuralError("graphcut solver requires binary labels")


def _map_labels(p: CompiledPotentials, solver: str) -> np.ndarray:
    """Labels of an exact maximizer of ``p`` with ``solver``."""
    if solver == SOLVER_CHAIN:
        return viterbi_map(p)
    if solver == SOLVER_GRAPHCUT:
        return build_cut_problem(p).solve()[0]
    states, vals = all_state_values(p)
    return states[int(np.argmax(vals))].copy()


def _perturbed(p: CompiledPotentials, z: np.ndarray,
               solver: str) -> CompiledPotentials:
    """p + z, once ``solver`` and the noise shape are checked against p."""
    _check_solver(p, solver)
    if z.shape != p.unary.shape:
        raise StructuralError("noise shape does not match potentials")
    return p.with_unary(p.unary + z)


def perturbed_map(p: CompiledPotentials, z: np.ndarray,
                  solver: str) -> tuple[np.ndarray, float]:
    """Exact maximizer of f + noise; the noise folds into the unary tables
    so every solver applies unchanged.  The returned value includes the
    noise term."""
    perturbed = _perturbed(p, z, solver)
    y = _map_labels(perturbed, solver)
    return y, evaluate_potential(perturbed, y)


def perturbed_conditional_map(p: CompiledPotentials, d: int, k: int,
                              z: np.ndarray, solver: str
                              ) -> tuple[np.ndarray, float]:
    """Perturbed MAP with y_d clamped to k: the perturbed tables p + z are
    pinned at (d, k) and solved.  Returns the labeling and its value on
    p + z less z_d(k), so the value excludes the clamped variable's noise.
    Every solver follows this one rule, so they agree bit for bit.  The
    model keeps all D variables, so the brute-force solver enumerates the
    full state space for each clamp."""
    perturbed = _perturbed(p, z, solver)
    y = _map_labels(clamp_variables(perturbed, {d: k}), solver)
    if y[d] != k:
        raise InternalInvariantError(
            f"pinning bound failed to clamp variable {d}")
    return y, evaluate_potential(perturbed, y) - z[d, k]


# ---------------------------------------------------------------------------
# Batched solving (one model, many noise realizations)
# ---------------------------------------------------------------------------


def _noise_batch(model: PairwiseModel, cfg: EstimatorConfig,
                 tag: int) -> np.ndarray:
    """(M, D, K) noise block; sample m uses counter word m so streams
    match any per-sample evaluation order."""
    return np.stack([
        _gumbel_table(stream(cfg.seed, m, cfg.stream_context, tag), model)
        for m in range(cfg.num_samples)])


def _perturbed_map_batch(p: CompiledPotentials, znoise: np.ndarray,
                         solver: str) -> np.ndarray:
    """Labelings (M, D) of the perturbed maximizers for a block of noise;
    ``_batch_values`` evaluates them where a value is read."""
    _check_solver(p, solver)
    if solver == SOLVER_CHAIN:
        return viterbi_map_batch(p.unary[None, :, :] + znoise, p.pairwise)
    if solver == SOLVER_BRUTE:
        states, base = all_state_values(p)
        scores = np.broadcast_to(base, (znoise.shape[0], base.shape[0])).copy()
        for d in range(p.model.num_vars):
            scores += znoise[:, d, states[:, d]]
        return states[np.argmax(scores, axis=1)]
    # graphcut: solve each realization on one state; a draw replaces the
    # unary table, keeping the flow and regrowing the search trees
    labels = np.zeros((znoise.shape[0], p.model.num_vars), dtype=np.int64)
    state = None
    for i, z in enumerate(znoise):
        pert_u = p.unary + z
        if state is None:
            state = build_cut_problem(p.with_unary(pert_u))
        else:
            state.replace_unary(pert_u)
        labels[i] = state.solve()[0]
    return labels


def _batch_values(p: CompiledPotentials, labels: np.ndarray,
                  znoise: np.ndarray) -> np.ndarray:
    """(M,) values of labeling m on p + znoise[m]: from 0.0, each
    variable's u + z, then each edge's term, in the order of
    ``evaluate_potential`` on the perturbed tables."""
    m, d_n = labels.shape
    vals = np.zeros(m)
    rows = np.arange(m)
    for d in range(d_n):
        vals += p.unary[d, labels[:, d]] + znoise[rows, d, labels[:, d]]
    ea = p.model.edge_array()
    for e in range(p.model.num_edges):
        vals += p.pairwise[e, labels[:, ea[e, 0]], labels[:, ea[e, 1]]]
    return vals


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def estimate_A(p: CompiledPotentials, cfg: EstimatorConfig
               ) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the perturbed maximum over
    cfg.num_samples independent realizations."""
    znoise = _noise_batch(p.model, cfg, TAG_ESTIMATE)
    vals = _batch_values(p, _perturbed_map_batch(p, znoise, cfg.solver),
                         znoise)
    mean = float(np.mean(vals))
    if cfg.num_samples == 1:
        return mean, 0.0
    stderr = float(np.std(vals, ddof=1) / math.sqrt(cfg.num_samples))
    return mean, stderr


def counting_marginals(p: CompiledPotentials,
                       cfg: EstimatorConfig) -> np.ndarray:
    """(D, K) table q_d(k) = frequency of label k at variable d across
    perturbed maximizers.  Rows sum to exactly 1."""
    znoise = _noise_batch(p.model, cfg, TAG_COUNT)
    labels = _perturbed_map_batch(p, znoise, cfg.solver)
    return _count_table(labels, p.model, cfg.num_samples)


def _count_table(labels: np.ndarray, model: PairwiseModel,
                 m: int) -> np.ndarray:
    counts = np.array([np.bincount(col, minlength=model.num_labels)
                       for col in labels.T])
    return exact_row_normalize(counts, m)


def conditional_counting_marginals(p: CompiledPotentials,
                                   given: dict[int, int],
                                   cfg: EstimatorConfig) -> np.ndarray:
    """Counting marginals with the given variables pinned in every
    perturbed solve; rows for given variables are exact one-hot."""
    znoise = _noise_batch(p.model, cfg, TAG_COUNT)
    if given:
        p = clamp_variables(p, given)
        znoise = zero_given_rows(znoise, given)
    labels = _perturbed_map_batch(p, znoise, cfg.solver)
    return _count_table(labels, p.model, cfg.num_samples)
