"""Gumbel noise and perturb-and-MAP estimators.

The perturbed maximum  max_y ( f(y) + sum_d z_d(y_d) )  with independent
zero-mean Gumbel draws z upper-bounds the log-partition A(f) in
expectation, with equality for separable f.  Noise is a plain (D, K)
array, shaped like the unary table.  Clamps pin variables on the
unreduced model (``cuts.clamp_variables``) in one of two ways:

* per-draw clamps y_d = k, a block of (d, k) pairs under one noise draw,
  pin the perturbed tables p + z and are solved: on chains the whole
  block shares one unpinned Viterbi forward pass
  (``exact.viterbi_clamped``), and on a retained cut state of p + z
  (training's dynamic cuts, ``_cut_clamped_map``) each pin is one
  ``update_unary`` of a pinned row, undone after its solve, except a
  pin that the residual graph of the unconditional solve proves flips
  its variable alone (``DynamicCutState.flips_alone``): that row is the
  unconditional maximizer with the variable flipped, and nothing is
  solved;
* given labels, shared by many draws, pin p and zero their noise rows
  (``condition_on_given``): under the pin such a row adds a constant, so
  the labels do not change, and the pin margins, taken without the
  noise, hold for every draw.

Every solver returns labels alone (``_map_labels``), and so do both clamp
paths: they take the p + z their caller built and return the block of
clamped maximizers, once every row is checked to take its clamped label
(``_checked_block``).  A value is evaluated only where it is read, on the
unpinned perturbed tables: ``perturbed_map`` evaluates its one
maximizer, training every element's unconditional maximizer together
with its block of clamped maximizers, one call per batch, and
``estimate_A`` each draw's maximizer on that draw's perturbed tables,
through ``evaluate_potential``'s own summation kernel.  Counting the
labels of many perturbed maximizers estimates marginals, returned as a
plain (D, K) array whose rows sum to exactly 1.

All randomness comes from counter-based streams keyed on
(seed, context words), so estimates are reproducible regardless of
batching or evaluation order.  A draw that is made and consumed at once
re-keys one retained generator (``_rekeyed``) to the state a fresh
``stream`` of its key starts in, and draws the same bits without
building a generator: training's batch indices, and every Gumbel table
(``sample_noise``), a training element's or one draw of an estimator's
block (``_noise_batch``).  ``stream`` builds a generator only where one
must outlive the next draw (``synth`` keeps a chain's stream across its
features, labels and label noise).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cuts import DynamicCutState, build_cut_problem, clamp_variables
from .errors import CapacityError, InternalInvariantError, StructuralError
from .exact import (BRUTE_FORCE_GUARD, all_state_values, viterbi_clamped,
                    viterbi_map, viterbi_map_batch)
from .model import (
    CompiledPotentials,
    PairwiseModel,
    _pair_cells,
    _sum_terms,
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


_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _counter(w1: int, w2: int, w3: int) -> list[int]:
    """Philox's counter [0, w1, w2, w3], each word mod 2^64.  A word
    outside [-2^63, 2^64) raises ``OverflowError``: reduced, it would
    name another stream."""
    words = [int(w1), int(w2), int(w3)]
    if not all(-(1 << 63) <= w <= _MASK64 for w in words):
        raise OverflowError(
            f"stream words {words} must lie in [-2^63, 2^64)")
    return [0] + [w & _MASK64 for w in words]


def stream(seed: int, w1: int = 0, w2: int = 0, w3: int = 0) -> np.random.Generator:
    """Counter-based generator: identical (seed, words) always yields the
    identical stream, independent of any other stream's consumption.
    The key is seed mod 2^128 and the counter ``_counter(w1, w2, w3)``."""
    bits = np.random.Philox(key=int(seed) & _MASK128,
                            counter=np.array(_counter(w1, w2, w3),
                                             dtype=np.uint64))
    return np.random.Generator(bits)


@functools.cache
def _retained() -> np.random.Generator:
    """The generator ``_rekeyed`` re-keys, made on first use: importing
    the package does not load ``numpy.random``."""
    return np.random.Generator(np.random.Philox(0))


def _rekeyed(seed: int, w1: int, w2: int, w3: int) -> np.random.Generator:
    """The one retained generator, re-keyed to the state a fresh
    ``stream(seed, w1, w2, w3)`` starts in: key seed mod 2^128, counter
    ``_counter(w1, w2, w3)`` (which refuses what ``stream`` refuses), an
    empty buffer and no spare 32-bit half.  It draws what that stream
    draws, bit for bit, without building a Philox and the
    ``SeedSequence`` each new one makes.

    For a draw consumed at once only: the next call re-keys the same
    generator.  It is module state, so it is single-threaded; a caller
    that keeps several streams alive together (``synth``) or draws from
    threads uses ``stream``."""
    key = int(seed) & _MASK128
    rng = _retained()
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _counter(w1, w2, w3),
                  "key": [key & _MASK64, key >> 64]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return rng


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
        if self.stream_context < 0:
            # taken mod 2^64, it would name the stream of a word past 2^63
            raise StructuralError("stream_context must be >= 0")
        check_solver_name(self.solver)


def check_solver_name(solver: str) -> None:
    if solver not in SOLVERS:
        raise StructuralError(f"unknown solver {solver!r}")


def _gumbel_table(rng: np.random.Generator, model: PairwiseModel) -> np.ndarray:
    """(D, K) zero-mean Gumbel draws from ``rng``.  Uniforms are clamped
    away from {0, 1}.  ``gumbel_from_uniform``'s ufuncs, in its order, in
    place."""
    z = rng.random((model.num_vars, model.num_labels))
    np.clip(z, _U_LO, _U_HI, out=z)
    np.log(z, out=z)
    np.negative(z, out=z)
    np.log(z, out=z)
    np.negative(z, out=z)
    return np.subtract(z, EULER_GAMMA, out=z)


def condition_on_given(p: CompiledPotentials, z: np.ndarray, given
                       ) -> tuple[CompiledPotentials, np.ndarray]:
    """p with the ``given`` labels (valid indices) pinned, and a copy of
    the noise z, of shape (D, K) or (M, D, K), with their rows set to 0;
    see the module docstring for why.  With no given labels both are
    returned as they are."""
    if not given:
        return p, z
    z = z.copy()
    z[..., list(given), :] = 0.0
    return clamp_variables(p, given), z


def sample_noise(model: PairwiseModel, seed: int,
                 context: tuple[int, ...] = ()) -> np.ndarray:
    """(D, K) independent zero-mean Gumbel per (variable, label): the
    table of ``stream(seed, *words)``, up to three context words padded
    from (0, 0, TAG_NOISE), so a third names the tag; a fourth is refused.
    Drawn from the retained generator (``_rekeyed``), module state: call
    it from one thread at a time.  A context word outside [-2^63, 2^64)
    raises ``OverflowError``, as ``stream`` does."""
    context = tuple(context)
    if len(context) > 3:
        raise StructuralError(f"noise context {context} has over three words")
    words = context + (0, 0, TAG_NOISE)[len(context):]
    return _gumbel_table(_rekeyed(seed, *words), model)


# ---------------------------------------------------------------------------
# Perturbed MAP
# ---------------------------------------------------------------------------


def _check_solver(model: PairwiseModel, solver: str) -> None:
    """Refuse a model that ``solver`` cannot solve: a chain solver on
    another graph, a graph cut on more than two labels, or brute force
    past ``BRUTE_FORCE_GUARD`` joint states."""
    check_solver_name(solver)
    if solver == SOLVER_CHAIN and not model.is_chain:
        raise StructuralError("chain solver requires chain structure")
    if solver == SOLVER_GRAPHCUT and not model.is_binary:
        raise StructuralError("graphcut solver requires binary labels")
    if (solver == SOLVER_BRUTE
            and model.num_labels ** model.num_vars > BRUTE_FORCE_GUARD):
        raise CapacityError(f"state space exceeds {BRUTE_FORCE_GUARD}")


def check_solvable(solver: str, name: str, models) -> None:
    """``_check_solver`` on every model of a dataset, before any solve: a
    refusal names the dataset and the instance's index."""
    for i, model in enumerate(models):
        try:
            _check_solver(model, solver)
        except (StructuralError, CapacityError) as exc:
            raise type(exc)(f"{name}, instance {i}: {exc}") from None


def _map_labels(p: CompiledPotentials, solver: str) -> np.ndarray:
    """Labels of an exact maximizer of ``p`` with ``solver``."""
    if solver == SOLVER_CHAIN:
        return viterbi_map(p)
    if solver == SOLVER_GRAPHCUT:
        return build_cut_problem(p).solve()[0]
    states, vals = all_state_values(p)
    return states[int(np.argmax(vals))].copy()


def perturbed_map(p: CompiledPotentials, z: np.ndarray,
                  solver: str) -> tuple[np.ndarray, float]:
    """Exact maximizer of f + noise; the noise folds into the unary tables
    so every solver applies unchanged.  The returned value includes the
    noise term."""
    _check_solver(p.model, solver)
    if z.shape != p.unary.shape:
        raise StructuralError("noise shape does not match potentials")
    perturbed = p.with_unary(p.unary + z)
    y = _map_labels(perturbed, solver)
    return y, evaluate_potential(perturbed, y)


def _pinned_entries(perturbed: CompiledPotentials,
                    pairs: list[tuple[int, int]]) -> list[float]:
    """The pinned entry u_d(k) + margin_d of each (d, k) pair, read from
    one ``clamp_variables`` table per round: the pairs split, in order,
    into rounds in which each variable appears once."""
    rounds, rank, seen = [], [], {}
    for d, k in pairs:
        r = seen.get(d, 0)
        seen[d] = r + 1
        if r == len(rounds):
            rounds.append({})
        rounds[r][d] = k
        rank.append(r)
    tables = [clamp_variables(perturbed, given).unary.tolist()
              for given in rounds]
    return [tables[r][d][k] for r, (d, k) in zip(rank, pairs)]


def perturbed_conditional_map(perturbed: CompiledPotentials,
                              pairs: list[tuple[int, int]],
                              solver: str) -> np.ndarray:
    """Perturbed MAPs with y_d clamped to k, one row of an (n, D) block
    per (d, k) pair in order, all on ``perturbed`` = p + z under one noise
    draw: the perturbed tables are pinned at (d, k) and solved.  Returns
    the block of labels alone; where a row's value is read, it is its
    value on p + z less z_d(k), so that it excludes the clamped
    variable's noise.

    The chain solver runs one unpinned forward pass for all the pairs
    (``exact.viterbi_clamped``), with each pinned entry read from
    ``_pinned_entries``; its rows are Viterbi's on each pinned table, bit
    for bit.  Brute force and graph cuts solve each pinned table in turn;
    the model keeps all D variables, so brute force enumerates the full
    state space for each clamp.  Every solver, and ``_cut_clamped_map``
    on a retained cut state, pins by the same rule, so they agree bit for
    bit."""
    _check_solver(perturbed.model, solver)
    if solver == SOLVER_CHAIN:
        rows = viterbi_clamped(perturbed, pairs,
                               _pinned_entries(perturbed, pairs))
    else:
        rows = [_map_labels(clamp_variables(perturbed, {d: k}), solver)
                for d, k in pairs]
    return _checked_block(pairs, rows)


def _cut_clamped_map(state: DynamicCutState, perturbed: CompiledPotentials,
                     pairs: list[tuple[int, int]]) -> np.ndarray:
    """``perturbed_conditional_map`` on ``state``, a retained cut state
    of ``perturbed`` = p + z: each pin is one ``update_unary``, undone
    with the row of ``perturbed`` after its solve, so the search trees
    carry over between the re-solves (Kohli & Torr, PAMI 2007) and the
    state ends as it began.

    A pair (d, k) whose k is not the label of d in the state's last
    solve is first put to ``state.flips_alone(d)``, which certifies
    nothing unless that solve, of ``perturbed``, has no update since.  A
    certified pair is not pinned: its row is the last solve's labeling
    with d set to k, the labels its pinned solve would return.  All the
    certificates read the residual graph of that solve, so all are taken
    before the first pin; then the pairs left to solve, if any, read
    their pinned entries from ``_pinned_entries``, as the chain's do."""
    y_a = state.is_sink.copy()
    alone = [k != y_a[d] and state.flips_alone(d) for d, k in pairs]
    solved = [pair for pair, flip in zip(pairs, alone) if not flip]
    entries = iter(_pinned_entries(perturbed, solved))
    rows = []
    for (d, k), flip in zip(pairs, alone):
        if flip:
            row = y_a.copy()
            row[d] = k
            rows.append(row)
            continue
        pinned = perturbed.unary[d].tolist()
        pinned[k] = next(entries)
        state.update_unary(d, pinned)
        rows.append(state.solve()[0])
        state.update_unary(d, perturbed.unary[d])
    return _checked_block(pairs, rows)


def _checked_block(pairs: list[tuple[int, int]], rows: list) -> np.ndarray:
    """The clamp block, the label ``rows`` as one (n, D) array, once every
    row is checked to take its clamped label."""
    for y, (d, k) in zip(rows, pairs):
        if y[d] != k:
            raise InternalInvariantError(
                f"pinning bound failed to clamp variable {d}")
    return np.array(rows, dtype=np.int64)


# ---------------------------------------------------------------------------
# Batched solving (one model, many noise realizations)
# ---------------------------------------------------------------------------


def _noise_batch(model: PairwiseModel, cfg: EstimatorConfig,
                 tag: int) -> np.ndarray:
    """(M, D, K) noise block; sample m uses counter word m so streams
    match any per-sample evaluation order."""
    return np.stack([
        sample_noise(model, cfg.seed, (m, cfg.stream_context, tag))
        for m in range(cfg.num_samples)])


def _perturbed_map_batch(p: CompiledPotentials, znoise: np.ndarray,
                         solver: str) -> np.ndarray:
    """Labelings (M, D) of the perturbed maximizers for a block of noise;
    ``estimate_A`` evaluates them where a value is read."""
    _check_solver(p.model, solver)
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


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def estimate_A(p: CompiledPotentials, cfg: EstimatorConfig
               ) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the perturbed maximum over
    cfg.num_samples independent realizations.  Draw m's value has the bits
    of ``evaluate_potential`` on p + znoise[m]: the same kernel sums the
    draw's u + z, gathered at its labels, and the pairwise terms."""
    znoise = _noise_batch(p.model, cfg, TAG_ESTIMATE)
    labels = _perturbed_map_batch(p, znoise, cfg.solver)
    perturbed = (p.unary + znoise).reshape(cfg.num_samples, -1)
    vals = _sum_terms(
        np.take_along_axis(perturbed, labels + p.model._unary_offsets, axis=1),
        p.pairwise.take(_pair_cells(p.model, labels)))
    mean = float(np.mean(vals))
    if cfg.num_samples == 1:
        return mean, 0.0
    stderr = float(np.std(vals, ddof=1) / math.sqrt(cfg.num_samples))
    return mean, stderr


def counting_marginals(p: CompiledPotentials,
                       cfg: EstimatorConfig) -> np.ndarray:
    """(D, K) table q_d(k) = frequency of label k at variable d across
    perturbed maximizers.  Rows sum to exactly 1."""
    return conditional_counting_marginals(p, {}, cfg)


def conditional_counting_marginals(p: CompiledPotentials,
                                   given: dict[int, int],
                                   cfg: EstimatorConfig) -> np.ndarray:
    """Counting marginals with the given variables pinned in every
    perturbed solve; rows for given variables are exact one-hot."""
    p, znoise = condition_on_given(p, _noise_batch(p.model, cfg, TAG_COUNT),
                                   given)
    labels = _perturbed_map_batch(p, znoise, cfg.solver)
    counts = np.array([np.bincount(col, minlength=p.model.num_labels)
                       for col in labels.T])
    return exact_row_normalize(counts, cfg.num_samples)
