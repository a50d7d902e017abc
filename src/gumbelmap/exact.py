"""Exact inference: brute-force enumeration and chain dynamic programming.

Everything here runs in log-space with max-shift stabilization.  Ties are
broken toward lexicographically smallest labelings (brute force) or the
smallest label index at each backtracking step (Viterbi), so comparisons
between solvers should use objective values, not labelings.

``viterbi_map`` is an interpreted kernel, like ``_bk.py``: it converts the
unary and pairwise tables with one ``tolist()`` each and runs max-product
over Python lists.  On the small tables the paper's chains use, numpy's
per-call overhead, not arithmetic, is the cost, so one 8x3 solve takes
about 15 us against 50-70 us for the numpy body it replaced.  It is exact:
Python floats are IEEE doubles, and each step forms ``msg[l] + t[l][k]``
and then ``u[k] + best`` in the same order as the numpy recursion, so
messages, backpointers and labels are bit-identical.  Ties: the scan over
``l`` is ascending with a strict ``>``, and the last label is
``msg.index(max(msg))``, so each step keeps the smallest maximizing label,
as ``np.argmax`` does.  ``viterbi_map_batch`` stays in numpy, because it is
vectorised across noise draws, and is the reference the tie rule is tested
against.  The cost grows as K^2 interpreted additions: at D = 8 the list
kernel loses to numpy from about K = 8-10 (58-68 us against 54-77 us) and
takes 470-550 us against 80-90 us at K = 26 (2-core x86 host, Python 3.11).
No workload trains a chain with K > 3, so there is no switch on K.
The steps are one helper, ``_max_product``, shared with the clamp oracle
below, which also keeps each step's maxima; that made an 8x3 solve about
1-2.5 us slower than the inlined loop (13-15 us before).

``viterbi_clamped`` solves every clamp y_d = k of one perturbed chain
from one unpinned forward pass.  A pin raises u_d(k) alone, so Viterbi
on the pinned table computes the same messages before d and the same
pointers up to d; at d only entry k differs, and it is the pinned entry
plus the unpinned step's maximum at k, added in the same order.  The
oracle keeps the unpinned messages, maxima and pointers, sets that one
entry, re-runs ``_max_product`` from d + 1 and backtracks the suffix over
its own pointers and the prefix over the shared ones, so no clamp reads
the shared pass past the last clamped variable, where it stops.  Every
float operation is the one ``viterbi_map`` makes on the pinned table, in
the same order, so labels are bit-identical by construction, ties
included.  The pinned entries come from ``cuts.clamp_variables``, the one
way to pin a variable (see ``gumbel.perturbed_conditional_map``).

The sum-product side has one forward pass, ``_forward``, over one chain
or chains stacked on leading axes, each row bit for bit its chain alone:
``forward_log_partition`` reads A(f) off its last message,
``_forward_backward`` adds the backward pass for marginals, and
``synth.gen_chain_dataset`` samples backward from the alphas alone.

Every log-sum-exp here, in enumeration and in the forward and backward
sums, is ``logsumexp``, written in numpy so that the runtime needs numpy
alone: importing ``scipy.special`` for it cost each process about 0.3 s
and 18 MB, half of a benchmark run's set-up.  It takes the steps of
SciPy 1.17's ``logsumexp`` for real input, in the same order: the
maximum ``a_max``, the count ``m`` of entries equal to it, the sum ``s``
of ``exp(a - a_max)`` over the other entries, then
``log1p(s / m) + log(m) + a_max``, with ``log(sum(exp(a)))`` where that is
not finite.  Following those steps keeps every A(f), marginal and sampled
label bit-identical to the SciPy-based code, and keeps them from moving
with the SciPy installed.  It is exact in that sense: against SciPy
1.17.1 it agreed to the bit, signed zeros included, on about 20,000
arrays (scaled reals, small integers with ties, infinities, NaN and
-1e308) over every axis, and ``tests/test_exact.py`` holds a golden of
its bits and a comparison with SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, StructuralError
from .model import CompiledPotentials, PairwiseModel

BRUTE_FORCE_GUARD = 2 ** 20


@dataclass
class ExactInferenceResult:
    log_partition: float
    map_labeling: np.ndarray
    map_value: float
    marginals: np.ndarray  # (D, K)


def logsumexp(a, axis=None):
    """log(sum(exp(a))) over ``axis`` (every axis when None), in the steps
    of SciPy 1.17's ``logsumexp`` for real input (see the module
    docstring): the maximal entries are counted, not exponentiated."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = np.max(a, axis=axes, keepdims=True)
        top = a == a_max
        m = np.sum(top, axis=axes, keepdims=True, dtype=np.float64)
        s = np.sum(np.exp(np.where(top, -np.inf, a) - a_max), axis=axes,
                   keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    # an infinite or NaN entry (or an all -inf slice) leaves log, exp and
    # their IEEE rules to decide the result
    bad = ~np.isfinite(out)
    if bad.any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            direct = np.log(np.sum(np.exp(a), axis=axes, keepdims=True))
        out = np.where(bad, direct, out)
    out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------

_STATE_TABLE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def state_table(num_vars: int, num_labels: int) -> np.ndarray:
    """(K^D, D) array of all joint labelings in lexicographic order
    (variable 0 most significant)."""
    key = (num_vars, num_labels)
    cached = _STATE_TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    n = num_labels ** num_vars
    if n > BRUTE_FORCE_GUARD:
        raise CapacityError(f"state space exceeds {BRUTE_FORCE_GUARD}")
    states = np.zeros((n, num_vars), dtype=np.int64)
    rep = n
    for i in range(num_vars):
        rep //= num_labels
        tile = n // (rep * num_labels)
        states[:, i] = np.tile(np.repeat(np.arange(num_labels), rep), tile)
    _STATE_TABLE_CACHE[key] = states
    return states


def all_state_values(p: CompiledPotentials) -> tuple[np.ndarray, np.ndarray]:
    """(states, f-values) over the full joint space, each summed in
    ``evaluate_potential``'s order, so with its bits."""
    states = state_table(p.model.num_vars, p.model.num_labels)
    vals = np.zeros(states.shape[0])
    for d in range(p.model.num_vars):
        vals += p.unary[d, states[:, d]]
    for e, (i, j) in enumerate(p.model.edges):
        vals += p.pairwise[e, states[:, i], states[:, j]]
    return states, vals


def brute_force(p: CompiledPotentials) -> ExactInferenceResult:
    """Exact enumeration of A(f), the MAP (and its value), and all unary
    marginals."""
    states, vals = all_state_values(p)
    log_z = float(logsumexp(vals))
    best = int(np.argmax(vals))  # first occurrence = lexicographically smallest
    probs = np.exp(vals - log_z)
    q = np.array([np.bincount(col, weights=probs, minlength=p.model.num_labels)
                  for col in states.T])
    return ExactInferenceResult(
        log_partition=log_z,
        map_labeling=states[best].copy(),
        map_value=float(vals[best]),
        marginals=q,
    )


# ---------------------------------------------------------------------------
# Chain dynamic programming
# ---------------------------------------------------------------------------


def _require_chain(model: PairwiseModel) -> None:
    if not model.is_chain:
        raise StructuralError("operation requires chain structure")


def _max_product(msg: list, unary: list, pairwise: list, labels: range
                 ) -> tuple[list, list, list]:
    """Max-product steps over lists from the message ``msg``, one per row
    of ``unary`` and ``pairwise``.  Per step, for each label k: the first
    l maximizing msg[l] + t[l][k] (an ascending scan with a strict ``>``),
    that maximum, and u[k] plus it, the next message.  Returns every
    message, ``msg`` first, and each step's maxima and pointers."""
    rest = labels[1:]
    msgs, bests, backptr = [msg], [], []
    for u, t in zip(unary, pairwise):
        m0, t0 = msg[0], t[0]
        bp, step, nxt = [], [], []
        for k in labels:
            arg, best = 0, m0 + t0[k]
            for l in rest:
                v = msg[l] + t[l][k]
                if v > best:
                    arg, best = l, v
            bp.append(arg)
            step.append(best)
            nxt.append(u[k] + best)
        backptr.append(bp)
        bests.append(step)
        msgs.append(nxt)
        msg = nxt
    return msgs, bests, backptr


def _backtrack(msg: list, backptr: list) -> list:
    """Labels of the chain whose last message is ``msg``: its first
    maximizing label, then each step's pointer, last step first."""
    y = [0] * (len(backptr) + 1)
    y[-1] = k = msg.index(max(msg))
    for d in reversed(range(len(backptr))):
        y[d] = k = backptr[d][k]
    return y


def viterbi_map(p: CompiledPotentials) -> np.ndarray:
    """Exact MAP for a chain by max-product over Python lists; ties toward
    the smallest label index at each step (see the module docstring)."""
    _require_chain(p.model)
    unary = p.unary.tolist()
    msgs, _, backptr = _max_product(unary[0], unary[1:], p.pairwise.tolist(),
                                    range(p.model.num_labels))
    return np.array(_backtrack(msgs[-1], backptr), dtype=np.int64)


def viterbi_clamped(p: CompiledPotentials, pairs: list[tuple[int, int]],
                    pinned: list[float]) -> list[list[int]]:
    """(n, D) block, as a list of label rows, whose row i is
    ``viterbi_map`` of ``p`` with u_d(k) replaced by ``pinned[i]``, for
    the i-th pair (d, k): the labels of the clamp y_d = k when
    ``pinned[i]`` is its pinned entry u_d(k) + margin_d.

    One unpinned forward pass is shared by every pair (see the module
    docstring): its messages before d and its pointers up to d are the
    pinned pass's; entry k of message d becomes ``pinned[i]`` plus the
    step's maximum at k, and the steps after d run again.  The shared
    pass stops at the last clamped variable, since no row reads its
    messages or pointers past that."""
    _require_chain(p.model)
    unary = p.unary.tolist()
    pairwise = p.pairwise.tolist()
    labels = range(p.model.num_labels)
    last = max((d for d, _ in pairs), default=0)
    msgs, bests, backptr = _max_product(unary[0], unary[1:last + 1],
                                        pairwise[:last], labels)
    rows = []
    for (d, k), entry in zip(pairs, pinned):
        msg = msgs[d].copy()
        msg[k] = entry if d == 0 else entry + bests[d - 1][k]
        tail, _, suffix = _max_product(msg, unary[d + 1:], pairwise[d:],
                                       labels)
        rows.append(_backtrack(tail[-1], backptr[:d] + suffix))
    return rows


def _forward(unary: np.ndarray, pairwise: np.ndarray) -> list[np.ndarray]:
    """Log-space forward messages of ``unary`` (..., D, K) and ``pairwise``
    (..., D-1, K, K) over any leading batch axes: ``alphas[d][..., k]`` is
    the log-sum of the potential of y_0..y_d over prefixes with y_d = k."""
    alpha = unary[..., 0, :]
    alphas = [alpha]
    for d in range(1, unary.shape[-2]):
        trans = alpha[..., :, None] + pairwise[..., d - 1, :, :]
        alpha = unary[..., d, :] + logsumexp(trans, axis=-2)
        alphas.append(alpha)
    return alphas


def forward_log_partition(p: CompiledPotentials) -> float:
    """Exact A(f) for a chain via the log-space forward recursion."""
    _require_chain(p.model)
    return float(logsumexp(_forward(p.unary, p.pairwise)[-1]))


def _forward_backward(p: CompiledPotentials):
    d_n = p.model.num_vars
    alphas = _forward(p.unary, p.pairwise)
    log_z = float(logsumexp(alphas[-1]))
    beta = np.zeros(p.model.num_labels)
    betas = [beta] * d_n
    for d in range(d_n - 2, -1, -1):
        trans = p.pairwise[d] + p.unary[d + 1][None, :] + beta[None, :]
        beta = logsumexp(trans, axis=1)
        betas[d] = beta
    return alphas, betas, log_z


def forward_backward_marginals(p: CompiledPotentials) -> np.ndarray:
    """Exact (D, K) unary marginals for a chain."""
    _require_chain(p.model)
    alphas, betas, log_z = _forward_backward(p)
    rows = [np.exp(a + b - log_z) for a, b in zip(alphas, betas)]
    return np.array([row / row.sum() for row in rows])


# ---------------------------------------------------------------------------
# Batched chain solvers (vectorized over noise realizations)
# ---------------------------------------------------------------------------

def viterbi_map_batch(unary: np.ndarray, pairwise: np.ndarray) -> np.ndarray:
    """Viterbi over a batch: ``unary`` is (M, D, K), ``pairwise`` is
    (D-1, K, K) shared across the batch.  Returns (M, D) labelings with
    the same tie-break rule as viterbi_map."""
    m, d_n, k = unary.shape
    msg = unary[:, 0, :]  # (M, K)
    backptr = np.zeros((d_n - 1, m, k), dtype=np.int64) if d_n > 1 else None
    for d in range(1, d_n):
        scores = msg[:, :, None] + pairwise[d - 1][None, :, :]  # (M, K, K)
        bp = np.argmax(scores, axis=1)  # (M, K)
        backptr[d - 1] = bp
        msg = unary[:, d, :] + np.take_along_axis(scores, bp[:, None, :], axis=1)[:, 0, :]
    y = np.zeros((m, d_n), dtype=np.int64)
    y[:, d_n - 1] = np.argmax(msg, axis=1)
    for d in range(d_n - 1, 0, -1):
        y[:, d - 1] = backptr[d - 1][np.arange(m), y[:, d]]
    return y
