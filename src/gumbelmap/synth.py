"""Synthetic teacher-generated datasets.

Chain data is labeled by exact sampling from the teacher distribution
(forward filter, backward sample), for all chains of a call at once and
bit-identical to one ``Generator.choice`` per chain and variable.  Grid
data is labeled by a single perturb-and-MAP draw, which is approximate
but adequate for the paired trend experiments this generator serves.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalInvariantError, StructuralError
from .exact import _forward
from .gumbel import (SOLVER_GRAPHCUT, TAG_DATA, _gumbel_table, _map_labels,
                     stream)
from .model import (
    FeatureInstance,
    PAIRWISE_FULL,
    PAIRWISE_POTTS,
    WeightLayout,
    WeightVector,
    chain_model,
    compile_potentials,
    grid_model,
)


def sample_teacher(layout: WeightLayout, seed: int,
                   scale: float = 1.0) -> WeightVector:
    """Gaussian teacher weights with the pairwise block clamped <= 0 so the
    model stays cut-solvable (with non-negative edge features)."""
    rng = stream(seed, 0, 0, TAG_DATA)
    with np.errstate(over="ignore"):  # an overflow is refused below
        values = rng.normal(size=layout.total_size) * scale
    _require_finite("teacher weights", values)
    w = WeightVector(values, layout)
    block = w.pairwise_block
    w.values[block] = np.minimum(w.values[block], 0.0)
    return w


def _check_numbers(num: int, teacher_scale: float, label_noise: float):
    """Generator numbers, checked before any draw."""
    if num < 0:
        raise StructuralError(f"instance count {num} is negative")
    if not np.isfinite(teacher_scale):
        raise StructuralError(f"teacher scale {teacher_scale} is not finite")
    if not 0.0 <= label_noise <= 1.0:
        raise StructuralError(f"label noise {label_noise} is not in [0, 1]")


def _require_finite(what: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise StructuralError(f"{what} not finite; rescale the teacher")


def _inverse_cdf_draw(scores: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One label per row of ``scores`` (N, K), drawn from exp(row) with the
    uniform ``u[n]`` in the steps of ``Generator.choice(K, p=prob)``."""
    prob = np.exp(scores - scores.max(axis=1, keepdims=True))
    prob /= prob.sum(axis=1, keepdims=True)
    cdf = np.cumsum(prob, axis=1)
    cdf /= cdf[:, -1:]
    if np.isnan(cdf).any():  # NaN compares false: it would read as label 0
        raise InternalInvariantError("NaN in a sampling distribution")
    # choice's searchsorted(u, side="right") on the nondecreasing cdf
    return np.count_nonzero(cdf <= u[:, None], axis=1)


def _apply_label_noise(y: np.ndarray, num_labels: int, noise: float,
                       rng: np.random.Generator) -> np.ndarray:
    if noise <= 0:
        return y
    out = y.copy()
    flips = rng.random(y.shape[0]) < noise
    for d in np.nonzero(flips)[0]:
        shift = rng.integers(1, num_labels)
        out[d] = (out[d] + shift) % num_labels
    return out


def gen_chain_dataset(num: int, num_vars: int, num_labels: int,
                      feat_dim: int, seed: int,
                      teacher: WeightVector | None = None,
                      teacher_seed: int | None = None,
                      teacher_scale: float = 1.0,
                      label_noise: float = 0.0
                      ) -> tuple[list[FeatureInstance], WeightVector]:
    """Chains with Gaussian node features, a constant scalar edge feature,
    full label-pair transition weights, and exactly sampled labels."""
    _check_numbers(num, teacher_scale, label_noise)
    layout = WeightLayout(num_labels, feat_dim, 1, PAIRWISE_FULL)
    if teacher is None:
        teacher = sample_teacher(layout, teacher_seed if teacher_seed is not None
                                 else seed, teacher_scale)
    model = chain_model(num_vars, num_labels)
    k, e = num_labels, model.num_edges
    rngs = [stream(seed, i + 1, 0, TAG_DATA) for i in range(num)]
    xs = [FeatureInstance(model, rng.normal(size=(num_vars, feat_dim)),
                          np.ones((e, 1))) for rng in rngs]
    # variable D-1 draws first, so u[:, d] holds variable d's uniforms
    u = np.reshape([r.random(num_vars)[::-1] for r in rngs], (num, num_vars))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        ps = [compile_potentials(teacher, x) for x in xs]
        unary = np.reshape([p.unary for p in ps], (num, num_vars, k))
        pairwise = np.reshape([p.pairwise for p in ps], (num, e, k, k))
        alphas = _forward(unary, pairwise)
    _require_finite("chain tables or forward sums", unary, pairwise, *alphas)
    y = np.empty((num, num_vars), dtype=np.int64)
    y[:, -1] = _inverse_cdf_draw(alphas[-1], u[:, -1])
    for d in range(num_vars - 2, -1, -1):
        nxt = pairwise[np.arange(num), d, :, y[:, d + 1]]
        y[:, d] = _inverse_cdf_draw(alphas[d] + nxt, u[:, d])
    return [FeatureInstance(model, x.node_features, x.edge_features,
                            _apply_label_noise(row, k, label_noise, rng))
            for x, row, rng in zip(xs, y, rngs)], teacher


def gen_grid_dataset(num: int, side: int, feat_dim: int, seed: int,
                     teacher: WeightVector | None = None,
                     teacher_seed: int | None = None,
                     teacher_scale: float = 1.0,
                     label_noise: float = 0.0
                     ) -> tuple[list[FeatureInstance], WeightVector]:
    """Binary grids with the disagreement pairwise form and standard-normal
    node features.  Labels come from one perturbed-MAP draw per instance
    (approximate sampler); one-sided labelings are redrawn so the
    volume-balanced loss stays defined."""
    _check_numbers(num, teacher_scale, label_noise)
    layout = WeightLayout(2, feat_dim, 1, PAIRWISE_POTTS)
    if teacher is None:
        teacher = sample_teacher(layout, teacher_seed if teacher_seed is not None
                                 else seed, teacher_scale)
    model = grid_model(side, side)
    out = []
    for i in range(num):
        rng = stream(seed, i + 1, 0, TAG_DATA)
        nf = rng.normal(size=(model.num_vars, feat_dim))
        ef = np.ones((model.num_edges, 1))
        x = FeatureInstance(model, nf, ef)
        with np.errstate(over="ignore"):  # refused below
            p = compile_potentials(teacher, x)
        _require_finite("teacher potentials", p.unary, p.pairwise)
        for attempt in range(100):
            z = _gumbel_table(rng, model)
            y = _map_labels(p.with_unary(p.unary + z), SOLVER_GRAPHCUT)
            y = _apply_label_noise(y, model.num_labels, label_noise, rng)
            if 0 < y.sum() < model.num_vars:
                break
        else:
            raise StructuralError(
                "teacher produces one-sided grids; rescale the teacher")
        out.append(FeatureInstance(model, nf, ef, y))
    return out, teacher
