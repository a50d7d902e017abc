"""Synthetic teacher-generated datasets.

Chain data is labeled by exact sampling from the teacher distribution
(forward filter, backward sample).  Grid data is labeled by a single
perturb-and-MAP draw, which is approximate but adequate for the paired
trend experiments this generator serves.
"""

from __future__ import annotations

import numpy as np

from .errors import StructuralError
from .exact import _forward
from .gumbel import (SOLVER_GRAPHCUT, TAG_DATA, _gumbel_table, perturbed_map,
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
    values = rng.normal(size=layout.total_size) * scale
    w = WeightVector(values, layout)
    block = w.pairwise_block
    w.values[block] = np.minimum(w.values[block], 0.0)
    return w


def _ffbs_sample(p, rng: np.random.Generator) -> np.ndarray:
    """Exact joint draw from the chain Gibbs distribution."""
    model = p.model
    alphas = _forward(p)
    d_n = model.num_vars
    y = np.zeros(d_n, dtype=np.int64)
    last = alphas[-1] - alphas[-1].max()
    prob = np.exp(last)
    prob /= prob.sum()
    y[d_n - 1] = rng.choice(model.num_labels, p=prob)
    for d in range(d_n - 2, -1, -1):
        sc = alphas[d] + p.pairwise[d, :, y[d + 1]]
        sc -= sc.max()
        prob = np.exp(sc)
        prob /= prob.sum()
        y[d] = rng.choice(model.num_labels, p=prob)
    return y


def _check_numbers(teacher_scale: float, label_noise: float) -> None:
    """Generator numbers, checked before any draw."""
    if not np.isfinite(teacher_scale):
        raise StructuralError(f"teacher scale {teacher_scale} is not finite")
    if not 0.0 <= label_noise <= 1.0:
        raise StructuralError(f"label noise {label_noise} is not in [0, 1]")


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
    _check_numbers(teacher_scale, label_noise)
    layout = WeightLayout(num_labels, feat_dim, 1, PAIRWISE_FULL)
    if teacher is None:
        teacher = sample_teacher(layout, teacher_seed if teacher_seed is not None
                                 else seed, teacher_scale)
    model = chain_model(num_vars, num_labels)
    out = []
    for i in range(num):
        rng = stream(seed, i + 1, 0, TAG_DATA)
        nf = rng.normal(size=(num_vars, feat_dim))
        ef = np.ones((model.num_edges, 1))
        x = FeatureInstance(model, nf, ef)
        p = compile_potentials(teacher, x)
        y = _ffbs_sample(p, rng)
        y = _apply_label_noise(y, num_labels, label_noise, rng)
        out.append(FeatureInstance(model, nf, ef, y))
    return out, teacher


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
    _check_numbers(teacher_scale, label_noise)
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
        p = compile_potentials(teacher, x)
        y = None
        for attempt in range(100):
            cand, _ = perturbed_map(p, _gumbel_table(rng, model),
                                    SOLVER_GRAPHCUT)
            cand = _apply_label_noise(cand, model.num_labels, label_noise,
                                      rng)
            if 0 < cand.sum() < model.num_vars:
                y = cand
                break
        if y is None:
            raise StructuralError(
                "teacher produces one-sided grids; rescale the teacher")
        out.append(FeatureInstance(model, nf, ef, y))
    return out, teacher
