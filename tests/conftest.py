import numpy as np
import pytest

from gumbelmap.errors import StructuralError
from gumbelmap.exact import all_state_values, logsumexp
from gumbelmap.model import (CompiledPotentials, chain_model,
                             compile_potentials, grid_model)
from gumbelmap.training import (TrainCounters, _batch_sums, _label_table,
                                _solve_element)


def zero_potentials(model):
    k = model.num_labels
    return CompiledPotentials(model, np.zeros((model.num_vars, k)),
                              np.zeros((model.num_edges, k, k)))


def brute_force_clamped(p, d, k):
    """(log-partition, max value, argmax labeling) over states with y_d = k.

    The log-partition is B(f, y_d = k); the max is the conditional MAP value
    max_{y_{-d}} f(y_{-d} | y_d = k) including u_d(k).
    """
    if not 0 <= k < p.model.num_labels:
        raise StructuralError(f"label {k} out of range at variable {d}")
    states, vals = all_state_values(p)
    mask = states[:, d] == k
    sub = vals[mask]
    best = int(np.argmax(sub))
    return float(logsumexp(sub)), float(sub[best]), states[mask][best].copy()


def random_chain_potentials(rng, num_vars=None, num_labels=None, scale=1.0):
    d = int(rng.integers(2, 9)) if num_vars is None else num_vars
    k = int(rng.integers(2, 4)) if num_labels is None else num_labels
    model = chain_model(d, k)
    unary = rng.normal(size=(d, k)) * scale
    pairwise = rng.normal(size=(d - 1, k, k)) * scale
    return CompiledPotentials(model, unary, pairwise)


def random_supermodular_grid(rng, rows=None, cols=None, scale=1.0):
    r = int(rng.integers(1, 4)) if rows is None else rows
    c = int(rng.integers(1, 5)) if cols is None else cols
    model = grid_model(r, c)
    unary = rng.normal(size=(model.num_vars, 2)) * scale
    pairwise = rng.normal(size=(model.num_edges, 2, 2)) * scale
    if model.num_edges:
        gap = (pairwise[:, 0, 0] + pairwise[:, 1, 1]
               - pairwise[:, 0, 1] - pairwise[:, 1, 0])
        lift = np.maximum(-gap, 0.0) + rng.random(model.num_edges) * 0.5
        pairwise[:, 0, 0] += lift / 2
        pairwise[:, 1, 1] += lift / 2
    return CompiledPotentials(model, unary, pairwise)


def element(x, weights, given, p, z, solver, dynamic, acceleration, layout,
            counters):
    """Gradient and objective estimate of one element under the noise z:
    training's per-element path, as a batch of one."""
    solved = _solve_element(x, weights, given, p, z, solver, dynamic,
                            acceleration, counters)
    grads, objs = _batch_sums([solved], layout)
    return grads[0], objs[0]


def frozen_noise_objective(w, x, y, z, loss_spec, solver):
    """Value and analytic gradient of the per-element marginal objective at
    one fixed noise realization: piecewise linear in w, so away from
    argmax-switch boundaries the gradient matches finite differences."""
    grad, obj = element(x, _label_table(x, y, loss_spec), {},
                        compile_potentials(w, x), z, solver, False, True,
                        w.layout, TrainCounters())
    return obj, grad


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
