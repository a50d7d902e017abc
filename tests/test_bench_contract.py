"""The names the benchmark traces still exist.

bench/spec.json wraps functions and methods of the package by name, and the
benchmark reads two attributes of DynamicCutState after each solve.  Its
solve counter wraps ``DynamicCutState.solve`` as a method of ``self``
alone, and grid-marginals drives ``update_unary`` once per variable with a
row.  A rename or a new signature fails here instead of in a traced
benchmark run.
"""

import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from gumbelmap.cuts import DynamicCutState, build_cut_problem, clamp_variables
from gumbelmap.model import CompiledPotentials, chain_model

SPEC = Path(__file__).resolve().parents[1] / "bench" / "spec.json"


def _span_targets() -> list[str]:
    spec = json.loads(SPEC.read_text())
    return sorted({target for layer in spec["layers"]
                   for targets in layer["spans"].values()
                   for target in targets})


@pytest.mark.parametrize("target", _span_targets())
def test_span_target_resolves(target):
    """``module:attr`` is in the module namespace; ``module:Class.method``
    is on the class."""
    mod_name, attr = target.split(":")
    owner = importlib.import_module(mod_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
        assert isinstance(owner, type), f"{part} in {target} is not a class"
    assert callable(getattr(owner, name))


def test_cut_state_exposes_traced_attributes():
    pairwise = np.zeros((1, 2, 2))
    pairwise[0, 0, 0] = pairwise[0, 1, 1] = 1.0
    state = build_cut_problem(CompiledPotentials(
        chain_model(2, 2), np.array([[0.0, 1.0], [1.0, 0.0]]), pairwise))
    assert state.solved is False
    state.solve()
    assert state.solved is True
    assert isinstance(state.last_augmentations, int)


def test_cut_state_call_signatures():
    """``solve()`` takes only ``self`` and returns ``(labels, value)``;
    ``update_unary(d, row)`` accepts a list row."""
    assert list(inspect.signature(DynamicCutState.solve).parameters) == [
        "self"]
    pairwise = np.zeros((1, 2, 2))
    pairwise[0, 0, 0] = pairwise[0, 1, 1] = 1.0
    state = build_cut_problem(CompiledPotentials(
        chain_model(2, 2), np.array([[0.0, 1.0], [1.0, 0.0]]), pairwise))
    state.solve()
    state.update_unary(1, [0.0, 3.0])
    labels, value = state.solve()
    assert labels.tolist() == [1, 1] and value == 5.0


def test_clamp_variables_keeps_the_model():
    """The ``cuts.clamp`` span wraps ``clamp_variables``: it takes
    ``(potentials, given)`` and returns potentials on the same model."""
    pairwise = np.zeros((1, 2, 2))
    p = CompiledPotentials(chain_model(2, 2), np.zeros((2, 2)), pairwise)
    pinned = clamp_variables(p, {1: 0})
    assert isinstance(pinned, CompiledPotentials)
    assert pinned.model is p.model
