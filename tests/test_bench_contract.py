"""The names the benchmark traces still exist.

bench/spec.json wraps functions and methods of the package by name, and the
benchmark reads two attributes of DynamicCutState after each solve.  Its
solve counter wraps ``DynamicCutState.solve`` as a method of ``self``
alone, and grid-marginals drives ``update_unary`` once per draw, with the
whole table.  A rename or a new signature fails here instead of in a traced
benchmark run, and so does a change that stops calling a span spec.json
predicts calls for, or starts calling one it predicts is bypassed.
"""

import importlib
import inspect
import json
import sys
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


def _count_spans(monkeypatch, phase: list) -> dict[str, int]:
    """Every span of spec.json wrapped in a call counter, by identity in
    every loaded ``gumbelmap`` module (so from-imports are caught) and on
    its class for a method, as the benchmark's tracer wraps them.  A call
    counts only in the phases spec.json's ``span_phases`` gives its layer;
    ``phase[0]`` names the current one."""
    spec = json.loads(SPEC.read_text())
    phases = spec["span_phases"]
    calls: dict[str, int] = {}
    for layer in spec["layers"]:
        counted_in = phases.get(layer["layer"], phases["default"])
        for span, targets in layer["spans"].items():
            calls[span] = 0
            for target in targets:
                mod_name, attr = target.split(":")
                owner = importlib.import_module(mod_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, name)

                def counted(*args, _fn=fn, _span=span, _in=counted_in,
                            **kwargs):
                    calls[_span] += phase[0] in _in
                    return _fn(*args, **kwargs)

                if path:
                    monkeypatch.setattr(owner, name, counted)
                    continue
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("gumbelmap"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            monkeypatch.setattr(mod, key, counted)
    return calls


def _run_small(workload: str, work: Path, phase: list) -> None:
    """A small run of the benchmark workload's command: its set-up (data
    generated and written), then its ``gumbelmap`` call, the run."""
    from gumbelmap import cli, datasets, synth
    from gumbelmap.model import FeatureInstance

    def strip(x, keep=()):
        labels = np.full(x.model.num_vars, -1)
        labels[list(keep)] = x.labels[list(keep)]
        return FeatureInstance(x.model, x.node_features, x.edge_features,
                               labels, x.node_volumes)

    if workload == "chain-hamming":
        data, _ = synth.gen_chain_dataset(20, 8, 3, 4, seed=1, teacher_seed=7)
        datasets.write_dataset(str(work / "train.jsonl"), data)
        argv = ["train", "--data", str(work / "train.jsonl"), "--solver",
                "chain", "--loss", "hamming", "--lambda", "0.05",
                "--iters", "20", "--batch", "5"]
    elif workload == "grid-semisup":
        grids, _ = synth.gen_grid_dataset(6, 6, 3, seed=1,
                                          teacher_seed=1009)
        datasets.write_dataset(str(work / "labeled.jsonl"), grids[:2])
        datasets.write_dataset(str(work / "unlabeled.jsonl"),
                               [strip(grids[2], range(0, 36, 3))]
                               + [strip(x) for x in grids[3:]])
        argv = ["train", "--data", str(work / "labeled.jsonl"),
                "--unlabeled", str(work / "unlabeled.jsonl"),
                "--solver", "graphcut", "--loss", "weighted-hamming",
                "--lambda", "0.1", "--iters", "10", "--batch", "2",
                "--kappa", "1", "--samples", "10"]
    else:
        grids, teacher = synth.gen_grid_dataset(2, 8, 3, seed=1,
                                                teacher_seed=1006)
        datasets.write_dataset(str(work / "data.jsonl"),
                               [strip(grids[0]), strip(grids[1], range(16))])
        datasets.write_weights(str(work / "teacher.json"), teacher)
        argv = ["marginals", "--data", str(work / "data.jsonl"),
                "--weights", str(work / "teacher.json"), "--conditional",
                "--solver", "graphcut", "--samples", "10"]
    out = "marginals.jsonl" if workload == "grid-marginals" else "w.json"
    phase[0] = "run"
    assert cli.main(argv + ["--seed", "1", "--out", str(work / out)]) == 0


@pytest.mark.parametrize("workload", ["chain-hamming", "grid-semisup",
                                      "grid-marginals"])
def test_spec_call_predictions_hold(workload, tmp_path, monkeypatch, capsys):
    """On a small run of each workload, every span of spec.json's
    ``moves`` rows for it is called and every ``zero_calls`` span of its
    ``bypass`` rows is not: the check the benchmark's traced runs make,
    at tier 1."""
    phase = ["setup"]
    calls = _count_spans(monkeypatch, phase)
    _run_small(workload, tmp_path, phase)
    spec = json.loads(SPEC.read_text())
    for layer in spec["layers"]:
        for move in layer["moves"]:
            if move["workload"] == workload:
                for span in move["spans"]:
                    assert calls[span] > 0, (span, move["metric"])
        for bypass in layer["bypass"]:
            if (bypass["workload"] == workload
                    and bypass["expect"] == "zero_calls"):
                for span in bypass["spans"]:
                    assert calls[span] == 0, span
