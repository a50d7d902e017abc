"""Input fuzzers: whatever a JSON-lines dataset, a weight file or a
generator flag holds, the command ends in a clean exit.

Small records are drawn with mixed or zero feature widths, negative or
non-finite features and volumes, bad edges, label counts that differ or
do not match num_vars, out-of-range labels, fractional or boolean indices
(num_vars, a label count, an edge endpoint or a label) and missing
fields.  Half the runs also set one of ``--lambda``, ``--kappa`` or
``--samples`` to NaN, an infinity, 1e-310 (whose inverse overflows), zero
or a negative; a run whose value is out of range must not exit 0.
Every run must exit 0 (trained), 2 (input error) or 3 (configuration
error): never 4, which is where ``main`` maps any unexpected exception,
and never with an exception escaping ``main``.

Weight files with one non-finite entry (NaN, an infinity or JSON null),
weight files of finite values whose compiled tables overflow (or, with
``--conditional``, whose pinned entries overflow or reach 2^52, where a
pin margin can be rounded away), and weight files that are truncated,
not a JSON object, without layout fields or with layout fields or
values of the wrong type, must make ``eval`` and ``marginals`` exit 2, a
lambda under which the iterates can overflow, or a run that pins an
entry of 2^52, must make ``train`` exit 3, and ``gen-synthetic`` must
exit 3 for a non-finite teacher scale or a label noise outside [0, 1];
either way no output file is written.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from gumbelmap.cli import main
from gumbelmap.datasets import write_dataset, write_weights
from gumbelmap.synth import gen_chain_dataset, gen_grid_dataset

_FIELDS = ("num_vars", "label_counts", "edges", "node_features",
           "edge_features", "labels", "volumes")

values = st.floats(-3.0, 3.0, allow_nan=False)
faults = st.sampled_from([
    None, None, None, None, "node width", "edge width", "zero width",
    "negative edge", "nan feature", "inf feature", "bad volume", "bad edge",
    "label counts", "label range", "missing label", "fractional index",
    "missing field"])


@st.composite
def records(draw):
    """A valid, fully labeled record with two node features and one edge
    feature, with at most one fault drawn into it."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(2, 3))
    edges = ([[0, 1], [0, 2], [1, 3], [2, 3]] if d == 4 and draw(st.booleans())
             else [[i, i + 1] for i in range(d - 1)])
    rec = {
        "num_vars": d,
        "label_counts": [k] * d,
        "edges": edges,
        "node_features": [[draw(values), draw(values)] for _ in range(d)],
        "edge_features": [[draw(st.floats(0.0, 2.0))] for _ in edges],
        "labels": [draw(st.integers(0, k - 1)) for _ in range(d)],
        "volumes": [draw(st.floats(0.5, 2.0)) for _ in range(d)],
    }
    fault = draw(faults)
    v = draw(st.integers(0, d - 1))
    if fault == "node width":
        rec["node_features"] = [row + [1.0] for row in rec["node_features"]]
    elif fault == "edge width" and edges:
        rec["edge_features"] = [row + [1.0] for row in rec["edge_features"]]
    elif fault == "zero width":
        field = ("edge_features" if edges and draw(st.booleans())
                 else "node_features")
        rec[field] = [[] for _ in rec[field]]
    elif fault == "negative edge" and edges:
        rec["edge_features"][0][0] = -draw(st.floats(0.1, 2.0))
    elif fault == "nan feature":
        rec["node_features"][v][0] = float("nan")
    elif fault == "inf feature" and edges:
        rec["edge_features"][0][0] = float("inf")
    elif fault == "bad volume":
        rec["volumes"][v] = draw(st.sampled_from([0.0, -1.0, float("nan")]))
    elif fault == "bad edge":
        rec["edges"] = edges + [draw(st.sampled_from([[v, v], [d, 0],
                                                      [-1, 0], [0, 1]]))]
        rec["edge_features"] = rec["edge_features"] + [[1.0]]
    elif fault == "label counts":
        options = [[k] * (d + 1), [k] * (d - 1)]
        if d > 1:
            options.append([k] * (d - 1) + [k + 1])
        rec["label_counts"] = draw(st.sampled_from(options))
    elif fault == "label range":
        rec["labels"][v] = draw(st.sampled_from([-2, k, k + 3]))
    elif fault == "missing label":
        rec["labels"][v] = None
    elif fault == "fractional index":
        # a float, whole or not, or a boolean where an integer belongs
        field = draw(st.sampled_from(["num_vars", "label_counts", "edges",
                                      "labels"]))
        index = {"num_vars": [rec, "num_vars"],
                 "label_counts": [rec["label_counts"], v],
                 "edges": [edges[0], 1] if edges else None,
                 "labels": [rec["labels"], v]}[field]
        if index is not None:
            box, key = index
            i = box[key]
            box[key] = draw(st.sampled_from([i + 0.5, float(i), i % 2 == 1]))
    elif fault == "missing field":
        del rec[draw(st.sampled_from(_FIELDS))]
    return rec


def _write(path: Path, recs) -> str:
    path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    return str(path)


@st.composite
def number_flags(draw):
    """No flag (the defaults are valid) or one number flag at an edge
    value, and whether that value is out of range."""
    if draw(st.booleans()):
        return [], False
    flag = draw(st.sampled_from(["--lambda", "--kappa", "--samples"]))
    if flag == "--samples":
        return [flag, draw(st.sampled_from(["0", "-2"]))], True
    value = draw(st.sampled_from(["nan", "inf", "-inf", "1e-310", "0",
                                  "-0.5"]))
    # kappa may be 0 or tiny; lambda must be > 0 with a finite inverse
    return [flag, value], flag == "--lambda" or value not in ("0", "1e-310")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.lists(records(), min_size=1, max_size=3),
       unlabeled=st.one_of(st.none(),
                           st.lists(records(), min_size=1, max_size=2)),
       solver=st.sampled_from(["chain", "graphcut", "brute"]),
       loss=st.sampled_from(["hamming", "weighted-hamming", "zero-one"]),
       numbers=number_flags())
def test_train_exits_cleanly(data, unlabeled, solver, loss, numbers):
    flags, out_of_range = numbers
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv = ["train", "--data", _write(work / "data.jsonl", data),
                "--solver", solver, "--loss", loss, "--iters", "2",
                "--samples", "3", "--out", str(work / "w.json"), *flags]
        if unlabeled is not None:
            argv += ["--unlabeled", _write(work / "unl.jsonl", unlabeled)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in ((2, 3) if out_of_range else (0, 2, 3)), err.getvalue()


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(bad=st.sampled_from([float("nan"), float("inf"), float("-inf"), None]),
       index=st.integers(0, 100),
       last=st.booleans(),
       command=st.sampled_from(["eval-map", "eval-marginal", "marginals"]))
def test_non_finite_weights_exit_2(bad, index, last, command):
    """One non-finite weight value is an input error, named with the file,
    before any prediction; the values after it do not matter."""
    data, teacher = gen_chain_dataset(3, 4, 2, 2, seed=5, teacher_seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_dataset(str(work / "d.jsonl"), data)
        wpath = work / "w.json"
        write_weights(str(wpath), teacher)
        doc = json.loads(wpath.read_text())
        i = len(doc["values"]) - 1 if last else index % len(doc["values"])
        doc["values"][i] = bad
        wpath.write_text(json.dumps(doc))
        code, err, out = _run_with_weights(work, wpath, command)
        assert code == 2, err
        assert str(wpath) in err and "not finite" in err
        assert not out.exists()


def _overflowing_weights(work: Path, kind: str, value: float) -> Path:
    """work/d.jsonl, three generated chains (4 variables, 2 labels) or
    3x3 grids, and a weight file of their teacher's layout with every
    value set to the finite ``value``."""
    if kind == "chain":
        data, teacher = gen_chain_dataset(3, 4, 2, 2, seed=5, teacher_seed=1)
    else:
        data, teacher = gen_grid_dataset(3, 3, 2, seed=5, teacher_seed=1)
    write_dataset(str(work / "d.jsonl"), data)
    wpath = work / "w.json"
    write_weights(str(wpath), teacher)
    doc = json.loads(wpath.read_text())
    doc["values"] = [value] * len(doc["values"])
    wpath.write_text(json.dumps(doc))
    return wpath


@pytest.mark.parametrize("command", ["eval-map", "eval-marginal",
                                     "marginals"])
@pytest.mark.parametrize("kind, value, line", [("chain", 1.5e308, 2),
                                               ("grid", -1.5e308, 1)])
def test_overflowing_tables_exit_2(kind, value, line, command):
    """A weight file of finite values whose compiled tables overflow is an
    input error naming the file and the data line, found before any solve
    (the chains' first table is finite, their second is not): no output
    and, with warnings as errors, no leaked warning."""
    solver = "chain" if kind == "chain" else "graphcut"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        wpath = _overflowing_weights(work, kind, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err, out = _run_with_weights(work, wpath, command,
                                               "--solver", solver)
        assert code == 2, err
        assert str(wpath) in err and "not finite" in err
        assert f"line {line}:" in err
        assert not out.exists()


def test_overflowing_pins_exit_2():
    """Grid weights of 5e307 compile to finite tables, but pinning a given
    label overflows: ``marginals --conditional`` is an input error with no
    output, and without ``--conditional`` the pins are not checked."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        wpath = _overflowing_weights(work, "grid", 5e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err, out = _run_with_weights(
                work, wpath, "marginals", "--solver", "graphcut",
                "--conditional")
        assert code == 2, err
        assert str(wpath) in err and "not finite" in err
        assert not out.exists()
        code, err, out = _run_with_weights(work, wpath, "marginals",
                                           "--solver", "graphcut")
        assert "not finite" not in err


def test_pins_past_2_52_exit_2():
    """Grid weights of -1e20 compile to finite tables and finite pins, but
    the pinned entries pass 2^52, where a pin margin can be rounded away
    (here a given label 1 was written as one-hot at 0): ``marginals
    --conditional`` is an input error with no output."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        wpath = _overflowing_weights(work, "grid", -1e20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err, out = _run_with_weights(
                work, wpath, "marginals", "--solver", "graphcut",
                "--conditional")
        assert code == 2, err
        assert str(wpath) in err and "2^52" in err
        assert not out.exists()


@pytest.mark.parametrize("kind, solver, loss", [
    ("chain", "chain", "hamming"), ("chain", "chain", "zero-one"),
    ("grid", "graphcut", "weighted-hamming")])
def test_overflowing_lambda_exits_3(kind, solver, loss):
    """``train --lambda 1e-300`` lets the iterates reach about 1e302, whose
    squared norm overflows: a configuration error before any solve, with
    no weights file and, with warnings as errors, no leaked warning."""
    if kind == "chain":
        data, _ = gen_chain_dataset(5, 4, 2, 2, seed=5, teacher_seed=1)
    else:
        data, _ = gen_grid_dataset(3, 4, 2, seed=5, teacher_seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_dataset(str(work / "d.jsonl"), data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = _run(["train", "--data", str(work / "d.jsonl"),
                              "--solver", solver, "--loss", loss,
                              "--lambda", "1e-300", "--iters", "2",
                              "--out", str(work / "w.json")])
        assert code == 3, err
        assert "overflow" in err
        assert not (work / "w.json").exists()


def test_lambda_that_rounds_away_a_pin_exits_3():
    """At lambda 1e-20 the iterates stay finite but pinned table entries
    pass 2^52, where the + 1 of a pin margin is lost and a clamped solve
    can return another label: a configuration error at the first such
    pin (exit 4 from a failed pin check before), with no weights file.
    Lambda 1e-10 on the same grids still trains, and so does the zero-one
    loss at 1e-20 on chains, which pins nothing."""
    data, _ = gen_grid_dataset(3, 4, 4, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_dataset(str(work / "d.jsonl"), data)
        argv = ["train", "--data", str(work / "d.jsonl"), "--solver",
                "graphcut", "--iters", "50", "--out", str(work / "w.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = _run(argv + ["--lambda", "1e-20"])
        assert code == 3, err
        assert "pin margin" in err
        assert not (work / "w.json").exists()
        code, err = _run(argv + ["--lambda", "1e-10"])
        assert code == 0, err
        assert (work / "w.json").exists()
        chains, _ = gen_chain_dataset(3, 6, 3, 2, seed=0, teacher_seed=1)
        write_dataset(str(work / "c.jsonl"), chains)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = _run(["train", "--data", str(work / "c.jsonl"),
                              "--loss", "zero-one", "--lambda", "1e-20",
                              "--iters", "50", "--out", str(work / "z.json")])
        assert code == 0, err
        assert (work / "z.json").exists()


def _run_with_weights(work: Path, wpath: Path, command: str, *flags: str):
    """Exit code, standard error and output path of ``command`` run on
    work/d.jsonl with the weight file ``wpath`` and extra ``flags``."""
    out = work / "out.json"
    argv = ["--data", str(work / "d.jsonl"), "--weights", str(wpath),
            "--samples", "3", "--out", str(out), *flags]
    if command == "marginals":
        argv = ["marginals", *argv]
    else:
        argv = ["eval", "--mode", command.split("-")[1], *argv]
    code, err = _run(argv)
    return code, err, out


def _spoil(text: str, case: str, cut: float) -> str:
    """A weight file's text spoiled in the way ``case`` names."""
    if case == "truncated":
        body = text.rstrip()
        return body[:int(cut * len(body))]
    doc = json.loads(text)
    if case == "top-level-list":
        return json.dumps(doc["values"])
    if case == "no-layout":
        return json.dumps({"format": doc["format"], "values": [1.0]})
    field, value = {
        "dim-string": ("num_labels", "2"),
        "dim-bool": ("node_feat_dim", True),
        "dim-float": ("edge_feat_dim", 1.0),
        "dim-out-of-range": ("num_labels", 1),
        "form-number": ("pairwise_form", 3),
        "values-string": ("values", "1.0"),
        "values-object": ("values", {"0": 1.0}),
        "values-nested": ("values", [doc["values"]]),
        "values-text-entry": ("values", ["1.0"] + doc["values"][1:]),
        "values-short": ("values", doc["values"][:-1]),
        "values-huge": ("values", [10 ** 400] + doc["values"][1:]),
    }[case]
    doc[field] = value
    return json.dumps(doc)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["truncated", "top-level-list", "no-layout",
                             "dim-string", "dim-bool", "dim-float",
                             "dim-out-of-range", "form-number",
                             "values-string", "values-object",
                             "values-nested", "values-text-entry",
                             "values-short", "values-huge"]),
       cut=st.floats(0.0, 1.0, exclude_max=True),
       command=st.sampled_from(["eval-map", "eval-marginal", "marginals"]))
def test_malformed_weight_files_exit_2(case, cut, command):
    """A weight file that is not JSON, not an object, lacks its layout
    fields, or holds layout fields or values of the wrong type or size is
    an input error named with the file, not an internal error."""
    data, teacher = gen_chain_dataset(3, 4, 2, 2, seed=5, teacher_seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_dataset(str(work / "d.jsonl"), data)
        wpath = work / "w.json"
        write_weights(str(wpath), teacher)
        wpath.write_text(_spoil(wpath.read_text(), case, cut))
        code, err, out = _run_with_weights(work, wpath, command)
        assert code == 2, err
        assert str(wpath) in err
        assert not out.exists()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["chain", "grid"]),
       flag=st.sampled_from(["--teacher-scale", "--label-noise"]),
       value=st.sampled_from(["nan", "inf", "-inf", "-0.5", "-1e-300",
                              "1.5", "2", "0", "1", "0.25"]))
def test_generator_numbers_checked(kind, flag, value):
    """A non-finite teacher scale or a label noise outside [0, 1] exits 3
    with no dataset written; every other value generates."""
    v = float(value)
    bad = (not math.isfinite(v) if flag == "--teacher-scale"
           else not 0.0 <= v <= 1.0)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "d.jsonl"
        shape = (["--vars", "4"] if kind == "chain" else ["--side", "3"])
        code, err = _run(["gen-synthetic", "--kind", kind, "--num", "2",
                          *shape, f"{flag}={value}", "--out", str(out)])
        if bad:
            assert code == 3, err
            assert not out.exists()
            assert not Path(str(out) + ".teacher.json").exists()
        else:
            # a grid teacher may be too one-sided to label: exit 3
            assert code in ((0,) if kind == "chain" else (0, 3)), err
