"""CLI subcommands: determinism, exit codes, and output contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gumbelmap import cli
from gumbelmap.cli import main
from gumbelmap.datasets import read_dataset, read_weights, write_dataset
from gumbelmap.model import FeatureInstance, LossSpec, HAMMING, loss as eval_loss
from gumbelmap.gumbel import EstimatorConfig
from gumbelmap.training import predict


def run(argv):
    return main(argv)


def _never(*args, **kwargs):
    raise AssertionError("called after a configuration error")


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "chain.jsonl"
    rc = run(["gen-synthetic", "--kind", "chain", "--num", "30", "--vars", "6",
              "--labels", "3", "--feat-dim", "3", "--teacher-seed", "5",
              "--seed", "1", "--out", str(path)])
    assert rc == 0
    return str(path)


@pytest.fixture(scope="module")
def grid_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "grid.jsonl"
    rc = run(["gen-synthetic", "--kind", "grid", "--num", "8", "--side", "4",
              "--feat-dim", "3", "--teacher-seed", "5", "--seed", "2",
              "--out", str(path)])
    assert rc == 0
    return str(path)


class TestGenSynthetic:
    def test_empty_dataset_is_valid(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        assert run(["gen-synthetic", "--kind", "chain", "--num", "0",
                    "--vars", "4", "--labels", "2", "--out", str(out)]) == 0
        assert read_dataset(str(out)) == []

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["gen-synthetic", "--kind", "chain", "--num", "5", "--vars", "5",
                "--labels", "2", "--feat-dim", "2", "--teacher-seed", "3",
                "--seed", "9"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_shape_flag(self, tmp_path):
        rc = run(["gen-synthetic", "--kind", "chain", "--num", "1",
                  "--out", str(tmp_path / "x.jsonl")])
        assert rc == 3

    @pytest.mark.parametrize("flags", [
        ["--kind", "chain", "--num", "3", "--vars", "4",
         "--teacher-scale", "1e308"],
        ["--kind", "grid", "--num", "3", "--side", "4",
         "--teacher-scale", "1e308"],
        ["--kind", "chain", "--num", "-1", "--vars", "4"],
        ["--kind", "grid", "--num", "-1", "--side", "4"],
        # finite tables, but the cut network of each draw overflows
        ["--kind", "grid", "--num", "3", "--side", "4",
         "--teacher-scale", "1e307"],
    ])
    def test_refusal_exit_3_writes_nothing(self, tmp_path, capsys, flags):
        """An overflowing teacher scale, a teacher whose cut network
        overflows and a negative count are configuration errors, refused
        before any file is written."""
        out = tmp_path / "x.jsonl"
        assert run(["gen-synthetic", *flags, "--out", str(out)]) == 3
        assert "configuration error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestImports:
    def test_cli_loads_no_scipy(self):
        """The runtime needs numpy alone: a fresh interpreter that imports
        the CLI has no scipy module loaded."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, gumbelmap.cli; print(sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestArguments:
    def test_unknown_option_returns_2(self, capsys):
        assert run(["train", "--pairwise-form", "full"]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert run(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestTrain:
    def test_deterministic_artifacts(self, chain_file, tmp_path):
        w1, w2 = tmp_path / "w1.json", tmp_path / "w2.json"
        args = ["train", "--data", chain_file, "--loss", "hamming",
                "--lambda", "0.1", "--iters", "120", "--batch", "2",
                "--solver", "chain", "--seed", "3"]
        assert run(args + ["--out", str(w1)]) == 0
        assert run(args + ["--out", str(w2)]) == 0
        assert w1.read_bytes() == w2.read_bytes()
        manifest = json.loads((tmp_path / "w1.json.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert chain_file in manifest["datasets"]

    def test_malformed_dataset_exit_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"num_vars": 3}\n')
        rc = run(["train", "--data", str(bad), "--out", str(tmp_path / "w.json")])
        assert rc == 2

    @pytest.mark.parametrize("field,value", [("volumes", float("nan")),
                                             ("node_features", float("inf"))])
    def test_non_finite_input_exit_2(self, grid_file, tmp_path, capsys,
                                     field, value):
        """A NaN volume or an Infinity feature is rejected at load, with
        the line number, before any weights are written."""
        lines = Path(grid_file).read_text().splitlines()
        rec = json.loads(lines[2])
        if field == "volumes":
            rec["volumes"][0] = value
        else:
            rec["node_features"][1][0] = value
        lines[2] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "w.json"
        rc = run(["train", "--data", str(bad), "--loss", "weighted-hamming",
                  "--solver", "graphcut", "--iters", "3", "--out", str(out)])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("which", ["data", "unlabeled"])
    def test_mixed_feature_widths_exit_2(self, grid_file, tmp_path, capsys,
                                         which):
        """An instance whose node features are wider than the first one's
        is an input error at its line and file, in the labeled and in the
        unlabeled file, before any weights are written."""
        lines = Path(grid_file).read_text().splitlines()
        rec = json.loads(lines[2])
        rec["node_features"] = [row + [0.5] for row in rec["node_features"]]
        lines[2] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        files = {"data": grid_file, "unlabeled": grid_file, which: str(bad)}
        out = tmp_path / "w.json"
        rc = run(["train", "--data", files["data"], "--unlabeled",
                  files["unlabeled"], "--loss", "hamming", "--solver",
                  "graphcut", "--iters", "3", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == (f"input error: line 3: node feature dim 4 != 3 in "
                       f"{bad}\n")
        assert not out.exists()

    def test_negative_edge_feature_graphcut_exit_2(self, grid_file, tmp_path,
                                                   capsys):
        """Graph-cut training with a negative edge feature is refused at
        load with the line number, not found mid-run as a supermodularity
        violation."""
        lines = Path(grid_file).read_text().splitlines()
        rec = json.loads(lines[1])
        rec["edge_features"][4][0] = -0.25
        lines[1] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "w.json"
        rc = run(["train", "--data", str(bad), "--solver", "graphcut",
                  "--iters", "3", "--out", str(out)])
        assert rc == 2
        assert "line 2: negative edge feature" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("counts", ["unequal", "short"])
    def test_label_counts_exit_2(self, grid_file, tmp_path, capsys, counts):
        """A record whose label_counts entries differ, or whose list is not
        num_vars long, is an input error at its line: every variable of a
        model has the same label count."""
        lines = Path(grid_file).read_text().splitlines()
        rec = json.loads(lines[2])
        if counts == "unequal":
            rec["label_counts"][5] = 3
        else:
            rec["label_counts"] = rec["label_counts"][1:]
        lines[2] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "w.json"
        rc = run(["train", "--data", str(bad), "--solver", "graphcut",
                  "--iters", "3", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "input error: line 3: label_counts must hold 16 equal entries\n")
        assert not out.exists()

    @pytest.mark.parametrize("solver,form", [("graphcut", "potts"),
                                             ("brute", "full")])
    def test_pairwise_form_follows_solver(self, grid_file, tmp_path, solver,
                                          form):
        out = tmp_path / "w.json"
        rc = run(["train", "--data", grid_file, "--solver", solver,
                  "--iters", "2", "--samples", "2", "--out", str(out)])
        assert rc == 0
        assert read_weights(str(out)).layout.pairwise_form == form

    def test_unreadable_data_path_exit_2(self, tmp_path):
        """A path that cannot be read as a file is an input error, not an
        internal one."""
        rc = run(["train", "--data", str(tmp_path), "--out",
                  str(tmp_path / "w.json")])
        assert rc == 2

    def test_unexpected_error_exit_4(self, grid_file, tmp_path, capsys,
                                     monkeypatch):
        """An exception outside the listed error types ends in exit 4 and
        one ``internal error:`` line, not a traceback."""
        def broken(args):
            raise RuntimeError("solver state corrupted")

        monkeypatch.setattr(cli, "cmd_train", broken)
        rc = run(["train", "--data", grid_file, "--out",
                  str(tmp_path / "w.json")])
        assert rc == 4
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: solver state corrupted\n"

    @pytest.mark.parametrize("flags", [
        ["--lambda", "nan"], ["--lambda", "inf"], ["--lambda", "1e-310"],
        ["--kappa", "nan", "--unlabeled", "GRID"],
        ["--kappa", "inf", "--unlabeled", "GRID"],
        ["--samples", "0", "--unlabeled", "GRID"],
        ["--data", "CHAIN"]])
    def test_unsolvable_config_exit_3_before_training(
            self, grid_file, chain_file, tmp_path, capsys, monkeypatch, flags):
        """Non-finite numbers, no inference samples and graph cuts on
        3-label chains are configuration errors found when the config is
        built: no training starts and no weights are written."""
        monkeypatch.setattr(cli, "train", _never)
        monkeypatch.setattr(cli, "train_semisupervised", _never)
        out = tmp_path / "w.json"
        files = {"GRID": grid_file, "CHAIN": chain_file}
        rc = run(["train", "--data", grid_file, "--solver", "graphcut",
                  "--iters", "3", "--out", str(out)]
                 + [files.get(f, f) for f in flags])
        assert rc == 3
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists()

    def test_solver_structure_mismatch_exit_3(self, grid_file, tmp_path):
        rc = run(["train", "--data", grid_file, "--solver", "chain",
                  "--iters", "3", "--out", str(tmp_path / "w.json")])
        assert rc == 3

    def test_semisupervised_path(self, grid_file, tmp_path):
        data = read_dataset(grid_file)
        unl = tmp_path / "unl.jsonl"
        write_dataset(str(unl), [
            FeatureInstance(x.model, x.node_features, x.edge_features)
            for x in data[4:]])
        lab = tmp_path / "lab.jsonl"
        write_dataset(str(lab), data[:4])
        rc = run(["train", "--data", str(lab), "--unlabeled", str(unl),
                  "--loss", "hamming", "--solver", "graphcut", "--iters", "30",
                  "--batch", "2", "--samples", "20", "--kappa", "1.0",
                  "--seed", "4", "--out", str(tmp_path / "w.json")])
        assert rc == 0

    def test_semisupervised_zero_one_exit_3(self, grid_file, tmp_path):
        """Zero-one loss with unlabeled data is a configuration error,
        raised before any training: no weights are written."""
        data = read_dataset(grid_file)
        unl = tmp_path / "unl.jsonl"
        write_dataset(str(unl), [
            FeatureInstance(x.model, x.node_features, x.edge_features)
            for x in data[4:]])
        lab = tmp_path / "lab.jsonl"
        write_dataset(str(lab), data[:4])
        out = tmp_path / "w.json"
        rc = run(["train", "--data", str(lab), "--unlabeled", str(unl),
                  "--loss", "zero-one", "--solver", "graphcut", "--iters", "5",
                  "--out", str(out)])
        assert rc == 3
        assert not out.exists()

    def test_error_after_blank_line_reports_file_line(self, grid_file,
                                                      tmp_path, capsys):
        """Blank lines hold no record, so an error names the line of the
        file, not the number of the record."""
        lines = Path(grid_file).read_text().splitlines()
        rec = json.loads(lines[2])
        rec["node_features"] = [row + [0.5] for row in rec["node_features"]]
        lines[2] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[:1] + [""] + lines[1:]) + "\n")
        rc = run(["train", "--data", str(bad), "--iters", "3",
                  "--out", str(tmp_path / "w.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"input error: line 4: node feature dim 4 != 3 in {bad}\n")

    @pytest.mark.parametrize("solver", ["chain", "graphcut", "brute"])
    def test_edgeless_dataset_trains_and_evaluates(self, tmp_path, solver):
        """Single-variable instances have no edges: the layout gets edge
        width 1 and its pairwise block stays exactly 0."""
        data = tmp_path / "single.jsonl"
        data.write_text("".join(json.dumps({
            "num_vars": 1, "label_counts": [2], "edges": [],
            "node_features": [[1.0, 0.25 * i]], "edge_features": [],
            "labels": [i % 2], "volumes": [1.0]}) + "\n" for i in range(6)))
        out = tmp_path / "w.json"
        rc = run(["train", "--data", str(data), "--solver", solver,
                  "--iters", "20", "--out", str(out)])
        assert rc == 0
        w = read_weights(str(out))
        assert np.isfinite(w.values).all()
        assert not w.values[w.pairwise_block].any()
        assert run(["eval", "--data", str(data), "--weights", str(out),
                    "--solver", solver]) == 0


class TestEval:
    def test_ground_truth_oracle_zero_loss(self, tmp_path):
        """A dataset labeled by the predictor itself evaluates to 0."""
        src = tmp_path / "src.jsonl"
        assert run(["gen-synthetic", "--kind", "chain", "--num", "10",
                    "--vars", "5", "--labels", "3", "--feat-dim", "2",
                    "--teacher-seed", "8", "--seed", "8", "--out", str(src)]) == 0
        w = read_weights(str(src) + ".teacher.json")
        data = read_dataset(str(src))
        est = EstimatorConfig(100, 0, "chain", stream_context=1)
        relabeled = [
            FeatureInstance(x.model, x.node_features, x.edge_features,
                            predict(w, x, "map", est))
            for x in data]
        oracle = tmp_path / "oracle.jsonl"
        write_dataset(str(oracle), relabeled)
        rc = run(["eval", "--data", str(oracle), "--weights",
                  str(src) + ".teacher.json", "--loss", "hamming",
                  "--mode", "map", "--solver", "chain"])
        assert rc == 0
        # independent check of the zero loss
        total = sum(eval_loss(LossSpec(HAMMING), x.labels,
                              predict(w, x, "map", est))
                    for x in relabeled)
        assert total == 0.0

    def test_random_weights_near_half_on_balanced_binary(self, tmp_path, capsys):
        src = tmp_path / "bin.jsonl"
        assert run(["gen-synthetic", "--kind", "chain", "--num", "40",
                    "--vars", "8", "--labels", "2", "--feat-dim", "2",
                    "--teacher-seed", "1", "--seed", "1", "--out", str(src)]) == 0
        capsys.readouterr()
        rc = run(["eval", "--data", str(src), "--weights",
                  str(src) + ".teacher.json", "--loss", "hamming",
                  "--mode", "marginal", "--samples", "50", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        rec = json.loads(out[-1])
        assert rec["metric"] == "hamming_mean"
        # teacher predictions on its own samples: clearly better than chance
        assert rec["value"] < 0.5

    def test_unlabeled_eval_exit_2(self, tmp_path):
        src = tmp_path / "u.jsonl"
        assert run(["gen-synthetic", "--kind", "chain", "--num", "3",
                    "--vars", "4", "--labels", "2", "--feat-dim", "2",
                    "--teacher-seed", "2", "--seed", "3", "--out", str(src)]) == 0
        data = read_dataset(str(src))
        stripped = tmp_path / "stripped.jsonl"
        write_dataset(str(stripped), [
            FeatureInstance(x.model, x.node_features, x.edge_features)
            for x in data])
        rc = run(["eval", "--data", str(stripped), "--weights",
                  str(src) + ".teacher.json"])
        assert rc == 2

    def test_trained_beats_untrained_paired(self, tmp_path):
        """Across seeds, trained weights evaluate strictly better than the
        zero (untrained) weights."""
        import gumbelmap.model as M
        from gumbelmap.datasets import write_weights

        def est(i):
            return EstimatorConfig(200, 0, "chain", stream_context=i + 1)

        wins = 0
        for s in range(10):
            src = tmp_path / f"d{s}.jsonl"
            assert run(["gen-synthetic", "--kind", "chain", "--num", "30",
                        "--vars", "6", "--labels", "3", "--feat-dim", "3",
                        "--teacher-seed", str(50 + s), "--seed", str(50 + s),
                        "--out", str(src)]) == 0
            wfile = tmp_path / f"w{s}.json"
            assert run(["train", "--data", str(src), "--loss", "hamming",
                        "--lambda", "0.1", "--iters", "250", "--batch", "2",
                        "--solver", "chain", "--seed", str(s),
                        "--out", str(wfile)]) == 0
            w = read_weights(str(wfile))
            zero = M.zero_weights(w.layout)
            zfile = tmp_path / f"z{s}.json"
            write_weights(str(zfile), zero)
            data = read_dataset(str(src))
            lt = np.mean([eval_loss(LossSpec(HAMMING), x.labels,
                                    predict(w, x, "marginal", est(i)))
                          for i, x in enumerate(data)])
            lz = np.mean([eval_loss(LossSpec(HAMMING), x.labels,
                                    predict(zero, x, "marginal", est(i)))
                          for i, x in enumerate(data)])
            wins += int(lt < lz)
        assert wins == 10


class TestMarginals:
    def test_rows_sum_to_one(self, chain_file, tmp_path):
        out = tmp_path / "m.jsonl"
        wfile = tmp_path / "w.json"
        assert run(["train", "--data", chain_file, "--iters", "30",
                    "--solver", "chain", "--seed", "1", "--out", str(wfile)]) == 0
        assert run(["marginals", "--data", chain_file, "--weights", str(wfile),
                    "--samples", "64", "--solver", "chain", "--seed", "2",
                    "--out", str(out)]) == 0
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            for row in rec["marginals"]:
                assert sum(row) == 1.0

    def test_single_sample_one_hot(self, chain_file, tmp_path):
        out = tmp_path / "m1.jsonl"
        wfile = tmp_path / "w.json"
        assert run(["train", "--data", chain_file, "--iters", "10",
                    "--solver", "chain", "--seed", "1", "--out", str(wfile)]) == 0
        assert run(["marginals", "--data", chain_file, "--weights", str(wfile),
                    "--samples", "1", "--solver", "chain", "--seed", "2",
                    "--out", str(out)]) == 0
        rec = json.loads(out.read_text().splitlines()[0])
        for row in rec["marginals"]:
            assert sorted(row)[-1] == 1.0 and sum(row) == 1.0

    def test_zero_weights_uniform(self, chain_file, tmp_path):
        from gumbelmap.datasets import write_weights
        import gumbelmap.model as M
        data = read_dataset(chain_file)
        layout = M.WeightLayout(3, 3, 1)
        zfile = tmp_path / "z.json"
        write_weights(str(zfile), M.zero_weights(layout))
        out = tmp_path / "mu.jsonl"
        assert run(["marginals", "--data", chain_file, "--weights", str(zfile),
                    "--samples", "3000", "--solver", "chain", "--seed", "5",
                    "--out", str(out)]) == 0
        rec = json.loads(out.read_text().splitlines()[0])
        se = np.sqrt((1 / 3) * (2 / 3) / 3000)
        for row in rec["marginals"]:
            assert np.all(np.abs(np.asarray(row) - 1 / 3) <= 4 * se)


class TestBenchDynamic:
    @pytest.mark.parametrize("stepsize", ["nan", "0"])
    def test_bad_stepsize_exit_3_before_data(self, monkeypatch, stepsize):
        monkeypatch.setattr(cli, "gen_grid_dataset", _never)
        assert run(["bench-dynamic", "--stepsize", stepsize,
                    "--iters", "2"]) == 3

    def test_variants_agree_and_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = run(["bench-dynamic", "--side", "4", "--iters", "60",
                  "--train-size", "2", "--feat-dim", "2", "--seed", "3",
                  "--out", str(out)])
        assert rc == 0
        lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
        traj = [r for r in lines if r["metric"] == "trajectory_max_diff"][0]
        assert traj["value"] <= 1e-9
        bench = {r["variant"]: r for r in lines
                 if r["metric"] == "bench_seconds"}
        assert set(bench) == {"basic", "DC", "GR", "DC+GR"}
        # solve-count ordering: skipping only ever removes solves
        def solves(v):
            return bench[v]["map_solves"] + bench[v]["clamp_solves"]
        assert solves("DC+GR") <= solves("GR") <= solves("basic")
        assert bench["GR"]["clamp_skipped"] > 0
