"""One repeat of one benchmark workload, in a process of its own.

    python3 bench/workload.py --workload NAME --seed N --trace 0|1 --work DIR

The process imports gumbelmap, generates the workload's inputs from the
seed and writes them as JSON-lines files (set-up), then drives the
``gumbelmap`` command in-process through ``gumbelmap.cli.main`` (the timed
run).  Afterwards it evaluates the output with ``gumbelmap eval`` or from the
written tables and runs the correctness checks.  With ``--trace 1`` it then
repeats set-up and run with every layer's public functions wrapped in
spans (see spans.py and spec.json), and checks that the traced pass gives
the same outputs and counters as the untraced one.

The last line of standard output is one JSON object with the timings,
counters, digests, check counts and (traced) per-layer metrics.  run.py
starts this process, aggregates repeats and prints the benchmark result.
"""

from __future__ import annotations

import os

# one thread everywhere, before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

_T0 = time.perf_counter()
import numpy as np  # noqa: E402

import gumbelmap.cli as cli  # noqa: E402
from gumbelmap import datasets, synth  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import scipy  # noqa: E402
from gumbelmap import _bk  # noqa: E402
from gumbelmap.cuts import build_cut_problem  # noqa: E402
from gumbelmap.exact import brute_force, viterbi_map  # noqa: E402
from gumbelmap.model import (  # noqa: E402
    FeatureInstance,
    compile_potentials,
    evaluate_potential,
)

from spans import Tracer  # noqa: E402

SPEC = json.loads((Path(__file__).with_name("spec.json")).read_text())

# The teachers are fixed per workload so that only the data varies with the
# seed; test losses then stay comparable from seed to seed.  Both grid
# teachers have a negative (cut-coupling) pairwise weight, so BK does real
# work; the marginals teacher couples less (-1.34 against -1.70), so its
# loss against one sampled labeling averages over more independent pixels.
CHAIN_TEACHER_SEED = 7
SEMISUP_TEACHER_SEED = 1009
MARGINALS_TEACHER_SEED = 1006
TEST_SEED_OFFSET = 1_000_000


class Checks:
    """Counts operations (timed CLI calls and checked outputs) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}"[:600])
        return ok


def run_cli(argv: list[str], checks: Checks) -> str:
    """Run one gumbelmap command in-process; return what it printed."""
    out, err = io.StringIO(), io.StringIO()
    code: object = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed operation
            err.write(traceback.format_exc())
    checks.check(f"gumbelmap {argv[0]} exits 0", code == 0,
                 f"exit {code!r}; {err.getvalue()[-400:]}")
    return out.getvalue()


def emitted_metric(stdout: str, suffix: str) -> float:
    for line in stdout.splitlines():
        rec = json.loads(line)
        if rec.get("metric", "").endswith(suffix):
            return float(rec["value"])
    return float("nan")


def sha256_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def strip_labels(x: FeatureInstance, keep: np.ndarray | None = None
                 ) -> FeatureInstance:
    """x with every label unobserved except those at ``keep``."""
    labels = np.full(x.model.num_vars, -1, dtype=np.int64)
    if keep is not None:
        labels[keep] = x.labels[keep]
    return FeatureInstance(x.model, x.node_features, x.edge_features, labels,
                           x.node_volumes)


def write_and_reread(path: Path, instances: list[FeatureInstance]) -> None:
    datasets.write_dataset(str(path), instances)
    back = datasets.read_dataset(str(path))
    if len(back) != len(instances):
        raise RuntimeError(f"{path.name}: wrote {len(instances)} instances, "
                           f"read {len(back)}")


def flip_optimal(p, y: np.ndarray) -> tuple[bool, str]:
    """True when no single-variable flip of the binary labeling y scores
    higher under evaluate_potential (up to rounding)."""
    base = evaluate_potential(p, y)
    tol = 1e-9 * (1.0 + abs(base))
    flipped = y.copy()
    for d in range(y.shape[0]):
        flipped[d] = 1 - y[d]
        val = evaluate_potential(p, flipped)
        flipped[d] = y[d]
        if val > base + tol:
            return False, f"flip of variable {d} gains {val - base:.3e}"
    return True, ""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class TrainingWorkload:
    """Shared evaluation of the training workloads: finite weights, the
    held-out loss of ``eval --mode map``, and a digest of the averaged
    weights."""

    loss = "hamming"
    solver = "graphcut"

    def evaluate(self, ctx: dict, checks: Checks) -> dict:
        wpath = ctx["dir"] / "weights.json"
        doc = json.loads(wpath.read_text())
        values = np.asarray(doc["values"], dtype=np.float64)
        last = np.asarray(doc.get("last_values", []), dtype=np.float64)
        checks.check("written weights are finite",
                     bool(np.all(np.isfinite(values))
                          and np.all(np.isfinite(last))), "non-finite weight")
        out = run_cli(["eval", "--data", str(ctx["dir"] / "test.jsonl"),
                       "--weights", str(wpath), "--loss", self.loss,
                       "--mode", "map", "--solver", self.solver,
                       "--seed", str(ctx["seed"])], checks)
        test_loss = emitted_metric(out, "_mean")
        checks.check("test loss is finite", bool(np.isfinite(test_loss)),
                     f"{test_loss!r}")
        manifest = json.loads(Path(str(wpath) + ".manifest.json").read_text())
        self.check_model(ctx, datasets.read_weights(str(wpath)), checks)
        return {"test_loss": test_loss,
                "digest": sha256_arrays([values]),
                "counters": manifest["counters"],
                "phase_seconds": manifest["phase_seconds"]}

    def check_model(self, ctx, w, checks: Checks) -> None:
        """Every held-out grid's cut MAP is no worse than any single flip."""
        for i, x in enumerate(ctx["test"]):
            p = compile_potentials(w, x)
            y, _ = build_cut_problem(p).solve()
            ok, why = flip_optimal(p, y)
            checks.check(f"cut MAP of test grid {i} is flip-optimal", ok, why)


class ChainHamming(TrainingWorkload):
    """Supervised chains, Hamming loss, chain solver (criterion-7b shape)."""

    name = "chain-hamming"
    solver = "chain"
    iters = 1000
    batch = 5
    oracle_chains = 20

    def setup(self, work: Path, seed: int) -> dict:
        train, teacher = synth.gen_chain_dataset(
            200, 8, 3, 4, seed=seed, teacher_seed=CHAIN_TEACHER_SEED)
        test, _ = synth.gen_chain_dataset(
            200, 8, 3, 4, seed=seed + TEST_SEED_OFFSET, teacher=teacher)
        write_and_reread(work / "train.jsonl", train)
        write_and_reread(work / "test.jsonl", test)
        return {"dir": work, "seed": seed, "test": test}

    def timed_calls(self, ctx: dict) -> list[list[str]]:
        return [["train", "--data", str(ctx["dir"] / "train.jsonl"),
                 "--solver", "chain", "--loss", "hamming",
                 "--lambda", "0.05", "--iters", str(self.iters),
                 "--batch", str(self.batch), "--seed", str(ctx["seed"]),
                 "--out", str(ctx["dir"] / "weights.json")]]

    def items(self) -> int:
        return self.iters * self.batch

    def check_model(self, ctx, w, checks: Checks) -> None:
        """Viterbi on the final model equals enumeration (3^8 states)."""
        for i, x in enumerate(ctx["test"][: self.oracle_chains]):
            p = compile_potentials(w, x)
            y = viterbi_map(p)
            oracle = brute_force(p)
            same = bool(np.array_equal(y, oracle.map_labeling)
                        or evaluate_potential(p, y) == oracle.map_value)
            checks.check(f"viterbi equals brute force on test chain {i}",
                         same, f"{y.tolist()} vs "
                               f"{oracle.map_labeling.tolist()}")


class GridSemisup(TrainingWorkload):
    """6x6 grids, 2 labeled and 18 unlabeled (every third keeps ~30% of
    its labels), weighted Hamming (criterion-8 shape)."""

    name = "grid-semisup"
    loss = "weighted-hamming"
    iters = 200
    batch = 2
    test_grids = 150  # 15 in criterion 8; more keeps the test loss steady

    def setup(self, work: Path, seed: int) -> dict:
        grids, _ = synth.gen_grid_dataset(
            20 + self.test_grids, 6, 3, seed=seed,
            teacher_seed=SEMISUP_TEACHER_SEED)
        rng = np.random.default_rng([seed, 3])
        unlabeled = []
        for j, x in enumerate(grids[2:20]):
            keep = None
            if j % 3 == 0:
                keep = rng.choice(x.model.num_vars,
                                  round(0.3 * x.model.num_vars), replace=False)
            unlabeled.append(strip_labels(x, keep))
        write_and_reread(work / "labeled.jsonl", grids[:2])
        write_and_reread(work / "unlabeled.jsonl", unlabeled)
        write_and_reread(work / "test.jsonl", grids[20:])
        return {"dir": work, "seed": seed, "test": grids[20:]}

    def timed_calls(self, ctx: dict) -> list[list[str]]:
        return [["train", "--data", str(ctx["dir"] / "labeled.jsonl"),
                 "--unlabeled", str(ctx["dir"] / "unlabeled.jsonl"),
                 "--solver", "graphcut", "--loss", "weighted-hamming",
                 "--lambda", "0.1", "--iters", str(self.iters),
                 "--batch", str(self.batch), "--kappa", "1",
                 "--samples", "100", "--seed", str(ctx["seed"]),
                 "--out", str(ctx["dir"] / "weights.json")]]

    def items(self) -> int:
        # phase 1: labeled batches; phase 3: labeled plus unlabeled batches
        return self.iters * self.batch * 3


class GridMarginals:
    """Conditional counting marginals under the teacher on 32x32 grids:
    half fully unlabeled, half with 25% of the labels given."""

    name = "grid-marginals"
    instances = 2
    samples = 100

    def setup(self, work: Path, seed: int) -> dict:
        grids, teacher = synth.gen_grid_dataset(
            self.instances, 32, 3, seed=seed,
            teacher_seed=MARGINALS_TEACHER_SEED)
        rng = np.random.default_rng([seed, 4])
        data, given = [], []
        for i, x in enumerate(grids):
            keep = np.empty(0, dtype=np.int64)
            if i >= self.instances // 2:
                keep = rng.choice(x.model.num_vars, x.model.num_vars // 4,
                                  replace=False)
            # the unlabeled half is written with null labels; the truth
            # stays here
            data.append(strip_labels(x, keep))
            given.append(np.sort(keep))
        write_and_reread(work / "data.jsonl", data)
        datasets.write_weights(str(work / "teacher.json"), teacher)
        datasets.read_weights(str(work / "teacher.json"))
        return {"dir": work, "seed": seed, "truth": grids, "given": given,
                "teacher": teacher}

    def timed_calls(self, ctx: dict) -> list[list[str]]:
        return [["marginals", "--data", str(ctx["dir"] / "data.jsonl"),
                 "--weights", str(ctx["dir"] / "teacher.json"),
                 "--conditional", "--solver", "graphcut",
                 "--samples", str(self.samples), "--seed", str(ctx["seed"]),
                 "--out", str(ctx["dir"] / "marginals.jsonl")]]

    def items(self) -> int:
        return self.instances * self.samples

    def evaluate(self, ctx: dict, checks: Checks) -> dict:
        recs = [json.loads(line) for line in
                (ctx["dir"] / "marginals.jsonl").read_text().splitlines()]
        checks.check("one marginal table per instance",
                     len(recs) == len(ctx["truth"]), f"{len(recs)} tables")
        wrong = counted = 0
        tables = []
        for i, (rec, x, given) in enumerate(zip(recs, ctx["truth"],
                                                ctx["given"])):
            q = np.asarray(rec["marginals"], dtype=np.float64)
            tables.append(q)
            sums_ok = all(float(np.sum(q[d, :kd])) == 1.0 for d, kd in
                          enumerate(x.model.label_counts))
            onehot_ok = all(q[d, x.labels[d]] == 1.0 and
                            float(np.sum(q[d])) == 1.0 for d in given)
            checks.check(f"marginal rows of instance {i} sum to 1, one-hot "
                         "where given", sums_ok and onehot_ok,
                         f"sums {sums_ok}, one-hot {onehot_ok}")
            free = np.setdiff1d(np.arange(x.model.num_vars), given)
            wrong += int(np.sum(np.argmax(q[free], axis=1) != x.labels[free]))
            counted += free.size
            p = compile_potentials(ctx["teacher"], x)
            y, _ = build_cut_problem(p).solve()
            ok, why = flip_optimal(p, y)
            checks.check(f"cut MAP of grid {i} is flip-optimal", ok, why)
        return {"test_loss": wrong / counted if counted else float("nan"),
                "digest": sha256_arrays(tables),
                "counters": {}, "phase_seconds": {}}


WORKLOADS = {w.name: w for w in (ChainHamming(), GridSemisup(),
                                  GridMarginals())}


# ---------------------------------------------------------------------------
# One pass: set-up, timed run, evaluation
# ---------------------------------------------------------------------------


def one_pass(wl, work: Path, seed: int, checks: Checks,
             tracer: Tracer | None = None) -> dict:
    """Set up, time one run of the workload's commands, evaluate."""
    work.mkdir(parents=True)
    if tracer:
        tracer.begin_phase("setup")
    t0 = time.perf_counter()
    ctx = wl.setup(work, seed)
    setup_s = time.perf_counter() - t0
    calls = wl.timed_calls(ctx)
    if tracer:
        tracer.begin_phase("run")
    t0 = time.perf_counter_ns()
    for argv in calls:
        run_cli(argv, checks)
    run_ns = time.perf_counter_ns() - t0
    if tracer:
        tracer.uninstall()
    result = wl.evaluate(ctx, checks)
    result.update(setup_s=setup_s, run_ns=run_ns)
    return result


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def install_spans(tracer: Tracer) -> None:
    adapters = {
        "gumbelmap.cuts:DynamicCutState.solve": _count_solve(tracer),
        "gumbelmap.datasets:read_dataset": _count_bytes(tracer),
        "gumbelmap.datasets:read_weights": _count_bytes(tracer),
    }
    for layer in SPEC["layers"]:
        for span, targets in layer["spans"].items():
            for target in targets:
                tracer.install(target, span, adapters.get(target))


def _count_solve(tracer: Tracer):
    def adapt(solve):
        def counted(state):
            warm = state.solved
            out = solve(state)
            tracer.count("cuts.solves")
            tracer.count("cuts.warm_solves", int(warm))
            tracer.count("cuts.augmentations", state.last_augmentations)
            return out
        return counted
    return adapt


def _count_bytes(tracer: Tracer):
    def adapt(read):
        def counted(path, *args, **kwargs):
            tracer.count("datasets.bytes_read", os.path.getsize(path))
            return read(path, *args, **kwargs)
        return counted
    return adapt


def span_phases(span: str) -> list[str]:
    layer = span.split(".")[0]
    phases = SPEC["span_phases"]
    return phases.get(layer, phases["default"])


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    m: dict[str, float] = {}
    for layer in SPEC["layers"]:
        for span in layer["spans"]:
            calls, self_ns = tracer.span_totals(span, span_phases(span))
            m[f"{span}.calls"] = calls
            m[f"{span}.self_s"] = self_ns / 1e9
    c = traced["counters"]
    solved = c.get("clamp_solves", 0)
    skipped = c.get("clamp_skipped", 0)
    m["training.map_solves"] = c.get("map_solves", 0)
    m["training.clamp_solves"] = solved
    m["training.clamp_skipped"] = skipped
    m["training.clamp_skip_frac"] = (skipped / (solved + skipped)
                                     if solved + skipped else 0.0)
    for phase in ("supervised", "marginals", "mixed"):
        # program-reported phase times, from the untraced pass
        m[f"training.phase.{phase}_s"] = float(
            untraced["phase_seconds"].get(phase, 0.0))
    run = ["run"]
    solves = tracer.counter("cuts.solves", run)
    aug = tracer.counter("cuts.augmentations", run)
    m["cuts.solve.warm_frac"] = (tracer.counter("cuts.warm_solves", run)
                                 / solves if solves else 0.0)
    m["cuts.augmentations"] = aug
    m["cuts.augmentations_per_solve"] = aug / solves if solves else 0.0
    m["datasets.bytes_read"] = tracer.counter("datasets.bytes_read",
                                              span_phases("datasets.read"))
    m["trace.overhead_frac"] = traced["run_ns"] / untraced["run_ns"] - 1.0
    m["trace.errors"] = tracer.errors
    return m


def self_check(name: str, tracer: Tracer, traced: dict, untraced: dict,
               metrics: dict, checks: Checks) -> None:
    """The traced pass must not change what the program computes, its self
    times must account for the traced run, and the call counts must agree
    with the prediction table in spec.json."""
    for key in ("digest", "test_loss", "counters"):
        checks.check(f"traced and untraced {key} agree",
                     traced[key] == untraced[key],
                     f"{traced[key]!r} != {untraced[key]!r}")
    run_ns = traced["run_ns"]
    self_ns = tracer.phase_self_ns("run")
    remainder = run_ns - tracer.phase_root_ns("run")
    checks.check("span self times plus untraced remainder equal run_s",
                 tracer.open_spans == 0 and remainder >= 0
                 and self_ns + remainder == run_ns,
                 f"self {self_ns} + remainder {remainder} != {run_ns} ns, "
                 f"{tracer.open_spans} open spans")
    for layer in SPEC["layers"]:
        for move in layer["moves"]:
            if move["workload"] != name:
                continue
            for span in move["spans"]:
                calls = metrics[f"{span}.calls"]
                checks.check(f"{span} is called ({move['metric']} moves)",
                             calls > 0, f"{calls} calls")
        for bypass in layer["bypass"]:
            if bypass["workload"] != name or bypass["expect"] != "zero_calls":
                continue
            for span in bypass["spans"]:
                calls = metrics[f"{span}.calls"]
                checks.check(f"{span} is bypassed", calls == 0,
                             f"{calls} calls")


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--work", required=True,
                    help="fresh directory for this repeat's files")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    work = Path(args.work)
    checks = Checks()

    untraced = one_pass(wl, work / "untraced", args.seed, checks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "workload": wl.name, "seed": args.seed,
        "setup_s": IMPORT_S + untraced["setup_s"],
        "import_s": IMPORT_S,
        "run_s": untraced["run_ns"] / 1e9,
        "items": wl.items(),
        "test_loss": untraced["test_loss"],
        "digest": untraced["digest"],
        "counters": untraced["counters"],
        "phase_seconds": untraced["phase_seconds"],
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "numba": hasattr(_bk, "njit")},
    }
    if args.trace:
        tracer = Tracer()
        install_spans(tracer)
        traced = one_pass(wl, work / "traced", args.seed, checks, tracer)
        metrics = layer_metrics(tracer, traced, untraced)
        self_check(wl.name, tracer, traced, untraced, metrics, checks)
        tracer.dump(str(work / "spans.bin"))
        out["traced"] = {"run_s": traced["run_ns"] / 1e9,
                         "remainder_s": (traced["run_ns"] -
                                         tracer.phase_root_ns("run")) / 1e9,
                         "metrics": metrics}
    out["attempted"] = checks.attempted
    out["failed"] = len(checks.failures)
    out["failures"] = checks.failures
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
