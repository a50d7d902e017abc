"""Command-line front end.

Subcommands: train, eval, marginals, gen-synthetic, bench-dynamic.
Machine-readable output is one JSON record per line with fixed field
names; a manifest JSON captures everything needed to replay a run.
Exit codes: 0 success, 2 input error (a bad option included),
3 configuration/solver mismatch, 4 internal error (a broken invariant or
any other unexpected exception).  ``main`` returns them, argparse's
included, and never raises ``SystemExit``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .cuts import clamp_variables
from .datasets import (
    dataset_digest,
    read_dataset,
    read_weights,
    record_lines,
    write_dataset,
    write_weights,
)
from .errors import (
    CapacityError,
    DatasetError,
    DegenerateInstanceError,
    InternalInvariantError,
    PreconditionError,
    StructuralError,
)
from .gumbel import (EstimatorConfig, SOLVERS, SOLVER_GRAPHCUT,
                     check_solvable, conditional_counting_marginals)
from .model import (
    HAMMING,
    LossSpec,
    PAIRWISE_FULL,
    PAIRWISE_POTTS,
    WEIGHTED_HAMMING,
    WeightLayout,
    ZERO_ONE,
    compile_potentials,
    loss as eval_loss,
    volume_weights,
)
from .synth import gen_chain_dataset, gen_grid_dataset
from .training import (
    PREDICT_MAP,
    PREDICT_MARGINAL,
    TrainConfig,
    predict,
    train,
    train_semisupervised,
)

_LOSS_FLAGS = {"zero-one": ZERO_ONE, "hamming": HAMMING,
               "weighted-hamming": WEIGHTED_HAMMING}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _record(args, metric: str, value, stderr=None, variant=None,
            **extra) -> dict:
    """One metric record of the run ``args`` describes."""
    return {"metric": metric, "value": value, "stderr": stderr,
            "seed": args.seed, "variant": variant, **extra}


def _write_manifest(path: str, args, **fields) -> None:
    """The command, version, arguments and seed of the run, and ``fields``."""
    manifest = {"command": args.command, "version": __version__,
                "args": {k: v for k, v in vars(args).items() if k != "func"},
                "seed": args.seed, **fields}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _record_error(path: str, index: int, message: str) -> DatasetError:
    """An input error at the file line of record ``index`` (0-based) of
    ``path``; the file is scanned again only to report the error."""
    return DatasetError(message, line=record_lines(path)[index])


def _layout_for(files, num_labels: int, form: str) -> WeightLayout:
    """One weight layout for every instance of every ``(path, instances)``
    file: the node feature width of the first instance and the edge
    feature width of the first instance with edges (1 when no instance
    has edges: the pairwise block then stays 0).  An instance of another
    width is an input error at its line."""
    instances = [x for _, xs in files for x in xs]
    node_dim = instances[0].node_features.shape[1]
    edge_dim = next((x.edge_features.shape[1] for x in instances
                     if x.model.num_edges), 1)
    for path, xs in files:
        for i, x in enumerate(xs):
            if x.node_features.shape[1] != node_dim:
                raise _record_error(
                    path, i, f"node feature dim {x.node_features.shape[1]} "
                    f"!= {node_dim} in {path}")
            if x.model.num_edges and x.edge_features.shape[1] != edge_dim:
                raise _record_error(
                    path, i, f"edge feature dim {x.edge_features.shape[1]} "
                    f"!= {edge_dim} in {path}")
    return WeightLayout(num_labels, node_dim, edge_dim, form)


def _require_cut_solvable(files) -> None:
    """Graph-cut training uses the disagreement ('potts') form and keeps
    its weights non-positive, which makes every compiled instance
    supermodular only when its edge features are non-negative."""
    for path, xs in files:
        for i, x in enumerate(xs):
            if x.model.num_edges and (x.edge_features < 0).any():
                raise _record_error(
                    path, i, f"negative edge feature in {path}: the "
                    f"graph-cut solver needs non-negative edge features")


def _require_labeled(path: str, instances, what: str) -> None:
    for i, x in enumerate(instances):
        if not x.fully_labeled:
            raise _record_error(path, i, f"{what} requires full labels")


def _validate_weighted(path: str, instances) -> None:
    for i, x in enumerate(instances):
        try:
            volume_weights(x.labels, x.volumes())
        except DegenerateInstanceError as exc:
            raise _record_error(path, i, f"degenerate instance for "
                                f"weighted loss: {exc}") from exc
        except StructuralError as exc:
            raise _record_error(path, i, str(exc)) from exc


def _compile_finite(w, x, index: int, wpath: str, dpath: str,
                   conditional: bool = False):
    """The tables of instance ``index`` of ``dpath`` under the weights
    ``w`` of ``wpath``.  Finite weights can still overflow: a table that
    is not finite, or with ``conditional`` a pin of the given labels that
    ``clamp_variables`` refuses (not finite or from 2^52 on), is an input
    error at the instance's line."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = compile_potentials(w, x)
        finite = (np.isfinite(p.unary).all()
                  and np.isfinite(p.pairwise).all())
        given = x.given_labels() if conditional else {}
        if finite and given:
            try:
                clamp_variables(p, given)
            except StructuralError as exc:
                raise _record_error(
                    dpath, index, f"the weights in {wpath} give pins that "
                    f"are not finite or too large on {dpath}: {exc}") from None
    if not finite:
        raise _record_error(dpath, index, f"the weights in {wpath} give "
                            f"tables that are not finite on {dpath}")
    return p


def cmd_train(args) -> int:
    data = read_dataset(args.data)
    if not data:
        raise DatasetError("training dataset is empty")
    _require_labeled(args.data, data, "training")
    loss_spec = LossSpec(_LOSS_FLAGS[args.loss])
    if loss_spec.kind == WEIGHTED_HAMMING:
        _validate_weighted(args.data, data)
    files = [(args.data, data)]
    unlabeled = []
    if args.unlabeled:
        unlabeled = read_dataset(args.unlabeled)
        files.append((args.unlabeled, unlabeled))
    num_labels = max(x.model.num_labels for x in data + unlabeled)
    graphcut = args.solver == SOLVER_GRAPHCUT
    layout = _layout_for(files, num_labels,
                         PAIRWISE_POTTS if graphcut else PAIRWISE_FULL)
    if graphcut:
        _require_cut_solvable(files)
    cfg = TrainConfig(
        lam=args.lam, iters=args.iters, batch=args.batch, loss=loss_spec,
        seed=args.seed, solver=args.solver, layout=layout, kappa=args.kappa,
        inference_samples=args.samples)
    t0 = time.perf_counter()
    if unlabeled:
        report = train_semisupervised(data, unlabeled, cfg)
    else:
        report = train(data, cfg)
    seconds = time.perf_counter() - t0
    write_weights(args.out, report.averaged, last_iterate=report.weights,
                  extra={"seed": args.seed, "loss": args.loss})
    tail = report.objective_estimates[-min(100, len(report.objective_estimates)):]
    metrics = [
        _record(args, "objective_estimate_tail_mean", float(np.mean(tail)),
                float(np.std(tail) / max(1, np.sqrt(tail.size)))),
        _record(args, "train_seconds", seconds),
    ]
    for rec in metrics:
        _emit(rec)
    _write_manifest(args.out + ".manifest.json", args,
                    datasets={path: dataset_digest(path) for path, _ in files},
                    artifacts={"weights": args.out},
                    counters=asdict(report.counters),
                    phase_seconds=report.phase_seconds, metrics=metrics)
    print(f"trained {args.iters} iterations in {seconds:.1f}s; "
          f"weights -> {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args) -> int:
    data = read_dataset(args.data)
    if not data:
        raise DatasetError("evaluation dataset is empty")
    _require_labeled(args.data, data, "evaluation")
    w = read_weights(args.weights)
    loss_spec = LossSpec(_LOSS_FLAGS[args.loss])
    if loss_spec.kind == WEIGHTED_HAMMING:
        _validate_weighted(args.data, data)
    check_solvable(args.solver, args.data, (x.model for x in data))
    tables = [_compile_finite(w, x, i, args.weights, args.data)
              for i, x in enumerate(data)]  # every instance, before any solve
    losses = []
    for i, (x, p) in enumerate(zip(data, tables)):
        est = EstimatorConfig(args.samples, args.seed, args.solver,
                              stream_context=i + 1)
        y_hat = predict(p, args.mode, est)
        losses.append(eval_loss(loss_spec, x.labels, y_hat, x.volumes()))
    losses = np.asarray(losses)
    mean = float(losses.mean())
    std = float(losses.std(ddof=1)) if len(losses) > 1 else 0.0
    record = _record(args, f"{args.loss}_mean", mean,
                     std / max(1.0, np.sqrt(len(losses))), args.mode)
    _emit(record)
    print(f"{args.loss} over {len(losses)} instances: "
          f"{mean:.4f} +- {std:.4f} (std across instances)", file=sys.stderr)
    if args.out:
        _write_manifest(args.out, args,
                        datasets={args.data: dataset_digest(args.data)},
                        artifacts={"weights": args.weights},
                        metrics=[record, _record(args, f"{args.loss}_std",
                                                 std, variant=args.mode)])
    return EXIT_OK


def cmd_marginals(args) -> int:
    data = read_dataset(args.data)
    if not data:
        raise DatasetError("dataset is empty")
    w = read_weights(args.weights)
    check_solvable(args.solver, args.data, (x.model for x in data))
    tables = [_compile_finite(w, x, i, args.weights, args.data,
                             args.conditional) for i, x in enumerate(data)]
    rows_out = []
    for i, (x, p) in enumerate(zip(data, tables)):
        est = EstimatorConfig(args.samples, args.seed, args.solver,
                              stream_context=i + 1)
        given = x.given_labels() if args.conditional else {}
        q = conditional_counting_marginals(p, given, est)
        rows_out.append({"instance": i,
                         "marginals": q.tolist()})
    with open(args.out, "w", encoding="utf-8") as fh:
        for rec in rows_out:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")
    _emit(_record(args, "marginals_written", len(rows_out)))
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    if args.kind == "chain":
        if args.num_vars is None:
            raise StructuralError("--vars is required for chains")
        instances, teacher = gen_chain_dataset(
            args.num, args.num_vars, args.labels, args.feat_dim,
            seed=args.seed, teacher_seed=args.teacher_seed,
            teacher_scale=args.teacher_scale, label_noise=args.label_noise)
    else:
        if args.side is None:
            raise StructuralError("--side is required for grids")
        if args.labels != 2:
            raise StructuralError(
                f"grids are binary: --labels {args.labels} is not 2")
        instances, teacher = gen_grid_dataset(
            args.num, args.side, args.feat_dim, seed=args.seed,
            teacher_seed=args.teacher_seed, teacher_scale=args.teacher_scale,
            label_noise=args.label_noise)
    write_dataset(args.out, instances)
    write_weights(args.out + ".teacher.json", teacher,
                  extra={"teacher_seed": args.teacher_seed,
                         "kind": args.kind})
    _emit(_record(args, "instances_written", args.num, variant=args.kind))
    print(f"wrote {args.num} {args.kind} instances -> {args.out} "
          f"(digest {dataset_digest(args.out)[:12]})", file=sys.stderr)
    return EXIT_OK


_BENCH_VARIANTS = {  # GR = solve skipping, DC = dynamic cuts
    "basic": dict(acceleration=False, dynamic_cuts=False),
    "DC": dict(acceleration=False, dynamic_cuts=True),
    "GR": dict(acceleration=True, dynamic_cuts=False),
    "DC+GR": dict(acceleration=True, dynamic_cuts=True),
}


def cmd_bench_dynamic(args) -> int:
    variants = args.variants.split(",")
    for v in variants:
        if v not in _BENCH_VARIANTS:
            raise StructuralError(f"unknown variant {v!r}")
    # the grid teacher's layout, so every config is checked before any solve
    layout = WeightLayout(2, args.feat_dim, 1, PAIRWISE_POTTS)
    configs = {v: TrainConfig(lam=args.lam, iters=args.iters,
                              batch=args.batch, loss=LossSpec(HAMMING),
                              seed=args.seed, solver=SOLVER_GRAPHCUT,
                              layout=layout, stepsize=args.stepsize,
                              **_BENCH_VARIANTS[v]) for v in variants}
    instances, _ = gen_grid_dataset(args.train_size, args.side, args.feat_dim,
                                    seed=args.seed, teacher_scale=1.0)
    results = {}
    for v, cfg in configs.items():
        t0 = time.perf_counter()
        report = train(instances, cfg)
        seconds = time.perf_counter() - t0
        results[v] = (report, seconds)
        _emit(_record(args, "bench_seconds", seconds, variant=v,
                      iterations=args.iters, **asdict(report.counters),
                      skipped_fraction_series=[
                          [h, round(f, 6)] for h, f in
                          report.skipped_fraction_series[:5] +
                          report.skipped_fraction_series[-5:]]))

    # all variants are exact rewrites of the same updates
    names = list(results)
    base = results[names[0]][0].weights.values
    max_diff = 0.0
    for v in names[1:]:
        max_diff = max(max_diff, float(np.max(np.abs(
            results[v][0].weights.values - base))))
    _emit(_record(args, "trajectory_max_diff", max_diff,
                  variant=",".join(names)))

    print(f"\n{'variant':>8} {'seconds':>9} {'solves':>8} {'skipped':>8}",
          file=sys.stderr)
    for v in names:
        rep, sec = results[v]
        print(f"{v:>8} {sec:9.2f} "
              f"{rep.counters.map_solves + rep.counters.clamp_solves:8d} "
              f"{rep.counters.clamp_skipped:8d}", file=sys.stderr)
    if args.out:
        _write_manifest(args.out, args, trajectory_max_diff=max_diff,
                        variants={v: {"seconds": sec, **asdict(rep.counters)}
                                  for v, (rep, sec) in results.items()})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gumbelmap",
        description="Perturb-and-MAP learning and inference for pairwise "
                    "models")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train weights on a labeled dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--loss", choices=sorted(_LOSS_FLAGS), default="hamming")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--solver", choices=SOLVERS, default="chain")
    p.add_argument("--unlabeled", default=None)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate weights on a labeled dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--loss", choices=sorted(_LOSS_FLAGS), default="hamming")
    p.add_argument("--mode", choices=[PREDICT_MAP, PREDICT_MARGINAL],
                   default=PREDICT_MARGINAL)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--solver", choices=SOLVERS, default="chain")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("marginals", help="write counting-marginal tables")
    p.add_argument("--data", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--solver", choices=SOLVERS, default="chain")
    p.add_argument("--conditional", action="store_true",
                   help="treat present labels as given")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_marginals)

    p = sub.add_parser("gen-synthetic", help="generate a teacher dataset")
    p.add_argument("--kind", choices=["chain", "grid"], required=True)
    p.add_argument("--num", type=int, required=True)
    p.add_argument("--vars", dest="num_vars", type=int, default=None)
    p.add_argument("--side", type=int, default=None)
    p.add_argument("--labels", type=int, default=2)
    p.add_argument("--feat-dim", type=int, default=4)
    p.add_argument("--teacher-seed", type=int, default=None)
    p.add_argument("--teacher-scale", type=float, default=1.0)
    p.add_argument("--label-noise", type=float, default=0.0)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("bench-dynamic",
                       help="compare plain, dynamic-cut, and solve-skipping "
                            "training inner loops")
    p.add_argument("--side", type=int, default=8)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--train-size", type=int, default=4)
    p.add_argument("--feat-dim", type=int, default=3)
    p.add_argument("--lambda", dest="lam", type=float, default=0.005)
    p.add_argument("--stepsize", type=float, default=0.005,
                   help="constant stepsize; convergence then spreads over "
                        "the whole run, which is what the skip-rate trend "
                        "measures")
    p.add_argument("--variants", default="basic,DC,GR,DC+GR")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_bench_dynamic)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 2 after its usage error, 0 for --help
        return exc.code
    try:
        return args.func(args)
    except (DatasetError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (StructuralError, PreconditionError, CapacityError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
