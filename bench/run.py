"""gumbelmap benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (``src/gumbelmap`` must be there;
nothing is installed).  Workloads: chain-hamming, grid-semisup,
grid-marginals; bench/spec.json says what each layer is predicted to move
on each of them.

Each repeat is a fresh single-threaded process (workload.py) that imports
the package, generates the inputs from the seed, runs the ``gumbelmap``
command in-process and checks its outputs.  Repeats run one after another
until ``--seconds`` have passed, and at least MIN_REPEATS times.  Times are
medians over repeats.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` additionally traces a second pass in every repeat
and reports the per-layer metrics.

The last line of standard output is the JSON result; the lines before it
record the environment and the output digest.  Per-repeat details and the
spans of the last traced repeat are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((BENCH / "spec.json").read_text())
# metric names, units and directions
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in METRICS["workloads"]]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# repeats per run at least, untraced and traced; a traced repeat takes
# about twice as long
MIN_REPEATS = {0: 3, 1: 2}
# every run must end within 180 s; no repeat starts that could pass this
DEADLINE_S = 170.0


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from files."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def run_repeat(args, index: int, budget_s: float) -> tuple[dict | None, str]:
    """One workload.py process; its result, or None and the reason."""
    work = OUT / f"work-{args.workload}-{os.getpid()}-{index}"
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--work", str(work)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=budget_s)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        return None, f"repeat {index} killed after {budget_s:.0f} s"
    try:
        if proc.returncode != 0:
            return None, (f"repeat {index} exited {proc.returncode}: "
                          f"{proc.stderr[-2000:]}")
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), ""
        except (IndexError, json.JSONDecodeError):
            return None, f"repeat {index} printed no result: {proc.stderr[-2000:]}"
    finally:
        spans = work / "spans.bin"
        if spans.is_file():
            spans.replace(OUT / f"spans-{args.workload}.bin")
        shutil.rmtree(work, ignore_errors=True)


def timed(key: str) -> bool:
    """Per-layer metrics that are clock readings; all others are counts or
    ratios of counts, which must repeat exactly."""
    return key.endswith("_s") or key == "trace.overhead_frac"


def repeatable(first: dict, other: dict) -> bool:
    keys = ("digest", "test_loss", "counters")
    same = all(first[k] == other[k] for k in keys)
    if "traced" in first:
        same = same and all(other["traced"]["metrics"][k] == v
                            for k, v in first["traced"]["metrics"].items()
                            if not timed(k))
    return same


def median(results: list[dict], get) -> float:
    return statistics.median(get(r) for r in results)


def end_to_end(results: list[dict]) -> dict:
    run_s = median(results, lambda r: r["run_s"])
    return {
        "setup_s": median(results, lambda r: r["setup_s"]),
        "run_s": run_s,
        "items_per_s": results[0]["items"] / run_s,
        "test_loss": results[0]["test_loss"],
        "peak_rss_mb": median(results, lambda r: r["peak_rss_mb"]),
    }


def per_layer(results: list[dict], attempted: int, failed: int) -> dict:
    out = {key: median(results, lambda r: r["traced"]["metrics"][key])
           if timed(key) else first
           for key, first in results[0]["traced"]["metrics"].items()}
    out["fail_frac"] = failed / attempted
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=SPEC["seeds"]["default"])
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (SRC / "gumbelmap" / "__init__.py").is_file():
        print(f"no gumbelmap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = {"nproc": os.cpu_count(), "loadavg_at_start": loadavg(),
           "git_commit": git_commit(),
           "threads": {v: "1" for v in THREAD_VARS}}

    start = time.monotonic()
    results: list[dict] = []
    errors: list[str] = []
    slowest = 0.0
    while len(results) < MIN_REPEATS[args.trace] or \
            time.monotonic() - start < args.seconds:
        elapsed = time.monotonic() - start
        if elapsed + slowest > DEADLINE_S:
            break
        t0 = time.monotonic()
        result, error = run_repeat(args, len(results) + len(errors),
                                   DEADLINE_S - elapsed)
        slowest = max(slowest, time.monotonic() - t0)
        if result is None:
            errors.append(error)
            print(error, file=sys.stderr)
            break
        results.append(result)
    if not results:
        print("no repeat finished", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results) + len(errors)
    failed = sum(r["failed"] for r in results) + len(errors)
    for r in results[1:]:
        attempted += 1
        failed += not repeatable(results[0], r)
    failures = [f for r in results for f in r["failures"]] + errors
    for f in failures[:20]:
        print(f"FAILED: {f}", file=sys.stderr)

    env["versions"] = results[0]["versions"]
    if args.trace:
        values, listed = per_layer(results, attempted, failed), "per_layer"
    else:
        values, listed = end_to_end(results), "end_to_end"
    units = {m["name"]: m["unit"] for m in METRICS[listed]}
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} are not both "
              f"measured and listed in BENCHMARK.json", file=sys.stderr)
        return 1
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "repeats": results,
              "errors": errors, "attempted": attempted, "failed": failed}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"env": env}, sort_keys=True))
    print(f"digest {args.workload} seed={args.seed} "
          f"sha256={results[0]['digest']} repeats={len(results)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
