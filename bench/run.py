"""Benchmark of the fbbmb pipeline (`fbbmb.cli.run`: node sets -> operators ->
assembly -> solve -> error evaluation), one workload per invocation.

    python3 bench/run.py --workload small_sweep --seed 1 --seconds 40 --trace 0

Each workload runs in its own process (`worker.py`) with BLAS threads pinned
to 1 and glibc's mmap threshold fixed. `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead. `--workload all` runs every
workload in turn. The seed only shuffles
the order of cases within each pass. Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed and
metrics. Run records and spans are written to `.bench_out/` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_LAUNCHES = 5  # set-up time is the median over this many process launches
# A traced run fails if tracing slows a pass by more than this share. The
# wrappers cost about 0.13% of a `small_sweep` pass, but the measured overhead
# of a 40 s run ranged from -9% to +2%: machine noise between passes.
MAX_OVERHEAD_SHARE = 0.25
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# glibc maps allocations above its mmap threshold on their own, but by default
# raises that threshold to the size of each mapped block freed, so that later
# large arrays share the heap. The peak RSS then depends on the heap's history:
# on `large_grid` it read 229 or 252 MB between runs of the same code. With the
# threshold fixed, every array above 4 MiB is mapped and unmapped on its own.
ALLOCATOR = {"MALLOC_MMAP_THRESHOLD_": str(4 * 1024 * 1024)}

END_TO_END_UNITS = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solved_frac": "ratio",
    "converged_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def launch(job: dict) -> tuple[float, dict | None]:
    """Start one workload process; return (seconds until it was ready, its result)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PIN, **ALLOCATOR)
    # The worker stops starting passes once `seconds` are spent, so it ends
    # within `seconds` plus one traced and one untraced pass.
    timeout = 2 * job["seconds"] + 60
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, kill)
    watchdog.start()
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if timed_out.is_set():
        raise BenchError(f"workload process timed out after {timeout:g} s")
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"workload process exited with code {code}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unavailable"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def build_job(name: str, cases: list[dict], seed: int, seconds: float, trace: int) -> dict:
    reference = workloads.load_reference()
    keys = [workloads.case_key(c) for c in cases]
    missing = [k for k in keys if k not in reference]
    if missing:
        raise BenchError(f"no reference AAE for {missing}")
    return {
        "src": str(SRC),
        "cases": cases,
        "keys": keys,
        "bounds": [workloads.aae_bound(reference[k]) for k in keys],
        "warmup": workloads.warmup_case(cases),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_only": False,
        "spans_path": str(OUT_DIR / f"{name}-seed{seed}-spans.jsonl"),
    }


def measure(name: str, cases: list[dict], seed: int, seconds: float,
            trace: int) -> tuple[dict, list[str]]:
    """Run one workload; return (result object, human-readable report lines)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    job = build_job(name, cases, seed, seconds, trace)
    setup, res = launch(job)
    setups = [setup]
    if not trace:
        for _ in range(SETUP_LAUNCHES - 1):
            setups.append(launch(dict(job, setup_only=True))[0])

    attempted = res["attempted"]
    failed = sum(n for n, _ in res["failed"].values())
    unconverged = sum(res["unconverged"].values())
    passes = res["pass_times"]
    p1, p2, p3 = quartiles(passes)
    s1, s2, s3 = quartiles(setups)
    meta = dict(res["meta"], nproc=os.cpu_count(), commit=git_commit(), seed=seed,
                workload=name, seconds=seconds, trace=trace)

    lines = [f"== {name}  seed={seed} trace={trace} seconds={seconds} cases/pass={len(cases)}",
             "meta: " + json.dumps(meta)]
    if trace:
        layer_runs, traced = res["layers"], res["traced_pass_times"]
        metrics = {k: statistics.median(run[k] for run in layer_runs)
                   for k in layer_runs[0]}
        metrics["trace.pass_s"] = statistics.median(traced)
        metrics["trace.untraced_pass_s"] = p2
        # Each traced pass directly follows an untraced one; the overhead is the
        # median of their differences, so a drift in machine speed cancels.
        metrics["trace.overhead_s"] = statistics.median(t - u for u, t in zip(passes, traced))
        units = spans.PER_LAYER_UNITS
        # The top-level spans must cover each traced pass, and the wrappers
        # must not slow a pass by more than MAX_OVERHEAD_SHARE. Together these
        # bound how far the top-level spans can be from the untraced pass time.
        for i, (wall, layer) in enumerate(zip(traced, layer_runs)):
            if wall - layer["trace.top_span_s"] > 0.01 * wall:
                raise BenchError(f"traced pass {i + 1}: top-level spans "
                                 f"({layer['trace.top_span_s']:.4f} s) cover less than 99% "
                                 f"of the pass ({wall:.4f} s)")
        share = metrics["trace.overhead_s"] / p2
        if share > MAX_OVERHEAD_SHARE:
            raise BenchError(f"tracing overhead {share:.1%} of the untraced pass is above "
                             f"{MAX_OVERHEAD_SHARE:.0%}")
        lines.append(f"traced passes: {len(traced)}, untraced passes: {len(passes)}; "
                     f"per-layer values are medians over traced passes; "
                     f"tracing overhead {share:.2%} of the untraced pass")
    else:
        metrics = {
            "pass_s": statistics.fmean(passes),
            "setup_s": s2,
            "peak_rss_mb": res["peak_rss_mb"],
            "solved_frac": 1.0 - failed / attempted,
            "converged_frac": 1.0 - unconverged / attempted,
        }
        units = END_TO_END_UNITS
    for key, value in metrics.items():
        note = ""
        if key == "pass_s":
            note = f"mean; median {p2:.4f}  q1 {p1:.4f}  q3 {p3:.4f}  passes {len(passes)}"
        elif key == "setup_s":
            note = f"q1 {s1:.4f}  q3 {s3:.4f}  launches {len(setups)}"
        elif key == "solved_frac":
            note = f"fail_frac {failed / attempted:.4g} ({failed}/{attempted} solves)"
        elif key == "converged_frac":
            note = f"unconverged_frac {unconverged / attempted:.4g} ({unconverged}/{attempted} solves)"
        elif key in spans.COMPUTED:
            note = spans.COMPUTED[key]
        lines.append(f"{key:<28}{value:>16.6g} {units[key]:<6} {note}")
    lines.append("failing cases: " + ("none" if not res["failed"] else ""))
    lines += [f"  {k}: {n}x {why}" for k, (n, why) in sorted(res["failed"].items())]
    lines.append("unconverged cases (not failures): " + ("none" if not res["unconverged"] else ""))
    lines += [f"  {k}: {n}x" for k, n in sorted(res["unconverged"].items())]

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"meta": meta, "result": result, "pass_times": passes, "setup_times": setups,
              "case_times": res["case_times"],
              "traced_pass_times": res["traced_pass_times"], "failed": res["failed"],
              "unconverged": res["unconverged"]}
    with open(OUT_DIR / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fbbmb" / "__init__.py").is_file():
        print(f"error: program source {SRC / 'fbbmb'} not found", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = measure(name, workloads.WORKLOADS[name], args.seed,
                                    args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
