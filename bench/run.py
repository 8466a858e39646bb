"""Benchmark of the geproci library: four workloads, each a closed loop with
one client running one job at a time, in a fresh interpreter per sample.

    python3 bench/run.py --workload {generic,random,incidence,cones}
                         --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports geproci from ./src.
The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (tracing off):
  wall_s       first job start to last verdict of one pass, median over samples
  setup_s      interpreter start to the first job (imports, fixtures, fields,
               point enumeration, seeded inputs), median over several starts
  peak_rss_mb  peak resident memory of a sample's process, median
With --trace 1 they are the per-layer metrics of one traced sample (see
tracer.py), plus trace_overhead_ratio: its wall time over that of an
untraced sample run just before it.

The line before the result holds the details: the machine, every sample
with one row per job (input sizes, seconds, and in a traced run the
condition-matrix shapes), every failure, and failed_ratio (jobs whose
result was wrong or that raised, over jobs attempted).  Each job's result
is checked after the timed pass; expected_reports.json holds the
deterministic fields of the `geproci reproduce` reports at the commit
that defined this benchmark.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("generic", "random", "incidence", "cones")
SETUP_STARTS = 5          # set-up-only interpreters before, and again after, the passes
RUN_LIMIT_S = 170.0       # a run never outlasts this, samples included


def machine() -> dict:
    info = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }
    try:
        info["sympy"] = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        info["sympy"] = None
    return info


def _git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def sample(workload, seed, trace, out_dir, deadline, setup_only=False) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    t_spawn = time.monotonic()
    cmd += ["--spawned-at", repr(t_spawn)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return {"error": f"sample did not finish before the {RUN_LIMIT_S:.0f} s limit"}
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "geproci" / "__init__.py").is_file():
        print(f"error: no geproci sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    out_dir = HERE / f".out-{os.getpid()}"
    try:
        if args.trace:
            plain = sample(args.workload, args.seed, 0, out_dir, deadline)
            samples = [plain, sample(args.workload, args.seed, 1, out_dir, deadline)]
            setups = []
        else:
            # set-up starts on both sides of the passes, so that their median
            # spans the host's slower and faster spells
            setups = [sample(args.workload, args.seed, 0, out_dir, deadline, setup_only=True)
                      for _ in range(SETUP_STARTS)]
            samples = [sample(args.workload, args.seed, 0, out_dir, deadline)]
            # closed loop: another pass only if one more fits in --seconds
            while "error" not in samples[-1] and \
                    time.monotonic() + samples[-1]["wall_s"] <= start + args.seconds:
                samples.append(sample(args.workload, args.seed, 0, out_dir, deadline))
            setups += [sample(args.workload, args.seed, 0, out_dir, deadline, setup_only=True)
                       for _ in range(SETUP_STARTS)]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    errors = [s["error"] for s in samples + setups if "error" in s]
    done = [s for s in samples if "error" not in s]
    # a sample that crashed or timed out counts as one failed attempt
    attempted = sum(s["attempted"] for s in done) + len(samples) - len(done)
    failed = sum(s["failed"] for s in done) + len(samples) - len(done)
    correct = not errors and failed == 0
    if errors or not done:
        metrics = {}
    elif args.trace:
        traced = samples[1]
        metrics = dict(traced["layers"])
        metrics["trace_overhead_ratio"] = metric(traced["wall_s"] / samples[0]["wall_s"],
                                                 "ratio")
    else:
        metrics = {
            "wall_s": metric(statistics.median(s["wall_s"] for s in done), "s"),
            "setup_s": metric(statistics.median(
                [s["setup_s"] for s in setups] + [s["setup_s"] for s in done]), "s"),
            "peak_rss_mb": metric(statistics.median(s["peak_rss_mb"] for s in done), "MB"),
        }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(),
        "client": "closed loop, 1 client, 1 job at a time, fresh interpreter per sample",
        "failed_ratio": metric(failed / attempted, "ratio"),
        "errors": errors,
        "setup_samples_s": [s.get("setup_s") for s in setups],
        "samples": samples,
        "run_s": time.monotonic() - start,
    }
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
