"""One benchmark sample, in a fresh interpreter.

    python3 bench/worker.py --workload W --seed S --trace 0|1 --out-dir D --spawned-at T
                            [--setup-only]

Builds the workload's inputs (the set-up), runs its jobs one at a time,
then checks every result outside the timed interval, and prints one JSON
object as its last line of output.  `--spawned-at` is the parent's
time.monotonic() just before it started this interpreter, so the set-up
time includes interpreter start and imports.
"""
from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import geproci  # noqa: E402
from geproci import core  # noqa: E402
from geproci.projgeom import PointSet  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _capture_verdicts(captured: list, current_job: list):
    """Keep every geproci_check verdict with its input, for the recheck gate."""
    orig = core.geproci_check
    sig = inspect.signature(orig)

    def geproci_check(*args, **kwargs):
        verdict = orig(*args, **kwargs)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        captured.append((current_job[0], bound.arguments, verdict))
        return verdict

    core.geproci_check = geproci_check
    return lambda: setattr(core, "geproci_check", orig)


def _recheck(args: dict, verdict) -> list:
    """Re-verify a positive verdict's certificate on its projected scheme."""
    cert = verdict.certificate
    if not verdict.geproci:
        return []
    if cert is None:
        return ["positive verdict without a certificate"]
    Z = args["Z"]
    if args["mode"] == "generic":
        P = core.GeneralPoint.generic(Z.field)
    else:
        avoid = Z if isinstance(Z, PointSet) else Z.support_points()
        P = core.GeneralPoint.random(Z.field, cert.seed, avoid=avoid)
    if not cert.recheck(core.project(Z, P)):
        return [f"certificate ({args['alpha']},{args['beta']}) fails recheck"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    if not Path(geproci.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported geproci from {geproci.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, Path(args.out_dir))
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    captured, current_job = [], [None]
    restore = _capture_verdicts(captured, current_job)
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    results, rows = [], []
    sink = io.StringIO()
    t_first = time.perf_counter()
    for job in wl.jobs:
        current_job[0] = job.name
        if tracer:
            tracer.job = job.name
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                result, error = job.run(), None
        except Exception as exc:  # a job that raises is a failed job, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        results.append((result, error))
        rows.append({"job": job.name, "sizes": job.sizes, "s": t1 - t0})
    wall_s = time.perf_counter() - t_first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    restore()
    # read before the gate, whose rechecks would add spans and counts
    traced = {}
    if tracer:
        traced = {"layers": tracer.metrics(), "spans": len(tracer.spans),
                  "unwrapped": tracer.missing}
        for row in rows:
            row["kernels"] = tracer.job_shapes(row["job"])

    # correctness gate, outside the timed interval
    t_gate = time.perf_counter()
    failures = []
    for job, row, (result, error) in zip(wl.jobs, rows, results):
        if error is not None:
            problems = [f"raised {error}"]
        else:
            try:
                problems = job.check(result)
                for job_name, call_args, verdict in captured:
                    if job_name == job.name:
                        problems += _recheck(call_args, verdict)
            except Exception as exc:  # a malformed result fails its job
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        row["ok"] = not problems
        if problems:
            failures.append({"job": job.name, "problems": problems})

    out = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(wl.jobs),
        "failed": len(failures),
        "failures": failures,
        "jobs": rows,
        "gate_s": time.perf_counter() - t_gate,
    }
    out.update(traced)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
