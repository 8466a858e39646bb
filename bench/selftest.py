"""Self-test of the benchmark's tracing.

    python3 bench/selftest.py

For each workload it makes a traced run of run.py and one more traced
sample, both with seed 1, and checks:
  - every per-layer metric named in BENCHMARK.json is produced, with its unit;
  - the wrappers take effect (a layer the workload uses reports calls, and
    one it bypasses reports none), and the traced results are still correct;
  - the exact counts are identical between the two samples.
It also checks that the tracer rebinds a function in every namespace that
binds it.
Takes about 5 minutes for all four workloads.  Exits 1 on any failure.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402

SEED = 1
EXACT_COUNTS = ["multipoly.kernel.cells", "spreads.search.nodes", "fields.mp_gcd.calls",
                "fields.extend_field.calls", "multipoly.coprime_certificate.calls"]

# (metric, relation, value) that must hold in a traced sample of each workload
EXPECT = {
    "generic": [("multipoly.kernel_of_conditions.calls", ">", 0),
                ("fields.mp_gcd.calls", ">", 0),
                ("fields.RationalFunction.created", ">", 0),
                ("core.unexpected_cone_dim.s", ">", 0),
                ("fatpoints.scheme_geproci_check.s", ">", 0),
                ("cli.report_bytes", ">", 0),
                ("spreads.search.nodes", "==", 0)],
    "random": [("core.GeneralPoint.random.s", ">", 0),
               ("fields.extend_field.calls", ">", 0),
               ("fields.FieldTower.mul_rep.calls", ">", 0),
               ("projgeom.matrix_rank.calls", ">", 0),
               ("spreads.partition_into_lines.s", ">", 0),
               ("multipoly.coprime_certificate.calls", ">", 0),
               ("fields.mp_gcd.calls", "==", 0),
               ("fields.RationalFunction.created", "==", 0)],
    "incidence": [("spreads.search.nodes", "==", 5558540),
                  ("spreads.spread_fingerprint.calls", "==", 168480),
                  ("core.classify.s", ">", 0),
                  ("projgeom.all_lines.s", ">", 0),
                  ("multipoly.kernel_of_conditions.calls", "==", 0),
                  ("fields.mp_gcd.calls", "==", 0)],
    "cones": [("core.frobenius_membership_check.s", ">", 0),
              ("core.cone_line_transversality.s", ">", 0),
              ("fields.FieldTower.mul_rep.calls", ">", 0),
              ("fields.RationalFunction.created", ">", 0),
              ("multipoly.kernel_of_conditions.calls", "==", 0),
              ("fields.mp_gcd.calls", "==", 0)],
}


def check_install() -> list:
    from geproci import core, multipoly

    original = multipoly.kernel_of_conditions
    tracing.Tracer().install()
    if core.kernel_of_conditions is original or \
            multipoly.kernel_of_conditions is not core.kernel_of_conditions:
        return ["install did not rebind kernel_of_conditions everywhere"]
    return []


def check_workload(workload: str, per_layer: dict) -> list:
    """A traced run through run.py, then one more traced sample to compare."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
                          cwd=HERE.parent, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"run.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result, details = json.loads(lines[-1]), json.loads(lines[-2])
    problems = []
    if not result["correct"]:
        problems.append(f"traced run not correct: {details['errors']} "
                        f"{[s.get('failures') for s in details['samples']]}")
    out_dir = HERE / f".out-selftest-{os.getpid()}"
    try:
        again = run.sample(workload, SEED, 1, out_dir, time.monotonic() + run.RUN_LIMIT_S)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if "error" in again or not result["metrics"]:
        return problems + [again.get("error", "traced run gave no metrics")]
    first, second = result["metrics"], again["layers"]
    if details["samples"][1]["unwrapped"]:
        problems.append(f"not found to wrap: {details['samples'][1]['unwrapped']}")
    missing = set(per_layer) - set(first)
    if missing:
        problems.append(f"metrics not produced: {sorted(missing)}")
    for name, unit in per_layer.items():
        if name in first and first[name]["unit"] != unit:
            problems.append(f"{name}: unit {first[name]['unit']!r}, declared {unit!r}")
    for name, rel, want in EXPECT[workload]:
        got = first[name]["value"]
        if not (got > want if rel == ">" else got == want):
            problems.append(f"{name} = {got}, expected {rel} {want}")
    for name in EXACT_COUNTS:
        if first[name]["value"] != second[name]["value"]:
            problems.append(f"{name} differs between runs: "
                            f"{first[name]['value']} vs {second[name]['value']}")
    return problems


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    per_layer = {m["name"]: m["unit"] for m in declared}

    failed = False
    results = [("install", check_install())]
    for w in run.WORKLOADS:
        results.append((w, check_workload(w, per_layer)))
    for name, problems in results:
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for p in problems:
            print(f"     {p}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
