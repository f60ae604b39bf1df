"""Benchmark entry point: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload tables|build|ip --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in its own
process (worker.py); this process measures set-up, checks every output
against the oracles, accounts failures and prints the metrics.  The last
line of stdout is {"correct", "attempted", "failed", "metrics"}: with
--trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones.  Scratch files go to .perfbench/ in the checkout; the
traced run also leaves .perfbench/trace-<workload>-seed<N>.json there.
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

import checks
import workloads
from speed import calibrate, scale
from worker import digest

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
PROBES = 11          # set-up is measured this many times and the median kept
DEADLINE_S = 170     # the whole run, set-up and checks included

# Per-command totals, printed with every run and reported per layer when traced.
COMMAND_METRICS = {"scan": "scan_s", "bounds": "bounds_s", "construct": "construct_s",
                   "verify": "verify_s", "ip": "ip_s", "certificate": "certificate_s",
                   "asym": "asym_s"}


def worker_cmd(args, *extra) -> list:
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def measure_setup(args, root: Path) -> tuple[float, float]:
    """Median wall time of a fresh process that imports the program and
    builds the workload's inputs: (scaled, raw).  Each probe is scaled by
    calibrations made just before and after it."""
    scaled, raw = [], []
    before = [calibrate() for _ in range(3)]
    for _ in range(PROBES):
        start = time.perf_counter()
        # No timeout: with one, wait() polls at up to 50 ms intervals, which
        # rounds the measured time up to the next poll.
        subprocess.run(worker_cmd(args, "--probe"), cwd=root, check=True)
        took = time.perf_counter() - start
        after = [calibrate() for _ in range(3)]
        raw.append(took)
        scaled.append(took * scale(before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def op_times(passes, raw=False) -> list:
    """Mean time of each operation over the given passes, each pass's times
    scaled by that pass's calibrations (unless raw).  With one to four
    passes per run the mean varied less from run to run than the median
    (5.8% against 8.0% over 8 seeds of `ip`)."""
    factors = [1.0 if raw else scale(p["calibration_s"]) for p in passes]
    return [statistics.mean(p["ops"][i]["time"] * f for p, f in zip(passes, factors))
            for i in range(len(passes[0]["ops"]))]


def command_totals(ops, times) -> dict:
    totals = {}
    for op, t in zip(ops, times):
        key = COMMAND_METRICS[op.cmd]
        totals[key] = totals.get(key, 0.0) + t
    return totals


def account(ops, passes, workdir: Path):
    """Check the first pass against the oracles and every later pass against
    the first.  Returns (attempted, failed, [(op, reason)], correct)."""
    context: dict = {}
    first = passes[0]["ops"]
    reasons = {}
    for op, rec in zip(ops, first):
        if rec["exc"] and not rec["exc"].startswith("SystemExit"):
            reasons[op.name] = f"exception {rec['exc']}"
            continue
        problems = checks.CHECKS[op.cmd](op, rec, workdir, context)
        if problems:
            reasons[op.name] = "; ".join(problems[:3])
    failed = len(reasons)
    for entry in passes[1:]:
        bad = set(reasons)
        for op, rec, ref in zip(ops, entry["ops"], first):
            same = all(rec[key] == ref[key] for key in ("code", "exc", "files"))
            same &= all(rec[key] == digest(ref[key]) for key in ("stdout", "stderr"))
            same &= rec["result"] == digest(json.dumps(ref["result"], sort_keys=True))
            if not same:
                bad.add(op.name)
                reasons.setdefault(op.name, "output differs from the first pass")
        failed += len(bad)
    by_name = {op.name: op for op in ops}
    failures = [(by_name[name], why) for name, why in reasons.items()]
    correct = all(op.known_fault for op, _ in failures)
    return len(ops) * len(passes), failed, failures, correct


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    began = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "sperner" / "__init__.py").is_file():
        print(f"run from the root of a sperner checkout: {root / 'src' / 'sperner'} "
              "is missing", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())

    setup = None if args.trace else measure_setup(args, root)
    workdir = root / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        subprocess.run(worker_cmd(args, "--seconds", str(args.seconds),
                                  "--trace", str(args.trace), "--workdir", str(workdir)),
                       cwd=root, check=True,
                       timeout=max(DEADLINE_S - (time.perf_counter() - began), 1))
        result = json.loads((workdir / "results.json").read_text())
        ops = workloads.make_ops(args.workload, args.seed)
        passes = result["passes"]
        attempted, failed, failures, correct = account(ops, passes, workdir)
        spans = (json.loads((workdir / "spans.json").read_text())
                 if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    times = op_times(plain)
    totals = command_totals(ops, times)
    raw_totals = command_totals(ops, op_times(plain, raw=True))
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(ops)} operations ({len(plain)} untraced); times are sums of "
          "per-operation means over passes, scaled to the reference speed (raw in brackets)")
    for key, value in totals.items():
        print(f"  {key:14s} {value:10.4f} s  ({raw_totals[key]:.4f} s)")
    print(f"  operations attempted {attempted}, failed {failed}")
    for op, why in failures:
        tag = f"known fault: {op.known_fault}" if op.known_fault else "UNEXPECTED"
        print(f"  failed {op.name}: {why} [{tag}]")

    if args.trace:
        metrics = layer_report(args, root, spec, passes, totals, times, spans)
    else:
        metrics = {"wall_s": {"value": sum(times), "unit": "s"},
                   "setup_s": {"value": setup[0], "unit": "s"},
                   "peak_rss_mib": {"value": passes[0]["maxrss_kib"] / 1024, "unit": "MiB"}}
        raw = {"wall_s": sum(op_times(plain, raw=True)), "setup_s": setup[1]}
        for key, m in metrics.items():
            extra = f"  ({raw[key]:.4f} {m['unit']})" if key in raw else ""
            print(f"  {key:14s} {m['value']:10.4f} {m['unit']}{extra}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_report(args, root: Path, spec, passes, totals, times, spans) -> dict:
    """Per-layer metrics: medians over the traced passes, times scaled by
    each pass's calibrations.  Also writes the trace file."""
    traced = [p for p in passes if p["traced"]]
    values = {}
    for key in traced[0]["layers"]:
        seconds = key.endswith("_s")
        values[key] = statistics.median(
            p["layers"][key] * (scale(p["calibration_s"]) if seconds else 1)
            for p in traced)
    values.update({key: 0.0 for key in COMMAND_METRICS.values()})
    values.update(totals)
    values["verify.parts_skipped"] = sum(r["skipped_parts"] for r in traced[0]["ops"])
    values["trace.wall_s"] = sum(op_times(traced))
    values["trace.overhead_s"] = values["trace.wall_s"] - sum(times)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    out = root / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "untraced_wall_s": sum(times), "per_layer": metrics,
        "first_traced_pass": {"scale": scale(traced[0]["calibration_s"]),
                              "spans_by_name": traced[0]["summary"],
                              **spans}}))
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"  spans and self times written to {out.relative_to(root)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
