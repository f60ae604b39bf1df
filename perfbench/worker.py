"""One workload's passes, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --workdir D
    python3 perfbench/worker.py --probe --workload W --seed N

Run from the root of a source checkout; the program is imported from its
`src/`.  Each operation calls `sperner.cli.main` in-process with stdout
captured (or, for `certificate`, the library), timed with perf_counter
less the time the calibration handler took (speed.py).  Passes repeat
until S seconds have gone, at least one.  The results,
outputs of the first pass and digests of every later one, go to
D/results.json; checking them is the parent's job.  With --trace 1 passes
alternate between untraced and traced, so the overhead of tracing is
measured in the same process.  --probe only starts, imports and builds
the operation list, which is what the set-up time measures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import sys
import time
from pathlib import Path

import defects
import workloads
from layers import Tracer, layer_metrics, summarize
from speed import Speedometer

SKIPPED = re.compile(r"skipped \((\d+) parts\)")


def import_program(root: Path):
    src = root / "src"
    if not (src / "sperner" / "__init__.py").is_file():
        raise SystemExit(f"no program source at {src / 'sperner'}")
    sys.path.insert(0, str(src))
    import sperner
    import sperner.cli
    if Path(sperner.__file__).resolve().parent != (src / "sperner").resolve():
        raise SystemExit(f"imported sperner from {sperner.__file__}, not from {src}")
    return sperner


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def output_files(argv) -> list:
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("--out", "--dump")]


def certificate_data(cert) -> dict:
    """The certificate as plain data: (parts, count) per class profile."""
    return {"n": cert.n, "k": cert.k, "p": cert.p,
            "group_sizes": list(cert.group_sizes),
            "profiles": [[[[tag[0], size, list(sig)] for tag, size, sig in prof], cnt]
                         for prof, cnt in cert.profiles]}


def run_op(sperner, op, speed) -> dict:
    for name in output_files(op.argv):
        with contextlib.suppress(FileNotFoundError):
            os.remove(name)
    gc.collect()
    rec = {"code": None, "exc": "", "stdout": "", "stderr": "", "result": None}
    out, err = io.StringIO(), io.StringIO()
    start = speed.clock()
    try:
        if op.cmd == "certificate":
            c = op.check
            inst = sperner.ip.build_instance(c["n"], c["k"], c["variant"])
            sol, _ = sperner.ip.exact_solve(inst)
            cert = sperner.ip.certificate(inst, sol)
            rec["code"] = 0
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rec["code"] = sperner.cli.main(op.argv)
    except SystemExit as exc:
        rec["code"] = exc.code if isinstance(exc.code, int) else 2
        rec["exc"] = f"SystemExit: {exc.code}"
    except Exception as exc:  # the failure is recorded and the pass goes on
        rec["exc"] = f"{type(exc).__name__}: {exc}"
    rec["time"] = speed.clock() - start
    rec["stdout"], rec["stderr"] = out.getvalue(), err.getvalue()
    if op.cmd == "certificate" and rec["code"] == 0:
        rec["result"] = certificate_data(cert)
    rec["files"] = {name: digest(Path(name).read_text())
                    for name in output_files(op.argv) if Path(name).exists()}
    rec["skipped_parts"] = sum(int(v) for v in SKIPPED.findall(rec["stdout"]))
    return rec


def run_pass(sperner, ops, seed, first: bool, speed, tracer=None) -> list:
    recs = []
    for phase in sorted({op.phase for op in ops}):
        if phase == 1 and first:
            defects.write_derived(Path.cwd(), workloads.DERIVED_INPUTS, seed)
        for idx, op in enumerate(ops):
            if op.phase != phase:
                continue
            if tracer is not None:
                tracer.op = idx
                span = tracer.begin(f"op.{op.cmd}")
            rec = run_op(sperner, op, speed)
            if tracer is not None:
                tracer.end(span)
            rec["index"] = idx
            recs.append(rec)
    recs.sort(key=lambda r: r["index"])
    if not first:   # later passes keep digests only
        for rec in recs:
            for key in ("stdout", "stderr"):
                rec[key] = digest(rec[key])
            rec["result"] = digest(json.dumps(rec["result"], sort_keys=True))
    return recs


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    sperner = import_program(Path.cwd())
    ops = workloads.make_ops(args.workload, args.seed)
    if args.probe:
        return 0

    workdir = Path(args.workdir).resolve()
    os.chdir(workdir)
    with Speedometer() as speed:
        passes, spans = run_passes(args, sperner, ops, speed)
    result = {"workload": args.workload, "seed": args.seed,
              "ops": [{"name": op.name, "cmd": op.cmd} for op in ops],
              "passes": passes}
    (workdir / "results.json").write_text(json.dumps(result))
    if spans is not None:
        (workdir / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent", "op"], "spans": spans}))
    return 0


def run_passes(args, sperner, ops, speed):
    """Passes until args.seconds have gone; (passes, spans of the first traced
    pass or None)."""
    tracer = Tracer(speed.clock) if args.trace else None
    passes, first_spans = [], None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        speed.sample()
        if traced:
            tracer.install()
        try:
            recs = run_pass(sperner, ops, args.seed, not passes, speed,
                            tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        entry = {"traced": traced, "ops": recs, "calibration_s": speed.take(),
                 "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if traced:
            spans, counts = tracer.take()
            entry["summary"] = summarize(spans)
            entry["layers"] = layer_metrics(entry["summary"], counts)
            if first_spans is None:
                first_spans = spans
        passes.append(entry)
        enough = time.perf_counter() - start >= args.seconds
        if enough and (tracer is None or len(passes) >= 2):
            break
    return passes, first_spans


if __name__ == "__main__":
    sys.exit(main())
