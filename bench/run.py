"""Benchmark of the ramanasdp library: solve, emit and verify workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload solve --seed 1 --seconds 10 --trace 0
    python3 -m pytest -q bench        # the benchmark's own self-tests

The library is imported from ``src/`` next to this directory; no installed
copy is used.  One process runs one operation at a time (a closed loop
with one client).  A run

  1. sets the workload up several times (instance generation, certificate
     preparation, warm-up) and reports the median as ``setup_s``;
  2. with ``--trace 0``, measures the peak traced memory of the batch's
     largest operation in a pass of its own;
  3. repeats the workload's fixed batch until ``--seconds`` have passed,
     at least MIN_OPS operations ran and every op ran MIN_BATCHES times,
     checking every result outside the timed region;
  4. with ``--trace 1``, alternates untraced and traced batches instead and
     reports the per-layer metrics of the traced ones.

Every reported time is scaled to the host's nominal speed by a reference
computation run next to the work (see calibrate.py); the raw times are in
the ``info`` line printed before the result, together with the machine,
thread settings, seed, source digest and, for emit, the SHA-256 of every
file written.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong answer
ends the run with exit code 1; a checkout without ``src/ramanasdp`` ends it
with exit code 2 before anything is measured.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported: the matrices are small and
# threading only adds noise on a shared host.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# Reference runs whose median brackets each set-up repetition.
SETUP_REFS = 9
MIN_OPS = 100
# Each op's median latency feeds batch_s, so every op runs at least this
# often.
MIN_BATCHES = 4
# Stop starting new batches after this long, whatever MIN_OPS says, so a
# run on a slow host still ends well inside its time limit.
HARD_STOP_S = 120.0

END_TO_END = (
    ("batch_s", "s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("ok_rate", "ratio"),
    ("peak_mb", "MB"),
    ("setup_s", "s"),
)

_CALLS = "count"
# Per-layer metrics in these units are derived from times; the rest are
# counts of work and must repeat exactly.
TIMED_UNITS = ("s", "MB/s")
PER_LAYER = (
    ("symmat.eig.calls", _CALLS), ("symmat.eig.s", "s"), ("symmat.eig.order_mean", "order"),
    ("symmat.classify_psd.calls", _CALLS), ("symmat.tan_contains.calls", _CALLS),
    ("symmat.psd_plus_tan_contains.calls", _CALLS), ("symmat.split_psd_plus_tan.calls", _CALLS),
    ("symmat.self_s", "s"),
    ("subsolver.maximize_lambda_min.calls", _CALLS), ("subsolver.maximize_lambda_min.s", "s"),
    ("subsolver.interior_point.calls", _CALLS), ("subsolver.interior_point.s", "s"),
    ("subsolver.minimize_linear_over_face.calls", _CALLS),
    ("subsolver.minimize_linear_over_face.s", "s"),
    ("subsolver.newton_steps", _CALLS), ("subsolver.newton_steps_per_call", "steps/call"),
    ("subsolver.self_s", "s"),
    ("facial.build_rr_form.calls", _CALLS), ("facial.build_rr_form.s", "s"),
    ("facial.solve_alternative.calls", _CALLS), ("facial.solve_alternative.s", "s"),
    ("facial.primal_optimal_value.s", "s"), ("facial.rr_rounds", _CALLS),
    ("facial.alt_found_ratio", "ratio"),
    ("facial.refusals.NumericalRankAmbiguityError", _CALLS),
    ("facial.refusals.SubsolverFailureError", _CALLS),
    ("facial.refusals.IterationLimitError", _CALLS),
    ("facial.self_s", "s"),
    ("model.reformulate.calls", _CALLS), ("model.reformulate.s", "s"),
    ("model.apply_at.calls", _CALLS), ("model.apply_at.s", "s"), ("model.self_s", "s"),
    ("builders.build_dram.s", "s"), ("builders.build_alt_ram.s", "s"),
    ("builders.build_pram.s", "s"), ("builders.build_dstrong.s", "s"),
    ("builders.embed_certificate.s", "s"), ("builders.constraints", _CALLS),
    ("builders.stored_floats", _CALLS), ("builders.nonzeros", _CALLS),
    ("builders.nnz_ratio", "ratio"), ("builders.self_s", "s"),
    ("sdpa.write_sdpa.calls", _CALLS), ("sdpa.write_sdpa.s", "s"), ("sdpa.bytes", "B"),
    ("sdpa.mb_per_s", "MB/s"), ("sdpa.instance_to_sdpa_text.calls", _CALLS),
    ("sdpa.self_s", "s"),
    ("verify.verify_dram.calls", _CALLS), ("verify.verify_dram.s", "s"),
    ("verify.verify_alt_ram.calls", _CALLS), ("verify.verify_alt_ram.s", "s"),
    ("verify.verify_strong.calls", _CALLS), ("verify.verify_strong.s", "s"),
    ("verify.normalize_ladder.calls", _CALLS), ("verify.normalize_ladder.s", "s"),
    ("verify.lift_from_strong.calls", _CALLS), ("verify.lift_from_strong.s", "s"),
    ("verify.alt_ram_from_rr.calls", _CALLS), ("verify.alt_ram_from_rr.s", "s"),
    ("verify.rejects", _CALLS), ("verify.rungs_per_cert", "rungs/cert"),
    ("verify.eig_per_cert", "eig/cert"), ("verify.self_s", "s"),
    ("certfile.parse_certificate_text.calls", _CALLS),
    ("certfile.parse_certificate_text.s", "s"), ("certfile.to_ramana_certificate.s", "s"),
    ("certfile.bytes_parsed", "B"), ("certfile.self_s", "s"),
    ("harness.self_s", "s"), ("traced_batch_s", "s"), ("trace_overhead_s", "s"),
    ("fail_rate", "ratio"),
)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve", "emit", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine_info(np) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "ramanasdp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _run_batch(ops, signatures: dict, tracer=None):
    """Run every op once, in order.

    Returns (raw latencies, host-scaled latencies, refusals).  Only
    ``op.run`` is timed (and traced).  A reference computation runs
    before each op and after the last, and scales the latencies to the
    host's nominal speed (see calibrate.py).  The check runs after
    the op and its signature must equal the one the same op gave before.
    """
    import calibrate
    import workloads

    gc.collect()
    raw, refs = [], [calibrate.reference_seconds()]
    refused: Counter = Counter()
    for op in ops:
        first = len(tracer.spans) if tracer else 0
        refusal = None
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run()
        except workloads.REFUSALS as exc:
            result, refusal = None, type(exc).__name__
        finally:
            raw.append(time.perf_counter() - t0)
            if tracer:
                tracer.active = False
        if tracer:
            tracer.settle(first)
        if refusal:
            refused[refusal] += 1
            signature = ("refused", refusal)
        else:
            signature = op.check(result)
        del result
        before = signatures.setdefault(op.name, signature)
        if before != signature:
            raise workloads.WrongAnswer(
                f"{op.name}: result changed between runs on the same input: "
                f"{before!r} then {signature!r}"
            )
        # Every op starts from an empty collector, so the collections that
        # run inside it are its own and not left over from earlier ops.
        gc.collect()
        refs.append(calibrate.reference_seconds())
    return raw, calibrate.scale_series(raw, refs), refused


def _peak_op(ops):
    """The op of largest n; among those, the kind that comes first in the
    batch.  Each workload lists its memory-heaviest kind first."""
    first_seen = {}
    for op in ops:
        first_seen.setdefault(op.kind, len(first_seen))
    return max(ops, key=lambda op: (op.n, -first_seen[op.kind]))


def _peak_mb(op, signatures: dict) -> float:
    """tracemalloc peak of one run of ``op``, in MB.  It runs in a pass of
    its own because tracemalloc slows the serializer several times over."""
    import workloads

    tracemalloc.start()
    try:
        try:
            result = op.run()
        except workloads.REFUSALS:
            result = None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if result is not None:
        signature = op.check(result)
        if signatures.setdefault(op.name, signature) != signature:
            raise workloads.WrongAnswer(f"{op.name}: result changed under tracemalloc")
    return peak / 1e6


def _measure(args, ops, signatures: dict, out: dict) -> dict:
    """Untraced batches until the time is up; the end-to-end metrics.

    ``batch_s`` adds up, over the ops of the batch, each op's median
    scaled latency across the batches run.
    """
    raw, batches = [], []
    refused: Counter = Counter()
    start = time.perf_counter()
    while True:
        lat, scaled, ref = _run_batch(ops, signatures)
        raw.append(sum(lat))
        batches.append(scaled)
        refused += ref
        elapsed = time.perf_counter() - start
        enough = len(batches) >= MIN_BATCHES and len(batches) * len(ops) >= MIN_OPS
        if (elapsed >= args.seconds and enough) or elapsed >= HARD_STOP_S:
            break
    latencies = [t for batch in batches for t in batch]
    out.update(attempted=len(latencies), failed=sum(refused.values()))
    out["info"].update(raw_batch_times_s=raw, refusals=dict(refused))
    return {
        "batch_s": sum(statistics.median(per_op) for per_op in zip(*batches)),
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": statistics.quantiles(latencies, n=10)[8],
        "ok_rate": 1.0 - sum(refused.values()) / len(latencies),
    }


def _measure_traced(args, ops, signatures: dict, out: dict) -> dict:
    """Untraced and traced batches in turn; the per-layer metrics.

    Counts come from one traced batch and must repeat exactly in every
    other.  Span times are host-scaled by the batch's overall ratio of
    scaled to raw time and reported as medians over the traced batches.
    """
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    untraced, traced, summaries = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        lat, scaled, ref = _run_batch(ops, signatures)
        untraced.append(sum(scaled))
        attempted += len(lat)
        failed += sum(ref.values())
        tracer.install()
        try:
            lat, scaled, ref = _run_batch(ops, signatures, tracer)
        finally:
            tracer.uninstall()
        factor = sum(scaled) / sum(lat)
        summary = tracing.summary(tracer.spans, time_scale=factor)
        tracer.clear()
        traced.append(sum(scaled))
        attempted += len(lat)
        failed += sum(ref.values())
        summary["harness.self_s"] = sum(scaled) - summary["spans.top_s"]
        for cls in workloads.REFUSALS:
            summary[f"facial.refusals.{cls.__name__}"] = ref[cls.__name__]
        summary["fail_rate"] = sum(ref.values()) / len(lat)
        summaries.append(summary)
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds or elapsed >= HARD_STOP_S:
            break
    out.update(attempted=attempted, failed=failed)
    out["info"].update(traced_batch_s=traced, untraced_batch_s=untraced)
    metrics = {}
    for name, unit in PER_LAYER:
        values = [s.get(name, 0) for s in summaries]
        if unit in TIMED_UNITS:
            metrics[name] = statistics.median(values)
        elif any(v != values[0] for v in values):
            raise workloads.WrongAnswer(f"count {name} differs between identical batches: {values}")
        else:
            metrics[name] = values[0]
    metrics["traced_batch_s"] = statistics.median(traced)
    metrics["trace_overhead_s"] = metrics["traced_batch_s"] - statistics.median(untraced)
    return metrics


def _bench(args, workdir: str, out: dict) -> None:
    import calibrate
    import workloads

    setup = workloads.WORKLOADS[args.workload]
    signatures: dict = {}
    t_start = time.perf_counter()
    raw_setup, setup_times = [], []
    ref = statistics.median(calibrate.reference_seconds() for _ in range(SETUP_REFS))
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = setup(args.seed, workdir)
        # Warm-up: the smallest op of each kind, checked like any other.
        warm = {}
        for op in ops:
            if op.kind not in warm or op.n < warm[op.kind].n:
                warm[op.kind] = op
        _run_batch(list(warm.values()), signatures)
        raw_setup.append(time.perf_counter() - t0)
        after = statistics.median(calibrate.reference_seconds() for _ in range(SETUP_REFS))
        setup_times.append(calibrate.scale(raw_setup[-1], (ref + after) / 2))
        ref = after
    out["info"].update(ops_per_batch=len(ops), raw_setup_times_s=raw_setup)
    phases = {"setup": time.perf_counter() - t_start}
    if args.trace:
        metrics = _measure_traced(args, ops, signatures, out)
    else:
        t0 = time.perf_counter()
        metrics = {"peak_mb": _peak_mb(_peak_op(ops), signatures)}
        phases["peak"] = time.perf_counter() - t0
        metrics.update(_measure(args, ops, signatures, out))
        metrics["setup_s"] = statistics.median(setup_times)
    phases["total"] = time.perf_counter() - t_start
    out["info"]["phase_wall_s"] = phases
    units = dict(PER_LAYER if args.trace else END_TO_END)
    out["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    out["info"]["results_sha256"] = hashlib.sha256(
        repr(sorted(signatures.items())).encode()
    ).hexdigest()
    if args.workload == "emit":
        out["info"]["file_sha256"] = {name: list(sig) for name, sig in sorted(signatures.items())}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ramanasdp" / "__init__.py").is_file():
        print(f"error: library source {SRC / 'ramanasdp'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import ramanasdp

    if Path(ramanasdp.__file__).resolve().parent != (SRC / "ramanasdp").resolve():
        print(f"error: imported ramanasdp from {ramanasdp.__file__}", file=sys.stderr)
        return 2
    import workloads

    out = {
        "info": dict(_machine_info(np), workload=args.workload, seed=args.seed,
                     seconds=args.seconds, trace=args.trace),
        "correct": True,
        "attempted": 0,
        "failed": 0,
        "metrics": {},
    }
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=tmp_root)
    code = 0
    try:
        _bench(args, workdir, out)
    except workloads.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        out["correct"] = False
        code = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print(json.dumps({"info": out.pop("info")}))
    print(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
