"""Stage probe of the benchmark's ``verify`` workload: parse, bind, check.

Runs every op of ``bench/workloads.py``'s ``verify`` batch for a seed
(parse a certificate text, bind it to its instance by digest, then check
it with ``verify_dram``, ``verify_alt_ram``, ``verify_strong`` or
``normalize_ladder``) ``--repeats`` times, and splits each op's time into
three stages:

* parse: ``certfile.parse_certificate_text``;
* bind: ``certfile.check_instance_binding``, the n, m comparison and
  the instance's SHA-256 digest named by the file's binding field: the
  workload's texts carry ``instance-sha256-f64``, so ``number_digest``;
* check: the rest of the op, building the certificate from its records
  and running the check.

It prints, per op, the median over the repeats of each stage in ms, then
the batch totals (the sum over the ops of those medians) with each
stage's share; the records parsed in a batch, how many of them are all
zero, and the bytes parsed, counted over one more, untimed run; the
tracemalloc peak of each stage of the workload's peak op (the op whose
``peak_mb`` ``bench/run.py`` reports), from one more untimed run, each
stage's peak counting what the stages before it still hold; and the
set-up time: the whole ``setup_verify`` and the part of it spent in
``certfile.certificate_to_text`` writing the 35 texts.  The stages are
timed and traced by wrapping the two ``certfile`` functions, which the
ops look up on the module at call time; each wrapper runs once an op.

    python3 tools/verify_probe.py [--seed S] [--repeats R] [--ops]

The seed defaults to 107 and the repeats to 5.  On a 2-core Xeon shared
with other jobs, three runs at seed 107 read a batch of 0.068-0.118 s:
parse 35-38%, bind 2%, check 61-63%, over 341 records (none all zero)
and 1,355,332 bytes.  The peak op, ``08-dram-valid-n24``, peaks at
0.1089 MB in parse, 0.0666 MB in bind and 0.1090 MB in check.  When
each SymMat copied its parsed record and each tangent test built a
witness, three runs alternated with those read 0.082-0.124 s with parse
32-35% and check 63-67%, and the check peaked at 0.1837 MB (parse
0.1081 MB, bind 0.0656 MB).  When the files held the ladders' leading zero
rungs, three runs alternated with those read 0.153-0.175 s with the same
shares, over 1,199 records (858 all zero) and 2,117,652 bytes.  When the
bind hashed the instance's SDPA text it was 24% of the batch, with parse
26% and check 50% (42%, 18% and 40% when every entry was also read by
``float()``).
Not a test: pytest collects only ``tests`` and ``bench``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

from ramanasdp import certfile  # noqa: E402

import run as bench_run  # noqa: E402
import workloads  # noqa: E402

STAGES = ("parse", "bind", "check")
# The certfile functions that make up the first two stages.
STAGE_FUNCS = ("parse_certificate_text", "check_instance_binding")


@contextmanager
def timed(spent: dict[str, float]):
    """Add the seconds spent in each ``certfile`` function named by a key
    of ``spent`` to its value while the block runs."""
    originals = {name: getattr(certfile, name) for name in spent}

    def wrap(name, fn):
        def inner(*args, **kw):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                spent[name] += time.perf_counter() - t0
        return inner

    for name, fn in originals.items():
        setattr(certfile, name, wrap(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(certfile, name, fn)


def record_counts(ops) -> dict[str, int]:
    """Records parsed, how many of them are all zero, and bytes parsed,
    over one untimed run of the batch."""
    counts = {"records": 0, "zero": 0, "bytes": 0}
    real = certfile.parse_certificate_text

    def counting(text):
        cf = real(text)
        records = [*cf.scalars.values(), *cf.vectors.values(), *cf.matrices.values()]
        counts["records"] += len(records)
        counts["zero"] += sum(not np.any(a) for a in records)
        counts["bytes"] += len(text)
        return cf

    certfile.parse_certificate_text = counting
    try:
        for op in ops:
            op.check(op.run())
    finally:
        certfile.parse_certificate_text = real
    return counts


def stage_peaks(op) -> dict[str, int]:
    """tracemalloc peak, in bytes, of each stage of one untimed run of
    ``op``.  Each stage's peak counts what the stages before it still
    hold, so the largest of them is the op's peak."""
    peaks: dict[str, int] = {}
    originals = {name: getattr(certfile, name) for name in STAGE_FUNCS}

    def wrap(stage, fn):
        def inner(*args, **kw):
            try:
                return fn(*args, **kw)
            finally:
                peaks[stage] = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
        return inner

    for stage, name in zip(STAGES, STAGE_FUNCS):
        setattr(certfile, name, wrap(stage, originals[name]))
    tracemalloc.start()
    try:
        op.check(op.run())
        peaks["check"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        for name, fn in originals.items():
            setattr(certfile, name, fn)
    return peaks


def probe(seed: int, repeats: int) -> dict:
    """Set-up and writer seconds, and per op the median seconds of each
    stage over ``repeats`` runs of the batch."""
    written = {"certificate_to_text": 0.0}
    with tempfile.TemporaryDirectory() as workdir, timed(written):
        t0 = time.perf_counter()
        ops = workloads.setup_verify(seed, workdir)
        setup_s = time.perf_counter() - t0
    parsed = record_counts(ops)
    peak_op = bench_run._peak_op(ops)
    peaks = stage_peaks(peak_op)
    samples = {op.name: {stage: [] for stage in STAGES} for op in ops}
    for _ in range(repeats):
        for op in ops:
            spent = dict.fromkeys(STAGE_FUNCS, 0.0)
            with timed(spent):
                t0 = time.perf_counter()
                result = op.run()
                total = time.perf_counter() - t0
            op.check(result)
            parse, bind = (spent[name] for name in STAGE_FUNCS)
            for stage, s in zip(STAGES, (parse, bind, total - parse - bind)):
                samples[op.name][stage].append(s)
    return {
        "setup_s": setup_s,
        "write_s": written["certificate_to_text"],
        "parsed": parsed,
        "peak_op": peak_op.name,
        "peaks": peaks,
        "per_op": {
            name: {stage: statistics.median(vals) for stage, vals in stages.items()}
            for name, stages in samples.items()
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=107)
    ap.add_argument("--repeats", type=int, default=5, help="runs of the batch (at least 1)")
    ap.add_argument("--ops", action="store_true", help="print each op's stages")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    row = probe(args.seed, args.repeats)
    if args.ops:
        for name, stages in row["per_op"].items():
            cols = "".join(f" {stage} {stages[stage] * 1e3:7.2f} ms" for stage in STAGES)
            print(f"{name:<28}{cols}")
    totals = {stage: sum(op[stage] for op in row["per_op"].values()) for stage in STAGES}
    batch = sum(totals.values())
    print(
        f"seed {args.seed}, {len(row['per_op'])} ops, median of {args.repeats}: "
        f"batch {batch:.3f} s = "
        + ", ".join(f"{stage} {s:.3f} s ({s / batch:.0%})" for stage, s in totals.items())
    )
    parsed = row["parsed"]
    print(
        f"parsed per batch: {parsed['records']} records, {parsed['zero']} of them all zero "
        f"({parsed['zero'] / parsed['records']:.0%}), {parsed['bytes']} bytes"
    )
    print(
        f"peak op {row['peak_op']}, tracemalloc peak by stage: "
        + ", ".join(f"{stage} {row['peaks'][stage] / 1e6:.4f} MB" for stage in STAGES)
    )
    print(
        f"setup {row['setup_s']:.3f} s, of which certificate_to_text "
        f"{row['write_s']:.3f} s ({row['write_s'] / row['setup_s']:.0%})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
