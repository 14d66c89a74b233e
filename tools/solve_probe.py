"""Decision probe on the benchmark's ``solve`` workload.

Runs every op of ``bench/workloads.py``'s ``solve`` batch (``build_rr_form``,
``primal_optimal_value`` and a certificate on planted instances) for each
seed of a range, once and untimed, and records per op its status, r, k,
optimal value and, for a refusal, the error's type.  It prints the refused
and wrong ops and a SHA-256 of the per-op (status, r, k, refusal), so two
versions of the library give the same digest exactly when they make the
same decision on every op.  ``--compare`` diffs this run against a file
written by ``--out``: ops whose (status, r, k, refusal) differ, and the
largest value change |v - v'| / (1 + |v'|) over the ops both answered.
``--peak`` runs each op under tracemalloc, as ``bench/run.py``'s peak pass
does, records its peak and prints the largest and the median over all
ops, so a memory change shows on every op and not only on the batch's
peak op; the peaks are left out of the digest.

    python3 tools/solve_probe.py --seeds 101-110 [--peak] [--out FILE] [--compare FILE]

The ops are the ones ``bench/run.py --workload solve --seed S`` times, 25
per seed; 10 seeds take about 8 s on a 2-core Xeon.  Not a test: pytest
collects only ``tests`` and ``bench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402


def parse_seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError("--seeds A-B needs A <= B")
    return range(lo, hi + 1)


def traced_run(op, rec: dict):
    """op.run() under tracemalloc, its peak in MB stored as rec["peak_mb"]."""
    tracemalloc.start()
    try:
        return op.run()
    finally:
        rec["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()


def probe(seeds: range, peak: bool = False) -> list[dict]:
    """One record per op: seed, op, status, r, k, value, refusal, wrong,
    and with ``peak`` the op's tracemalloc peak, peak_mb."""
    records = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seeds:
            for op in workloads.setup_solve(seed, workdir):
                rec = {"seed": seed, "op": op.name, "status": None, "r": None, "k": None,
                       "value": None, "refusal": None, "wrong": None}
                try:
                    status, r, k, value, _ = op.check(traced_run(op, rec) if peak else op.run())
                    rec.update(status=status, r=list(r), k=k, value=value)
                except workloads.REFUSALS as exc:
                    rec["refusal"] = type(exc).__name__
                except workloads.WrongAnswer as exc:
                    rec["wrong"] = str(exc)
                records.append(rec)
    return records


def decision(rec: dict) -> list:
    return [rec["status"], rec["r"], rec["k"], rec["refusal"]]


def digest(records: list[dict]) -> str:
    """SHA-256 of the per-op decisions, in op order."""
    return hashlib.sha256(json.dumps([decision(rec) for rec in records]).encode()).hexdigest()


def compare(new: list[dict], old: list[dict]) -> tuple[list[str], float]:
    """Ops whose decision differs, and the largest relative value change."""
    old_by_op = {(rec["seed"], rec["op"]): rec for rec in old}
    differ, worst = [], 0.0
    for rec in new:
        key = (rec["seed"], rec["op"])
        ref = old_by_op.get(key)
        if ref is None:
            differ.append(f"{key[0]}/{key[1]}: missing from the other file")
        elif decision(rec) != decision(ref):
            differ.append(f"{key[0]}/{key[1]}: {decision(ref)} -> {decision(rec)}")
        elif rec["value"] is not None and rec["value"] != ref["value"]:
            # Equal decisions give both values or neither, and equal
            # infinities are skipped here (inf - inf is nan).
            worst = max(worst, abs(rec["value"] - ref["value"]) / (1.0 + abs(ref["value"])))
    return differ, worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=parse_seeds, required=True, metavar="A-B",
                    help="solve seeds A..B, inclusive")
    ap.add_argument("--out", help="write the per-op records to this JSON file")
    ap.add_argument("--compare", metavar="FILE", help="diff against a file written by --out")
    ap.add_argument("--peak", action="store_true",
                    help="record each op's tracemalloc peak; print the largest and the median")
    args = ap.parse_args(argv)
    records = probe(args.seeds, args.peak)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh)
    refused = [f"{rec['seed']}/{rec['op']}" for rec in records if rec["refusal"]]
    wrong = [f"{rec['seed']}/{rec['op']}: {rec['wrong']}" for rec in records if rec["wrong"]]
    print(f"ops {len(records)}")
    print(f"refused {len(refused)}: {refused}")
    print(f"wrong {len(wrong)}: {wrong}")
    print(f"sha256 {digest(records)}")
    if args.peak:
        top = max(records, key=lambda rec: rec["peak_mb"])
        print(f"peak MB: largest {top['peak_mb']:.4f} ({top['seed']}/{top['op']}), "
              f"median {statistics.median(rec['peak_mb'] for rec in records):.4f}")
    status = 1 if wrong else 0
    if args.compare:
        with open(args.compare) as fh:
            differ, worst = compare(records, json.load(fh))
        print(f"decisions that differ from {args.compare}: {len(differ)}")
        for line in differ:
            print(f"  {line}")
        print(f"largest value change |v - v'|/(1 + |v'|): {worst:.3g}")
        status = status or (1 if differ else 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
