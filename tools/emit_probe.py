"""Size and cost probe of emission: ``build_*`` plus ``write_sdpa``.

For each n, builds one system (``--builder``, default the exact dual
``dram``) of
``helpers.random_degenerate_instance(default_rng(seed), n, m, (2, 1, 1))``
and prints the build seconds, the median seconds of three writes and the
entry lines they write per second, the memory the built system holds
(tracemalloc of a second build alone), its count of distinct coefficients
(the entries of its matrix and free-row tables), the stored entries its
rows reference against those the tables hold, and the tracemalloc peak of
the write alone (allocations made by the writer, not the system it
writes).  ``dstrong`` takes the face spec ``StrongDualSpec(q, r=2)`` with
q a random orthonormal basis from the same seed.

    python3 tools/emit_probe.py [--n N ...] [--m M] [--seed S] [--builder B]

n defaults to 18, 24 and 30, and m (at least 3) to n.  dram and altram
hold min(n - 1, m) rungs, so their size falls with m only where
m < n - 1; pram keeps n - 1 rungs whatever m is.  A system holds its
rows as id arrays into a table of distinct sparse matrices and one of
distinct free rows, so the entries referenced (what the benchmark's
``builders.stored_floats`` counts) exceed those held.  At n = 30 the
exact dual holds 2.0 MB (13.5 MB when each row was its own objects,
164 MB when it was held dense) and writes a 31 MB file with a 2.6 MB
write peak.  The file is written to a temporary directory and removed.
Not a test: pytest collects only ``tests`` and ``bench``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import ramanasdp as rs  # noqa: E402
from helpers import random_degenerate_instance, random_orthonormal  # noqa: E402

RANKS = (2, 1, 1)
BUILDERS = {
    "dram": lambda inst, seed: rs.build_dram(inst),
    "altram": lambda inst, seed: rs.build_alt_ram(inst),
    "pram": lambda inst, seed: rs.build_pram(inst),
    "dstrong": lambda inst, seed: rs.build_dstrong(
        inst, rs.StrongDualSpec(q=random_orthonormal(np.random.default_rng(seed), inst.n), r=2)
    ),
}


def array_counts(sdp) -> tuple[int, int, int]:
    """Stored entries referenced by the rows' matrices and free rows, the
    stored entries of the distinct ones (the system's two tables), and
    how many distinct ones there are, read from the tables and their id
    arrays."""
    tables = ((sdp.coeffs, sdp.entry_coeff), (sdp.free_rows, sdp.row_free))
    referenced = sum(
        int(np.bincount(ids, minlength=len(table)) @ np.array([c.size for c in table], dtype=int))
        for table, ids in tables
    )
    held = sum(c.size for table, _ in tables for c in table)
    return referenced, held, len(sdp.coeffs) + len(sdp.free_rows)


def probe(n: int, m: int, seed: int, builder: str, path: str) -> dict:
    inst = random_degenerate_instance(np.random.default_rng(seed), n, m, RANKS)[0]
    build = BUILDERS[builder]
    t0 = time.perf_counter()
    build(inst, seed)
    build_s = time.perf_counter() - t0
    # The held memory in a build of its own: tracemalloc slows the builder.
    tracemalloc.start()
    try:
        sdp = build(inst, seed)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    write_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        rs.write_sdpa(sdp, path)
        write_s.append(time.perf_counter() - t0)
    # A pass of its own: tracemalloc slows the writer several times over.
    tracemalloc.start()
    try:
        rs.write_sdpa(sdp, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    referenced, entries_held, distinct = array_counts(sdp)
    with open(path, "rb") as fh:
        lines = sum(1 for _ in fh) - 4  # the header takes four lines
    return {
        "n": n,
        "constraints": sdp.rhs.size,
        "build_s": build_s,
        "write_s": statistics.median(write_s),
        "lines": lines,
        "file_mb": os.path.getsize(path) / 1e6,
        "held_mb": held / 1e6,
        "distinct_coeffs": distinct,
        "entries_referenced": referenced,
        "entries_held": entries_held,
        "write_peak_mb": peak / 1e6,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[18, 24, 30], help="instance orders")
    ap.add_argument("--m", type=int, help="equations of each instance (default n)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--builder", choices=sorted(BUILDERS), default="dram")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.n:
            m = n if args.m is None else args.m
            path = os.path.join(tmp, f"{args.builder}-n{n}.dat-s")
            row = probe(n, m, args.seed, args.builder, path)
            print(
                f"n {row['n']}{'' if args.m is None else f', m {m}'}: "
                f"{row['constraints']} constraints, "
                f"build {row['build_s']:.2f} s, write {row['write_s']:.2f} s "
                f"({row['file_mb']:.1f} MB, {row['lines'] / row['write_s'] / 1e3:,.0f}k lines/s), "
                f"holds {row['held_mb']:.1f} MB in "
                f"{row['distinct_coeffs']:,} distinct coefficients, "
                f"stored entries {row['entries_referenced']:,} referenced, "
                f"{row['entries_held']:,} held, "
                f"write peak {row['write_peak_mb']:.1f} MB",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
