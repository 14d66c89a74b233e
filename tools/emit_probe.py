"""Size and cost probe of emission: ``build_*`` plus ``write_sdpa``.

For each n, builds one system (``--builder``, default the exact dual
``dram``) of
``helpers.random_degenerate_instance(default_rng(seed), n, m, (2, 1, 1))``
and prints the build seconds, the median seconds of three writes and the
entry lines they write per second, the memory the built system holds
(tracemalloc of a second build alone) and the bytes of its table arrays,
its count of distinct coefficients (the matrices and free rows of its two
tables), the stored entries its rows reference against those the tables
hold, the tracemalloc peaks of that build and of the write alone
(allocations made by the writer, not the system it writes), and the
median seconds of ``builders.residuals`` at a random assignment.
``dstrong`` takes the face spec ``StrongDualSpec(q, r=2)`` with q a
random orthonormal basis from the same seed.

    python3 tools/emit_probe.py [--n N ...] [--m M] [--seed S] [--builder B]

n defaults to 18, 24 and 30, and m (at least 3) to n.  dram and altram
hold min(n - 1, m) rungs, so their size falls with m only where
m < n - 1; pram keeps n - 1 rungs whatever m is.  A system holds its
rows as id arrays into a coordinate table of distinct matrices and one
of distinct free rows, so the entries referenced (what the benchmark's
``builders.stored_floats`` counts) exceed those held.  At n = m = 30
the exact dual holds 1.3 MB (2.0 MB when its tables held one object per
coefficient, 13.5 MB when each row was its own objects, 164 MB when it
was held dense), peaks at 5.2 MB in the build (6.6 MB with objects),
and writes a 31 MB file with a 2.9 MB write peak (2.6 MB with objects:
the writer now converts the coefficient table to lists, which the build
did before); ``residuals`` takes 19 ms.  At n = 18, m = 5 it holds 0.13
MB and peaks at 0.51 MB in the build and 0.36 MB in the write, and
``residuals`` takes 0.4 ms.  The file is written to a temporary
directory and removed.
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


TABLES = (
    "coeff_ptr", "coeff_order", "coeff_i", "coeff_j", "coeff_v", "free_ptr", "free_j", "free_v",
    "row_ptr", "entry_block", "entry_coeff", "row_free", "row_offset", "rhs",
)


def array_counts(sdp) -> tuple[int, int, int, int]:
    """Stored entries referenced by the rows' matrices and free rows, the
    stored entries of the distinct ones (the system's two tables), how
    many distinct ones there are, and the bytes of the table arrays."""
    referenced = sum(
        int(np.diff(ptr)[ids].sum())
        for ptr, ids in ((sdp.coeff_ptr, sdp.entry_coeff), (sdp.free_ptr, sdp.row_free))
    )
    distinct = sdp.coeff_order.size + sdp.free_ptr.size - 1
    return referenced, sdp.coeff_v.size + sdp.free_v.size, distinct, sum(
        getattr(sdp, name).nbytes for name in TABLES
    )


def residuals_s(sdp, rng) -> float:
    """Median seconds of builders.residuals at a random assignment."""
    blocks = {b.name: rng.standard_normal((b.order, b.order)) for b in sdp.blocks}
    asg = rs.Assignment(blocks=blocks, free=rng.standard_normal(sdp.n_free))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        rs.builders.residuals(sdp, asg)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


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
        held, build_peak = tracemalloc.get_traced_memory()
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
    referenced, entries_held, distinct, table_bytes = array_counts(sdp)
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
        "table_mb": table_bytes / 1e6,
        "distinct_coeffs": distinct,
        "entries_referenced": referenced,
        "entries_held": entries_held,
        "build_peak_mb": build_peak / 1e6,
        "write_peak_mb": peak / 1e6,
        "residuals_s": residuals_s(sdp, np.random.default_rng(seed)),
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
                f"holds {row['held_mb']:.2f} MB ({row['table_mb']:.2f} MB of tables) in "
                f"{row['distinct_coeffs']:,} distinct coefficients, "
                f"stored entries {row['entries_referenced']:,} referenced, "
                f"{row['entries_held']:,} held, "
                f"build peak {row['build_peak_mb']:.2f} MB, write peak {row['write_peak_mb']:.2f} MB, "
                f"residuals {row['residuals_s'] * 1e3:.1f} ms",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
