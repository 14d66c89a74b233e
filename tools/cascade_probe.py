"""Refusal probe on a deep-cascade shape, by default n = 7, blocks (2, 1, 1, 2).

Runs ``build_rr_form`` on
``helpers.random_degenerate_instance(default_rng(seed), 7, 6, (2, 1, 1, 2))``
for seeds 0..N-1 and prints the number of refusals, the refused seeds, any
seed whose answer contradicts the planted face, and a SHA-256 of the
per-seed (status, r, k).  Two versions of the library give the same digest
exactly when they make the same decision on every seed, so a change to the
subsolver or to cleanup can be gated on this set.  With ``--infeasible``
the instances are ``bench/gen.planted(default_rng(seed), 7, (2, 1, 1, 2),
2, infeasible=True)`` instead, and an answer other than "infeasible" is
wrong.  ``--shape N,M,B1,B2,...`` probes
``random_degenerate_instance(rng, N, M, (B1, B2, ...))`` instead (with
``--infeasible``: ``planted(rng, N, (B1, B2, ...), 2, infeasible=True)``,
which has no M), for example the thin-face shapes 7,5,2,2,2 /
12,7,2,2,2,2,3 / 5,4,2,2 / 8,8,1,1,1,1,1,1.

    python3 tools/cascade_probe.py [--seeds N] [--infeasible] [--shape N,M,B1,...]
                                   [--out FILE] [--compare FILE]

N defaults to 1,000 (about 90 s in either mode on a 2-core Xeon).
``--out`` writes the per-seed answers as JSON.  ``--compare`` diffs this
run against such a file and prints each seed whose answer moved, with the
old and the new answer, so a digest that changes points at its seeds.
Not a test: pytest collects only ``tests`` and ``bench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import ramanasdp as rs  # noqa: E402
from gen import planted  # noqa: E402
from helpers import random_degenerate_instance  # noqa: E402

REFUSALS = (rs.NumericalRankAmbiguityError, rs.SubsolverFailureError, rs.IterationLimitError)
SHAPE = (7, 6, (2, 1, 1, 2))


def parse_shape(text: str) -> tuple[int, int, tuple[int, ...]]:
    n, m, *blocks = (int(x) for x in text.split(","))
    if not blocks:
        raise argparse.ArgumentTypeError("--shape needs N,M and at least one block")
    return n, m, tuple(blocks)


def probe(seed: int, infeasible: bool, shape=SHAPE) -> tuple[list, bool]:
    """(status, r, k) or ("refused", error name), and whether it is wrong."""
    rng = np.random.default_rng(seed)
    if infeasible:
        inst = planted(rng, shape[0], shape[2], 2, infeasible=True).inst
    else:
        inst, _, rank_sum = random_degenerate_instance(rng, *shape)
    try:
        rr = rs.build_rr_form(inst)
    except REFUSALS as exc:
        return ["refused", type(exc).__name__], False
    answer = [rr.status, list(rr.r), rr.k]
    if infeasible:
        return answer, rr.status != "infeasible"
    return answer, rr.status != "feasible" or sum(rr.r) != rank_sum


def compare(new: list, old: list) -> list[str]:
    """``seed: old -> new`` for each seed that both runs probed and whose
    answer differs."""
    return [f"{seed}: {b} -> {a}" for seed, (a, b) in enumerate(zip(new, old)) if a != b]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=1000, help="probe seeds 0..N-1")
    ap.add_argument("--infeasible", action="store_true",
                    help="probe planted infeasible instances of the same shape")
    ap.add_argument("--shape", type=parse_shape, default=SHAPE, metavar="N,M,B1,B2,...",
                    help="order, rows and planted blocks (default 7,6,2,1,1,2)")
    ap.add_argument("--out", help="write the per-seed answers to this JSON file")
    ap.add_argument("--compare", metavar="FILE", help="diff against a file written by --out")
    args = ap.parse_args(argv)
    answers, refused, wrong = [], [], []
    for seed in range(args.seeds):
        answer, bad = probe(seed, args.infeasible, args.shape)
        answers.append(answer)
        if answer[0] == "refused":
            refused.append(seed)
        if bad:
            wrong.append(seed)
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(answers, fh)
    print(f"refused {len(refused)} of {args.seeds}: {refused}")
    print(f"wrong {len(wrong)}: {wrong}")
    print(f"sha256 {digest}")
    status = 1 if wrong else 0
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)
        moved = compare(answers, old)
        both = min(len(answers), len(old))
        print(f"answers that differ from {args.compare} on the {both} seeds both probed: "
              f"{len(moved)}")
        for line in moved:
            print(f"  {line}")
        status = status or (1 if moved else 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
