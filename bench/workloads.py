"""The three benchmark workloads: solve, emit and verify.

Each workload turns a seed into a fixed batch of operations.  An
operation's ``run`` is the timed call sequence a user would make; its
``check`` runs afterwards, outside the timed region, raises WrongAnswer on
a wrong result and returns a signature that must repeat exactly every
time the operation runs again.  The shapes (n, block orders, kinds) are
fixed per workload; the seed draws the matrices, so runs with different
seeds do the same amount of work in shape.

All library calls look their function up on the module at call time
(``rs.build_rr_form``, ``certfile.parse_certificate_text``) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import ramanasdp as rs
from ramanasdp import builders, certfile

import gen

# Refusals are answers the library may give instead of a result; they are
# counted, never treated as wrong.
REFUSALS = (rs.NumericalRankAmbiguityError, rs.SubsolverFailureError, rs.IterationLimitError)

# Lifted certificates sit on a numerically computed face, whose alignment
# error grows to about sqrt(machine eps) per reduction round; the property
# suites check them at the same tolerance.
LIFT_EPS = 1e-6
VALUE_TOL = 1e-6
EMBED_TOL = 1e-8


class WrongAnswer(AssertionError):
    """The library returned a result that contradicts a planted fact."""


@dataclass
class Op:
    name: str
    # Set-up warms up the smallest op of each kind; the peak-memory pass runs
    # the largest op, taking the kind that comes first in the batch on ties.
    kind: str
    n: int
    run: Callable[[], Any]
    check: Callable[[Any], Any]


def _wrong(op_name: str, msg: str) -> WrongAnswer:
    return WrongAnswer(f"{op_name}: {msg}")


# --- solve -------------------------------------------------------------------

# (kind, n, block orders or m, generic equations), the four kinds in turn:
# planted-degenerate feasible, deep cascade (trailing block of order 1),
# strictly feasible (m equations) and planted infeasible.  Several shapes
# of similar cost sit at the top, so op_p90_s lands among them and not in
# the gap between two of them.
SOLVE_SHAPES = (
    ("degenerate", 6, (1,), 2), ("deep", 5, (2, 2), 1),
    ("strict", 6, 4, 0), ("infeasible", 6, (1, 1), 0),
    ("degenerate", 8, (2, 1), 2), ("deep", 6, (1, 2, 2), 1),
    ("strict", 7, 4, 0), ("infeasible", 8, (2, 1), 0),
    ("degenerate", 10, (1, 2, 1), 3), ("deep", 7, (2, 1, 1, 2), 2),
    ("strict", 8, 5, 0), ("infeasible", 9, (1, 1, 1), 0),
    ("degenerate", 12, (2, 2), 2), ("deep", 8, (1, 2, 2, 1, 1), 1),
    ("strict", 9, 5, 0), ("infeasible", 10, (1, 2), 0),
    ("degenerate", 13, (2, 1, 1), 2), ("deep", 9, (2, 2, 2, 2), 1),
    ("strict", 10, 5, 0), ("infeasible", 11, (1, 2, 1), 0),
    ("degenerate", 14, (1, 1, 2), 3), ("deep", 10, (2, 2, 2, 2, 1), 2),
    ("strict", 10, 6, 0), ("infeasible", 12, (2, 1, 1), 0),
    ("degenerate", 11, (2, 1), 2),
)


def _solve_op(name: str, kind: str, pl: gen.Planted) -> Op:
    inst = pl.inst
    floor = float(inst.b @ pl.y0)

    def run():
        rr = rs.build_rr_form(inst)
        value = rs.primal_optimal_value(inst, rr)
        if rr.status == "feasible":
            cert = rs.lift_from_strong(inst, pl.y0, rr)
            outcome = rs.verify_dram(inst, cert, eps=LIFT_EPS)
        else:
            cert = rs.alt_ram_from_rr(inst, rr)
            outcome = rs.verify_alt_ram(inst, cert, eps=LIFT_EPS)
        return rr, value, outcome

    def check(result):
        rr, value, outcome = result
        if rr.status != pl.status:
            raise _wrong(name, f"status {rr.status}, planted {pl.status}")
        if sum(rr.r) != pl.rank_sum:
            raise _wrong(name, f"sum(r) = {sum(rr.r)}, planted {pl.rank_sum}")
        if pl.status == "infeasible":
            if value != float("inf"):
                raise _wrong(name, f"optimal value {value} of an infeasible instance")
        elif not value >= floor - VALUE_TOL * (1.0 + abs(floor)):
            raise _wrong(name, f"optimal value {value} below the dual bound <b, y0> = {floor}")
        if not outcome.ok:
            raise _wrong(name, f"valid certificate rejected: {outcome.violation}")
        return rr.status, rr.r, rr.k, value, outcome.value

    return Op(name=name, kind=kind, n=inst.n, run=run, check=check)


def setup_solve(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for i, (kind, n, shape, extra) in enumerate(SOLVE_SHAPES):
        if kind == "strict":
            pl = gen.strictly_feasible(rng, n, shape)
        else:
            pl = gen.planted(rng, n, shape, extra, infeasible=kind == "infeasible")
        ops.append(_solve_op(f"{i:02d}-{kind}-n{n}", kind, pl))
    return ops


# --- emit --------------------------------------------------------------------

# dram first: it is the memory-heaviest kind, which the peak pass runs.
EMIT_BUILDERS = ("dram", "altram", "pram", "dstrong")
# Seven sizes against four builders meet every (builder, n) pair within 28
# ops.  Batches of 35 (and 25 for solve) put op_p50_s and op_p90_s in the
# middle of one op's repeated samples, not in the gap between two ops.
EMIT_SIZES = (8, 9, 10, 11, 12, 14, 18)
EMIT_BATCH = 35


def _emit_ranks(n: int) -> tuple[int, ...]:
    return tuple(2 if j % 2 else 1 for j in range(max(1, n // 5)))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _emit_op(name: str, builder: str, pl: gen.Planted, path: str) -> Op:
    inst = pl.inst
    cert = gen.dram_certificate(pl) if builder == "dram" else None
    spec = gen.strong_point(pl)[0] if builder == "dstrong" else None

    def run():
        if builder == "dram":
            sdp = rs.build_dram(inst)
        elif builder == "altram":
            sdp = rs.build_alt_ram(inst)
        elif builder == "pram":
            sdp = rs.build_pram(inst)
        else:
            sdp = rs.build_dstrong(inst, spec)
        rs.write_sdpa(sdp, path)
        assignment = rs.embed_certificate(sdp, inst, cert) if cert is not None else None
        return sdp, assignment

    def check(result):
        sdp, assignment = result
        if assignment is not None:
            viol = builders.max_violation(sdp, assignment)
            if not viol <= EMBED_TOL:
                raise _wrong(name, f"embedded certificate violates a constraint by {viol:.3e}")
            lam = builders.min_block_eigenvalue(sdp, assignment)
            if not lam >= -EMBED_TOL:
                raise _wrong(name, f"embedded certificate has block eigenvalue {lam:.3e}")
        return _sha256(path), _sha256(path + ".varmap")

    return Op(name=name, kind=builder, n=inst.n, run=run, check=check)


def setup_emit(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(EMIT_BATCH):
        builder = EMIT_BUILDERS[i % len(EMIT_BUILDERS)]
        n = EMIT_SIZES[i % len(EMIT_SIZES)]
        pl = gen.planted(rng, n, _emit_ranks(n), 2)
        name = f"{i:02d}-{builder}-n{n}"
        ops.append(_emit_op(name, builder, pl, os.path.join(workdir, f"{name}.dat-s")))
    return ops


# --- verify ------------------------------------------------------------------

VERIFY_SIZES = (8, 10, 12, 14, 16, 18, 20, 22, 24)
# (check, corruption): 6 of 16 certificates are corrupted, in a rung (U_j
# not PSD, or V_j outside tan(U_{j-1})) or in the head, and must be rejected.
VERIFY_CYCLE = (
    ("dram", None), ("altram", None), ("strong", "head"), ("normalize", None),
    ("dram", "rung_v"), ("altram", None), ("strong", None), ("normalize", None),
    ("dram", None), ("altram", "head"), ("strong", None), ("normalize", "rung_u"),
    ("dram", "head"), ("altram", "rung_u"), ("strong", None), ("normalize", None),
)
VERIFY_BATCH = 35


def _verify_ranks(n: int) -> tuple[int, ...]:
    return tuple(2 if j % 2 else 1 for j in range(max(1, n // 4)))


def _verify_text(check: str, corruption, pl: gen.Planted) -> str:
    inst = pl.inst
    if check == "strong":
        spec, y = gen.strong_point(pl)
        if corruption == "head":
            y = gen.corrupt_head_y(pl, y, dual=True)
        return certfile.certificate_to_text(inst, "dstrong", spec=spec, point=y)
    cert = gen.altram_certificate(pl) if check == "altram" else gen.dram_certificate(pl)
    cert = gen.padded(cert, inst)
    if corruption in ("rung_u", "rung_v"):
        cert = gen.corrupt_rung(pl, cert, u_not_psd=corruption == "rung_u")
    elif corruption == "head":
        y = gen.corrupt_head_y(pl, cert.y, dual=check != "altram")
        cert = rs.RamanaCertificate(system=cert.system, y=y, ladder=cert.ladder)
    return certfile.certificate_to_text(inst, cert.system, cert=cert)


def _verify_op(name: str, check_kind: str, pl: gen.Planted, text: str, valid: bool) -> Op:
    inst = pl.inst

    def run():
        cf = certfile.parse_certificate_text(text)
        certfile.check_instance_binding(cf, inst)
        if check_kind == "strong":
            spec, y = certfile.to_strong_point(cf)
            return rs.verify_strong(inst, spec, y, "dual")
        cert = certfile.to_ramana_certificate(cf, inst)
        if check_kind == "dram":
            return rs.verify_dram(inst, cert)
        if check_kind == "altram":
            return rs.verify_alt_ram(inst, cert)
        try:
            return rs.normalize_ladder(inst, cert)
        except rs.InductionBreakError as exc:
            return exc

    def check(result):
        if check_kind != "normalize":
            accepted, detail = result.ok, result.violation
        elif isinstance(result, rs.InductionBreakError):
            accepted, detail = False, str(result)
        else:
            accepted = (
                result.frs_valid and all(result.u_membership) and sum(result.r) == pl.rank_sum
            )
            detail = result.r
        if accepted and not valid:
            raise _wrong(name, "corrupted certificate accepted")
        if valid and not accepted:
            raise _wrong(name, f"valid certificate rejected: {detail}")
        return accepted, str(detail)

    return Op(name=name, kind=check_kind, n=inst.n, run=run, check=check)


def setup_verify(seed: int, workdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(VERIFY_BATCH):
        check_kind, corruption = VERIFY_CYCLE[i % len(VERIFY_CYCLE)]
        n = VERIFY_SIZES[i % len(VERIFY_SIZES)]
        pl = gen.planted(rng, n, _verify_ranks(n), 1, infeasible=check_kind == "altram")
        text = _verify_text(check_kind, corruption, pl)
        name = f"{i:02d}-{check_kind}-{corruption or 'valid'}-n{n}"
        ops.append(_verify_op(name, check_kind, pl, text, corruption is None))
    return ops


WORKLOADS = {"solve": setup_solve, "emit": setup_emit, "verify": setup_verify}
