"""Command-line interface.

Subcommands:

  inspect <file>                     dimensions, PSD class of C, strict-
                                     feasibility probe
  rr-form <file>                     build the rank-revealing form; write
                                     the reformulated instance and a JSON
                                     report usable by emit --from-rr
  emit <file> --system S             write system S as SDPA + .varmap
                                     sidecar (dstrong/pstrong need
                                     --from-rr)
  verify <file> --cert <certfile>    run the matching verifier
  normalize <file> --cert <certfile> run the ladder normalization
  examples [run <id> | run --all]    list or re-check the built-in
                                     example registry

Exit codes: 0 feasible/valid/success, 2 infeasible/invalid, 1 error.
The default tolerance is 1e-8, overridable with --eps or RAMANA_EPS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, builders, certfile, facial, registry, sdpa, verify
from .symmat import SymMat, classify_psd

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def _out(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for ln in lines:
            print(ln)


def _mat_list(a) -> list:
    return [[float(x) for x in row] for row in np.asarray(a)]


def cmd_inspect(args) -> int:
    inst = sdpa.read_sdpa(args.file)
    ccls = classify_psd(inst.c, args.eps)
    alt = facial.solve_alternative(inst, facial.MODE_EQ_ZERO, args.eps, args.max_iter)
    strict = "strictly-feasible" if not alt.found else "not-strictly-feasible"
    payload = {
        "n": inst.n,
        "m": inst.m,
        "objective_matrix_class": ccls.tag,
        "objective_matrix_rank": ccls.rank,
        "strict_feasibility_probe": strict,
        "symmetrized_on_read": inst.symmetrized,
    }
    _out(
        payload,
        args.json,
        [
            f"order n = {inst.n}, equalities m = {inst.m}",
            f"objective matrix: {ccls.tag} (rank {ccls.rank})",
            f"strict-feasibility probe: {strict}",
        ],
    )
    return EXIT_OK


def _rr_report_payload(inst, rr, pstrong_spec) -> dict:
    return {
        "status": rr.status,
        "k": rr.k,
        "r": list(rr.r),
        "m_rows": _mat_list(rr.ref.m_rows),
        "q": _mat_list(rr.ref.q),
        "maxrank_x": None if rr.maxrank_x is None else _mat_list(rr.maxrank_x.a),
        "reformulated_b": [float(v) for v in rr.reformulated.b],
        "dstrong": None
        if rr.status != facial.STATUS_FEASIBLE
        else {"q": _mat_list(rr.ref.q), "r": inst.n - int(sum(rr.r))},
        "pstrong": None
        if pstrong_spec is None
        else {"q": _mat_list(pstrong_spec.q), "r": int(pstrong_spec.r)},
    }


def cmd_rr_form(args) -> int:
    inst = sdpa.read_sdpa(args.file)
    rr = facial.build_rr_form(inst, eps=args.eps, max_iter=args.max_iter)
    pstrong_spec = None
    if rr.status == facial.STATUS_FEASIBLE:
        try:
            sdp_red, comp = builders.build_red(inst)
            red_inst = builders.red_to_instance(sdp_red, comp)
            rr_red = facial.build_rr_form(red_inst, eps=args.eps, max_iter=args.max_iter)
            if rr_red.status == facial.STATUS_FEASIBLE and rr_red.maxrank_x is not None:
                q_red = rr_red.ref.q
                slack = q_red @ rr_red.maxrank_x.a @ q_red.T
                pstrong_spec = builders.pstrong_spec_from_slack(SymMat(slack), args.eps)
        except (
            ValueError,
            facial.SubsolverFailureError,
            facial.NumericalRankAmbiguityError,
            facial.IterationLimitError,
        ):
            pstrong_spec = None  # dual side may be infeasible; report without it
    stem = args.out if args.out else os.path.splitext(args.file)[0]
    inst_path = stem + ".rr.dat-s"
    report_path = stem + ".rr.json"
    sdpa.write_sdpa(rr.reformulated, inst_path)
    payload = _rr_report_payload(inst, rr, pstrong_spec)
    payload["reformulated_file"] = inst_path
    with open(report_path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
    lines = [
        f"status: {rr.status}",
        f"k = {rr.k}, block sizes r = {list(rr.r)}",
        f"reformulated instance written to {inst_path}",
        f"report written to {report_path}",
    ]
    if rr.status == facial.STATUS_FEASIBLE and rr.maxrank_x is not None:
        rank = classify_psd(rr.maxrank_x, args.eps).rank
        lines.insert(2, f"maximum feasible rank: {rank}")
    else:
        lines.insert(2, f"terminal right-hand side: {float(rr.reformulated.b[rr.k - 1]):.9g}")
    _out(payload, args.json, lines)
    return EXIT_OK


def _strong_spec_from_report(report: dict, system: str) -> builders.StrongDualSpec:
    key = "dstrong" if system == "dstrong" else "pstrong"
    blob = report.get(key)
    if not blob:
        raise ValueError(f"rr report carries no {key} data (instance infeasible?)")
    return builders.StrongDualSpec(q=np.array(blob["q"]), r=int(blob["r"]))


def cmd_emit(args) -> int:
    inst = sdpa.read_sdpa(args.file)
    system = args.system
    if system in ("dstrong", "pstrong"):
        if not args.from_rr:
            raise ValueError(f"--system {system} requires --from-rr <report.json>")
        with open(args.from_rr) as fh:
            report = json.load(fh)
        spec = _strong_spec_from_report(report, system)
        sdp = (
            builders.build_dstrong(inst, spec)
            if system == "dstrong"
            else builders.build_pstrong(inst, spec)
        )
    elif system == "dram":
        sdp = builders.build_dram(inst)
    elif system == "altram":
        sdp = builders.build_alt_ram(inst)
    elif system == "pram":
        sdp = builders.build_pram(inst)
    else:
        raise ValueError(f"unknown system {system!r}")
    out = args.out if args.out else os.path.splitext(args.file)[0] + f".{system}.dat-s"
    sdpa.write_sdpa(sdp, out)
    payload = {
        "system": system,
        "file": out,
        "sidecar": out + ".varmap",
        "psd_blocks": [[b.name, b.order] for b in sdp.blocks],
        "free_scalars": sdp.n_free,
        "constraints": len(sdp.constraints),
    }
    _out(
        payload,
        args.json,
        [
            f"system {system} written to {out} (sidecar {out}.varmap)",
            f"PSD blocks: {', '.join(f'{b.name}({b.order})' for b in sdp.blocks) or 'none'}",
            f"free scalars: {sdp.n_free}, constraints: {len(sdp.constraints)}",
        ],
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = sdpa.read_sdpa(args.file)
    cf = certfile.read_certificate(args.cert)
    certfile.check_instance_binding(cf, inst)
    if cf.system in ("dram", "altram", "pram"):
        cert = certfile.to_ramana_certificate(cf, inst)
        fn = {
            "dram": verify.verify_dram,
            "altram": verify.verify_alt_ram,
            "pram": verify.verify_pram,
        }[cf.system]
        out = fn(inst, cert, args.eps)
    else:
        spec, point = certfile.to_strong_point(cf)
        side = verify.SIDE_DUAL if cf.system == "dstrong" else verify.SIDE_PRIMAL
        out = verify.verify_strong(inst, spec, point, side, args.eps)
    payload = {
        "system": cf.system,
        "feasible": out.ok,
        "value": out.value,
        "violation": out.violation,
        "residual": out.residual,
        "warnings": list(out.warnings),
    }
    lines = []
    if out.ok:
        lines.append(f"{cf.system}: feasible/valid, value {out.value:.9g}")
        lines.extend(f"warning: {w}" for w in out.warnings)
    else:
        lines.append(f"{cf.system}: INFEASIBLE/INVALID — {out.violation} (residual {out.residual:.3e})")
    _out(payload, args.json, lines)
    return EXIT_OK if out.ok else EXIT_INFEASIBLE


def cmd_normalize(args) -> int:
    inst = sdpa.read_sdpa(args.file)
    cf = certfile.read_certificate(args.cert)
    certfile.check_instance_binding(cf, inst)
    cert = certfile.to_ramana_certificate(cf, inst)
    rep = verify.normalize_ladder(inst, cert, args.eps)
    payload = {
        "r": list(rep.r),
        "frs_valid": rep.frs_valid,
        "u_membership": list(rep.u_membership),
        "q_total": _mat_list(rep.q_total),
    }
    _out(
        payload,
        args.json,
        [
            f"block sizes r = {list(rep.r)}",
            f"ladder forms a regular facial reduction sequence: {rep.frs_valid}",
            f"per-rung U membership: {list(rep.u_membership)}",
        ],
    )
    return EXIT_OK


def cmd_examples(args) -> int:
    if args.action == "list" or args.action is None:
        payload = {
            eid: registry.get(eid).description for eid in registry.all_ids()
        }
        _out(
            payload,
            args.json,
            [f"{eid}: {registry.get(eid).description}" for eid in registry.all_ids()],
        )
        return EXIT_OK
    ids = registry.all_ids() if args.all else [args.id]
    if not args.all and args.id is None:
        raise ValueError("examples run needs an id or --all")
    all_ok = True
    payload = {}
    lines = []
    for eid in ids:
        rep = registry.run_entry(eid, eps=args.eps, max_iter=args.max_iter)
        all_ok = all_ok and rep.passed
        payload[eid] = {
            "passed": rep.passed,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in rep.checks
            ],
        }
        lines.append(f"== {eid}: {'PASS' if rep.passed else 'FAIL'}")
        lines.extend(
            f"  [{'ok' if c.ok else 'FAIL'}] {c.name}: {c.detail}" for c in rep.checks
        )
    _out(payload, args.json, lines)
    return EXIT_OK if all_ok else EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramanasdp",
        description="Exact duals, alternative systems, and rank-revealing "
        "reformulations for semidefinite programs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    default_eps = float(os.environ.get("RAMANA_EPS", "1e-8"))
    parser.add_argument(
        "--eps", type=float, default=default_eps,
        help="relative tolerance for all PSD/rank decisions (env RAMANA_EPS)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable reports")
    parser.add_argument("--max-iter", type=int, default=4000, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="dimensions, PSD class of C, strict-feasibility probe")
    p.add_argument("file")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("rr-form", help="build the rank-revealing reformulation")
    p.add_argument("file")
    p.add_argument("--out", help="output stem (default: input path without extension)")
    p.set_defaults(fn=cmd_rr_form)

    p = sub.add_parser("emit", help="emit a dual/alternative system as SDPA")
    p.add_argument("file")
    p.add_argument(
        "--system", required=True, choices=["dram", "altram", "pram", "dstrong", "pstrong"]
    )
    p.add_argument("--from-rr", help="rr-form JSON report (required for strong systems)")
    p.add_argument("--out", help="output path (default: <input>.<system>.dat-s)")
    p.set_defaults(fn=cmd_emit)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("file")
    p.add_argument("--cert", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("normalize", help="normalize a ladder certificate")
    p.add_argument("file")
    p.add_argument("--cert", required=True)
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("examples", help="list or run the built-in examples")
    p.add_argument("action", nargs="?", choices=["list", "run"], default=None)
    p.add_argument("id", nargs="?", default=None)
    p.add_argument("--all", action="store_true")
    p.set_defaults(fn=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        ValueError,
        KeyError,
        IOError,
        facial.SubsolverFailureError,
        facial.NumericalRankAmbiguityError,
        verify.InductionBreakError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
