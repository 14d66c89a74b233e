"""Built-in example instances with known facts and reference certificates.

Each entry carries an instance, the facts a correct build must reproduce
(optimal values, attainment, RR shape, feasibility status), and reference
certificates for the exact systems.  run_entry recomputes everything with
the library pipeline and compares:

  * primal value via the RR form and a barrier pass on the reduced block,
  * classical dual value via the equality-form rewrite of the dual
    (value identity <X0, Z> + <y, b> = <X0, C>),
  * every reference certificate through its verifier,
  * infeasibility entries additionally through the constructed
    alternative-system certificate and the (expected) failure of the
    classical alternative system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import facial, verify
from .facial import classical_alternative_feasible
from .model import SdpInstance, classical_dual_instance
from .symmat import EPS_PSD, SymMat

VALUE_TOL = 1e-6


@dataclass(frozen=True)
class KnownFacts:
    feasible: bool
    primal_value: Optional[float] = None
    dual_value: Optional[float] = None
    dram_value: Optional[float] = None
    primal_attained: Optional[bool] = None
    dual_attained: Optional[bool] = None
    strictly_feasible: Optional[bool] = None
    rr_k: Optional[int] = None
    rr_r: Optional[tuple[int, ...]] = None
    classical_alt_feasible: Optional[bool] = None


@dataclass(frozen=True)
class RegisteredCertificate:
    name: str
    system: str
    cert: Optional[verify.RamanaCertificate] = None
    spec: Optional[verify.StrongDualSpec] = None
    point: object = None
    expected_value: Optional[float] = None


@dataclass(frozen=True)
class ExampleRegistryEntry:
    id: str
    description: str
    instance: SdpInstance
    facts: KnownFacts
    certificates: tuple[RegisteredCertificate, ...] = ()


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class EntryReport:
    entry_id: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def _inst_unattained_dual() -> SdpInstance:
    a1 = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    a2 = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    a3 = [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
    c = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    return SdpInstance.from_arrays([a1, a2, a3], [0, 0, 1], c)


def _inst_gap_raw() -> SdpInstance:
    a1 = [[-4, 15, 6, 3], [15, 3, 0, 5], [6, 0, 5, 0], [3, 5, 0, 0]]
    a2 = [[-1, 6, 2, 1], [6, 1, 0, 2], [2, 0, 2, 0], [1, 2, 0, 0]]
    a3 = [[2, 3, 0, 0], [3, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
    c = np.diag([1.0, 1.0, 1.0, 0.0])
    return SdpInstance.from_arrays([a1, a2, a3], [5, 2, 1], c)


def _inst_gap_rr() -> SdpInstance:
    a1 = np.diag([1.0, 0.0, 0.0, 0.0])
    a2 = [[-5, 0, 2, 1], [0, 1, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0]]
    a3 = [[2, 3, 0, 0], [3, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
    c = np.diag([1.0, 1.0, 1.0, 0.0])
    return SdpInstance.from_arrays([a1, a2, a3], [0, 0, 1], c)


def _inst_infeasible() -> SdpInstance:
    a1 = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    a2 = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    return SdpInstance.from_arrays([a1, a2], [0, -1], np.zeros((3, 3)))


def _inst_strict() -> SdpInstance:
    return SdpInstance.from_arrays([np.eye(3)], [3.0], np.eye(3))


def _rung(y, u, v) -> verify.LadderRung:
    return verify.LadderRung(
        y=None if y is None else np.asarray(y, dtype=float),
        u=u if isinstance(u, SymMat) else SymMat(u),
        v=v if isinstance(v, SymMat) else SymMat(v),
    )


def _build_registry() -> dict[str, ExampleRegistryEntry]:
    reg: dict[str, ExampleRegistryEntry] = {}

    # Order-3 instance: primal optimum 0 attained, dual optimum 0 unattained.
    inst = _inst_unattained_dual()
    z3 = SymMat.zero(3)
    dram_cert = verify.RamanaCertificate(
        system="dram",
        y=np.zeros(3),
        ladder=(
            _rung([1, 0, 0], SymMat.diag([1, 0, 0]), z3),
            _rung([0, 1, 0], SymMat.diag([1, 1, 0]), [[-1, 0, 1], [0, 0, 0], [1, 0, 0]]),
        ),
        claimed_value=0.0,
    )
    reg["example-1.1-unattained"] = ExampleRegistryEntry(
        id="example-1.1-unattained",
        description="order-3 instance; primal value 0 attained, classical dual "
        "value 0 not attained; already in rank-revealing form",
        instance=inst,
        facts=KnownFacts(
            feasible=True,
            primal_value=0.0,
            dual_value=0.0,
            dram_value=0.0,
            primal_attained=True,
            dual_attained=False,
            strictly_feasible=False,
            rr_k=2,
            rr_r=(1, 1),
        ),
        certificates=(
            RegisteredCertificate(
                name="exact-dual-ladder", system="dram", cert=dram_cert, expected_value=0.0
            ),
            RegisteredCertificate(
                name="strong-dual-origin",
                system="dstrong",
                spec=verify.StrongDualSpec(q=np.eye(3), r=1),
                point=np.zeros(3),
                expected_value=0.0,
            ),
        ),
    )

    # Order-4 instance with a positive duality gap, raw (pre-reformulation) data.
    inst = _inst_gap_raw()
    z4 = SymMat.zero(4)
    v3 = SymMat([[-6, 0, 2, 1], [0, 0, 0, 0], [2, 0, 0, 0], [1, 0, 0, 0]])
    dram_transported = verify.RamanaCertificate(
        system="dram",
        y=np.array([0.0, 0.0, 1.0]),
        ladder=(
            _rung(np.zeros(3), z4, z4),
            _rung([1, -3, 1], SymMat.diag([1, 0, 0, 0]), z4),
            _rung([0, 1, -2], SymMat.diag([1, 1, 0, 0]), v3),
        ),
        claimed_value=1.0,
    )
    reg["example-2.3-gap"] = ExampleRegistryEntry(
        id="example-2.3-gap",
        description="order-4 instance with duality gap 1; needs row operations "
        "to reveal the maximum rank",
        instance=inst,
        facts=KnownFacts(
            feasible=True,
            primal_value=1.0,
            dual_value=0.0,
            dram_value=1.0,
            primal_attained=True,
            dual_attained=True,
            strictly_feasible=False,
            rr_k=2,
            rr_r=(1, 1),
        ),
        certificates=(
            RegisteredCertificate(
                name="exact-dual-ladder-transported",
                system="dram",
                cert=dram_transported,
                expected_value=1.0,
            ),
        ),
    )

    # The same instance after the revealing row operations.
    inst = _inst_gap_rr()
    dram_rr = verify.RamanaCertificate(
        system="dram",
        y=np.array([0.0, 0.0, 1.0]),
        ladder=(
            _rung(np.zeros(3), z4, z4),
            _rung([1, 0, 0], SymMat.diag([1, 0, 0, 0]), z4),
            _rung([0, 1, 0], SymMat.diag([1, 1, 0, 0]), v3),
        ),
        claimed_value=1.0,
    )
    dram_nonopt = verify.RamanaCertificate(
        system="dram",
        y=np.array([1.0, 1.0, 0.0]),
        ladder=(
            _rung(np.zeros(3), z4, z4),
            _rung(np.zeros(3), z4, z4),
            _rung([1, 0, 0], SymMat.diag([1, 0, 0, 0]), z4),
        ),
        claimed_value=0.0,
    )
    x_half = np.zeros((4, 4))
    x_half[1, 3] = x_half[3, 1] = 0.5
    pram_cert = verify.RamanaCertificate(
        system="pram",
        x=SymMat(x_half),
        ladder=(
            _rung(None, z4, z4),
            _rung(None, z4, z4),
            _rung(None, SymMat.from_outer([0, 0, 0, 1.0]), z4),
        ),
        claimed_value=0.0,
    )
    reg["example-2.5-rr"] = ExampleRegistryEntry(
        id="example-2.5-rr",
        description="rank-revealing form of the gap instance: the first two "
        "equations certify the maximum rank 2",
        instance=inst,
        facts=KnownFacts(
            feasible=True,
            primal_value=1.0,
            dual_value=0.0,
            dram_value=1.0,
            primal_attained=True,
            dual_attained=True,
            strictly_feasible=False,
            rr_k=2,
            rr_r=(1, 1),
        ),
        certificates=(
            RegisteredCertificate(
                name="exact-dual-ladder", system="dram", cert=dram_rr, expected_value=1.0
            ),
            RegisteredCertificate(
                name="exact-dual-suboptimal",
                system="dram",
                cert=dram_nonopt,
                expected_value=0.0,
            ),
            RegisteredCertificate(
                name="strong-dual-trailing2",
                system="dstrong",
                spec=verify.StrongDualSpec(q=np.eye(4), r=2),
                point=np.array([0.0, 0.0, 1.0]),
                expected_value=1.0,
            ),
            RegisteredCertificate(
                name="exact-primal-ladder", system="pram", cert=pram_cert, expected_value=0.0
            ),
            RegisteredCertificate(
                name="strong-primal-leading3",
                system="pstrong",
                spec=verify.StrongDualSpec(q=np.eye(4), r=3),
                point=SymMat(x_half),
                expected_value=0.0,
            ),
        ),
    )

    # Infeasible order-3 system whose classical alternative system fails.
    inst = _inst_infeasible()
    alt_cert = verify.RamanaCertificate(
        system="altram",
        y=np.array([0.0, 1.0]),
        ladder=(
            _rung(np.zeros(2), z3, z3),
            _rung([1, 0], SymMat.diag([1, 0, 0]), z3),
        ),
    )
    reg["example-2.15-infeasible"] = ExampleRegistryEntry(
        id="example-2.15-infeasible",
        description="infeasible order-3 system; the classical alternative "
        "system has no certificate but the exact one does",
        instance=inst,
        facts=KnownFacts(
            feasible=False,
            strictly_feasible=False,
            rr_k=2,
            rr_r=(1, 1),
            classical_alt_feasible=False,
        ),
        certificates=(
            RegisteredCertificate(name="exact-alternative", system="altram", cert=alt_cert),
        ),
    )

    # Strictly feasible trace-constrained instance.
    reg["example-identity-strict"] = ExampleRegistryEntry(
        id="example-identity-strict",
        description="strictly feasible order-3 instance (trace equals 3); "
        "no facial reduction step is needed",
        instance=_inst_strict(),
        facts=KnownFacts(
            feasible=True,
            primal_value=3.0,
            dual_value=3.0,
            dram_value=3.0,
            primal_attained=True,
            dual_attained=True,
            strictly_feasible=True,
            rr_k=0,
            rr_r=(),
        ),
        certificates=(),
    )
    return reg


_REGISTRY = _build_registry()


def all_ids() -> list[str]:
    return sorted(_REGISTRY)


def get(entry_id: str) -> ExampleRegistryEntry:
    try:
        return _REGISTRY[entry_id]
    except KeyError:
        raise KeyError(f"unknown example id {entry_id!r}; known: {', '.join(all_ids())}")


def classical_dual_value(inst: SdpInstance, eps: float = EPS_PSD) -> float:
    """Optimal value of the classical dual via its equality-form rewrite."""
    red = classical_dual_instance(inst)
    red_val = facial.primal_optimal_value(red, eps=eps)
    if red_val == float("inf"):
        return float("-inf")
    return red.c.inner(inst.c) - red_val


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_TOL * (1.0 + abs(b))


def run_entry(entry_id: str, eps: float = EPS_PSD) -> EntryReport:
    """Recompute an entry's known facts with the library pipeline."""
    entry = get(entry_id)
    inst = entry.instance
    facts = entry.facts
    checks: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append(CheckResult(name=name, ok=bool(ok), detail=detail))

    rr = facial.build_rr_form(inst, eps=eps)
    want_status = facial.STATUS_FEASIBLE if facts.feasible else facial.STATUS_INFEASIBLE
    check("rr-status", rr.status == want_status, f"{rr.status} (expected {want_status})")
    if facts.rr_k is not None:
        check("rr-k", rr.k == facts.rr_k, f"k = {rr.k} (expected {facts.rr_k})")
    if facts.rr_r is not None:
        check(
            "rr-ranks",
            sorted(rr.r) == sorted(facts.rr_r),
            f"r = {rr.r} (expected multiset {facts.rr_r})",
        )
    if facts.feasible:
        check(
            "rr-witness",
            facial.is_rr_form(rr.reformulated, rr.k, rr.maxrank_x, eps),
            "reformulated instance passes the RR definition",
        )
        if facts.primal_value is not None:
            val = facial.primal_optimal_value(inst, rr, eps=eps)
            check(
                "primal-value",
                _close(val, facts.primal_value),
                f"computed {val:.9g} (expected {facts.primal_value})",
            )
        if facts.dual_value is not None:
            dval = classical_dual_value(inst, eps=eps)
            check(
                "dual-value",
                _close(dval, facts.dual_value),
                f"computed {dval:.9g} (expected {facts.dual_value})",
            )
    else:
        check(
            "rr-infeasibility-rhs",
            abs(float(rr.reformulated.b[rr.k - 1]) + 1.0) <= VALUE_TOL,
            f"terminal rhs {float(rr.reformulated.b[rr.k - 1]):.9g} (expected -1)",
        )
        alt = verify.alt_ram_from_rr(inst, rr)
        out = verify.verify_alt_ram(inst, alt, eps)
        check("alt-from-rr", out.ok, out.violation or "constructed certificate valid")
        if facts.classical_alt_feasible is not None:
            got = classical_alternative_feasible(inst, eps)
            check(
                "classical-alternative",
                got == facts.classical_alt_feasible,
                f"classical alternative feasible = {got} "
                f"(expected {facts.classical_alt_feasible})",
            )
    if facts.strictly_feasible is not None:
        alt = facial.solve_alternative(inst, facial.MODE_EQ_ZERO, eps)
        check(
            "strict-feasibility-probe",
            (not alt.found) == facts.strictly_feasible,
            f"reduction certificate found = {alt.found}",
        )
    for rc in entry.certificates:
        out = verify.verify_certificate(inst, rc.system, rc.cert, rc.spec, rc.point, eps)
        ok = out.ok and (
            rc.expected_value is None or _close(out.value, rc.expected_value)
        )
        detail = (
            f"value {out.value:.9g}" if out.ok else f"violation: {out.violation}"
        )
        if rc.expected_value is not None:
            detail += f" (expected {rc.expected_value})"
        check(f"certificate:{rc.name}", ok, detail)
    return EntryReport(entry_id=entry_id, checks=tuple(checks))
