"""Span tracer that times calls into the library's public functions.

The tracer wraps every public module-level function of the benchmarked
layers and installs each wrapper by function identity in every
``ramanasdp`` module namespace.  Identity matters because several modules
bind functions by name (``facial``, ``builders`` and ``verify`` do
``from .symmat import eig, classify_psd``): patching only the defining
module would miss those calls.

Each call records a span (function, start, end, parent span) in memory.
After a batch, ``summary`` turns the spans into inclusive times per
function and self times per layer: a span's duration minus the durations
of its direct children.  Spans are recorded only while ``active`` is set,
so checks that run between operations stay out of the trace.  Nothing in
the library is edited; ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

LAYERS = ("symmat", "subsolver", "facial", "model", "builders", "sdpa", "verify", "certfile")

# Certificate checks whose spectral work is reported per certificate.
CERT_CHECKS = ("verify_dram", "verify_alt_ram", "verify_pram", "verify_strong", "normalize_ladder")


def layer_functions() -> dict[str, Callable]:
    """``layer.name`` -> function, for every public function a layer defines."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"ramanasdp.{layer}"]
        for name, val in vars(mod).items():
            if inspect.isfunction(val) and not name.startswith("_") and val.__module__ == mod.__name__:
                out[f"{layer}.{name}"] = val
    return out


@dataclass
class Span:
    key: str  # "layer.function"
    start: float
    end: float = 0.0
    parent: int = -1
    # A small fact taken from the arguments and the result, read by the
    # summary; None when the function has no probe or raised.
    info: Any = None
    error: Optional[str] = None  # exception type name, if the call raised


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    active: bool = False
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[Any, str, Callable]] = field(default_factory=list)

    def install(self) -> None:
        """Replace every binding of a layer function in ``ramanasdp.*``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        functions = layer_functions()  # keeps the originals alive while ids are compared
        wrappers = {id(fn): self._wrap(key, fn) for key, fn in functions.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ramanasdp" or modname.startswith("ramanasdp.")):
                continue
            for name, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._patched.append((mod, name, val))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in self._patched:
            setattr(mod, name, original)
        self._patched.clear()

    def _wrap(self, key: str, fn: Callable) -> Callable:
        probe = _PROBES.get(key)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(key, 0.0, parent=stack[-1] if stack else -1)
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.error = type(exc).__name__
                raise
            finally:
                stack.pop()
            span.end = clock()
            if probe is not None:
                span.info = probe(args, kwargs, result)
            return result

        return wrapper

    def settle(self, first: int) -> None:
        """Reduce the probe results of spans[first:] to counts.

        Builder probes keep the emitted system and the writer probe keeps
        the path, so that walking the system and sizing the files happen
        here, between operations, and not inside any timed span.
        """
        for span in self.spans[first:]:
            if span.info is None:
                continue
            if span.key in _SDP_BUILDERS:
                span.info = _sdp_counts(span.info)
            elif span.key == "sdpa.write_sdpa":
                path = span.info
                span.info = os.path.getsize(path) + (
                    os.path.getsize(path + ".varmap") if os.path.exists(path + ".varmap") else 0
                )

    def clear(self) -> None:
        if self._stack:
            raise RuntimeError("cannot clear spans while a span is open")
        self.spans.clear()


def _eig_probe(args, kwargs, result):
    return args[0].n


def _steps_probe(args, kwargs, result):
    return result.newton_steps


def _found_probe(args, kwargs, result):
    return bool(result.found)


def _result_probe(args, kwargs, result):
    return result


def _sdp_counts(sdp) -> tuple[int, int, int]:
    """(constraints, stored floats, nonzeros) of an emitted system."""
    stored = nonzeros = 0
    for con in sdp.constraints:
        stored += con.free.size
        nonzeros += int((con.free != 0).sum())
        for mat in con.mats.values():
            stored += mat.size
            nonzeros += int((mat != 0).sum())
    return len(sdp.constraints), stored, nonzeros


def _path_probe(args, kwargs, result):
    return str(args[1] if len(args) > 1 else kwargs["path"])


def _text_probe(args, kwargs, result):
    return len(args[0] if args else kwargs["text"])


def _check_probe(args, kwargs, result):
    """(accepted, ladder rungs or None) of a certificate check."""
    cert = args[1] if len(args) > 1 else kwargs.get("cert")
    rungs = len(cert.ladder) if hasattr(cert, "ladder") else None
    if hasattr(result, "frs_valid"):  # normalize_ladder's report
        return bool(result.frs_valid and all(result.u_membership)), rungs
    return bool(result.ok), rungs


_SDP_BUILDERS = tuple(
    f"builders.{name}" for name in ("build_dram", "build_alt_ram", "build_pram", "build_dstrong")
)

_PROBES = {
    "symmat.eig": _eig_probe,
    "subsolver.maximize_lambda_min": _steps_probe,
    "facial.solve_alternative": _found_probe,
    "sdpa.write_sdpa": _path_probe,
    "certfile.parse_certificate_text": _text_probe,
    **{key: _result_probe for key in _SDP_BUILDERS},
    **{f"verify.{name}": _check_probe for name in CERT_CHECKS},
}


_CHECK_KEYS = frozenset(f"verify.{name}" for name in CERT_CHECKS)


def summary(spans: list[Span], time_scale: float = 1.0) -> dict[str, float]:
    """Per-function calls and inclusive seconds, per-layer self seconds and
    the derived counters, for one batch of settled spans.  Every duration
    is multiplied by ``time_scale``."""
    calls: Counter = Counter()
    secs: defaultdict = defaultdict(float)
    child: list[float] = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    self_s: defaultdict = defaultdict(float)
    for idx, span in enumerate(spans):
        dur = (span.end - span.start) * time_scale
        calls[span.key] += 1
        secs[span.key] += dur
        self_s[span.key.split(".", 1)[0]] += dur - child[idx] * time_scale
    top = sum(s.end - s.start for s in spans if s.parent < 0) * time_scale

    def infos(key):
        return [s.info for s in spans if s.key == key and s.info is not None]

    out: dict[str, float] = {}
    for key in calls:
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.s"] = secs[key]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    out["spans.top_s"] = top

    orders = infos("symmat.eig")
    out["symmat.eig.order_mean"] = sum(orders) / len(orders) if orders else 0.0

    steps = infos("subsolver.maximize_lambda_min")
    out["subsolver.newton_steps"] = sum(steps)
    out["subsolver.newton_steps_per_call"] = sum(steps) / len(steps) if steps else 0.0

    found = infos("facial.solve_alternative")
    out["facial.alt_found_ratio"] = sum(found) / len(found) if found else 0.0
    out["facial.rr_rounds"] = sum(
        1 for s in spans
        if s.key == "facial.solve_alternative" and s.parent >= 0
        and spans[s.parent].key == "facial.build_rr_form"
    )

    built = [i for key in _SDP_BUILDERS for i in infos(key)]
    out["builders.constraints"] = sum(b[0] for b in built)
    out["builders.stored_floats"] = sum(b[1] for b in built)
    out["builders.nonzeros"] = sum(b[2] for b in built)
    out["builders.nnz_ratio"] = (
        out["builders.nonzeros"] / out["builders.stored_floats"] if built else 0.0
    )

    written = sum(infos("sdpa.write_sdpa"))
    out["sdpa.bytes"] = written
    wsec = secs["sdpa.write_sdpa"]
    out["sdpa.mb_per_s"] = written / 1e6 / wsec if wsec > 0 else 0.0

    out["certfile.bytes_parsed"] = sum(infos("certfile.parse_certificate_text"))

    checks = {idx for idx, s in enumerate(spans) if s.key in _CHECK_KEYS}
    outcomes = [spans[idx] for idx in checks]
    ladders = [s.info[1] for s in outcomes if s.info is not None and s.info[1] is not None]
    out["verify.rejects"] = sum(1 for s in outcomes if s.error or (s.info and not s.info[0]))
    out["verify.rungs_per_cert"] = sum(ladders) / len(ladders) if ladders else 0.0
    eig_in_checks = 0
    for s in spans:
        if s.key == "symmat.eig":
            p = s.parent
            while p >= 0 and p not in checks:
                p = spans[p].parent
            eig_in_checks += p >= 0
    out["verify.eig_per_cert"] = eig_in_checks / len(checks) if checks else 0.0
    return out
