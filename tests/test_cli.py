"""Command-line interface: subcommands, exit codes, JSON stability."""

import json
import runpy
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from ramanasdp import (
    SdpInstance, SymMat, build_rr_form, builders, classify_psd, model, registry, write_sdpa,
)
from ramanasdp.certfile import read_certificate, to_ramana_certificate, write_certificate
from ramanasdp.cli import main
from ramanasdp.verify import LadderRung, RamanaCertificate, leading_zero_rungs

from helpers import inst_gap_raw, inst_infeasible, inst_unattained, padded_certificate_text

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from gen import planted  # noqa: E402


@pytest.fixture()
def inst_file(tmp_path):
    path = tmp_path / "inst.dat-s"
    write_sdpa(inst_unattained(), str(path))
    return str(path)


def _reference_cert():
    return RamanaCertificate(
        system="dram",
        y=np.zeros(3),
        ladder=(
            LadderRung(y=np.array([1.0, 0, 0]), u=SymMat.diag([1, 0, 0]), v=SymMat.zero(3)),
            LadderRung(
                y=np.array([0.0, 1, 0]),
                u=SymMat.diag([1, 1, 0]),
                v=SymMat([[-1, 0, 1], [0, 0, 0], [1, 0, 0]]),
            ),
        ),
    )


class TestInspect:
    def test_basic(self, inst_file, capsys):
        assert main(["inspect", inst_file]) == 0
        out = capsys.readouterr().out
        assert "n = 3" in out and "not-strictly-feasible" in out

    def test_json(self, inst_file, capsys):
        assert main(["--json", "inspect", inst_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n"] == 3 and data["m"] == 3

    def test_refused_probe_exit_one(self, tmp_path, capsys):
        # A planted infeasible cascade whose branch A optimum lands inside
        # the tolerance band and resists cleanup: the probe's refusal is
        # reported as an error, not a traceback.
        inst = planted(np.random.default_rng(13), 7, (2, 1, 1, 2), 2, infeasible=True).inst
        path = tmp_path / "refused.dat-s"
        write_sdpa(inst, str(path))
        assert main(["inspect", str(path)]) == 1
        assert "error: alternative-system optimum is inside the tolerance band" in (
            capsys.readouterr().err)


class TestRrFormAndEmit:
    def test_max_rank_counted_at_eps(self, tmp_path, capsys):
        # The maximum-rank point is the reduced face's trace-penalised
        # center, with eigenvalues (0, 0, 1, 1): at --eps 1e-4 both unit
        # eigenvalues clear the relative cut eps·(1+‖X‖), and the rank is
        # the planted 2.
        path = tmp_path / "gap.dat-s"
        write_sdpa(inst_gap_raw(), str(path))
        assert main(["--eps", "1e-4", "rr-form", str(path)]) == 0
        rr = build_rr_form(inst_gap_raw(), eps=1e-4)
        assert classify_psd(rr.maxrank_x, 1e-4).rank == 2
        assert "maximum feasible rank: 2" in capsys.readouterr().out

    def test_rr_form_lets_unexpected_errors_through(self, tmp_path, monkeypatch):
        # Only the dual side's refusals drop the pstrong spec; a bug raises.
        def broken(inst):
            raise TypeError("broken")

        path = tmp_path / "gap.dat-s"
        write_sdpa(inst_gap_raw(), str(path))
        monkeypatch.setattr(model, "classical_dual_instance", broken)
        with pytest.raises(TypeError, match="broken"):
            main(["rr-form", str(path)])

    def test_rr_form_names_an_svec_overflow(self, tmp_path, capsys):
        # A finite off-diagonal entry that svec's √2 overflows is refused
        # by name, not as a diverged barrier.
        big = SdpInstance.from_arrays([[[1.0, 1.5e308], [1.5e308, 0.0]]], [1.0], np.eye(2))
        path = tmp_path / "big.dat-s"
        write_sdpa(big, str(path))
        assert main(["rr-form", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error: svec(A_1) overflows" in err and "diverged" not in err

    def test_rr_form_without_a_classical_dual(self, tmp_path, capsys):
        # A repeated constraint: the RR form is feasible, but the classical
        # dual's instance refuses the dependent A_i, so the report carries
        # no pstrong spec.
        path = tmp_path / "twice.dat-s"
        write_sdpa(SdpInstance.from_arrays([np.eye(3), np.eye(3)], [3.0, 3.0], np.eye(3)),
                   str(path))
        assert main(["rr-form", str(path)]) == 0
        blob = json.loads((tmp_path / "twice.rr.json").read_text())
        assert blob["status"] == "feasible" and blob["pstrong"] is None

    def test_infeasible_rr_form_has_no_strong_system(self, tmp_path, capsys):
        # The report of an infeasible instance names its terminal
        # right-hand side and holds no dstrong data to emit.
        path = tmp_path / "inf.dat-s"
        write_sdpa(registry.get("example-2.15-infeasible").instance, str(path))
        assert main(["rr-form", str(path)]) == 0
        assert "terminal right-hand side: -1" in capsys.readouterr().out
        report = tmp_path / "inf.rr.json"
        assert json.loads(report.read_text())["dstrong"] is None
        assert main(["emit", str(path), "--system", "dstrong", "--from-rr", str(report)]) == 1
        assert "rr report carries no dstrong data" in capsys.readouterr().err

    def test_rr_then_emit_strong(self, tmp_path, capsys):
        path = tmp_path / "gap.dat-s"
        write_sdpa(inst_gap_raw(), str(path))
        assert main(["rr-form", str(path)]) == 0
        capsys.readouterr()
        report = tmp_path / "gap.rr.json"
        assert report.exists()
        blob = json.loads(report.read_text())
        assert blob["status"] == "feasible" and blob["k"] == 2
        assert (tmp_path / "gap.rr.dat-s").exists()
        for system in ("dram", "altram", "pram"):
            assert main(["emit", str(path), "--system", system]) == 0
            capsys.readouterr()
            assert (tmp_path / f"gap.{system}.dat-s").exists()
            assert (tmp_path / f"gap.{system}.dat-s.varmap").exists()
        assert (
            main(["emit", str(path), "--system", "dstrong", "--from-rr", str(report)])
            == 0
        )
        capsys.readouterr()
        assert (
            main(["emit", str(path), "--system", "pstrong", "--from-rr", str(report)])
            == 0
        )
        capsys.readouterr()

    def test_strong_emit_requires_report(self, inst_file, capsys):
        assert main(["emit", inst_file, "--system", "dstrong"]) == 1
        assert "requires --from-rr" in capsys.readouterr().err

    def test_emit_refuses_a_coefficient_past_the_largest_float(self, tmp_path, capsys):
        # pram's objective holds C_12 + C_21 = 3e308 on X_12, which is inf.
        path = tmp_path / "big.dat-s"
        c = [[0.0, 1.5e308], [1.5e308, 0.0]]
        write_sdpa(SdpInstance.from_arrays([np.eye(2)], [1.0], c), str(path))
        with np.errstate(over="ignore"):
            assert main(["emit", str(path), "--system", "pram"]) == 1
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "big.pram.dat-s").exists()


class TestVerifyCommand:
    def test_feasible_exit_zero(self, tmp_path, inst_file, capsys):
        cert_path = tmp_path / "good.cert"
        write_certificate(
            str(cert_path), inst_unattained(), "dram", cert=_reference_cert(),
            claimed_value=0.0,
        )
        assert main(["verify", inst_file, "--cert", str(cert_path)]) == 0
        assert "value 0" in capsys.readouterr().out

    def test_corrupted_exit_two(self, tmp_path, inst_file, capsys):
        # U_1 flipped to -1 (V_1 compensated): first failing check is the
        # rung-1 PSD test, surfaced in the diagnostic.
        cert = _reference_cert()
        bad = RamanaCertificate(
            system="dram",
            y=cert.y,
            ladder=(
                LadderRung(
                    y=cert.ladder[0].y,
                    u=SymMat.diag([-1, 0, 0]),
                    v=SymMat.diag([2, 0, 0]),
                ),
            )
            + cert.ladder[1:],
        )
        cert_path = tmp_path / "bad.cert"
        write_certificate(str(cert_path), inst_unattained(), "dram", cert=bad)
        assert main(["verify", inst_file, "--cert", str(cert_path)]) == 2
        assert "U_1 not PSD" in capsys.readouterr().out

    def test_wrong_instance_exit_one(self, tmp_path, capsys):
        other = tmp_path / "other.dat-s"
        write_sdpa(inst_infeasible(), str(other))
        cert_path = tmp_path / "c.cert"
        write_certificate(str(cert_path), inst_unattained(), "dram", cert=_reference_cert())
        assert main(["verify", str(other), "--cert", str(cert_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_truncated_record_exit_one(self, tmp_path, inst_file, capsys):
        cert_path = tmp_path / "bad.cert"
        write_certificate(str(cert_path), inst_unattained(), "dram", cert=_reference_cert())
        text = cert_path.read_text()
        cert_path.write_text(text.replace("vector y 3\n", "vector y\n", 1))
        assert main(["verify", inst_file, "--cert", str(cert_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "vector y" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "old, new, named",
        [("n 3\n", "n x\n", "header field n"), ("matrix U1 3\n", "matrix U1 -1\n", "matrix U1")],
        ids=["word-header", "negative-length"],
    )
    def test_unreadable_field_exit_one(self, tmp_path, inst_file, capsys, old, new, named):
        cert_path = tmp_path / "bad.cert"
        write_certificate(str(cert_path), inst_unattained(), "dram", cert=_reference_cert())
        cert_path.write_text(cert_path.read_text().replace(old, new, 1))
        assert main(["verify", inst_file, "--cert", str(cert_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and named in err and "Traceback" not in err


    def test_fractional_rank_exit_one(self, tmp_path, inst_file, capsys):
        cert_path = tmp_path / "s.cert"
        write_certificate(
            str(cert_path), inst_unattained(), "dstrong",
            spec=builders.StrongDualSpec(q=np.eye(3), r=1), point=np.zeros(3),
        )
        cert_path.write_text(cert_path.read_text().replace("scalar r 1\n", "scalar r -0.5\n", 1))
        assert main(["verify", inst_file, "--cert", str(cert_path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "scalar r" in err and "Traceback" not in err

class TestNormalizeCommand:
    def test_normalize(self, tmp_path, inst_file, capsys):
        cert_path = tmp_path / "c.cert"
        write_certificate(str(cert_path), inst_unattained(), "dram", cert=_reference_cert())
        assert main(["normalize", inst_file, "--cert", str(cert_path)]) == 0
        out = capsys.readouterr().out
        assert "r = [1, 1]" in out and "True" in out


def _leading_zero_ladders():
    return [
        (eid, rc)
        for eid in registry.all_ids()
        for rc in registry.get(eid).certificates
        if rc.cert is not None and leading_zero_rungs(rc.cert.ladder)
    ]


class TestLeadingZeroRungFiles:
    @pytest.mark.parametrize("command", ["verify", "normalize"])
    def test_written_file_reads_like_the_padded_one(self, tmp_path, capsys, command):
        # The library writer leaves leading zero rungs out; the commands
        # print the same for its file as for one that holds them.
        cases = _leading_zero_ladders()
        assert len(cases) == 5
        for eid, rc in cases:
            inst = registry.get(eid).instance
            if command == "normalize" and rc.system == "pram":
                continue
            inst_path = tmp_path / f"{eid}.dat-s"
            write_sdpa(inst, str(inst_path))
            new, old = tmp_path / "new.cert", tmp_path / "old.cert"
            write_certificate(str(new), inst, rc.system, cert=rc.cert)
            old.write_text(padded_certificate_text(inst, rc.cert))
            cf = read_certificate(str(new))
            assert leading_zero_rungs(to_ramana_certificate(cf, inst).ladder) == 0
            assert f"U{len(rc.cert.ladder)}" not in cf.matrices
            printed = []
            for path in (new, old):
                for flags in ([], ["--json"]):
                    code = main(flags + [command, str(inst_path), "--cert", str(path)])
                    printed.append((code, capsys.readouterr().out))
            assert printed[:2] == printed[2:], (eid, rc.name)
            assert printed[0][0] == 0


class TestExamples:
    def test_list(self, capsys):
        assert main(["examples", "list"]) == 0
        out = capsys.readouterr().out
        assert "example-2.3-gap" in out

    def test_run_gap_entry(self, capsys):
        assert main(["examples", "run", "example-2.3-gap"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "primal-value" in out and "dual-value" in out

    def test_unknown_id_errors(self, capsys):
        assert main(["examples", "run", "nope"]) == 1

    def test_run_without_an_id_errors(self, capsys):
        assert main(["examples", "run"]) == 1
        assert "examples run needs an id or --all" in capsys.readouterr().err

    def test_no_step_budget_option(self, capsys):
        # Every barrier run is bounded by its mu rounds, so there is no
        # --max-iter to set.
        with pytest.raises(SystemExit) as exc:
            main(["--max-iter=5", "examples"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-iter=5" in capsys.readouterr().err

    def test_json_schema_stable(self, capsys):
        assert main(["--json", "examples", "run", "example-2.15-infeasible"]) == 0
        first = capsys.readouterr().out
        assert main(["--json", "examples", "run", "example-2.15-infeasible"]) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)


class TestModuleEntry:
    def test_run_as_a_module_exits_with_the_code_of_main(self, monkeypatch, capsys):
        # python -m ramanasdp.cli, run in this process so that its guard is traced.
        monkeypatch.setattr(sys, "argv", ["ramanasdp", "examples", "list"])
        with warnings.catch_warnings(), pytest.raises(SystemExit) as exited:
            warnings.simplefilter("ignore", RuntimeWarning)  # ramanasdp.cli is imported already
            runpy.run_module("ramanasdp.cli", run_name="__main__")
        assert exited.value.code == 0
        assert "example-2.3-gap" in capsys.readouterr().out


class TestEpsFlag:
    def test_env_override(self, inst_file, capsys, monkeypatch):
        monkeypatch.setenv("RAMANA_EPS", "1e-6")
        from ramanasdp.cli import build_parser

        args = build_parser().parse_args(["inspect", inst_file])
        assert args.eps == 1e-6


class TestVerifyNonFinite:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_certificate_entry_refused(self, tmp_path, capsys, bad):
        # One numeric entry of each registry certificate file is replaced.
        # A NaN passes every residual check (they compare with '>'), so the
        # file must be refused before any check runs.
        from ramanasdp import registry
        from ramanasdp.certfile import certificate_to_text

        count = 0
        for eid in registry.all_ids():
            entry = registry.get(eid)
            inst_path = tmp_path / f"{eid}.dat-s"
            write_sdpa(entry.instance, str(inst_path))
            for rc in entry.certificates:
                lines = certificate_to_text(
                    entry.instance, rc.system, cert=rc.cert, spec=rc.spec, point=rc.point
                ).splitlines()
                assert main(["verify", str(inst_path), "--cert", _cert_file(tmp_path, lines)]) == 0
                at = next(i for i, ln in enumerate(lines) if ln.startswith(("vector", "matrix")))
                lines[at + 1] = " ".join(lines[at + 1].split()[:-1] + [bad])
                assert main(["verify", str(inst_path), "--cert", _cert_file(tmp_path, lines)]) == 1
                assert "non-finite" in capsys.readouterr().err
                count += 1
        assert count >= 5


def _cert_file(tmp_path, lines) -> str:
    path = tmp_path / "c.cert"
    path.write_text("\n".join(lines) + "\n")
    return str(path)
