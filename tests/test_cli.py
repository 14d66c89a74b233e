"""Command-line interface: subcommands, exit codes, JSON stability."""

import json

import numpy as np
import pytest

from ramanasdp import SymMat, build_rr_form, builders, classify_psd, write_sdpa
from ramanasdp.certfile import write_certificate
from ramanasdp.cli import main
from ramanasdp.verify import LadderRung, RamanaCertificate

from helpers import inst_gap_raw, inst_infeasible, inst_unattained


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


class TestRrFormAndEmit:
    def test_max_rank_counted_at_eps(self, tmp_path, capsys):
        # The maximum-rank point has eigenvalues 1 and about 3.2e4, so at
        # --eps 1e-4 the relative cut eps·(1+‖X‖) ≈ 3.2 lies between them.
        path = tmp_path / "gap.dat-s"
        write_sdpa(inst_gap_raw(), str(path))
        assert main(["--eps", "1e-4", "rr-form", str(path)]) == 0
        rr = build_rr_form(inst_gap_raw(), eps=1e-4)
        rank = classify_psd(rr.maxrank_x, 1e-4).rank
        assert f"maximum feasible rank: {rank}" in capsys.readouterr().out

    def test_rr_form_lets_unexpected_errors_through(self, tmp_path, monkeypatch):
        # Only the dual side's refusals drop the pstrong spec; a bug raises.
        def broken(inst):
            raise TypeError("broken")

        path = tmp_path / "gap.dat-s"
        write_sdpa(inst_gap_raw(), str(path))
        monkeypatch.setattr(builders, "build_red", broken)
        with pytest.raises(TypeError, match="broken"):
            main(["rr-form", str(path)])

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
