import json

from hopfscaffold import cli
from hopfscaffold.scaffold import ScaffoldReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BASE = ["--p", "2", "--n", "2", "--r", "1", "--b", "1", "--f-val", "4"]


class TestScaffoldVerify:
    def test_passes_small_case(self, capsys):
        code, out, _ = run(capsys, "scaffold-verify", *BASE)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert payload["tolerance"] == 13
        assert len(payload["checks"]) == 8

    def test_p3_case(self, capsys):
        code, out, _ = run(
            capsys, "scaffold-verify", "--p", "3", "--n", "2", "--r", "1", "--b", "1", "--f-val", "3"
        )
        assert code == 0
        assert json.loads(out)["tolerance"] == 19

    def test_hypothesis_unmet_exits_3(self, capsys):
        code, out, _ = run(
            capsys, "scaffold-verify", "--p", "2", "--n", "2", "--r", "1", "--b", "3", "--f-val", "2"
        )
        assert code == 3
        assert json.loads(out)["status"] == "no scaffold guaranteed"

    def test_verification_failure_exits_1(self, capsys, monkeypatch):
        # the mathematics never fails for valid parameters, so fabricate a
        # failing report to pin the exit-code contract
        real = cli.verify_scaffold

        def sabotaged(ctx):
            report = real(ctx)
            checks = tuple(
                type(c)(c.s, c.j, c.digit, c.unit, False) for c in report.checks
            )
            return ScaffoldReport(
                report.ext, report.hopf, report.a, report.tolerance, report.status, checks, False
            )

        monkeypatch.setattr(cli, "verify_scaffold", sabotaged)
        code, _, _ = run(capsys, "scaffold-verify", *BASE)
        assert code == 1

    def test_pretty_output(self, capsys):
        code, out, _ = run(capsys, "scaffold-verify", *BASE, "--output", "pretty")
        assert code == 0
        assert "all passed" in out

    def test_tsv_output(self, capsys):
        code, out, _ = run(capsys, "scaffold-verify", *BASE, "--output", "tsv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s\tj\tdigit\tunit\tpassed"
        assert len(lines) == 9


class TestFreeness:
    def test_range_sweep(self, capsys):
        code, out, _ = run(capsys, "freeness", *BASE, "--h", "-2..1")
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert [rep["free"] for rep in reports] == [False, True, True, True]
        assert [rep["h_raw"] for rep in reports] == [-2, -1, 0, 1]

    def test_spaced_range_flag(self, capsys):
        # `--h -2..1` (spaced) must parse the same as `--h=-2..1`
        code, out, _ = run(capsys, "freeness", *BASE, "--h", "-2..1")
        code2, out2, _ = run(capsys, "freeness", *BASE, "--h=-2..1")
        assert (code, out) == (code2, out2)

    def test_single_h_free(self, capsys):
        code, out, _ = run(capsys, "freeness", *BASE, "--h", "0")
        assert code == 0
        report = json.loads(out)
        assert report["free"] is True
        assert report["d"] == [0, 0, 0, 1]
        assert report["w"] == [0, 0, 0, 1]
        assert report["generator_count"] == 1

    def test_report_fields(self, capsys):
        _, out, _ = run(capsys, "freeness", *BASE, "--h", "-2")
        report = json.loads(out)
        assert set(report) == {
            "p", "n", "r", "b", "f_val", "h_raw", "h_norm", "m", "d", "w",
            "free", "witness_j", "generator_count", "basis",
        }
        assert report["witness_j"] == 1
        assert report["generator_count"] == 3

    def test_validation_error_exits_2(self, capsys):
        code, _, err = run(
            capsys, "freeness", "--p", "2", "--n", "2", "--r", "1", "--b", "0", "--f-val", "4", "--h", "0"
        )
        assert code == 2
        assert "error" in err

    def test_tsv(self, capsys):
        code, out, _ = run(capsys, "freeness", *BASE, "--h", "0..1", "--output", "tsv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("h_raw\th_norm")
        assert len(lines) == 3

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "freeness", *BASE, "--h", "-2..1")
        _, out2, _ = run(capsys, "freeness", *BASE, "--h", "-2..1")
        assert out1 == out2


class TestAct:
    def test_basis_action(self, capsys):
        code, out, _ = run(capsys, "act", *BASE, "z_1", "x^3")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "x^2"
        assert payload["v_L"] == -2

    def test_identity_action(self, capsys):
        code, out, _ = run(capsys, "act", *BASE, "z_0", "(T^-1)*x^2 + x")
        assert code == 0
        assert json.loads(out)["result"] == "x + (T^-1)*x^2"

    def test_kills_constants(self, capsys):
        code, out, _ = run(capsys, "act", *BASE, "z_2", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "0"
        assert payload["v_L"] is None

    def test_twist_term(self, capsys):
        code, out, _ = run(capsys, "act", *BASE, "z_2", "x^3")
        assert code == 0
        assert json.loads(out)["result"] == "(T^3) + x"

    def test_result_reparses_to_equal_value(self, capsys):
        from hopfscaffold import (
            DualElement,
            ExtensionParams,
            HopfParams,
            LaurentPoly,
            LElement,
            act,
            lelement_from_text,
        )

        _, out, _ = run(capsys, "act", *BASE, "z_2", "x^3")
        text = json.loads(out)["result"]
        ext = ExtensionParams.monogenic(2, 2, 1)
        hopf = HopfParams(2, 2, 1, LaurentPoly.monomial(2, 4))
        direct = act(DualElement.z_basis(2, hopf), LElement.x_power(3, ext), ext, hopf)
        assert lelement_from_text(text, ext) == direct

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "act", *BASE, "z_9", "x^3")
        assert code == 2
        assert "error" in err
        code, _, _ = run(capsys, "act", *BASE, "z_1", "y^3")
        assert code == 2

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "act", *BASE, "--output", "pretty", "z_1", "x^3")
        assert code == 0
        assert out.splitlines() == ["x^2", "v_L = -2"]


class TestAssocOrder:
    def test_basis_listing(self, capsys):
        code, out, _ = run(capsys, "assoc-order", *BASE, "--h", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["trusted"] is True
        assert [entry["shift"] for entry in payload["basis"]] == [0, 0, 0, -1]

    def test_below_tolerance_exits_3(self, capsys):
        args = ["--p", "2", "--n", "2", "--r", "1", "--b", "1", "--f-val", "2"]
        code, _, err = run(capsys, "assoc-order", *args, "--h", "0")
        assert code == 3
        assert "tolerance" in err

    def test_force_below_tolerance(self, capsys):
        args = ["--p", "2", "--n", "2", "--r", "1", "--b", "1", "--f-val", "2"]
        code, out, _ = run(capsys, "assoc-order", *args, "--h", "0", "--force")
        assert code == 0
        assert json.loads(out)["trusted"] is False

    def test_periodicity(self, capsys):
        _, out1, _ = run(capsys, "assoc-order", *BASE, "--h", "0")
        _, out2, _ = run(capsys, "assoc-order", *BASE, "--h", "4")
        b1, b2 = json.loads(out1), json.loads(out2)
        assert b1["basis"] == b2["basis"]


class TestAtlas:
    def test_full_period(self, capsys):
        code, out, _ = run(capsys, "atlas", *BASE)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "h\tfree\tgenerator_count\twitness_j"
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 4
        assert [row[1] for row in rows] == ["0", "1", "1", "1"]


class TestUsage:
    def test_missing_f_specification(self, capsys):
        code, _, err = run(capsys, "scaffold-verify", "--p", "2", "--n", "2", "--r", "1", "--b", "1")
        assert code == 2
        assert "f-val" in err

    def test_unknown_command(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    def test_bad_r_exits_2(self, capsys):
        code, _, err = run(
            capsys, "scaffold-verify", "--p", "2", "--n", "4", "--r", "1", "--b", "1", "--f-val", "4"
        )
        assert code == 2
        assert "error" in err

    def test_explicit_f_overrides_f_val(self, capsys):
        code, out, _ = run(
            capsys, "scaffold-verify", "--p", "2", "--n", "2", "--r", "1", "--b", "1",
            "--f-val", "1", "--f", "T^4 + T^6",
        )
        assert code == 0
        assert json.loads(out)["tolerance"] == 13

    def test_explicit_beta(self, capsys):
        code, out, _ = run(capsys, "scaffold-verify", *BASE, "--beta", "T^-1 + 1")
        assert code == 0
        assert json.loads(out)["all_passed"] is True

    def test_beta_valuation_mismatch_exits_2(self, capsys):
        code, _, err = run(capsys, "scaffold-verify", *BASE, "--beta", "T^-2")
        assert code == 2
        assert "beta" in err or "error" in err
