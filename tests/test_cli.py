import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfscaffold import base_arith, cli, field_tower, module_structure, scaffold


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
        real = scaffold.verify_scaffold

        def sabotaged(ctx):
            report = real(ctx)
            return report._replace(checks=tuple(c._replace(passed=False) for c in report.checks), all_passed=False)

        monkeypatch.setattr(scaffold, "verify_scaffold", sabotaged)  # the handler imports it when run
        code, _, _ = run(capsys, "scaffold-verify", *BASE)
        assert code == 1

    def test_tolerance_one_at_real_parameters_is_no_scaffold(self, capsys):
        # p^n v_K(f) = 4 = b p^{r+1}: F = 1 is defined, yet a scaffold needs F > 1
        code, out, _ = run(capsys, "scaffold-verify", "--p", "2", "--n", "2", "--r", "1", "--b", "1", "--f-val", "1")
        payload = json.loads(out)
        assert code == 3
        assert (payload["status"], payload["tolerance"], payload["checks"]) == ("no scaffold guaranteed", 1, [])

    def test_tolerance_two_at_real_parameters_runs_every_check(self, capsys):
        # 9*2 - 2*(9 - 1) = 2, the least tolerance at which a scaffold exists
        code, out, _ = run(capsys, "scaffold-verify", "--p", "3", "--n", "2", "--r", "1", "--b", "2", "--f-val", "2")
        payload = json.loads(out)
        assert code == 0
        assert (payload["status"], payload["tolerance"]) == ("ok", 2)
        assert len(payload["checks"]) == 18 and all(c["passed"] for c in payload["checks"])
        assert payload["all_passed"] is True

    def test_pretty_output(self, capsys):
        code, out, _ = run(capsys, "scaffold-verify", *BASE, "--output", "pretty")
        assert code == 0
        assert "all passed" in out

    def test_pretty_output_without_a_scaffold_says_no_check_ran(self, capsys):
        # below the hypothesis no congruence is checked, so none failed either
        argv = ["--p", "3", "--n", "2", "--r", "1", "--b", "1", "--f", "T^3 + T^-900", "--output", "pretty"]
        code, out, _ = run(capsys, "scaffold-verify", *argv)
        assert code == 3
        assert out.splitlines()[1:] == ["no check ran"]
        assert "status=no scaffold guaranteed" in out.splitlines()[0]

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

    def test_range_wider_than_cap_exits_2(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "freeness", *BASE, "--h", "0..1000000000000")
        assert code == 2
        assert out == ""
        assert f"more than {cli.MAX_H_VALUES} values" in err
        assert time.perf_counter() - start < 1.0

    def test_range_times_degree_over_cap_exits_2(self, capsys):
        # at 2^13, MAX_H_VALUES values would run for minutes and print gigabytes
        big = ["--p", "2", "--n", "13", "--r", "7", "--b", "1", "--f-val", "3"]
        start = time.perf_counter()
        code, out, err = run(capsys, "freeness", *big, "--h", f"1..{cli.MAX_H_VALUES}")
        assert (code, out) == (2, "")
        assert f"{cli.MAX_H_VALUES} h values times p^n = 8192 exceed {cli.MAX_FREENESS_ENTRIES}" in err
        assert time.perf_counter() - start < 1.0

    def test_range_times_degree_cap_boundary(self, capsys, monkeypatch):
        # 16 * 4 entries at p^n = 4; a cap of 63 refuses 16 values and takes 15
        monkeypatch.setattr(cli, "MAX_FREENESS_ENTRIES", 63)
        assert run(capsys, "freeness", *BASE, "--h", "1..16")[0] == 2
        code, out, _ = run(capsys, "freeness", *BASE, "--h", "1..15", "--output", "tsv")
        assert code == 0 and len(out.splitlines()) == 16

    def test_range_cap_boundary(self):
        assert cli._parse_h_range(f"1..{cli.MAX_H_VALUES}") == range(1, cli.MAX_H_VALUES + 1)
        with pytest.raises(ValueError):
            cli._parse_h_range(f"0..{cli.MAX_H_VALUES}")

    @pytest.mark.parametrize("h, bad", [("1_0", "1_0"), ("١..٢", "١"), ("3..٥", "٥"), ("+3", "+3"), ("1..+2", "+2"), (" 4", " 4")])
    def test_h_takes_ascii_digits_only(self, capsys, h, bad):
        # int() would read these as 10, 1..2, 3..5, 3, 1..2 and 4
        code, out, err = run(capsys, "freeness", *BASE, "--h", h)
        assert (code, out) == (2, "")
        assert f"error: invalid int value: {bad!r}" in err

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
        # an empty parenthesized coefficient is malformed, not zero
        for z, y in (("z_1", "()*x"), ("()*z_1", "x"), ("z_1", "(T)*x + ()")):
            code, out, err = run(capsys, "act", *BASE, z, y)
            assert (code, out) == (2, "")
            assert "malformed" in err

    def test_non_ascii_digits_exit_2(self, capsys):
        # \d and str.isdigit accept Unicode digits, and int() reads some of them; the formats take [0-9] only
        params = ["--p", "3", "--n", "2", "--r", "1", "--b", "1"]
        for argv in (
            [*params, "--f-val", "3", "z_1", "x^٣"],
            [*params, "--f-val", "3", "z_٠", "x"],
            [*params, "--f-val", "3", "z_1", "(²)*x"],
            [*params, "--f", "T^٣", "z_1", "x"],
        ):
            code, out, err = run(capsys, "act", *argv)
            assert (code, out) == (2, "")
            assert "malformed" in err and "invalid literal" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--p", "٣"), ("--n", "٢"), ("--r", "١"), ("--b", "1_0"), ("--f-val", "٣"), ("--f-val", "+3"), ("--n", " 2"),
    ])
    def test_integer_options_take_ascii_digits_only(self, capsys, flag, value):
        # int() reads Unicode digits, _ separators, a + sign and spaces; the options take -?[0-9]+ only
        flags = {"--p": "3", "--n": "2", "--r": "1", "--b": "1", "--f-val": "3"}
        flags[flag] = value
        code, out, err = run(capsys, "act", *[x for item in flags.items() for x in item], "z_1", "x")
        assert (code, out) == (2, "")
        assert f"argument {flag}: invalid int value: {value!r}" in err

    def test_integers_beyond_the_conversion_limit_exit_2_with_the_codec_message(self, capsys):
        # int() refuses more than 4300 digits with advice to call sys.set_int_max_str_digits()
        big = "9" * 4301
        params = ["--p", "3", "--n", "2", "--r", "1", "--b", "1"]
        for argv, message in (
            ([*params, "--f-val", big, "z_1", "x"], f"argument --f-val: invalid int value: {big!r}"),
            ([*params, "--f-val", "3", "z_1", f"x^{big}"], f"error: x-exponent {big} out of range [0, 9)"),
            ([*params, "--f-val", "3", f"z_{big}", "x"], f"error: z-index {big} out of range [0, 9)"),
            ([*params, "--f", f"T^{big}", "z_1", "x"], f"error: malformed Laurent polynomial term: 'T^{big}'"),
            ([*params, "--f-val", "3", "z_1", f"({big})*x"], f"error: malformed Laurent polynomial term: '{big}'"),
        ):
            code, out, err = run(capsys, "act", *argv)
            assert (code, out) == (2, "")
            assert message in err and "_int" not in err and "set_int_max_str_digits" not in err
        code, out, err = run(capsys, "freeness", *params, "--f-val", "3", "--h", big)
        assert (code, out, err) == (2, "", f"error: invalid int value: {big!r}\n")

    def test_whitespace_inside_a_number_or_name_exits_2(self, capsys):
        # dropping it would join "1 2" into 12 and "z_1 0" into z_10
        for z, y in (("z_1", "x^1 2"), ("z_1 0", "x"), ("z _ 1", "x"), ("z_1", "(1 0)*x")):
            code, out, err = run(capsys, "act", *BASE, z, y)
            assert (code, out) == (2, "")
            assert "error: whitespace inside a number or a name" in err
        params = ["--p", "2", "--n", "2", "--r", "1", "--b", "1", "--f", "T ^ 4 + T^ 6"]
        code, out, err = run(capsys, "act", *params, " z_1 ", "( T ^ -1 + 1 ) * x ^ 3")
        assert code == 0 and err == ""

    def test_empty_field_element_term_exits_2(self, capsys):
        for text in ("x + ", "x ++ x^2", "+ x"):
            code, _, err = run(capsys, "act", *BASE, "z_1", text)
            assert code == 2
            assert "malformed field element term: ''" in err
        for text in ("", "0"):
            code, out, _ = run(capsys, "act", *BASE, "z_1", text)
            assert code == 0
            assert json.loads(out)["result"] == "0"

    @pytest.mark.parametrize("p,z,y", [(53, "z_2808", "x^2808"), (97, "z_9408", "x^9408")])
    def test_large_p_digits_run_in_well_under_two_seconds(self, capsys, p, z, y):
        # every digit is p - 1 and z reads one t, so the kernel walks that t's digits against x's
        start = time.perf_counter()
        code, out, _ = run(capsys, "act", "--p", str(p), "--n", "2", "--r", "1", "--b", "1", "--f-val", "3", z, y,
                           "--output", "tsv")
        elapsed = time.perf_counter() - start
        assert code == 0 and out == "result\tv_L\n1\t0\n"
        # the p = 53 digest, recorded when the kernel multiplied digit powers out (several seconds)
        assert hashlib.sha256(out.encode()).hexdigest() == "10cfe89e2d12df584b17552d27239e46cceace86fe80e2ff6c2e458337cf84f5"
        assert elapsed < 2.0

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

    @pytest.mark.parametrize("f_val, reason", [
        ("2", "tolerance 5 below 2*p^n - 1 = 7"),
        ("0", "scaffold hypothesis unmet, so no tolerance reaches 2*p^n - 1 = 7"),
    ])
    def test_refusal_names_the_force_flag(self, capsys, f_val, reason):
        # the library's message names its force=True keyword; the CLI names its own --force flag
        args = ["--p", "2", "--n", "2", "--r", "1", "--b", "1", "--f-val", f_val]
        code, out, err = run(capsys, "assoc-order", *args, "--h", "0")
        assert (code, out) == (3, "")
        assert err == f"error: {reason}; pass --force to emit an untrusted listing\n"

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

    def test_refuses_an_h_range_after_the_dispatch_line(self, capsys, monkeypatch):
        monkeypatch.setenv("SCAFFOLD_LOG", "debug")
        code, out, err = run(capsys, "assoc-order", *BASE, "--h", "0..1")
        assert (code, out) == (2, "")
        assert err == "DEBUG:hopfscaffold:dispatching assoc-order\nerror: assoc-order takes a single --h value\n"


class TestAtlas:
    def test_full_period(self, capsys):
        code, out, _ = run(capsys, "atlas", *BASE)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "h\tfree\tgenerator_count\twitness_j"
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 4
        assert [row[1] for row in rows] == ["0", "1", "1", "1"]

    def test_takes_no_output_option(self, capsys):
        # atlas prints TSV only, so --output is refused rather than ignored
        for fmt in ("json", "tsv", "pretty"):
            code, out, err = run(capsys, "atlas", *BASE, "--output", fmt)
            assert (code, out) == (2, "")
            assert "unrecognized arguments: --output" in err

    def test_degree_81_pinned(self, capsys):
        # the atlas/R81 digest of perfbench/reference.json
        start = time.perf_counter()
        code, out, _ = run(capsys, "atlas", "--p", "3", "--n", "4", "--r", "2", "--b", "1", "--f-val", "3")
        elapsed = time.perf_counter() - start
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "6b7157922be7fb2658a798ac00ce14c768a248d0643ca4007128c9b5e9e06763"
        assert elapsed < 1.0

    @pytest.mark.parametrize("p,n,r", [(3, 5, 3), (3, 6, 3), (5, 4, 2)])
    def test_larger_period_pinned(self, capsys, p, n, r):
        # full-period tables at p^n = 243, 729 and 625 (b = 1)
        digests = {
            243: "3e09a6c13321fa5f6a3e12cf6e64430c6dd2b3380c66ba62dddcce3b9b1cc29f",
            729: "6195fb780d7f02367976d60a9b01b58403803473467af8cd2f5e84346c6b9fad",
            625: "c6d25e1d19070b7c13aa87a65f2b2cbb7e63fe6547f16b8035c2be8c42fc0a6e",
        }
        code, out, _ = run(capsys, "atlas", "--p", str(p), "--n", str(n), "--r", str(r), "--b", "1", "--f-val", "3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digests[p**n]


def _cli_process(argv, scaffold_log):
    """Run the CLI in a fresh interpreter against this checkout's src/, SCAFFOLD_LOG set or unset."""
    env = {k: v for k, v in os.environ.items() if k != "SCAFFOLD_LOG"}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    if scaffold_log is not None:
        env["SCAFFOLD_LOG"] = scaffold_log
    script = "import sys; from hopfscaffold.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def quiet_atlas():
    return _cli_process(["atlas", *BASE], None)


@pytest.mark.parametrize(
    "level, prints",
    [
        ("DEBUG", True), ("debug", True), ("NOTSET", True), ("INFO", False), ("LOUD", False), (None, False),
        ("basic_format", False),  # a logging module attribute, but not a level name
    ],
)
def test_scaffold_log_prints_the_dispatch_line_only_at_debug(quiet_atlas, level, prints):
    proc = _cli_process(["atlas", *BASE], level)
    assert proc.stderr == ("DEBUG:hopfscaffold:dispatching atlas\n" if prints else "")
    assert (proc.returncode, proc.stdout) == (quiet_atlas.returncode, quiet_atlas.stdout)
    assert quiet_atlas.returncode == 0 and quiet_atlas.stdout.startswith("h\tfree")


@pytest.mark.parametrize(
    "argv",
    [
        ["act", *BASE, "z_1", "x"],  # one line, still buffered at exit
        ["freeness", *BASE, "--h", "-300..300"],  # streamed rows, written while main runs
    ],
)
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # the read end of stdout is closed before the child writes, so every write fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("SCAFFOLD_LOG", None)
    script = "from hopfscaffold.cli import entry; entry()"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


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

    def test_f_and_f_val_together_exit_2(self, capsys):
        code, out, err = run(
            capsys, "scaffold-verify", "--p", "2", "--n", "2", "--r", "1", "--b", "1",
            "--f-val", "1", "--f", "T^4 + T^6",
        )
        assert code == 2
        assert out == ""
        assert "not allowed" in err

    def test_explicit_f(self, capsys):
        code, out, _ = run(
            capsys, "scaffold-verify", "--p", "2", "--n", "2", "--r", "1", "--b", "1", "--f", "T^4 + T^6"
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


# a 31-digit p: trial division of it would never finish
P31 = "1000000000000000000000000000057"
DEGREE_CAP_COMMANDS = {
    "scaffold-verify": ("scaffold-verify", []),
    "freeness": ("freeness", ["--h", "0"]),
    "act": ("act", ["z_1", "x^1"]),
    "assoc-order": ("assoc-order", ["--h", "0"]),
    "atlas": ("atlas", []),
}


class TestDegreeCap:
    @pytest.mark.parametrize("command", sorted(DEGREE_CAP_COMMANDS))
    @pytest.mark.parametrize("p,n", [("1000003", "2"), ("2", "40"), (P31, "2")])
    def test_oversized_degree_exits_2(self, capsys, monkeypatch, command, p, n):
        def refuse(m):
            raise AssertionError(f"is_prime({m}) called")

        for module in (base_arith, field_tower):  # field_tower also holds HopfParams
            monkeypatch.setattr(module, "is_prime", refuse)
        name, rest = DEGREE_CAP_COMMANDS[command]
        start = time.perf_counter()
        code, out, err = run(capsys, name, "--p", p, "--n", n, "--r", "1", "--b", "1", "--f-val", "3", *rest)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert f"error: p^n = {p}^{n} exceeds {cli.MAX_DEGREE}" in err

    def test_cap_boundary(self, capsys):
        # 100^2 is exactly the cap: it passes the cap and is then refused as not prime
        code, out, err = run(capsys, "atlas", "--p", "100", "--n", "2", "--r", "1", "--b", "1", "--f-val", "3")
        assert (code, out) == (2, "")
        assert "exceeds" not in err and "not prime" in err
        # b = p is invalid too, so a cap that let 101^2 through would fail fast on b
        code, out, err = run(capsys, "atlas", "--p", "101", "--n", "2", "--r", "1", "--b", "101", "--f-val", "3")
        assert (code, out) == (2, "")
        assert "p^n = 101^2 exceeds" in err
        # the largest accepted powers of 2 and 97 still run
        code, out, _ = run(capsys, "act", "--p", "2", "--n", "13", "--r", "7", "--b", "1", "--f-val", "3", "z_1", "x^1")
        assert code == 0
        assert json.loads(out) == {"result": "1", "v_L": 0}
        code, out, _ = run(capsys, "act", "--p", "97", "--n", "2", "--r", "1", "--b", "1", "--f-val", "3", "z_1", "x^1")
        assert code == 0
        code, _, err = run(capsys, "act", "--p", "2", "--n", "14", "--r", "7", "--b", "2", "--f-val", "3", "z_1", "x^1")
        assert code == 2
        assert f"p^n = 2^14 exceeds {cli.MAX_DEGREE}" in err

    def test_small_n_refused_before_the_prime_test(self, capsys):
        code, out, err = run(capsys, "atlas", "--p", P31, "--n", "0", "--r", "1", "--b", "1", "--f-val", "3")
        assert (code, out) == (2, "")
        assert "n must be at least 2" in err


# argv vocabulary: valid parameters keep p^n <= 81; the bad values are malformed, negative, huge or
# out of range, and a drawn command line corrupts up to three of its valid entries
_VALID_PNR = ((2, 2, 1), (2, 4, 2), (2, 4, 3), (2, 6, 3), (3, 2, 1), (3, 4, 2), (5, 2, 1))
_BAD_PN = (("4", "2"), ("1", "3"), ("0", "2"), ("-3", "2"), ("2", "0"), ("2", "1"), ("3", "-2"),
           ("7", "50"), ("2", "1000000000"), (P31, "2"), ("x", "2"), ("2.5", "2"))
_BAD = ("0", "-1", "-7", "99", "1" + "0" * 30, "-" + "9" * 20, "x", "", "1e3", "T^", "((T)", "T^3 +",
        "T^1.5", "T^99999999999", "*T", "0..100000", "0..1000000000", "5..2", "a..b", "3..", "..",
        "z_999", "z_-1", "(T^)*z_1", "x^999", "x^-1", "((x", "xml", "٣", "-٣", "1_0", "١..٢", "x^1_0")
_JUNK = ("--force", "--f-val", "--bogus", "-h", "--p", "z_1", "x^2", "--output")


@st.composite
def _argv(draw):
    """A command line for a drawn subcommand: valid flags and operands, up to three of them spoiled."""
    command = draw(st.sampled_from(("scaffold-verify", "freeness", "act", "assoc-order", "atlas", "verify")))
    p, n, r = draw(st.sampled_from(_VALID_PNR))
    b = draw(st.sampled_from([v for v in range(1, 8) if v % p]))
    flags = {"--p": str(p), "--n": str(n), "--r": str(r), "--b": str(b)}
    if draw(st.booleans()):
        flags["--f-val"] = str(draw(st.integers(-3, 12)))
    else:
        flags["--f"] = draw(st.sampled_from(("T^3", "T^-2 + 2*T^5", "T^9", "0")))
    if draw(st.booleans()):
        flags["--beta"] = draw(st.sampled_from((f"T^-{b}", f"T^-{b} + T^2", f"T^{b}")))
    if command != "atlas":  # atlas takes no --output
        flags["--output"] = draw(st.sampled_from(("json", "tsv", "pretty")))
    if command in ("freeness", "assoc-order"):
        flags["--h"] = draw(st.sampled_from(("0", "3", "-2..1", str(b))))
    operands = [draw(st.sampled_from(("z_1", "(T^2)*z_3", "z_0 + (2*T^-1)*z_2", "0"))),
                draw(st.sampled_from(("x^1", "(T^-1)*x^2 + x^3", "0")))] if command == "act" else []
    junk = []
    for _ in range(draw(st.integers(0, 3))):
        spoil = draw(st.sampled_from(("value", "drop", "degree", "junk", "operand")))
        if spoil == "operand" and operands:
            operands[draw(st.integers(0, 1))] = draw(st.sampled_from(_BAD))
        elif spoil == "value":
            flags[draw(st.sampled_from(sorted(flags)))] = draw(st.sampled_from(_BAD))
        elif spoil == "drop" and flags:
            del flags[draw(st.sampled_from(sorted(flags)))]
        elif spoil == "degree":
            flags["--p"], flags["--n"] = draw(st.sampled_from(_BAD_PN))
        else:
            junk.append(draw(st.sampled_from(_JUNK + _BAD)))
    argv = [command]
    for flag in draw(st.permutations(sorted(flags))):
        argv += [flag, flags[flag]]
    return argv + operands + junk


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_argv())
def test_exit_code_contract_on_random_argv(argv):
    # whatever the command line, main returns one of the documented codes and never raises
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAILED, cli.EXIT_USAGE, cli.EXIT_HYPOTHESIS)


# (parameters, freeness h range, act operands): digit-0 checks at (2,4,2,1); a multi-term f and beta at
# (3,3,2,2), tolerance 29 below the 53 that licenses assoc-order; the no-scaffold exit 3 at (3,2,1,1)
_CORPUS_TUPLES = (
    (["--p", "2", "--n", "4", "--r", "2", "--b", "1", "--f", "T^3"], "-2..1", ("(T^2)*z_3 + z_1", "(T^-1)*x^2 + x^5")),
    (["--p", "3", "--n", "3", "--r", "2", "--b", "2", "--f", "T^3 + 2*T^5", "--beta", "T^-2 + T"], "-3..2",
     ("z_4 + (2*T^-1)*z_1", "(T^-1)*x^2 + x^13")),
    (["--p", "3", "--n", "2", "--r", "1", "--b", "1", "--f-val", "0"], "-1..2", ("(T^2)*z_3 + z_1", "x^2 + (2)")),
)


def _corpus_argvs():
    for params, h_range, (z, y) in _CORPUS_TUPLES:
        for output in ("json", "tsv", "pretty"):
            tail = ["--output", output]
            yield ["scaffold-verify", *params, *tail]
            yield ["freeness", *params, "--h", h_range, *tail]
            yield ["assoc-order", *params, "--h", "0", *tail]
            yield ["assoc-order", *params, "--h", "0", "--force", *tail]
            yield ["act", *params, *tail, "z_1", "x"]
            yield ["act", *params, *tail, z, y]


def test_report_corpus_pinned(capsys):
    # one digest over argv, exit code and stdout of verify, freeness, assoc-order and act in every format
    digest = hashlib.sha256()
    codes = []
    for argv in _corpus_argvs():
        code, out, _ = run(capsys, *argv)
        codes.append(code)
        digest.update(f"{argv!r}\n{code}\n{out}\x1e".encode())
    assert set(codes) == {0, 3}
    assert digest.hexdigest() == "e30c0fa0480801a4e8c0323c3130f31bcc965912df90d69c331790947f161b8b"


def _tsv_rows(capsys, *argv):
    """The rows of a TSV report as {column: field}, after checking every line has the header's field count."""
    code, out, _ = run(capsys, *argv)
    assert code == 0, argv
    header, *lines = (line.split("\t") for line in out.splitlines())
    assert lines and all(len(fields) == len(header) for fields in lines), argv
    return [dict(zip(header, fields)) for fields in lines]


def _bit(value):
    return str(int(value))


def test_tsv_contract(capsys):
    # field counts, empty fields and 0/1 bools of every TSV report, the bools read against the JSON
    t = ["--p", "2", "--n", "4", "--r", "2", "--b", "1", "--f", "T^3"]
    verify = _tsv_rows(capsys, "scaffold-verify", *t, "--output", "tsv")
    checks = json.loads(run(capsys, "scaffold-verify", *t)[1])["checks"]
    assert {(r["s"], r["j"], r["passed"]) for r in verify} == {(str(c["s"]), str(c["j"]), _bit(c["passed"])) for c in checks}
    assert {r["digit"] for r in verify} == {"0", "1"}
    assert all((r["unit"] == "") == (r["digit"] == "0") for r in verify)

    freeness = _tsv_rows(capsys, "freeness", *t, "--h", "-20..20", "--output", "tsv")
    reports = [json.loads(line) for line in run(capsys, "freeness", *t, "--h", "-20..20")[1].splitlines()]
    assert [(r["h_raw"], r["free"]) for r in freeness] == [(str(j["h_raw"]), _bit(j["free"])) for j in reports]
    atlas = _tsv_rows(capsys, "atlas", *t)  # the window b - p^n + 1 .. b = -14..1, in order
    window = [json.loads(line) for line in run(capsys, "freeness", *t, "--h", "-14..1")[1].splitlines()]
    assert [(r["h"], r["free"]) for r in atlas] == [(str(j["h_norm"]), _bit(j["free"])) for j in window]
    for table in (freeness, atlas):
        assert {r["free"] for r in table} == {"0", "1"}
        assert all((r["witness_j"] == "") == (r["free"] == "1") for r in table)

    _tsv_rows(capsys, "assoc-order", *t, "--h", "1", "--output", "tsv")
    acts = [_tsv_rows(capsys, "act", *t, "--output", "tsv", z, y) for z, y in (("z_2", "x"), ("z_1", "x^3"))]
    assert [r["result"] for (r,) in acts] == ["0", "x^2"]
    assert all((r["v_L"] == "") == (r["result"] == "0") for (r,) in acts)


def test_p_below_2_exits_2_as_not_prime(capsys):
    for p in ("0", "1", "-3"):
        code, out, err = run(capsys, "act", "--p", p, "--n", "4", "--r", "2", "--b", "1", "--f-val", "3", "z_1", "x")
        assert (code, out) == (2, "")
        assert f"error: p = {p} is not prime" in err
        assert "modulo by zero" not in err


def test_composite_p_exits_2_as_not_prime(capsys):
    # the CLI's own wording, as for p < 2, not the modulus message of the Laurent arithmetic
    for p in ("4", "9"):
        code, out, err = run(capsys, "act", "--p", p, "--n", "2", "--r", "1", "--b", "1", "--f-val", "3", "z_1", "x")
        assert (code, out) == (2, "")
        assert err == f"error: p = {p} is not prime\n"
        assert "modulus" not in err


_NINES = "9" * 4300  # the most digits int() converts, so the tolerance p^n*v_K(f) - ... has more


@pytest.mark.parametrize("output", ["json", "tsv", "pretty"])
@pytest.mark.parametrize("command", [["scaffold-verify"], ["assoc-order", "--h", "0"]])
@pytest.mark.parametrize("f", [["--f-val", _NINES], ["--f", f"T^{_NINES}"]])
def test_tolerance_beyond_the_digit_limit_exits_2_before_any_check(capsys, monkeypatch, output, command, f):
    def refuse(*_):
        raise AssertionError("a check ran")

    monkeypatch.setattr(scaffold, "verify_scaffold", refuse)  # the handlers import them when run
    monkeypatch.setattr(module_structure, "assoc_order_basis", refuse)
    code, out, err = run(capsys, *command, "--p", "2", "--n", "4", "--r", "2", "--b", "1", *f, "--output", output)
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: tolerance p^n*v_K(f) - b*(p^(r+1) - 1) exceeds the int-to-text limit of {limit} digits\n"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digest recorded on Python 3.11; argparse's help layout is not fixed across versions")
def test_help_text_pinned(capsys, monkeypatch):
    # one digest over the top-level help and each command's help, wrapped at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    commands = ("act", "assoc-order", "atlas", "freeness", "scaffold-verify")
    for argv in (["--help"], *([command, "--help"] for command in commands)):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        digest.update(f"{argv!r}\n{out}\x1e".encode())
    assert digest.hexdigest() == "bab49b07a595d21aea6da0b23fc8a7d45a34740776fa5ed2a33cf6b809546188"
