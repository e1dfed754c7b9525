import json
import os
import warnings

import numpy as np

from fracvolt import cli, volterra
from fracvolt.cli import (CSV_COLUMNS, EXIT_DIVERGENCE, EXIT_INVARIANT,
                          EXIT_OK, ExperimentConfig, default_corpus, main,
                          parse_symbol, run_config)
from fracvolt.quad import QuadratureError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSymbols:
    def test_monomial(self):
        f = parse_symbol("mono:3")
        assert f.degree == 3 and f.coeffs[3] == 1.0

    def test_log_branch(self):
        f = parse_symbol("log:8")
        np.testing.assert_allclose(f.coeffs[1:].real,
                                   1.0 / np.arange(1.0, 9.0))

    def test_random_seeded(self):
        a = parse_symbol("random:5:42")
        b = parse_symbol("random:5:42")
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_json(self):
        f = parse_symbol("json:[[1.0,0.0],[0.0,2.0]]")
        assert f.coeffs[1] == 2j

    def test_corpus_deterministic(self):
        a = default_corpus(10, 3)
        b = default_corpus(10, 3)
        assert [x[0] for x in a] == [x[0] for x in b]
        for (_, fa), (_, fb) in zip(a, b):
            np.testing.assert_array_equal(fa.coeffs, fb.coeffs)


class TestCommands:
    def test_moments_table(self, capsys):
        code, out = run_cli(capsys, "moments", "--weight", "std:1",
                            "--x", "3,201")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        row = lines[1].split(",")
        np.testing.assert_allclose(float(row[4]), 0.25, rtol=1e-12)
        row = lines[2].split(",")
        np.testing.assert_allclose(float(row[4]), 1.0 / 202.0, rtol=1e-12)

    def test_moments_std2(self, capsys):
        code, out = run_cli(capsys, "moments", "--weight", "std:2", "--x", "3")
        np.testing.assert_allclose(float(out.strip().split("\n")[1].split(",")[4]),
                                   1.0 / 6.0, rtol=1e-12)

    def test_classify_json_verdicts(self, capsys):
        code, out = run_cli(capsys, "classify", "--weight", "exp:1:1",
                            "--format", "json")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdicts"]["dhat"] == "evidence-against"

    def test_frac_multipliers(self, capsys):
        code, out = run_cli(capsys, "frac", "--weight", "std:1",
                            "--symbol", "mono:2", "--op", "D")
        line = out.strip().split("\n")[-1].split(",")
        np.testing.assert_allclose(float(line[6]), 6.0, rtol=1e-12)

    def test_norm_command(self, capsys):
        code, out = run_cli(capsys, "norm", "--weight", "std:1",
                            "--symbol", "mono:1", "--name", "hardy2-lp")
        val = float(out.strip().split("\n")[1].split(",")[4])
        np.testing.assert_allclose(val, 1.6, rtol=1e-10)

    def test_norm_divergence_exit(self, capsys):
        code, _ = run_cli(capsys, "norm", "--weight", "std:1",
                          "--symbol", "mono:1", "--name", "besov", "--p", "1")
        assert code == EXIT_DIVERGENCE

    def test_volterra_spectrum_and_flag(self, capsys):
        code, out = run_cli(capsys, "volterra", "--weight", "std:1",
                            "--symbol", "mono:1", "--trunc", "128",
                            "--p-list", "1,2", "--spectrum-head", "3")
        assert code == EXIT_DIVERGENCE    # the p = 1 ladder keeps growing
        lines = out.strip().split("\n")
        np.testing.assert_allclose(float(lines[1].split(",")[4]), 1.0,
                                   rtol=1e-12)

    def test_equivalence_h2lp_ratio_column(self, capsys):
        code, out = run_cli(capsys, "equivalence", "--name", "h2-lp",
                            "--weight", "std:1", "--trunc", "8")
        assert code == EXIT_OK
        lines = [l.split(",") for l in out.strip().split("\n")[1:]]
        for row in lines[:-1]:
            n = int(row[3])
            np.testing.assert_allclose(float(row[6]),
                                       (2.0 * n + 2) / (2.0 * n + 3), rtol=1e-9)

    def test_equivalence_exponential_flagged(self, capsys):
        code, out = run_cli(capsys, "equivalence", "--name", "h2-lp",
                            "--weight", "exp:1:1", "--trunc", "64")
        assert code == EXIT_DIVERGENCE
        summary = out.strip().split("\n")[-1].split(",")
        assert float(summary[6]) > 0.0    # positive trend slope

    def test_bad_weight_is_invariant_violation(self, capsys):
        code, _ = run_cli(capsys, "moments", "--weight", "expr:r-1")
        assert code == EXIT_INVARIANT

    def test_volterra_tiny_truncation_pinned(self, capsys):
        code, out = run_cli(capsys, "volterra", "--weight", "std:1",
                            "--symbol", "mono:0", "--trunc", "1")
        assert code == EXIT_OK
        assert out == (
            "experiment,weight,symbol,param,lhs,rhs,ratio,trunc,err,anchor\n"
            "volterra-spectrum,std:1,mono:0,0,1.0,,,1,,\n"
            "volterra-schatten,std:1,mono:0,1.0,1.0,,1.0,1,1.0,\n"
            "volterra-schatten,std:1,mono:0,2.0,1.0,,1.0,1,1.0,\n")

    def test_volterra_two_spectra_per_request(self, capsys, monkeypatch):
        calls = []
        original = volterra.singular_values

        def counted(M):
            calls.append(M.dimension)
            return original(M)

        monkeypatch.setattr(volterra, "singular_values", counted)
        code, out = run_cli(capsys, "volterra", "--weight", "std:1",
                            "--symbol", "random:6:1", "--trunc", "48",
                            "--p-list", "1,1.5,2,3,4")
        assert code in (EXIT_OK, EXIT_DIVERGENCE)
        assert out.count("volterra-schatten") == 5
        assert sorted(calls) == [24, 48]


class TestErrorExits:
    """Package errors end in exit 3 with one ``error:`` line, no traceback."""

    def run_err(self, capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == EXIT_INVARIANT
        lines = [l for l in err.splitlines() if l.startswith("error:")]
        assert len(lines) == 1 and "Traceback" not in err
        return lines[0]

    def test_volterra_zero_truncation(self, capsys):
        self.run_err(capsys, "volterra", "--trunc", "0")

    def test_volterra_symbol_degree_at_truncation(self, capsys):
        self.run_err(capsys, "volterra", "--trunc", "1", "--symbol", "mono:1")

    def test_volterra_infinite_beta(self, capsys):
        self.run_err(capsys, "volterra", "--weight", "std:inf")

    def run_weight_err(self, capsys, weight):
        # rejected by the weight constructor, before any array is computed
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = self.run_err(capsys, "volterra", "--weight", weight)
        assert "finite" in line and caught == []

    def test_standard_weight_infinite_beta_rejected(self, capsys):
        self.run_weight_err(capsys, "std:inf")

    def test_exponential_weight_infinite_c_rejected(self, capsys):
        self.run_weight_err(capsys, "exp:inf:1")

    def test_exponential_weight_infinite_gamma_rejected(self, capsys):
        self.run_weight_err(capsys, "exp:1:inf")

    def test_quadrature_error(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise QuadratureError("non-finite values on the quadrature grid")

        monkeypatch.setattr(cli, "from_shorthand", fail)
        self.run_err(capsys, "moments")

    def test_h2lp_negative_truncation(self, capsys):
        line = self.run_err(capsys, "equivalence", "--name", "h2-lp",
                            "--trunc", "-5")
        assert "--trunc" in line

    def test_h2lp_all_ratios_divergent(self, capsys):
        # mu_hat^2/(1-r) ~ 1/((1-r) sqrt(log)) is not integrable: every
        # ratio is infinite, so there is no summary row and the exit is 2
        code, out = run_cli(capsys, "equivalence", "--name", "h2-lp",
                            "--weight", "tailexpr:(1+log(1/(1-r)))^(-0.25)",
                            "--trunc", "6")
        assert code == EXIT_DIVERGENCE
        rows = [l.split(",") for l in out.strip().split("\n")[1:]]
        assert [r[0] for r in rows] == ["equiv-h2-lp"] * 7
        assert all(r[6] == "inf" for r in rows)


class TestReproducibility:
    def test_byte_identical_csv(self, tmp_path):
        args = ["equivalence", "--name", "besov", "--weight", "std:1",
                "--corpus", "5", "--seed", "11"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        args = ["equivalence", "--name", "besov", "--weight", "std:2",
                "--corpus", "4", "--seed", "2"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(args + ["--out", str(out1)])
        os.environ["FRACVOLT_THREADS"] = "4"
        try:
            main(args + ["--out", str(out2)])
        finally:
            del os.environ["FRACVOLT_THREADS"]
        assert out1.read_bytes() == out2.read_bytes()

    def test_every_row_has_truncation(self, capsys):
        for argv in (["equivalence", "--name", "besov", "--weight", "std:1",
                      "--corpus", "4"],
                     ["moments", "--weight", "std:2", "--x", "1,3"],
                     ["volterra", "--weight", "std:1", "--symbol", "mono:1",
                      "--trunc", "32", "--p-list", "2"]):
            _, out = run_cli(capsys, *argv)
            for line in out.strip().split("\n")[1:]:
                assert line.split(",")[7] != ""

    def test_json_mirror(self, capsys):
        _, out = run_cli(capsys, "moments", "--weight", "std:1", "--x", "3",
                         "--format", "json")
        rec = json.loads(out)[0]
        assert set(rec.keys()) == set(CSV_COLUMNS)

    def test_config_roundtrip_reproduces(self, tmp_path):
        cfg = ExperimentConfig(command="equivalence", name="besov",
                               weight="std:1", corpus=4, seed=9)
        cfg2 = ExperimentConfig.from_json(cfg.to_json())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_config(cfg, str(a)) == EXIT_OK
        assert run_config(cfg2, str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
