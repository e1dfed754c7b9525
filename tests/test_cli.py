import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_std
from fracvolt import cli, from_shorthand, volterra, weight_class, weights
from fracvolt.cli import (CSV_COLUMNS, EXIT_DIVERGENCE, EXIT_INVARIANT,
                          EXIT_OK, default_corpus, main, parse_symbol)
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

    def test_moments_err_not_estimated_for_panel_moments(self, capsys):
        # expr: moments are the panel moments themselves: no cross-check
        code, out = run_cli(capsys, "moments", "--weight", "expr:(1-r)^2",
                            "--x", "1,3")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[8] for row in rows] == ["nan", "nan"]
        np.testing.assert_allclose([float(row[4]) for row in rows],
                                   [1.0 / 12.0, 1.0 / 60.0], rtol=1e-12)
        assert [row[5] for row in rows] == [row[4] for row in rows]
        # std: has closed-form moments, so err compares two routes
        _, out = run_cli(capsys, "moments", "--weight", "std:2", "--x", "3")
        assert float(out.strip().split("\n")[1].split(",")[8]) < 1e-12

    def test_exp_moments_build_no_panel_function(self, capsys, monkeypatch):
        # exp: moments read no panel values, so the request builds none;
        # its trunc column is still the reference grid's panel count
        from fracvolt.quad import PanelFunction
        argv = ("moments", "--weight", "exp:1.3:0.8", "--x", "57,57,29,9")
        panels = PanelFunction.from_callable(np.ones_like).values.shape[0]
        builds = []
        original = PanelFunction.from_callable.__func__

        def counted(cls, f):
            builds.append(f)
            return original(cls, f)

        monkeypatch.setattr(PanelFunction, "from_callable", classmethod(counted))
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_OK and builds == []
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[7] for row in rows] == [str(panels)] * 4
        # the spy sees builds where the rhs reads panel values
        run_cli(capsys, "moments", "--weight", "expr:(1-r)^2", "--x", "1")
        assert len(builds) == 1

    @pytest.mark.parametrize("gamma", [20, 40])
    def test_exp_moment_err_sees_the_peak_loss(self, capsys, gamma):
        # the lhs under-resolves the steep density's peak at x = 101; the
        # halved-grid rhs resolves it, so err is the lhs's own error.  The
        # truth is the u = 1 - s quadrature of
        # test_steep_moments_match_mpmath_in_u
        import mpmath as mp
        code, out = run_cli(capsys, "moments", "--weight", f"exp:1:{gamma}",
                            "--x", "101")
        assert code == EXIT_OK
        row = out.strip().split("\n")[1].split(",")
        with mp.workdps(20):
            g = mp.mpf(gamma)
            truth = float(mp.quad(
                lambda u: mp.exp(101 * mp.log1p(-u) + mp.log(g)
                                 - (g + 1) * mp.log(u) - u ** -g),
                [0] + mp.linspace(0.5, 1, 129)))
        miss = abs(float(row[4]) - truth)
        assert miss > 0 and miss / 2 <= float(row[8]) <= 2 * miss

    def test_classify_json_verdicts(self, capsys):
        code, out = run_cli(capsys, "classify", "--weight", "exp:1:1",
                            "--format", "json")
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdicts"]["dhat"] == "evidence-against"

    @pytest.mark.parametrize("depth, rows", [("1", 15), ("2", 22)])
    def test_classify_shallow_depth_writes_no_warning(self, capsys, depth, rows):
        # depth 1 has an empty mid-quarter window, whose mean numpy warned
        # about; it still yields no decline, so every K keeps its evidence
        argv = ["classify", "--weight", "std:1", "--depth", depth]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(capsys, *argv)
            assert main(argv + ["--format", "json"]) == EXIT_OK
        captured = capsys.readouterr()
        assert code == EXIT_OK and caught == [] and captured.err == ""
        lines = out.splitlines()
        assert len(lines) == rows
        assert lines[1].startswith(
            "classify-verdict,std:1,dhat=evidence-against;dcheck=evidence-for,")
        rep = json.loads(captured.out)
        assert all(rep["dcheck_K_evidence"].values())

    @pytest.mark.parametrize("weight", ["std:2", "exp:1:1",
                                        "tailexpr:(1-r)^3", "exp:1:40"])
    def test_classify_json_is_the_field_by_field_mapping(self, capsys, weight):
        # the report's own JSON against the mapping the CLI once wrote by
        # hand, key by key: tuples as lists and the float K keys as str(K)
        def by_hand(rep):
            return {
                "label": rep.label,
                "depth": rep.depth,
                "dhat_sup": rep.dhat_sup,
                "beta_estimate": rep.beta_estimate,
                "verdicts": rep.verdicts,
                "dhat_tail_profile": [[r, lr] for r, lr in rep.dhat_tail_profile],
                "moment_profile": [[x, lr] for x, lr in rep.moment_profile],
                "dcheck_profiles": {str(K): [[r, lr] for r, lr in prof]
                                    for K, prof in rep.dcheck_profiles.items()},
                "dcheck_K_evidence": {str(K): bool(v)
                                      for K, v in rep.dcheck_K_evidence.items()},
                "notes": rep.notes,
            }

        code, out = run_cli(capsys, "classify", "--weight", weight,
                            "--format", "json")
        rep = weight_class.classify(from_shorthand(weight))
        assert code == EXIT_OK
        assert out == json.dumps(by_hand(rep), indent=1) + "\n"

    @pytest.mark.parametrize("weight", [
        "exp:1:40",
        '{"kind":"derived","op":"power_tail","param":1,'
        '"base":{"kind":"exponential","c":1,"gamma":1}}'])
    def test_classify_underflowing_tail_prints_no_nan(self, capsys, weight):
        # the deep tails underflow to 0: a ratio of two zero tails reads
        # +inf (printed at the exp(700) cap), not -inf - (-inf) = nan
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["classify", "--weight", weight])
        captured = capsys.readouterr()
        assert code == EXIT_OK and caught == [] and captured.err == ""
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        verdict, profile = rows[0], rows[1:]
        assert verdict[2] == "dhat=evidence-against;dcheck=evidence-for"
        assert verdict[4] == "inf"
        assert len(profile) == 36 + 6 * 37
        # every ratio is at least 1, which no nan is
        assert all(float(row[4]) >= 1.0 for row in profile)

    @pytest.mark.parametrize("weight", ["exp:1:20", "exp:1:40"])
    @pytest.mark.parametrize("argv", [
        ["moments", "--x", "1,3,101"],
        ["frac", "--symbol", "mono:3", "--op", "D"],
        ["volterra", "--symbol", "mono:3", "--trunc", "64", "--p-list", "2"]],
        ids=["moments", "frac", "volterra"])
    def test_steep_exponential_weight_writes_no_warning(self, capsys, weight,
                                                        argv):
        # (1 - r)^(-gamma - 1) overflows near r = 1 once gamma exceeds ~18.7
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([argv[0], "--weight", weight, *argv[1:]])
        captured = capsys.readouterr()
        assert code == EXIT_OK and caught == [] and captured.err == ""
        assert captured.out.count("\n") > 1

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

    @pytest.mark.parametrize("k", [1, 2])
    def test_equivalence_h2lp_rhs_is_the_exact_moment_square(self, capsys, k):
        # rhs = mu_(2n+1)^2 from the odd-moment table (the ratio recurrence),
        # against the exact rational; the Beta-function moment was up to
        # 4.5e-12 off at this truncation
        code, out = run_cli(capsys, "equivalence", "--name", "h2-lp",
                            "--weight", f"std:{k}", "--trunc", "2000")
        assert code == EXIT_OK
        rows = [l.split(",") for l in out.strip().split("\n")[1:-1]]
        assert len(rows) == 101
        for row in rows:
            truth = float(exact_std.odd_moment(k, int(row[3])) ** 2)
            assert abs(float(row[5]) - truth) <= 1e-13 * truth

    def test_equivalence_exponential_flagged(self, capsys):
        code, out = run_cli(capsys, "equivalence", "--name", "h2-lp",
                            "--weight", "exp:1:1", "--trunc", "64")
        assert code == EXIT_DIVERGENCE
        summary = out.strip().split("\n")[-1].split(",")
        assert float(summary[6]) > 0.0    # positive trend slope

    @pytest.mark.parametrize("name", ["bmoa", "besov", "tent-hp"])
    def test_corpus_slope_above_limit_flagged(self, capsys, name):
        # exp:1:1 is not doubling: every corpus ratio grows with the degree
        code, out = run_cli(capsys, "equivalence", "--name", name, "--weight",
                            "exp:1:1", "--corpus", "12", "--p", "3")
        summary = out.strip().split("\n")[-1].split(",")
        assert float(summary[6]) > cli.TREND_SLOPE_LIMIT
        assert code == EXIT_DIVERGENCE

    @pytest.mark.parametrize("name", ["bmoa", "besov", "tent-hp"])
    @pytest.mark.parametrize("weight", ["std:1", "std:2"])
    def test_corpus_slope_of_doubling_weight_passes(self, capsys, name, weight):
        code, out = run_cli(capsys, "equivalence", "--name", name, "--weight",
                            weight, "--corpus", "12", "--p", "3")
        summary = out.strip().split("\n")[-1].split(",")
        assert float(summary[6]) <= cli.TREND_SLOPE_LIMIT
        assert code == EXIT_OK

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

    @pytest.mark.parametrize("p", ["0", "-1"])
    @pytest.mark.parametrize("name", ["besov", "besov-classical", "bergman"])
    def test_p_mean_needs_positive_p(self, capsys, name, p):
        # besov-classical looped forever on these, bergman printed a value
        line = self.run_err(capsys, "norm", "--name", name, "--alpha", "0",
                            "--p", p)
        assert "p must be positive" in line

    def test_besov_equivalence_needs_positive_p(self, capsys):
        line = self.run_err(capsys, "equivalence", "--name", "besov",
                            "--p", "0")
        assert "p must be positive" in line

    @pytest.mark.parametrize("argv", [
        "norm --name besov --p nan", "norm --name besov --p inf",
        "norm --name tent --p nan", "norm --name besov-classical --p nan",
        "equivalence --name tent-hp --p nan", "volterra --p-list inf",
        "norm --name bergman --alpha nan", "norm --name bergman --alpha inf",
        "volterra --alpha nan", "volterra --alpha inf"])
    def test_non_finite_exponent_refused(self, capsys, argv):
        # each printed nan (or S_p = 1.0 at p = inf) with exit 0, or warned
        # before its exit 3
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = self.run_err(capsys, *argv.split())
        assert caught == []
        if "--p" in argv:
            assert "p must be positive" in line

    @pytest.mark.parametrize("argv", [
        "frac --op D --weight exp:1:20 --symbol log:300",
        "frac --op R --weight std:1 --weight2 exp:1:20 --symbol log:300"])
    def test_underflowed_moments_refused_without_warning(self, capsys, argv):
        # mu_{2n+1} is 0.0 from n = 206 on exp:1:20: the quotient is not
        # finite, and numpy's divide, overflow and invalid warnings came
        # before the one error line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv.split())
        err = capsys.readouterr().err
        assert code == EXIT_INVARIANT and caught == []
        assert err.startswith("error:") and err.count("\n") == 1

    def test_classify_depth_below_one(self, capsys):
        # an empty dyadic grid reached numpy's reduction error
        for depth in ("0", "-1"):
            line = self.run_err(capsys, "classify", "--depth", depth)
            assert "--depth" in line

    # malformed input: each was a traceback (exit 1) or a silent exit 0

    def test_descriptor_missing_beta(self, capsys):
        line = self.run_err(capsys, "moments", "--weight", '{"kind":"standard"}')
        assert "'beta'" in line

    def test_descriptor_beta_not_a_number(self, capsys):
        self.run_err(capsys, "moments", "--weight",
                     '{"kind":"standard","beta":"x"}')

    def test_descriptor_power_tail_without_param(self, capsys):
        line = self.run_err(capsys, "moments", "--weight", json.dumps(
            {"kind": "derived", "op": "power_tail",
             "base": {"kind": "standard", "beta": 1.0}}))
        assert "param" in line

    def test_descriptor_not_an_object(self, capsys):
        self.run_err(capsys, "moments", "--weight", '{"kind":"derived"}')

    def test_json_symbol_not_a_list(self, capsys):
        self.run_err(capsys, "frac", "--symbol", "json:5")

    def test_json_symbol_with_a_string(self, capsys):
        self.run_err(capsys, "frac", "--symbol", 'json:[[1,"x"]]')

    def test_negative_monomial(self, capsys):
        self.run_err(capsys, "frac", "--symbol", "mono:-1")

    def test_negative_log_branch(self, capsys):
        self.run_err(capsys, "frac", "--symbol", "log:-3")

    @pytest.mark.parametrize("weight", [
        "expr:" + "(" * 300 + "r" + ")" * 300,
        "expr:" + "+".join(["r"] * 2000),
        "tailexpr:2-" + "*".join(["r"] * 600),
        "expr:__import__('os')", "expr:r.real", "expr:(lambda: 1)()",
        "expr:0x10+r", "expr:r**2"],
        ids=["300-parentheses", "2000-term-sum", "600-factor-tail", "import",
             "attribute", "lambda", "hex", "double-star"])
    def test_hostile_formula(self, capsys, weight):
        self.run_err(capsys, "moments", "--weight", weight)

    @pytest.mark.parametrize("formula", ["+".join(["r"] * 900),
                                         "*".join(["r"] * 600)],
                             ids=["900-term-sum", "600-factor-product"])
    def test_long_formula_accepted(self, capsys, formula):
        code, out = run_cli(capsys, "moments", "--weight", "expr:" + formula,
                            "--x", "1")
        assert code == EXIT_OK and out.count("\n") == 2

    def test_non_integrable_expr_weight(self, capsys):
        line = self.run_err(capsys, "moments", "--weight", "expr:1/(1-r)")
        assert "integrable" in line

    @pytest.mark.parametrize("weight", [
        "std:2", "exp:1:1", "expr:(1-r)^2", "tailexpr:(1-r)^3",
        '{"kind":"derived","op":"power_tail","param":2,'
        '"base":{"kind":"standard","beta":2}}'])
    def test_nan_moment_index_refused(self, capsys, weight):
        # each family printed a row of nan or 0.0 with exit 0
        line = self.run_err(capsys, "moments", "--weight", weight,
                            "--x", "nan,1")
        assert "nonnegative" in line
        code, out = run_cli(capsys, "moments", "--weight", weight, "--x", "inf")
        assert code == EXIT_OK
        assert out.strip().split("\n")[1].split(",")[4] == "0.0"

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_corpus_below_one(self, capsys, size):
        # printed a lone log:64 row and exited 0
        line = self.run_err(capsys, "equivalence", "--name", "bmoa",
                            "--corpus", size)
        assert "--corpus" in line

    def test_negative_spectrum_head(self, capsys):
        # printed the singular values [:-3], 5 of 8, and exited 0
        line = self.run_err(capsys, "volterra", "--symbol", "mono:1",
                            "--trunc", "8", "--spectrum-head", "-3")
        assert "--spectrum-head" in line

    @pytest.mark.parametrize("argv, words", [
        (["volterra", "--trunc", "0"], "degree 1 must stay below the truncation 0"),
        (["volterra", "--trunc", "3", "--symbol", "mono:3"],
         "degree 3 must stay below the truncation 3"),
        (["equivalence", "--name", "schatten", "--corpus", "2", "--trunc", "64"],
         "log:64: symbol degree 64 must stay below the truncation 64")])
    def test_truncation_error_names_its_numbers(self, capsys, argv, words):
        assert self.run_err(capsys, *argv).endswith(words)

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


class TestTableProtocol:
    """Every equivalence table is one EQUIVALENCES entry read by one loop:
    rows, summary and verdict come from the entry alone."""

    @pytest.fixture
    def fresh_parser(self):
        # --name choices are bound when the cached parser is first built
        cli.build_parser.cache_clear()
        yield
        cli.build_parser.cache_clear()

    def test_corpus_infinite_lhs_prints_no_ratio(self, capsys):
        # mu_hat^p/(1-r^2)^2 is not integrable on std:0.3 at p = 2: every
        # lhs is infinite, so every ratio cell is empty and no summary row
        code, out = run_cli(capsys, "equivalence", "--name", "besov",
                            "--weight", "std:0.3", "--p", "2", "--corpus", "3")
        assert code == EXIT_DIVERGENCE
        rows = [l.split(",") for l in out.strip().split("\n")[1:]]
        assert [r[0] for r in rows] == ["equiv-besov"] * 3
        assert all(r[4] == "inf" and r[6] == "" for r in rows)

    @pytest.mark.parametrize("argv, trend_exits", [
        (["--name", "bmoa", "--corpus", "2"], True),
        (["--name", "besov", "--corpus", "2"], True),
        (["--name", "tent-hp", "--corpus", "2"], True),
        (["--name", "h2-lp", "--trunc", "8"], True),
        (["--name", "schatten", "--weight", "std:2", "--p", "2",
          "--corpus", "2"], False),
    ])
    def test_trend_verdict_is_the_entrys(self, capsys, monkeypatch, argv,
                                         trend_exits):
        # each request exits 0 on its own; a steep summary slope exits 2
        # except for schatten, whose verdict stays its truncation monitor
        code, _ = run_cli(capsys, "equivalence", *argv)
        assert code == EXIT_OK
        monkeypatch.setattr(cli, "_trend_slope", lambda degrees, ratios: 1.0)
        code, out = run_cli(capsys, "equivalence", *argv)
        assert out.strip().split("\n")[-1].split(",")[6] == "1.0"
        assert code == (EXIT_DIVERGENCE if trend_exits else EXIT_OK)

    @pytest.mark.parametrize("trend_exits", [True, False])
    def test_toy_table_in_one_entry(self, capsys, monkeypatch, fresh_parser,
                                    trend_exits):
        def rows(w, a):
            for n in (1, 2, 4):
                yield f"mono:{n}", n, n + 1, 2.0 * n, 2.0, float(n), False
            yield "log:64", 64, 64, np.inf, 1.0, "", False

        monkeypatch.setitem(cli.EQUIVALENCES, "toy", (rows, trend_exits))
        code, out = run_cli(capsys, "equivalence", "--name", "toy",
                            "--weight", "std:2", "--trunc", "5")
        lines = out.strip().split("\n")
        assert lines[1:5] == ["equiv-toy,std:2,mono:1,1,2.0,2.0,1.0,5,,",
                              "equiv-toy,std:2,mono:2,2,4.0,2.0,2.0,5,,",
                              "equiv-toy,std:2,mono:4,4,8.0,2.0,4.0,5,,",
                              "equiv-toy,std:2,log:64,64,inf,1.0,,5,,"]
        summary = lines[5].split(",")
        assert summary[:6] == ["equiv-toy-summary", "std:2", "", "summary",
                               "1.0", "4.0"]
        # the fit runs on the trend degrees n + 1, not on the params n
        slope = np.polyfit(np.log([2.0, 3.0, 5.0]), np.log([1.0, 2.0, 4.0]), 1)[0]
        assert float(summary[6]) == pytest.approx(slope, rel=1e-12)
        assert slope > cli.TREND_SLOPE_LIMIT
        assert code == (EXIT_DIVERGENCE if trend_exits else EXIT_OK)
        assert len(lines) == 6

    def test_name_choices_are_the_table(self):
        assert tuple(cli.EQUIVALENCES) == ("h2-lp", "tent-hp", "bmoa", "besov",
                                           "schatten")
        parser = cli.build_parser()
        for name in cli.EQUIVALENCES:
            assert parser.parse_args(["equivalence", "--name", name]).name == name


class TestUsageErrors:
    """argparse's own exit 2 would read as "divergence"; usage errors exit 3
    with argparse's message on stderr."""

    def run_usage(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_INVARIANT
        assert "usage:" in captured.err and captured.out == ""
        return captured.err

    def test_unknown_equivalence(self, capsys):
        assert "invalid choice: 'foo'" in self.run_usage(
            capsys, "equivalence", "--name", "foo")

    def test_unknown_norm(self, capsys):
        assert "invalid choice: 'foo'" in self.run_usage(
            capsys, "norm", "--name", "foo")

    def test_bad_float_option(self, capsys):
        assert "--p" in self.run_usage(capsys, "norm", "--p", "abc")

    def test_no_command(self, capsys):
        self.run_usage(capsys)

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "usage:" in capsys.readouterr().out

    def test_shared_parser_prints_what_a_fresh_one_prints(self):
        argvs = [["moments", "--weight", "exp:1:1", "--x", "1,7"],
                 ["classify", "--weight", "std:2", "--depth", "12"],
                 ["norm", "--name", "bogus"],
                 ["frac", "--symbol", "mono:3", "--op", "I"],
                 ["norm", "--name", "hardy2-lp", "--symbol", "mono:2"],
                 ["--help"],
                 ["volterra", "--trunc", "32", "--p-list", "2",
                  "--spectrum-head", "2"],
                 ["equivalence", "--trunc", "8", "--format", "json"],
                 ["volterra", "--help"]]

        def run(argv):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(argv)
            return code, out.getvalue()

        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(run(argv))
        assert fresh[2] == (EXIT_INVARIANT, "")
        assert fresh[5][0] == EXIT_OK and "usage:" in fresh[5][1]
        assert all(out for _, out in fresh[:2] + fresh[3:])
        cli.build_parser.cache_clear()
        assert [run(argv) for argv in argvs] == fresh
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(argvs) - 1)

    # (command, numeric option it does not read)
    UNREAD = [(command, option)
              for command, options in (
                  ("moments", ("alpha", "p", "trunc", "depth", "seed")),
                  ("classify", ("alpha", "p", "trunc", "seed")),
                  ("frac", ("alpha", "p", "trunc", "depth", "seed")),
                  ("norm", ("trunc", "depth", "seed")),
                  ("volterra", ("p", "depth", "seed")),
                  ("equivalence", ("depth",)))
              for option in options]

    @pytest.mark.parametrize("command,option", UNREAD)
    def test_unread_option_is_a_usage_error(self, capsys, command, option):
        # each was accepted and silently ignored
        err = self.run_usage(capsys, command, f"--{option}", "1")
        assert f"unrecognized arguments: --{option}" in err

    def test_options_are_not_abbreviated(self, capsys):
        # volterra has no --p, and --p must not be read as --p-list
        self.run_usage(capsys, "volterra", "--p", "2")
        self.run_usage(capsys, "equivalence", "--corp", "2")

    def test_norm_choices_are_the_norm_table(self):
        assert set(cli.NORMS) == {
            "hardy2-coeff", "hardy2-lp", "tent", "bmoa", "bmoa-kernel",
            "bmoa-classical", "bloch", "besov", "besov-classical", "bergman"}


# The cheap commands over a grammar of well- and ill-formed arguments
_NUMBER = st.sampled_from(["0", "1", "2.5", "-1", "1e-300", "1e999", "nan",
                           "inf", "x", ""])
_JSON_VALUE = st.sampled_from([None, 0, 1, 2.5, -1, 1e308, "x", [1], True])
_DESCRIPTOR = st.recursive(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["standard", "exponential", "expr",
                                  "tail_expr", "nope", 3])},
        optional={"beta": _JSON_VALUE, "c": _JSON_VALUE, "gamma": _JSON_VALUE,
                  "formula": st.sampled_from(["(1-r)^2", "1/(1-r)", "r-1",
                                              "(", 5])}),
    lambda base: st.fixed_dictionaries(
        {"kind": st.just("derived"), "base": base},
        optional={"op": st.sampled_from(["mu_plus", "iterate_V",
                                         "iterate_star", "power_tail",
                                         "times_power", "nope", [1]]),
                  "param": _JSON_VALUE}),
    max_leaves=3)
_WEIGHT = st.one_of(
    st.builds("std:{}".format, _NUMBER),
    st.builds("exp:{}:{}".format, _NUMBER, _NUMBER),
    st.sampled_from(["exp:1", "expr:(1-r)^2", "expr:1/(1-r)", "expr:r-1",
                     "expr:(", "expr:1e999", "tailexpr:1-r", "tailexpr:r",
                     "nope:1", "[1]", "{"]),
    st.builds(json.dumps, _DESCRIPTOR))
_INT = st.one_of(st.integers(-3, 24), st.sampled_from(["x", "", "1.5"]))
_SYMBOL = st.one_of(
    st.builds("mono:{}".format, _INT),
    st.builds("random:{}:{}".format, _INT, _INT),
    st.builds("log:{}".format, _INT),
    st.sampled_from(["json:5", 'json:[[1,"x"]]', "json:[]", "json:[[1,2]]",
                     "json:[1]", "json:{}", "json:[[NaN,0]]", "json:",
                     "random:3", "mono", "nope:1"]))
_ARGV = st.one_of(
    st.builds(lambda w, x: ["moments", "--weight", w, "--x", x], _WEIGHT,
              st.sampled_from(["1,3", "0", "-1", "x", "", "inf", "nan"])),
    st.builds(lambda w, s, op, w2: ["frac", "--weight", w, "--symbol", s,
                                    "--op", op] + w2,
              _WEIGHT, _SYMBOL, st.sampled_from(["D", "I", "R", "Q"]),
              st.one_of(st.just([]), st.builds(lambda v: ["--weight2", v],
                                               _WEIGHT))),
    st.builds(lambda w, s: ["norm", "--name", "hardy2-coeff", "--weight", w,
                            "--symbol", s], _WEIGHT, _SYMBOL))


@settings(max_examples=80)
@given(_ARGV)
def test_cli_grammar_exits_0_2_or_3(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (EXIT_OK, EXIT_DIVERGENCE, EXIT_INVARIANT), argv
    assert "Traceback" not in err.getvalue()


class TestReproducibility:
    def test_byte_identical_csv(self, tmp_path):
        args = ["equivalence", "--name", "besov", "--weight", "std:1",
                "--corpus", "5", "--seed", "11"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    # requests of the three benchmark workloads' shapes, several on one
    # weight: exp:1:1's odd moments are extended from 512 to 768 in forward
    # order, taken at 768 at once in reverse and built afresh when cleared
    ORDER_ARGVS = [
        "volterra --weight exp:1:1 --symbol random:8:5 --alpha 0 --trunc 512",
        "norm --name bmoa-kernel --weight exp:1:1 --symbol random:8:3",
        "volterra --weight exp:1:1 --symbol mono:7 --alpha -1 --trunc 768",
        "volterra --weight std:2 --symbol random:12:4 --alpha 0 --trunc 96",
        "norm --name bloch --weight std:1 --symbol random:16:2",
        "norm --name bmoa --weight exp:1:1 --symbol random:8:9 --format json",
        "equivalence --name bmoa --weight std:1 --corpus 3 --seed 4",
        "moments --weight exp:1.2:0.8 --x 3,41,9,1 --format json",
        "frac --op R --weight std:1.5 --weight2 exp:1.2:1 --symbol random:24:1",
        "norm --name hardy2-lp --weight std:1.5 --symbol random:16:7",
        "equivalence --name schatten --weight std:1.5 --corpus 3 --seed 2 "
        "--trunc 128",
        "classify --weight expr:(1-r)^2.5 --depth 24",
        "equivalence --name h2-lp --weight expr:(1-r)^2.5 --trunc 10",
    ]

    @staticmethod
    def outputs(argvs, clear):
        got = {}
        for argv in argvs:
            if clear:
                weights.from_shorthand.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv.split())
            got[argv] = (code, out.getvalue(), err.getvalue())
        return got

    def test_outputs_do_not_depend_on_request_order(self):
        forward = self.outputs(self.ORDER_ARGVS, clear=False)
        weights.from_shorthand.cache_clear()
        backward = self.outputs(self.ORDER_ARGVS[::-1], clear=False)
        alone = self.outputs(self.ORDER_ARGVS, clear=True)
        assert all(code in (EXIT_OK, EXIT_DIVERGENCE)
                   for code, _, _ in forward.values())
        assert forward == backward == alone

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

