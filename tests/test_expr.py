import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvolt.expr import Expression, ExprError, derivative, evaluate, parse

R = np.concatenate([np.linspace(0.01, 0.98, 50),
                    1.0 - 2.0 ** -np.arange(6.0, 41.0, 2.0)])


def K(value):
    """A constant as evaluate forms it on an array of radii."""
    return np.full_like(R, value)


def assert_bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


class TestParseEval:
    def test_arithmetic_precedence(self):
        e = Expression("1+2*3^2")
        assert e(0.0) == 19.0

    def test_right_assoc_power(self):
        assert Expression("2^3^2")(0.0) == 512.0

    def test_variable_and_functions(self):
        e = Expression("exp(-1/(1-r))/(1-r)^2")
        r = 0.5
        np.testing.assert_allclose(e(r), np.exp(-2.0) / 0.25, rtol=1e-15)

    def test_vectorized(self):
        e = Expression("sqrt(r)*(1-r)")
        r = np.linspace(0, 0.9, 10)
        np.testing.assert_allclose(e(r), np.sqrt(r) * (1 - r))

    def test_leading_minus(self):
        assert Expression("-2+r")(1.0 - 1e-9) == pytest.approx(-1.0)

    @pytest.mark.parametrize("bad", ["", "2+", "foo(r)", "(1+r", "r r", "1..2"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ExprError):
            parse(bad)


class TestDerivative:
    @pytest.mark.parametrize("formula,dformula", [
        ("r^3", lambda r: 3 * r ** 2),
        ("exp(2*r)", lambda r: 2 * np.exp(2 * r)),
        ("log(1/(1-r))", lambda r: 1.0 / (1.0 - r)),
        ("sqrt(1-r)", lambda r: -0.5 / np.sqrt(1.0 - r)),
        ("1/(1+log(1/(1-r)))", lambda r: -1.0 / ((1 - r) * (1 + np.log(1 / (1 - r))) ** 2)),
    ])
    def test_matches_closed_form(self, formula, dformula):
        d = Expression(formula).derivative()
        r = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(d(r), dformula(r), rtol=1e-12)

    def test_matches_finite_differences(self):
        e = Expression("exp(-1/(1-r))*r^2 + sqrt(r+1)")
        d = e.derivative()
        r = np.linspace(0.1, 0.8, 15)
        h = 1e-6
        fd = (e(r + h) - e(r - h)) / (2 * h)
        np.testing.assert_allclose(d(r), fd, rtol=1e-8)

    def test_general_power(self):
        # f^g with non-constant exponent
        d = derivative(parse("r^r"))
        r = 0.6
        np.testing.assert_allclose(evaluate(d, r),
                                   0.6 ** 0.6 * (np.log(0.6) + 1.0), rtol=1e-12)


# (formula, value, derivative): numpy written in the tree's own order and
# rules, so value and derivative must agree bit for bit
CONSTRUCTS = {
    "leading sign": (
        "-r^2+1", lambda r: -(r ** K(2.0)) + K(1.0),
        lambda r: -((K(2.0) * r ** (K(2.0) - K(1.0))) * K(1.0)) + K(0.0)),
    "sign after (": (
        "2*(-r+1)", lambda r: K(2.0) * (-r + K(1.0)),
        lambda r: K(0.0) * (-r + K(1.0)) + K(2.0) * (-K(1.0) + K(0.0))),
    "sign opening an argument": (
        "exp(-r)", lambda r: np.exp(-r), lambda r: np.exp(-r) * -K(1.0)),
    "right-associative ^": (
        "r^2^0.5", lambda r: r ** (K(2.0) ** K(0.5)),
        lambda r: (K(2.0) ** K(0.5) * r ** (K(2.0) ** K(0.5) - K(1.0)))
        * K(1.0)),
    "e-notation": (
        "1.5e-3*r+2E2", lambda r: K(1.5e-3) * r + K(200.0),
        lambda r: (K(0.0) * r + K(1.5e-3) * K(1.0)) + K(0.0)),
    "whitespace and newlines": (
        " sqrt( r )\n*\t(1 - r)", lambda r: np.sqrt(r) * (K(1.0) - r),
        lambda r: (K(1.0) / (K(2.0) * np.sqrt(r))) * (K(1.0) - r)
        + np.sqrt(r) * (K(0.0) - K(1.0))),
}


class TestAcceptedLanguage:
    @pytest.mark.parametrize("name", list(CONSTRUCTS))
    def test_construct_matches_numpy_bit_for_bit(self, name):
        formula, value, slope = CONSTRUCTS[name]
        e = Expression(formula)
        assert_bits_equal(e(R), value(R))
        assert_bits_equal(e.derivative()(R), slope(R))

    def test_sign_after_power(self):
        assert parse("(1-r)^-0.5") == parse("(1-r)^(-0.5)")
        assert_bits_equal(Expression("(1-r)^-0.5")(R),
                          Expression("(1-r)^(-0.5)")(R))

    @pytest.mark.parametrize("formula,same", [
        ("2*-r", "2*(-r)"), ("--r", "r"), ("+r", "r"), (".5+r", "0.5+r"),
        ("1_0*r", "10*r"), ("01+r", "1+r"), ("\u0661+r", "1+r"),
        ("1.05*r", "1.05*r"), ("1e05*r", "100000*r")])
    def test_python_literals_and_signs(self, formula, same):
        assert_bits_equal(Expression(formula)(R), Expression(same)(R))

    def test_sign_binds_tighter_than_product(self):
        # -a*b reads (-a)*b, which is -(a*b) bit for bit
        assert parse("-r*3") == ("mul", ("neg", ("var",)), ("num", 3.0))
        assert_bits_equal(Expression("-r*3")(R), -(R * K(3.0)))

    def test_huge_integer_reads_as_inf(self):
        assert parse("9" * 400) == ("num", np.inf)

    def test_deep_but_accepted(self):
        assert Expression("+".join(["r"] * 900))(0.5) == 450.0
        assert Expression("(" * 200 + "r" + ")" * 200)(0.5) == 0.5

    @pytest.mark.parametrize("bad", [
        "r**2", "r * * 2", "0x10+r", "0o7", "0b1", "1j", "r.real",
        "__import__('os')", "(lambda: 1)()", "exp(r, r)", "exp(x=r)",
        "log(*r)", "None", "True", "...", "r // 2", "r @ r", "not r",
        "r < 1", "'r'", "\"\\d\"", "r if r else 1", "(r, r)", "[r]",
        "foo", "pi", "r\x00", "\uff52+1"])
    def test_refused(self, bad):
        with pytest.raises(ExprError):
            parse(bad)

    @pytest.mark.parametrize("deep", [
        "+".join(["r"] * 2000), "(" * 300 + "r" + ")" * 300,
        "-" * 3000 + "r", "^".join(["r"] * 3000)],
        ids=["sum", "parentheses", "signs", "powers"])
    def test_too_deep_is_expr_error(self, deep):
        with pytest.raises(ExprError):
            Expression(deep)(0.5)

    def test_deep_derivative_is_expr_error(self):
        e = Expression("*".join(["r"] * 600))
        with pytest.raises(ExprError):
            e.derivative()(0.5)


_PIECES = ["r", "1", "0", "7", ".", "e", "E", "_", "x", "j", "+", "-", "*",
           "/", "^", "(", ")", " ", "\n", "\t", ",", "exp", "log", "sqrt",
           "None", "True", "...", "//", "@", "not ", "<", "'", '"', "\\",
           "lambda", ":", "=", "[", "]", "{", "}", "if", "os", "__", "\u0661",
           "\xa0", "\x00", "#", "!", ";"]


@settings(max_examples=400)
@given(st.lists(st.sampled_from(_PIECES), max_size=14).map("".join))
def test_any_string_parses_or_raises_expr_error(text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            parse(text)
        except ExprError:
            pass
    assert caught == []
