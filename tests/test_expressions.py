"""Coefficient expression grammar: semantics and error reporting."""

import numpy as np
import pytest

from nsbf.errors import ExpressionError
from nsbf.expressions import parse_expression


def ev(text, y):
    return parse_expression(text)(np.asarray(y, dtype=np.float64))


def test_arithmetic_and_precedence():
    y = np.linspace(-2.0, 3.0, 11)
    np.testing.assert_allclose(ev("2*y + 1", y), 2 * y + 1)
    np.testing.assert_allclose(ev("1 + 2*3", y), np.full_like(y, 7.0))
    np.testing.assert_allclose(ev("(1 + 2)*3", y), np.full_like(y, 9.0))
    np.testing.assert_allclose(ev("y - 2 - 1", y), y - 3.0)  # left-assoc
    np.testing.assert_allclose(ev("12/4/3", y), np.full_like(y, 1.0))
    np.testing.assert_array_equal(ev("+y", y), y)  # unary plus
    np.testing.assert_array_equal(ev("-+y", y), -y)


def test_power_right_associative_and_tight():
    y = np.linspace(0.5, 2.0, 7)
    np.testing.assert_allclose(ev("2^3^2", y), np.full_like(y, 512.0))
    # ^ binds tighter than unary minus
    np.testing.assert_allclose(ev("-y^2", y), -(y**2))
    np.testing.assert_allclose(ev("(-y)^2", y), y**2)
    # exponent may itself carry unary minus
    np.testing.assert_allclose(ev("y^-2", y), y**-2.0)
    np.testing.assert_array_equal(ev("y^+2", y), y**2.0)


def test_functions():
    y = np.linspace(0.1, 2.0, 9)
    np.testing.assert_allclose(ev("exp(-2*y)", y), np.exp(-2 * y))
    np.testing.assert_allclose(ev("log(y)", y), np.log(y))
    np.testing.assert_allclose(
        ev("sin(y)^2 + cos(y)^2", y), np.ones_like(y), rtol=1e-15
    )
    np.testing.assert_allclose(ev("sqrt(y^2 + 1)", y), np.hypot(y, 1.0))


def test_numeric_literals():
    y = np.zeros(3)
    np.testing.assert_allclose(ev("1.5e2", y), np.full_like(y, 150.0))
    np.testing.assert_allclose(ev(".25", y), np.full_like(y, 0.25))
    np.testing.assert_allclose(ev("2.", y), np.full_like(y, 2.0))
    np.testing.assert_allclose(ev("3E-1", y), np.full_like(y, 0.3))


def test_constant_expression_broadcasts():
    y = np.linspace(0.0, 1.0, 5)
    out = ev("42", y)
    assert out.shape == y.shape
    np.testing.assert_array_equal(out, 42.0)


def test_scalar_argument():
    f = parse_expression("y^2 + 1")
    assert f(2.0) == pytest.approx(5.0)


def test_whitespace_tolerated():
    y = np.linspace(0.0, 1.0, 5)
    np.testing.assert_allclose(ev("  ( y +\t1 ) * 2 ", y), 2 * (y + 1))


def err_column(text):
    with pytest.raises(ExpressionError) as info:
        parse_expression(text)
    return info.value.column


def test_error_columns():
    assert err_column("") == 1
    assert err_column("   ") == 1
    assert err_column("2*") == 3  # operand missing at end
    assert err_column("1 + (2*y") == 9  # unclosed parenthesis
    assert err_column("y @ 2") == 3  # illegal character
    assert err_column("tan(y)") == 1  # unknown function starts at column 1
    assert err_column("2 + tan(y)") == 5
    assert err_column("exp y") == 5  # function call needs parentheses
    assert err_column("1 2") == 3  # trailing garbage
    assert err_column("(y+1))") == 6
    assert err_column("*y") == 1  # operator where an operand belongs
    assert err_column("y + * 2") == 5


def test_unknown_function_message_lists_alternatives():
    with pytest.raises(ExpressionError, match="sqrt"):
        parse_expression("sinh(y)")


def test_variable_must_be_y():
    with pytest.raises(ExpressionError):
        parse_expression("x + 1")


def test_error_str_carries_column_suffix():
    with pytest.raises(ExpressionError) as info:
        parse_expression("2*")
    assert "(column 3)" in str(info.value)
    with pytest.raises(ExpressionError, match=r"unexpected '\*' \(column 1\)"):
        parse_expression("*y")


def test_expression_repr_keeps_text():
    f = parse_expression("exp(-2*y)")
    assert "exp(-2*y)" in repr(f) or f.text == "exp(-2*y)"
