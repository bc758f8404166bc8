"""The two error types, and the one number rule that every declared
number obeys."""

import importlib
import pkgutil

import pytest

import clustersmith
from clustersmith.errors import (ClusterError, ParseError, ValidationError,
                                 check_number)


def test_two_error_types():
    # every module loaded, so that a subclass declared anywhere is seen
    for info in pkgutil.iter_modules(clustersmith.__path__):
        importlib.import_module(f"clustersmith.{info.name}")
    assert set(ClusterError.__subclasses__()) == {ParseError, ValidationError}
    assert ParseError.__subclasses__() == []
    assert ValidationError.__subclasses__() == []


@pytest.mark.parametrize("value,positive,got", [
    (float("nan"), False, "nan"), (float("inf"), False, "inf"),
    (float("-inf"), True, "-inf"), (-1.0, False, "-1.0"), (-3, False, "-3"),
    (0.0, True, "0.0"), (0, True, "0"),
    (10 ** 400, False, "an integer too large for a float"),
    (-10 ** 400, True, "an integer too large for a float"),
])
def test_check_number_rejects(value, positive, got):
    rule = "> 0" if positive else ">= 0"
    with pytest.raises(ValidationError) as info:
        check_number("x", value, positive)
    assert str(info.value) == f"x must be finite and {rule}, got {got}"


@pytest.mark.parametrize("value", [0, 0.0, 5e-324, 1e-300, 1e308, 10 ** 308])
def test_check_number_accepts(value):
    check_number("x", value)
    if value:
        check_number("x", value, positive=True)
