import dataclasses
import math

import pytest

from chi2lab import DEFAULT_TOL, Tolerances

FLOAT_FIELDS = [f.name for f in dataclasses.fields(Tolerances)]


def test_tolerances_are_the_six_membership_thresholds():
    assert FLOAT_FIELDS == ["psd", "pd", "support", "cluster", "hermitian", "trace_one"]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-12])
def test_float_tolerance_must_be_finite_and_nonnegative(name, value):
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(DEFAULT_TOL, **{name: value})


def test_zero_is_a_valid_tolerance():
    zero = Tolerances(**{name: 0.0 for name in FLOAT_FIELDS})
    assert all(getattr(zero, name) == 0.0 for name in FLOAT_FIELDS)
