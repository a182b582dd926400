import dataclasses
import math

import pytest

from chi2lab import DEFAULT_TOL, Tolerances

FLOAT_FIELDS = [f.name for f in dataclasses.fields(Tolerances) if f.name != "jacobi_sweeps"]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-12])
def test_float_tolerance_must_be_finite_and_nonnegative(name, value):
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(DEFAULT_TOL, **{name: value})


@pytest.mark.parametrize("value", [-1, 2.7, 3.0, "3"])
def test_sweep_cap_must_be_a_nonnegative_integer(value):
    with pytest.raises(ValueError, match="jacobi_sweeps"):
        Tolerances(jacobi_sweeps=value)


def test_zero_is_a_valid_tolerance():
    zero = Tolerances(**{name: 0.0 for name in FLOAT_FIELDS}, jacobi_sweeps=0)
    assert zero.jacobi_sweeps == 0 and zero.psd == 0.0
