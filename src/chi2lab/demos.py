"""Executable discontinuity counterexamples.

Two families witness that the divergence is discontinuous at singular
second arguments: mixing a vanishing multiple of the identity into a
projection blows the first argument up to infinity, and an explicit
2x2 family B_n -> P keeps the divergence against P growing like n^2
even though the arguments converge in norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import Alpha, chi2, chi2_extended, chi2_limit_probe
from .linalg import hermitian_part, op_norm
from .operators import PdOperator, PsdOperator, support_contained

__all__ = [
    "FirstVariableRow",
    "SecondVariableRow",
    "SECOND_VARIABLE_NOTE",
    "demo_first_variable_discontinuity",
    "demo_second_variable_discontinuity",
]

SECOND_VARIABLE_NOTE = (
    "B_n converges to P in operator norm while the divergence of P against "
    "B_n grows without bound, so the map B -> K_0(A||B) is not continuous "
    "on the positive semidefinite cone.  This contradicts the second-variable "
    "continuity of f-divergences asserted by Proposition 2.12 of Hiai, "
    "Mosonyi, Petz and Beny, Rev. Math. Phys. 23 (2011) 691-747."
)


@dataclass(frozen=True)
class FirstVariableRow:
    n: int
    support_contained: bool
    extended_value: str
    probe_value: float
    limit_point_value: float


@dataclass(frozen=True)
class SecondVariableRow:
    n: int
    numeric: float
    closed_form: float
    relative_error: float
    distance_to_limit: float

    @property
    def ok(self) -> bool:
        return self.relative_error <= 1e-6


def demo_first_variable_discontinuity(alpha: float, n_max: int) -> list[FirstVariableRow]:
    """Rows for A_n = P + (1/n) I against the rank-one projection P.

    Every A_n has full support while P does not, so the extended
    divergence is infinite for all n although A_n -> P and the
    divergence of P against itself is zero.  The probe column reports
    the divergence against P + eps*I at eps = 1e-7, which grows like
    1/(n^2 eps).
    """
    alpha = Alpha(alpha)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    d = 2
    pmat = np.diag([1.0, 0.0]).astype(complex)
    p = PsdOperator(pmat)
    limit_value = chi2_extended(p, p, alpha).value
    schedule = (1e-2, 1e-4, 1e-7)
    rows = []
    for n in range(1, n_max + 1):
        a_n = PsdOperator(pmat + (1.0 / n) * np.eye(d))
        contained = support_contained(a_n, p)
        verdict = str(chi2_extended(a_n, p, alpha))
        probes = chi2_limit_probe(a_n, p, alpha, schedule)
        rows.append(
            FirstVariableRow(n, contained, verdict, probes[-1], limit_value)
        )
    return rows


def demo_second_variable_discontinuity(n_max: int) -> list[SecondVariableRow]:
    """Rows for the family B_n with square root [[1, 1/n], [1/n, 2/n^2]].

    Checks the computed divergence of P = diag(1, 0) against B_n at
    order zero versus the closed form 4 + n^2 - 2 + (1 + 2/n^2 + 4/n^4),
    and reports how close B_n already is to its limit P.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    pmat = np.diag([1.0, 0.0]).astype(complex)
    p = PsdOperator(pmat)
    rows = []
    for n in range(1, n_max + 1):
        root = np.array([[1.0, 1.0 / n], [1.0 / n, 2.0 / n**2]])
        b = PdOperator(hermitian_part(root @ root))
        numeric = chi2(p, b, 0.0)
        closed = 4.0 + n**2 - 2.0 + (1.0 + 2.0 / n**2 + 4.0 / n**4)
        rel = abs(numeric - closed) / closed
        rows.append(
            SecondVariableRow(n, numeric, closed, rel, op_norm(b.mat - pmat))
        )
    return rows
