"""Error budgets and the tolerance-regime classifier.

An estimate of a Poisson mean is considered acceptable when it lands within
an absolute tolerance ``epsilon_a`` OR a relative tolerance ``epsilon_r`` of
the truth; ``delta`` is the total probability allowed for missing both.
Which tolerance is the binding one depends on where the true mean sits
relative to the boundaries ``epsilon_a`` and ``epsilon_a / epsilon_r``,
giving four regimes (labelled I-IV below).  One exact rule, relative_binds,
decides between the last two, for the labels and the exact windows alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import check_positive_real, check_unit_interval


@dataclass(frozen=True)
class ErrorBudget:
    """The (epsilon_a, epsilon_r, delta) triple specifying the guarantee.

    epsilon_a: absolute tolerance, finite and > 0.
    epsilon_r: relative tolerance, in (0, 1).
    delta:     allowed failure probability, in (0, 1).
    """

    epsilon_a: float
    epsilon_r: float
    delta: float

    def __post_init__(self):
        check_positive_real(self.epsilon_a, "epsilon_a")
        check_unit_interval(self.epsilon_r, "epsilon_r")
        check_unit_interval(self.delta, "delta")

    @property
    def rel_boundary(self) -> float:
        """The mean at which the relative tolerance overtakes the absolute one, rounded."""
        return self.epsilon_a / self.epsilon_r


class CaseLabel(str, Enum):
    """Regime of a true mean ``lam`` relative to the tolerance boundaries.

    I:   lam < epsilon_a            (absolute window swallows 0)
    II:  lam = epsilon_a            (absolute window touches 0)
    III: epsilon_a < lam <= epsilon_a/epsilon_r   (absolute tolerance binds)
    IV:  lam > epsilon_a/epsilon_r  (relative tolerance binds)
    """

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"

    def __str__(self) -> str:
        return self.value


def relative_binds(lam: float, budget: ErrorBudget) -> bool:
    """Whether epsilon_r*lam > epsilon_a, exactly, for a finite lam > 0.

    The rounded product decides unless it equals epsilon_a (rounding is
    monotone); then the integer ratios of the doubles do.
    """
    product = budget.epsilon_r * lam
    if product != budget.epsilon_a:
        return product > budget.epsilon_a
    a, b = lam.as_integer_ratio()
    c, d = budget.epsilon_a.as_integer_ratio()
    e, f = budget.epsilon_r.as_integer_ratio()
    return e * a * d > c * f * b


def case_of(lam: float, budget: ErrorBudget) -> CaseLabel:
    """Classify ``lam`` into one of the four tolerance regimes.

    Case IV is relative_binds, the rule for the window's half-width, so the
    exact boundary epsilon_r*lam == epsilon_a belongs to case III.
    """
    check_positive_real(lam, "lam")
    return _case(lam, budget, relative_binds(lam, budget))


def _case(lam: float, budget: ErrorBudget, relative: bool) -> CaseLabel:
    """The regime of ``lam`` given relative = relative_binds(lam, budget).

    relative_binds implies lam > epsilon_a (epsilon_r < 1), so cases I and II
    need only the comparison with epsilon_a.
    """
    if relative:
        return CaseLabel.IV
    if lam < budget.epsilon_a:
        return CaseLabel.I
    return CaseLabel.II if lam == budget.epsilon_a else CaseLabel.III
