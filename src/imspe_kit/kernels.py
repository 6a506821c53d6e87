"""Correlation families for kriging on the cube [-1, 1]^d.

Four stationary, separable (per-dimension product) correlation functions are
supported: the exponential (p=1), the two half-integer Matern forms
(nu=3/2 and nu=5/2), and the Gaussian (p=2).  All take one positive decay
hyperparameter per factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import ValidationError


class Family(str, Enum):
    """Correlation-function family tag."""

    EXP_P1 = "exp-p1"
    MATERN32 = "matern-3-2"
    MATERN52 = "matern-5-2"
    GAUSS_P2 = "gauss-p2"


#: CLI / file-format names -> family
FAMILY_NAMES = {f.value: f for f in Family}


@dataclass(frozen=True)
class Kernel:
    """A correlation family plus its per-factor hyperparameter vector.

    ``theta[k]`` multiplies the squared (or absolute) coordinate distance in
    factor k.  Every entry must be strictly positive and finite.
    """

    family: Family
    theta: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.family, Family):
            raise ValidationError(f"unknown family: {self.family!r}")
        theta = tuple(float(t) for t in self.theta)
        if len(theta) < 1:
            raise ValidationError("theta must have at least one entry")
        for k, t in enumerate(theta):
            if not math.isfinite(t) or t <= 0.0:
                raise ValidationError(f"theta[{k}] = {t} must be positive and finite")
        object.__setattr__(self, "theta", theta)

    @property
    def d(self) -> int:
        return len(self.theta)


def check_point(coords: Sequence[float], d: int, lo: float = -1.0, hi: float = 1.0):
    """Validate a design point: dimension d, finite, inside [lo, hi]."""
    coords = tuple(float(c) for c in coords)
    if len(coords) != d:
        raise ValidationError(f"point has dimension {len(coords)}, expected {d}")
    for k, c in enumerate(coords):
        if not math.isfinite(c) or c < lo or c > hi:
            raise ValidationError(f"coordinate {k} = {c} outside [{lo}, {hi}]")
    return coords


def corr1(family: Family, theta: float, dx: float, xp=math) -> float:
    """One-dimensional correlation at coordinate difference ``dx``.

    The absolute value is taken before any square root so that the Matern
    forms are evaluated identically on both sides of dx = 0.  With
    ``xp=numpy`` the same formulas take arrays ``theta`` and ``dx``.  numpy's
    sqrt is correctly rounded, like ``math``'s; its exp may differ from
    ``math``'s in the last bit.
    """
    r = abs(dx)
    if family is Family.EXP_P1:
        return xp.exp(-theta * r)
    if family is Family.MATERN32:
        t = xp.sqrt(3.0 * theta) * r
        return (1.0 + t) * xp.exp(-t)
    if family is Family.MATERN52:
        t = xp.sqrt(5.0 * theta) * r
        k = (1.0 + t + t * t / 3.0) * xp.exp(-t)
        # near t = 2e-8 the product rounds one ulp above 1; the scalar value is
        # capped, the arrays of the quadrature integrands are left as computed
        return min(k, 1.0) if xp is math else k
    if family is Family.GAUSS_P2:
        return xp.exp(-theta * r * r)
    raise ValidationError(f"unknown family: {family!r}")


def corr_pair(kernel: Kernel, xi: Sequence[float], xj: Sequence[float]) -> float:
    """Correlation between two design points (a V-matrix entry).

    Returns exactly 1.0 for coincident points so the unit diagonal of the
    bordered matrix is bit-exact.
    """
    xi = check_point(xi, kernel.d)
    xj = check_point(xj, kernel.d)
    if xi == xj:
        return 1.0
    out = 1.0
    for t, a, b in zip(kernel.theta, xi, xj):
        out *= corr1(kernel.family, t, a - b)
    return out


def corr_point(kernel: Kernel, xi: Sequence[float], x: Sequence[float]) -> float:
    """Correlation between design point ``xi`` and a free coordinate ``x``.

    ``x`` is an integration variable and may lie outside the design cube,
    but must be finite.
    """
    xi = check_point(xi, kernel.d)
    x = tuple(float(c) for c in x)
    if len(x) != kernel.d:
        raise ValidationError(f"free point has dimension {len(x)}, expected {kernel.d}")
    for k, c in enumerate(x):
        if not math.isfinite(c):
            raise ValidationError(f"free coordinate {k} is not finite")
    if x == xi:
        return 1.0
    out = 1.0
    for t, a, b in zip(kernel.theta, xi, x):
        out *= corr1(kernel.family, t, a - b)
    return out
