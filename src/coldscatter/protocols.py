"""Protocol-level utility: the anti-correlated two-mode light state.

The two-beam state with perfectly anti-correlated photon numbers in
orthogonal polarization modes has Schmidt coefficients

    Lambda_mn = (-1)^n nbar^{(m+n)/2} / (1 + nbar)^{(m+n)/2 + 1}

for mean photon number nbar per mode.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

__all__ = ["PsiMinusState"]


@dataclass(frozen=True)
class PsiMinusState:
    """Truncated two-mode state with anti-correlated polarizations."""
    n_bar: float
    n_max: int

    def __post_init__(self):
        if not 0.0 <= self.n_bar < math.inf:  # NaN fails it
            raise ValueError("mean photon number must be >= 0 and finite")
        if self.n_max < 0:
            raise ValueError("truncation must be >= 0")

    def _log_q_power(self) -> float:
        """ln q^(N+1) with q = nbar / (1 + nbar), from ln q =
        -log1p(1 / nbar): the quotient q loses its digits as nbar grows
        and rounds to 1 from nbar ~ 9e15."""
        if self.n_bar == 0:
            return -math.inf
        return (self.n_max + 1) * -math.log1p(1.0 / self.n_bar)

    def norm_squared(self) -> float:
        """Sum of Lambda_mn^2 over the retained modes.

        Lambda_mn^2 = q^(m+n) / (1 + nbar)^2 with q = nbar / (1 + nbar), so
        the double sum is a squared geometric sum, (1 - q^(N+1))^2.
        """
        return math.expm1(self._log_q_power()) ** 2

    def norm_deficit(self) -> float:
        """1 - norm_squared() = x (2 - x) with x = q^(N+1), formed without
        the subtraction from 1 that would keep only its leading digits."""
        x = math.exp(self._log_q_power())
        return x * (2.0 - x)

    def truncation_error_bound(self) -> float:
        """Geometric tail bound on 1 - norm_squared().

        Every dropped term has s = m + n > n_max with multiplicity at most
        s + 1, and sum_{s>N} (s+1) q^s / (1 + nbar)^2 = q^(N+1) (1 +
        (N+1) / (1 + nbar)), since (1 - q)(1 + nbar) = 1.  The float value
        is rounded up past its relative error, (5|ln q^(N+1)| + 6) u at
        most with u = eps / 2.
        """
        if self.n_bar == 0:
            return 0.0
        e = self._log_q_power()
        tail = math.exp(e) * (1.0 + (self.n_max + 1) / (1.0 + self.n_bar))
        return tail * (1.0 + 4 * sys.float_info.epsilon * (1.0 - e))

    @classmethod
    def with_norm_tolerance(cls, n_bar: float, tol: float = 1e-9
                            ) -> "PsiMinusState":
        """Smallest truncation whose geometric tail bound is below tol.

        The bound strictly decreases with n_max, so double to an upper
        bracket and then bisect.  ValueError if no n_max up to
        sys.maxsize will do.
        """
        def ok(n_max):
            return cls(n_bar, n_max).truncation_error_bound() <= tol

        hi = 1
        while not ok(hi):
            if hi == sys.maxsize:
                raise ValueError(
                    f"no truncation up to {sys.maxsize} keeps the tail bound "
                    f"of mean photon number {n_bar!r} below {tol!r}")
            hi = min(2 * hi, sys.maxsize)
        return cls(n_bar, bisect_left(range(hi), True, key=ok))
