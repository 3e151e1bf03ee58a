"""Protocol-level utilities: anti-correlated two-mode light state and
balanced interferometric detection.

The two-beam state with perfectly anti-correlated photon numbers in
orthogonal polarization modes has Schmidt coefficients

    Lambda_mn = (-1)^n nbar^{(m+n)/2} / (1 + nbar)^{(m+n)/2 + 1}

for mean photon number nbar per mode.  The balanced Mach-Zehnder signal
is linear in the atom-induced phase shift, i_minus = i_mean * xi * n.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

__all__ = ["PsiMinusState", "mz_signal"]


@dataclass(frozen=True)
class PsiMinusState:
    """Truncated two-mode state with anti-correlated polarizations."""
    n_bar: float
    n_max: int

    def __post_init__(self):
        if self.n_bar < 0:
            raise ValueError("mean photon number must be >= 0")
        if self.n_max < 0:
            raise ValueError("truncation must be >= 0")

    def norm_squared(self) -> float:
        """Sum of Lambda_mn^2 over the retained modes.

        Lambda_mn^2 = q^(m+n) / (1 + nbar)^2 with q = nbar / (1 + nbar), so
        the double sum is a squared geometric sum, (1 - q^(N+1))^2.
        """
        q = self.n_bar / (1.0 + self.n_bar)
        return (1.0 - q ** (self.n_max + 1)) ** 2

    def truncation_error_bound(self) -> float:
        """Geometric tail bound on 1 - norm_squared().

        Every dropped term has s = m + n > n_max with multiplicity at most
        s + 1, and sum_{s>N} (s+1) q^s is available in closed form.
        """
        if self.n_bar == 0:
            return 0.0
        q = self.n_bar / (1.0 + self.n_bar)
        N = self.n_max
        tail = q ** (N + 1) * ((N + 2) - (N + 1) * q) / (1.0 - q) ** 2
        return tail / (1.0 + self.n_bar) ** 2

    @classmethod
    def with_norm_tolerance(cls, n_bar: float, tol: float = 1e-9
                            ) -> "PsiMinusState":
        """Smallest truncation whose geometric tail bound is below tol.

        The bound strictly decreases with n_max, so double to an upper
        bracket and then bisect.
        """
        def ok(n_max):
            return cls(n_bar, n_max).truncation_error_bound() <= tol

        hi = 1
        while not ok(hi):
            hi *= 2
        return cls(n_bar, bisect_left(range(hi), True, key=ok))


def mz_signal(i_mean: float, xi: float, n_atoms: float) -> float:
    """Balanced Mach-Zehnder difference signal i_minus = i_mean * xi * n.

    The atom-number-induced phase shift is delta_phi = xi * n_atoms with
    the proportionality constant taken as 1; xi bundles the geometric
    factors (sample size, aperture) and is a free input.
    """
    if xi < 0:
        raise ValueError("phase shift per atom must be >= 0")
    if n_atoms < 0:
        raise ValueError("atom number must be >= 0")
    return i_mean * xi * n_atoms
