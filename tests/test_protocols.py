import math

import mpmath
import pytest

from coldscatter import protocols as pr


def schmidt_coefficient(n_bar, m, n):
    """Schmidt coefficient Lambda_mn = (-1)^n nbar^{(m+n)/2} /
    (1 + nbar)^{(m+n)/2 + 1} of the anti-correlated two-mode state, in
    log space so that large m + n does not underflow prematurely."""
    sign = -1.0 if n % 2 else 1.0
    if n_bar == 0:
        return sign if m == 0 and n == 0 else 0.0
    k = 0.5 * (m + n)
    return sign * math.exp(k * math.log(n_bar) - (k + 1.0) * math.log1p(n_bar))


def test_vacuum_state():
    assert schmidt_coefficient(0.0, 0, 0) == 1.0
    assert schmidt_coefficient(0.0, 1, 0) == 0.0
    assert schmidt_coefficient(0.0, 0, 3) == 0.0
    assert pr.PsiMinusState(0.0, 5).norm_squared() == 1.0


def test_sign_alternates_with_n():
    for n in range(6):
        a = schmidt_coefficient(0.7, 2, n)
        b = schmidt_coefficient(0.7, 2, n + 1)
        assert a * b < 0


def test_magnitude_depends_on_m_plus_n_only():
    for s in range(0, 9):
        vals = {abs(schmidt_coefficient(1.3, m, s - m))
                for m in range(s + 1)}
        assert max(vals) - min(vals) < 1e-15


def test_log_space_no_underflow_surprises():
    # direct power form underflows around m+n ~ 1500 for small n_bar;
    # the log form stays finite and positive much further out
    v = schmidt_coefficient(0.5, 1000, 1000)
    expect = math.exp(1000 * math.log(0.5) - 1001 * math.log(1.5))
    assert v == pytest.approx(expect, rel=1e-12)


def test_norm_matches_brute_force():
    for n_bar, n_max in ((0.3, 20), (1.0, 40), (4.0, 120)):
        state = pr.PsiMinusState(n_bar, n_max)
        brute = sum(schmidt_coefficient(n_bar, m, n) ** 2
                    for m in range(n_max + 1) for n in range(n_max + 1))
        assert state.norm_squared() == pytest.approx(brute, rel=1e-12)


def test_norm_converges_to_one_with_tail_bound():
    for n_bar in (0.1, 1.0, 10.0):
        state = pr.PsiMinusState.with_norm_tolerance(n_bar, tol=1e-9)
        norm = state.norm_squared()
        assert abs(1.0 - norm) <= state.truncation_error_bound()
        assert abs(1.0 - norm) < 1e-9


def test_norm_tolerance_truncation_is_smallest():
    for n_bar in (0.1, 1.0, 3.0, 10.0):
        for tol in (1e-6, 1e-9, 1e-12):
            n_max = pr.PsiMinusState.with_norm_tolerance(n_bar, tol).n_max
            assert pr.PsiMinusState(n_bar, n_max).truncation_error_bound() \
                <= tol < pr.PsiMinusState(n_bar, n_max - 1) \
                .truncation_error_bound()
    assert pr.PsiMinusState.with_norm_tolerance(0.0, 1e-9).n_max == 0


def test_tail_bound_is_a_bound_on_a_grid():
    for n_bar in (0.2, 1.0, 5.0):
        for n_max in (2, 5, 10, 30, 80):
            state = pr.PsiMinusState(n_bar, n_max)
            assert 1.0 - state.norm_squared() <= \
                state.truncation_error_bound() + 1e-15


def test_truncated_norm_monotone_below_one():
    norms = [pr.PsiMinusState(2.0, n).norm_squared() for n in (1, 5, 20, 80)]
    assert all(b > a for a, b in zip(norms, norms[1:]))
    assert all(v <= 1.0 + 1e-15 for v in norms)


def test_state_validation():
    with pytest.raises(ValueError):
        pr.PsiMinusState(-0.1, 5)
    with pytest.raises(ValueError):
        pr.PsiMinusState(1.0, -1)
    # NaN fails every comparison, and inf would give a norm of 0
    for n_bar in (math.nan, math.inf):
        with pytest.raises(ValueError, match="mean photon number"):
            pr.PsiMinusState(n_bar, 3)


def _mp_bound_and_norm(n_bar, n_max):
    """The tail bound q^(N+1) (1 + (N+1) / (1 + nbar)), the norm
    (1 - q^(N+1))^2 and its deficit from 1, with q = nbar / (1 + nbar),
    at 60 digits."""
    with mpmath.workdps(60):
        q = mpmath.mpf(n_bar) / (1 + mpmath.mpf(n_bar))
        power = q ** (n_max + 1)
        norm = (1 - power) ** 2
        return (power * (1 + (n_max + 1) / (1 + mpmath.mpf(n_bar))),
                norm, 1 - norm)


@pytest.mark.parametrize("n_bar", [0.5, 2.0, 1e3, 1e8, 1e15, 5.94e15, 1e16,
                                   1e17])
def test_truncation_matches_mpmath_where_q_rounds(n_bar):
    # q = nbar / (1 + nbar) loses its digits as nbar grows (at 1e15 the
    # truncation for 1e-9 had a true bound of 1.017e-9) and is 1 from
    # nbar ~ 9e15 on
    for tol in (1e-6, 1e-9, 1e-12):
        state = pr.PsiMinusState.with_norm_tolerance(n_bar, tol)
        bound, norm, deficit = _mp_bound_and_norm(n_bar, state.n_max)
        assert bound <= tol
        assert state.truncation_error_bound() == pytest.approx(
            float(bound), rel=1e-13)
        assert abs(state.norm_squared() - norm) <= 4e-16
        # the deficit keeps its digits, which 1 - norm_squared() loses
        assert state.norm_deficit() == pytest.approx(float(deficit),
                                                     rel=1e-13)
        # and none much smaller will do
        assert _mp_bound_and_norm(n_bar, state.n_max - 1)[0] > \
            tol * (1 - 1e-13)


def test_no_truncation_is_a_value_error_naming_the_photon_number():
    with pytest.raises(ValueError, match="mean photon number 1e\\+300"):
        pr.PsiMinusState.with_norm_tolerance(1e300, 1e-9)
