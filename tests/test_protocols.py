import math

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


def test_mz_signal():
    assert pr.mz_signal(3.0, 0.01, 0) == 0.0
    assert pr.mz_signal(3.0, 0.01, 100) == pytest.approx(3.0)
    assert pr.mz_signal(1.5, 0.02, 40) == \
        pytest.approx(2 * pr.mz_signal(1.5, 0.02, 20))
    with pytest.raises(ValueError):
        pr.mz_signal(1.0, -0.1, 10)
