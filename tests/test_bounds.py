import random
from fractions import Fraction
from math import comb, isclose, log

import pytest

from setpack import (
    bound_report,
    entropy,
    finite_n_upper_bound,
    lower_bound_T,
    optimal_c,
    upper_bound_entropy,
    upper_bound_small_c,
)
from setpack.bounds import _t_log_derivative


def test_entropy_values():
    assert isclose(entropy(0.5), log(2), rel_tol=1e-12)
    assert isclose(entropy(2 / 3), 0.6365141682948128, rel_tol=1e-12)
    assert entropy(0.0) == 0.0 and entropy(1.0) == 0.0
    with pytest.raises(ValueError):
        entropy(1.5)


def test_entropy_symmetric():
    rng = random.Random(20)
    for _ in range(100):
        x = rng.random()
        assert isclose(entropy(x), entropy(1 - x), rel_tol=1e-12)


def test_entropy_matches_binomial_growth():
    # ln C(3n, 2n) / (3n) -> I(2/3)
    n = 4000
    approx = log(comb(3 * n, 2 * n)) / (3 * n)
    assert abs(approx - entropy(2 / 3)) < 1e-3


def test_lower_bound_boundaries():
    # at c = alpha the bound degenerates to base 1, likewise as c -> 0
    for alpha in (0.1, 0.25, 1 / 3, 0.5):
        log_pn, base = lower_bound_T(alpha, alpha)
        assert abs(log_pn) < 1e-12 and isclose(base, 1.0)
        log_pn, _ = lower_bound_T(1e-9, alpha)
        assert abs(log_pn) < 1e-6
    with pytest.raises(ValueError):
        lower_bound_T(0.5, 1 / 3)  # hypothesis needs alpha > c
    with pytest.raises(ValueError):
        lower_bound_T(0.0, 1 / 3)


def test_lower_bound_base_at_optimum():
    c = optimal_c(1 / 3)
    _, base = lower_bound_T(c, 1 / 3)
    assert abs(base - 1.0245) < 5e-4


def test_optimal_c_is_a_critical_point():
    for alpha in (0.1, 0.25, 1 / 3, 0.5):
        c = optimal_c(alpha)
        assert 0 < c < alpha
        assert abs(_t_log_derivative(c, alpha)) < 1e-9


def test_optimal_c_is_grid_maximal():
    for alpha in (0.2, 1 / 3, 0.6):
        c_star = optimal_c(alpha)
        best, _ = lower_bound_T(c_star, alpha)
        for i in range(1, 200):
            c = alpha * i / 200
            log_pn, _ = lower_bound_T(c, alpha)
            assert log_pn <= best + 1e-12


def test_optimal_c_bracketing():
    for alpha in (0.1, 1 / 3, 0.5, 0.9):
        eps = alpha * 1e-7
        assert _t_log_derivative(eps, alpha) > 0
        assert _t_log_derivative(alpha - eps, alpha) < 0


def test_upper_bound_small_c():
    assert upper_bound_small_c(1.0, 0.0) == 1.0
    assert upper_bound_small_c(0.5, 0.25) == 3.0
    with pytest.raises(ValueError):
        upper_bound_small_c(0.25, 0.5)
    # strictly decreasing in c
    prev = float("inf")
    for i in range(1, 50):
        c = 1 / 3 + i * (1 - 1 / 3) / 50
        value = upper_bound_small_c(c, 1 / 3)
        assert value < prev
        prev = value


def test_small_c_bound_respected_by_explicit_packings():
    # disjointness at alpha*cn = 1 means at most floor(8/4) = 2 <= 3 blocks
    from setpack import greedy_independent_set

    fam = greedy_independent_set(8, 4, Fraction(1, 4))
    assert len(fam.blocks) <= upper_bound_small_c(1 / 2, 1 / 4)


def test_entropy_upper_bound_reference_points():
    ub = upper_bound_entropy(0.0825, 1 / 3)
    assert abs(ub.base - 1.0655) < 5e-4
    assert abs(ub.d_prime - 0.94005) < 1e-4
    assert ub.d_prime_label == "(1-2c+c*alpha)/(1-c)"
    assert ub.asymptotic

    ub = upper_bound_entropy(0.1476, 1 / 3)
    assert abs(ub.base - 1.0766) < 5e-4


def test_entropy_upper_bound_domain():
    with pytest.raises(ValueError):
        upper_bound_entropy(0.5, 1 / 3)
    with pytest.raises(ValueError):
        upper_bound_entropy(0.2, 1.0)


def test_lower_never_exceeds_upper_on_grid():
    alpha = 1 / 3
    for i in range(50):
        c = 0.01 + i * (0.33 - 0.01) / 49
        log_lower, _ = lower_bound_T(c, alpha)
        ub = upper_bound_entropy(c, alpha)
        assert log_lower <= ub.log_per_n + 1e-9, c


def test_convexity_of_endpoint_function():
    # g(x) = -ln(x)/(1-x) - ln(1-x)/x is midpoint convex on (0, 1)
    def g(x):
        return -log(x) / (1 - x) - log(1 - x) / x

    xs = [i / 200 for i in range(1, 200)]
    for a, b in zip(xs, xs[2:]):
        mid = (a + b) / 2
        assert g(mid) <= (g(a) + g(b)) / 2 + 1e-12


def test_finite_n_bound_exact():
    # binomial identity instance: C(10,3) C(7,2) == C(10,5) C(5,3) == 2520
    assert comb(10, 3) * comb(7, 2) == comb(10, 5) * comb(5, 3) == 2520

    # d=0, e=n reduces to C(n, cn) * ceil(N(c, alpha)) / C(n, (1-c)n)
    value = finite_n_upper_bound(10, 4, Fraction(1, 4), 0, 10)
    n_cap = (1 - Fraction(1, 4)) / (Fraction(4, 10) - Fraction(1, 4))
    from math import ceil

    assert value == Fraction(comb(10, 4) * ceil(n_cap), comb(10, 6))
    assert isinstance(value, Fraction)


def test_finite_n_bound_dominates_real_packings():
    from setpack import construct_packing

    fam = construct_packing(28, Fraction(1, 2))
    # any valid choice of (d, e) bounds the true packing size from above;
    # en = 7 keeps the reduced parameters inside the c > alpha regime
    value = finite_n_upper_bound(28, 4, Fraction(1, 2), 0, 7)
    assert value >= len(fam.blocks)


def test_finite_n_bound_validation():
    with pytest.raises(ValueError):
        finite_n_upper_bound(10, 3, Fraction(1, 3), 0, 10)  # hypothesis fails
    with pytest.raises(ValueError):
        finite_n_upper_bound(10, 3, Fraction(1, 3), 2, 10)  # d > alpha*c*n
    with pytest.raises(ValueError):
        finite_n_upper_bound(10, 3, Fraction(1, 3), 0.5, 10)  # non-integer dn

    # beyond the big-integer limit both public entry points validate the same way
    from setpack.bounds import finite_n_upper_bound_log

    for args in (
        (20000, 3000, Fraction(1, 3), 1500, 9000),  # d > alpha*c
        (20000, 500, Fraction(1, 3), 500, 500),  # en == dn
        (20000, 3000.5, Fraction(1, 3), 500, 9000),  # non-integer cn
    ):
        for f in (finite_n_upper_bound, finite_n_upper_bound_log):
            with pytest.raises(ValueError):
                f(*args)


def test_finite_n_bound_lgamma_path():
    from math import ceil

    from setpack.bounds import _log_comb

    # the log-gamma route must agree with exact big integers to < 1e-9 in log
    n, cn, d, e = 2000, 300, 50, 900
    exact = finite_n_upper_bound(n, cn, Fraction(1, 3), d, e)
    assert isinstance(exact, Fraction)
    cap = ceil(
        (1 - Fraction(cn - 3 * d, 3 * (cn - d))) /
        (Fraction(cn - d, e - d) - Fraction(cn - 3 * d, 3 * (cn - d)))
    )
    via_lgamma = _log_comb(n, cn) + log(cap) - _log_comb(e - d, e - cn)
    assert isclose(via_lgamma, log(float(exact)), rel_tol=0, abs_tol=1e-9)

    # beyond the big-integer limit the public function switches to floats,
    # with a log-space companion for bounds past the float range
    from setpack.bounds import finite_n_upper_bound_log

    with pytest.raises(OverflowError):
        finite_n_upper_bound(20000, 3000, Fraction(1, 3), 500, 9000)
    big_log = finite_n_upper_bound_log(20000, 3000, Fraction(1, 3), 500, 9000)
    assert big_log > 700.0
    small = finite_n_upper_bound(12000, 240, Fraction(1, 100), 0, 11990)
    assert isinstance(small, float) and small > 0
    assert isclose(
        finite_n_upper_bound_log(12000, 240, Fraction(1, 100), 0, 11990),
        log(small),
        abs_tol=1e-9,
    )


def test_bound_report_regimes():
    report = bound_report(1 / 3, 0.0825)
    assert report.base_lower is not None and report.base_upper is not None
    assert report.ub_small_c is None
    assert report.base_lower <= report.base_upper

    report = bound_report(1 / 3, 0.5)
    assert report.ub_small_c == pytest.approx(4.0)
    assert report.base_lower is None

    report = bound_report(1 / 3)
    assert report.c == report.c_star


def test_bounds_deterministic():
    a = bound_report(1 / 3, 0.2)
    b = bound_report(1 / 3, 0.2)
    assert a == b
    assert optimal_c(1 / 3) == optimal_c(1 / 3)


def test_report_self_checks_raise(monkeypatch):
    from setpack import bounds

    monkeypatch.setattr(bounds, "lower_bound_T", lambda c, alpha: (1.0, 0.5))
    with pytest.raises(RuntimeError, match="below 1"):
        bound_report(1 / 3)
    monkeypatch.setattr(bounds, "lower_bound_T", lambda c, alpha: (10.0, 2.0))
    with pytest.raises(RuntimeError, match="exceeded the upper bound"):
        bound_report(1 / 3)
