"""Closed-form packing-size bounds, evaluated per element in log space.

All logarithms are natural: the exponential-base values these formulas
produce (e.g. 1.0245 for the counting lower bound at alpha = 1/3) only
come out right with ln.  Asymptotic o(1) corrections are never
materialized; bounds that carry one are flagged as asymptotic and report
the n -> infinity value.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, exp, lgamma, log
from typing import NamedTuple

BISECT_TOL = 1e-10
BISECT_MAX_ITER = 200
EXACT_BINOMIAL_LIMIT = 10_000


def _xlogx(x: float) -> float:
    return 0.0 if x == 0.0 else x * log(x)


def entropy(x: float) -> float:
    """Natural-log binary entropy -x ln x - (1-x) ln(1-x); 0 at the endpoints."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("entropy argument must lie in [0, 1]")
    return -_xlogx(x) - _xlogx(1.0 - x)


def lower_bound_T(c: float, alpha: float) -> tuple[float, float]:
    """Per-element log (and base) of the counting lower bound on packing size.

    ln T / n = alpha*c*ln(alpha/c) + 2(1-alpha)c*ln(1-alpha)
               + (1-2c+alpha*c)*ln(1-2c+alpha*c) - 2(1-c)*ln(1-c).

    Meaningful for 0 < c < alpha <= 1; the boundary c = alpha is accepted
    (the log is exactly 0 there).
    """
    c, alpha = float(c), float(alpha)
    if not 0 < alpha <= 1:
        raise ValueError("need 0 < alpha <= 1")
    if not 0 < c <= alpha:
        raise ValueError("bound requires 0 < c <= alpha (hypothesis: alpha > c)")
    rest = 1.0 - 2.0 * c + alpha * c
    if rest <= 0:
        raise ValueError("need 1 - 2c + alpha*c > 0")
    log_per_n = (
        alpha * c * log(alpha / c)
        + 2.0 * c * _xlogx(1.0 - alpha)
        + _xlogx(rest)
        - 2.0 * _xlogx(1.0 - c)
    )
    return log_per_n, exp(log_per_n)


def _t_log_derivative(c: float, alpha: float) -> float:
    """d/dc of ln T / n: ln of the optimality equation's ratio."""
    return (
        alpha * log(alpha / c)
        + 2.0 * _xlogx(1.0 - alpha)
        + (alpha - 2.0) * log(1.0 - 2.0 * c + alpha * c)
        + 2.0 * log(1.0 - c)
    )


def optimal_c(alpha: float) -> float:
    """The c in (0, alpha) maximizing the counting lower bound.

    That c is the root of the optimality equation

        alpha^alpha (1-alpha)^(2(1-alpha)) (1-c)^2 = c^alpha (1-2c+alpha*c)^(2-alpha).

    For alpha = 1/3 the root is 0.0822194, not the printed 0.082508, which
    does not solve the equation (the bound is flat there, 1.25e-7 below
    its maximum per element).

    Bisection on the derivative of ln T / n, after verifying a sign change
    on the bracket (the derivative is +inf-like at 0+ and negative just
    below alpha, where the bound returns to zero).
    """
    alpha = float(alpha)
    if not 0 < alpha < 1:
        raise ValueError("need 0 < alpha < 1")
    lo = min(1e-12, alpha * 1e-9)
    hi = alpha * (1.0 - 1e-6)
    f_lo = _t_log_derivative(lo, alpha)
    f_hi = _t_log_derivative(hi, alpha)
    shrink = 0
    while f_hi >= 0 and shrink < 60:
        hi = lo + (hi - lo) * 0.9
        f_hi = _t_log_derivative(hi, alpha)
        shrink += 1
    if f_lo <= 0 or f_hi >= 0:
        raise ValueError(f"no sign change bracketed for alpha={alpha}")
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if _t_log_derivative(mid, alpha) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < BISECT_TOL:
            break
    return 0.5 * (lo + hi)


def upper_bound_small_c(c: float, alpha: float) -> float:
    """(1 - alpha) / (c - alpha): the packing size cap when c > alpha."""
    c, alpha = float(c), float(alpha)
    if c <= alpha:
        raise ValueError("this bound requires c > alpha")
    return (1.0 - alpha) / (c - alpha)


class EntropyBound(NamedTuple):
    log_per_n: float
    base: float
    d_prime: float
    d_prime_label: str
    asymptotic: bool


def upper_bound_entropy(c: float, alpha: float) -> EntropyBound:
    """Entropy upper bound on (log packing size)/n for 0 < c <= alpha < 1.

    ln P / n <= I(c) - [c(1-alpha) / (d'(1-d'))] I(d') + o(1), where the
    admissible d' interval has endpoints 1-alpha and (1-2c+c*alpha)/(1-c);
    I(d')/(d'(1-d')) is a sum of convex functions, so the best (smallest)
    bound sits at one of the two endpoints.  Both are evaluated and the
    winner reported.  The o(1) term is reported as 0: the value is
    asymptotic, as flagged.
    """
    c, alpha = float(c), float(alpha)
    if not 0 < c <= alpha or not alpha < 1:
        raise ValueError("need 0 < c <= alpha < 1")
    candidates = [
        (1.0 - alpha, "1-alpha"),
        ((1.0 - 2.0 * c + c * alpha) / (1.0 - c), "(1-2c+c*alpha)/(1-c)"),
    ]
    scored = []
    for d_prime, label in candidates:
        if not 0.0 < d_prime < 1.0:
            raise ValueError(f"endpoint d'={d_prime} outside (0, 1)")
        bound = entropy(c) - c * (1.0 - alpha) / (d_prime * (1.0 - d_prime)) * entropy(d_prime)
        scored.append((bound, d_prime, label))
    log_per_n, d_prime, label = min(scored, key=lambda t: t[0])  # the first of equal minima
    return EntropyBound(log_per_n, exp(log_per_n), d_prime, label, True)


def _log_comb(n: int, k: int) -> float:
    if not 0 <= k <= n:
        raise ValueError("binomial out of range")
    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)


def _reduced_cap(n: int, cn_size: int, alpha, d_count: int, e_count: int) -> int:
    """Validate the witness window and return the reduced (1-a)/(c-a) cap, rounded up."""
    for name, v in (("cn_size", cn_size), ("d_count", d_count), ("e_count", e_count)):
        if not isinstance(v, int):
            raise ValueError(f"{name} must be an integer element count")
    alpha = Fraction(alpha)
    if not 0 <= d_count < cn_size <= e_count <= n:
        raise ValueError("need 0 <= dn < cn <= en <= n (a non-degenerate witness window)")
    c = Fraction(cn_size, n)
    d = Fraction(d_count, n)
    e = Fraction(e_count, n)
    if d > alpha * c:
        raise ValueError("need d <= alpha*c")
    c_red = (c - d) / (e - d)
    a_red = (alpha * c - d) / (c - d)
    if not a_red < c_red:
        raise ValueError("hypothesis (alpha*c-d)/(c-d) < (c-d)/(e-d) violated")
    return ceil((1 - a_red) / (c_red - a_red))


def finite_n_upper_bound(
    n: int, cn_size: int, alpha, d_count: int, e_count: int
) -> Fraction | float:
    """Finite-n packing cap from restriction to sandwiched witness sets.

    With c = cn/n, d = dn/n, e = en/n, every packing member squeezed
    between a dn-set and an en-set reduces to a packing at parameters
    ((e-d)n, (c-d)/(e-d), (alpha c-d)/(c-d)); when the reduced parameters
    fall in the c > alpha regime, its (1-a)/(c-a) cap multiplies out to

        C(n, cn) * ceil(N) / C((e-d)n, (e-c)n).

    Exact rational for n within the big-integer limit, log-gamma floats
    beyond.
    """
    if n > EXACT_BINOMIAL_LIMIT:
        log_value = finite_n_upper_bound_log(n, cn_size, alpha, d_count, e_count)
        if log_value > 700.0:  # exp would overflow: hand back the log instead
            raise OverflowError(
                f"bound exceeds float range (log {log_value:.6g}); "
                "use finite_n_upper_bound_log"
            )
        return exp(log_value)
    cap = _reduced_cap(n, cn_size, alpha, d_count, e_count)
    i, j, k = n, d_count, e_count
    if comb(i, j) * comb(i - j, k - j) != comb(i, k) * comb(k, j):
        raise RuntimeError("the counting step's identity C(i,j) C(i-j,k-j) = C(i,k) C(k,j) failed")
    return Fraction(comb(n, cn_size) * cap, comb(e_count - d_count, e_count - cn_size))


def finite_n_upper_bound_log(n: int, cn_size: int, alpha, d_count: int, e_count: int) -> float:
    """Natural log of finite_n_upper_bound, safe for bounds beyond float range."""
    if n <= EXACT_BINOMIAL_LIMIT:
        return log(float(finite_n_upper_bound(n, cn_size, alpha, d_count, e_count)))
    cap = _reduced_cap(n, cn_size, alpha, d_count, e_count)
    return _log_comb(n, cn_size) + log(cap) - _log_comb(e_count - d_count, e_count - cn_size)


@dataclass(frozen=True)
class BoundReport:
    """Every bound this module knows how to state for one (alpha, c) pair."""

    alpha: float
    c: float
    c_star: float
    log_lower_per_n: float | None
    base_lower: float | None
    ub_small_c: float | None
    log_upper_per_n: float | None
    base_upper: float | None
    d_prime_used: float | None
    d_prime_label: str | None
    asymptotic: bool = True

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def bound_report(alpha: float, c: float | None = None) -> BoundReport:
    """Assemble the applicable bounds; c defaults to the optimum for alpha."""
    alpha = float(alpha)
    c_star = optimal_c(alpha)
    if c is None:
        c = c_star
    c = float(c)
    if c > alpha:
        return BoundReport(
            alpha, c, c_star, None, None, upper_bound_small_c(c, alpha),
            None, None, None, None,
        )
    log_lower, base_lower = lower_bound_T(c, alpha)
    ub = upper_bound_entropy(c, alpha)
    if base_lower < 1.0 - 1e-12:
        raise RuntimeError(f"lower bound base {base_lower} below 1")
    if log_lower > ub.log_per_n + 1e-9:
        raise RuntimeError("lower bound exceeded the upper bound")
    return BoundReport(
        alpha, c, c_star, log_lower, base_lower, None,
        ub.log_per_n, ub.base, ub.d_prime, ub.d_prime_label,
    )
