"""Chebyshev polynomial families and the scaled/shifted first-kind family.

Conventions: first-kind polynomials use the standard normalization
tau_1(x) = x.  The scaled family tau_k^{[a,1]} is the first-kind polynomial
mapped affinely onto [a, 1] and normalized so that tau_k^{[a,1]}(0) = 1; it
is the error polynomial realized by the first-kind smoother recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def cheb1_eval(k, x):
    """First-kind Chebyshev polynomial tau_k(x), any real x.

    Uses the three-term recurrence for |x| <= 1 and the closed form
    ((x+s)^k + (x-s)^k)/2 with s = sqrt(x^2-1) outside, which avoids the
    cancellation the recurrence suffers for large |x|.
    """
    if k == 0:
        return 1.0
    if abs(x) <= 1.0:
        tm, t = 1.0, x
        for _ in range(k - 1):
            tm, t = t, 2.0 * x * t - tm
        return t
    s = math.sqrt(x * x - 1.0)
    # |x - s| = 1/|x + s| <= 1, so only the dominant branch can overflow
    big = (abs(x) + s) ** k
    val = 0.5 * (big + 1.0 / big)
    return val if x > 0 or k % 2 == 0 else -val


def fourth_kind_basis(arg, k):
    """Fourth-kind Chebyshev values [W_0(arg), ..., W_k(arg)].

    W_0 = 1, W_1 = 2 arg + 1, W_{j+1} = 2 arg W_j - W_{j-1}.  ``arg`` may be
    a float, a numpy array or a numpy ``Polynomial``; every fourth-kind
    expansion in the package goes through this one recurrence.
    """
    W = [arg**0, 2.0 * arg + 1.0]
    for _ in range(2, k + 1):
        W.append(2.0 * arg * W[-1] - W[-2])
    return W[: k + 1]


def cheb4_eval(k, x):
    """Fourth-kind Chebyshev polynomial W_k(x) on [-1, 1].

    Equals sin((k+1/2)t)/sin(t/2) for x = cos(t).
    """
    if abs(x) > 1.0:
        raise ValueError("cheb4_eval requires |x| <= 1")
    return fourth_kind_basis(x, k)[k]


@dataclass
class ScaledChebParams:
    """Interval parameter and degree for tau_k^{[a,1]}."""

    a: float
    k: int
    theta: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.a < 1.0:
            raise ValueError("interval parameter a must lie in [0, 1)")
        if self.k < 0:
            raise ValueError("degree must be nonnegative")
        self.theta = (1.0 + self.a) / 2.0
        self.delta = (1.0 - self.a) / 2.0


def scaled_cheb_eval(p, x):
    """tau_k^{[a,1]}(x) by the shifted three-term recurrence.

    The sigma_k are the normalization constants tau_k(theta/delta) written in
    their own recurrence so that tau_k^{[a,1]}(0) = 1 holds exactly.
    """
    theta, delta, k = p.theta, p.delta, p.k
    if k == 0:
        return 1.0
    t1 = 1.0 - x / theta
    if k == 1:
        return t1
    ratio = theta / delta
    two_shift = 2.0 * (theta - x) / delta
    sig_m, sig = 1.0, ratio
    tm, t = 1.0, t1
    for _ in range(k - 1):
        sig_next = 2.0 * ratio * sig - sig_m
        t_next = (sig / sig_next) * (two_shift * t - (sig_m / sig) * tm)
        sig_m, sig = sig, sig_next
        tm, t = t, t_next
    return t


def c1_coefficient(a, k):
    """Degree-one coefficient of tau_k^{[a,1]}: the binomial-ratio closed form.

    c1 = -k * sum_j C(2k,2j+1) a^j / sum_j C(2k,2j) a^j, always negative.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if k < 1:
        raise ValueError("degree must be >= 1")
    num = 0.0
    den = 0.0
    ap = 1.0
    for j in range(k + 1):
        den += math.comb(2 * k, 2 * j) * ap
        if j < k:
            num += math.comb(2 * k, 2 * j + 1) * ap
        ap *= a
    return -k * num / den


def smoothing_objective(p, x):
    """The weighted error x * tau^2 / (1 - tau^2) at an interior point x.

    Raises at a genuine pole (tau^2 = 1 away from x = 0); the analytic value
    of the x -> 0+ limit is available from ``smoothing_limit_at_zero``.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]")
    tau = scaled_cheb_eval(p, x)
    denom = 1.0 - tau * tau
    if abs(denom) <= 1e-14:
        raise ValueError(f"pole of the smoothing objective at x={x}")
    return x * tau * tau / denom


def smoothing_limit_at_zero(a, k):
    """Limit of the smoothing objective for x -> 0+, equal to 1/(2|c1|)."""
    return 1.0 / (2.0 * abs(c1_coefficient(a, k)))


def coefficient_roots(k):
    """Closed-form roots of the even/odd binomial polynomials.

    Returns (alpha, delta): alpha_j = -tan((2j+1)pi/4k)^2 for j=0..k-1 are the
    roots of sum C(2k,2j) x^j, and delta_j = -tan(j pi/2k)^2 for j=1..k-1 are
    the roots of sum C(2k,2j+1) x^j.  They interlace: 0 > a_1 > d_1 > a_2 > ...
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    alpha = [-math.tan((2 * j + 1) * math.pi / (4 * k)) ** 2 for j in range(k)]
    delta = [-math.tan(j * math.pi / (2 * k)) ** 2 for j in range(1, k)]
    return alpha, delta
