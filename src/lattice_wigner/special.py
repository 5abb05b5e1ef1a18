"""Jacobi theta_3 and integer-order Bessel functions of the first kind.

Both functions are evaluated from scratch so that their accuracy can be pinned
against independent oracles (partial sums for theta_3, the integral
representation J_n(z) = (1/2pi) int e^{-i n q} e^{i z sin q} dq for Bessel).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConvergenceError, DomainError

#: Largest Bessel order accepted by :func:`bessel_jn` and searched by :func:`bessel_tail_order`.
MAX_ORDER = 400

#: Bound below which :func:`bessel_tail_order` counts a Bessel term as negligible.
TAIL_TOL = 1e-15

_THETA_MAX_TERMS = 100_000

#: theta3 stops once the next pair is below this fraction of the partial sum.
_THETA_TOL = 1e-15


def theta3(z, q: float) -> complex:
    """Jacobi theta function theta_3(z, q) = sum_n q^{n^2} e^{2 i z n}.

    The sum runs over all integers n and is evaluated symmetrically, pairing
    +n with -n, so the result is exactly even in z.  Truncation happens once
    the magnitude bound q^{n^2} e^{2|Im z| n} of the next pair drops below
    _THETA_TOL times the magnitude of the partial sum.  Terms are formed as
    exp(n^2 ln q +- 2 i n z), which keeps intermediates finite whenever the
    terms themselves are representable.

    Requires a real nome 0 <= q < 1.
    """
    if not (0.0 <= q < 1.0) or not math.isfinite(q):
        raise DomainError(f"theta3 requires 0 <= q < 1, got q={q!r}")
    z = complex(z)
    if q == 0.0:
        return 1.0 + 0.0j
    ln_q = math.log(q)
    abs_im = abs(z.imag)
    total = 1.0 + 0.0j
    for n in range(1, _THETA_MAX_TERMS + 1):
        log_mag = n * n * ln_q
        total += cmath.exp(log_mag + 2j * n * z) + cmath.exp(log_mag - 2j * n * z)
        nxt = n + 1
        next_log_bound = nxt * nxt * ln_q + 2.0 * abs_im * nxt
        threshold = math.log(max(_THETA_TOL * abs(total), 1e-300))
        if next_log_bound < threshold:
            return total
    raise ConvergenceError(
        f"theta3 did not converge within {_THETA_MAX_TERMS} terms "
        f"(q={q}, |Im z|={abs_im})"
    )


def _jn_series(n_max: int, x: float) -> np.ndarray:
    # Leading ascending-series terms; adequate only for very small x, where the
    # backward recurrence would have to rescale through (2k/x) overflow.
    out = np.zeros(n_max + 1)
    half = 0.5 * x
    term = 1.0
    for n in range(n_max + 1):
        if n > 0:
            term *= half / n
            if term == 0.0:
                break
        out[n] = term * (1.0 - half * half / (n + 1.0))
    return out


def _jn_backward(n_max: int, x: float) -> np.ndarray:
    """J_0(x)..J_{n_max}(x) for x > 0 by downward recurrence.

    Started well above max(n_max, x) with an arbitrary seed, the three-term
    recurrence J_{k-1} = (2k/x) J_k - J_{k+1} is run downward and the result
    normalized with J_0 + 2 sum_{k>=1} J_{2k} = 1.  Downward is the stable
    direction for k > x; the normalization identity is the correctness gate
    (checked in the test suite together with the quadrature oracle).
    """
    start = max(n_max, int(math.ceil(x))) + 16 + int(math.sqrt(40.0 * max(n_max, math.ceil(x), 1)))
    vals = np.zeros(start + 2)
    vals[start] = 1e-250
    big = 1e250
    for k in range(start, 0, -1):
        vals[k - 1] = (2.0 * k / x) * vals[k] - vals[k + 1]
        if abs(vals[k - 1]) > big:
            vals[k - 1:] /= big
    norm = vals[0] + 2.0 * vals[2::2].sum()
    return vals[: n_max + 1] / norm


def bessel_jn_sequence(n_max: int, x: float) -> np.ndarray:
    """Array [J_0(x), ..., J_{n_max}(x)] for x >= 0."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"bessel_jn_sequence requires finite x >= 0, got {x!r}")
    if x == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    if x < 1e-8:
        return _jn_series(n_max, x)
    return _jn_backward(n_max, x)


def bessel_jn(n: int, z: float) -> float:
    """Bessel function of the first kind J_n(z) for integer n and real z:
    entry n of the band :func:`bessel_jn_band` of width |n|."""
    if abs(n) > MAX_ORDER:
        raise DomainError(f"|n|={abs(n)} exceeds max_order={MAX_ORDER}")
    if not math.isfinite(z):
        raise DomainError(f"bessel_jn requires finite z, got {z!r}")
    return float(bessel_jn_band(abs(n), z)[n + abs(n)])


def bessel_jn_band(d_max: int, z: float) -> np.ndarray:
    """J_d(z) for d = -d_max..d_max, returned with index d + d_max.

    Negative orders and arguments are folded here, with J_{-d}(z) =
    (-1)^d J_d(z) and J_d(-z) = (-1)^d J_d(z); :func:`bessel_jn` reads one
    entry.  A test oracle: the propagators use the Jacobi-Anger kernel.
    """
    if d_max < 0:
        raise DomainError("d_max must be >= 0")
    seq = bessel_jn_sequence(d_max, abs(z))
    out = np.empty(2 * d_max + 1)
    signs = np.ones(d_max + 1)
    if z < 0.0:
        signs[1::2] = -1.0  # J_d(-x) = (-1)^d J_d(x)
    pos = seq * signs
    out[d_max:] = pos
    neg_signs = np.ones(d_max + 1)
    neg_signs[1::2] = -1.0  # J_{-d}(x) = (-1)^d J_d(x)
    out[:d_max] = (pos * neg_signs)[1:][::-1]
    return out


def bessel_tail_order(z: float) -> int:
    """Smallest order L >= |z| with |J_L(z)| bounded below TAIL_TOL.

    Uses the envelope |J_L(z)| <= (|z|/2)^L / L!, valid for all real z; the
    bound decays super-exponentially once L > |z|.
    """
    x = abs(z)
    L = max(1, int(math.ceil(x)))
    while L <= MAX_ORDER:
        log_bound = L * math.log(max(x, 1e-300) / 2.0) - math.lgamma(L + 1.0)
        if log_bound < math.log(TAIL_TOL):
            return L
        L += 1
    raise ConvergenceError(f"no order below {MAX_ORDER} reaches tail bound {TAIL_TOL} for z={z}")
