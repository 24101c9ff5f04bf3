"""Shared independent oracles for the test suite.

Everything here recomputes expected values by a route different from the
library code it checks: plain double loops instead of convolutions,
pointwise complex arithmetic plus FFT inversion instead of series
recurrences, step-by-step series arithmetic instead of the sampler's
closed rational form, one product over every lattice column instead of
the margin core's radius-blocked power sums, hand-derived geometric
closed forms for the extremal families, and the paper's second algebraic
forms of bounds that the library evaluates once.
"""

import math

import numpy as np

from bohrcert import series as ps


def brute_cauchy_product(a, b, n):
    """c_k = sum_{i+j=k} a_i b_j for k <= n, by explicit double loop."""
    out = np.zeros(n + 1, dtype=complex)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= n:
                out[i + j] += ai * bj
    return out


def pointwise_recursion(gammas, z):
    """Evaluate the parameter recursion at points z, arithmetic only."""
    z = np.asarray(z, dtype=complex)
    f = np.full(z.shape, complex(gammas[-1]), dtype=complex)
    for g in reversed(gammas[:-1]):
        g = complex(g)
        zf = z * f
        f = (g + zf) / (1.0 + np.conj(g) * zf)
    return f


def series_route_taylor(gammas, order):
    """Taylor coefficients by running the recursion on truncated series.

    Every step is a dense series reciprocal and product, so this costs
    O(order^2) per parameter and never forms the rational P/Q that the
    library divides out once.
    """
    f = ps.constant(gammas[-1], order, abs(complex(gammas[-1])))
    for g in reversed(gammas[:-1]):
        zf = ps.shift(f, 1)
        num = ps.add(ps.constant(g, order), zf)
        den = ps.add(ps.one(order), ps.scale(zf, np.conj(g)))
        f = ps.mul(num, ps.reciprocal(den))
    return f.coeffs


def fourier_coefficients(gammas, order, rho=0.5, npts=1024):
    """Taylor coefficients via FFT inversion of pointwise values on |z|=rho."""
    t = np.arange(npts)
    z = rho * np.exp(2j * np.pi * t / npts)
    vals = pointwise_recursion(gammas, z)
    hat = np.fft.fft(vals) / npts
    k = np.arange(order + 1)
    return hat[: order + 1] / rho ** k


def full_psum(w, exps, r):
    """sum_k w_k r^exps_k as one product over every column of w.

    No column is skipped at any radius; the library's power sum takes
    only the columns each radius needs.
    """
    return w @ (r[None, :] ** np.asarray(exps, dtype=float)[:, None])


# hand-derived geometric sums for the automorphism family
# (a - z)/(1 - a z): mu_0 = a, mu_k = (1 - a^2) a^(k-1) for k >= 1


def mobius_linear_sum(a, r):
    """sum_{k>=1} mu_k r^k = (1 - a^2) r / (1 - a r)."""
    return (1.0 - a * a) * r / (1.0 - a * r)


def mobius_square_sum(a, r):
    """sum_{k>=1} mu_k^2 r^(2k) = (1 - a^2)^2 r^2 / (1 - a^2 r^2)."""
    return (1.0 - a * a) ** 2 * r * r / (1.0 - a * a * r * r)


def mobius_majorant(a, r):
    """B(r) = a + (1 - a^2) r / (1 - a r)."""
    return a + mobius_linear_sum(a, r)


def refined_bound_rhs(a, r):
    """(r/(1-r)) (1 - a^2), the refined-bound right side on the family."""
    return r / (1.0 - r) * (1.0 - a * a)


# second algebraic forms of the alternating bounds


def thmc_product_form(p, m, r):
    """The ThmC34 radius equation in product form, r^p (r^p + r^m) - 1."""
    return r ** p * (r ** p + r ** m) - 1.0


def thm41_lhs(mods, m, p, r):
    """Thm41's left side in its written square-sum form, per radius:

    | sum_{k>=1} (-1)^(kp+m) mu_k r^(kp+m)
      + (-1)^(m+p) r^(p-m)/(1-r^2p) sum_{k>=0} mu_k^2 r^(2kp+2m) |

    term by term with exactly rounded sums; the library evaluates the
    same bound as ThmC's r^(p+m) sum_k mu_k^2 r^(2kp).
    """
    out = []
    for x in np.atleast_1d(r).tolist():
        alt = math.fsum((-1.0) ** (k * p + m) * mu * x ** (k * p + m)
                        for k, mu in enumerate(mods) if k >= 1)
        sq = math.fsum(mu * mu * x ** (2 * k * p + 2 * m) for k, mu in enumerate(mods))
        outer = (-1.0) ** (m + p)
        out.append(abs(alt + outer * x ** (p - m) / (1.0 - x ** (2 * p)) * sq))
    return np.array(out)
