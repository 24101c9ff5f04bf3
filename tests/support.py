"""Shared independent oracles for the test suite.

Everything here recomputes expected values by a route different from the
library code it checks: plain double loops instead of convolutions,
pointwise complex arithmetic plus FFT inversion instead of series
recurrences, step-by-step series arithmetic instead of the sampler's
closed rational form, long division instead of the extremal families'
closed form, one ``np.random.default_rng`` per seed instead of
the samplers' batched seeding, one function's P/Q and lfilter instead of the
division over a whole bank, one product over every lattice column
instead of the margin core's radius-blocked power sums, column counts
one lattice at a time instead of one stacked pass, bucket edges
from frexp groups instead of one searchsorted, each
inequality's left side term by term as written instead of the margin
core's stacked products, every cell of a campaign row instead of the
cells its parity or Bernstein bounds leave unsettled, a polynomial's
values on a dense grid instead of its least Bernstein coefficient,
a bound-1 row's margin from its lemma's margin and a scalar instead of
its own core,
hand-derived geometric closed
forms for the extremal families, a grid refinement over the automorphism
family's equality radii for the classical radius 1/3, and the paper's
second algebraic forms of bounds that the library evaluates once.
"""

import math
from unittest import mock

import numpy as np
from scipy.signal import lfilter

from bohrcert import functionals, harness, schur
from bohrcert import series as ps
from bohrcert.radius import bisect_root
from bohrcert.series import TruncatedSeries


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
    f = np.zeros(order + 1, dtype=complex)
    f[0] = gammas[-1]
    for g in reversed(gammas[:-1]):
        zf = np.concatenate(([0.0], f[:-1]))  # z f, cut to the order
        num, den = zf.copy(), np.conj(g) * zf
        num[0] += g
        den[0] += 1.0
        f = ps.mul(TruncatedSeries(num), ps.reciprocal(TruncatedSeries(den))).coeffs
    return f


def one_function_route_taylor(gammas, order):
    """Taylor coefficients of one function: its own P/Q, then lfilter.

    The recursion's polynomials are built one function at a time and
    divided by ``scipy.signal.lfilter``, as a single function was expanded
    before banks were drawn in one batch.
    """
    num = np.array([complex(gammas[-1])])
    den = np.ones(1, dtype=complex)
    for g in reversed(gammas[:-1]):
        znum = np.concatenate(([0.0], num))
        den = np.append(den, 0.0)
        num, den = g * den + znum, den + np.conj(g) * znum
    impulse = np.zeros(order + 1, dtype=complex)
    head = min(num.size, order + 1)
    impulse[:head] = num[:head]
    return lfilter([1.0 + 0.0j], den, impulse)


def sample_parameters(seed, depth):
    """One seeded draw's Schur parameters: the one-row case of
    ``schur.sample_gammas``, checked as ``schur.SchurParameters``."""
    return schur.SchurParameters(tuple(schur.sample_gammas([seed], depth)[0]))


def per_seed_gammas(seeds, depth, radius=0.95):
    """Schur parameters drawn from one ``np.random.default_rng`` per seed.

    Row i: depth uniforms for the squared moduli, then depth uniform
    angles on [0, 2 pi), as the sampler drew them seed by seed.
    """
    area = np.empty((len(seeds), depth))
    theta = np.empty((len(seeds), depth))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        area[i] = rng.uniform(size=depth)
        theta[i] = rng.uniform(0.0, 2.0 * np.pi, size=depth)
    return radius * np.sqrt(area) * np.exp(1j * theta)


def per_seed_directions(seeds, n, t):
    """Unit rows of l_t^n drawn from one ``np.random.default_rng`` per seed.

    Row i: n normals for the real parts, then n for the imaginary parts,
    divided by the row's l_t norm.
    """
    re = np.empty((len(seeds), n))
    im = np.empty((len(seeds), n))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        re[i] = rng.normal(size=n)
        im[i] = rng.normal(size=n)
    rows = re + 1j * im
    mods = np.abs(rows)
    nrm = mods.max(axis=1) if math.isinf(t) else (mods ** t).sum(axis=1) ** (1.0 / t)
    return rows / nrm[:, None]


def fft_coefficients(func, order, rho=0.5, npts=1024):
    """Taylor coefficients 0..order of func by FFT inversion on |z| = rho.

    ``func`` maps the (npts,) circle points to values of shape (npts, ...);
    the coefficients come back with the index on the last axis.
    """
    t = np.arange(npts)
    z = rho * np.exp(2j * np.pi * t / npts)
    hat = np.fft.fft(func(z), axis=0) / npts
    k = np.arange(order + 1)
    return np.moveaxis(hat[: order + 1], 0, -1) / rho ** k


def fourier_coefficients(gammas, order, rho=0.5, npts=1024):
    """Taylor coefficients via FFT inversion of pointwise values on |z|=rho."""
    return fft_coefficients(lambda z: pointwise_recursion(gammas, z), order, rho, npts)


def named_mapping(kind, z, a, m, p):
    """A named mapping of ``multidim.slice_from_direction`` at points z.

    ``z`` is an (N, n) array of points of C^n; returns the (N, n) values
    f_j(z), by pointwise complex arithmetic.
    """
    z1 = z[:, :1]
    if kind == "SharpThm34":
        return z * z1 ** (m - 1) * (a - z1 ** p) / (1.0 - a * z1 ** p)
    if kind == "SharpThm41":
        return z * z1 ** (m + p - 1)
    if kind == "SharpCor42":
        return z * (a - z1) / (1.0 - a * z1)
    raise ValueError(kind)


def full_psum(w, exps, r):
    """sum_k w_k r^exps_k as one product over every column of w.

    No column is skipped at any radius; the library's power sum takes
    only the columns each radius needs.
    """
    return w @ (r[None, :] ** np.asarray(exps, dtype=float)[:, None])


def full_width_margins(theorem_id, mods, m, p, r, builds=None, **kwargs):
    """``functionals.theorem_margins`` with every term's columns built over
    its whole lattice slice.

    The engine builds each term's columns only as far as a bucket reads
    them; here ``_columns`` builds every column, and ``_products`` reads its
    buckets' columns from those.  ``builds``, if given, receives each
    build's (columns asked for, columns built).
    """
    columns = functionals._columns

    def every_column(term, mods, s, signs=None, n=None):
        w = columns(term, mods, s, signs)
        if builds is not None:
            builds.append((n, w.shape[1]))
        return w

    with mock.patch.object(functionals, "_columns", every_column):
        return functionals.theorem_margins(theorem_id, mods, m, p, r, **kwargs)


def per_lattice_cut_counts(lattices, r, tol=2.0 ** -64):
    """The margin core's column counts (``functionals._cut_counts``) as they
    were computed one lattice at a time: (e0, d, n, bound) with integer e0
    and d, lattices equal but for n sharing one uncapped row, and lattices
    with one step d and bound sharing its logarithms.  r may be 0-d."""
    r = np.asarray(r, dtype=float)
    counts = np.empty((len(lattices), *r.shape))
    rows, logs = {}, {}
    at_zero = not r.min(initial=1.0) > 0.0  # NaN too
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
        for j, (e0, d, n, bound) in enumerate(lattices):
            e0, d = int(e0), int(d)
            if n > 1 and (e0, d, bound) not in rows:
                if (d, bound) not in logs:
                    logs[d, bound] = np.log(tol * (1.0 - r ** d) / bound) / log_r
                need = np.maximum(np.ceil((logs[d, bound] - e0) / d), 0.0)
                rows[e0, d, bound] = np.where(r > 0.0, need, float(e0 == 0)) if at_zero else need
            counts[j] = np.fmin(rows[e0, d, bound], n) if n > 1 else n
    return counts


def bucket_oracle(counts, r):
    """The margin core's buckets on the radius grid r as it formed them
    before one searchsorted found their edges: (edges, takes), with
    takes[b][j] the largest of term j's column counts in bucket b.

    Where the largest count over the terms ascends, an edge is every radius
    where that count's power-of-two ceiling (from frexp) changes; any other
    grid is one bucket.
    """
    most = counts[0] if len(counts) == 1 else np.max(counts, axis=0)
    edges = np.array([0, r.size])
    if r.size > 1 and np.all(most[1:] >= most[:-1]):
        group = np.frexp(np.maximum(most - 1, 0))[1]  # ceil(log2(count)), ascending
        edges = np.concatenate(([0], np.flatnonzero(np.diff(group)) + 1, [r.size]))
    takes = [[int(count[lo:hi].max(initial=0)) for count in counts]
             for lo, hi in zip(edges[:-1], edges[1:])]
    return edges.tolist(), takes


def every_cell_least(theorem_id, mods, m, p, grid, trunc_tol=functionals.DEFAULT_TRUNC_TOL):
    """A core's least margin over every (sample, radius) cell.

    One ``theorem_margins`` call over the whole bank and grid, reduced by
    ``functionals._least``; a campaign row evaluates only the cells its
    parity bounds leave unsettled.
    """
    lhs, rhs = functionals.theorem_margins(theorem_id, mods, m, p, grid, trunc_tol=trunc_tol)
    return functionals._least(lhs, rhs)


def every_cell_row_least(theorem, bank, m, p, grid):
    """A LemD or Lem21 campaign row's least margin over every cell: the least
    of its cores' :func:`every_cell_least`, a NaN kept; the row settles
    cells from per-sample Bernstein bounds."""
    cores = harness._ROWS[theorem].cores
    return float(np.minimum.reduce([every_cell_least(core, bank, m, p, grid) for core in cores]))


def polynomial_dense_min(coeffs, top, points=2001):
    """Each row's least value of sum_j c_j y^j over ``points`` evenly spaced
    y in [0, top], both ends included, by Horner's rule."""
    y = np.linspace(0.0, top, points)
    values = np.zeros((coeffs.shape[0], points))
    for c in coeffs.T[::-1]:
        values = values * y + c[:, None]
    return values.min(axis=1)


# Each catalog left side as written: (lattice slice, power, (a, b, c),
# weight) per term, the term being weight * sum_k w_k r^(a k p + b p + c m)
# with w_k = mu_k, mu_k^2, mu_k^s or (-1)^(kp+m) mu_k; a weight is a
# function of (r, mu_0, mu_1, m, p) and may mix radii and samples.


def _den(r, p):
    return 1.0 - r ** (2 * p)


_TAIL, _ALL = slice(1, None), slice(None)
_REFINED = [(_TAIL, 1, (1, 0, 0), None),
            (_TAIL, 2, (2, 0, 0), lambda r, mu0, mu1, m, p: 1 / (1 + mu0) + r / (1 - r))]
_ALTERNATING = (_TAIL, "signed", (1, 0, 1), None)
_MAJORANT = [(_ALL, 1, (1, 0, 1), None)]
WRITTEN_TERMS = {  # id: (terms, modulus of the sum)
    "ThmB": (_REFINED, False),
    "LemDOdd": ([(slice(1, None, 2), 1, (1, 0, 0), None),
                 (_ALL, 2, (2, 0, 0), lambda r, mu0, mu1, m, p: r ** p / _den(r, p))], False),
    "LemDEven": ([(slice(2, None, 2), 1, (1, 0, 0), None),
                  (_TAIL, 2, (2, 0, 0),
                   lambda r, mu0, mu1, m, p: 1 / (1 + mu0) + r ** (2 * p) / _den(r, p))], False),
    "ThmC": ([_ALTERNATING,
              (_ALL, 2, (2, 0, 0),
               lambda r, mu0, mu1, m, p: (-1.0) ** (m + p) * r ** (p + m) / _den(r, p))], True),
    "Thm31": ([(slice(0, 1), "s", (0, 0, 0), None)] + _REFINED, False),
    "Thm32": ([(_TAIL, 1, (1, 0, 1), None),
               (slice(2, None), 2, (2, -1, 1), lambda r, mu0, mu1, m, p: 1 / (1 + mu1)),
               (slice(2, None), 2, (2, 0, 1), lambda r, mu0, mu1, m, p: 1 / (1 - r ** p))], False),
    "Thm34": ([(slice(1, None, 2), 1, (1, 0, 1), None),
               (_ALL, 2, (2, 0, 2), lambda r, mu0, mu1, m, p: r ** (p - m) / _den(r, p))], False),
    "Cor43": ([_ALTERNATING,
               (_ALL, 2, (2, 0, 1), lambda r, mu0, mu1, m, p: (-1.0) ** m / (1 + mu0)),
               (_ALL, 2, (2, 2, 1), lambda r, mu0, mu1, m, p: (-1.0) ** m / _den(r, p))], True),
    "BombieriUpper": (_MAJORANT, False),
    "BBUpper": (_MAJORANT, False),
    "Lem21": ([(slice(2, None, 2), 1, (1, 0, 1), None)], False),
}
WRITTEN_TERMS["Thm41"] = WRITTEN_TERMS["ThmC"]


def written_lhs(theorem_id, mods, m, p, r, s=None):
    """A catalog left side on (samples, radii), term by term as written.

    Each term is one :func:`full_psum` over its whole lattice slice, its
    weight applied after the sum; terms are added in the order written and
    the modulus is taken last.  Also returns the reorder bound
    2 gamma_K sum |terms| (Higham, ch. 3) with K twice the summands
    written: the most that any other order of the same sums may differ
    by, weights folded into the summands and each term split in two.
    """
    mods = np.atleast_2d(np.asarray(mods, dtype=float))
    r = np.asarray(r, dtype=float)
    k = np.arange(mods.shape[1])
    mu0 = mods[:, :1]
    mu1 = mods[:, 1:2] if mods.shape[1] > 1 else np.zeros_like(mu0)
    terms, absolute = WRITTEN_TERMS[theorem_id]
    lhs = size = 0.0
    count = 0
    for cols, power, (a, b, c), weight in terms:
        w = mods[:, cols]
        if power == 2:
            w = w ** 2
        elif power == "s":
            w = w ** s
        elif power == "signed":
            w = np.where((k[cols] * p + m) % 2 == 0, 1.0, -1.0) * w
        exps = a * k[cols] * p + b * p + c * m
        part, scale = full_psum(w, exps, r), full_psum(np.abs(w), exps, r)
        if weight is not None:
            part = part * weight(r, mu0, mu1, m, p)
            scale = scale * np.abs(weight(r, mu0, mu1, m, p))
        lhs = lhs + part
        size = size + scale
        count += 2 * w.shape[1]
    gamma = count * np.finfo(float).eps / 2
    return (np.abs(lhs) if absolute else lhs), 2 * gamma / (1 - gamma) * size


# Thm31, Thm32 and Thm34 are exact affine images of a lemma (ThmB or
# LemDOdd) plus a scalar; the Thm31 and Thm32 scalars are their entries'
# family envelopes.
LEMMA_IDS = ("Thm31", "Thm32", "Thm34")


def lemma_margins(theorem_id, bank, m, p, r, s=None):
    """A bound-1 core's margin on (samples, radii) as the engine computes it,
    the same margin from its lemma's, and the most the two may differ by.

    With M_B, M_odd the ThmB and LemDOdd margins and x = r^p:

    - Thm34: r^m M_odd + (1 - r^(p+m)/(1 - r^2p)), at the shape (m, p);
    - Thm31: M_B + (1 - phi), phi = mu_0^s + (1 - mu_0^2) r/(1 - r), the
      Thm31 entry's envelope at a = mu_0, at the shape (0, 1);
    - Thm32: 1 - r^m (x b + x L_B(h, x)), on the vanishing-start moduli
      nu = (0, bank) of the core, with b = nu_1, h = (nu_1, nu_2, ...) =
      ``bank`` and L_B the ThmB left side of h at radius x.

    The allowance is each engine call's :func:`written_lhs` reorder bound
    and the tails its 2^-64 cut skips (at most 2^-64 per term and unit of
    weight, every weight here at most 1/(1 - r^p)), scaled as the route
    scales that call, plus 4 ulps of each scalar the lemma route adds.
    """
    r = np.asarray(r, dtype=float)
    eps = np.finfo(float).eps
    skip = 2.0 ** -64 / (1.0 - r ** p)
    if theorem_id == "Thm32":
        nu = np.hstack([np.zeros((bank.shape[0], 1)), bank])
        lhs, _ = functionals.theorem_margins("Thm32", nu, m, p, r)
        _, own = written_lhs("Thm32", nu, m, p, r)
        x = r ** p
        lhs_b, _ = functionals.theorem_margins("ThmB", bank, 0, 1, x)
        _, reorder = written_lhs("ThmB", bank, 0, 1, x)
        scaled = r ** m * (x * bank[:, :1] + x * lhs_b)
        allowance = (own + 3 * skip + r ** m * x * (reorder + 3 * skip)
                     + 4 * eps * (1.0 + 2.0 * scaled))
        return 1.0 - lhs, 1.0 - scaled, allowance
    lemma, factor = {"Thm34": ("LemDOdd", r ** m), "Thm31": ("ThmB", 1.0)}[theorem_id]
    extras = None if s is None else {"s": s}
    lhs, rhs = functionals.theorem_margins(theorem_id, bank, m, p, r, extras=extras)
    _, own = written_lhs(theorem_id, bank, m, p, r, s=s)
    lhs_l, rhs_l = functionals.theorem_margins(lemma, bank, m, p, r)
    _, reorder = written_lhs(lemma, bank, m, p, r)
    if theorem_id == "Thm34":
        phi = r ** (p + m) / (1.0 - r ** (2 * p))
    else:
        phi = functionals._THEOREMS["Thm31"].envelope(bank[:, :1], m, p, r, s)
    derived = factor * (rhs_l - lhs_l) + (1.0 - phi)
    terms = len(functionals._THEOREMS[theorem_id].terms)
    allowance = (own + terms * skip + factor * (reorder + 3 * skip)
                 + 4 * eps * (factor * (rhs_l + lhs_l) + 1.0 + phi + np.abs(derived)))
    return rhs - lhs, derived, allowance


# the division route of the automorphism families, the oracle of the
# closed form in ``schur.extremal_family``


def identity(order):
    """The coordinate function z, a Schur-class map of the disk."""
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[1] = 1.0
    return TruncatedSeries(coeffs, 1.0)


def mobius_map(a, s):
    """Post-compose s with w -> (a - w)/(1 - a w), divided out by lfilter.

    The long division num/den to the order of s runs the recurrence
    d_0 q_k = n_k - sum_{j=1..k} d_j q_{k-j}, an IIR filter applied to the
    numerator.  For 0 <= a < 1 and |s| <= 1 the result is Schur-class.
    """
    num = -s.coeffs.copy()
    num[0] += a
    den = -a * s.coeffs
    den[0] += 1.0
    return TruncatedSeries(lfilter([1.0 + 0.0j], den, num), 1.0)


def monomial_lift(s, m, p):
    """z^m s(z^p): coefficient k of s lands at index k p + m, the rest are 0."""
    coeffs = np.zeros(s.order * p + m + 1, dtype=complex)
    coeffs[m::p] = s.coeffs
    # |z^m s(z^p)| <= |s| on the disk, so the bound carries over
    return TruncatedSeries(coeffs, s.sup_bound)


def division_family(kind, a, m, p, order):
    """Coefficients 0..order of an automorphism kind of ``extremal_family``.

    (a - z)/(1 - a z) is divided out to as many terms as the lattice
    reaches, lifted to start at m (LacunaryD) or p + m (L2) with step p,
    and cut to the order; L1 is the (0, 1) lift.
    """
    if kind == "L1":
        m, p = 0, 1
    start = p + m if kind == "L2" else m
    base_order = max(1, -((start - order) // p))  # ceil((order - start) / p)
    return monomial_lift(mobius_map(a, identity(base_order)), start, p).coeffs[: order + 1]


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


def mobius_equality_radius(a, tol=1e-12):
    """Radius where the majorant sum of (a - z)/(1 - a z) first reaches 1.

    The majorant sum a + (1 - a^2) r / (1 - a r) is strictly increasing
    in r, so the root is bisected on [0, 1]; analytically it is
    1/(1 + 2a).
    """
    # B_a(r) - 1 = (1 - a) * [(1 + a) r / (1 - a r) - 1]; dividing out the
    # positive factor (1 - a) keeps the root well conditioned as a -> 1,
    # where the raw gap collapses into rounding noise.
    def majorant_gap(r):
        return (1.0 + a) * r / (1.0 - a * r) - 1.0

    if majorant_gap(1.0) <= 0.0:
        return 1.0
    return bisect_root(majorant_gap, 0.0, 1.0, tol)


def classical_bohr_radius(tol=1e-9, grid_points=17, max_level=60):
    """Infimum of the automorphism-family equality radii, by grid refinement.

    The oracle of the ``ClassicBohr`` radius: the equality radius
    1/(1 + 2a) decreases toward 1/3 as a -> 1 without being attained, so
    the refinement pushes the grid end toward 1 until the minimum
    stabilizes within ``tol``.
    """
    best_prev = None
    delta = 0.5
    for _ in range(max_level):
        step = (1.0 - delta) / (grid_points - 1)
        best = min(
            mobius_equality_radius(i * step, tol=tol * 1e-3)
            for i in range(grid_points)
        )
        if best_prev is not None and abs(best_prev - best) < 0.5 * tol:
            return best
        best_prev = best
        delta *= 0.25
    return best_prev


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
