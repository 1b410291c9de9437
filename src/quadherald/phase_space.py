"""Phase-space representations of Fock-diagonal states.

States heralded by a phase-randomized quadrature measurement carry no
phase information, so their Husimi and Wigner functions are axially
symmetric: :func:`husimi` and :func:`wigner` take radii and return the
radial profile, which describes them completely.  Conventions
match the quadrature normalization used everywhere else (vacuum
variance 1/2): the vacuum Husimi and Wigner functions both peak at
1/pi, and both representations integrate to one over the plane.

Wigner profile
--------------
The n-photon component contributes (-1)^n m_n(2 r^2) / pi, where
m_n(z) = e^{-z/2} L_n(z) lies in [-1, 1] and obeys

    n m_n = (2n - 1 - z) m_{n-1} - (n - 1) m_{n-2},  m_{-1} = 0,  m_0 = e^{-z/2}.

Read as equations for m_1, m_2, ..., this is a lower-triangular banded
system with two sub-diagonals, so LAPACK's forward substitution
(``dtbtrs``) runs it with no Python code per order.  One call solves a
stretch of orders for many radii at once: their blocks are stacked
along the diagonal, each led by two identity rows that hold the last
two unknowns of the radius's previous stretch.

Once n >> z this three-term form cancels: its coefficient 2n - 1 - z is
rounded at every order, which moves z by up to n eps, and the error of
m_n grows with n (6e-11 at n = 6000, r = 0.01; 2e-14 at n = 20000,
r = 3.3).  Radii with 8 z < N (N orders) therefore run the difference
form, d_n = m_n - m_{n-1} beside m_n,

    n d_n = (n - 1) d_{n-1} - z m_{n-1},   m_n = m_{n-1} + d_n,

whose z enters unrounded: two rows per order, the same band width, and
the same seeds (0, m_0).  The three-term radii keep n / z <= 8.

The seed e^{-z/2} leaves the double range at r ~ 26.6, so each radius
carries a base-2 exponent E: its values are mantissas times 2^E.
Between stretches the two seeds are rescaled by a power of two, which
is exact: the larger gets a mantissa in [0.5, 1), or in [0.5, 1) 2^-960
while the values are below 2^-960.  Stretches are sized so that no
mantissa passes 2^961.  Once E >= -960 that holds at any length, since
|m_n| <= 1 and |d_n| <= 2, and the remaining orders go in one stretch
(as many as fit in one call).  Before that, a stretch ends before the
growth bound reaches 2^1920: per order, the larger unknown of a radius
grows by at most 3 + z/n in either form.  Each stretch's share of
sum_n (-1)^n p_n m_n is summed over its block and scaled back by 2^E.
A radius at which every m_n is provably below 2^-1100 gets 0.

The profile is accurate to a few 1e-15 absolute at any radius, for
z = 2 r^2 as rounded to double (checked against 60-digit values of
single Fock states up to n = 20000, r = 150).  A radius's form and
stretches depend on nothing but its own z and N, so with a
column-oriented ``dtbtrs`` (reference LAPACK, OpenBLAS) each value is
the same bit for bit whatever other radii share the call.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .special import _NEGLIGIBLE_BITS, _exp_neg_scaled

__all__ = ["husimi", "wigner"]

# how far a distribution may be from sum(p) == 1 before we refuse it
_NORMALIZATION_TOL = 1e-6
# stacked rows in one LAPACK call; a stretch of one radius fits in one
_CALL_ROWS = 1 << 16
# scaled Laguerre values stay below 2^_HEADROOM_BITS
_HEADROOM_BITS = 960
# radii with z < n_orders / _DIFFERENCE_RATIO run the difference form
_DIFFERENCE_RATIO = 8.0


def _checked_distribution(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("p must be a nonempty 1-D probability sequence")
    if np.any(p < 0.0) or not np.all(np.isfinite(p)):
        raise ValueError("p must be finite and nonnegative")
    if abs(p.sum() - 1.0) > _NORMALIZATION_TOL:
        raise ValueError(f"p must be normalized within {_NORMALIZATION_TOL}, "
                         f"got sum(p) = {p.sum()!r}")
    return p


def _checked_radii(r) -> tuple[np.ndarray, bool]:
    scalar = np.isscalar(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r < 0.0) or not np.all(np.isfinite(r)):
        raise ValueError("radii must be finite and nonnegative")
    return r, scalar


def husimi(p, r):
    """Husimi function of a Fock-diagonal state at radius r = |alpha|.

    Computes (1/pi) e^{-r^2} sum_n p_n r^{2n} / n! with log-space terms;
    the result lies in [0, 1/pi].
    """
    p = _checked_distribution(p)
    r, scalar = _checked_radii(r)
    n = np.arange(len(p))[:, None]
    with np.errstate(divide="ignore"):
        log_p = np.log(p)[:, None]
        log_r = np.log(np.where(r > 0.0, r, 1.0))[None, :]
    terms = np.exp(log_p + 2.0 * n * log_r - gammaln(n + 1.0) - (r * r)[None, :])
    out = terms.sum(axis=0) / math.pi
    out[r == 0.0] = p[0] / math.pi
    return float(out[0]) if scalar else out


def _rescaled(a, b, exponent):
    """Seeds a, b (values times 2^exponent) rescaled by a power of two.

    The larger seed gets a mantissa in [0.5, 1), or in [0.5, 1) 2^-960
    while the true values are below 2^-960.
    """
    _, shift = np.frexp(np.maximum(np.abs(a), np.abs(b)))
    shift += np.where(exponent + shift < -_HEADROOM_BITS, _HEADROOM_BITS, 0)
    return np.ldexp(a, -shift), np.ldexp(b, -shift), exponent + shift


def _tables(p):
    """Columns of the banded matrix for every order, in both forms.

    Each form gives (columns, weights).  A row of columns holds the
    diagonal, first sub-diagonal (before z is added) and second sub-diagonal
    entries of one column; the same entry of weights is (-1)^n p_n
    if that column's unknown is m_n, else 0.  Three-term form: row k is
    the column of m_{k-2}.  Difference form: rows 2k and 2k + 1 are the
    columns of d_k and m_k, and z enters only the latter.
    """
    signed = p.copy()
    signed[1::2] *= -1.0
    n = np.arange(-2.0, len(p))
    three = (n[:, None] * [1.0, -2.0, 1.0] + [0.0, -1.0, 1.0],
             np.concatenate(([0.0, 0.0], signed)))
    columns = np.empty((2 * len(p), 3))
    columns[0::2] = n[2:, None] * [1.0, 0.0, -1.0] + [0.0, -1.0, 0.0]
    columns[1::2] = [1.0, 0.0, -1.0]
    weights = np.zeros(2 * len(p))
    weights[1::2] = signed
    return three, (columns, weights)


def _solve_stretches(tables, work, z, form, first, steps, a, b):
    """One LAPACK call: orders first .. first + steps - 1 for each radius.

    form is 0 (three-term) or 1 (difference) per radius; work holds the
    buffers for the matrix, the weights and the right-hand side, reused
    from call to call because fresh pages for them cost as much as the
    solve.  Returns each radius's share of sum_n (-1)^n p_n m_n and its
    last two unknowns, all on the scale of its seeds a, b.
    """
    from scipy.linalg.lapack import dtbtrs     # scipy.linalg loads on first use
    rows = (1 + form) * steps + 2
    ends = np.cumsum(rows)
    starts = ends - rows
    n_rows = int(ends[-1]) + 2
    lo = np.where(form == 1, 2 * first - 2, first)
    spans = list(zip(form.tolist(), lo.tolist(), (lo + rows).tolist()))
    # a trailing block of two seed rows ends the system, so that every
    # real row is solved by the same operations wherever its block sits
    ab = np.concatenate([tables[f][0][i:j] for f, i, j in spans] + [tables[0][0][:2]],
                        out=work[0][:n_rows])
    w = np.concatenate([tables[f][1][i:j] for f, i, j in spans] + [tables[0][1][:2]],
                       out=work[1][:n_rows])
    for f, i, j, z_k in zip(form.tolist(), starts.tolist(), ends.tolist(), z.tolist()):
        ab[i + f:j:1 + f, 1] += z_k              # every m column
    seed = np.append(starts, ends[-1])
    ab[seed, 0] = ab[seed + 1, 0] = 1.0          # identity rows for the seeds
    ab[seed, 1] = 0.0                            # and no entries into them
    ab[seed[1:] - 1, 1:] = 0.0
    ab[seed[1:] - 2, 2] = 0.0
    w[seed] = w[seed + 1] = 0.0
    rhs = work[2][:n_rows]
    rhs.fill(0.0)
    rhs[starts, 0], rhs[starts + 1, 0] = a, b
    m, _ = dtbtrs(ab.T, rhs, uplo="L", overwrite_b=1)
    m = m[:, 0]
    return np.add.reduceat(np.multiply(w, m, out=w), seed)[:-1], m[ends - 2], m[ends - 1]


def wigner(p, r):
    """Wigner function of a Fock-diagonal state at radius r, r^2 = x^2 + p^2.

    Sums (-1)^n p_n e^{-r^2} L_n(2 r^2) / pi by the exp-scaled Laguerre
    recurrence, run by banded forward substitution with a carried base-2
    exponent per radius (see the module notes).  Accurate to a few 1e-15
    absolute at any radius; each value does not depend on the other
    radii of the call.
    """
    p = _checked_distribution(p)
    r, scalar = _checked_radii(r)
    n_orders = len(p)
    # |m_n| <= e^{-z/2} prod_{k <= n} (3 + z/k), and the sum of logs up to
    # k = t is at most ln(3 + z) + int_1^t ln(3 + z/k) dk
    with np.errstate(invalid="ignore", over="ignore"):
        z = 2.0 * r * r
        t = max(n_orders - 1.0, 1.0)
        bound = t * np.log(3.0 + z / t) + z / 3.0 * np.log((3.0 * t + z) / (3.0 + z))
        live = bound - 0.5 * z >= -_NEGLIGIBLE_BITS * math.log(2.0)
    m0, exponent = _exp_neg_scaled(np.where(live, 0.5 * z, 0.0))
    total = np.where(live, p[0] * np.ldexp(m0, exponent), 0.0)
    a, b, exponent = _rescaled(np.zeros_like(z), m0, exponent)
    nxt = np.where(live, 1, n_orders)            # next order of each radius
    # 1: difference form, 0: three-term; the seeds (0, m_0) suit both
    form = (_DIFFERENCE_RATIO * z < n_orders).astype(np.int64)
    tables = _tables(p)
    n_rows = min(_CALL_ROWS, int(np.sum(live * ((1 + form) * n_orders + 2))) + 2)
    work = (np.empty((n_rows, 3)), np.empty(n_rows), np.empty((n_rows, 1)))
    while True:
        act = np.flatnonzero(nxt < n_orders)
        if len(act) == 0:
            break
        per_order = 1 + form[act]                # rows per order
        steps = np.minimum(n_orders - nxt[act], (_CALL_ROWS - 4) // per_order)
        climbing = exponent[act] < -_HEADROOM_BITS
        room = np.floor(2 * _HEADROOM_BITS * math.log(2.0)
                        / np.log(3.0 + z[act] / nxt[act])).astype(np.int64)
        steps = np.where(climbing, np.minimum(np.maximum(room, 1), steps), steps)
        # lowest exponents first: they have the most stretches to go
        order = np.argsort(exponent[act], kind="stable")
        order = order[np.cumsum(per_order[order] * steps[order] + 2) <= _CALL_ROWS - 2]
        sel, steps = act[order], steps[order]
        share, a_sel, b_sel = _solve_stretches(tables, work, z[sel], form[sel], nxt[sel],
                                               steps, a[sel], b[sel])
        total[sel] += np.ldexp(share, exponent[sel])
        a[sel], b[sel], exponent[sel] = _rescaled(a_sel, b_sel, exponent[sel])
        nxt[sel] += steps
    out = total / math.pi
    return float(out[0]) if scalar else out
