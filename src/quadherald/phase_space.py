"""Phase-space representations of Fock-diagonal states.

States heralded by a phase-randomized quadrature measurement carry no
phase information, so their Husimi and Wigner functions are axially
symmetric: :func:`husimi` and :func:`wigner` take radii and return the
radial profile, which describes them completely.  Conventions
match the quadrature normalization used everywhere else (vacuum
variance 1/2): the vacuum Husimi and Wigner functions both peak at
1/pi, and both representations integrate to one over the plane.  Each
value depends on nothing but p and its own radius, bit for bit.

Husimi profile
--------------
Q(r) = (1/pi) sum_n p_n e^{-r^2} r^{2n} / n!, each term formed as
exp(log p_n + 2 n log r - lgamma(n + 1) - r^2), and a radius's terms
added one order after the other.  A term's relative error is at most
eps (2 n |ln r| + ln n! + r^2 + 1), the rounding of its exponent: on
single Fock states up to n = 20000, r = 150 (where e^{-r^2} is far
below the double range) the error is at most 0.82 times that, 9e-12
relative at n = 20000, r = 150, and 5e-15 absolute.

At strong squeezing most exponents lie below -745, where exp is +0.0,
and numpy's exp is slow there: with numpy 2.4 on an AVX-512 x86 CPU it
takes about 1 ns a term from -700 up, 15 ns below, and 100 to 170 ns
where the result is subnormal.  So the orders
go in blocks of about 2^16 terms, each block summed from the running
sums on, and a block skips the radii whose terms there are provably
below e^-800 (n! >= (n/e)^n bounds them).  In a block with many slow
terms, exp sees only the fast ones and, in their own call, the tiny
ones (e^-746 to e^-700) that can still change a sum; the rest are 0.
None of this moves a bit: a skipped term is +0.0, or is tiny and meets
a running sum of at least 2^-900, which it cannot change.  numpy adds
a single column pairwise, so a single radius is summed as two copies.

Wigner profile
--------------
The n-photon component contributes (-1)^n m_n(2 r^2) / pi, where
m_n(z) = e^{-z/2} L_n(z) lies in [-1, 1] and obeys

    n m_n = (2n - 1 - z) m_{n-1} - (n - 1) m_{n-2},  m_{-1} = 0,  m_0 = e^{-z/2}.

Read as equations for m_1, m_2, ..., this is a lower-triangular banded
system with two sub-diagonals, so BLAS's banded forward substitution
(``dtbsv``, which LAPACK's ``dtbtrs`` calls) runs it with no Python
code per order.  One call solves a stretch of orders for many radii at
once: their blocks are stacked along the diagonal, each led by two
identity rows that hold the last two unknowns of the radius's previous
stretch.  A call's matrix is one slice of a table of all orders per
radius, with the radius's z added; at N = 6298 with 64 radii about half
of the time is ``dtbsv``, and most of the rest is the copying of those
slices and of the weights, the z entries and the sum over each block.

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
column-oriented ``dtbsv`` (reference BLAS, OpenBLAS) each value is the
same bit for bit whatever other radii share the call.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .special import _NEGLIGIBLE_BITS, _exp_neg_scaled

__all__ = ["husimi", "wigner"]

# how far a distribution may be from sum(p) == 1 before we refuse it
_NORMALIZATION_TOL = 1e-6
# stacked rows in one banded solve; a stretch of one radius fits in one
_CALL_ROWS = 1 << 16
# scaled Laguerre values stay below 2^_HEADROOM_BITS
_HEADROOM_BITS = 960
# radii with z < n_orders / _DIFFERENCE_RATIO run the difference form
_DIFFERENCE_RATIO = 8.0
# flat offsets, in a block's matrix rows, of the entries that its seeds
# set: the diagonals of both seed rows and the first sub-diagonal of the
# first; and of the entries into the next block from its last two rows
_SEED_ENTRIES, _END_ENTRIES = np.array([0, 3, 1]), np.array([-2, -1, -4])
_SEED_ROWS = np.array([0, 1])
# Husimi terms per block of orders
_BLOCK_TERMS = 1 << 16
# np.exp is fast from _EXP_FAST up and gives +0.0 below _EXP_ZERO
_EXP_FAST, _EXP_ZERO = -700.0, -746.0
# up to this share of slow terms, or under this many terms, np.exp on
# all of a block is cheaper than masking
_SLOW_SHARE, _MASKED_TERMS = 0.125, 4096
# a block's radius is skipped when none of its exponents can reach this
_CULL_EXPONENT = -800.0
# a sum this large absorbs any term below e^_EXP_FAST < 2^-1009 unchanged
_ABSORBING = 2.0 ** -900


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

    Computes (1/pi) e^{-r^2} sum_n p_n r^{2n} / n! with log-space terms,
    each radius's terms added in order of n (see the module notes); the
    result lies in [0, 1/pi].  A term's relative error is at most
    eps (2 n |ln r| + ln n! + r^2 + 1): 9e-12 at n = 20000, r = 150, and
    5e-15 absolute on single Fock states up to there.  Each value does
    not depend on the other radii of the call.
    """
    p = _checked_distribution(p)
    r, scalar = _checked_radii(r)
    # numpy sums a single column pairwise, and two or more row by row
    wide = r if len(r) > 1 else np.repeat(r, 2)
    # r^2 overflows to inf beyond r ~ 1.3e154, where every term is +0.0
    with np.errstate(divide="ignore", over="ignore"):
        log_p = np.log(p)
        rr = wide * wide
    log_r = np.log(np.where(wide > 0.0, wide, 1.0))
    out = _husimi_sums(log_p, log_r, rr)[:len(r)] / math.pi
    out[r == 0.0] = p[0] / math.pi
    return float(out[0]) if scalar else out


def _husimi_sums(log_p, log_r, rr):
    """sum_n exp(log p_n + 2 n log r - lgamma(n + 1) - r^2) per column of
    (log r, r^2), two or more columns, the terms added in order of n.

    Past _BLOCK_TERMS terms the orders go in blocks, each summed from the
    running sums on, so the additions are those of one sum over all
    orders.  A block after the first leaves out the columns whose terms
    are all below e^_CULL_EXPONENT, which are +0.0.
    """
    n_orders, width = len(log_p), len(log_r)
    n = np.arange(n_orders)[:, None]
    two_n, log_fact, log_p = 2.0 * n, gammaln(n + 1.0), log_p[:, None]
    rows = max(1, _BLOCK_TERMS // max(width, 1))
    if n_orders <= rows:
        terms = _exponents(two_n, log_p, log_fact, log_r, rr)
        return _exp_terms(terms, 0.0).sum(axis=0)
    total = np.zeros(width)
    buf = np.empty((rows + 1) * width)
    for lo in range(0, n_orders, rows):
        hi = min(lo + rows, n_orders)
        cols = np.arange(width) if lo == 0 else _live_columns(log_p[lo:hi].max(), lo, hi,
                                                               log_r, rr)
        if len(cols) == 0:
            continue
        block = buf[:(hi - lo + 1) * len(cols)].reshape(-1, len(cols))
        _exponents(two_n[lo:hi], log_p[lo:hi], log_fact[lo:hi], log_r[cols], rr[cols],
                   out=block[1:])
        _exp_terms(block[1:], total[cols])
        block[0] = total[cols]
        total[cols] = block.sum(axis=0)
    return total


def _exponents(two_n, log_p, log_fact, log_r, rr, out=None):
    """log p_n + 2 n log r - lgamma(n + 1) - r^2, by rows n and columns r."""
    out = np.multiply(two_n, log_r, out=out)
    out += log_p
    out -= log_fact
    out -= rr
    return out


def _live_columns(log_p_max, lo, hi, log_r, rr):
    """The columns (two or none) whose terms of orders lo .. hi - 1, lo >= 1,
    can reach e^_CULL_EXPONENT.

    By n! >= (n/e)^n an exponent is at most
    log p_n + n (1 + 2 log r - log n) - r^2, and the part in n is
    concave with its maximum at n = e^{2 log r}.
    """
    c = np.clip(np.exp(2.0 * log_r), lo, hi - 1)
    cols = np.flatnonzero(log_p_max + c * (1.0 + 2.0 * log_r - np.log(c)) - rr
                          >= _CULL_EXPONENT)
    if len(cols) == 1:              # keep the sum over rows two columns wide
        cols = np.append(cols, 1 - cols[0] if cols[0] < 2 else 0)
    return cols


def _exp_terms(e, running):
    """e <- exp(e) as np.exp gives it, with no exp call on a zero term
    where there are many.

    In a block of _MASKED_TERMS terms or more whose every eighth row has
    more than _SLOW_SHARE of its terms below _EXP_FAST, the zero terms
    are left out, and the tiny ones in between get their own call, or
    none in a column whose running sum is at least _ABSORBING: adding
    them there changes no bit, so they count as 0.
    """
    if e.size < _MASKED_TERMS:
        return np.exp(e, out=e)
    sample = e[::8]
    if np.count_nonzero(sample < _EXP_FAST) <= _SLOW_SHARE * sample.size:
        return np.exp(e, out=e)
    fast = e >= _EXP_FAST
    tiny = e >= _EXP_ZERO
    tiny ^= fast
    tiny &= running < _ABSORBING
    at = np.flatnonzero(tiny)
    values = np.exp(e.ravel()[at])
    np.maximum(e, _EXP_FAST, out=e)
    np.exp(e, out=e)
    e *= fast
    e.ravel()[at] = values
    return e


def _rescaled(a, b, exponent):
    """Seeds a, b (values times 2^exponent) rescaled by a power of two.

    The larger seed gets a mantissa in [0.5, 1), or in [0.5, 1) 2^-960
    while the true values are below 2^-960.
    """
    _, shift = np.frexp(np.maximum(np.abs(a), np.abs(b)))
    shift += np.where(exponent + shift < -_HEADROOM_BITS, _HEADROOM_BITS, 0)
    return np.ldexp(a, -shift), np.ldexp(b, -shift), exponent + shift


def _tables(p):
    """Columns of the banded matrix for every order, both forms stacked.

    Returns (columns, weights, offset).  A row of columns holds the
    diagonal, first sub-diagonal (before z is added) and second
    sub-diagonal entries of one column; the same entry of weights is
    (-1)^n p_n if that column's unknown is m_n, else 0.  Three-term
    form: row k is the column of m_{k-2}.  Difference form: rows
    offset + 2k and offset + 2k + 1 are the columns of d_k and m_k, and
    z enters only the latter.
    """
    n_orders = len(p)
    offset = n_orders + 2
    n = np.arange(-2.0, n_orders)
    columns = np.empty((offset + 2 * n_orders, 3))
    three, d, m = columns[:offset], columns[offset::2], columns[offset + 1::2]
    three[:, 0] = n
    np.multiply(n, -2.0, out=three[:, 1])
    three[:, 1] -= 1.0
    np.add(n, 1.0, out=three[:, 2])
    d[:, 0] = n[2:]
    d[:, 1] = -1.0
    np.subtract(0.0, n[2:], out=d[:, 2])
    m[:] = [1.0, 0.0, -1.0]
    weights = np.zeros(len(columns))
    weights[2:offset] = p
    weights[3:offset:2] *= -1.0
    weights[offset + 1::2] = weights[2:offset]
    return columns, weights, offset


def _solve_stretches(tables, work, z, form, first, steps, a, b):
    """One banded solve: orders first .. first + steps - 1 for each radius.

    form is 0 (three-term) or 1 (difference) per radius; work holds the
    buffers for the matrix, the right-hand side and the weights, reused
    from call to call because fresh pages for them cost as much as the
    solve.  Returns each radius's share of sum_n (-1)^n p_n m_n and its
    last two unknowns, all on the scale of its seeds a, b.
    """
    from scipy.linalg.blas import dtbsv          # scipy.linalg loads on first use
    columns, weights, offset = tables
    rows = (1 + form) * steps + 2
    ends = np.cumsum(rows)
    starts = ends - rows
    last = int(ends[-1])
    # a radius's block is one slice of the tables, from the columns of its
    # two seeds on; a trailing block of two seed rows ends the system, so
    # that every real row is solved by the same operations wherever its
    # block sits
    lo = first + form * (first + offset - 2)
    spans = list(map(slice, lo.tolist(), (lo + rows).tolist())) + [slice(0, 2)]
    ab = np.concatenate(list(map(columns.__getitem__, spans)), out=work[0][:last + 2])
    # z enters every m column: each row of a three-term block, every
    # second row of a difference block
    m_cols = map(slice, (starts + form).tolist(), ends.tolist(), (1 + form).tolist())
    list(map(np.ndarray.__iadd__, map(ab[:, 1].__getitem__, m_cols), z.tolist()))
    # identity rows for the seeds, and no entries into them
    seed = np.append(starts, last)
    ab.reshape(-1).put((3 * seed)[:, None] + _SEED_ENTRIES, [1.0, 1.0, 0.0])
    ab.reshape(-1).put((3 * ends)[:, None] + _END_ENTRIES, 0.0)
    x = work[1][:last + 2]                      # zero from the last call on
    x[starts], x[starts + 1] = a, b
    # LAPACK's dtbtrs solves a banded triangular system by this BLAS
    # call, after a check for a zero diagonal, which ours never has
    m = dtbsv(2, ab.T, x, lower=1, overwrite_x=1)
    w = np.concatenate(list(map(weights.__getitem__, spans)), out=work[2][:last + 2])
    w.put(seed[:, None] + _SEED_ROWS, 0.0)
    share = np.add.reduceat(np.multiply(w, m, out=w), seed)[:-1]
    a, b = m[ends - 2], m[ends - 1]
    x.fill(0.0)                                 # while it is in cache
    return share, a, b


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
    work = (np.empty((n_rows, 3)), np.zeros(n_rows), np.empty(n_rows))
    while True:
        act = np.flatnonzero(nxt < n_orders)
        if len(act) == 0:
            break
        per_order = 1 + form[act]                # rows per order
        first, scale = nxt[act], exponent[act]
        steps = np.minimum(n_orders - first, (_CALL_ROWS - 4) // per_order)
        climbing = scale < -_HEADROOM_BITS
        if climbing.any():
            room = np.floor(2 * _HEADROOM_BITS * math.log(2.0)
                            / np.log(3.0 + z[act] / first)).astype(np.int64)
            steps = np.where(climbing, np.minimum(np.maximum(room, 1), steps), steps)
        # lowest exponents first: they have the most stretches to go
        order = np.argsort(scale, kind="stable")
        order = order[np.cumsum(per_order[order] * steps[order] + 2) <= _CALL_ROWS - 2]
        sel, steps = act[order], steps[order]
        share, a_sel, b_sel = _solve_stretches(tables, work, z[sel], form[sel], nxt[sel],
                                               steps, a[sel], b[sel])
        total[sel] += np.ldexp(share, exponent[sel])
        nxt[sel] += steps
        if (nxt[sel] < n_orders).any():          # some radius goes on
            a[sel], b[sel], exponent[sel] = _rescaled(a_sel, b_sel, exponent[sel])
    out = total / math.pi
    return float(out[0]) if scalar else out
