"""Thermodynamic formalism on backward cylinders.

The central object is a table of rigorous per-cylinder bounds on the
Birkhoff sums of log eta', log lam', log nu' along the backward chain.
The base coordinate of a depth-j preimage is enclosed in an interval by
the monotone inverse-branch descent; where a derivative also depends on
the fiber coordinate, the y-range of the cylinder is propagated by
interval iteration from the anchor disc, so the bounds stay rigorous and
the per-word slack stays summable in the depth.

A table keeps six read-only arrays of d**n floats.  A derivative that
no cylinder can vary is one scalar sum, and its two rows view it with
stride 0; the others (16 * d**n bytes each) are built in blocks
of at most BLOCK_WORDS words that each descend their own deep chain
levels and reuse a few block-sized buffers, so the memory the build
needs on top of the table is O(BLOCK_WORDS) rather than a multiple of
d**n.  The pressure, weight and tilt passes each hold one d**n scratch
array.

Sup-sums are subadditive under word concatenation and inf-sums are
superadditive, which gives nested pressure brackets: the true pressure of
the weighted cylinder sums lies between p_lo and p_hi at every
generation, and the root interval of the pressure function returned by
``solve_bowen`` therefore contains the dimension prediction.

Every deviation rate comes from one tilt family s -> (P(s), tilted mean),
``_tilt``, and one Legendre solve, ``_solve_tilt``, for the tilt whose
mean deviates by the target; the rate is the Legendre gap at that tilt.
The observable psi enters as the array of its per-word midpoint sums:
``table.lam_mid`` for log lam', ``-table.eta_mid`` for -log eta'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .coding import _check_cap, cylinder_endpoints, descend_levels
from .errors import SpecInvalidError
from .maps import SolenoidSpec
from .numerics import COS_PEAKS, SIN_PEAKS, TWO_PI, trig_range

REGIME_GRID = 256  # base points of the grid behind the uniform regime flags


# ---------------------------------------------------------------------------
# Per-cylinder Birkhoff bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BirkhoffTable:
    """Rigorous sum bounds of the three log-derivatives over every cylinder."""

    spec: SolenoidSpec
    n: int
    eta_inf: np.ndarray
    eta_sup: np.ndarray
    lam_inf: np.ndarray
    lam_sup: np.ndarray
    nu_inf: np.ndarray
    nu_sup: np.ndarray

    @property
    def eta_mid(self):
        return _mid(self.eta_inf, self.eta_sup)

    @property
    def lam_mid(self):
        return _mid(self.lam_inf, self.lam_sup)


def _mid(inf, sup, out=None):
    """0.5 * (inf + sup), formed in out when given."""
    out = np.add(inf, sup, out=out)
    out *= 0.5
    return out


def _scale_pair(pair, c, out):
    """c * [lo, hi] for pair = (lo, hi), as (min, max), written into out."""
    return np.multiply(pair if c >= 0.0 else pair[::-1], c, out=out)


def _log_pair(pair, what):
    """log of the interval with rows (lo, hi) of pair, in place."""
    if np.min(pair[0]) <= 0.0:
        raise SpecInvalidError(
            f"{what} is not positive on a cylinder enclosure; "
            "the family violates the derivative hypotheses")
    return np.log(pair, out=pair)


BASE_SPLIT_DEPTH = 3

# Words per block of the table build: the widest word axis that a block's
# accumulators and interval buffers hold at once (see `birkhoff_table`).
BLOCK_WORDS = 2 ** 11

TERMS = ("eta'", "lam'", "nu'")


def birkhoff_table(spec: SolenoidSpec, n: int) -> BirkhoffTable:
    """Build (and cache) the generation-n bound table for all d**n words.

    The base circle is pre-split into generation-min(3, n) forward
    cylinders and the interval descent runs per piece; sups and infs are
    reduced over pieces at the end.  Any chain started below a length-3
    word lands inside a single piece, so the piecewise bounds keep the
    exact sub/super-additivity under concatenation that bracket nesting
    relies on, while the per-level intervals shrink by roughly d**3.

    A derivative that no cylinder can vary (``_constant_terms``) is summed
    as one scalar, level by level, and both its rows view that one value
    with stride 0.  The others are built in blocks of at most BLOCK_WORDS
    words: block k holds the words whose b most recent symbols are k, b
    the fewest that make d**(n-b) fit.  One descent gives levels 1..b;
    each block descends its own levels b+1..n from its level-b column,
    sums over the levels and reduces over pieces.  Every lift and every
    sum is the one an all-words build would compute, bit for bit, but
    memory beyond the retained 16 * d**n bytes per varying term (none on
    A and B, 32 * d**n on C) is a fixed block budget.  All six arrays are
    read-only.
    """
    if n < 1:
        raise ValueError("table generation must be >= 1")
    _check_cap(spec.d, n)
    return _birkhoff_table(spec, n)


@lru_cache(maxsize=8)
def _birkhoff_table(spec: SolenoidSpec, n: int) -> BirkhoffTable:
    d = spec.d
    constants = _constant_terms(spec)
    terms = [k for k, c in enumerate(constants) if c is None]
    # (inf, sup) per word of each varying term; block k fills columns
    # k::d**b, since the deeper symbols of a word are its higher base-d
    # digits.
    out = np.empty((len(terms), 2, d ** n))
    if terms:
        lo, hi = cylinder_endpoints(spec, min(BASE_SPLIT_DEPTH, n))
        n_pieces = lo.size
        # Adjacent pieces share endpoints, so each distinct value (by its
        # bits) is descended once; `ends` takes a level back to the
        # (2 * n_pieces, ...) piece ends.
        bits, ends = np.unique(np.concatenate([lo, hi]).view(np.int64),
                               return_inverse=True)
        lifts = bits.view(float)
        b = 0
        while d ** (n - b) > BLOCK_WORDS:
            b += 1
        top = descend_levels(spec, lifts, b)
        for k in range(d ** b):
            # Level j <= b is the single column k mod d**j of the shared
            # levels; level j > b of the block's descent is the all-words
            # level's columns k::d**b.
            levels = [x[:, k % d ** j, None] for j, x in enumerate(top, 1)]
            levels += descend_levels(spec, top[-1][:, k] if b else lifts,
                                     n - b)
            _block_sums(spec, levels, ends, n_pieces, terms,
                        out[:, :, k::d ** b])
    out.flags.writeable = False
    varying = iter(out)
    (eta_inf, eta_sup), (lam_inf, lam_sup), (nu_inf, nu_sup) = (
        next(varying) if c is None else _constant_rows(c, n, TERMS[k], d ** n)
        for k, c in enumerate(constants))
    return BirkhoffTable(spec=spec, n=n, eta_inf=eta_inf, eta_sup=eta_sup,
                         lam_inf=lam_inf, lam_sup=lam_sup,
                         nu_inf=nu_inf, nu_sup=nu_sup)


birkhoff_table.cache_info = _birkhoff_table.cache_info
birkhoff_table.cache_clear = _birkhoff_table.cache_clear


def _constant_terms(spec):
    """(eta', lam', nu') where no cylinder can vary them, else None.

    eta' is d when eta_eps = 0, lam' is lam0 when lam1 = lam2 = 0 and nu'
    is nu0 when nu1 = nu2 = 0: the interval steps would add c * (+-0.0)
    to them, which leaves them as they are.
    """
    return (float(spec.d) if spec.eta_eps == 0.0 else None,
            spec.lam0 if spec.lam1 == 0.0 and spec.lam2 == 0.0 else None,
            spec.nu0 if spec.nu1 == 0.0 and spec.nu2 == 0.0 else None)


def _constant_sum(c, n, what):
    """n levels of log c, added one level at a time from 0.0 as a block
    adds a term to every word, so the scalar has the bits of its sums."""
    log_c = _log_pair(np.array([c, c]), what)[0]
    total = 0.0
    for _ in range(n):
        total += log_c
    return total


def _constant_rows(c, n, what, words):
    """The (inf, sup) rows of a constant term: its one sum, held once.

    Both rows view one read-only value with stride 0; a writeable base
    would let a caller set the rows' writeable flag.
    """
    value = np.array([_constant_sum(c, n, what)])
    value.flags.writeable = False
    row = np.broadcast_to(value, (words,))
    return row, row


def _block_sums(spec, levels, ends, n_pieces, terms, out):
    """One block's (inf, sup) sums of the varying terms, into out.

    levels[j-1] holds the level-j lifts of the distinct piece endpoints,
    one column per class of block words, the word q taking column
    q mod (column count); the last level has one column per word.  terms
    lists the varying derivatives (indices into TERMS); out[i] takes
    the inf and sup of term terms[i] over the pieces, shape (2, words).

    Sin and cos are taken once per distinct endpoint and gathered to the
    piece ends.  Every interval (lo, hi) is a pair of rows, and every
    step writes into one of six buffers of 2 * n_pieces * words floats,
    reused from level to level.
    """
    count = levels[-1].shape[-1]
    track_y = spec.lam2 != 0.0 or spec.nu2 != 0.0
    need_sin = 1 in terms or track_y  # a, the y-free part of lam'
    need_cos = 0 in terms or 2 in terms or track_y
    acc = np.zeros((len(terms), 2, n_pieces, count))
    bufs = np.empty((6, 2 * n_pieces * count))
    if track_y:
        y = np.empty((2, n_pieces, count))
        y[0], y[1] = -1.0, 1.0

    for j in range(len(levels), 0, -1):
        # View the word axis as (words // cols, cols) and let the level
        # broadcast over it.
        x = levels[j - 1]
        cols = x.shape[-1]
        edge = (2, n_pieces, 1, cols)
        grid = (2, n_pieces, count // cols, cols)
        sums = acc.reshape((len(terms),) + grid)
        # The lifts and a trig function at the piece ends, the ranges of
        # cos and of a, and one term; bufs[1] takes the trig function at
        # the distinct lifts.
        xe, _, fe, c, a, t = (b[:2 * n_pieces * cols].reshape(edge)
                              for b in bufs)
        fx = bufs[1, :x.size].reshape(x.shape)
        t_grid = bufs[5].reshape(grid)
        y_grid = y.reshape(grid) if track_y else None
        # ends are in range; mode "clip" spares take a buffered copy.
        np.take(x, ends, axis=0, out=xe.reshape(-1, cols), mode="clip")
        if need_sin:
            np.take(np.sin(x, out=fx), ends, axis=0,
                    out=fe.reshape(-1, cols), mode="clip")
            _scale_pair(trig_range(xe[0], xe[1], fe[0], fe[1], SIN_PEAKS, t),
                        spec.lam1, a)
            a += spec.lam0
        if need_cos:
            np.take(np.cos(x, out=fx), ends, axis=0,
                    out=fe.reshape(-1, cols), mode="clip")
            trig_range(xe[0], xe[1], fe[0], fe[1], COS_PEAKS, c)
        for i, k in enumerate(terms):
            if k == 0:
                term = _scale_pair(c, spec.eta_eps, t)
                term += spec.d
            elif k == 1:
                term = a
                if track_y:
                    term = _scale_pair(y_grid, 2.0 * spec.lam2, t_grid)
                    term += a
            else:
                term = _scale_pair(c, spec.nu1, fe)
                term += spec.nu0
                if track_y:
                    v = term
                    term = _scale_pair(y_grid, spec.nu2, t_grid)
                    term += v
            sums[i] += _log_pair(term, TERMS[k])

        if track_y and j > 1:
            _fiber_step(spec, a, c, y_grid, bufs[0].reshape(grid),
                        bufs[2].reshape(grid), t_grid)

    for i in range(len(terms)):
        acc[i, 0].min(axis=0, out=out[i, 0])
        acc[i, 1].max(axis=0, out=out[i, 1])


def _fiber_step(spec, a, c, y, p, q, r):
    """One fiber step of the interval enclosure, y <- lam(x, y) + u(x).

    a is the y-free part of lam' and c the range of cos on the level; y is
    updated in place through the scratch pairs p, q and r.  a * y is the
    (min, max) of the corner products, taken as min(min(p1, p2),
    min(p3, p4)); y**2 is (min, max) of lo**2 and hi**2, its min 0 where
    the interval holds 0; each is then scaled and summed in the order of
    the map, lam2 * y**2 after a * y and u last.
    """
    lo, hi = y
    np.multiply(a[0], lo, out=q[0])
    np.multiply(a[0], hi, out=q[1])
    np.minimum(q[0], q[1], out=p[0])
    np.maximum(q[0], q[1], out=p[1])
    np.multiply(a[1], lo, out=q[0])
    np.multiply(a[1], hi, out=q[1])
    np.minimum(q[0], q[1], out=r[0])
    np.maximum(q[0], q[1], out=r[1])
    np.minimum(p[0], r[0], out=p[0])
    np.maximum(p[1], r[1], out=p[1])
    np.multiply(lo, lo, out=q[0])
    np.multiply(hi, hi, out=q[1])
    np.minimum(q[0], q[1], out=r[0])
    np.maximum(q[0], q[1], out=r[1])
    np.copyto(r[0], 0.0, where=(lo <= 0.0) & (hi >= 0.0))
    p += _scale_pair(r, spec.lam2, q)
    p += _scale_pair(c, spec.u_amp, r.reshape(-1)[:c.size].reshape(c.shape))
    np.clip(p, -1.0, 1.0, out=y)


# ---------------------------------------------------------------------------
# Pressure and the dimension root
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PressureBracket:
    t: float
    n: int
    p_lo: float
    p_hi: float


def _logsumexp(a, out=None):
    """log(sum(exp(a))) of a 1-d array in scipy.special.logsumexp's steps.

    The steps run in out, a float array of a's shape that may be a itself
    (a is then overwritten), or else in one new array.  scipy's steps end
    in a non-finite value exactly when max(a) is not finite, and then
    fall back to log(sum(exp(a))), taken here at once.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        if not np.isfinite(a_max):
            return np.log(np.exp(a).sum())
        top = a == a_max
        m = np.count_nonzero(top)
        out = np.subtract(a, a_max, out=out)
        np.copyto(out, -np.inf, where=top)
        del top
        s = np.exp(out, out=out).sum()
        if s != 0.0:
            s = s / m
        return np.log1p(s) + np.log(m) + a_max


def _pressure(table: BirkhoffTable, t: float, upper: bool) -> float:
    """Upper (or lower) cylinder-sum pressure bound of t*log(lam')."""
    sums = table.lam_sup if (t >= 0.0) == upper else table.lam_inf
    a = np.multiply(sums, t)
    return float(_logsumexp(a, out=a)) / table.n


def pressure_bracket(spec: SolenoidSpec, t: float, n: int) -> PressureBracket:
    """Bracket of the cylinder-sum pressure of the potential t*log(lam')."""
    table = birkhoff_table(spec, n)
    return PressureBracket(t=float(t), n=n, p_lo=_pressure(table, t, False),
                           p_hi=_pressure(table, t, True))


def _bisect_decreasing(f, lo, hi, tol):
    """Final bracket of the root of a strictly decreasing function."""
    flo, fhi = f(lo), f(hi)
    if flo < 0.0 or fhi > 0.0:
        raise SpecInvalidError(
            f"pressure does not bracket a root on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def solve_bowen(spec: SolenoidSpec, n: int, tol: float = 1e-6):
    """Interval around the zero of the pressure in the exponent t.

    Returns (t0_lo, t0_hi) with t0_lo from the root of the lower pressure
    bound and t0_hi from the root of the upper bound, each located by
    bisection to width tol (or to adjacent floats); the interval contains
    the true root of the limiting pressure at every generation.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    table = birkhoff_table(spec, n)
    p_lo = partial(_pressure, table, upper=False)
    p_hi = partial(_pressure, table, upper=True)

    if p_lo(0.0) < 0.0:
        raise SpecInvalidError("pressure at t=0 is negative; degenerate family")
    t_max = 4.0
    while p_hi(t_max) >= 0.0:
        t_max *= 2.0
        if t_max > 4096.0:
            raise SpecInvalidError(
                "pressure stays nonnegative; fiber maps do not contract")
    lo_bracket = _bisect_decreasing(p_lo, 0.0, t_max, tol)
    hi_bracket = _bisect_decreasing(p_hi, 0.0, t_max, tol)
    return lo_bracket[0], hi_bracket[1]


# ---------------------------------------------------------------------------
# Gibbs weights, exponents, regime flags
# ---------------------------------------------------------------------------

def gibbs_weight_array(spec: SolenoidSpec, t: float, n: int) -> np.ndarray:
    """Normalized cylinder weights exp(t*S_mid) in lexicographic word order."""
    logw = birkhoff_table(spec, n).lam_mid
    logw *= t
    logw -= _logsumexp(logw)
    return np.exp(logw, out=logw)


@dataclass(frozen=True)
class GibbsModel:
    """Dimension-root bracket plus the generation-n Gibbs approximation:
    the weights, their per-step means chi_* of the log-derivatives and
    their normalized Shannon entropy -(1/n) sum w log w."""

    t0_lo: float
    t0_hi: float
    n: int
    weights: np.ndarray  # read-only, lexicographic backward-word order
    chi_eta: float
    chi_lam: float
    chi_nu: float
    entropy: float

    @property
    def t0_mid(self):
        return 0.5 * (self.t0_lo + self.t0_hi)


def build_gibbs_model(spec: SolenoidSpec, n: int,
                      tol: float = 1e-6) -> GibbsModel:
    """The cached GibbsModel of (spec, n, tol), shared and read-only."""
    return _build_gibbs_model(spec, int(n), float(tol))


@lru_cache(maxsize=8)
def _build_gibbs_model(spec: SolenoidSpec, n: int, tol: float) -> GibbsModel:
    t0_lo, t0_hi = solve_bowen(spec, n, tol)
    arr = gibbs_weight_array(spec, 0.5 * (t0_lo + t0_hi), n)
    arr.flags.writeable = False
    table = birkhoff_table(spec, n)
    # One scratch array takes each midpoint sum in turn, then w log w.
    scratch = np.empty_like(arr)
    chi = [float(arr @ _mid(inf, sup, scratch)) / n
           for inf, sup in ((table.eta_inf, table.eta_sup),
                            (table.lam_inf, table.lam_sup),
                            (table.nu_inf, table.nu_sup))]
    pos = arr if np.all(arr) else arr[arr > 0.0]  # weights are >= 0
    w_log_w = np.log(pos, out=scratch[:pos.size])
    w_log_w *= pos
    return GibbsModel(t0_lo=t0_lo, t0_hi=t0_hi, n=n, weights=arr,
                      chi_eta=chi[0], chi_lam=chi[1], chi_nu=chi[2],
                      entropy=float(-w_log_w.sum()) / n)


build_gibbs_model.cache_info = _build_gibbs_model.cache_info
build_gibbs_model.cache_clear = _build_gibbs_model.cache_clear


def _sample_words(spec, n, rng, size):
    """Indices of length-n words drawn with the weights of
    `build_gibbs_model(spec, n)`; every Gibbs word sample is drawn here."""
    weights = build_gibbs_model(spec, n).weights
    return rng.choice(weights.size, size=size, replace=True, p=weights)


@dataclass(frozen=True)
class RegimeFlags:
    thin: bool
    uniform_dissipation: bool
    bunching: bool


def classify_regime(spec: SolenoidSpec, model: GibbsModel) -> RegimeFlags:
    """Evaluate the thinness, uniform-dissipation, and bunching inequalities.

    Thinness compares the model's Lyapunov exponents; the two uniform
    conditions take pointwise sups/infs on a sample grid of the torus.
    """
    thin = model.chi_nu < model.chi_lam < -model.chi_eta
    xs = np.linspace(0.0, TWO_PI, REGIME_GRID, endpoint=False)
    ys = np.linspace(-1.0, 1.0, 65)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    lam_p = spec.lam_prime(gx, gy)
    nu_p = spec.nu_prime(gx, gy)
    eta_p = spec.eta_prime(gx)
    uniform = float(lam_p.max()) < 1.0 / float(eta_p.max())
    bunching = float((eta_p * nu_p - lam_p).min()) > 0.0
    return RegimeFlags(thin=bool(thin), uniform_dissipation=bool(uniform),
                       bunching=bool(bunching))


# ---------------------------------------------------------------------------
# Tilted pressures, deviation rates, and the non-Lipschitz dimension bound
# ---------------------------------------------------------------------------

# Tilts stronger than this count as unreachable deviations.
S_MAX = 512.0


def _tilt(table: BirkhoffTable, t0: float, psi_sum: np.ndarray):
    """(stats, degenerate) of the tilt family of psi at the root t0.

    psi_sum is the array of psi's per-word Birkhoff sums at the cylinder
    midpoints, in table word order.  stats(s) is the midpoint pressure
    P(t0*log lam' + s*psi) and the tilted per-step mean of psi;
    degenerate: psi's per-step spread is below 1e-12.
    """
    n = table.n
    base = table.lam_mid
    base *= t0
    scratch = np.empty_like(base)

    def stats(s):
        # The log-sum-exp runs in the scratch, which then takes logw again.
        logw = np.multiply(psi_sum, s, out=scratch)
        logw += base
        norm = _logsumexp(logw, out=logw)
        np.multiply(psi_sum, s, out=logw)
        logw += base
        logw -= norm
        w = np.exp(logw, out=logw)
        return float(norm) / n, float(w @ psi_sum) / n

    degenerate = float(psi_sum.max() - psi_sum.min()) / n < 1e-12
    return stats, degenerate


def _solve_tilt(stats, mean0, target):
    """Tilt strength s with deviation stats(s)[1] - mean0 = target.

    The deviation is monotone in s.  Returns None when no tilt up to
    S_MAX reaches the target (bounded observable).  The bisection stops
    once the midpoint equals an end: every later step would return that
    same midpoint.
    """
    def eps_of(s):
        return stats(s)[1] - mean0

    sign = 1.0 if target > 0 else -1.0
    s = sign
    while sign * eps_of(s) < sign * target:
        s *= 2.0
        if abs(s) > S_MAX:
            return None
    lo, hi = (0.0, s) if sign > 0 else (s, 0.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if eps_of(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _deviation_rates(table: BirkhoffTable, t0: float, psi_sum, eps):
    """Slower-tail rate at every deviation size in eps, one Legendre solve
    per tail; psi_sum is psi's per-word midpoint sums, as in `_tilt`.  The
    rate of a tilt s is its Legendre gap s*mean(s) - (P(s) - P(0));
    math.inf where neither tail reaches (or psi is degenerate)."""
    stats, degenerate = _tilt(table, t0, psi_sum)
    eps = np.asarray(eps, dtype=float)
    rates = np.full(eps.size, math.inf)
    if degenerate:
        return rates
    p0, mean0 = stats(0.0)

    def gap(s):
        ps, means = stats(s)
        return s * means - (ps - p0)

    for k, e in enumerate(eps):
        tilts = (_solve_tilt(stats, mean0, target) for target in (e, -e))
        rates[k] = min((gap(s) for s in tilts if s is not None),
                       default=math.inf)
    return rates


@dataclass(frozen=True)
class NLBound:
    """Grid optimum of the two-channel dimension bound for the weak
    non-Lipschitz set inside a stable slice."""

    best_eps: float
    a_eps: float
    b_eps: float
    bound: float
    eps_grid: np.ndarray
    a_values: np.ndarray
    b_values: np.ndarray
    irregular_degenerate: bool


def default_eps_grid():
    return np.geomspace(1e-3, 0.3, 12)


def _b_channel(t0, chi_lam, chi_eta, eps):
    ratio = (chi_eta + eps) / (-chi_lam - eps)
    num = t0 * (1.0 - eps / chi_lam - ratio) * (-chi_lam)
    den = (1.0 + ratio) * (-chi_lam + eps)
    return t0 - num / den


def nl_dimension_bound(spec: SolenoidSpec, model: GibbsModel,
                       eps_grid=None) -> NLBound:
    """Minimize max(A_eps, B_eps) over the deviation grid.

    A_eps bounds the dimension of the Birkhoff-irregular part through the
    deviation rates of log lam' and -log eta' (all formula variants are
    evaluated and the largest taken); B_eps bounds the regular
    contaminated part.  Degenerate observables empty the irregular
    channel, leaving the bound to the B channel alone.  The rates, like
    the channel formulas, are taken at the model's root t0_mid.
    """
    if eps_grid is None:
        eps_grid = default_eps_grid()
    eps_grid = np.asarray(eps_grid, dtype=float)
    t0 = model.t0_mid
    chi_lam, chi_eta = model.chi_lam, model.chi_eta
    table = birkhoff_table(spec, model.n)

    # Deviations of at least -chi_lam leave both channels at +inf.
    inside = ~(eps_grid >= -chi_lam)
    eps = eps_grid[inside]
    i_lam = _deviation_rates(table, t0, table.lam_mid, eps)
    i_eta = _deviation_rates(table, t0, -table.eta_mid, eps)
    d1 = 1.0 + (-chi_lam - eps) / (chi_eta + eps)
    d2 = 1.0 + (chi_eta + eps) / (-chi_lam - eps)
    # An infinite rate empties its channel variant: a -inf candidate.
    cands = [np.where(np.isfinite(i_val), t0 - (i_val / (-chi_lam)) / denom,
                      -math.inf)
             for i_val, denom in ((i_lam, d1), (i_eta, d2), (i_lam, d2))]
    a_vals, b_vals = np.full((2, eps_grid.size), math.inf)
    a_vals[inside] = np.max(cands, axis=0)
    b_vals[inside] = _b_channel(t0, chi_lam, chi_eta, eps)
    any_rate_finite = np.isfinite(i_lam).any() or np.isfinite(i_eta).any()

    combined = np.maximum(a_vals, b_vals)
    k_best = int(np.argmin(combined))
    return NLBound(
        best_eps=float(eps_grid[k_best]),
        a_eps=float(a_vals[k_best]),
        b_eps=float(b_vals[k_best]),
        bound=float(combined[k_best]),
        eps_grid=eps_grid,
        a_values=a_vals,
        b_values=b_vals,
        irregular_degenerate=not any_rate_finite,
    )


# ---------------------------------------------------------------------------
# Empirical deviation decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationDecay:
    threshold: float
    n_values: tuple
    fractions: tuple
    tau_emp: float
    tau_pred: float


def deviation_decay(spec: SolenoidSpec, n_values,
                    threshold: float = 0.05) -> DeviationDecay:
    """Gibbs mass of cylinders whose per-step mean deviates by >= threshold.

    The mean is that of log lam'.  Fits an exponential decay rate tau_emp
    across the generations and reports the two-sided rate prediction at the
    matching deviation.
    """
    n_values = tuple(int(n) for n in n_values)
    fractions = []
    for n in n_values:
        w = build_gibbs_model(spec, n).weights
        per_step = birkhoff_table(spec, n).lam_mid / n
        mean = float(w @ per_step)
        mask = np.abs(per_step - mean) >= threshold
        fractions.append(float(w[mask].sum()))
    ns = np.array(n_values, dtype=float)
    fr = np.array(fractions)
    keep = fr > 0.0
    if keep.sum() >= 2:
        slope = np.polyfit(ns[keep], np.log(fr[keep]), 1)[0]
        tau_emp = -float(slope)
    else:
        tau_emp = math.inf
    table = birkhoff_table(spec, max(n_values))
    t0 = build_gibbs_model(spec, table.n).t0_mid
    tau_pred = float(_deviation_rates(table, t0, table.lam_mid,
                                      [threshold])[0])
    return DeviationDecay(threshold=threshold, n_values=n_values,
                          fractions=tuple(fractions), tau_emp=tau_emp,
                          tau_pred=tau_pred)

