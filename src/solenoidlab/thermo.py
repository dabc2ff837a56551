"""Thermodynamic formalism on backward cylinders.

The central object is a table of rigorous per-cylinder bounds on the
Birkhoff sums of log eta', log lam', log nu' along the backward chain.
The base coordinate of a depth-j preimage is enclosed in an interval by
the monotone inverse-branch descent; where a derivative also depends on
the fiber coordinate, the y-range of the cylinder is propagated by
interval iteration from the anchor disc, so the bounds stay rigorous and
the per-word slack stays summable in the depth.

Sup-sums are subadditive under word concatenation and inf-sums are
superadditive, which gives nested pressure brackets: the true pressure of
the weighted cylinder sums lies between p_lo and p_hi at every
generation, and the root interval of the pressure function returned by
``solve_bowen`` therefore contains the dimension prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import logsumexp

from .coding import (ENUMERATION_CAP, Word, descend_levels,
                     enumerate_cylinders)
from .errors import CapExceededError, SpecInvalidError
from .maps import SolenoidSpec
from .numerics import (TWO_PI, interval_cos, interval_mul, interval_sin,
                       interval_square)

PSI_LOG_LAM = "log_lam"
PSI_NEG_LOG_ETA = "neg_log_eta"


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
        return 0.5 * (self.eta_inf + self.eta_sup)

    @property
    def lam_mid(self):
        return 0.5 * (self.lam_inf + self.lam_sup)

    @property
    def nu_mid(self):
        return 0.5 * (self.nu_inf + self.nu_sup)

    def psi_mid(self, psi):
        if psi == PSI_LOG_LAM:
            return self.lam_mid
        if psi == PSI_NEG_LOG_ETA:
            return -self.eta_mid
        raise ValueError(f"unknown potential name {psi!r}")


def _scale_interval(lo, hi, c):
    return (c * lo, c * hi) if c >= 0.0 else (c * hi, c * lo)


def _log_interval(lo, hi, what):
    if np.min(lo) <= 0.0:
        raise SpecInvalidError(
            f"{what} is not positive on a cylinder enclosure; "
            "the family violates the derivative hypotheses")
    return np.log(lo), np.log(hi)


BASE_SPLIT_DEPTH = 3


def _base_pieces(spec, m):
    """Endpoints of the generation-m forward cylinders partitioning the base."""
    from .coding import cylinder_base_interval
    words = enumerate_cylinders(spec, m, "forward")
    lo = np.empty(len(words))
    hi = np.empty(len(words))
    for k, w in enumerate(words):
        lo[k], hi[k] = cylinder_base_interval(spec, w)
    return lo, hi


def birkhoff_table(spec: SolenoidSpec, n: int,
                   cap: int = ENUMERATION_CAP) -> BirkhoffTable:
    """Build (and cache) the generation-n bound table for all d**n words.

    The base circle is pre-split into generation-min(3, n) forward
    cylinders and the interval descent runs per piece; sups and infs are
    reduced over pieces at the end.  Any chain started below a length-3
    word lands inside a single piece, so the piecewise bounds keep the
    exact sub/super-additivity under concatenation that bracket nesting
    relies on, while the per-level intervals shrink by roughly d**3.

    The cap is checked before the cache, which is keyed by (spec, n) alone,
    so each table is built once however `cap` is passed.
    """
    if n < 1:
        raise ValueError("table generation must be >= 1")
    if spec.d ** n > cap:
        raise CapExceededError(f"{spec.d}**{n} cylinders exceed the cap {cap}")
    return _birkhoff_table(spec, n)


@lru_cache(maxsize=8)
def _birkhoff_table(spec: SolenoidSpec, n: int) -> BirkhoffTable:
    d = spec.d
    count = d ** n
    lo, hi = _base_pieces(spec, min(BASE_SPLIT_DEPTH, n))
    n_pieces = lo.size
    # Level j stacks the lo and hi endpoint descents: (2, n_pieces, d**j).
    levels = descend_levels(spec, np.stack([lo, hi]), n)

    track_y = spec.lam2 != 0.0 or spec.nu2 != 0.0
    # Sums of (eta, lam, nu) x (inf, sup) per base piece and word.
    acc = np.zeros((3, 2, n_pieces, count))
    y_lo = np.full((n_pieces, count), -1.0)
    y_hi = np.full((n_pieces, count), 1.0)

    for j in range(n, 0, -1):
        # Word w takes column w mod d**j of level j: view the word axis as
        # (d**(n-j), d**j) and let the level broadcast over it.
        shape = (n_pieces, count // d ** j, d ** j)
        sums = acc.reshape((3, 2) + shape)
        y_lo, y_hi = y_lo.reshape(shape), y_hi.reshape(shape)
        xlo, xhi = levels[j - 1][:, :, None, :]
        s_lo, s_hi = interval_sin(xlo, xhi)
        c_lo, c_hi = interval_cos(xlo, xhi)
        e_lo, e_hi = _scale_interval(c_lo, c_hi, spec.eta_eps)
        # a: the y-free part of lam', also the slope of the fiber step below
        a_lo, a_hi = _scale_interval(s_lo, s_hi, spec.lam1)
        a_lo, a_hi = spec.lam0 + a_lo, spec.lam0 + a_hi
        v_lo, v_hi = _scale_interval(c_lo, c_hi, spec.nu1)
        v_lo, v_hi = spec.nu0 + v_lo, spec.nu0 + v_hi
        l_lo, l_hi = a_lo, a_hi
        if track_y:
            t_lo, t_hi = _scale_interval(y_lo, y_hi, 2.0 * spec.lam2)
            l_lo, l_hi = l_lo + t_lo, l_hi + t_hi
            t_lo, t_hi = _scale_interval(y_lo, y_hi, spec.nu2)
            v_lo, v_hi = v_lo + t_lo, v_hi + t_hi
        for k, (lo_k, hi_k, what) in enumerate((
                (d + e_lo, d + e_hi, "eta'"), (l_lo, l_hi, "lam'"),
                (v_lo, v_hi, "nu'"))):
            log_lo, log_hi = _log_interval(lo_k, hi_k, what)
            sums[k, 0] += log_lo
            sums[k, 1] += log_hi

        if track_y and j > 1:
            # One fiber step of the interval enclosure: y <- lam(x, y) + u(x).
            p_lo, p_hi = interval_mul(a_lo, a_hi, y_lo, y_hi)
            q_lo, q_hi = interval_square(y_lo, y_hi)
            q_lo, q_hi = _scale_interval(q_lo, q_hi, spec.lam2)
            u_lo, u_hi = _scale_interval(c_lo, c_hi, spec.u_amp)
            y_lo = np.clip(p_lo + q_lo + u_lo, -1.0, 1.0)
            y_hi = np.clip(p_hi + q_hi + u_hi, -1.0, 1.0)

    arrays = {}
    for k, name in enumerate(("eta", "lam", "nu")):
        arrays[f"{name}_inf"] = acc[k, 0].min(axis=0)
        arrays[f"{name}_sup"] = acc[k, 1].max(axis=0)
    for arr in arrays.values():
        arr.flags.writeable = False
    return BirkhoffTable(spec=spec, n=n, **arrays)


birkhoff_table.cache_info = _birkhoff_table.cache_info
birkhoff_table.cache_clear = _birkhoff_table.cache_clear


def birkhoff_bounds(spec: SolenoidSpec, word: Word, xi: str):
    """Rigorous (inf, sup) of the summed log-derivative over one cylinder.

    xi is one of "eta", "lam", "nu".
    """
    if word.direction != "backward":
        raise ValueError("birkhoff_bounds expects a backward word")
    if xi not in ("eta", "lam", "nu"):
        raise ValueError(f"unknown derivative name {xi!r}")
    table = birkhoff_table(spec, word.generation)
    idx = word.index(spec.d)
    return (float(getattr(table, f"{xi}_inf")[idx]),
            float(getattr(table, f"{xi}_sup")[idx]))


# ---------------------------------------------------------------------------
# Pressure and the dimension root
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PressureBracket:
    t: float
    n: int
    p_lo: float
    p_hi: float


def _pressure_lo_hi(table: BirkhoffTable, t: float):
    if t >= 0.0:
        hi = float(logsumexp(t * table.lam_sup)) / table.n
        lo = float(logsumexp(t * table.lam_inf)) / table.n
    else:
        hi = float(logsumexp(t * table.lam_inf)) / table.n
        lo = float(logsumexp(t * table.lam_sup)) / table.n
    return lo, hi


def pressure_bracket(spec: SolenoidSpec, t: float, n: int,
                     cap: int = ENUMERATION_CAP) -> PressureBracket:
    """Bracket of the cylinder-sum pressure of the potential t*log(lam')."""
    table = birkhoff_table(spec, n, cap)
    lo, hi = _pressure_lo_hi(table, t)
    return PressureBracket(t=float(t), n=n, p_lo=lo, p_hi=hi)


def _bisect_decreasing(f, lo, hi, tol):
    """Final bracket of the root of a strictly decreasing function."""
    flo, fhi = f(lo), f(hi)
    if flo < 0.0 or fhi > 0.0:
        raise SpecInvalidError(
            f"pressure does not bracket a root on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def solve_bowen(spec: SolenoidSpec, n: int, tol: float = 1e-6,
                cap: int = ENUMERATION_CAP):
    """Interval around the zero of the pressure in the exponent t.

    Returns (t0_lo, t0_hi) with t0_lo from the root of the lower pressure
    bound and t0_hi from the root of the upper bound, each located by
    bisection to width tol; the interval contains the true root of the
    limiting pressure at every generation.
    """
    table = birkhoff_table(spec, n, cap)

    def p_lo(t):
        return _pressure_lo_hi(table, t)[0]

    def p_hi(t):
        return _pressure_lo_hi(table, t)[1]

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

def gibbs_weight_array(spec: SolenoidSpec, t: float, n: int,
                       cap: int = ENUMERATION_CAP) -> np.ndarray:
    """Normalized cylinder weights exp(t*S_mid) in lexicographic word order."""
    table = birkhoff_table(spec, n, cap)
    logw = t * table.lam_mid
    logw = logw - logsumexp(logw)
    return np.exp(logw)


def gibbs_weights(spec: SolenoidSpec, t: float, n: int,
                  cap: int = ENUMERATION_CAP) -> dict:
    """Cylinder weight table keyed by backward Word, summing to one."""
    arr = gibbs_weight_array(spec, t, n, cap)
    words = enumerate_cylinders(spec, n, "backward", cap)
    return dict(zip(words, arr.tolist()))


def _weights_as_array(spec, weights, n):
    if isinstance(weights, np.ndarray):
        arr = weights
    elif isinstance(weights, dict):
        if len(weights) != spec.d ** n:
            raise ValueError("weight table does not cover all words")
        arr = np.empty(spec.d ** n)
        for w, val in weights.items():
            arr[w.index(spec.d)] = val
    else:
        arr = np.asarray(weights, dtype=float)
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValueError("weights must be normalized to sum 1")
    return arr


def lyapunov_exponents(spec: SolenoidSpec, weights, n: int):
    """Weighted per-step means of the log-derivatives plus the word entropy.

    Returns (chi_eta, chi_lam, chi_nu, entropy); the entropy is the
    normalized Shannon entropy -(1/n) sum w log w of the weight table.
    """
    arr = _weights_as_array(spec, weights, n)
    table = birkhoff_table(spec, n)
    chi_eta = float(arr @ table.eta_mid) / n
    chi_lam = float(arr @ table.lam_mid) / n
    chi_nu = float(arr @ table.nu_mid) / n
    pos = arr[arr > 0.0]
    entropy = float(-(pos * np.log(pos)).sum()) / n
    return chi_eta, chi_lam, chi_nu, entropy


@dataclass(frozen=True)
class GibbsModel:
    """Dimension-root bracket plus the generation-n Gibbs approximation."""

    t0_lo: float
    t0_hi: float
    n: int
    weights: dict
    chi_eta: float
    chi_lam: float
    chi_nu: float
    entropy: float

    @property
    def t0_mid(self):
        return 0.5 * (self.t0_lo + self.t0_hi)

    def weight_array(self, spec):
        return _weights_as_array(spec, self.weights, self.n)


def build_gibbs_model(spec: SolenoidSpec, n: int, tol: float = 1e-6,
                      cap: int = ENUMERATION_CAP) -> GibbsModel:
    t0_lo, t0_hi = solve_bowen(spec, n, tol, cap)
    t0 = 0.5 * (t0_lo + t0_hi)
    arr = gibbs_weight_array(spec, t0, n, cap)
    chi_eta, chi_lam, chi_nu, entropy = lyapunov_exponents(spec, arr, n)
    words = enumerate_cylinders(spec, n, "backward", cap)
    return GibbsModel(t0_lo=t0_lo, t0_hi=t0_hi, n=n,
                      weights=dict(zip(words, arr.tolist())),
                      chi_eta=chi_eta, chi_lam=chi_lam, chi_nu=chi_nu,
                      entropy=entropy)


@dataclass(frozen=True)
class RegimeFlags:
    thin: bool
    uniform_dissipation: bool
    bunching: bool

    def to_dict(self):
        return {"thin": self.thin,
                "uniform_dissipation": self.uniform_dissipation,
                "bunching": self.bunching}


def classify_regime(spec: SolenoidSpec, model: GibbsModel,
                    grid_density: int = 256) -> RegimeFlags:
    """Evaluate the thinness, uniform-dissipation, and bunching inequalities.

    Thinness compares the model's Lyapunov exponents; the two uniform
    conditions take pointwise sups/infs on a sample grid of the torus.
    """
    thin = model.chi_nu < model.chi_lam < -model.chi_eta
    xs = np.linspace(0.0, TWO_PI, grid_density, endpoint=False)
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

@dataclass(frozen=True)
class RateResult:
    """Legendre deviation rate of a tilted cylinder potential."""

    i_value: float
    eps: float
    degenerate: bool


@lru_cache(maxsize=32)
def _phi_exponent(spec: SolenoidSpec, n: int) -> float:
    lo, hi = solve_bowen(spec, n)
    return 0.5 * (lo + hi)


def _tilt_stats(table: BirkhoffTable, t0: float, psi: str, s: float):
    """Midpoint tilted pressure and tilted mean of psi at tilt strength s."""
    n = table.n
    base = t0 * table.lam_mid
    psi_sum = table.psi_mid(psi)
    logw = base + s * psi_sum
    norm = logsumexp(logw)
    w = np.exp(logw - norm)
    mean_psi = float(w @ psi_sum) / n
    pressure = float(norm) / n
    return pressure, mean_psi


def rate_function(spec: SolenoidSpec, psi: str, t_aux: float, n: int) -> RateResult:
    """Deviation epsilon and positive rate I of the tilt t_aux.

    psi selects the observable: "log_lam" or "neg_log_eta".  The rate is
    the Legendre gap  t*E_tilted[psi] - (P(phi + t*psi) - P(phi)),
    nonnegative and zero exactly at t_aux = 0; epsilon is the shift of the
    mean of psi under the tilt.  A constant observable is flagged
    degenerate: deviations of positive size then have infinite rate.
    """
    table = birkhoff_table(spec, n)
    t0 = _phi_exponent(spec, n)
    psi_sum = table.psi_mid(psi)
    spread = float(psi_sum.max() - psi_sum.min()) / n
    degenerate = spread < 1e-12
    p0, mean0 = _tilt_stats(table, t0, psi, 0.0)
    ps, means = _tilt_stats(table, t0, psi, t_aux)
    eps = means - mean0
    i_value = t_aux * means - (ps - p0)
    return RateResult(i_value=float(i_value), eps=float(eps),
                      degenerate=bool(degenerate))


def _solve_tilt(spec, psi, n, eps_target, s_max=512.0):
    """Tilt strength s with deviation eps(s) = eps_target (monotone in s).

    Returns None when the deviation is unreachable (bounded observable) or
    the observable is degenerate.
    """
    table = birkhoff_table(spec, n)
    t0 = _phi_exponent(spec, n)
    psi_sum = table.psi_mid(psi)
    if float(psi_sum.max() - psi_sum.min()) / n < 1e-12:
        return None
    _, mean0 = _tilt_stats(table, t0, psi, 0.0)

    def eps_of(s):
        return _tilt_stats(table, t0, psi, s)[1] - mean0

    sign = 1.0 if eps_target > 0 else -1.0
    s = sign
    while sign * eps_of(s) < sign * eps_target:
        s *= 2.0
        if abs(s) > s_max:
            return None
    lo, hi = (0.0, s) if sign > 0 else (s, 0.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if eps_of(mid) < eps_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def deviation_rate(spec: SolenoidSpec, psi: str, eps: float, n: int) -> float:
    """Two-sided rate at deviation size eps: the slower of the two tails.

    Returns math.inf when neither tail can deviate by eps (degenerate or
    bounded observable), meaning the deviating set is empty.
    """
    rates = []
    for target in (eps, -eps):
        s = _solve_tilt(spec, psi, n, target)
        if s is not None:
            rates.append(rate_function(spec, psi, s, n).i_value)
    return min(rates) if rates else math.inf


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

    def to_dict(self):
        return {
            "best_eps": self.best_eps, "a_eps": self.a_eps,
            "b_eps": self.b_eps, "bound": self.bound,
            "irregular_degenerate": self.irregular_degenerate,
            "eps_grid": self.eps_grid.tolist(),
            "a_values": [None if not math.isfinite(v) else v
                         for v in self.a_values.tolist()],
            "b_values": self.b_values.tolist(),
        }


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
    channel, leaving the bound to the B channel alone.
    """
    if eps_grid is None:
        eps_grid = default_eps_grid()
    eps_grid = np.asarray(eps_grid, dtype=float)
    t0 = model.t0_mid
    chi_lam, chi_eta = model.chi_lam, model.chi_eta
    n = model.n

    a_vals = np.empty(eps_grid.size)
    b_vals = np.empty(eps_grid.size)
    any_rate_finite = False
    for k, eps in enumerate(eps_grid):
        if eps >= -chi_lam:
            a_vals[k] = math.inf
            b_vals[k] = math.inf
            continue
        i_lam = deviation_rate(spec, PSI_LOG_LAM, eps, n)
        i_eta = deviation_rate(spec, PSI_NEG_LOG_ETA, eps, n)
        d1 = 1.0 + (-chi_lam - eps) / (chi_eta + eps)
        d2 = 1.0 + (chi_eta + eps) / (-chi_lam - eps)
        cands = []
        for i_val, denom in ((i_lam, d1), (i_eta, d2), (i_lam, d2)):
            if math.isfinite(i_val):
                cands.append(t0 - (i_val / (-chi_lam)) / denom)
                any_rate_finite = True
        a_vals[k] = max(cands) if cands else -math.inf
        b_vals[k] = _b_channel(t0, chi_lam, chi_eta, eps)

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
# Empirical deviation decay and Gibbs quasi-multiplicativity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationDecay:
    threshold: float
    n_values: tuple
    fractions: tuple
    tau_emp: float
    tau_pred: float

    def to_dict(self):
        return {"threshold": self.threshold,
                "n_values": list(self.n_values),
                "fractions": list(self.fractions),
                "tau_emp": self.tau_emp, "tau_pred": self.tau_pred}


def deviation_decay(spec: SolenoidSpec, n_values, threshold: float = 0.05,
                    psi: str = PSI_LOG_LAM) -> DeviationDecay:
    """Gibbs mass of cylinders whose per-step mean deviates by >= threshold.

    Fits an exponential decay rate tau_emp across the generations and
    reports the two-sided rate prediction at the matching deviation.
    """
    n_values = tuple(int(n) for n in n_values)
    fractions = []
    for n in n_values:
        table = birkhoff_table(spec, n)
        t0 = _phi_exponent(spec, n)
        w = gibbs_weight_array(spec, t0, n)
        per_step = table.psi_mid(psi) / n
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
    tau_pred = deviation_rate(spec, psi, threshold, max(n_values))
    return DeviationDecay(threshold=threshold, n_values=n_values,
                          fractions=tuple(fractions), tau_emp=tau_emp,
                          tau_pred=tau_pred)


def quasi_multiplicativity_stats(spec: SolenoidSpec, n1: int, n2: int,
                                 t: float):
    """Range of weight(w1+w2) / (weight(w1)*weight(w2)) over all pairs.

    The concatenation places w1 in the deeper past.  Bounded ranges across
    generations are the empirical Gibbs-property check.
    """
    w1 = gibbs_weight_array(spec, t, n1)
    w2 = gibbs_weight_array(spec, t, n2)
    w12 = gibbs_weight_array(spec, t, n1 + n2)
    ratio = w12.reshape(w1.size, w2.size) / np.outer(w1, w2)
    return float(ratio.min()), float(ratio.max())
