"""Bose-Einstein and Fermi-Dirac occupation spectra and their solvers.

The mean occupation of a mode of energy eps at chemical potential mu is

    n(eps) = 1 / (exp((eps - mu)/kT) -+ 1)        (-1 bose, +1 fermi)

with the relativistic dispersion eps = sqrt((p c)^2 + (m c^2)^2) and the
momentum-shell mode count g_p = 4 pi V p^2 dp / h^3.

Two independent numerical routes are provided on top of the closed form:
a chemical-potential solver inverting the total-number sum, and a
maximum-entropy solver that optimizes the continuous (Stirling) entropy
of the exact quantum counts under particle-number and energy constraints
via Newton iterations on the two Lagrange multipliers.  Each root solve
is one ``brentq`` on a closed-form bracket.  Each bin's stationarity
condition s'(n) = a + b*eps is inverted in closed form (it is the
occupation formula at x = a + b*eps), so agreement of the two routes
checks that the multipliers meeting (N, E) are b = 1/kT and a = -mu/kT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BosePole,
    Infeasible,
    NoBracket,
    NoConvergence,
    SaturationExceeded,
)

__all__ = [
    "GasSpec",
    "MomentumGrid",
    "dispersion",
    "mode_count",
    "occupancy",
    "grid_energies",
    "grid_mode_counts",
    "solve_mu",
    "solve_mu_on_levels",
    "saturation_count",
    "MaxEntResult",
    "max_entropy_occupancies",
    "max_entropy_on_levels",
]

# Bose chemical potentials stay this many thermal units below the lowest
# level, or one float below it where that rounds to the level itself.
BOSE_MU_MARGIN = 1e-12


def _bose_mu_max(eps0: float, kT: float) -> float:
    return min(eps0 - BOSE_MU_MARGIN * kT, float(np.nextafter(eps0, -np.inf)))


@dataclass(frozen=True)
class GasSpec:
    """Ideal-gas parameters in configurable units (natural by default)."""

    volume: float
    temperature: float
    mass: float
    statistics: str
    c: float = 1.0
    h: float = 1.0
    k: float = 1.0

    def __post_init__(self):
        if self.statistics not in ("bose", "fermi"):
            raise ValueError(f"statistics must be 'bose' or 'fermi', got {self.statistics!r}")
        for name in ("volume", "temperature", "mass", "c", "h", "k"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        # dispersion squares mass*c**2 and mode_count divides by h**3; a
        # float ** raises OverflowError where * gives inf.  A rest energy
        # that underflows to 0 is the massless limit and stays allowed.
        rest = self.mass * (self.c * self.c)
        if not math.isfinite(rest * rest):
            raise ValueError(f"mass*c**2 and its square must be finite, "
                             f"got mass = {self.mass}, c = {self.c}")
        if not 0 < self.h * self.h * self.h < math.inf:
            raise ValueError(f"h**3 must be positive and finite, got h = {self.h}")

    @property
    def kT(self) -> float:
        return self.k * self.temperature


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum bins on [p_min, p_max]; energies at bin centers."""

    p_min: float
    p_max: float
    bins: int

    def __post_init__(self):
        if not (0 <= self.p_min < self.p_max < math.inf):
            raise ValueError("MomentumGrid requires 0 <= p_min < p_max < inf")
        if self.bins < 8:
            raise ValueError("MomentumGrid requires at least 8 bins")

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.bins

    def centers(self) -> np.ndarray:
        return self.p_min + (np.arange(self.bins) + 0.5) * self.dp


def dispersion(p, spec: GasSpec):
    """Total energy sqrt((p c)^2 + (m c^2)^2), rest energy included."""
    p = np.asarray(p, dtype=float)
    out = np.sqrt((p * spec.c) ** 2 + (spec.mass * spec.c**2) ** 2)
    return float(out) if out.ndim == 0 else out


def mode_count(p, dp: float, spec: GasSpec):
    """Number of quantum cells in a momentum shell: 4 pi V p^2 dp / h^3."""
    p = np.asarray(p, dtype=float)
    out = 4.0 * np.pi * spec.volume * p * p * dp / spec.h**3
    return float(out) if out.ndim == 0 else out


def _occupation(x, statistics: str):
    """Mean occupation of one mode at x = (eps - mu)/kT."""
    if statistics == "bose":
        # expm1 overflows to inf past x ~ 709, where 1/inf = 0 is the
        # right occupation; only the warning is silenced.
        with np.errstate(over="ignore"):
            return 1.0 / np.expm1(x)
    # e^-x / (1 + e^-x) past 0 and 1 / (1 + e^x) below it: one exp that
    # never overflows, and e^-x itself far out in the tail
    e = np.exp(-np.abs(x))
    return np.where(x > 0, e, 1.0) / (1.0 + e)


def occupancy(eps, mu: float, spec: GasSpec, g_p=None):
    """Mean occupation per mode, times g_p if a mode count is supplied.

    Bose occupancies require eps > mu strictly; violating energies raise
    :class:`BosePole`.
    """
    eps = np.asarray(eps, dtype=float)
    if spec.statistics == "bose" and np.any(eps <= mu):
        raise BosePole(f"bose occupancy needs eps > mu, got eps <= {mu}")
    # a subnormal kT sends x to inf, where the occupation 0 is right
    with np.errstate(over="ignore"):
        x = (eps - mu) / spec.kT
    out = _occupation(x, spec.statistics)
    if g_p is not None:
        out = out * np.asarray(g_p, dtype=float)
    return float(out) if out.ndim == 0 else out


def grid_energies(spec: GasSpec, grid: MomentumGrid) -> np.ndarray:
    return dispersion(grid.centers(), spec)


def grid_mode_counts(spec: GasSpec, grid: MomentumGrid) -> np.ndarray:
    return mode_count(grid.centers(), grid.dp, spec)


def _total_number(mu: float, eps: np.ndarray, g: np.ndarray, kT: float,
                  statistics: str) -> float:
    """sum g n(x).  At a subnormal kT, x overflows to inf, where the
    occupation 0 is right; callers silence the warning once, around every
    count of a solve, rather than per count."""
    return float(np.sum(g * _occupation((eps - mu) / kT, statistics)))


def saturation_count(spec: GasSpec, grid: MomentumGrid) -> float:
    """Largest particle number reachable for bosons on this grid."""
    eps = grid_energies(spec, grid)
    g = grid_mode_counts(spec, grid)
    with np.errstate(over="ignore"):
        return _total_number(_bose_mu_max(float(eps.min()), spec.kT), eps, g,
                             spec.kT, "bose")


# x = (eps - mu)/kT overflows to inf at a subnormal kT, where the
# occupation 0 is right: the warning is silenced once per solve.
@np.errstate(over="ignore")
def solve_mu_on_levels(n_target: float, eps, g, kT: float,
                       statistics: str) -> float:
    """Chemical potential fixing sum_i g_i n(eps_i, mu) = n_target.

    One ``brentq`` on a closed-form bracket, to a relative number error of
    1e-10.  With x = (eps - mu)/kT, eps0 = min eps, G = sum g and
    z = sum g exp((eps0 - eps)/kT), the ends are
    lower eps0 + kT min(-1, ln(N/2z)), since n(x) < 2 e^-x for x >= 1;
    fermi upper max eps + kT (1 + ln(G/(G - N))), since 1 - n(x) < e^x;
    bose upper min(eps0 - 1e-12 kT, the float below eps0); a larger N raises
    SaturationExceeded.  N and kT must be finite and positive (``ValueError``).
    Fermi N >= G and a bracket lost to rounding raise :class:`NoBracket`; a
    root missing N by more than 1e-10 raises :class:`NoConvergence`.
    """
    eps = np.asarray(eps, dtype=float)
    g = np.asarray(g, dtype=float)
    for name, value in (("n_target", n_target), ("kT", kT)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    count = lambda mu: _total_number(mu, eps, g, kT, statistics)

    eps_min = float(eps.min())
    if statistics == "bose":
        hi = _bose_mu_max(eps_min, kT)
        if (cap := count(hi)) < n_target:
            raise SaturationExceeded(
                f"N={n_target} exceeds the grid saturation count {cap:.6g}")
    else:
        total_modes = float(g.sum())
        if n_target >= total_modes:
            raise NoBracket(
                f"fermi N={n_target} not below the total mode count {total_modes:.6g}")
        hi = float(eps.max()) + kT * (1.0 + math.log(total_modes / (total_modes - n_target)))
    z = float(np.sum(g * np.exp((eps_min - eps) / kT)))
    # z = 0 when no weight survives: no log, and the count at eps0 - kT is 0 too
    shift = math.log(n_target) - math.log(2.0 * z) if z > 0 else -1.0
    lo = eps_min + kT * min(-1.0, shift)

    from scipy.optimize import brentq  # scipy loads only where it is used

    # disp=False: a root not pinned within maxiter falls through to the
    # NoConvergence check below instead of raising RuntimeError
    try:
        mu = brentq(lambda m: count(m) - n_target, lo, hi,
                    xtol=1e-300, rtol=4 * np.finfo(float).eps, disp=False)
    except ValueError as exc:
        raise NoBracket(f"mu bracket [{lo!r}, {hi!r}] lost to rounding: {exc}") from exc
    miss = abs(count(mu) - n_target) / n_target
    if miss > 1e-10:
        raise NoConvergence(f"mu solve stalled at relative error {miss:.3e}")
    return float(mu)


def solve_mu(n_target: float, spec: GasSpec, grid: MomentumGrid) -> float:
    """Solve for mu on the physical momentum grid of the gas."""
    return solve_mu_on_levels(
        n_target, grid_energies(spec, grid), grid_mode_counts(spec, grid),
        spec.kT, spec.statistics,
    )


# -- maximum-entropy route -------------------------------------------------
#
# Continuous relaxation of ln w_i by Stirling's x ln x - x:
#   bose:  s(n) = (n+g) ln(n+g) - n ln n - g ln g,   s'(n) = ln(1 + g/n)
#   fermi: s(n) = g ln g - n ln n - (g-n) ln(g-n),   s'(n) = ln((g-n)/n)
# Maximizing sum_i s(n_i) under sum n_i = N and sum n_i eps_i = E gives
# s'(n_i) = a + b*eps_i, whose solution is the closed-form distribution
# with b = 1/kT and a = -mu/kT.


def _stationary_n(c, g, statistics: str):
    """Solve s'(n_i) = c_i for every bin: n_i = g_i times the occupation at c_i."""
    if statistics == "bose" and np.any(c <= 0):
        raise Infeasible("bose multipliers must keep a + b*eps positive")
    return g * _occupation(c, statistics)


def _d_stationary(n, g, statistics: str):
    """1 / s''(n), the sensitivity of each bin's solution to its multiplier."""
    if statistics == "fermi":
        return -n * (g - n) / g
    return -n * (n + g) / g


class MaxEntResult(NamedTuple):
    occupancies: np.ndarray
    temperature: float
    mu: float
    multiplier_number: float
    multiplier_energy: float
    iterations: int


def _boltzmann_multipliers(eps: np.ndarray, g: np.ndarray, n_target: float,
                           e_target: float) -> tuple[float, float]:
    """Classical-limit starting point for the Newton iteration.

    b is the root of h(b) = sum g (x - gap) e^(-b x), x = eps - eps0 and
    gap = E/N - eps0, found by ``brentq`` on [0, (1 + ln(G/g0))/gap]:
    h(0) > 0 iff the target mean is below the mode-weighted mean, and h < 0
    at the upper end (g0 = g at eps0, G = sum g).  h(0) < 0 (a negative
    temperature) raises :class:`Infeasible`; the tie h(0) = 0 takes b = 1/gap.
    """
    low = int(np.argmin(eps))
    eps0 = float(eps[low])
    x = eps - eps0
    gap = e_target / n_target - eps0
    h = lambda b: float(np.sum(g * (x - gap) * np.exp(-b * x)))
    h0 = h(0.0)
    if h0 < 0:
        raise Infeasible(f"mean energy {e_target / n_target:.6g} above the mode-weighted "
                         "mean needs a negative temperature")
    if h0 == 0:
        b = 1.0 / gap
    else:
        from scipy.optimize import brentq

        b = brentq(h, 0.0, (1.0 + math.log(float(g.sum()) / g[low])) / gap, rtol=1e-12)
    a = math.log(float(np.sum(g * np.exp(-b * x)))) - math.log(n_target) - b * eps0
    return a, b


def max_entropy_on_levels(eps, g, n_target: float, e_target: float,
                          statistics: str, k: float = 1.0,
                          max_iter: int = 200) -> MaxEntResult:
    """Maximize the Stirling entropy of the counts under (N, E) constraints.

    Newton iterations on the two Lagrange multipliers (a, b); each step
    inverts every bin's stationarity condition s'(n_i) = a + b*eps_i in
    closed form and halves the step until the (N, E) residual falls.  Returns
    the occupancies together with the implied temperature and chemical
    potential.  Mode counts must be finite and positive (``ValueError``).
    Raises :class:`Infeasible` for unattainable (N, E) pairs, a mean energy
    above the mode-weighted mean (negative temperature) among them, and
    :class:`NoConvergence` past max_iter iterations.
    """
    eps = np.asarray(eps, dtype=float)
    g = np.asarray(g, dtype=float)
    if not np.all((0 < g) & (g < math.inf)):
        raise ValueError("mode counts must be finite and positive")
    if n_target <= 0:
        raise Infeasible(f"N must be positive, got {n_target}")
    if statistics == "fermi" and n_target >= float(g.sum()):
        raise Infeasible(
            f"fermi N={n_target} needs more than the {g.sum():.6g} available modes"
        )
    mean = e_target / n_target
    if len(eps) > 1 and not (float(eps.min()) < mean < float(eps.max())):
        raise Infeasible(
            f"mean energy {mean:.6g} outside the level range "
            f"[{eps.min():.6g}, {eps.max():.6g}]"
        )

    if len(eps) == 1:
        # degenerate pair of constraints: N alone determines the bin, the
        # energy multiplier is undetermined; pick b = 1 and make a
        # consistent with stationarity
        if abs(e_target - eps[0] * n_target) > 1e-9 * max(abs(e_target), 1.0):
            raise Infeasible("single-level E must equal eps * N")
        b = 1.0
        prime = (math.log1p(g[0] / n_target) if statistics == "bose"
                 else math.log((g[0] - n_target) / n_target))
        a = prime - b * eps[0]
        return MaxEntResult(
            occupancies=np.array([n_target]),
            temperature=1.0 / (k * b), mu=-a / b,
            multiplier_number=a, multiplier_energy=b, iterations=0,
        )

    a, b = _boltzmann_multipliers(eps, g, n_target, e_target)
    eps_min = float(eps.min())
    if statistics == "bose" and a + b * eps_min <= 0:
        a = -b * eps_min + 1e-6

    e_scale = max(abs(e_target), 1e-300)
    n = _stationary_n(a + b * eps, g, statistics)
    for iteration in range(1, max_iter + 1):
        f_n = float(n.sum()) - n_target
        f_e = float((n * eps).sum()) - e_target
        if abs(f_n) <= 1e-12 * n_target and abs(f_e) <= 1e-12 * e_scale:
            temperature = 1.0 / (k * b)
            return MaxEntResult(
                occupancies=n, temperature=temperature, mu=-a / b,
                multiplier_number=a, multiplier_energy=b, iterations=iteration,
            )
        dn = _d_stationary(n, g, statistics)
        j = np.array(
            [[float(dn.sum()), float((dn * eps).sum())],
             [float((dn * eps).sum()), float((dn * eps * eps).sum())]]
        )
        try:
            step = np.linalg.solve(j, -np.array([f_n, f_e]))
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular multiplier Jacobian: {exc}") from exc
        r_now = abs(f_n) / n_target + abs(f_e) / e_scale
        scale_factor = 1.0
        for _ in range(60):
            a_try = a + scale_factor * step[0]
            b_try = b + scale_factor * step[1]
            if b_try > 0 and (statistics == "fermi" or a_try + b_try * eps_min > 0):
                n_try = _stationary_n(a_try + b_try * eps, g, statistics)
                r_try = (abs(float(n_try.sum()) - n_target) / n_target
                         + abs(float((n_try * eps).sum()) - e_target) / e_scale)
                if r_try < r_now:
                    break
            scale_factor *= 0.5
        else:
            raise NoConvergence("multiplier line search stalled")
        a, b, n = a_try, b_try, n_try
    raise NoConvergence(f"no convergence after {max_iter} Newton iterations")


def max_entropy_occupancies(spec: GasSpec, grid: MomentumGrid,
                            n_target: float, e_target: float,
                            max_iter: int = 200) -> MaxEntResult:
    """Maximum-entropy occupancies on the physical momentum grid."""
    return max_entropy_on_levels(
        grid_energies(spec, grid), grid_mode_counts(spec, grid),
        n_target, e_target, spec.statistics, spec.k, max_iter,
    )
