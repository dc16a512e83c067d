"""Analytic one-dimensional Gaussian wavepacket of a free particle.

The packet is parametrized by mass m0, minimum width sigma, center
position x0 at the minimum-width time t0, and center wavenumber k0.
With the spreading factor

    A(t) = 2*hbar*(t - t0) / (m0 * sigma**2)

the amplitude is

    psi(x, t) = (2 / (pi*sigma^2*(1+A^2)))^(1/4)
                * exp(-xi^2 / (sigma^2*(1+A^2)))
                * exp(i * [A*xi^2/(sigma^2*(1+A^2)) - arctan(A)/2
                           + k0*(x-x0) - hbar*k0^2*(t-t0)/(2*m0)])

where xi = x - x0 - (hbar*k0/m0)*(t - t0) is the distance from the moving
center c(t).  Equivalently psi = amp*exp(-q*xi^2 + i*k0*xi + i*phi) with

    q = 1/(sigma^2*(1 + i*A)),  amp = (2/(pi*sigma^2*(1+A^2)))^(1/4),
    phi = (k0*s - arctan(A))/2,  s = c(t) - x0.

For packets 1 and 2 at the same t, with d = c2 - c1, wavenumbers k1 and
k2, dk = k2 - k1 and alpha = conj(q1) + q2, the overlap is the Gaussian
integral

    <psi1|psi2> = amp1*amp2*sqrt(pi/alpha)
                  * exp(-(4*conj(q1)*q2*d^2 - 2i*(q2 - conj(q1))*d*dk
                          + dk^2)/(4*alpha)
                        + i*(phi2 - phi1 - (k1 + k2)*d/2))

computed by :func:`overlap`.  The packet solves the free Schroedinger
equation exactly and stays normalized; :func:`schrodinger_residual` and
:func:`norm` check both facts on a grid.

All operations are pure functions of immutable values; natural units
(hbar = 1) are the default.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooNarrow

__all__ = [
    "WavePacket",
    "Grid",
    "spreading_factor",
    "center",
    "evaluate",
    "density",
    "norm",
    "overlap",
    "free_equation_residual",
    "schrodinger_residual",
]

# Boundary density above which a grid is considered to clip a packet.
BOUNDARY_DENSITY_LIMIT = 1e-10


@dataclass(frozen=True)
class WavePacket:
    """Free Gaussian packet: mass, minimum width, and initial conditions.

    Parameters
    ----------
    m0 : float
        Particle mass (> 0).
    sigma : float
        Width parameter of the packet at the minimum-width time (> 0).
    x0 : float
        Center position at t0.
    t0 : float
        Time of minimum width.
    k0 : float
        Center wavenumber; the center moves with velocity hbar*k0/m0.
    hbar : float
        Reduced Planck constant (natural units by default).
    """

    m0: float
    sigma: float
    x0: float = 0.0
    t0: float = 0.0
    k0: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        fields = (self.m0, self.sigma, self.x0, self.t0, self.k0, self.hbar)
        if not all(math.isfinite(v) for v in fields):
            raise ValueError("all WavePacket fields must be finite")
        if self.m0 <= 0:
            raise ValueError(f"m0 must be positive, got {self.m0}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        # The formulas divide by sigma**2 and m0*sigma**2 and take
        # hbar*k0**2; a float ** raises OverflowError where * gives inf.
        s2 = self.sigma * self.sigma
        if not (0 < s2 < math.inf and 0 < self.m0 * s2 < math.inf):
            raise ValueError(f"sigma**2 and m0*sigma**2 must be positive and finite, "
                             f"got sigma = {self.sigma}, m0 = {self.m0}")
        if not math.isfinite(self.hbar * (self.k0 * self.k0)):
            raise ValueError(f"hbar*k0**2 must be finite, got k0 = {self.k0}, "
                             f"hbar = {self.hbar}")


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid used for quadrature.

    The bounds must be finite, with x_min < x_max and a finite width.
    n_points must be at least 16; powers of two are convenient but not
    required.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        # inf - x and nan - x are not finite, nor is a width past the float range
        if not math.isfinite(self.x_max - self.x_min):
            raise ValueError("Grid requires finite x_min and x_max a finite distance apart")
        if not (self.x_min < self.x_max):
            raise ValueError("Grid requires x_min < x_max")
        if self.n_points < 16:
            raise ValueError("Grid requires n_points >= 16")

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)


def spreading_factor(p: WavePacket, t: float):
    """A(t) = 2*hbar*(t - t0)/(m0*sigma^2); zero at t0, odd about it."""
    return 2.0 * p.hbar * (np.asarray(t) - p.t0) / (p.m0 * p.sigma**2)


def center(p: WavePacket, t: float):
    """Position of the packet maximum: x0 + (hbar*k0/m0)*(t - t0)."""
    return p.x0 + (p.hbar * p.k0 / p.m0) * (np.asarray(t) - p.t0)


def evaluate(p: WavePacket, x, t: float) -> np.ndarray | complex:
    """Complex amplitude psi(x, t); accepts scalar or array x.

    It raises no overflow or invalid-value warning.  Far from the centre
    the Gaussian factor underflows to exactly 0 while the phase a*xi^2/w2
    may pass the float range; psi is then +0, the amplitude to double
    precision.  Where the width itself passes the float range (a huge
    |t - t0|), psi is not finite, and callers that need a value check
    ``np.isfinite``.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        a = spreading_factor(p, t)
        w2 = p.sigma**2 * (1.0 + a * a)  # squared width scale at time t
        xi = x - center(p, t)
        gauss = np.exp(-(xi * xi) / w2)
        modulus = (2.0 / (np.pi * w2)) ** 0.25 * gauss
        phase = (
            a * xi * xi / w2
            - 0.5 * np.arctan(a)
            + p.k0 * (x - p.x0)
            - p.hbar * p.k0**2 * (t - p.t0) / (2.0 * p.m0)
        )
        out = modulus * np.exp(1j * phase)
    # 0 * exp(i * inf) is nan where the phase overflowed; one sum finds it
    if math.isfinite(w2) and cmath.isnan(out.sum()):
        out = np.where(np.isnan(out) & (gauss == 0), 0, out)
    return complex(out) if out.ndim == 0 else out


def density(p: WavePacket, x, t: float):
    """|psi(x, t)|^2, a normalized Gaussian of the moving center."""
    x = np.asarray(x, dtype=float)
    a = spreading_factor(p, t)
    w2 = p.sigma**2 * (1.0 + a * a)
    xi = x - center(p, t)
    out = np.sqrt(2.0 / (np.pi * w2)) * np.exp(-2.0 * xi * xi / w2)
    return float(out) if out.ndim == 0 else out


def norm(p: WavePacket, t: float, g: Grid) -> float:
    """Trapezoid sum dx*(sum f - (f_0 + f_N)/2) of f = |psi|^2 on the grid.

    For the Gaussian density the rule is exact up to an aliasing term of
    relative size 2*exp(-pi^2*w^2/(2*dx^2)), w = sigma*sqrt(1 + A^2)
    (Poisson summation), plus the mass beyond the grid edges.  So it is 1
    to roundoff once dx < w/3 and both edge densities are below roundoff.
    """
    f = density(p, g.points(), t)
    return float(g.spacing * (f.sum() - 0.5 * (f[0] + f[-1])))


def _check_boundaries(g: Grid, t: float, p: WavePacket) -> None:
    for edge in (g.x_min, g.x_max):
        rho = density(p, edge, t)
        if rho > BOUNDARY_DENSITY_LIMIT:
            raise GridTooNarrow(
                f"packet density {rho:.3e} at grid edge x={edge} exceeds "
                f"{BOUNDARY_DENSITY_LIMIT:.0e}; widen the grid"
            )


def _centered(p: WavePacket, t: float):
    """(q, s, amp, phi) of the module docstring as Python scalars; none
    grows with |x0|."""
    dt = float(t) - p.t0
    a = 2.0 * p.hbar * dt / (p.m0 * p.sigma**2)
    s = p.hbar * p.k0 / p.m0 * dt
    amp = (2.0 / (math.pi * p.sigma**2 * (1.0 + a * a))) ** 0.25
    return 1.0 / (p.sigma**2 * complex(1.0, a)), s, amp, 0.5 * (p.k0 * s - math.atan(a))


def overlap(p1: WavePacket, p2: WavePacket, t: float) -> complex:
    """Inner product <psi1(t)|psi2(t)>, the exact Gaussian integral.

    In the terms of the module docstring,

        <psi1|psi2> = amp1*amp2*sqrt(pi/alpha)
                      * exp(-(4*conj(q1)*q2*d^2 - 2i*(q2 - conj(q1))*d*dk
                              + dk^2)/(4*alpha)
                            + i*(phi2 - phi1 - (k1 + k2)*d/2)).

    Only d enters, never x0 itself: shifting both packets by 1e3 moves
    the value by 8e-14 relative.  Every term changes sign or conjugates
    exactly when the packets swap, so overlap(b, a) equals
    conj(overlap(a, b)) bitwise.  Packets far apart give 0 without an
    underflow warning.
    """
    q1, s1, amp1, phi1 = _centered(p1, t)
    q2, s2, amp2, phi2 = _centered(p2, t)
    q1 = q1.conjugate()
    alpha = q1 + q2
    d = (p2.x0 - p1.x0) + (s2 - s1)
    dk = p2.k0 - p1.k0
    gauss = (-4.0 * q1 * q2 * d * d + 2j * (q2 - q1) * d * dk - dk * dk) / (4.0 * alpha)
    phase = (phi2 - phi1) - 0.5 * (p1.k0 + p2.k0) * d
    return amp1 * amp2 * cmath.sqrt(math.pi / alpha) * cmath.exp(gauss + 1j * phase)


def free_equation_residual(psi_fn, g: Grid, t: float, m0: float,
                           hbar: float = 1.0) -> float:
    """Discrete L2 norm of i*hbar*d_t psi + (hbar^2/2m0)*d_xx psi.

    psi_fn(x_array, t) must return the complex amplitude.  Second-order
    centered differences in x and t, with the time step tied to the
    spatial step as dt = dx^2 * m0 / hbar so both truncation errors shrink
    at the same rate.
    """
    xs = g.points()
    dx = g.spacing
    dt = dx * dx * m0 / hbar
    psi0 = np.asarray(psi_fn(xs, t))
    psi_plus = np.asarray(psi_fn(xs, t + dt))
    psi_minus = np.asarray(psi_fn(xs, t - dt))
    dpsi_dt = (psi_plus - psi_minus) / (2.0 * dt)
    d2psi_dx2 = (psi0[2:] - 2.0 * psi0[1:-1] + psi0[:-2]) / (dx * dx)
    r = 1j * hbar * dpsi_dt[1:-1] + hbar**2 / (2.0 * m0) * d2psi_dx2
    return float(np.sqrt(np.sum(np.abs(r) ** 2) * dx))


def schrodinger_residual(p: WavePacket, g: Grid, t: float) -> float:
    """Free-equation residual of the analytic packet on the given grid.

    Converges to zero at second order under grid refinement; a nonzero
    plateau signals that the sampled function is not a free-particle
    solution.
    """
    _check_boundaries(g, t, p)
    return free_equation_residual(
        lambda xs, tt: evaluate(p, xs, tt), g, t, p.m0, p.hbar
    )
