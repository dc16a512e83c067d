"""Exchange phase of identical spinor modes from one-sense rotation.

A spin-component eigenfunction carries the azimuthal angle chi of a
rotation about the quantization axis through the factor exp(i*m*chi).
Exchanging the non-angular parameters of a pair and then restoring each
angle by rotating only counterclockwise multiplies the exchanged product
by

    F = exp(-i*m*D1) * exp(-i*m*D2) = exp(-2*pi*i*m) = (-1)^(2m) = (-1)^(2s)

where D1 + D2 = 2*pi are the two counterclockwise angular distances
between the angles.  Half-integer spin therefore picks up a minus sign;
combined with the plus-sign superposition postulate this yields the
symmetric pair state for integer spin and the antisymmetric one (hence
Pauli exclusion) for half-integer spin.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Hashable

from .errors import DegenerateAngles, SpinMismatch
from .symmetry import ModeRegistry, NParticleState, _canonical

__all__ = [
    "SpinorMode",
    "ccw_distance",
    "rotation_phase",
    "exchange_phase",
    "exchanged_pair_state",
    "SpinorOverlap",
]

TWO_PI = 2.0 * math.pi


def _snap_half_integer(value: float, name: str) -> float:
    doubled = 2.0 * value
    nearest = round(doubled)
    if abs(doubled - nearest) > 1e-9:
        raise ValueError(f"{name} must be a half-integer, got {value}")
    return nearest / 2.0


@dataclass(frozen=True)
class SpinorMode:
    """Spin-component eigenmode: total spin s, component m, azimuth chi.

    s, m and chi must be finite; chi is kept modulo 2*pi.
    u is the opaque bundle of remaining external parameters (a WavePacket,
    a label, anything hashable); this module never looks inside it.
    """

    s: float
    m: float
    chi: float
    u: Hashable = None

    def __post_init__(self):
        # a non-finite chi would wrap to nan, which is unequal to itself
        _check_finite(s=self.s, m=self.m, chi=self.chi)
        s = _snap_half_integer(self.s, "s")
        m = _snap_half_integer(self.m, "m")
        if s < 0:
            raise ValueError(f"total spin must be nonnegative, got {s}")
        if abs(m) > s or (2 * s - 2 * m) % 2 != 0:
            raise ValueError(f"m={m} is not in the spin ladder of s={s}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "chi", self.chi % TWO_PI)


def ccw_distance(chi_from: float, chi_to: float) -> float:
    """Counterclockwise angular distance in (0, 2*pi]; 2*pi for equal angles."""
    d = (chi_to - chi_from) % TWO_PI
    return TWO_PI if d == 0.0 else d


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def rotation_phase(m: float, chi_from: float, chi_to: float) -> complex:
    """Factor exp(i*m*D) acquired by rotating counterclockwise to chi_to.

    Non-finite m or angles raise ``ValueError``.
    """
    _check_finite(m=m, chi_from=chi_from, chi_to=chi_to)
    return cmath.exp(1j * m * ccw_distance(chi_from, chi_to))


def exchange_phase(m: float, chi_a: float, chi_b: float) -> complex:
    """Product of the two counterclockwise restoration phases.

    Equals exp(-i*m*(D1 + D2)) = exp(-2*pi*i*m) = (-1)^(2m), exactly +-1
    up to roundoff.  The split of 2*pi into the two distances is ill-posed
    for coinciding angles, which are refused; non-finite m or angles raise
    ``ValueError``.
    """
    if (chi_a % TWO_PI) == (chi_b % TWO_PI):
        raise DegenerateAngles(f"chi_a = chi_b = {chi_a % TWO_PI}; angles must differ")
    return rotation_phase(-m, chi_a, chi_b) * rotation_phase(-m, chi_b, chi_a)


def exchanged_pair_state(a: SpinorMode, b: SpinorMode,
                         registry: ModeRegistry) -> NParticleState:
    """Pair state (1/sqrt(2)) [ a(x)b + F * b(x)a ] with F = (-1)^(2s).

    The second term is the parameter-exchanged product after each angle is
    restored by a counterclockwise rotation: the exchanged modes
    (u_b at chi_a) and (u_a at chi_b), once rotated back, are the original
    modes b and a again, and the restoration phases multiply out to F.
    Requires equal (s, m) on both modes and distinct angles.
    """
    if a.s != b.s or a.m != b.m:
        raise SpinMismatch(
            f"pair construction needs equal (s, m); got ({a.s}, {a.m}) and ({b.s}, {b.m})"
        )
    f = exchange_phase(a.m, a.chi, b.chi)
    id_a = registry.register(a)
    id_b = registry.register(b)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return _canonical(2, [(inv_sqrt2, (id_a, id_b)), (inv_sqrt2 * f, (id_b, id_a))])


class SpinorOverlap:
    """Single-particle overlap of registered spinor modes.

    <a, b> = delta(s_a, s_b) * delta(m_a, m_b) * exp(i*m*(chi_b - chi_a))
             * <u_a, u_b>,
    with the payload overlap defaulting to equality (orthonormal payloads).
    """

    def __init__(self, registry: ModeRegistry,
                 payload_overlap: Callable[[Hashable, Hashable], complex] | None = None):
        self.registry = registry
        self.payload_overlap = payload_overlap

    def __call__(self, i: int, j: int) -> complex:
        a = self.registry[i]
        b = self.registry[j]
        if a.s != b.s or a.m != b.m:
            return 0j
        if self.payload_overlap is None:
            spatial = 1.0 + 0j if a.u == b.u else 0j
        else:
            spatial = complex(self.payload_overlap(a.u, b.u))
        return cmath.exp(1j * a.m * (b.chi - a.chi)) * spatial
