"""Shared test helpers: oracles kept independent of the package's code
paths.  The Simpson quadrature below shares nothing with the closed-form
``wavepacket.overlap`` or the trapezoid ``wavepacket.norm``."""

import numpy as np
from hypothesis import settings
from scipy.integrate import simpson

from idstat import wavepacket as wp

# Property tests draw the same examples on every run, and a loaded host
# cannot fail them on time.
settings.register_profile("idstat", derandomize=True, deadline=None)
settings.load_profile("idstat")


def simpson_overlap(p1: wp.WavePacket, p2: wp.WavePacket, t: float,
                    g: wp.Grid) -> complex:
    """Simpson quadrature of conj(psi1)*psi2 over a grid spanning both packets."""
    xs = g.points()
    for p in (p1, p2):
        edges = wp.density(p, xs[[0, -1]], t)
        assert edges.max() <= wp.BOUNDARY_DENSITY_LIMIT, "grid clips a packet"
    return complex(simpson(np.conj(wp.evaluate(p1, xs, t)) * wp.evaluate(p2, xs, t), x=xs))


def simpson_norm(p: wp.WavePacket, t: float, g: wp.Grid) -> float:
    """Simpson quadrature of |psi|^2 over the grid, clipped or not."""
    xs = g.points()
    return float(simpson(wp.density(p, xs, t), x=xs))
