"""Shared test helpers: closed-form oracles kept independent of the
package's quadrature/recursion code paths."""

import numpy as np
from hypothesis import settings

from idstat import wavepacket as wp

# Property tests draw the same examples on every run, and a loaded host
# cannot fail them on time.
settings.register_profile("idstat", derandomize=True, deadline=None)
settings.load_profile("idstat")


def gaussian_overlap_closed_form(p1: wp.WavePacket, p2: wp.WavePacket,
                                 t: float) -> complex:
    """Analytic inner product of two Gaussian packets at time t.

    Writes each packet as C * exp(-q*(x - xc)^2 + i*k0*(x - x0) + i*theta)
    with complex q, and integrates the resulting Gaussian exactly via
    integral exp(-a x^2 + b x + c) dx = sqrt(pi/a) exp(b^2/(4a) + c).
    """

    def pieces(p):
        a = 2.0 * p.hbar * (t - p.t0) / (p.m0 * p.sigma**2)
        w2 = p.sigma**2 * (1.0 + a * a)
        q = (1.0 - 1j * a) / w2
        xc = p.x0 + p.hbar * p.k0 / p.m0 * (t - p.t0)
        amp = (2.0 / (np.pi * w2)) ** 0.25
        theta = -0.5 * np.arctan(a) - p.hbar * p.k0**2 * (t - p.t0) / (2.0 * p.m0)
        return q, xc, amp, theta

    q1, c1, a1, th1 = pieces(p1)
    q2, c2, a2, th2 = pieces(p2)
    q1 = np.conj(q1)
    alpha = q1 + q2
    beta = 2.0 * q1 * c1 + 2.0 * q2 * c2 + 1j * (p2.k0 - p1.k0)
    gamma = (
        -q1 * c1**2 - q2 * c2**2
        + 1j * (p1.k0 * p1.x0 - p2.k0 * p2.x0)
        + 1j * (th2 - th1)
    )
    return complex(a1 * a2 * np.sqrt(np.pi / alpha)
                   * np.exp(beta**2 / (4.0 * alpha) + gamma))
