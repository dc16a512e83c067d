"""Identical-particle statistics toolbox.

Submodules
----------
wavepacket     analytic free Gaussian packets and closed-form overlaps
symmetry       N-particle product states, projectors, permanents
spinstat       exchange phase from one-sense spinor rotation
counting       exact Bose/Fermi/Boltzmann state counting
distributions  occupation spectra, chemical potential, maximum entropy
balance        condensed-packet kinetics and detailed balance
cli            command-line front end
"""

from . import balance, cli, counting, distributions, spinstat, symmetry, wavepacket

__version__ = "0.1.0"

__all__ = [
    "balance",
    "cli",
    "counting",
    "distributions",
    "spinstat",
    "symmetry",
    "wavepacket",
    "__version__",
]
