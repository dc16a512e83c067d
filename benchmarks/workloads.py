"""Seeded op lists for the idstat benchmark, each op with its own oracle.

An op is one call into a public idstat entry point: a CLI invocation
through ``idstat.cli.run(argv, out)`` with an in-memory ``out``, or a
library call.  ``build`` draws every op's inputs from the workload seed and
nothing else; the program sees only the generated argv and inputs.  Each
op's ``check`` compares the output with an oracle computed here, by a route
independent of the code under test (enumeration, a closed form, a separate
root solve), and returns None or the reason the output missed.  Oracles
run outside the timed region and are computed on first use, so they add
nothing to set-up time.

Entry points are looked up on their module at call time, so a tracer that
rebinds a module attribute sees the call.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.optimize import brentq

from idstat import balance, cli, distributions, symmetry

WORKLOADS = ("kinetics", "exchange", "spectra")

# Relative tolerances, each against the scale of its quantity.  Observed
# misses at the seed commit are 100x or more below these.
PERM_RTOL = 1e-10  # permanents and overlap sums, against perm(|M|)
COEFF_RTOL = 1e-9  # projector coefficients, against the expected weight
NUMBER_RTOL = 1e-9  # particle number and energy sums (solvers stop at 1e-10)
SPECTRUM_RTOL = 1e-9  # occupancies, against the largest occupancy
PACKET_RTOL = 1e-9  # wavepacket amplitudes, against the peak amplitude
NORM_ATOL = 1e-6  # quadrature of |psi|^2 on the printed grid
CONSERVE_RTOL = 1e-9  # per-bin totals and quanta in kinetics


@dataclass
class Op:
    """One call into idstat: ``call()`` runs it, ``check(output)`` judges it.

    ``spec`` describes the inputs (argv, array digests) so that op lists can
    be compared between seeds; ``group`` names the end-to-end metric that
    sums this op's time, if any.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    spec: Any
    group: str | None = None


@dataclass
class CliOutput:
    code: int
    text: str


def _cli(argv: list[str]) -> CliOutput:
    out = io.StringIO()
    code = cli.run(argv, out)
    return CliOutput(code, out.getvalue())


def _cli_op(name, argv, check, group=None, spec=None) -> Op:
    def checked(output: CliOutput):
        if output.code != 0:
            return f"exit code {output.code}"
        return check(output.text)

    return Op(name, lambda: _cli(argv), checked,
              spec if spec is not None else argv, group)


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def _num(x: float) -> str:
    return repr(float(x))


def _rel_miss(what: str, got, want, scale: float, rtol: float) -> str | None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not err <= rtol * scale:
        return f"{what} off by {err:.3e} (> {rtol:.0e} x scale {scale:.3e})"
    return None


def _first_miss(*misses) -> str | None:
    return next((m for m in misses if m), None)


def _read_csv(text: str, columns: int) -> np.ndarray:
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    if rows.shape[1] != columns:
        raise ValueError(f"expected {columns} columns, got {rows.shape[1]}")
    return rows


# -- permanents ------------------------------------------------------------


def enumerated_permanent(m: np.ndarray) -> complex:
    """Permanent as the plain sum over all n! permutations (small n only)."""
    n = m.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    return complex(m[np.arange(n), perms].prod(axis=1).sum())


def derangements(n: int) -> int:
    d = [1, 0]
    for k in range(2, n + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    return d[n]


def _scrambled(rng, core: np.ndarray):
    """Random row/column permutations and complex diagonal scalings of core.

    perm(P D1 C D2 Q) = prod(D1) prod(D2) perm(C), and likewise for |.|.
    """
    n = core.shape[0]
    d1, d2 = (np.exp(rng.normal(0.0, 0.2, n) + 2j * np.pi * rng.random(n))
              for _ in range(2))
    rows, cols = rng.permutation(n), rng.permutation(n)
    m = (d1[:, None] * core * d2[None, :])[rows][:, cols]
    return m, complex(np.prod(d1) * np.prod(d2)), float(np.prod(np.abs(d1)) * np.prod(np.abs(d2)))


def known_permanent(rng, n: int, kind: str):
    """A scrambled n x n matrix and a function giving (perm, perm(|M|)).

    kind "blocks": block upper-triangular with dense complex Gaussian
    blocks of at most 6 rows; its permanent is the product of the diagonal
    blocks' permanents, which are enumerated.  "ones": J_n, perm = n!.
    "derangements": J_n - I, perm = the derangement number D_n.
    """
    if kind == "blocks":
        core = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        parts = np.array_split(np.arange(n), math.ceil(n / 6))
        for i, rows in enumerate(parts):
            for cols in parts[:i]:
                core[np.ix_(rows, cols)] = 0.0
        blocks = [core[np.ix_(p, p)] for p in parts]
    elif kind == "ones":
        core = np.ones((n, n), dtype=complex)
    elif kind == "derangements":
        core = np.ones((n, n), dtype=complex) - np.eye(n)
    else:
        raise ValueError(kind)
    m, factor, abs_factor = _scrambled(rng, core)

    @functools.cache
    def expected():
        if kind == "blocks":
            value = math.prod(enumerated_permanent(b) for b in blocks)
            scale = math.prod(enumerated_permanent(np.abs(b)).real for b in blocks)
        else:
            value = scale = math.factorial(n) if kind == "ones" else derangements(n)
        return value * factor, scale * abs_factor

    return m, expected


def _permanent_op(rng, n: int, kind: str) -> Op:
    m, expected = known_permanent(rng, n, kind)

    def check(value):
        want, scale = expected()
        return _rel_miss("permanent", value, want, scale, PERM_RTOL)

    return Op(f"permanent n={n} {kind}", lambda: symmetry.permanent(m), check,
              ["permanent", n, kind, _digest(m)])


# -- projectors ------------------------------------------------------------


def _parities(perms: np.ndarray) -> np.ndarray:
    """+1/-1 per row of a permutation array, by counting inversions."""
    n = perms.shape[1]
    inversions = sum((perms[:, i] > perms[:, j]).astype(int)
                     for i in range(n) for j in range(i + 1, n))
    return 1 - 2 * (np.asarray(inversions) % 2)


def projection_miss(term_modes: np.ndarray, coeffs: np.ndarray,
                    modes, coeff: complex, signed: bool) -> str | None:
    """Judge the (anti)symmetrized image of one product term.

    The symmetrizer of a product with mode multiplicities k_1, k_2, ...
    has n!/prod(k!) distinct terms, the rearrangements of the modes, each
    with coefficient coeff * prod(k!)/n!.  The antisymmetrizer gives the
    zero state on a repeated mode, else n! terms of coefficient
    coeff * parity/n!.
    """
    modes = np.asarray(modes)
    n = modes.size
    counts = np.unique(modes, return_counts=True)[1]
    repeats = math.prod(math.factorial(int(k)) for k in counts)
    expected_terms = 0 if signed and repeats > 1 else math.factorial(n) // repeats
    if len(term_modes) != expected_terms:
        return f"{len(term_modes)} terms, expected {expected_terms}"
    if expected_terms == 0:
        return None
    term_modes = term_modes.reshape(expected_terms, n)
    if not np.array_equal(np.sort(term_modes, axis=1),
                          np.broadcast_to(np.sort(modes), term_modes.shape)):
        return "a term is not a rearrangement of the input modes"
    if len(np.unique(term_modes, axis=0)) != expected_terms:
        return "a rearrangement appears twice"
    weight = coeff * repeats / math.factorial(n)
    want = np.full(expected_terms, weight)
    if signed:
        order = np.argsort(modes)
        slots = order[np.searchsorted(modes[order], term_modes)]
        want = want * _parities(slots)
    return _rel_miss("coefficient", coeffs, want, abs(weight), COEFF_RTOL)


def state_arrays(state: symmetry.NParticleState):
    modes = np.array([t.modes for t in state.terms], dtype=np.int64)
    coeffs = np.array([t.coeff for t in state.terms], dtype=complex)
    return modes.reshape(len(state.terms), state.n), coeffs


def _random_coeff(rng) -> complex:
    return complex((0.5 + rng.random()) * np.exp(2j * np.pi * rng.random()))


def _product_modes(rng, n: int, repeated: bool) -> list[int]:
    """n mode labels, all distinct or with multiplicities (3, 2, 1, ...)."""
    if not repeated:
        return [int(m) for m in rng.choice(64, n, replace=False)]
    labels = [int(m) for m in rng.choice(64, n - 3, replace=False)]
    modes = labels[:1] * 3 + labels[1:2] * 2 + labels[2:]
    return [modes[i] for i in rng.permutation(n)]


def _projector_op(rng, n: int, repeated: bool, signed: bool) -> Op:
    modes = _product_modes(rng, n, repeated)
    coeff = _random_coeff(rng)
    state = symmetry.product_state(modes, coeff)
    fn = "antisymmetrize" if signed else "symmetrize"

    def check(result):
        return projection_miss(*state_arrays(result), modes, coeff, signed)

    label = "repeated" if repeated else "distinct"
    return Op(f"{fn} n={n} {label}", lambda: getattr(symmetry, fn)(state),
              check, [fn, modes, [coeff.real, coeff.imag]])


def _cli_projector_ops(rng, n: int, workdir: Path) -> list[Op]:
    modes = _product_modes(rng, n, repeated=False)
    coeff = _random_coeff(rng)
    text = json.dumps({"schema": 1, "n": n, "terms": [
        {"coeff": [coeff.real, coeff.imag], "modes": modes}]})
    path = workdir / f"state-n{n}.json"
    path.write_text(text)
    ops = []
    for signed in (False, True):
        def check(out, signed=signed):
            raw = json.loads(out)
            term_modes = np.array([t["modes"] for t in raw["terms"]], dtype=np.int64)
            coeffs = np.array([complex(*t["coeff"]) for t in raw["terms"]])
            return projection_miss(term_modes, coeffs, modes, coeff, signed)

        argv = ["symmetrize", "--input", str(path)] + (["--anti"] if signed else [])
        spec = argv[:2] + [text] + argv[3:]
        ops.append(_cli_op(f"idstat {' '.join(argv[:1] + argv[3:])} n={n}", argv,
                           check, group="symmetrize_s", spec=spec))
    return ops


def _overlap_ops(rng, n: int) -> list[Op]:
    """<P a, P b> of two projected n-particle products under a random overlap.

    With distinct modes in each product, <S a, S b> = perm(M)/n! and
    <A a, A b> = det(M)/n!, where M[i, j] = O[a_i, b_j].
    """
    k = 2 * n
    off = (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))) * 0.2
    o = np.triu(off, 1)
    o = o + o.conj().T + np.eye(k)
    ov = symmetry.MatrixOverlap(o)
    ops = []
    for signed in (False, True):
        a_modes = [int(m) for m in rng.choice(k, n, replace=False)]
        b_modes = [int(m) for m in rng.choice(k, n, replace=False)]
        ca, cb = _random_coeff(rng), _random_coeff(rng)
        project = symmetry.antisymmetrize if signed else symmetry.symmetrize
        a = project(symmetry.product_state(a_modes, ca))
        b = project(symmetry.product_state(b_modes, cb))
        mat = o[np.ix_(a_modes, b_modes)]

        @functools.cache
        def expected(mat=mat, ca=ca, cb=cb, signed=signed):
            core = complex(np.linalg.det(mat)) if signed else enumerated_permanent(mat)
            norm = abs(ca * cb) / math.factorial(n)
            return ca.conjugate() * cb * core / math.factorial(n), \
                norm * enumerated_permanent(np.abs(mat)).real

        def check(value, expected=expected):
            want, scale = expected()
            return _rel_miss("scalar product", value, want, scale, PERM_RTOL)

        fn = "antisymmetrized" if signed else "symmetrized"
        ops.append(Op(f"scalar_product {fn} n={n}",
                      lambda a=a, b=b: symmetry.scalar_product(a, b, ov), check,
                      ["scalar_product", signed, a_modes, b_modes,
                       [ca.real, ca.imag, cb.real, cb.imag], _digest(o)]))
    return ops


def _exchange(rng, smoke: bool, workdir: Path) -> list[Op]:
    perm_sizes = (5, 6, 7, 8) if smoke else (12, 14, 16, 18)
    kinds = ("derangements", "blocks", "ones", "blocks")
    ops = [_permanent_op(rng, n, kind) for n, kind in zip(perm_sizes, kinds)]
    for n in ((5, 6) if smoke else (7, 8)):
        for repeated in (False, True):
            for signed in (False, True):
                ops.append(_projector_op(rng, n, repeated, signed))
    ops += _overlap_ops(rng, 3 if smoke else 6)
    ops += _cli_projector_ops(rng, 5 if smoke else 7, workdir)
    return ops


# -- spectra ---------------------------------------------------------------

GAS_VOLUME = 200.0  # passed as --V; mass 1 and c = h = k = 1 are the CLI defaults


def gas_levels(T: float, pmax: float, bins: int):
    """Bin centers, energies and mode counts of the CLI's momentum grid."""
    dp = pmax / bins
    p = (np.arange(bins) + 0.5) * dp
    eps = np.sqrt(p * p + 1.0)
    g = 4.0 * np.pi * GAS_VOLUME * p * p * dp
    return p, eps, g


def occupation(eps, g, mu: float, T: float, stat: str) -> np.ndarray:
    x = (eps - mu) / T
    return g / (np.expm1(x) if stat == "bose" else np.exp(x) + 1.0)


def root_mu(n_target: float, eps, g, T: float, stat: str) -> float:
    """The benchmark's own chemical potential: brentq on the number sum."""
    count = lambda mu: float(occupation(eps, g, mu, T, stat).sum()) - n_target
    lo = float(eps.min()) - 50.0 * T
    hi = float(eps.min()) * (1.0 - 1e-15) if stat == "bose" else float(eps.max()) + 50.0 * T
    return brentq(count, lo, hi, xtol=1e-15, rtol=1e-15, maxiter=500)


def spectrum_miss(text: str, T: float, n_target: float, pmax: float,
                  bins: int, stat: str) -> str | None:
    """Printed grid, closed form at an independently solved mu, and (N, E)."""
    rows = _read_csv(text, 4)
    if len(rows) != bins:
        return f"{len(rows)} rows, expected {bins}"
    p, eps, g = gas_levels(T, pmax, bins)
    mu = root_mu(n_target, eps, g, T, stat)
    closed = occupation(eps, g, mu, T, stat)
    occ = rows[:, 3]
    return _first_miss(
        _rel_miss("momentum grid", rows[:, 0], p, pmax, 1e-12),
        _rel_miss("energies", rows[:, 1], eps, float(eps.max()), 1e-12),
        _rel_miss("mode counts", rows[:, 2], g, float(g.max()), 1e-12),
        _rel_miss("occupancies", occ, closed, float(closed.max()), SPECTRUM_RTOL),
        _rel_miss("particle number", occ.sum(), n_target, n_target, NUMBER_RTOL),
        _rel_miss("energy", (occ * eps).sum(), (closed * eps).sum(),
                  float((closed * eps).sum()), NUMBER_RTOL),
    )


def _gas_point(rng, stat: str, offset: float):
    """Temperature, grid top and a target mu offset (in kT) from the lowest level.

    The offset is a fixed stratum jittered by 10 percent, so every seed
    sees the same regimes of the solvers.
    """
    T = 1.0 + 0.1 * (2.0 * rng.random() - 1.0)
    x = offset * (1.0 + 0.1 * (2.0 * rng.random() - 1.0))
    return T, 20.0 * T + 4.0, x


def _number_at(stat: str, T: float, eps, g, x: float) -> float:
    """N at mu = x kT above (fermi) or below (bose) the lowest level."""
    mu = float(eps.min()) + (x if stat == "fermi" else -x) * T
    return float(occupation(eps, g, mu, T, stat).sum())


def _distribute_op(stat, T, pmax, x, bins, via) -> Op:
    _, eps, g = gas_levels(T, pmax, bins)
    n_target = _number_at(stat, T, eps, g, x)
    argv = ["distribute", "--stat", stat, "--T", _num(T), "--N", _num(n_target),
            "--V", _num(GAS_VOLUME), "--pmax", _num(pmax), "--bins", str(bins),
            "--via", via]
    return _cli_op(f"idstat distribute --via {via} {stat} bins={bins}", argv,
                   lambda text: spectrum_miss(text, T, n_target, pmax, bins, stat),
                   group="distribute_maxent_s" if via == "maxent" else None)


def _solve_mu_op(rng, stat, T, pmax, bins, stratum) -> Op:
    _, eps, g = gas_levels(T, pmax, bins)
    n_target = _number_at(stat, T, eps, g, stratum * (1.0 + 0.1 * rng.random()))

    def check(mu_out):
        n_back = float(occupation(eps, g, mu_out, T, stat).sum())
        return _rel_miss("number round trip", n_back, n_target, n_target, NUMBER_RTOL)

    return Op(f"solve_mu {stat} x~{stratum:g}",
              lambda: distributions.solve_mu_on_levels(n_target, eps, g, T, stat),
              check, ["solve_mu", stat, T, pmax, bins, n_target])


def _count_op(n: int, g: int, stat: str) -> Op:
    want = math.comb(n + g - 1, n) if stat == "bose" else math.comb(g, n)

    def check(text):
        lines = text.split()
        if len(lines) != 2:
            return f"expected count and entropy lines, got {len(lines)}"
        if int(lines[0]) != want:
            return f"count {lines[0]}, expected {want}"
        return _rel_miss("entropy", float(lines[1]), math.log(want),
                         max(math.log(want), 1.0), 1e-12)

    argv = ["count", "--n", str(n), "--g", str(g), "--stat", stat, "--oracle", "--entropy"]
    return _cli_op(f"idstat count --oracle --entropy {stat}", argv, check)


def packet_amplitude(x, t, m0, sigma, x0, k0):
    """Free Gaussian packet (hbar = 1, t0 = 0) in complex-width form.

    psi = (2/(pi sigma^2))^(1/4) (1 + i a)^(-1/2)
          exp(-xi^2 / (sigma^2 (1 + i a)) + i k0 (x - x0) - i k0^2 t / (2 m0)),
    a = 2 t/(m0 sigma^2), xi = x - x0 - k0 t/m0.
    """
    a = 2.0 * t / (m0 * sigma**2)
    xi = x - x0 - k0 * t / m0
    width = sigma**2 * (1.0 + 1j * a)
    return ((2.0 / (np.pi * sigma**2)) ** 0.25 / np.sqrt(1.0 + 1j * a)
            * np.exp(-xi * xi / width + 1j * k0 * (x - x0) - 0.5j * k0 * k0 * t / m0))


def _evolve_op(rng, points: int, t_samples: int) -> Op:
    m0, sigma = 1.0 + rng.random(), 1.0 + 0.5 * rng.random()
    x0, k0 = 2.0 * rng.random() - 1.0, 2.0 * rng.random() - 1.0
    t_stop = 0.5 + 0.5 * rng.random()
    half_width = 24.0

    def check(text):
        rows = _read_csv(text, 5)
        if len(rows) != points * t_samples:
            return f"{len(rows)} rows, expected {points * t_samples}"
        t, x, re, im, dens = rows.reshape(t_samples, points, 5).transpose(2, 0, 1)
        psi = packet_amplitude(x, t, m0, sigma, x0, k0)
        peak = float(np.abs(psi).max())
        norms = np.trapezoid(dens, x[0], axis=1)
        return _first_miss(
            _rel_miss("times", t[:, 0], np.linspace(0.0, t_stop, t_samples), 1.0, 1e-15),
            _rel_miss("grid", x[0], np.linspace(-half_width, half_width, points),
                      half_width, 1e-15),
            _rel_miss("amplitude", re + 1j * im, psi, peak, PACKET_RTOL),
            _rel_miss("density", dens, np.abs(psi) ** 2, peak**2, PACKET_RTOL),
            _rel_miss("norm", norms, 1.0, 1.0, NORM_ATOL),
        )

    argv = ["evolve", "--m0", _num(m0), "--sigma", _num(sigma), "--x0", _num(x0),
            "--k0", _num(k0), "--xmin", _num(-half_width), "--xmax", _num(half_width),
            "--points", str(points), "--t-start", "0", "--t-stop", _num(t_stop),
            "--t-samples", str(t_samples)]
    return _cli_op(f"idstat evolve points={points} t-samples={t_samples}", argv, check)


def _selftest_miss(text: str) -> str | None:
    lines = text.splitlines()
    bad = [line for line in lines if not line.startswith("ok ")]
    if not lines or bad:
        return f"selftest lines not ok: {bad or 'none printed'}"
    return None


def _spectra(rng, smoke: bool, workdir: Path) -> list[Op]:
    maxent_bins = (16, 32) if smoke else (256, 2048)
    ops = []
    # two mu strata per statistics: bose 1 and 2.5 kT below the lowest level,
    # fermi 1 and 3 kT above it.  Across the jitter each stratum keeps one
    # Newton iteration count; nearer strata (bose 0.3, fermi 4) flip between
    # counts or line-search lengths from draw to draw, so the work per pass
    # would follow the seed.
    for stat, offsets in (("bose", (1.0, 2.5)), ("fermi", (1.0, 3.0))):
        for offset in offsets[:1] if smoke else offsets:
            T, pmax, x = _gas_point(rng, stat, offset)
            for bins in maxent_bins:
                ops.append(_distribute_op(stat, T, pmax, x, bins, "maxent"))
        T, pmax, x = _gas_point(rng, stat, offsets[0])
        ops.append(_distribute_op(stat, T, pmax, x, maxent_bins[-1], "closed"))
    # solve_mu sweep: bose up to 1e-5 kT below the lowest level (near
    # saturation), fermi at a quarter of the temperature up to 40 kT above it
    # (deep degeneracy)
    T, pmax, _ = _gas_point(rng, "bose", 1.0)
    for x in (3.0, 1.0, 0.3, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5)[: 2 if smoke else None]:
        ops.append(_solve_mu_op(rng, "bose", T, pmax, 256, x))
    T = 0.25 * T
    for x in (-2.0, 0.5, 2.0, 4.0, 8.0, 16.0, 24.0, 40.0)[: 2 if smoke else None]:
        ops.append(_solve_mu_op(rng, "fermi", T, pmax, 256, x))
    g = int(rng.integers(6, 13))
    ops.append(_count_op(int(rng.integers(6, 13)), g, "bose"))
    g = int(rng.integers(10, 17))
    ops.append(_count_op(int(rng.integers(1, min(g, 24 - g) + 1)), g, "fermi"))
    ops.append(_evolve_op(rng, *((256, 3) if smoke else (1024, 20))))
    for _ in range(1 if smoke else 10):
        argv = ["--seed", str(int(rng.integers(2**31))), "selftest"]
        ops.append(_cli_op("idstat selftest", argv, _selftest_miss, group="selftest_s"))
    return ops


# -- kinetics --------------------------------------------------------------


# The CLI balance toy: g0 6 modes per unit bin at energies 1, 2, ..., beta 1, mu 0.
TOY_G0 = 6.0


def balance_miss(text: str, bins: int, s_max: int) -> str | None:
    """The printed population keeps every per-bin total and species 1's quanta.

    The CLI scrambles the toy's stationary population g0 e^(-eps s)/sum_s
    with conserving moves, so both invariants equal those of that closed
    form.
    """
    sweeps_text, _, pop_text = text.partition("\n\n")
    sweeps = _read_csv(sweeps_text, 4)
    pop = _read_csv(pop_text, 3)
    if len(pop) != bins * (s_max + 1):
        return f"{len(pop)} population rows, expected {bins * (s_max + 1)}"
    table = pop[:, 2].reshape(bins, s_max + 1)
    s = np.arange(s_max + 1)
    ladder = np.exp(-np.outer(np.arange(1.0, bins + 1.0), s))
    want = float((TOY_G0 * (ladder * s).sum(axis=1) / ladder.sum(axis=1)).sum())
    return _first_miss(
        _rel_miss("per-bin totals", table.sum(axis=1), TOY_G0, TOY_G0, CONSERVE_RTOL),
        _rel_miss("species-1 quanta", (table * s).sum(), want, want, CONSERVE_RTOL),
        _rel_miss("total quanta per sweep", sweeps[:, 3], sweeps[0, 3],
                  abs(sweeps[0, 3]), CONSERVE_RTOL),
    )


def _relax_fixed_point_op(rng, bins: int, s_max: int, steps: int) -> Op:
    """relax started on the exact stationary pair must leave it in place.

    The pair is the CLI toy's; the seed draws the channel order.
    """
    energies = np.arange(1.0, bins + 1.0)
    pops = [balance.stationary_population(lambda e: TOY_G0, 1.0, 0.0, energies, 1.0,
                                          s_max=s_max, kind=kind) for kind in (1, 2)]
    channels = balance.standard_channels(energies, s_max, s_max)
    seed = int(rng.integers(2**31))

    def check(result):
        return _first_miss(*(
            _rel_miss(f"species-{k} population", new.table, old.table,
                      float(old.table.max()), CONSERVE_RTOL)
            for k, (new, old) in enumerate(zip((result.pop1, result.pop2), pops), 1)))

    return Op(f"relax fixed point bins={bins} smax={s_max}",
              lambda: balance.relax(*pops, channels, steps=steps, seed=seed),
              check, ["relax", bins, s_max, steps, seed])


def _kinetics(rng, smoke: bool, workdir: Path) -> list[Op]:
    # (bins, smax, extra argv): the CLI defaults, then the wide grid
    if smoke:
        runs = [(8, 16, ["--steps", "5"]),
                (8, 8, ["--bins", "8", "--smax", "8", "--steps", "3"])]
    else:
        runs = [(8, 16, []), (32, 64, ["--bins", "32", "--smax", "64", "--steps", "300"])]
    ops = []
    for bins, s_max, extra in runs:
        argv = ["--seed", str(int(rng.integers(2**31))), "balance"] + extra
        ops.append(_cli_op(f"idstat balance bins={bins} smax={s_max}", argv,
                           lambda text, bins=bins, s_max=s_max: balance_miss(text, bins, s_max),
                           group="balance_s"))
    ops.append(_relax_fixed_point_op(rng, 8, 16, 3 if smoke else 200))
    return ops


_OP_LISTS = {"kinetics": _kinetics, "exchange": _exchange, "spectra": _spectra}


def build(workload: str, seed: int, smoke: bool, workdir: Path) -> list[Op]:
    """The workload's fixed op list, drawn from the seed alone.

    workdir receives input files the CLI reads (the exchange workload's
    state file).  smoke shrinks every op for quick checks of the harness.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _OP_LISTS[workload](rng, smoke, workdir)
