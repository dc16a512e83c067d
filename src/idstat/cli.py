"""Command-line front end: one subcommand per module, CSV or JSON output.

Exit codes: 0 success, 2 usage or config error, 3 domain error (such as a
Pauli violation, Bose saturation or a projector past its size guard),
4 non-convergence.  Domain errors print one machine-parsable line
``error: <code>: <message>`` on stderr.  When the reader of stdout closes
it early, ``main`` exits 141 (128 + SIGPIPE, as shells report a writer
killed by a broken pipe) without a traceback.
Output is deterministic for identical argv + config + seed; reals are
written with 17 significant digits so they round-trip exactly.  Each
table is formatted from its column arrays through one row template and
written in one piece; a column with at most half as many distinct values
as rows is formatted once per distinct value and gathered into it.  A
state (``symmetrize``) is written as ``json.dumps`` writes it, joined from
a few pieces per term: the coefficient parts with their JSON text, then
the mode ids one pair of slots a piece, from a table of the d^2 id-pair
texts when d^2 (d distinct ids) is no more than the terms, else one slot
a piece.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import balance, counting, distributions, spinstat, symmetry, wavepacket
from .errors import (
    ConvergenceError,
    DomainError,
    IdstatError,
    NonConvergence,
    ParseError,
)

__all__ = ["Config", "load_config", "run", "main"]

FMT = "%.17g"

EXIT_BROKEN_PIPE = 141


@dataclass(frozen=True)
class Config:
    """Unit constants and output defaults, overridable from a JSON file."""

    hbar: float = 1.0
    k_boltzmann: float = 1.0
    h_planck: float = 1.0
    c_light: float = 1.0
    output_format: str = "csv"
    seed: int = 0


def load_config(path: str) -> Config:
    """Read a JSON config; missing keys fall back to defaults."""
    try:
        with open(path) as fh:
            text = fh.read()
        raw = json.loads(text or "{}")
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"config {path} is not valid JSON (line {exc.lineno}): {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ParseError(f"config {path} must contain a JSON object")
    known = {f: getattr(Config, f) for f in Config.__dataclass_fields__}
    unknown = set(raw) - set(known)
    if unknown:
        raise ParseError(f"unknown config keys: {sorted(unknown)}")
    merged = {**known, **raw}
    for key in ("hbar", "k_boltzmann", "h_planck", "c_light"):
        value = merged[key]
        if not isinstance(value, (int, float)) or value <= 0:
            raise ParseError(f"config key {key} must be a positive number, got {value!r}")
        merged[key] = float(value)
    if merged["output_format"] not in ("csv", "json"):
        raise ParseError("output_format must be 'csv' or 'json'")
    if not isinstance(merged["seed"], int) or isinstance(merged["seed"], bool):
        raise ParseError("seed must be an integer")
    return Config(**merged)


def _texts(values: np.ndarray, fmt: str, most: int | None = None):
    """``fmt % v`` for every value, as an object array of ``str`` shaped
    like ``values``, formatting each distinct value once.  ``fmt`` may
    hold newlines and other text around its one value: the texts are
    formatted in one string and split at NUL, which no text here holds.

    Floats are keyed by their bit pattern, so -0.0 keeps its sign and each
    NaN or infinity formats as itself; other dtypes are keyed by value.
    Returns None, formatting nothing, when there are more than ``most``
    distinct values, counted by a plain sort (a third of the cost of
    ``np.unique``'s inverse index at 2048 values, a seventh at 20480).
    """
    flat = values.ravel()
    keys = flat.view(f"i{flat.itemsize}") if flat.dtype.kind == "f" else flat
    if most is not None:
        ordered = np.sort(keys)
        if np.count_nonzero(ordered[1:] != ordered[:-1]) >= most:
            return None
    distinct, inverse = np.unique(keys, return_inverse=True)
    texts = ((fmt + "\0") * distinct.size
             % tuple(distinct.view(flat.dtype).tolist())).split("\0")[:-1]
    return np.array(texts, dtype=object)[inverse].reshape(values.shape)


def _emit_table(out, tables, fmt: str):
    """Write (name, header, columns) tables of equal-length 1-D column arrays.

    CSV tables are separated by a blank line; each one's rows come from
    one template applied once to the row-major values.  A column with at
    most half as many distinct values as rows (the time and grid columns
    of a product grid) is formatted once per distinct value by ``_texts``
    and enters the template as ``%s``; every other column keeps a ``%d``
    slot if it is integer and a ``FMT`` slot if not.  JSON is one object
    keyed by table name.
    """
    if fmt == "csv":
        parts = []
        for _, header, columns in tables:
            rows = len(columns[0])
            slots = []
            values = [None] * (len(columns) * rows)
            for k, c in enumerate(columns):
                slot = "%d" if c.dtype.kind in "iu" else FMT
                texts = _texts(c, slot, most=rows // 2)
                if texts is not None:
                    slot, c = "%s", texts
                slots.append(slot)
                values[k::len(columns)] = c.tolist()
            parts.append(",".join(header) + "\n"
                         + ((",".join(slots) + "\n") * rows) % tuple(values))
        out.write("\n".join(parts))
    else:
        doc = {name: [dict(zip(header, r)) for r in zip(*(c.tolist() for c in columns))]
               for name, header, columns in tables}
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)


# -- subcommands -----------------------------------------------------------


def _cmd_evolve(args, cfg: Config, out) -> int:
    if args.t_samples < 1:
        raise ParseError(f"--t-samples must be at least 1, got {args.t_samples}")
    if not math.isfinite(args.t_stop - args.t_start):
        raise ValueError(f"--t-start and --t-stop must be finite and a finite distance "
                         f"apart, got {args.t_start} and {args.t_stop}")
    packet = wavepacket.WavePacket(
        m0=args.m0, sigma=args.sigma, x0=args.x0, t0=args.t0, k0=args.k0,
        hbar=cfg.hbar,
    )
    grid = wavepacket.Grid(args.xmin, args.xmax, args.points)
    times = np.linspace(args.t_start, args.t_stop, args.t_samples)
    xs = grid.points()
    # At a huge |t - t0| the width passes the float range and psi is not
    # finite, which is refused; a far row whose amplitude underflows to an
    # exact zero is kept.
    psi = np.concatenate([wavepacket.evaluate(packet, xs, float(t)) for t in times])
    if not np.isfinite(psi).all():
        raise ValueError("psi passes the float range on this grid and time range")
    columns = [np.repeat(times, xs.size), np.tile(xs, times.size),
               psi.real, psi.imag, np.abs(psi) ** 2]
    _emit_table(out, [("evolve", ["t", "x", "re", "im", "density"], columns)], args.format)
    return 0


_STATE_SCHEMA = 1


def _state_from_json(raw) -> symmetry.NParticleState:
    try:
        if raw.get("schema", _STATE_SCHEMA) != _STATE_SCHEMA:
            raise ParseError(f"unsupported state schema {raw['schema']!r}")
        n = int(raw["n"])
        terms = [
            (complex(t["coeff"][0], t["coeff"][1]), tuple(int(m) for m in t["modes"]))
            for t in raw["terms"]
        ]
        # Mode ids past int64 and non-finite coefficients are ValueErrors.
        return symmetry._canonical(n, terms)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed state description: {exc}") from exc


def _state_text(state: symmetry.NParticleState) -> str:
    """The state as ``json.dumps(..., indent=2, sort_keys=True)`` writes
    the object ``{"schema", "n", "terms": [{"coeff": [re, im], "modes"}]}``,
    filled in from the state's arrays by one join.

    Each term is two coefficient pieces, each value with the JSON text
    around it folded in, then its mode ids.  Each distinct value is
    formatted once, as json writes it: coefficient parts by ``_texts``
    through ``%r`` (float.__repr__; a state's coefficients are finite, and
    -0.0 keeps its sign) and mode ids through ``str``.  With d distinct
    ids and d^2 no more than the terms, the ids go in one piece per pair
    of slots, gathered from a table of the d^2 id-pair texts (a last odd
    slot alone); otherwise in one piece per slot, so the table never
    outgrows the output.  A term's last piece carries its closing text,
    and the last term's the state's.
    """
    count, n = state.modes.shape
    head = f'{{\n  "n": {state.n},\n  "schema": {_STATE_SCHEMA},\n  "terms": ['
    if not count:
        return head + "]\n}"
    comma, close = ",\n        ", "\n      ]\n    },"
    pieces = [_texts(state.coeffs.real, '\n    {\n      "coeff": [\n        %r' + comma),
              _texts(state.coeffs.imag, '%r\n      ],\n      "modes": '
                     + ("[\n        " if n else "[]\n    },"))]
    if n:
        distinct, ranks = np.unique(state.modes, return_inverse=True)
        ranks = ranks.reshape(count, n)
        texts = list(map(str, distinct.tolist()))
        units, keys, last, last_key = texts, ranks[:, :-1], texts, ranks[:, -1]
        d = len(texts)
        if n > 1 and d * d <= count:
            units = [a + comma + b for a in texts for b in texts]
            keys = ranks[:, 0:n - 1:2] * d + ranks[:, 1::2]
            if n % 2 == 0:
                last, last_key, keys = units, keys[:, -1], keys[:, :-1]
        pieces += [np.array([u + comma for u in units], dtype=object)[keys],
                   np.array([u + close for u in last], dtype=object)[last_key]]
    pieces = np.column_stack(pieces)
    pieces[-1, -1] = pieces[-1, -1][:-1] + "\n  ]\n}"  # no comma after the last term
    return head + "".join(pieces.ravel().tolist())


def _cmd_symmetrize(args, cfg: Config, out) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input) as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read state file {args.input}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"state input is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    state = _state_from_json(raw)
    projected = (symmetry.antisymmetrize(state) if args.anti
                 else symmetry.symmetrize(state))
    print(_state_text(projected), file=out)
    return 0


def _cmd_exchange_phase(args, cfg: Config, out) -> int:
    m = args.spin
    f = spinstat.exchange_phase(m, args.chi_a, args.chi_b)
    factor_ab = spinstat.rotation_phase(-m, args.chi_a, args.chi_b)
    factor_ba = spinstat.rotation_phase(-m, args.chi_b, args.chi_a)
    payload = {
        "spin": args.spin,
        "F": [f.real, f.imag],
        "factor_a_to_b": [factor_ab.real, factor_ab.imag],
        "factor_b_to_a": [factor_ba.real, factor_ba.imag],
    }
    print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    return 0


def _cmd_count(args, cfg: Config, out) -> int:
    region = counting.OccupancyRegion(n=args.n, g=args.g)
    if args.oracle:
        if args.stat == "boltzmann":
            raise ParseError("--oracle is only defined for bose and fermi counts")
        value = counting.oracle_count(region, args.stat)
    else:
        value = {"bose": counting.bose_w, "fermi": counting.fermi_w,
                 "boltzmann": counting.boltzmann_w}[args.stat](region)
    lines = {"count": str(value)}
    if args.entropy:
        rs = counting.RegionSet((region,), k=cfg.k_boltzmann)
        lines["entropy"] = FMT % counting.entropy(rs, args.stat)
    if args.format == "json":
        print(json.dumps(lines, indent=2, sort_keys=True), file=out)
    else:
        print(lines["count"], file=out)
        if "entropy" in lines:
            print(lines["entropy"], file=out)
    return 0


def _cmd_distribute(args, cfg: Config, out) -> int:
    spec = distributions.GasSpec(
        volume=args.V, temperature=args.T, mass=args.mass,
        statistics=args.stat, c=cfg.c_light, h=cfg.h_planck, k=cfg.k_boltzmann,
    )
    grid = distributions.MomentumGrid(args.pmin, args.pmax, args.bins)
    ps = grid.centers()
    eps = distributions.grid_energies(spec, grid)
    g = distributions.grid_mode_counts(spec, grid)
    mu = distributions.solve_mu(args.N, spec, grid)
    occ = distributions.occupancy(eps, mu, spec, g_p=g)
    if args.via == "maxent":
        e_target = float((occ * eps).sum())
        occ = distributions.max_entropy_occupancies(spec, grid, args.N, e_target).occupancies
    _emit_table(out, [("distribute", ["p", "eps", "g_p", "occupancy"], [ps, eps, g, occ])],
                args.format)
    return 0


def _cmd_balance(args, cfg: Config, out) -> int:
    energies = np.arange(1.0, args.bins + 1.0)
    rng = np.random.default_rng(args.seed)
    g_fn = lambda eps: args.g0
    pop1 = balance.stationary_population(
        g_fn, args.beta, args.mu, energies, 1.0, s_max=args.smax, kind=1)
    pop2 = balance.stationary_population(
        g_fn, args.beta, args.mu, energies, 1.0, s_max=args.smax, kind=2)
    channels = balance.standard_channels(energies, args.smax, args.smax)
    pop1, pop2 = balance.scramble(pop1, pop2, channels, rng)
    try:
        result = balance.relax(pop1, pop2, channels, steps=args.steps,
                               seed=args.seed, tol=args.tol)
        code = 0
    except NonConvergence as exc:
        result = exc.result
        code = 4
        print(f"error: NonConvergence: {exc}", file=sys.stderr)
    pop = result.pop1
    _emit_table(out, [
        ("sweeps", ["sweep", "max_residual", "entropy", "total_quanta"],
         [np.arange(1, len(result.max_residuals) + 1), np.array(result.max_residuals),
          np.array(result.entropies), np.array(result.quanta)]),
        ("population", ["eps", "s", "p"],
         [np.repeat(pop.energies, pop.s_max + 1),
          np.tile(np.arange(pop.s_max + 1), pop.n_bins), pop.table.T.ravel()]),
    ], args.format)
    return code


def _cmd_selftest(args, cfg: Config, out) -> int:
    failures = 0

    def check(name: str, ok: bool):
        nonlocal failures
        print(f"{'ok' if ok else 'FAIL'} {name}", file=out)
        if not ok:
            failures += 1

    region_pairs = [(n, g) for n in range(0, 7) for g in range(1, 8)]
    check("bose counts match enumeration", all(
        counting.bose_w(counting.OccupancyRegion(n, g))
        == counting.oracle_count(counting.OccupancyRegion(n, g), "bose")
        for n, g in region_pairs))
    check("fermi counts match enumeration", all(
        counting.fermi_w(counting.OccupancyRegion(n, g))
        == counting.oracle_count(counting.OccupancyRegion(n, g), "fermi")
        for n, g in region_pairs if n <= g))

    rng = np.random.default_rng(cfg.seed)
    perms = np.array(list(itertools.permutations(range(5))))
    ok_perm = True
    for _ in range(5):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        naive = m[np.arange(5), perms].prod(axis=1).sum()
        ok_perm &= abs(symmetry.permanent(m) - naive) <= 1e-10 * max(1.0, abs(naive))
    check("glynn permanent matches naive sum", ok_perm)

    check("exchange phase is (-1)^(2s)", all(
        abs(spinstat.exchange_phase(s, 0.3, 2.1) - (-1.0) ** int(round(2 * s))) < 1e-12
        for s in (0, 0.5, 1, 1.5, 2, 2.5)))

    packet = wavepacket.WavePacket(m0=1.0, sigma=1.0, k0=0.4, hbar=cfg.hbar)
    grid = wavepacket.Grid(-12.0, 12.0, 1025)
    check("wavepacket stays normalized",
          abs(wavepacket.norm(packet, 0.7, grid) - 1.0) < 1e-6)
    moved = replace(packet, x0=packet.sigma)
    ab = [wavepacket.overlap(packet, moved, t) for t in (0.0, 5.0)]
    check("packet overlap is time independent and dips to exp(-d^2/sigma^2)",
          abs(ab[1] - ab[0]) < 1e-12 and abs(abs(ab[0]) ** 2 - np.exp(-1.0)) < 1e-12)

    spec = distributions.GasSpec(volume=200.0, temperature=1.0, mass=1.0,
                                 statistics="fermi", c=cfg.c_light,
                                 h=cfg.h_planck, k=cfg.k_boltzmann)
    mg = distributions.MomentumGrid(0.0, 3.0, 16)
    mu = distributions.solve_mu(50.0, spec, mg)
    eps = distributions.grid_energies(spec, mg)
    g = distributions.grid_mode_counts(spec, mg)
    n_back = float(np.sum(distributions.occupancy(eps, mu, spec, g_p=g)))
    check("chemical potential round trip", abs(n_back - 50.0) < 1e-8 * 50.0)

    energies = np.arange(1.0, 5.0)
    pop = balance.stationary_population(lambda e: 6.0, 1.0, 0.2, energies, 1.0,
                                        s_max=40)
    channels = balance.standard_channels(energies, 40, 40)
    worst = float(np.max(np.abs(balance.balance_residuals(pop, pop, channels))))
    check("stationary population balances every channel", worst < 1e-12)

    return 1 if failures else 0


# -- driver ----------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing never changes it)."""
    parser = argparse.ArgumentParser(
        prog="idstat",
        description="Identical-particle statistics toolbox",
    )
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default from config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (overrides config and IDSTAT_SEED)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="sample a Gaussian packet over time")
    p.add_argument("--m0", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--k0", type=float, default=0.0)
    p.add_argument("--xmin", type=float, default=-12.0)
    p.add_argument("--xmax", type=float, default=12.0)
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-stop", type=float, default=1.0)
    p.add_argument("--t-samples", type=int, default=5)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("symmetrize", help="project a JSON state")
    p.add_argument("--input", default="-", help="state file or - for stdin")
    p.add_argument("--anti", action="store_true", help="antisymmetrize instead")
    p.set_defaults(func=_cmd_symmetrize)

    p = sub.add_parser("exchange-phase", help="one-sense rotation exchange factor")
    p.add_argument("--spin", type=float, required=True)
    p.add_argument("--chi-a", type=float, required=True)
    p.add_argument("--chi-b", type=float, required=True)
    p.set_defaults(func=_cmd_exchange_phase)

    p = sub.add_parser("count", help="exact statistical weights")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--stat", choices=("bose", "fermi", "boltzmann"), required=True)
    p.add_argument("--oracle", action="store_true",
                   help="count by enumeration instead of the formula")
    p.add_argument("--entropy", action="store_true", help="also print k ln w")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("distribute", help="occupation spectrum of an ideal gas")
    p.add_argument("--stat", choices=("bose", "fermi"), required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--N", type=float, required=True)
    p.add_argument("--V", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--pmin", type=float, default=0.0)
    p.add_argument("--pmax", type=float, required=True)
    p.add_argument("--via", choices=("closed", "maxent"), default="closed")
    p.set_defaults(func=_cmd_distribute)

    p = sub.add_parser(
        "balance",
        help="scramble the stationary two-species toy and relax it back")
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--smax", type=int, default=16)
    p.add_argument("--g0", type=float, default=6.0,
                   help="per-bin mode count of the toy")
    p.add_argument("--beta", type=float, default=1.0, help="1/kT of the toy")
    p.add_argument("--mu", type=float, default=0.0,
                   help="chemical potential in units of kT (the exponent offset)")
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=_cmd_balance)

    p = sub.add_parser("selftest", help="run the built-in oracle suite")
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv=None, out=None) -> int:
    """Parse argv, dispatch, and map errors to the exit-code contract."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config) if args.config else Config()
        seed = args.seed
        if seed is None:
            env = os.environ.get("IDSTAT_SEED")
            seed = int(env) if env else cfg.seed
        cfg = replace(cfg, output_format=args.format or cfg.output_format, seed=seed)
        args.format = cfg.output_format
        args.seed = cfg.seed
        return args.func(args, cfg, out)
    except ParseError as exc:
        print(f"error: ParseError: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except IdstatError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: ValueError: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``idstat selftest | head``).  Point stdout
        # at devnull so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
