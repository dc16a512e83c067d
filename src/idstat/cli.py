"""Command-line front end: one subcommand per module, CSV or JSON output.

Exit codes: 0 success, 2 usage or config error, 3 domain error (such as a
Pauli violation, Bose saturation or a projector past its size guard),
4 non-convergence.  Domain errors print one machine-parsable line
``error: <code>: <message>`` on stderr.  When the reader of stdout closes
it early, ``main`` exits 141 (128 + SIGPIPE, as shells report a writer
killed by a broken pipe) without a traceback.
Output is deterministic for identical argv + config + seed; reals are
written with 17 significant digits so they round-trip exactly.  A CSV
table is written byte for byte as ``"%.17g"`` (floats) and ``"%d"``
(integers) would write it, but built as byte matrices, a block of rows at
a time, with no Python string per value.  A float's 17 digits are the
rounded D = rint(p) of p = |x| * 10^(16-k) in long double, with k the
decade that puts p in [10^16, 10^17) and the power of ten rounded once;
where p lies within 2 eps * 10^17 (eps of long double) of a half-integer,
and for NaN and infinities, the value is written by ``"%.17g"`` instead
(about 4% of values, and all of them where long double is double).  D is
written eight digits to a uint64 word, and each value's characters are
one gather from its digits and a few literals through a layout that
depends only on the notation and exponent kind of k, the count of
significant digits and the sign.  Each block's fields, with "," and
newlines, fill one byte matrix padded with NUL; its other bytes, joined
over blocks and tables, are decoded once.  A column with at most half as
many distinct values as rows is formatted once per distinct value and
gathered into it.  A state (``symmetrize``) is written as ``json.dumps`` writes it, joined from
a few pieces per term: the coefficient parts with their JSON text, then
the mode ids one pair of slots a piece, from a table of the d^2 id-pair
texts when d^2 (d distinct ids) is no more than the terms, else one slot
a piece.  Each distinct coefficient and id is formatted once.  For a
one-orbit projection, ``symmetry`` hands over the distinct values and
each term's index into them from the orbits the projector kept, so the
output is not ranked again; any other state's come from ``np.unique``.
The document and its newline are one string, written once.
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


def _texts(values: np.ndarray, fmt: str):
    """``fmt % v`` for every value, as an object array of ``str`` shaped
    like ``values``, formatting each distinct value once.  ``fmt`` may
    hold newlines and other text around its one value: the texts are
    formatted in one string and split at NUL, which no text here holds.

    Floats are keyed by their bit pattern, so -0.0 keeps its sign and each
    NaN or infinity formats as itself; other dtypes are keyed by value.
    """
    flat = values.ravel()
    distinct, inverse = np.unique(_keys(flat), return_inverse=True)
    return _formatted(distinct.view(flat.dtype), fmt)[inverse].reshape(values.shape)


def _keys(values: np.ndarray) -> np.ndarray:
    """Floats as their bit patterns (-0.0 apart from 0.0, each NaN as
    itself), other dtypes as they are."""
    return values.view(f"i{values.itemsize}") if values.dtype.kind == "f" else values


def _formatted(values: np.ndarray, fmt: str) -> np.ndarray:
    """``fmt % v`` for each value of a 1-D array, as an object array of
    ``str``, formatted in one string (values as Python scalars)."""
    return np.array(((fmt + "\0") * values.size
                     % tuple(values.tolist())).split("\0")[:-1], dtype=object)


# -- CSV tables as byte matrices --------------------------------------------

# A float's 17 digits come from p = |x| * 10^(16-k) in long double, whose
# error stays below about 1.5 eps * 10^17 (two roundings, p < 10^17).
# Where p lies within _MARGIN of a half-integer, the digits could round
# either way, and the value is written by FMT instead.  Where long double
# is double, the margin passes 1/2 and every value takes FMT.
_MARGIN = 2.0 * float(np.finfo(np.longdouble).eps) * 1e17

# The widest %.17g text: "-1.2345678901234567e-308".
_WIDTH = 24

# A value's characters are gathered from its 32-byte source row: the
# literals "0-.e+" and NUL, the 17 digits at bytes 7..23, and the
# hundreds, tens and ones of |k| at bytes 24..26.  Text shorter than its
# matrix is padded with NUL, which the table writer drops.
_ZERO, _MINUS, _POINT, _E, _PLUS, _NUL = range(6)
_DIGITS, _EXPONENT, _ROW = 7, 24, 32
_LITERALS = int.from_bytes(b"0-.e+", "little")

# The decimal exponents of nonzero doubles.
_K_MIN, _K_MAX = -324, 308

# Layout keys: (kind * 17 + L - 1) * 2 + sign, for the count L of
# significant digits and kind k + 4 in fixed notation (-4 <= k < 17) or,
# in exponent notation, 21 + 2 * (k < 0) + (|k| >= 100).
_KINDS = 25

# Values per block of a table, so that the index and byte matrices stay
# small whatever the table's length.
_BLOCK_VALUES = 1 << 13


class _Memo:
    """A table of rows over the keys 0..shape[0]-1, each row built on
    first use of its key by ``build`` (distinct keys to their rows).
    Threads that fill the same keys write the same rows."""

    def __init__(self, build, shape: tuple, dtype):
        self.build, self.known = build, np.zeros(shape[0], dtype=bool)
        self.rows = np.zeros(shape, dtype=dtype)

    def __getitem__(self, keys: np.ndarray) -> np.ndarray:
        if not np.take(self.known, keys).all():
            wanted = np.zeros(self.known.size, dtype=bool)
            wanted[keys] = True
            new = np.flatnonzero(wanted & ~self.known)
            self.rows[new] = self.build(new)
            self.known[new] = True
        return np.take(self.rows, keys, axis=0)


def _powers_of_ten(keys: np.ndarray) -> np.ndarray:
    """10^(key + 16 - _K_MAX), each rounded once (to nearest, ties to
    even) to long double: the quotient, rounded to the mantissa's width
    with Python ints, summed exactly from 32-bit pieces (a double holds
    each) and scaled by its power of two."""
    bits = np.finfo(np.longdouble).nmant + 1
    quotients, exps = [], []
    for n in (keys + 16 - _K_MAX).tolist():
        power = 10 ** abs(n)
        if n >= 0:
            shift = max(0, power.bit_length() - bits)
            num, den, exp = power, 1 << shift, shift
        else:
            shift = power.bit_length() + bits - 1
            num, den, exp = 1 << shift, power, -shift
        q, r = divmod(num, den)
        quotients.append(q + (2 * r > den or (2 * r == den and q & 1)))
        exps.append(exp)
    out = np.zeros(len(quotients), dtype=np.longdouble)
    for at in range(bits // 32 * 32, -1, -32):
        piece = np.array([q >> at & 0xFFFFFFFF for q in quotients], dtype=np.float64)
        out += np.ldexp(piece.astype(np.longdouble), at)
    return np.ldexp(out, np.array(exps))


def _layouts(codes: np.ndarray) -> np.ndarray:
    """The layout of %.17g for each key: 24 indices into a value's source
    row (NUL past the text), then the text's length.

    ``%g`` writes fixed notation when -4 <= k < 17 and d.ddde+XX otherwise,
    without trailing zeros or a bare point: fixed k >= 0 shows k + 1
    digits before the point, fixed k < 0 shows "0." and -k-1 zeros before
    all L digits, and the exponent form one digit before the point, then
    "e", its sign and two or three exponent digits.
    """
    codes = codes[:, None]
    neg, count, kind = codes % 2, codes // 2 % 17 + 1, codes // 34
    column = np.arange(_WIDTH)
    q = column - neg                               # position after the sign
    fixed, k = kind < 21, kind - 4
    lead = np.where(fixed & (k < 0), 1 - k, 0)     # "0.000" before the digits
    before = np.where(fixed, np.where(k < 0, count, k + 1), 1)
    point = count > before
    body = lead + np.maximum(before, count) + point
    r = q - lead
    index = _DIGITS + np.where(point & (r > before), r - 1, r)
    index = np.where(point & (r == before), _POINT, index)
    index = np.where(q < lead, np.where(q == 1, _POINT, _ZERO), index)
    # the exponent: "e", its sign, then its last two or three digits
    three = (kind - 21) % 2
    t = q - body
    exponent = np.where(t == 0, _E, np.where(t == 1, np.where(kind >= 23, _MINUS, _PLUS),
                                            _EXPONENT - 1 + t - three))
    index = np.where(~fixed & (t >= 0), exponent, index)
    index = np.where(q < 0, _MINUS, index)
    length = neg + body + np.where(fixed, 0, 4 + three)
    index = np.where(column < length, index, _NUL)
    return np.concatenate([index, length], axis=1)


@functools.cache
def _tables():
    """The memos of powers of ten and of layouts, and per decade k its
    layout kind (times 34, the first key of the kind) and the last eight
    bytes of the source row (the digits of |k|), made on first use."""
    k = np.arange(_K_MIN, _K_MAX + 1)
    e = np.abs(k)
    kinds = np.where((k >= -4) & (k < 17), k + 4, 21 + 2 * (k < 0) + (e >= 100)) * 34
    exponents = (48 + e // 100 + (48 + e // 10 % 10 << 8) + (48 + e % 10 << 16)).astype("<u8")
    return (_Memo(_powers_of_ten, (_K_MAX - _K_MIN + 1,), np.longdouble),
            _Memo(_layouts, (_KINDS * 34, _WIDTH + 1), np.uint8), kinds, exponents)


def _float_bytes(values: np.ndarray):
    """``FMT % v`` for each value of a 1-D float array, as a character
    matrix (NUL past each text) and the texts' lengths.

    Each value's characters are one gather from its 32-byte source row
    (its digits, the digits of its decade k and the literals) through the
    layout of its key (kind of k, count L of significant digits, sign);
    the values ``_significands`` leaves inexact take FMT's text, and
    zeros are laid out as "0".
    """
    _, layouts, kinds, exponents = _tables()
    x = np.asarray(values, dtype=np.float64)
    k, d, exact = _significands(x)
    high = d // 10**8
    first = high // 10**8
    eight = np.empty((2, x.size), dtype="<u8")
    eight[0] = high - first * 10**8
    eight[1] = d - high * 10**8
    source = np.empty((x.size, _ROW // 8), dtype="<u8")
    source[:, 0] = _LITERALS + (first + 48 << 56)
    source[:, 1:3] = _eight_digits(eight).T
    source[:, 3] = np.take(exponents, k - _K_MIN)
    source = source.view(np.uint8)
    count = np.where(exact, 17 - np.argmax(source[:, 23:6:-1] != ord("0"), axis=1), 1)
    layout = layouts[np.take(kinds, k - _K_MIN) + (count - 1) * 2 + np.signbit(x)]
    lengths = layout[:, _WIDTH]
    other = np.flatnonzero(~exact & (x != 0))  # NaN != 0 too
    if other.size:
        texts, lengths[other] = _text_bytes(FMT, x[other])
    width = int(lengths.max(initial=0))
    chars = np.take(source, layout[:, :width] + np.arange(0, _ROW * x.size, _ROW)[:, None])
    if other.size:
        chars[other, :texts.shape[1]] = texts
    return chars, lengths


def _significands(x: np.ndarray):
    """The decade k, the 17-digit significand D (uint64) and whether D is
    exact, for each float; k and D are 0 where D is not exact.

    For finite x != 0, k is the decade where p = |x| * 10^(16-k), in long
    double with the power of ten rounded once, lies in [10^16, 10^17):
    floor(log10|x|), moved by one where p falls outside.  D = rint(p), and
    a D that rounds up to 10^17 carries into the next decade.  D is exact
    unless |p - D| > 1/2 - _MARGIN; zeros, NaN and infinities are not.
    """
    powers = _tables()[0]
    a = np.abs(x)
    nonzero = np.isfinite(a) & (a > 0)
    a = np.where(nonzero, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    p = a.astype(np.longdouble) * powers[_K_MAX - k]
    moved = np.flatnonzero((p < 1e16) | (p >= 1e17))
    if moved.size:
        k[moved] += np.where(p[moved] >= 1e17, 1, -1)
        k[moved] = np.clip(k[moved], _K_MIN, _K_MAX)
        p[moved] = a[moved].astype(np.longdouble) * powers[_K_MAX - k[moved]]
    d = np.rint(p)
    exact = nonzero & (np.abs(p - d) <= 0.5 - _MARGIN)
    if moved.size:
        exact[moved] &= (p[moved] >= 1e16) & (p[moved] < 1e17)
    carry = d == 1e17
    k = np.where(exact, k + carry, 0)
    return k, np.where(exact, np.where(carry, 1e16, d), 0).astype(np.uint64), exact


def _eight_digits(values: np.ndarray) -> np.ndarray:
    """The eight decimal digits of each value below 10^8 as the ASCII
    bytes of a little-endian uint64: four digits in each 32-bit half,
    then two in each 16-bit quarter, then one a byte, each step one
    multiply-shift division that stays within its part."""
    four = values // 10**4
    y = four + (values - four * 10**4 << 32)
    two = y * 10486 >> 20 & 0x0000007F0000007F
    z = two + (y - two * 100 << 16)
    tens = z * 103 >> 10 & 0x000F000F000F000F
    return tens + (z - tens * 10 << 8) + 0x3030303030303030


def _text_bytes(fmt: str, values: np.ndarray):
    """``fmt % v`` for each value, formatted in one string, as a character
    matrix as wide as the longest text (NUL past each text) and the
    texts' lengths."""
    text = np.frombuffer(((fmt + "\0") * values.size
                          % tuple(values.tolist())).encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(text == 0)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    span = np.arange(lengths.max(initial=0))
    return text[starts[:, None] + np.minimum(span, lengths[:, None])], lengths


def _fields(columns):
    """The characters and lengths of each 1-D array: ``%d`` for integer
    arrays, one at a time, and FMT for the others, formatted in one
    call, end to end."""
    fields = [None] * len(columns)
    floats = []
    for k, c in enumerate(columns):
        if c.dtype.kind in "iu":
            fields[k] = _text_bytes("%d", c)
        else:
            floats.append(k)
    if floats:
        chars, lengths = _float_bytes(np.concatenate([columns[k] for k in floats]))
        start = 0
        for k in floats:
            stop = start + len(columns[k])
            fields[k] = chars[start:stop], lengths[start:stop]
            start = stop
    return fields


def _csv_bytes(header, columns) -> bytes:
    """One CSV table, header line and rows, as ASCII bytes.

    A column with at most half as many distinct values as rows (the time
    and grid columns of a product grid) is formatted once per distinct
    value and its character rows are gathered by the inverse index; the
    distinct values are counted by a plain sort (a third of the cost of
    ``np.unique``'s inverse index at 2048 values, a seventh at 20480).
    Every other column is formatted a block of rows at a time.  Each
    block's fields, each followed by "," or a newline, fill one byte
    matrix, and its bytes other than the NUL padding are the block's text.
    """
    rows = len(columns[0])
    inverses, distinct = {}, []
    for k, c in enumerate(columns):
        ordered = np.sort(_keys(c))
        if np.count_nonzero(ordered[1:] != ordered[:-1]) < rows // 2:
            values, inverses[k] = np.unique(_keys(c), return_inverse=True)
            distinct.append(values.view(c.dtype))
    shared = dict(zip(inverses, _fields(distinct)))
    others = [k for k in range(len(columns)) if k not in inverses]
    parts = [(",".join(header) + "\n").encode("ascii")]
    step = max(1, _BLOCK_VALUES // len(columns))
    for start in range(0, rows, step):
        fields = dict(zip(others, _fields([columns[k][start:start + step] for k in others])))
        for k, inverse in inverses.items():
            at = inverse[start:start + step]
            fields[k] = np.take(shared[k][0], at, axis=0), np.take(shared[k][1], at)
        fields = [fields[k] for k in range(len(columns))]
        widths = [int(lengths.max()) for _, lengths in fields]
        matrix = np.empty((len(fields[0][1]), sum(widths) + len(widths)), dtype=np.uint8)
        end = 0
        for (chars, _), width in zip(fields, widths):
            matrix[:, end:end + width] = chars[:, :width]
            end += width + 1
            matrix[:, end - 1] = ord(",")
        matrix[:, -1] = ord("\n")
        parts.append(matrix[matrix != 0].tobytes())
    return b"".join(parts)


def _emit_table(out, tables, fmt: str):
    """Write (name, header, columns) tables of equal-length 1-D column arrays.

    CSV tables are separated by a blank line and written as one string,
    decoded once from the tables' bytes: each table is byte matrices, a
    block of rows at a time, with each row's fields and their "," and
    newline laid out side by side, NUL past each field's text, and the
    other bytes kept (``_csv_bytes``).  Integers are written as ``%d``.
    Floats are written byte for byte as ``FMT`` writes them: their 17
    digits come from one long-double scaling, and a value whose scaled
    significand lies within ``_MARGIN`` of a half-integer, NaN and the
    infinities take ``FMT`` itself (``_float_bytes``); the characters are
    gathered from the digits through a layout memoized per key (kind of
    exponent, significant digits, sign).  JSON is one object keyed by
    table name.
    """
    if fmt == "csv":
        out.write(b"\n".join(_csv_bytes(header, columns)
                              for _, header, columns in tables).decode("ascii"))
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
    _emit_table(out, [("evolve", ["t", "x", "re", "im", "density"], columns)],
                cfg.output_format)
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
    and a newline, as ``print`` ends it: filled in from the state's arrays
    by one join, so that the whole output is one string, written once.

    Each term is two coefficient pieces, each value with the JSON text
    around it folded in, then its mode ids.  Each distinct value is
    formatted once, as json writes it: coefficient parts through ``%r``
    (float.__repr__; a state's coefficients are finite, and -0.0 keeps its
    sign) and mode ids through ``str``.  A one-orbit projection's distinct
    coefficients (one, or two by the arrangements' parity) and ids, and
    each term's indices into them, are read from the orbits the projector
    kept (``symmetry._orbit_coefficients`` and ``symmetry._mode_indices``);
    any other state's coefficients go through ``_texts``.  With d distinct
    ids and d^2 no more than the terms, the ids go in one piece per pair
    of slots, gathered from a table of the d^2 id-pair texts (a last odd
    slot alone); otherwise in one piece per slot, so the table never
    outgrows the output.  A term's last piece carries its closing text,
    and the last term's the state's.
    """
    count, n = state.modes.shape
    head = f'{{\n  "n": {state.n},\n  "schema": {_STATE_SCHEMA},\n  "terms": ['
    if not count:
        return head + "]\n}\n"
    comma, close = ",\n        ", "\n      ]\n    },"
    real = '\n    {\n      "coeff": [\n        %r' + comma
    imag = '%r\n      ],\n      "modes": ' + ("[\n        " if n else "[]\n    },")
    orbit = symmetry._orbit_coefficients(state)
    if orbit is None:
        pieces = [_texts(state.coeffs.real, real), _texts(state.coeffs.imag, imag)]
    else:
        # each value's two parts as one piece (+ joins object arrays' str)
        values, index = orbit
        pieces = [(_formatted(values.real, real) + _formatted(values.imag, imag))[index]]
    if n:
        distinct, ranks = symmetry._mode_indices(state)
        texts = list(map(str, distinct))
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
    pieces[-1, -1] = pieces[-1, -1][:-1] + "\n  ]\n}\n"  # no comma after the last term
    # the head joins as the first piece: prefixed to the joined text, it
    # would copy the whole output once more
    pieces[0, 0] = head + pieces[0, 0]
    return "".join(pieces.ravel().tolist())


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
    out.write(_state_text(projected))
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
    if cfg.output_format == "json":
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
    mu = distributions.solve_mu_on_levels(args.N, eps, g, spec.kT, spec.statistics)
    occ = distributions.occupancy(eps, mu, spec, g_p=g)
    if args.via == "maxent":
        e_target = float((occ * eps).sum())
        occ = distributions.max_entropy_on_levels(
            eps, g, args.N, e_target, spec.statistics, spec.k).occupancies
    _emit_table(out, [("distribute", ["p", "eps", "g_p", "occupancy"], [ps, eps, g, occ])],
                cfg.output_format)
    return 0


def _cmd_balance(args, cfg: Config, out) -> int:
    energies = np.arange(1.0, args.bins + 1.0)
    rng = np.random.default_rng(cfg.seed)
    g_fn = lambda eps: args.g0
    pop1 = balance.stationary_population(
        g_fn, args.beta, args.mu, energies, 1.0, s_max=args.smax, kind=1)
    pop2 = balance.stationary_population(
        g_fn, args.beta, args.mu, energies, 1.0, s_max=args.smax, kind=2)
    channels = balance.standard_channels(energies, args.smax, args.smax)
    pop1, pop2 = balance.scramble(pop1, pop2, channels, rng)
    try:
        result = balance.relax(pop1, pop2, channels, steps=args.steps,
                               seed=cfg.seed, tol=args.tol)
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
    ], cfg.output_format)
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
