"""Finite N-particle states as sums of labeled mode products.

A state of n particles is a finite sum of product terms; each term
assigns one single-particle mode to each Hilbert-space slot and carries a
complex coefficient.  On this representation the module provides slot
(label) and parameter permutations, the (anti)symmetrizer projectors
S = (1/n!) sum_a (eps_a) P_a, scalar products through a pluggable
single-particle overlap, exchange-degeneracy superpositions and their
interference values, and permanent/determinant overlaps of (anti)
symmetrized products.

Modes are registered once in an append-only :class:`ModeRegistry` and
referenced by integer id; anything hashable can be a mode (a WavePacket,
a SpinorMode, an abstract orthonormal label).
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import (
    BadPermutation,
    NotNormalized,
    NotSquare,
    SizeMismatch,
    TooLarge,
)

__all__ = [
    "ModeRegistry",
    "OrthonormalMode",
    "ProductTerm",
    "NParticleState",
    "product_state",
    "zero_state",
    "add",
    "scale",
    "states_close",
    "permute_labels",
    "permute_parameters",
    "permutation_parity",
    "symmetrize",
    "antisymmetrize",
    "scalar_product",
    "exchange_superposition",
    "interference_value",
    "overlap_matrix",
    "permanent",
    "determinant",
    "feynman_amplitude",
    "KroneckerOverlap",
    "MatrixOverlap",
    "check_overlap_provider",
]

# Coefficients at or below this magnitude are dropped in canonical form.
COEFF_DROP_TOL = 1e-14

# Ryser's permanent is O(2^n * n); beyond this the call is a misuse.
PERMANENT_MAX_N = 20

# Columns whose subset row sums the permanent tabulates up front.
_PERMANENT_LOW_COLUMNS = 10

# The projectors expand len(terms) * n! rows of n mode ids; past this the
# call is a misuse.
PROJECTOR_MAX_ROWS = math.factorial(9)

# Term pairs whose slot products scalar_product forms at once.
_TERM_PAIR_BLOCK = 1 << 16

OverlapProvider = Callable[[int, int], complex]


@dataclass(frozen=True)
class OrthonormalMode:
    """Abstract member of an orthonormal family, identified by label."""

    label: Hashable


class ModeRegistry:
    """Append-only table of single-particle modes.

    Registering the same (equal) mode twice returns the original id, so
    mode identity is value identity.  Registration is atomic; reads are
    lock-free and safe from any thread.
    """

    def __init__(self):
        self._modes: list = []
        self._ids: dict = {}
        self._lock = threading.Lock()

    def register(self, mode) -> int:
        with self._lock:
            mode_id = self._ids.get(mode)
            if mode_id is None:
                mode_id = len(self._modes)
                self._modes.append(mode)
                self._ids[mode] = mode_id
            return mode_id

    def __getitem__(self, mode_id: int):
        return self._modes[mode_id]

    def __len__(self) -> int:
        return len(self._modes)


@dataclass(frozen=True)
class ProductTerm:
    """coeff * (mode assigned to slot 0) x (mode assigned to slot 1) x ..."""

    coeff: complex
    modes: tuple[int, ...]

    def __post_init__(self):
        coeff = complex(self.coeff)
        if not cmath.isfinite(coeff):
            raise ValueError("term coefficient must be finite")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "modes", tuple(map(int, self.modes)))


@dataclass(frozen=True)
class NParticleState:
    """Finite sum of same-length product terms; empty sum is the zero state.

    States are kept in canonical form: terms sorted by mode assignment,
    equal assignments merged, and coefficients below 1e-14 dropped, so
    that projector identities can be checked term for term.
    """

    n: int
    terms: tuple[ProductTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if len(t.modes) != self.n:
                raise SizeMismatch(
                    f"term of length {len(t.modes)} in a {self.n}-particle state"
                )

    @property
    def is_zero(self) -> bool:
        return not self.terms


def _canonical(n: int, raw_terms) -> NParticleState:
    merged: dict[tuple[int, ...], complex] = {}
    for coeff, modes in raw_terms:
        merged[modes] = merged.get(modes, 0j) + coeff
    terms = tuple(
        ProductTerm(c, m)
        for m, c in sorted(merged.items())
        if abs(c) > COEFF_DROP_TOL
    )
    return NParticleState(n, terms)


def product_state(modes: Sequence[int], coeff: complex = 1.0) -> NParticleState:
    """Single product term assigning modes[j] to slot j."""
    modes = tuple(int(m) for m in modes)
    return _canonical(len(modes), [(complex(coeff), modes)])


def zero_state(n: int) -> NParticleState:
    return NParticleState(n, ())


def add(a: NParticleState, b: NParticleState) -> NParticleState:
    if a.n != b.n:
        raise SizeMismatch(f"cannot add {a.n}- and {b.n}-particle states")
    return _canonical(a.n, [(t.coeff, t.modes) for t in a.terms + b.terms])


def scale(s: NParticleState, c: complex) -> NParticleState:
    return _canonical(s.n, [(t.coeff * c, t.modes) for t in s.terms])


def states_close(a: NParticleState, b: NParticleState, tol: float = 1e-12) -> bool:
    """Term-for-term comparison of two canonical states."""
    if a.n != b.n:
        return False
    ca = {t.modes: t.coeff for t in a.terms}
    cb = {t.modes: t.coeff for t in b.terms}
    keys = set(ca) | set(cb)
    return all(abs(ca.get(k, 0j) - cb.get(k, 0j)) <= tol for k in keys)


def _check_permutation(perm: Sequence[int], n: int) -> tuple[int, ...]:
    perm = tuple(int(j) for j in perm)
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise BadPermutation(f"{perm} is not a permutation of 0..{n - 1}")
    return perm


def _invert(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for j, pj in enumerate(perm):
        inv[pj] = j
    return tuple(inv)


def permutation_parity(perm: Sequence[int]) -> int:
    """+1 for even, -1 for odd, by cycle decomposition."""
    perm = tuple(perm)
    seen = [False] * len(perm)
    parity = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


def permute_labels(s: NParticleState, perm: Sequence[int]) -> NParticleState:
    """Move the mode occupying slot j to slot perm[j], in every term.

    This is the Hilbert-space relabeling P_perm; coefficients are
    untouched.
    """
    perm = _check_permutation(perm, s.n)
    inv = _invert(perm)
    return _canonical(
        s.n,
        [(t.coeff, tuple(t.modes[inv[k]] for k in range(s.n))) for t in s.terms],
    )


def permute_parameters(s: NParticleState, perm: Sequence[int]) -> NParticleState:
    """Exchange the mode parameters between slots, the opposite sense.

    Slot j receives the mode that occupied slot perm[j], so on a single
    product term this equals permute_labels with the inverse permutation.
    On multi-term states the two agree for every permutation exactly when
    the coefficients are permutation-symmetric.
    """
    perm = _check_permutation(perm, s.n)
    return _canonical(
        s.n,
        [(t.coeff, tuple(t.modes[perm[k]] for k in range(s.n))) for t in s.terms],
    )


def _inverse_permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of all n! permutations of 0..n-1, listed in lexicographic
    order of the permutations, with their inversion counts.

    The table is built by putting each first element f in front of the
    permutations of the rest; f adds f inversions.  A permutation and its
    inverse have the same count.
    """
    perms = np.zeros((1, 0), dtype=np.intp)
    inversions = np.zeros(1, dtype=np.intp)
    for size in range(1, n + 1):
        first = np.repeat(np.arange(size), len(perms))
        rest = np.tile(perms, (size, 1))
        rest += rest >= first[:, None]
        perms = np.column_stack([first, rest])
        inversions = first + np.tile(inversions, size)
    return np.argsort(perms, axis=1), inversions


def _expansion(terms: Sequence[ProductTerm], n: int,
               signed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct mode rows of sum_a (eps_a) P_a over the terms, with
    their summed coefficients divided by n!."""
    inverse, inversions = _inverse_permutations(n)
    factorial = math.factorial(n)
    # Row 0 holds c / n! and row 1 holds -c / n!, formed as (sign * c) / n!
    # in that order so that each matches the scalar arithmetic exactly.
    weights = np.array([[(sign * t.coeff) / factorial for t in terms]
                        for sign in (1, -1)])
    odd = inversions % 2 if signed else np.zeros_like(inversions)
    coeffs = weights[odd].ravel()
    # Row p * len(terms) + i gives slot k the mode that term i had in slot
    # inverse[p, k], as P_p does: the order of a loop over permutations
    # outside a loop over terms.
    modes = np.array([t.modes for t in terms], dtype=np.int64)
    expanded = modes[:, inverse].transpose(1, 0, 2).reshape(len(coeffs), n)
    order = np.lexsort(expanded.T[::-1])
    ordered = expanded[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    # Sequential sums from 0j in expansion order, as a dict merge does.
    merged = np.zeros(int(starts.sum()), dtype=complex)
    np.add.at(merged, group, coeffs)
    return ordered[starts], merged


def _projector(s: NParticleState, signed: bool) -> NParticleState:
    n = s.n
    terms = s.terms
    if signed:
        terms = tuple(t for t in terms if len(set(t.modes)) == n)
    if not terms:
        return zero_state(n)
    if n == 0:
        return s  # the identity is the only permutation
    rows = len(terms)
    for k in range(2, n + 1):
        rows *= k
        if rows > PROJECTOR_MAX_ROWS:
            raise TooLarge(
                f"projecting {len(terms)} terms of {n} particles expands past "
                f"{PROJECTOR_MAX_ROWS} rows")
    modes, coeffs = _expansion(terms, n, signed)
    keep = np.abs(coeffs) > COEFF_DROP_TOL
    flat = modes[keep].ravel().tolist()
    return NParticleState(n, tuple(
        ProductTerm(c, flat[i:i + n])
        for i, c in zip(range(0, len(flat), n), coeffs[keep].tolist())))


def symmetrize(s: NParticleState) -> NParticleState:
    """Projector (1/n!) sum_a P_a; idempotent in canonical form.

    Raises TooLarge when len(terms) * n! exceeds PROJECTOR_MAX_ROWS.
    """
    return _projector(s, signed=False)


def antisymmetrize(s: NParticleState) -> NParticleState:
    """Signed projector (1/n!) sum_a eps_a P_a; kills repeated modes.

    Terms with a repeated mode are dropped before the expansion, so such
    a product gives the zero state at once.  Raises TooLarge when the
    remaining len(terms) * n! exceeds PROJECTOR_MAX_ROWS.
    """
    return _projector(s, signed=True)


def scalar_product(a: NParticleState, b: NParticleState,
                   ov: OverlapProvider) -> complex:
    """<a, b> = sum over term pairs of conj(ca) cb prod_j ov(ma_j, mb_j).

    ov is called once per pair of distinct modes, one from each state,
    not once per term pair.  The slot products are formed for blocks of
    about 64k term pairs at a time, so the full term-pair table is never
    held in memory.
    """
    if a.n != b.n:
        raise SizeMismatch(f"scalar product of {a.n}- and {b.n}-particle states")
    if a.is_zero or b.is_zero:
        return 0j
    a_modes, a_slots = _mode_indices(a)
    b_modes, b_slots = _mode_indices(b)
    # table_t[k, i] = ov(a_modes[i], b_modes[k]); a gather of whole rows
    # by b's slots is the cheap one.
    table_t = np.ascontiguousarray(_overlap_table(a_modes, b_modes, ov).T)
    ca = np.conj([t.coeff for t in a.terms])
    cb = np.array([t.coeff for t in b.terms], dtype=complex)
    block = max(1, _TERM_PAIR_BLOCK // len(cb))
    total = 0j
    for start in range(0, len(ca), block):
        a_block = a_slots[start:start + block]
        # prod[k, i]: product over slots for b term k and a term start + i
        prod = np.ones((len(cb), len(a_block)), dtype=complex)
        for j in range(a.n):
            prod *= table_t[:, a_block[:, j]][b_slots[:, j]]
        total += cb @ prod @ ca[start:start + block]
    return complex(total)


def _mode_indices(s: NParticleState) -> tuple[list[int], np.ndarray]:
    """Distinct modes of s, and each term's slots as indices into them."""
    modes = np.array([t.modes for t in s.terms], dtype=np.int64)
    distinct, index = np.unique(modes, return_inverse=True)
    return distinct.tolist(), index.reshape(len(s.terms), s.n)


def _check_normalized(alpha: complex, beta: complex) -> None:
    size = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(size - 1.0) > 1e-9:
        raise NotNormalized(f"|alpha|^2 + |beta|^2 = {size}, expected 1")


def exchange_superposition(phi: int, eta: int, alpha: complex,
                           beta: complex) -> NParticleState:
    """Two-particle state alpha * phi(x)eta(y) + beta * phi(y)eta(x).

    alpha = beta = 1/sqrt(2) gives the symmetric combination,
    alpha = -beta the antisymmetric one; the coefficients must satisfy
    |alpha|^2 + |beta|^2 = 1.
    """
    _check_normalized(alpha, beta)
    return _canonical(
        2,
        [(complex(alpha), (int(phi), int(eta))),
         (complex(beta), (int(eta), int(phi)))],
    )


def interference_value(alpha: complex, beta: complex, direct: complex,
                       exchange: complex) -> complex:
    """(|a|^2+|b|^2) * direct + 2 Re(conj(a) b) * exchange.

    direct and exchange are the two matrix elements of a permutation-
    symmetric kernel between the plain product and its exchanged partner;
    the second coefficient is the exchange-interference weight.
    """
    _check_normalized(alpha, beta)
    weight = abs(alpha) ** 2 + abs(beta) ** 2
    cross = 2.0 * (complex(alpha).conjugate() * beta).real
    return weight * direct + cross * exchange


def overlap_matrix(a_modes: Sequence[int], b_modes: Sequence[int],
                   ov: OverlapProvider) -> np.ndarray:
    """Matrix M[i, j] = ov(a_modes[i], b_modes[j])."""
    if len(a_modes) != len(b_modes):
        raise SizeMismatch(
            f"mode lists of length {len(a_modes)} and {len(b_modes)}"
        )
    return _overlap_table(a_modes, b_modes, ov)


def _overlap_table(a_modes: Sequence[int], b_modes: Sequence[int],
                   ov: OverlapProvider) -> np.ndarray:
    table = np.empty((len(a_modes), len(b_modes)), dtype=complex)
    for i, ma in enumerate(a_modes):
        for j, mb in enumerate(b_modes):
            table[i, j] = ov(ma, mb)
    return table


def _check_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"matrix of shape {m.shape} is not square")
    return m


def permanent(m) -> complex:
    """Permanent by Ryser's inclusion-exclusion, summed in column blocks.

    perm(M) = (-1)^n sum over column subsets S of
    (-1)^|S| prod_i sum_{j in S} M[i, j].  The row sums of every subset
    of the first k = min(n, 10) columns are built once by doubling, as a
    (2^k, n) table; the remaining n - k columns are walked in Gray-code
    order (Nijenhuis-Wilf), one column added or removed per step, and
    each step takes one vectorized row product and one signed sum over
    the 2^k low subsets.  Python steps drop from 2^n to 2^(n - k).

    Every row sum is rebuilt at each step from its low part, a sum of at
    most k entries, plus a high part carried through 2^(n - k) running
    updates, not 2^n.  Over 20 seeds of scrambled J_n - I, J_n and
    block-triangular references at n = 12..18 the largest miss was
    1.1e-11 of perm(|M|).  Guarded to n <= 20.
    """
    m = _check_square(m)
    n = m.shape[0]
    if n > PERMANENT_MAX_N:
        raise TooLarge(f"permanent guarded to n <= {PERMANENT_MAX_N}, got {n}")
    k = min(n, _PERMANENT_LOW_COLUMNS)
    low_sums = np.zeros((1 << k, n), dtype=complex)
    low_signs = np.ones(1 << k, dtype=complex)
    for j in range(k):
        half = 1 << j
        low_sums[half:2 * half] = low_sums[:half] + m[:, j]
        low_signs[half:2 * half] = -low_signs[:half]
    high_sum = np.zeros(n, dtype=complex)
    total = (low_signs * np.prod(low_sums, axis=1)).sum()
    gray = 0
    for step in range(1, 1 << (n - k)):
        j = (step & -step).bit_length() - 1
        gray ^= 1 << j
        if gray & (1 << j):
            high_sum += m[:, k + j]
        else:
            high_sum -= m[:, k + j]
        sign = -1 if gray.bit_count() % 2 else 1
        total += sign * (low_signs * np.prod(low_sums + high_sum, axis=1)).sum()
    return complex((-1) ** n * total)


def determinant(m) -> complex:
    """Determinant via LAPACK's partial-pivot LU factorization."""
    m = _check_square(m)
    if m.shape[0] == 0:
        return 1.0 + 0j
    return complex(np.linalg.det(m))


def feynman_amplitude(b: NParticleState, a: NParticleState, sign: int,
                      ov: OverlapProvider) -> complex:
    """Two-particle transition amplitude <b(1,2) + sign*b(2,1), a(1,2)>.

    Only the final state is (anti)symmetrized and no normalization factors
    appear; the value equals the both-sides-symmetrized amplitude with
    1/sqrt(2) factors.
    """
    if a.n != 2 or b.n != 2:
        raise SizeMismatch("feynman_amplitude is defined for two-particle states")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    b_combined = add(b, scale(permute_labels(b, (1, 0)), sign))
    return scalar_product(b_combined, a, ov)


class KroneckerOverlap:
    """Overlap of an orthonormal family: 1 for equal ids, else 0."""

    def __call__(self, i: int, j: int) -> complex:
        return 1.0 + 0j if i == j else 0j


class MatrixOverlap:
    """Overlap read from an explicit Hermitian matrix with unit diagonal."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        if not np.allclose(m, m.conj().T, atol=1e-12):
            raise ValueError("overlap matrix must be conjugate-symmetric")
        if not np.allclose(np.diag(m), 1.0, atol=1e-9):
            raise ValueError("overlap matrix must have unit diagonal")
        self.matrix = m

    def __call__(self, i: int, j: int) -> complex:
        return complex(self.matrix[i, j])


def check_overlap_provider(ov: OverlapProvider, mode_ids: Sequence[int],
                           tol: float = 1e-9) -> None:
    """Assert conjugate symmetry and unit self-overlap on the given ids."""
    for i in mode_ids:
        if abs(ov(i, i) - 1.0) > tol:
            raise ValueError(f"self-overlap of mode {i} is {ov(i, i)}, not 1")
        for j in mode_ids:
            if abs(ov(i, j) - np.conj(ov(j, i))) > tol:
                raise ValueError(f"overlap not conjugate-symmetric at ({i}, {j})")
