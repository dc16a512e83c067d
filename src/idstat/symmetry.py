"""Finite N-particle states as sums of labeled mode products.

A state of n particles is a finite sum of product terms; each term
assigns one single-particle mode to each Hilbert-space slot and carries a
complex coefficient.  A state holds its terms as two read-only arrays:
``modes``, one row of n mode ids per term (T x n int64), and ``coeffs``
(T complex).  The state operations form their result through one merge.
Each mode id is replaced by its rank among the distinct ids, in the
smallest unsigned dtype that holds the ranks, and each rank row becomes
one int64 key, its ranks the digits in base (distinct ids), slot 0 most
significant; past 2^62 the partial keys are ranked again.  Every merge
and sort of rows goes through that key: one stable sort groups equal
rows in lexicographic order, each group's coefficients are summed from
0j in input order, the arithmetic of a dict merge, and only the kept
rows are mapped back to ids.  The projectors merge only the terms'
orbits, their sorted rows, and expand each kept orbit into its
n!/prod(m_k!) distinct arrangements (m_k the multiplicities of its
modes) in lexicographic order, so their cost follows the output, not
len(terms) * n!.  The table of arrangements depends only on the run
lengths m_k, so it is built once per multiplicity pattern and kept (the
last 8 patterns, read-only); each projection gathers its ids from it
into one output-sized buffer.  ``scalar_product`` meets in the middle of
the slots instead of looping over term pairs, and sums each group of
terms as one sparse product.
``state.terms`` is built from the arrays on first read.

On this representation the module provides slot (label) and parameter
permutations, the (anti)symmetrizer projectors
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
import functools
import itertools
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

# Glynn's permanent is O(2^(n-1) * n); beyond this the call is a misuse.
PERMANENT_MAX_N = 20

# Column signs whose row sums the permanent tabulates up front.
_PERMANENT_LOW_COLUMNS = 10

# The projectors write n!/prod(m_k!) rows of n mode ids for each orbit
# whose coefficient sum is kept (n! each for antisymmetrize); past this
# many rows, or past the ids of 9! rows of 9, the call is a misuse.
PROJECTOR_MAX_ROWS = math.factorial(9)
PROJECTOR_MAX_IDS = 9 * PROJECTOR_MAX_ROWS

# Row keys stay below this, so that a key plus it still fits in an int64.
_KEY_LIMIT = 1 << 62

# Complex entries in each temporary of scalar_product.
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


@dataclass(frozen=True, slots=True)
class ProductTerm:
    """coeff * (mode assigned to slot 0) x (mode assigned to slot 1) x ...

    Slotted: a term holds its two fields and no instance dict, so the
    n! terms of an expanded state stay small once ``state.terms`` is read.
    """

    coeff: complex
    modes: tuple[int, ...]

    def __post_init__(self):
        coeff = complex(self.coeff)
        if not cmath.isfinite(coeff):
            raise ValueError("term coefficient must be finite")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "modes", tuple(map(int, self.modes)))


class NParticleState:
    """Finite sum of same-length product terms; empty sum is the zero state.

    The terms are held as two read-only arrays: ``modes``, one row of n
    mode ids per term (T x n int64), and ``coeffs``, the T complex
    coefficients.  States made by this module's functions are in
    canonical form: rows sorted lexicographically and distinct, equal
    rows merged, and coefficients at or below COEFF_DROP_TOL dropped, so
    that projector identities can be checked term for term.
    ``NParticleState(n, terms)`` keeps the given ProductTerms in their
    order, as a frozen (n, terms) record would.

    ``terms`` is the tuple of ProductTerm that the arrays describe.  It is
    built on first access and cached, so code that only passes states
    between the functions here never pays for it.  repr, equality and
    hashing are those of the (n, terms) record.
    """

    __slots__ = ("n", "modes", "coeffs", "_terms")

    def __init__(self, n: int, terms: Sequence[ProductTerm]):
        terms = tuple(terms)
        for t in terms:
            if len(t.modes) != n:
                raise SizeMismatch(
                    f"term of length {len(t.modes)} in a {n}-particle state"
                )
        _fill(self, n, _mode_rows([t.modes for t in terms], n),
              np.array([t.coeff for t in terms], dtype=complex), terms)

    @property
    def terms(self) -> tuple[ProductTerm, ...]:
        if self._terms is None:
            # zip over the columns makes each row's tuple directly, without
            # a list per row; with no columns every row is ().
            rows = zip(*self.modes.T.tolist()) if self.n else itertools.repeat(())
            object.__setattr__(self, "_terms", tuple(map(
                _term, self.coeffs.tolist(), rows)))
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not len(self.coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.modes, other.modes)
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.n, self.terms))

    def __repr__(self):
        return f"{type(self).__qualname__}(n={self.n!r}, terms={self.terms!r})"

    def __reduce__(self):
        return type(self), (self.n, self.terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _fill(state: NParticleState, n: int, modes: np.ndarray, coeffs: np.ndarray,
          terms: tuple[ProductTerm, ...] | None) -> NParticleState:
    modes.flags.writeable = False
    coeffs.flags.writeable = False
    for name, value in (("n", n), ("modes", modes), ("coeffs", coeffs),
                        ("_terms", terms)):
        object.__setattr__(state, name, value)
    return state


def _term(coeff: complex, modes: tuple[int, ...]) -> ProductTerm:
    """ProductTerm of a coefficient and mode ids a state's arrays hold,
    which are already checked, so __post_init__ is skipped."""
    term = object.__new__(ProductTerm)
    object.__setattr__(term, "coeff", coeff)
    object.__setattr__(term, "modes", modes)
    return term


def _mode_rows(rows, n: int) -> np.ndarray:
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), n)
    except OverflowError:
        raise ValueError("mode ids must fit in a signed 64-bit integer") from None


def _ranked(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ids, and the rows as ranks into them (smallest uint)."""
    ids, ranks = np.unique(rows, return_inverse=True)
    dtype = np.min_scalar_type(max(len(ids) - 1, 0))
    return ids, ranks.reshape(rows.shape).astype(dtype)


def _merge(ranks: np.ndarray, size: int,
           coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index and coefficient sum (from 0j in input order, as a dict
    merge adds) of each distinct rank row (ranks below ``size``), in
    lexicographic order: the rows are grouped by their ``_row_keys``."""
    if len(ranks) == 1:
        return np.zeros(1, dtype=np.intp), coeffs + 0  # 0j + c
    _, first, group = np.unique(_row_keys(ranks, size), return_index=True,
                                return_inverse=True)
    sums = np.zeros(len(first), dtype=complex)
    # A sum past the float range is left as inf (or nan) for the caller
    # to refuse, as Python's complex arithmetic does without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(sums, group, coeffs)
    return first, sums


def _merged(rows: np.ndarray,
            coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows (mode ids) merged in order: the sorted distinct ids, and
    the rank rows into them and the coefficient sums that are kept, the
    sums at or below COEFF_DROP_TOL dropped.  A non-finite sum raises."""
    ids, ranks = _ranked(rows)
    first, sums = _merge(ranks, len(ids), coeffs)
    if not np.isfinite(sums).all():
        raise ValueError("term coefficient must be finite")
    keep = np.abs(sums) > COEFF_DROP_TOL
    return ids, ranks.take(first[keep], axis=0), sums[keep]


def _state(n: int, rows: np.ndarray, coeffs: np.ndarray) -> NParticleState:
    """Canonical state of the rows (mode ids) and coefficients, merged in
    order; only the kept rows map back to ids."""
    ids, ranks, sums = _merged(rows, coeffs)
    return _fill(object.__new__(NParticleState), n, ids[ranks], sums, None)


def _canonical(n: int, raw_terms) -> NParticleState:
    """Canonical state of (coeff, modes) pairs, summed in the given order."""
    raw = list(raw_terms)
    for _, modes in raw:
        if len(modes) != n:
            raise SizeMismatch(f"term of length {len(modes)} in a {n}-particle state")
    return _state(n, _mode_rows([modes for _, modes in raw], n),
                  np.array([coeff for coeff, _ in raw], dtype=complex))


def product_state(modes: Sequence[int], coeff: complex = 1.0) -> NParticleState:
    """Single product term assigning modes[j] to slot j."""
    modes = tuple(int(m) for m in modes)
    return _canonical(len(modes), [(complex(coeff), modes)])


def zero_state(n: int) -> NParticleState:
    return _fill(object.__new__(NParticleState), n, np.zeros((0, n), dtype=np.int64),
                 np.zeros(0, dtype=complex), ())


def add(a: NParticleState, b: NParticleState) -> NParticleState:
    if a.n != b.n:
        raise SizeMismatch(f"cannot add {a.n}- and {b.n}-particle states")
    return _state(a.n, np.concatenate([a.modes, b.modes]),
                  np.concatenate([a.coeffs, b.coeffs]))


def scale(s: NParticleState, c: complex) -> NParticleState:
    # Python's complex product, not numpy's, whose SIMD loops may fuse a
    # multiply and an add and round differently.
    return _state(s.n, s.modes,
                  np.array([x * c for x in s.coeffs.tolist()], dtype=complex))


def states_close(a: NParticleState, b: NParticleState, tol: float = 1e-12) -> bool:
    """Term-for-term comparison of two canonical states."""
    if a.n != b.n:
        return False
    ids, ranks = _ranked(np.concatenate([a.modes, b.modes]))
    _, diff = _merge(ranks, len(ids), np.concatenate([a.coeffs, -b.coeffs]))
    return bool(np.all(np.abs(diff) <= tol))


def _check_permutation(perm: Sequence[int], n: int) -> np.ndarray:
    perm = tuple(int(j) for j in perm)
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise BadPermutation(f"{perm} is not a permutation of 0..{n - 1}")
    return np.array(perm, dtype=np.intp)


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
    return _state(s.n, s.modes[:, np.argsort(perm)], s.coeffs)


def permute_parameters(s: NParticleState, perm: Sequence[int]) -> NParticleState:
    """Exchange the mode parameters between slots, the opposite sense.

    Slot j receives the mode that occupied slot perm[j], so on a single
    product term this equals permute_labels with the inverse permutation.
    On multi-term states the two agree for every permutation exactly when
    the coefficients are permutation-symmetric.
    """
    perm = _check_permutation(perm, s.n)
    return _state(s.n, s.modes[:, perm], s.coeffs)


@functools.lru_cache(maxsize=8)
def _arrangements(counts: tuple[int, ...]) -> np.ndarray:
    """The distinct arrangements of a sorted row whose runs of equal ids
    have lengths ``counts`` (the classes), as an (M, n) uint8 table of
    class indices, row r the r-th arrangement in lexicographic order:
    M = n! / prod(m_k!) rows.

    The arrangements of a count tuple are, for each class c in turn, c
    put in front of the arrangements of the tuple with one member of c
    taken away.  When that empties c, the class leaves the tuple and the
    child's indices >= c shift up by one; a run of single-member classes
    shares that child.  The tables are built level by level, from one
    member up, for the count tuples that the level above needs, so each
    tuple is built once and only two levels are held at a time.  They are
    built one arrangement per column, where every copy is contiguous, and
    the last is transposed once.

    The table depends only on ``counts``, not on the mode ids, so the last
    8 count tuples' tables are kept and returned read-only.  Each holds at
    most PROJECTOR_MAX_IDS one-byte entries, so the memo holds at most 8 x
    PROJECTOR_MAX_IDS bytes (26 MB); the benchmark's exchange workload,
    with five patterns of 6 to 8 slots, keeps about 0.4 MB.
    """
    levels = [[counts]]
    while True:
        below = {}
        for level_counts in levels[-1]:
            for _, _, child in _children(level_counts):
                below[child] = None
        if not below:
            break
        levels.append(list(below))
    tables: dict = {}
    for level in reversed(levels):
        tables = {c: _prepend(c, tables) for c in level}
    table = np.ascontiguousarray(tables[counts].T)
    table.flags.writeable = False
    return table


def _children(counts: tuple[int, ...]):
    """(first class, end class, child counts) for each child tuple of
    ``counts``, in class order; a single class has none."""
    k = len(counts)
    if k == 1:
        return
    c = 0
    while c < k:
        m = counts[c]
        if m > 1:
            yield c, c + 1, counts[:c] + (m - 1,) + counts[c + 1:]
            c += 1
        else:
            end = c + 1
            while end < k and counts[end] == 1:
                end += 1
            yield c, end, counts[:c] + counts[c + 1:]
            c = end


def _prepend(counts: tuple[int, ...], tables: dict) -> np.ndarray:
    """The arrangement table of ``counts`` from its children's tables."""
    if len(counts) <= 1:
        return np.zeros((sum(counts), 1), dtype=np.uint8)
    parts = [(c, end, tables[child]) for c, end, child in _children(counts)]
    table = np.empty((sum(counts), sum((end - c) * child.shape[1]
                                        for c, end, child in parts)), dtype=np.uint8)
    start = 0
    for c, end, child in parts:
        stop = start + (end - c) * child.shape[1]
        block = table[:, start:stop]
        if counts[c] > 1:
            block[0] = c
            block[1:] = child
        else:
            classes = np.arange(c, end, dtype=np.uint8)[:, None]
            block = block.reshape(len(table), end - c, child.shape[1])
            block[0] = classes
            rest = block[1:]
            np.greater_equal(child[:, None], classes, out=rest)
            rest += child[:, None]
        start = stop
    return table


def _projector(s: NParticleState, signed: bool) -> NParticleState:
    n = s.n
    modes, coeffs = s.modes, s.coeffs
    if n == 0:
        return _state(0, modes, coeffs)  # the identity is the only permutation
    orbits = np.sort(modes, axis=1)
    if signed:
        distinct = np.all(orbits[:, 1:] != orbits[:, :-1], axis=1)
        coeffs = coeffs[distinct]
    if not len(coeffs):
        return zero_state(n)
    if signed:
        modes, orbits = modes[distinct], orbits[distinct]
        # times the sign of the permutation that sorts the row: the parity
        # of the row's inversions
        inversions = np.triu(modes[:, :, None] > modes[:, None, :], 1).sum(axis=(1, 2))
        coeffs = np.where(inversions & 1, -coeffs, coeffs)
    ids, ranks, sums = _merged(orbits, coeffs)
    orbits = ids[ranks]
    # The orbits by their runs of equal ids (a run starts where the id
    # changes): the run lengths m_k pick the table, and the first slot of
    # each run the id that the table's class index stands for.
    starts = np.ones(orbits.shape, dtype=bool)
    starts[:, 1:] = orbits[:, 1:] != orbits[:, :-1]
    groups: dict = {}
    for orbit, row in enumerate(starts.tolist()):
        groups.setdefault(tuple(row), []).append(orbit)
    patterns = []
    sizes = np.empty(len(sums))
    rows = 0
    for row, members in groups.items():
        first_slots = [j for j, new in enumerate(row) if new]
        runs = tuple(b - a for a, b in zip(first_slots, first_slots[1:] + [n]))
        size = math.factorial(n) // math.prod(map(math.factorial, runs))
        rows += size * len(members)
        if rows > PROJECTOR_MAX_ROWS or rows * n > PROJECTOR_MAX_IDS:
            raise TooLarge(
                f"projecting {len(coeffs)} terms of {n} particles expands past "
                f"{PROJECTOR_MAX_ROWS} rows or {PROJECTOR_MAX_IDS} mode ids")
        members = np.array(members)
        sizes[members] = size
        patterns.append((runs, first_slots, members))
    # c * prod(m_k!) / n! is c / M.  Each part is divided on its own, as
    # Python's complex / int does (numpy's complex division multiplies by
    # 1 / M), and + 0 and 0 - give the zeros of a sum from 0j.
    weights = (sums.view(float).reshape(-1, 2) / sizes[:, None]).view(complex).ravel()
    kept = np.abs(weights) > COEFF_DROP_TOL
    several = np.count_nonzero(kept) > 1
    signed_weights = np.stack([weights + 0, 0 - weights], axis=1)
    mode_blocks, coeff_blocks, rank_blocks = [], [], []
    for runs, first_slots, members in patterns:
        members = members[kept[members]]
        if not len(members):
            continue
        # Slot j of arrangement r of member i holds the id (rank) at the
        # start of run table[r, j] of orbit i: the class indices, offset by
        # i * len(runs) into the members' run heads, are gathered in place.
        table = _arrangements(runs)
        index = np.empty((len(members),) + table.shape, dtype=np.intp)
        index[...] = table
        if len(members) > 1:
            index += (np.arange(len(members)) * len(runs))[:, None, None]
        if several:
            rank_blocks.append(ranks[members][:, first_slots].take(index).reshape(-1, n))
        np.take(orbits[members][:, first_slots], index, out=index, mode="clip")
        mode_blocks.append(index.reshape(-1, n))
        coeff_blocks.append(signed_weights[members][:, _parities(n)].ravel() if signed
                            else np.repeat(signed_weights[members, 0], len(table)))
    if not mode_blocks:
        return zero_state(n)
    if not several:
        return _fill(object.__new__(NParticleState), n, mode_blocks[0],
                     coeff_blocks[0], None)
    # The orbits are disjoint sets of rows: one sort puts them in order.
    # Each block is already in order, which a stable sort (timsort) exploits.
    order = np.argsort(_row_keys(np.concatenate(rank_blocks), len(ids)), kind="stable")
    return _fill(object.__new__(NParticleState), n, np.concatenate(mode_blocks)[order],
                 np.concatenate(coeff_blocks)[order], None)


def _parities(n: int) -> np.ndarray:
    """The parity (1 for odd) of each permutation of n in lexicographic
    order: putting f first adds f inversions to the permutation of the rest."""
    parity = np.zeros(1, dtype=np.intp)
    for size in range(2, n + 1):
        parity = ((np.arange(size)[:, None] & 1) ^ parity).ravel()
    return parity


def symmetrize(s: NParticleState) -> NParticleState:
    """Projector (1/n!) sum_a P_a; idempotent in canonical form.

    Every rearrangement of a term lands in its orbit, the term's sorted
    row, so the terms' coefficients are summed per orbit (from 0j in
    input order), and an orbit with sum c and mode multiplicities m_k
    gives its n!/prod(m_k!) distinct arrangements, each with coefficient
    c * prod(m_k!)/n!.  Raises TooLarge when the orbits whose sum is kept
    expand past PROJECTOR_MAX_ROWS rows or PROJECTOR_MAX_IDS mode ids.
    """
    return _projector(s, signed=False)


def antisymmetrize(s: NParticleState) -> NParticleState:
    """Signed projector (1/n!) sum_a eps_a P_a; kills repeated modes.

    Terms with a repeated mode are dropped first, so such a product gives
    the zero state at once.  Each other term's coefficient, times the
    sign of the permutation that sorts its row, is summed into its orbit,
    and an orbit with sum c gives its n! arrangements, each with
    coefficient +-c/n! by the sign of the arrangement.  Raises TooLarge
    when the orbits whose sum is kept expand past PROJECTOR_MAX_ROWS rows
    or PROJECTOR_MAX_IDS mode ids.
    """
    return _projector(s, signed=True)


def scalar_product(a: NParticleState, b: NParticleState,
                   ov: OverlapProvider) -> complex:
    """<a, b> = sum over term pairs of conj(ca) cb prod_j ov(ma_j, mb_j).

    ov is called once per pair of distinct modes, one from each state,
    not once per term pair.  The sum meets in the middle (Horowitz and
    Sahni 1974): each term splits at slot h = n // 2 into a head (slots
    before h) and a tail, and the slot product of a term pair is
    L[head a, head b] * R[tail a, tail b], the products over the head and
    over the tail slots of one distinct head or tail of each state.  With
    a's terms grouped by head p and b's by tail u,

        <a, b> = sum_{p, u} X[p, u] Y[p, u],
        X[p, u] = sum_{i: head_i = p} conj(ca_i) R[tail_i, u],
        Y[p, u] = sum_{k: tail_k = u} cb_k L[p, head_k].

    With T_a and T_b terms, P_a distinct heads of a and S_b distinct
    tails of b, this is about T_a S_b + P_a T_b products and adds, plus
    P_a P_b h and S_a S_b (n - h) table entries, against the T_a T_b n of
    a loop over term pairs.  No count of distinct heads or tails exceeds
    its state's term count, so it is never of a larger order.  Each group
    sum is one sparse product (``_group_sums``): the coefficients are a
    CSR matrix over the groups, so the table rows are read where they lie
    and no term-by-column gather is formed.  b's terms, sorted by tail,
    are taken in runs short enough that each temporary (a's tails or
    heads by the run's tails, the run's heads or tails by a's heads)
    stays within _TERM_PAIR_BLOCK = 64k complex entries; only a single
    column can pass it, when a has more terms or heads than that.
    scipy.sparse is imported on the first call.
    """
    if a.n != b.n:
        raise SizeMismatch(f"scalar product of {a.n}- and {b.n}-particle states")
    if a.is_zero or b.is_zero:
        return 0j
    a_modes, a_slots = _mode_indices(a)
    b_modes, b_slots = _mode_indices(b)
    table = _overlap_table(a_modes, b_modes, ov)
    table_t = np.ascontiguousarray(table.T)
    split = a.n // 2
    a_order, a_heads, a_tails, a_head, a_tail, head_starts = _halves(
        a_slots, split, len(a_modes), by_tail=False)
    b_order, b_heads, b_tails, b_head, b_tail, tail_starts = _halves(
        b_slots, split, len(b_modes), by_tail=True)
    ca = np.conj(a.coeffs)[a_order]
    cb = b.coeffs[b_order]
    # lt[q, p] = L[p, q], for all of b's heads at once when that fits
    whole = len(a_heads) * len(b_heads) <= _TERM_PAIR_BLOCK
    lt = _slot_products(table_t, b_heads, a_heads) if whole else None
    tail_width = max(1, _TERM_PAIR_BLOCK // len(ca))
    term_width = max(1, _TERM_PAIR_BLOCK // len(a_heads))
    total = 0j
    start = 0
    while start < len(cb):
        first = b_tail[start]
        stop = min(start + term_width,
                   tail_starts[min(first + tail_width, len(b_tails))])
        tails = slice(first, b_tail[stop - 1] + 1)
        # x[p, u]: a's terms summed by head against b's tails in the run
        r = _slot_products(table, a_tails, b_tails[tails])
        x = _group_sums(r, a_tail, ca, head_starts)
        # y[u, p]: b's terms in the run summed by tail against a's heads
        head = b_head[start:stop]
        if not whole:
            heads, head = np.unique(head, return_inverse=True)
            lt = _slot_products(table_t, b_heads[heads], a_heads)
        y = _group_sums(lt, head, cb[start:stop],
                        np.clip(tail_starts[first:tails.stop + 1], start, stop) - start)
        total += np.einsum("pu,up->", x, y)
        start = stop
    return complex(total)


def _halves(slots: np.ndarray, split: int, base: int, by_tail: bool):
    """The terms grouped by head, or by tail, where a term's head is its
    slots (indices below ``base``) before ``split`` and its tail the rest.

    Returns the order that sorts the terms by that half, the distinct
    heads and tails (rows of slot indices, in lexicographic order), each
    sorted term's head and tail as indices into them, and the first
    sorted term of each group with the term count appended.  Heads and
    tails are told apart in one ``np.unique``: tail keys are offset past
    every head key.
    """
    count = len(slots)
    keys = np.concatenate([_row_keys(slots[:, :split], base),
                           _row_keys(slots[:, split:], base) + _KEY_LIMIT])
    distinct, first, index = np.unique(keys, return_index=True, return_inverse=True)
    heads = int(np.searchsorted(distinct, _KEY_LIMIT))
    head, tail = index[:count], index[count:] - heads
    order = np.argsort(tail if by_tail else head, kind="stable")
    head, tail = head[order], tail[order]
    groups = len(distinct) - heads if by_tail else heads
    starts = np.searchsorted(tail if by_tail else head, np.arange(groups + 1))
    return (order, slots[first[:heads], :split], slots[first[heads:] - count, split:],
            head, tail, starts)


def _row_keys(rows: np.ndarray, base: int) -> np.ndarray:
    """One int64 key below _KEY_LIMIT per row of entries below ``base``,
    ordered as the rows are lexicographically, so equal rows and only
    they share a key: the columns are digits in that base, slot 0 most
    significant, and the partial keys are ranked again (np.unique) before
    a column would take them past the limit.  No columns: every key 0."""
    key = np.zeros(len(rows), dtype=np.int64)
    bound = 1
    for column in rows.T:
        if bound * base > _KEY_LIMIT:
            key = np.unique(key, return_inverse=True)[1]
            bound = int(key.max()) + 1
        key = key * base + column
        bound *= base
    return key


def _slot_products(table: np.ndarray, a_rows: np.ndarray,
                   b_rows: np.ndarray) -> np.ndarray:
    """P[p, q] = prod_j table[a_rows[p, j], b_rows[q, j]]; ``table`` is
    C-contiguous, and each slot's entries are taken by flat index."""
    out = np.ones((len(a_rows), len(b_rows)), dtype=complex)
    width = table.shape[1]
    for j in range(a_rows.shape[1]):
        out *= table.take(a_rows[:, j, None] * width + b_rows[:, j])
    return out


def _group_sums(rows: np.ndarray, index: np.ndarray, coeffs: np.ndarray,
                starts: np.ndarray) -> np.ndarray:
    """G[g] = sum of coeffs[i] * rows[index[i]] over i in starts[g] to
    starts[g + 1], as one sparse product: the coefficients are the
    entries of a CSR matrix whose rows are the groups, so no gather of
    ``rows`` is formed.  scipy.sparse is imported here, on the first
    scalar product, so that the CLI commands that never take one start
    without it."""
    from scipy.sparse import csr_array

    return csr_array((coeffs, index, starts), shape=(len(starts) - 1, len(rows))) @ rows


def _mode_indices(s: NParticleState) -> tuple[list[int], np.ndarray]:
    """Distinct modes of s, and each term's slots as indices into them."""
    distinct, index = np.unique(s.modes, return_inverse=True)
    return distinct.tolist(), index.reshape(s.modes.shape)


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
    """Permanent by Glynn's formula, summed in column blocks.

    perm(M) = 2^-(n-1) sum over d in {+1, -1}^n with d_0 = +1 of
    (prod_j d_j) prod_i sum_j d_j M[i, j] (Glynn 2010): half of Ryser's
    2^n terms.  The row sums for every sign choice of columns 1..k,
    k = min(n - 1, 10), are tabulated once by doubling (each new sign
    subtracts twice a column) into one (n, 2^k) table; the other n - 1 - k
    signs are walked in Gray-code order (Nijenhuis-Wilf), and each step
    adds the flipped column's move (-2 or +2 times it, both made before
    the walk) to the table in place, then takes one product over rows
    into a reused buffer and one dot with the real signs.  Guarded to
    n <= 20.

    Accuracy, measured on the scrambled J_n - I, J_n and block-triangular
    references (benchmarks/workloads.known_permanent) at n = 12..18, seeds
    0..19: the largest miss was 8.0e-15 of perm(|M|) (5.4e-15 with the
    high signs summed apart from the table; Ryser's sum: 4.7e-12).  On
    Gram matrices of 20 Gaussian packets Im/Re was 4e-16 to 2e-14
    (Ryser's sum: 3e-10 to 5e-9).
    """
    m = _check_square(m)
    n = m.shape[0]
    if n > PERMANENT_MAX_N:
        raise TooLarge(f"permanent guarded to n <= {PERMANENT_MAX_N}, got {n}")
    if n == 0:
        return 1 + 0j
    k = min(n - 1, _PERMANENT_LOW_COLUMNS)
    row_sums = np.empty((n, 1 << k), dtype=complex)
    row_sums[:, 0] = m.sum(axis=1)
    low_signs = np.ones(1 << k)
    for j in range(k):
        half = 1 << j
        row_sums[:, half:2 * half] = row_sums[:, :half] - 2 * m[:, j + 1:j + 2]
        low_signs[half:2 * half] = -low_signs[:half]
    # each walked column's two moves, back to sign +1 and to -1, indexed
    # by the column's new Gray-code bit
    moves = [(2 * m[:, c:c + 1], -2 * m[:, c:c + 1]) for c in range(k + 1, n)]
    products = np.multiply.reduce(row_sums, axis=0)
    total = low_signs @ products
    gray = 0
    for step in range(1, 1 << (n - 1 - k)):
        j = (step & -step).bit_length() - 1
        gray ^= 1 << j
        row_sums += moves[j][gray >> j & 1]
        np.multiply.reduce(row_sums, axis=0, out=products)
        total += (-1) ** gray.bit_count() * (low_signs @ products)
    return complex(total / (1 << (n - 1)))


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
