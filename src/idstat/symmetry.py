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
into one output-sized buffer.  The orbit grouping (each row sorted, each
row's orbit, the sign of the permutation that sorts it) is shared by the
projectors and ``scalar_product``.

``scalar_product`` never loops over term pairs.  When either state was
made by a projector, which keeps on its output the orbits it expanded
and their coefficients, it sums over pairs of orbits instead: each pair
adds one permanent or determinant of the single-particle overlaps of the
two orbits' modes (Loewdin 1955), where the term-pair sum would add up
to n! x n! products; one kernel call evaluates each block of pairs.
Every other state pair, or one whose orbit pairs times 2^(n-1) (n^2 // 3
if signed) outnumber its term pairs, meets in the middle of the slots:
a's coefficients form one sparse head-by-tail matrix per call, and
b's terms are taken in runs sized by the tables they form.  Both routes
read one table of overlaps ov(a mode, b mode); ov need not be Hermitian.
``state.terms`` is built from the arrays on first read.

On this representation the module provides slot (label) and parameter
permutations, the (anti)symmetrizer projectors
S = (1/n!) sum_a (eps_a) P_a, scalar products through a pluggable
single-particle overlap, exchange-degeneracy superpositions and their
interference values, and permanent/determinant overlaps of (anti)
symmetrized products.

``permanent`` runs Glynn's 2^(n-1)-term sum on each fully indecomposable
block of its matrix, one kernel call per block size, and returns their
product.  The blocks come from the zero pattern: modes in orthogonal
sectors (distinct spin states, distinct orthonormal labels) give exact
zeros, and with them a Gram matrix splits into one block per sector.  A
pattern with no perfect matching gives exactly 0j.

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
from typing import Callable, Hashable, NamedTuple, Sequence

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

# Entries in each temporary of scalar_product (complex), and in each
# block that the projectors write and the parity helper compares.
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
    between the functions here never pays for it.  repr, equality,
    hashing and pickling are those of the (n, terms) record.

    A state that a projector returns also keeps, in a private slot, the
    orbits it was built from (see _OrbitForm), so that ``scalar_product``
    and the CLI's state writer read them instead of recovering them from
    the rows.  That form is a cache outside equality and hashing: every
    other way of making a state, unpickling included, leaves it empty.
    """

    __slots__ = ("n", "modes", "coeffs", "_terms", "_form")

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


class _OrbitForm(NamedTuple):
    """The orbits a projector's output was built from.

    ``orbits`` are the kept orbits as sorted rows of mode ids, in
    lexicographic order; ``coeffs`` each orbit's coefficient on its sorted
    arrangement, and ``sizes`` its count M of arrangements (floats);
    ``signed`` whether the antisymmetrizer made it, so that each
    arrangement's coefficient is that one times the arrangement's sign.
    A one-orbit output also keeps the orbit's sorted distinct ``ids`` and
    its ``_arrangements`` ``table``, which is the output's rows as ranks
    into those ids.
    """

    orbits: np.ndarray
    coeffs: np.ndarray
    sizes: np.ndarray
    signed: bool
    ids: np.ndarray | None = None
    table: np.ndarray | None = None


def _fill(state: NParticleState, n: int, modes: np.ndarray, coeffs: np.ndarray,
          terms: tuple[ProductTerm, ...] | None,
          form: _OrbitForm | None = None) -> NParticleState:
    modes.flags.writeable = False
    coeffs.flags.writeable = False
    for name, value in (("n", n), ("modes", modes), ("coeffs", coeffs),
                        ("_terms", terms), ("_form", form)):
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
           coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First index and coefficient sum (from 0j in input order, as a dict
    merge adds) of each distinct rank row (ranks below ``size``), in
    lexicographic order, and each row's group as an index into them: the
    rows are grouped by their ``_row_keys``."""
    if len(ranks) == 1:
        one = np.zeros(1, dtype=np.intp)
        return one, coeffs + 0, one  # 0j + c
    keys = _row_keys(ranks, size)
    if len(keys) and (keys == keys[0]).all():  # one group: no sort needed
        first, group = np.zeros(1, dtype=np.intp), np.zeros(len(keys), dtype=np.intp)
    else:
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.zeros(len(first), dtype=complex)
    # A sum past the float range is left as inf (or nan) for the caller
    # to refuse, as Python's complex arithmetic does without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(sums, group, coeffs)
    return first, sums, group


def _merged(rows: np.ndarray,
            coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows (mode ids) merged in order: the sorted distinct ids, and
    the rank rows into them and the coefficient sums that are kept, the
    sums at or below COEFF_DROP_TOL dropped.  A non-finite sum raises."""
    ids, ranks = _ranked(rows)
    first, sums, _ = _merge(ranks, len(ids), coeffs)
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
    _, diff, _ = _merge(ranks, len(ids), np.concatenate([a.coeffs, -b.coeffs]))
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
        # times the sign of the permutation that sorts the row
        coeffs = np.where(_odd(modes), -coeffs, coeffs)
    ids, ranks, sums = _merged(orbits, coeffs)
    orbits = ids[ranks]
    # The orbits by their runs of equal ids (a run starts where the id
    # changes): the run lengths m_k pick the table, and the first slot of
    # each run the id that the table's class index stands for.
    groups: dict = {}
    for orbit, row in enumerate(_run_starts(orbits).tolist()):
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
    signed_weights = np.stack([weights + 0, 0 - weights], axis=1)

    def coefficients(members, size):
        return (np.where(_parities(n), signed_weights[members, 1:],
                         signed_weights[members, :1]).ravel() if signed
                else np.repeat(signed_weights[members, 0], size))

    blocks = []
    for runs, first_slots, members in patterns:
        members = members[kept[members]]
        if len(members):
            blocks.append((_arrangements(runs), first_slots, members))
    if not blocks:
        return zero_state(n)
    form = _OrbitForm(orbits[kept], signed_weights[kept, 0], sizes[kept], signed)
    if len(blocks) == 1 and len(blocks[0][2]) == 1:
        # One orbit: its arrangements are already in order.  Slot j of
        # arrangement r holds the id at the start of run table[r, j],
        # gathered in place into the buffer that becomes the output.
        table, first_slots, members = blocks[0]
        distinct = orbits[members[0], first_slots]
        index = np.empty(table.shape, dtype=np.intp)
        index[...] = table
        np.take(distinct, index, out=index, mode="clip")
        return _fill(object.__new__(NParticleState), n, index,
                     coefficients(members, len(table)), None,
                     form._replace(ids=distinct, table=table))
    # The orbits are disjoint sets of rows.  Their order is taken from the
    # rank rows first (each orbit's rows are in order already, which a
    # stable sort exploits); then each block of orbits is gathered and
    # written at its sorted rows, so only the output is held at full size.
    heads = [ranks[members][:, first_slots] for _, first_slots, members in blocks]
    order = np.argsort(_row_keys(np.concatenate(
        [h[:, table].reshape(-1, n) for h, (table, _, _) in zip(heads, blocks)]),
        len(ids)), kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    del order
    out_modes = np.empty((len(position), n), dtype=np.int64)
    out_coeffs = np.empty(len(position), dtype=complex)
    # each row as one item, so that a row is written as one copy
    row = np.dtype((np.void, out_modes.itemsize * n))
    out_rows = out_modes.view(row).ravel()
    start = 0
    for h, (table, _, members) in zip(heads, blocks):
        step = max(1, _TERM_PAIR_BLOCK // table.size)
        for i in range(0, len(members), step):
            at = position[start:start + len(members[i:i + step]) * len(table)]
            block = np.ascontiguousarray(ids[h[i:i + step, table]].reshape(-1, n))
            out_rows[at] = block.view(row).ravel()
            out_coeffs[at] = coefficients(members[i:i + step], len(table))
            start += len(at)
    return _fill(object.__new__(NParticleState), n, out_modes, out_coeffs, None, form)


def _run_starts(orbits: np.ndarray) -> np.ndarray:
    """Where each sorted row starts a run of equal entries."""
    starts = np.ones(orbits.shape, dtype=bool)
    starts[:, 1:] = orbits[:, 1:] != orbits[:, :-1]
    return starts


def _odd(rows: np.ndarray) -> np.ndarray:
    """Whether the permutation that sorts each row is odd: the parity of
    the row's inversions, over all slot pairs of a block of rows at once
    (blocks of _TERM_PAIR_BLOCK comparisons)."""
    left, right = np.array(list(itertools.combinations(range(rows.shape[1]), 2)),
                           dtype=np.intp).reshape(-1, 2).T
    odd = np.empty(len(rows), dtype=bool)
    step = max(1, _TERM_PAIR_BLOCK // max(1, len(left)))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        odd[start:start + step] = np.bitwise_xor.reduce(
            block[:, left] > block[:, right], axis=1)
    return odd


@functools.lru_cache(maxsize=8)
def _parities(n: int) -> np.ndarray:
    """The parity (True for odd) of each permutation of n in lexicographic
    order, kept read-only for the last 8 n: putting f first adds f
    inversions to the permutation of the rest."""
    parity = np.zeros(1, dtype=bool)
    for size in range(2, n + 1):
        parity = ((np.arange(size)[:, None] % 2 == 1) ^ parity).ravel()
    parity.flags.writeable = False
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

    ov is called at most once per pair of distinct modes, one from each
    state, not once per term pair, and always as ov(mode of a, mode of
    b): both routes below read one such table, so ov need not be
    Hermitian.

    Orbit route.  A row's orbit is the set of its rearrangements, named
    by its sorted row o; with mode multiplicities m_k it has
    M = n!/prod(m_k!) distinct arrangements.  A state lies in the
    symmetrizer's range when each orbit present holds all M arrangements
    with one coefficient A, and in the antisymmetrizer's range when no
    orbit repeats a mode and each holds all n! arrangements with A times
    the sign of the permutation that sorts the row.  Summed over the
    arrangements s of o, for any row r over the modes of an orbit o',

        sum_s prod_j ov(s_j, r_j) = perm(G) / prod(m_k!),
        sum_s sign(s) prod_j ov(s_j, r_j) = sign(r) det(G),

    with G[i, j] = ov(o[i], o'[j]) (rows from a's orbit, columns from
    b's).  So when one side P is projected and the other side Q has orbit
    sums B (its coefficients summed per orbit from 0j in term order,
    times sign(r) on the antisymmetric route, nothing dropped),

        <a, b> = sum over orbit pairs of conj(x) y perm(G) / prod(m_k!)

    (or det(G) with no division), where x and y are A on P's side and
    B on Q's, and m_k are those of P's orbit.  An orbit of Q with a
    repeated mode has det(G) = 0 and is skipped.  Which side is projected
    is known, not tested: symmetrize and antisymmetrize record on their
    output the orbits they expanded, each orbit's A and which projector
    made it (the state's private orbit form).  A state made any other
    way carries none, even one equal to a projection term for term, and
    takes the term-pair route unless the other side carries a form.  a's
    form is read first, then b's.  When Q carries a form from the same
    projector, its orbit sums are B = M A (n! A for the antisymmetrizer)
    and nothing is merged; otherwise Q's rows are merged by orbit,
    grouped by their ids less the least id (a sort of the ids only when
    they span 2^31 values or more).  The route is kept only when
    n <= PERMANENT_MAX_N and K_P K_Q w <= T_a T_b, w = 2^(n-1) Glynn sign
    vectors (n^2 // 3 LU steps of n if signed); one call of the stacked
    kernel (see permanent), or of np.linalg.det, evaluates each block of
    orbit pairs.  ov is called only once the route is taken, for the
    orbits' modes.

    Term-pair route, for every other pair.  The sum meets in the middle
    (Horowitz and Sahni 1974): each term splits at slot h = n // 2 into a
    head (slots before h) and a tail, and the slot product of a term pair
    is L[head a, head b] * R[tail a, tail b], the products over the head
    and over the tail slots of one distinct head or tail of each state.
    With a's terms grouped by head p and b's by tail u,

        <a, b> = sum_{p, u} X[p, u] Y[p, u],
        X[p, u] = sum_{i: head_i = p} conj(ca_i) R[tail_i, u],
        Y[p, u] = sum_{k: tail_k = u} cb_k L[p, head_k].

    With T_a and T_b terms, P_a distinct heads of a and S_b distinct
    tails of b, this is about T_a S_b + P_a T_b products and adds, plus
    P_a P_b h and S_a S_b (n - h) table entries, against the T_a T_b n of
    a loop over term pairs.  No count of distinct heads or tails exceeds
    its state's term count, so it is never of a larger order.  Each group
    sum is one sparse product, so the table rows are read where they lie:
    X is a's CSR matrix of conj(ca) (heads by tails, built once) times R,
    and Y a run's CSR matrix of cb (tails by heads) times the head table.
    b's terms, sorted by tail, are taken in runs of at most
    _TERM_PAIR_BLOCK (64k) // max(P_a, S_a) tails, which bounds R, X and
    Y to 64k complex entries.  The head table is built once when P_a P_b
    fits that budget; else each run builds it for its own heads and holds
    at most _TERM_PAIR_BLOCK // P_a terms.  Only a single column can pass
    the budget, when a has more heads or tails than that.  scipy.sparse is
    imported on the first call of this route.
    """
    if a.n != b.n:
        raise SizeMismatch(f"scalar product of {a.n}- and {b.n}-particle states")
    if a.is_zero or b.is_zero:
        return 0j
    total = _orbit_sum(a, b, ov)
    if total is None:
        a_modes, a_slots = _mode_indices(a)
        b_modes, b_slots = _mode_indices(b)
        total = _term_pair_sum(a, a_slots, b, b_slots,
                               _overlap_table(a_modes, b_modes, ov))
    return complex(total)


def _orbit_sum(a: NParticleState, b: NParticleState,
               ov: OverlapProvider) -> complex | None:
    """<a, b> summed over orbit pairs (see scalar_product) when a or b
    carries a projector's orbit form and that sum is the cheaper one,
    else None; ov is called only once the route is taken."""
    n = a.n
    if not 2 <= n <= PERMANENT_MAX_N:
        return None
    projected = 0 if a._form is not None else 1
    form = (a, b)[projected]._form
    if form is None:
        return None
    signed = form.signed
    s = (b, a)[projected]
    if s._form is not None and s._form.signed == signed:
        # each orbit holds its M arrangements with one coefficient w (times
        # their signs), so its sum is M w
        others, sums = s._form.orbits, s._form.coeffs * s._form.sizes
    else:
        rows, base = _small_rows(s.modes)
        first, sums, _ = _merge(np.sort(rows, axis=1), base,
                                np.where(_odd(rows), -s.coeffs, s.coeffs) if signed
                                else s.coeffs)
        others = np.sort(s.modes[first], axis=1)
        if signed:
            # an orbit with a repeated mode has a determinant of 0
            live = _run_starts(others).all(axis=1)
            others, sums = others[live], sums[live]
    pairs = len(form.orbits) * len(others)
    if pairs * (n * n // 3 if signed else 1 << (n - 1)) > len(a.coeffs) * len(b.coeffs):
        return None
    # w / prod(m_k!) on the symmetrizer's side, with prod(m_k!) = n! / M
    coeffs = form.coeffs if signed else form.coeffs * form.sizes / math.factorial(n)
    a_orbits, b_orbits, x, y = ((form.orbits, others, coeffs, sums) if projected == 0
                                else (others, form.orbits, sums, coeffs))
    # the overlaps of the orbits' modes, rows from a and columns from b,
    # and each orbit's modes as indices into them
    a_modes, b_modes = np.unique(a_orbits), np.unique(b_orbits)
    table = _overlap_table(a_modes.tolist(), b_modes.tolist(), ov)
    a_rows, b_rows = np.searchsorted(a_modes, a_orbits), np.searchsorted(b_modes, b_orbits)
    # one kernel call per block of pairs whose row-sum table fits _TERM_PAIR_BLOCK
    evaluate = np.linalg.det if signed else _glynn
    step = max(1, _TERM_PAIR_BLOCK // (n << min(n - 1, _PERMANENT_LOW_COLUMNS)))
    total = 0j
    for start in range(0, pairs, step):
        i, l = np.divmod(np.arange(start, min(start + step, pairs)), len(b_rows))
        # g[p, s, t] = ov(a mode s of pair p's a orbit, b mode t of its b orbit)
        g = table[a_rows[i, :, None], b_rows[l, None, :]]
        total += complex((np.conj(x[i]) * y[l]) @ evaluate(g))
    return total


def _small_rows(modes: np.ndarray) -> tuple[np.ndarray, int]:
    """The mode ids as entries below a base, in the same order, and that
    base: the ids less the least id when they span fewer than 2^31 values
    (a registry's ids do), so that no sort is needed, else their ranks."""
    low = int(modes.min())
    span = int(modes.max()) - low + 1
    if span < 1 << 31:
        return modes - low, span
    ids, ranks = _ranked(modes)
    return ranks, len(ids)


def _term_pair_sum(a: NParticleState, a_slots: np.ndarray, b: NParticleState,
                   b_slots: np.ndarray, table: np.ndarray) -> complex:
    """<a, b> by the meet in the middle (see scalar_product)."""
    from scipy.sparse import csr_array

    table_t = np.ascontiguousarray(table.T)
    split = a.n // 2
    a_order, a_heads, a_tails, _, a_tail, head_starts = _halves(
        a_slots, split, table.shape[0], by_tail=False)
    b_order, b_heads, b_tails, b_head, b_tail, tail_starts = _halves(
        b_slots, split, table.shape[1], by_tail=True)
    # ga[p, t]: a's coefficients, one row per head, one column per tail
    ga = csr_array((np.conj(a.coeffs)[a_order], a_tail, head_starts),
                   shape=(len(a_heads), len(a_tails)))
    cb = b.coeffs[b_order]
    # lt[q, p] = L[p, q], for all of b's heads at once when that fits
    whole = len(a_heads) * len(b_heads) <= _TERM_PAIR_BLOCK
    lt = _slot_products(table_t, b_heads, a_heads) if whole else None
    tail_width = max(1, _TERM_PAIR_BLOCK // max(len(a_heads), len(a_tails)))
    term_width = max(1, _TERM_PAIR_BLOCK // len(a_heads))
    total = 0j
    start = 0
    while start < len(cb):
        first = b_tail[start]
        stop = tail_starts[min(first + tail_width, len(b_tails))]
        if not whole:
            stop = min(stop, start + term_width)
        tails = slice(first, b_tail[stop - 1] + 1)
        # x[p, u]: a's terms summed by head against b's tails in the run
        x = ga @ _slot_products(table, a_tails, b_tails[tails])
        # y[u, p]: b's terms in the run summed by tail against a's heads
        head = b_head[start:stop]
        if not whole:
            heads, head = np.unique(head, return_inverse=True)
            lt = _slot_products(table_t, b_heads[heads], a_heads)
        run_starts = np.clip(tail_starts[first:tails.stop + 1], start, stop) - start
        y = csr_array((cb[start:stop], head, run_starts),
                      shape=(len(run_starts) - 1, len(lt))) @ lt
        total += np.einsum("pu,up->", x, y)
        start = stop
    return total


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
    a column would take them past the limit.  When base^n fits, no
    ranking is needed and the rows meet their digits' place values in one
    matrix-vector product.  No columns: every key 0."""
    if base ** rows.shape[1] <= _KEY_LIMIT:
        return rows @ base ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
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


def _mode_indices(s: NParticleState) -> tuple[list[int], np.ndarray]:
    """Distinct modes of s in ascending order, and each term's slots as
    indices into them; a one-orbit projection's are read from its form."""
    form = s._form
    if form is not None and form.table is not None:
        return form.ids.tolist(), form.table.astype(np.intp)
    distinct, index = np.unique(s.modes, return_inverse=True)
    return distinct.tolist(), index.reshape(s.modes.shape)


def _orbit_coefficients(s: NParticleState) -> tuple[np.ndarray, np.ndarray] | None:
    """A one-orbit projection's distinct coefficients and each term's index
    into them, else None.  The symmetrizer gives every arrangement one
    value; the antisymmetrizer gives the even arrangements the first of
    two and the odd ones the second, as ``_parities`` orders them."""
    form = s._form
    if form is None or form.table is None:
        return None
    if form.signed:
        return s.coeffs[:2], _parities(s.n).astype(np.intp)
    return s.coeffs[:1], np.zeros(len(s.coeffs), dtype=np.intp)


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
    """Permanent by Glynn's formula, per fully indecomposable block.

    A matrix with an exact zero among finite entries is split first.  A
    maximum matching of its nonzero pattern (scipy's
    linear_sum_assignment) either misses a row, and then every product of
    the permanent holds a zero and the value is exactly 0j, or gives each
    row i a column c(i) with M[i, c(i)] != 0.  Then row i leads to row r
    when M[i, c(r)] != 0; the strong components of that graph, found from
    its transitive closure by repeated squaring of a bool matrix, are the
    fully indecomposable blocks M[C, c(C)], and perm(M) is the product of
    their permanents (Frobenius-Koenig; Brualdi and Ryser 1991, ch. 4).
    The blocks are evaluated one stack per block size.  A matrix with no
    zero, or with a NaN or an infinity, is evaluated whole.

    perm(M) = 2^-(n-1) sum over d in {+1, -1}^n with d_0 = +1 of
    (prod_j d_j) prod_i sum_j d_j M[i, j] (Glynn 2010): half of Ryser's
    2^n terms.  One kernel evaluates a (B, n, n) stack.  The row sums for
    every sign choice of columns 1..k, k = min(n - 1, 10), are tabulated
    by doubling (each new sign subtracts twice a column) into one
    (n, B, 2^k) table; the other n - 1 - k signs are walked in Gray-code
    order (Nijenhuis-Wilf).  Each step adds the flipped column's move
    (+-2 times it) to the table in place and dots the product over rows
    with the low signs, negated by its sign; the steps' sums are added in
    walk order at the end.  Guarded to n <= 20, on the whole matrix.

    Accuracy, measured on the scrambled J_n - I, J_n and block-triangular
    references (benchmarks/workloads.known_permanent) at n = 12..18, seeds
    0..19: the largest miss was 5.0e-15 of perm(|M|) (Ryser's sum:
    4.7e-12), on J_n and J_n - I, which are evaluated whole (J_n - I is
    one block); on the block-triangular ones it was 3.7e-17, against
    1.4e-15 with the matrix taken whole.  On Gram matrices of 20 Gaussian
    packets Im/Re was 4e-16 to 2e-14 (Ryser's sum: 3e-10 to 5e-9).
    """
    m = _check_square(m)
    n = m.shape[0]
    if n > PERMANENT_MAX_N:
        raise TooLarge(f"permanent guarded to n <= {PERMANENT_MAX_N}, got {n}")
    nonzero = m != 0
    if nonzero.all() or not np.isfinite(m).all():
        return complex(_glynn(m[None])[0])
    from scipy.optimize import linear_sum_assignment

    rows, match = linear_sum_assignment(nonzero, maximize=True)
    if not nonzero[rows, match].all():
        return 0j
    # reach[i, r]: row i leads to row r; each row leads to itself
    reach = nonzero[:, match]
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    # each row's strong component, named by its least row
    labels = (reach & reach.T).argmax(axis=1)
    sizes = np.bincount(labels, minlength=n)[labels]
    order = np.lexsort((labels, sizes))  # by block size, then by block
    value = 1 + 0j
    for size in np.unique(sizes):
        blocks = order[sizes[order] == size].reshape(-1, size)
        value *= complex(np.prod(_glynn(m[blocks[:, :, None], match[blocks][:, None, :]])))
    return value


@functools.cache
def _glynn_signs(k: int) -> np.ndarray:
    """The signs prod_j d_j of the 2^k tabulated sign choices of columns
    1..k, in table order (row 0), and their negations (row 1), read-only.
    k <= 10, so the memo holds at most 11 tables, 64 KB in all."""
    low_signs = np.ones(1 << k)
    for j in range(k):
        half = 1 << j
        low_signs[half:2 * half] = -low_signs[:half]
    signs = np.array([low_signs, -low_signs], dtype=complex)
    signs.flags.writeable = False
    return signs


def _glynn(stack: np.ndarray) -> np.ndarray:
    """The permanents of a (B, n, n) complex stack (see permanent)."""
    count, n = stack.shape[:2]
    if n == 0:
        return np.ones(count, dtype=complex)
    k = min(n - 1, _PERMANENT_LOW_COLUMNS)
    columns = stack.transpose(2, 1, 0)[..., None]  # columns[c][i, b, 0] = M_b[i, c]
    row_sums = np.empty((n, count, 1 << k), dtype=complex)
    row_sums[..., 0] = stack.sum(axis=2).T
    for j in range(k):
        half = 1 << j
        row_sums[..., half:2 * half] = row_sums[..., :half] - 2 * columns[j + 1]
    signs = _glynn_signs(k)  # by a step's sign bit
    # each walked column's moves back to sign +1 and to -1, by its new bit
    moves = [(2 * columns[c], -2 * columns[c]) for c in range(k + 1, n)]
    products = np.multiply.reduce(row_sums, axis=0)
    sums = np.empty((1 << (n - 1 - k), count), dtype=complex)
    np.dot(products, signs[0], out=sums[0])
    gray = 0
    for step in range(1, len(sums)):
        j = (step & -step).bit_length() - 1
        gray ^= 1 << j
        row_sums += moves[j][gray >> j & 1]
        np.multiply.reduce(row_sums, axis=0, out=products)
        np.dot(products, signs[gray.bit_count() & 1], out=sums[step])
    return np.add.accumulate(sums, out=sums)[-1] / (1 << (n - 1))


def determinant(m) -> complex:
    """Determinant via LAPACK's partial-pivot LU factorization."""
    return complex(np.linalg.det(_check_square(m)))


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
    # the projector of 2b is b + sign P12 b, and keeps its orbit form
    project = symmetrize if sign == 1 else antisymmetrize
    return scalar_product(project(scale(b, 2)), a, ov)


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
        if not (0 <= i < len(self.matrix) and 0 <= j < len(self.matrix)):
            raise IndexError(f"mode ids ({i}, {j}) outside 0..{len(self.matrix) - 1}")
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
