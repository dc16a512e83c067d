import dataclasses
import functools
import io
import itertools
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from idstat import cli
from idstat import symmetry as sym
from idstat import wavepacket as wp
from idstat.errors import (
    BadPermutation,
    NotNormalized,
    NotSquare,
    SizeMismatch,
    TooLarge,
)

from conftest import simpson_overlap
from test_cli import _state_to_json

RNG = np.random.default_rng(20100701)
EPS = np.finfo(float).eps


def random_unit_overlap(n_modes: int, rng=RNG) -> sym.MatrixOverlap:
    """Random Gram matrix of unit vectors: a valid overlap provider."""
    vectors = rng.normal(size=(n_modes, 2 * n_modes)) + 1j * rng.normal(
        size=(n_modes, 2 * n_modes))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return sym.MatrixOverlap(vectors @ vectors.conj().T)


def random_state(n: int, n_modes: int, n_terms: int, rng=RNG) -> sym.NParticleState:
    terms = []
    for _ in range(n_terms):
        coeff = complex(rng.normal(), rng.normal())
        modes = tuple(int(m) for m in rng.integers(0, n_modes, size=n))
        terms.append((coeff, modes))
    return sym._canonical(n, terms)


def naive_permanent(m: np.ndarray) -> complex:
    n = m.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        total += math.prod(m[i, perm[i]] for i in range(n))
    return total


def exact_permanent(m) -> int:
    """Ryser's formula with Gray-code updates in Python integers: exact."""
    n = len(m)
    sums = [0] * n
    total = 0
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        j = (gray ^ new_gray).bit_length() - 1
        step = 1 if new_gray >> j & 1 else -1
        for i in range(n):
            sums[i] += step * m[i][j]
        gray = new_gray
        total += (-1) ** bin(gray).count("1") * math.prod(sums)
    return (-1) ** n * total


def ryser_mass(m: np.ndarray) -> float:
    """sum over column subsets S of |prod_i sum_{j in S} M[i, j]|.

    Each Ryser term is formed with about n roundings, so a floating-point
    Ryser permanent is good to about n * eps * ryser_mass(M).  The
    subsets are taken 2^16 at a time, so n = 20 needs tens of MB, not ~1 GB.
    """
    n = m.shape[0]
    step = 1 << min(n, 16)
    total = 0.0
    for start in range(0, 1 << n, step):
        subsets = (np.arange(start, start + step)[:, None] >> np.arange(n)) & 1
        total += float(np.abs(np.prod(subsets @ m.T, axis=1)).sum())
    return total


def reference_projector(s: sym.NParticleState, signed: bool) -> sym.NParticleState:
    """(1/n!) sum_a (eps_a) P_a by a loop over itertools.permutations and a
    dict merge of equal mode assignments, in expansion order."""
    raw = []
    for perm in itertools.permutations(range(s.n)):
        sign = sym.permutation_parity(perm) if signed else 1
        inv = tuple(np.argsort(perm))
        for t in s.terms:
            raw.append(
                (sign * t.coeff, tuple(t.modes[inv[k]] for k in range(s.n))))
    merged = {}
    for c, modes in raw:
        merged[modes] = merged.get(modes, 0j) + c / math.factorial(s.n)
    return sym.NParticleState(s.n, tuple(
        sym.ProductTerm(c, m) for m, c in sorted(merged.items())
        if abs(c) > sym.COEFF_DROP_TOL))


def reference_orbit_projector(s: sym.NParticleState, signed: bool) -> sym.NParticleState:
    """(1/n!) sum_a (eps_a) P_a orbit by orbit: each term's coefficient
    (times the sign of the permutation that sorts its row) is summed from
    0j in input order into its sorted row, and each sorted row with sum c
    gives its M distinct arrangements c / M each (times their sign)."""
    orbits = {}
    for t in s.terms:
        order = sorted(range(s.n), key=t.modes.__getitem__)
        row = tuple(t.modes[k] for k in order)
        if signed and len(set(row)) < s.n:
            continue
        c = sym.permutation_parity(order) * t.coeff if signed else t.coeff
        orbits[row] = orbits.get(row, 0j) + c
    terms = []
    for row, c in orbits.items():
        if abs(c) <= sym.COEFF_DROP_TOL:
            continue
        arrangements = sorted(set(itertools.permutations(row)))
        weight = c / len(arrangements)
        for modes in arrangements:
            sign = (sym.permutation_parity([row.index(m) for m in modes])
                    if signed else 1)
            terms.append((modes, 0j + sign * weight))
    return sym.NParticleState(s.n, tuple(
        sym.ProductTerm(c, m) for m, c in sorted(terms)
        if abs(c) > sym.COEFF_DROP_TOL))


def coefficient_mass(s: sym.NParticleState) -> float:
    return sum(abs(t.coeff) for t in s.terms)


def assert_close_terms(got, want, mass: float):
    """Term-for-term agreement within 1e-13 of the coefficient mass, plus
    the drop tolerance: a coefficient at the drop threshold may be kept on
    one side only."""
    tol = 1e-13 * mass + sym.COEFF_DROP_TOL
    assert got.n == want.n
    g = {t.modes: t.coeff for t in got.terms}
    w = {t.modes: t.coeff for t in want.terms}
    for modes in g.keys() | w.keys():
        assert abs(g.get(modes, 0j) - w.get(modes, 0j)) <= tol, modes


def reference_scalar_product(a, b, ov) -> tuple[complex, float]:
    """<a, b> by a loop over term pairs, and the sum of |term| it adds up."""
    total = 0j
    mass = 0.0
    for ta in a.terms:
        for tb in b.terms:
            prod = ta.coeff.conjugate() * tb.coeff
            for ma, mb in zip(ta.modes, tb.modes):
                prod *= ov(ma, mb)
            total += prod
            mass += abs(prod)
    return total, mass


coefficients = st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                  allow_infinity=False)


@st.composite
def states(draw, n=None, n_modes=5):
    """Multi-term states over a few modes, so that modes repeat."""
    if n is None:
        n = draw(st.integers(0, 5))
    terms = draw(st.lists(
        st.tuples(coefficients,
                  st.lists(st.integers(0, n_modes - 1), min_size=n, max_size=n)),
        max_size=4))
    return sym._canonical(n, [(c, tuple(m)) for c, m in terms])


@st.composite
def overlaps(draw, n_modes=5):
    if draw(st.booleans()):
        return sym.KroneckerOverlap()
    seed = draw(st.integers(0, 2**32 - 1))
    return random_unit_overlap(n_modes, np.random.default_rng(seed))


def naive_determinant(m: np.ndarray) -> complex:
    n = m.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        total += sym.permutation_parity(perm) * math.prod(
            m[i, perm[i]] for i in range(n))
    return total


# -- permutations ------------------------------------------------------------


def test_permute_labels_identity():
    s = sym.product_state((0, 1, 2))
    assert sym.permute_labels(s, (0, 1, 2)) == s


def test_permute_labels_swap():
    phi, eta = 0, 1
    s = sym.product_state((phi, eta))
    swapped = sym.permute_labels(s, (1, 0))
    assert swapped.terms[0].modes == (eta, phi)


def test_three_cycle_three_times_is_identity():
    s = random_state(3, 4, 3)
    cycle = (1, 2, 0)
    out = s
    for _ in range(3):
        out = sym.permute_labels(out, cycle)
    assert sym.states_close(out, s)


def test_bad_permutation():
    s = sym.product_state((0, 1))
    with pytest.raises(BadPermutation):
        sym.permute_labels(s, (0, 0))
    with pytest.raises(BadPermutation):
        sym.permute_parameters(s, (0, 1, 2))


def test_permute_parameters_identity():
    s = random_state(3, 4, 2)
    assert sym.states_close(sym.permute_parameters(s, (0, 1, 2)), s)


def test_parameter_exchange_equals_inverse_label_exchange_on_products():
    for n in (2, 3, 4):
        modes = tuple(int(m) for m in RNG.integers(0, 5, size=n))
        s = sym.product_state(modes, coeff=0.3 + 0.4j)
        for perm in itertools.permutations(range(n)):
            inv = tuple(np.argsort(perm))
            assert sym.states_close(
                sym.permute_parameters(s, perm), sym.permute_labels(s, inv))


def test_label_parameter_duality_symmetric_coefficients():
    # c_{r1 r2} symmetric: parameter exchange equals label exchange
    s = sym._canonical(2, [(0.6, (0, 1)), (0.6, (1, 0)), (0.8, (2, 2))])
    swap = (1, 0)
    assert sym.states_close(
        sym.permute_parameters(s, swap), sym.permute_labels(s, swap))

    # and for n=3 under a 3-cycle with fully symmetric coefficients
    coeffs = {}
    for modes in itertools.product(range(3), repeat=3):
        coeffs[modes] = float(sum(modes)) + 1.0  # symmetric in the indices
    s3 = sym._canonical(3, [(c, m) for m, c in coeffs.items()])
    cycle = (1, 2, 0)
    assert sym.states_close(
        sym.permute_parameters(s3, cycle), sym.permute_labels(s3, cycle))


def test_label_parameter_duality_fails_for_asymmetric_coefficients():
    # generic coefficients, non-involutive permutation: the two differ
    s = sym._canonical(3, [(1.0, (0, 1, 2)), (2.0, (1, 2, 0))])
    cycle = (1, 2, 0)
    assert not sym.states_close(
        sym.permute_parameters(s, cycle), sym.permute_labels(s, cycle))


# -- projectors ----------------------------------------------------------------


def test_symmetrize_two_modes():
    s = sym.product_state((0, 1))
    expected = sym._canonical(2, [(0.5, (0, 1)), (0.5, (1, 0))])
    assert sym.states_close(sym.symmetrize(s), expected)


def test_symmetrizer_idempotent_term_for_term():
    for n in (2, 3, 4):
        s = random_state(n, 3, 3)
        once = sym.symmetrize(s)
        twice = sym.symmetrize(once)
        assert sym.states_close(twice, once, tol=1e-12)
        anti_once = sym.antisymmetrize(s)
        anti_twice = sym.antisymmetrize(anti_once)
        assert sym.states_close(anti_twice, anti_once, tol=1e-12)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_projectors_idempotent_term_for_term_past_n_4(n):
    rng = np.random.default_rng(n)
    distinct = [int(m) for m in rng.choice(40, n, replace=False)]
    repeated = distinct[:1] * 3 + distinct[1:2] * 2 + distinct[2:n - 3]
    states = [sym.product_state(distinct, 0.75 - 0.5j),
              sym.product_state(list(rng.permutation(repeated)), -1.5 + 0.25j)]
    if n == 6:
        states.append(random_state(6, 4, 3, rng))
    for s in states:
        for project in (sym.symmetrize, sym.antisymmetrize):
            once = project(s)
            twice = project(once)
            assert len(twice.terms) == len(once.terms)
            assert_close_terms(twice, once, coefficient_mass(once))


def test_sym_of_anti_is_zero_at_n_6():
    rng = np.random.default_rng(6)
    for s in (sym.product_state([5, 2, 9, 0, 7, 3], 1.0 + 2.0j),
              random_state(6, 6, 4, rng), random_state(6, 8, 3, rng)):
        zero = sym.zero_state(6)
        for first, second in ((sym.antisymmetrize, sym.symmetrize),
                              (sym.symmetrize, sym.antisymmetrize)):
            once = first(s)
            assert_close_terms(second(once), zero, coefficient_mass(once))


def test_sym_of_anti_is_zero():
    for n in (2, 3, 4):
        s = random_state(n, n, 3)
        assert sym.symmetrize(sym.antisymmetrize(s)).is_zero
        assert sym.antisymmetrize(sym.symmetrize(s)).is_zero


def test_antisymmetrize_equal_modes_is_zero():
    s = sym.product_state((0, 0))
    assert sym.antisymmetrize(s).is_zero


def test_pauli_exclusion_all_repetition_patterns():
    # any assignment with a repeated mode antisymmetrizes to exactly zero
    for n in range(2, 6):
        for assignment in itertools.product(range(n - 1), repeat=n):
            # n slots over n-1 mode values: some mode always repeats
            state = sym.product_state(assignment)
            assert sym.antisymmetrize(state).is_zero


def test_antisymmetrize_distinct_modes_not_zero():
    s = sym.product_state((0, 1, 2))
    assert not sym.antisymmetrize(s).is_zero


# 300 distinct ids in 60 terms: the ranks the projectors merge on need uint16.
_RNG = np.random.default_rng(5)
WIDE_IDS_STATE = sym._canonical(5, [(complex(*_RNG.normal(size=2)), tuple(row))
                                    for row in _RNG.permutation(300).reshape(60, 5).tolist()])
LOW_ID, HIGH_ID = -2**63, 2**63 - 1


@given(states())
@example(WIDE_IDS_STATE)
@example(sym._canonical(4, [(0.5 - 1j, (LOW_ID, 3, HIGH_ID, -7)),
                            (2.0, (HIGH_ID, HIGH_ID, -1, 0)),
                            (-1.5j, (LOW_ID, LOW_ID, 5, -7)),
                            (0.25, (-7, 0, 3, LOW_ID))]))
# Every term is a rearrangement of one product, so each output row sums
# one coefficient from every term; with these magnitudes the float sum
# depends on its order.
@example(sym._canonical(4, [(c, p + (7,)) for c, p in
                            zip([1e16, 1.0, -1e16 + 3j, 0.5, 3.25e-3, -1.0 - 2e15j],
                                itertools.permutations((4, 1, 9)))]))
def test_projectors_match_reference_loop(s):
    # Same arithmetic in the same order as the orbit loop: equal to the
    # last bit and the sign of zero, hence the repr comparison.  The sum
    # over all n! permutations adds in another order: equal within a
    # tolerance.
    for signed, project in ((False, sym.symmetrize), (True, sym.antisymmetrize)):
        got = project(s)
        assert_same_terms(got, reference_orbit_projector(s, signed))
        assert_close_terms(got, reference_projector(s, signed), coefficient_mass(s))


@given(st.integers(0, 6).flatmap(lambda n: st.permutations(range(n))), coefficients)
@example([2, 0, 1], complex(-0.0, 1.0))
@example([3, 1, 0, 2], complex(1.5, -0.0))
@example([1, 0], complex(-2.0, 0.0))
def test_projectors_of_distinct_products_match_reference_loop_bitwise(perm, c):
    # One term of distinct modes: each output row of the n! loop is one
    # 0j + (sign c) / n!, which the orbit route gives to the last bit.
    s = sym.product_state([7 * m - 3 for m in perm], c)
    assert_same_terms(sym.symmetrize(s), reference_projector(s, signed=False))
    assert_same_terms(sym.antisymmetrize(s), reference_projector(s, signed=True))


def assert_same_terms(got, want):
    """repr-equal states, compared term by term: a failure names the first
    differing term instead of diffing the reprs of whole states."""
    assert got.n == want.n
    for k, (a, b) in enumerate(itertools.zip_longest(got.terms, want.terms)):
        if repr(a) != repr(b):
            pytest.fail(f"term {k} (of {len(got.terms)} vs {len(want.terms)}): "
                        f"{a!r} != {b!r}")


def test_wide_ids_state_needs_uint16_ranks():
    assert len(np.unique(WIDE_IDS_STATE.modes)) > 255


def sorted_permutations(row) -> np.ndarray:
    rows = sorted(set(itertools.permutations(row)))
    return np.array(rows, dtype=np.intp).reshape(len(rows), len(row))


@pytest.mark.parametrize("n", range(8))
def test_arrangements_match_sorted_permutations(n):
    # every multiplicity pattern of n slots, in every order of the runs:
    # distinct, all equal, (3, 2, 1, ...), (1, 2, 1, 2), ...
    patterns = {tuple(len(list(g)) for _, g in itertools.groupby(row))
                for row in itertools.product(range(3), repeat=n) if list(row) == sorted(row)}
    patterns |= {(1,) * n, (n,), (3, 2) + (1,) * (n - 5), (1, 2, 1, 2)[:n]}
    for runs in sorted(p for p in patterns if sum(p) == n and all(p)):
        table = sym._arrangements(runs)
        assert table.dtype == np.uint8 and table.flags.c_contiguous
        classes = [k for k, m in enumerate(runs) for _ in range(m)]
        want = sorted_permutations(classes)
        assert table.shape == want.shape == (
            math.factorial(n) // math.prod(map(math.factorial, runs)), n)
        assert np.array_equal(table, want), runs
    # the parity of each row of the distinct table, as a permutation
    parity = sym._parities(n)
    assert parity.dtype == bool and not parity.flags.writeable
    assert (1 - 2 * parity).tolist() == [
        sym.permutation_parity(p) for p in itertools.permutations(range(n))]



def test_arrangements_are_kept_read_only_per_pattern():
    sym._arrangements.cache_clear()
    table = sym._arrangements((2, 1, 1))
    assert sym._arrangements((2, 1, 1)) is table
    assert sym._arrangements.cache_info().hits == 1
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    # the memo is bounded: the ninth pattern evicts the first
    for n in range(1, 9):
        sym._arrangements((1,) * n)
    assert sym._arrangements.cache_info().currsize == sym._arrangements.cache_info().maxsize == 8
    assert sym._arrangements((2, 1, 1)) is not table
    assert np.array_equal(sym._arrangements((2, 1, 1)), table)


@pytest.mark.parametrize("n", range(9))
def test_odd_reads_memoized_slot_pairs(n):
    # the slot pairs, built once per n, read-only, as itertools lists them
    pairs = sym._slot_pairs(n)
    assert sym._slot_pairs(n) is pairs and not pairs.flags.writeable
    assert pairs.dtype == np.intp and pairs.shape == (2, n * (n - 1) // 2)
    assert [tuple(p) for p in pairs.T.tolist()] == list(itertools.combinations(range(n), 2))
    with pytest.raises(ValueError):
        pairs[0, 0] = 1
    # _odd is the parity of each row's sorting permutation, repeats too
    rows = np.random.default_rng(n).integers(0, max(1, n - 1), size=(50, n))
    assert sym._odd(rows).tolist() == [
        sym.permutation_parity(np.argsort(r, kind="stable")) == -1 for r in rows]


# Orbits of one pattern and of several: five orbits of runs (1, 1, 2, 1),
# two of (1, 1, 1, 1, 1) and one of (2, 3), some entered as several
# rearrangements, so one table serves several members (the offset path)
# and the blocks of several tables are sorted together.
SEVERAL_ORBITS = sym._canonical(5, [
    (0.5 + 0.25j * k, tuple(np.roll([9 + k, 9 + k, 3, -2 + 2 * k, 40], k).tolist()))
    for k in range(5)] + [
    (-1.25, (4, 0, 3, 1, 2)), (0.75j, (2, 3, 0, 4, 1)), (1e-3, (50, 60, 70, 80, 90)),
    (2.0 - 1j, (7, 5, 7, 5, 7)), (-0.5, (5, 5, 7, 7, 7))])


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("s", [sym.product_state([3, -1, 8, 0, 5, 2, 6]),
                               sym.product_state([4, 1, 4, 0, 1, 4, 9], 0.5 - 2j),
                               SEVERAL_ORBITS])
def test_projectors_match_reference_with_the_memo_cold_and_warm(s, warm):
    sym._arrangements.cache_clear()
    if warm:
        sym.symmetrize(s), sym.antisymmetrize(s)
    for signed, project in ((False, sym.symmetrize), (True, sym.antisymmetrize)):
        got = project(s)
        want = reference_orbit_projector(s, signed)
        assert np.array_equal(got.modes, want.modes)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert_canonical_arrays(got)
    # each pattern's table is built once, and not again when warm
    assert sym._arrangements.cache_info().misses == len(
        {tuple(len(list(g)) for _, g in itertools.groupby(row))
         for row in np.sort(s.modes, axis=1).tolist()})


def test_several_orbits_share_one_table():
    sym._arrangements.cache_clear()
    out = sym.symmetrize(SEVERAL_ORBITS)
    assert sym._arrangements.cache_info().misses == 3
    assert len(out.coeffs) == 5 * 60 + 2 * 120 + 10


def test_size_guard_builds_no_table():
    sym._arrangements.cache_clear()
    for project in (sym.symmetrize, sym.antisymmetrize):
        with pytest.raises(TooLarge):
            project(TEN_ORBITS_OF_EIGHT)
        with pytest.raises(TooLarge):
            project(sym.product_state(range(12)))
    assert sym._arrangements.cache_info().misses == 0


def test_warm_projection_of_eight_distinct_modes_allocates_only_its_output():
    # The ids are gathered into the one buffer that becomes the output's
    # modes: a second (8!, 8) temporary would add 2.6 MB, a fresh table 0.3 MB.
    s = sym.product_state(range(8))
    sym.symmetrize(s)
    tracemalloc.start()
    try:
        out = sym.symmetrize(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.modes.shape == (math.factorial(8), 8)
    size = out.modes.nbytes + out.coeffs.nbytes
    assert peak <= size + (1 << 16), (peak, size)


def test_product_term_is_slotted_and_behaves_as_before():
    t = sym.ProductTerm(1 + 2j, (3, 1))
    assert not hasattr(t, "__dict__") and sym.ProductTerm.__slots__ == ("coeff", "modes")
    assert repr(t) == "ProductTerm(coeff=(1+2j), modes=(3, 1))"
    assert t == sym.ProductTerm(1 + 2j, [3, 1]) and hash(t) == hash(((1 + 2j), (3, 1)))
    assert t != sym.ProductTerm(1 + 2j, (1, 3)) and t != (1 + 2j, (3, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.coeff = 0j
    with pytest.raises(dataclasses.FrozenInstanceError):
        del t.modes
    back = pickle.loads(pickle.dumps(t))
    assert back == t and repr(back) == repr(t) and hash(back) == hash(t)
    # the state's terms come through _term, which skips __post_init__
    s = sym.symmetrize(sym.product_state([2, 0, 2], 0.5j))
    fast = sym._term(0.5j / 3, (0, 2, 2))
    assert type(fast) is sym.ProductTerm and fast == s.terms[0]
    assert s.terms == tuple(sym.ProductTerm(c, m) for c, m in
                            zip(s.coeffs.tolist(), map(tuple, s.modes.tolist())))
    back = pickle.loads(pickle.dumps(s))
    assert back == s and back.terms == s.terms and hash(back) == hash(s)


# Ten products of eight distinct modes, no two over the same modes.
TEN_ORBITS_OF_EIGHT = sym._canonical(8, [(1.0 + k, tuple(range(k, k + 8)[::-1]))
                                         for k in range(10)])


def test_projector_size_guard():
    big = sym.product_state(range(12))
    with pytest.raises(TooLarge):
        sym.symmetrize(big)
    with pytest.raises(TooLarge):
        sym.antisymmetrize(big)
    # ten distinct orbits of eight distinct modes: 10 x 8! rows, past 9!
    assert 10 * math.factorial(8) > sym.PROJECTOR_MAX_ROWS
    with pytest.raises(TooLarge):
        sym.symmetrize(TEN_ORBITS_OF_EIGHT)
    with pytest.raises(TooLarge):
        sym.antisymmetrize(TEN_ORBITS_OF_EIGHT)
    # 9! rows of 9 ids is exactly at both bounds and runs; one row more raises
    nine = sym.product_state(range(9))
    assert len(sym.symmetrize(nine).coeffs) == sym.PROJECTOR_MAX_ROWS
    assert 9 * sym.PROJECTOR_MAX_ROWS == sym.PROJECTOR_MAX_IDS
    with pytest.raises(TooLarge):
        sym.symmetrize(sym.add(nine, sym.product_state([7] * 9)))
    # 1808 rows is few, but of 1808 ids each they pass the bound on ids
    with pytest.raises(TooLarge):
        sym.symmetrize(sym.product_state([0] * 1807 + [1]))


def test_projectors_expand_each_orbit_once():
    # one mode in twelve slots is its own orbit: the term comes back as is
    c = 0.5 - 1.25j
    assert sym.symmetrize(sym.product_state([7] * 12, c)).terms == (
        sym.ProductTerm(c, (7,) * 12),)
    # five and five: C(10, 5) rows of c 5! 5! / 10!
    s = sym.product_state([1, 0] * 5, c)
    out = sym.symmetrize(s)
    assert len(out.terms) == 252 == math.comb(10, 5)
    assert [t.modes for t in out.terms] == [tuple(r) for r in sorted_permutations([0] * 5 + [1] * 5)]
    assert math.factorial(10) == 252 * math.factorial(5) ** 2
    assert set(out.coeffs.tolist()) == {c / 252}


def test_projector_of_two_runs_of_five_stays_small():
    s = sym.product_state([0] * 5 + [1] * 5)
    tracemalloc.start()
    try:
        sym.symmetrize(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 10! rows of 10 one-byte ranks would take 36 MB
    assert peak < (math.factorial(10) * 10) // 100


def test_projection_of_eight_orbits_holds_little_beside_its_output():
    # eight orbits of eight distinct modes: 322560 rows, 25.8 MB out.  The
    # row order is taken from the ranks first, and each block is written
    # at its sorted rows; a copy of the joined blocks and another into
    # order would peak at 2.8 times the output.
    raw = [(1.0 + k, tuple(range(k, k + 8)[::-1])) for k in range(8)]
    s = sym._canonical(8, raw)
    for project in (sym.symmetrize, sym.antisymmetrize):
        project(s)
        tracemalloc.start()
        try:
            out = project(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.coeffs) == 8 * math.factorial(8)
        size = out.modes.nbytes + out.coeffs.nbytes
        assert peak <= 1.6 * size, (peak, size)
        # the orbits projected one by one, then merged in order
        want = functools.reduce(sym.add, (project(sym._canonical(8, [t])) for t in raw))
        assert out.modes.dtype == want.modes.dtype
        assert np.array_equal(out.modes, want.modes)
        assert out.coeffs.tobytes() == want.coeffs.tobytes()


def test_antisymmetrize_repeated_mode_skips_expansion():
    # A repeated mode is dropped before the size guard is consulted.
    assert sym.antisymmetrize(sym.product_state([0] * 2 + list(range(1, 11)))).is_zero


@pytest.mark.parametrize("signed", [False, True])
def test_cli_symmetrize_matches_reference_bytes(tmp_path, signed):
    terms = [((0.75, -0.5), [3, 1, 4, 1, 5, 9]),
             ((-0.25, 0.0), [2, 6, 5, 3, 5, 8]),
             ((1.0 / 3.0, 2.0 / 7.0), [0, 1, 2, 3, 4, 5]),
             ((-0.125, 0.625), [5, 4, 3, 2, 1, 0])]
    raw = {"schema": 1, "n": 6,
           "terms": [{"coeff": list(c), "modes": m} for c, m in terms]}
    path = tmp_path / "state.json"
    path.write_text(json.dumps(raw))
    out = io.StringIO()
    argv = ["symmetrize", "--input", str(path)] + (["--anti"] if signed else [])
    assert cli.run(argv, out) == 0
    state = cli._state_from_json(raw)
    expected = reference_orbit_projector(state, signed)
    assert out.getvalue() == json.dumps(
        _state_to_json(expected), indent=2, sort_keys=True) + "\n"
    assert_close_terms(cli._state_from_json(json.loads(out.getvalue())),
                       reference_projector(state, signed), coefficient_mass(state))


def test_cli_symmetrize_rejects_mode_ids_past_int64(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"n": 2, "terms": [{"coeff": [1.0, 0.0], "modes": [0, 2**63]}]}))
    assert cli.run(["symmetrize", "--input", str(path)], io.StringIO()) == 2
    assert capsys.readouterr().err.startswith("error: ParseError: ")


def test_cli_symmetrize_size_guard_exits_3(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(
        {"n": 12, "terms": [{"coeff": [1.0, 0.0], "modes": list(range(12))}]}))
    for extra in ([], ["--anti"]):
        out = io.StringIO()
        assert cli.run(["symmetrize", "--input", str(path)] + extra, out) == 3
        assert out.getvalue() == ""
        assert capsys.readouterr().err.startswith("error: TooLarge: ")


# -- array-backed states -------------------------------------------------------


def reference_canonical(n: int, raw) -> sym.NParticleState:
    """Canonical form by a dict merge from 0j in input order, terms sorted
    by mode tuple and built one ProductTerm at a time."""
    merged = {}
    for c, modes in raw:
        merged[modes] = merged.get(modes, 0j) + c
    return sym.NParticleState(n, tuple(
        sym.ProductTerm(c, m) for m, c in sorted(merged.items())
        if abs(c) > sym.COEFF_DROP_TOL))


def reference_add(a, b):
    return reference_canonical(a.n, [(t.coeff, t.modes) for t in a.terms + b.terms])


def reference_scale(s, c):
    return reference_canonical(s.n, [(t.coeff * c, t.modes) for t in s.terms])


def reference_permute_labels(s, perm):
    inv = [0] * s.n
    for j, pj in enumerate(perm):
        inv[pj] = j
    return reference_canonical(
        s.n, [(t.coeff, tuple(t.modes[inv[k]] for k in range(s.n))) for t in s.terms])


def reference_permute_parameters(s, perm):
    return reference_canonical(
        s.n, [(t.coeff, tuple(t.modes[perm[k]] for k in range(s.n))) for t in s.terms])


def reference_states_close(a, b, tol):
    if a.n != b.n:
        return False
    ca = {t.modes: t.coeff for t in a.terms}
    cb = {t.modes: t.coeff for t in b.terms}
    return all(abs(ca.get(k, 0j) - cb.get(k, 0j)) <= tol for k in set(ca) | set(cb))


def assert_canonical_arrays(s: sym.NParticleState):
    assert s.modes.dtype == np.int64 and s.modes.shape == (len(s.coeffs), s.n)
    assert s.coeffs.dtype == complex
    assert not s.modes.flags.writeable and not s.coeffs.flags.writeable
    assert np.all(np.abs(s.coeffs) > sym.COEFF_DROP_TOL)
    assert np.all(np.isfinite(s.coeffs))
    rows = [tuple(r) for r in s.modes.tolist()]
    assert all(r1 < r2 for r1, r2 in zip(rows, rows[1:]))  # sorted, distinct
    assert [t.modes for t in s.terms] == rows
    assert [t.coeff for t in s.terms] == s.coeffs.tolist()


@st.composite
def state_algebra(draw):
    n = draw(st.integers(0, 4))
    perm = draw(st.permutations(range(n)))
    return draw(states(n)), draw(states(n)), draw(coefficients), tuple(perm)


@given(state_algebra())
def test_state_operations_match_reference_dict_merge(case):
    # Same arithmetic in the same order as the tuple/dict form: equal to
    # the last bit and the sign of zero, hence the repr comparisons.
    a, b, c, perm = case
    pairs = [
        (sym.add(a, b), reference_add(a, b)),
        (sym.scale(a, c), reference_scale(a, c)),
        (sym.permute_labels(a, perm), reference_permute_labels(a, perm)),
        (sym.permute_parameters(a, perm), reference_permute_parameters(a, perm)),
        (sym.symmetrize(a), reference_orbit_projector(a, signed=False)),
        (sym.antisymmetrize(b), reference_orbit_projector(b, signed=True)),
    ]
    for got, want in pairs:
        assert repr(got) == repr(want)
        assert got == want and hash(got) == hash(want)
        assert_canonical_arrays(got)
    assert_close_terms(pairs[-2][0], reference_projector(a, signed=False),
                       coefficient_mass(a))
    assert_close_terms(pairs[-1][0], reference_projector(b, signed=True),
                       coefficient_mass(b))
    for tol in (1e-12, 0.5):
        assert sym.states_close(a, b, tol) == reference_states_close(a, b, tol)


@given(states())
def test_state_record_behaviour(s):
    assert_canonical_arrays(s)
    assert s.terms is s.terms  # built once, then cached
    rebuilt = sym.NParticleState(s.n, s.terms)
    assert rebuilt == s and hash(rebuilt) == hash(s) == hash((s.n, s.terms))
    assert repr(rebuilt) == repr(s)
    assert pickle.loads(pickle.dumps(s)) == s
    assert s.is_zero == (len(s.terms) == 0)
    with pytest.raises(AttributeError):
        s.n = 3
    with pytest.raises(ValueError):
        s.coeffs[...] = 0


def test_constructor_keeps_terms_as_given():
    terms = (sym.ProductTerm(2.0, (1, 0)), sym.ProductTerm(-0.0, (0, 1)))
    s = sym.NParticleState(2, terms)
    assert s.terms == terms
    assert s.modes.tolist() == [[1, 0], [0, 1]]
    assert repr(s) == f"NParticleState(n=2, terms={terms!r})"
    assert s != sym.NParticleState(2, terms[::-1])


@pytest.mark.parametrize("make", [
    lambda: sym._canonical(1, [(complex("inf"), (0,))]),
    lambda: sym._canonical(1, [(complex("nan"), (0,))]),
    lambda: sym.product_state((0, 1), float("nan")),
    lambda: sym.scale(sym.product_state((0,), 1e300), 1e300),
    lambda: sym.scale(sym.product_state((0,)), float("inf")),
    lambda: sym.add(sym.product_state((0,), 1.7e308), sym.product_state((0,), 1.7e308)),
    lambda: sym.NParticleState(1, (sym.ProductTerm(float("inf"), (0,)),)),
])
def test_non_finite_coefficients_raise(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize("make", [
    lambda: sym.NParticleState(2, (sym.ProductTerm(1.0, (0,)),)),
    lambda: sym._canonical(2, [(1.0, (0, 1)), (1.0, (0,))]),
    lambda: sym.add(sym.product_state((0,)), sym.product_state((0, 1))),
])
def test_term_length_mismatch_raises(make):
    with pytest.raises(SizeMismatch):
        make()


@pytest.mark.parametrize("mode", [2**63, -2**63 - 1])
def test_mode_ids_past_int64_are_rejected(mode):
    for make in (lambda: sym.product_state((0, mode)),
                 lambda: sym._canonical(2, [(1.0, (mode, 0))]),
                 lambda: sym.NParticleState(2, (sym.ProductTerm(1.0, (0, mode)),))):
        with pytest.raises(ValueError, match="64-bit"):
            make()
    edge = sym.product_state((2**63 - 1, -2**63))
    assert edge.terms[0].modes == (2**63 - 1, -2**63)


def test_projector_size_guard_allocates_nothing():
    tracemalloc.start()
    try:
        for project in (sym.symmetrize, sym.antisymmetrize):
            with pytest.raises(TooLarge):
                project(TEN_ORBITS_OF_EIGHT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 10 orbits x 8! rows of 8 int64 ids would take 26 MB
    assert peak < 1 << 20


# -- the packed merge key ------------------------------------------------------


def wide_terms(seed: int, n: int, n_ids: int, n_rows: int):
    """(coeff, modes) terms over a pool of n_ids int64 ids spread over the
    whole range.  Some rows repeat, and some differ from another row only
    in the last slot, so that only the last slot's word tells them apart."""
    rng = np.random.default_rng(seed)
    pool = rng.choice(np.iinfo(np.int64).max, n_ids, replace=False) * rng.choice(
        [-1, 1], n_ids)
    rows = rng.choice(pool, size=(n_rows, n)).tolist()
    rows += rows[:5] + [r[:-1] + [int(x)] for r, x in zip(rows[5:15], pool)]
    coeffs = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    return [(c, tuple(r)) for c, r in zip(coeffs.tolist(), rows)]


@pytest.mark.parametrize("n, n_ids", [(8, 200), (9, 160)])
def test_packed_key_with_wide_ranks_matches_reference_dict_merge(n, n_ids):
    # n = 8 with 129..256 ids: 8-bit ranks fill all 64 bits of one word, so
    # a slot-0 rank of 128 or more sets the top bit.  n = 9: a second word.
    raw_a, raw_b = wide_terms(1, n, n_ids, 40), wide_terms(2, n, n_ids, 40)
    a, b = sym._canonical(n, raw_a), sym._canonical(n, raw_b)
    assert 129 <= len(np.unique(a.modes)) <= 256
    # b2 holds a's terms with the last slot of its first row changed.
    row = a.terms[0].modes
    b2 = sym._canonical(n, [(t.coeff, t.modes) for t in a.terms[1:]]
                        + [(a.terms[0].coeff, row[:-1] + (row[0],))])
    perm = tuple(np.random.default_rng(n).permutation(n).tolist())
    pairs = [
        (a, reference_canonical(n, raw_a)),
        (b, reference_canonical(n, raw_b)),
        (sym.add(a, b), reference_add(a, b)),
        (sym.scale(a, 0.5 - 2j), reference_scale(a, 0.5 - 2j)),
        (sym.permute_labels(a, perm), reference_permute_labels(a, perm)),
    ]
    for got, want in pairs:
        assert_same_terms(got, want)
        assert_canonical_arrays(got)
    for other in (a, b, b2):
        for tol in (1e-12, 0.5):
            assert sym.states_close(a, other, tol) == reference_states_close(a, other, tol)
    assert not sym.states_close(a, b2)


def test_packed_key_with_wide_ranks_through_projectors():
    # 5 slots over 4097..4100 ids: keys up to 4100^5 < 2^62, so one key
    # per row, with no ranking again.
    # 820 terms of 5 distinct ids, then rearrangements of some terms (they
    # merge under the projectors) and terms sharing four ids with another.
    rng = np.random.default_rng(11)
    rows = (rng.choice(np.iinfo(np.int64).max, 4100, replace=False)
            - (1 << 62)).reshape(820, 5).tolist()
    rows += [[r[k] for k in rng.permutation(5)] for r in rows[:60]]
    rows += [r[:4] + [s[0]] for r, s in zip(rows[60:120], rows[120:180])]
    coeffs = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    raw = list(zip(coeffs.tolist(), map(tuple, rows)))
    s = reference_canonical(5, raw)
    assert len(s.terms) >= 820 and len(np.unique(s.modes)) >= 4097
    projected = sym.symmetrize(s)
    for got, want in ((sym._canonical(5, raw), s),
                      (projected, reference_orbit_projector(s, signed=False))):
        # Bit-equal arrays: the repr comparison, without 100k reprs.
        assert np.array_equal(got.modes, want.modes)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert_close_terms(projected, reference_projector(s, signed=False),
                       coefficient_mass(s))


@pytest.mark.parametrize("n, base", [(4, 50), (9, 200)])
def test_row_keys_order_rows_lexicographically(n, base):
    # 50^4 keys fit below 2^62 as they are; 200^9 > 2^62, so the partial
    # keys are ranked again before the last columns.
    rng = np.random.default_rng(base)
    rows = rng.integers(0, base, size=(3000, n)).astype(np.min_scalar_type(base - 1))
    rows[1000:1500] = rows[:500]  # equal rows
    rows[1500:1600, :-1] = rows[:100, :-1]  # rows that differ only in the last slot
    rows[1600:1700, 1:] = rows[:100, 1:]  # ... only in the first slot
    keys = sym._row_keys(rows, base)
    assert keys.dtype == np.int64 and 0 <= keys.min() and keys.max() < 1 << 62
    assert (base ** n > 1 << 62) == (n == 9)
    order = {row: rank for rank, row in enumerate(sorted(set(map(tuple, rows.tolist()))))}
    assert np.array_equal(np.unique(keys, return_inverse=True)[1],
                          [order[row] for row in map(tuple, rows.tolist())])
    assert np.array_equal(sym._row_keys(rows[:, :0], base), np.zeros(3000))


def edge_raw(rng, n: int, pool: np.ndarray, n_rows: int, orbit_count: int):
    """(coeff, modes) terms: arrangements of ``orbit_count`` orbits drawn
    from ``pool``.  The first two terms hold the pool's least and greatest
    ids, so that every merge sees its whole span.  Some terms repeat."""
    orbits = [rng.choice(pool, n) for _ in range(orbit_count)]
    orbits[0][0], orbits[1][-1] = pool.min(), pool.max()
    picks = [0, 1] + rng.integers(orbit_count, size=n_rows - 2).tolist()
    rows = [orbits[k][rng.permutation(n)].tolist() for k in picks]
    rows += rows[:3]
    coeffs = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    return [(c, tuple(r)) for c, r in zip(coeffs.tolist(), rows)]


@pytest.mark.parametrize("case, n, n_rows, orbit_count, ranked", [
    # (2^31 - 1)^1 fits one key: subtracted; 2^31 values: ranked
    ("span 2^31 - 1", 1, 40, 30, False),
    ("span 2^31", 1, 40, 30, True),
    # 33000 ids: subtracted below 2^31 values, though the keys take the
    # re-ranking loop, and ranked at 2^31
    ("span 2^31 - 1", 3, 11000, 3000, False),
    ("span 2^31", 3, 11000, 3000, True),
    ("int64 ends", 4, 60, 12, True),
    # ids spread over 2^30 values at n = 8: a small state's ids are ranked;
    # 32800 are subtracted and their keys take the re-ranking loop
    ("sparse", 8, 30, 3, True),
    ("sparse", 8, 4100, 3, False),
])
def test_compaction_edges_match_reference_dict_merge_and_projectors(
        case, n, n_rows, orbit_count, ranked):
    rng = np.random.default_rng([n, n_rows])
    if case == "int64 ends":
        pool = np.concatenate([[-2**63, 2**63 - 1], -rng.choice(1 << 62, 8, replace=False)])
    elif case == "sparse":
        pool = rng.choice(1 << 24, 12, replace=False) * 64 + 7
    else:  # 12 ids spanning exactly that many values
        span = (1 << 31) - (case == "span 2^31 - 1")
        low = int(rng.integers(-1 << 40, 1 << 40))
        pool = np.array([low, low + span - 1] + (low + rng.choice(span, 10)).tolist())
    raw_a = edge_raw(rng, n, pool, n_rows, orbit_count)
    raw_b = edge_raw(rng, n, pool, n_rows // 2, orbit_count)
    rows = np.array([modes for _, modes in raw_a], dtype=np.int64)
    compact, base = sym._compact(rows)
    span = int(rows.max()) - int(rows.min()) + 1
    assert base == (len(np.unique(rows)) if ranked else span)
    assert compact.dtype.kind == "u" and np.array_equal(
        np.unique(compact, return_inverse=True)[1], np.unique(rows, return_inverse=True)[1])
    if case in ("span 2^31 - 1", "sparse") and not ranked and n > 1:
        assert base ** n > 1 << 62  # _row_keys ranks its partial keys again
    a, b = sym._canonical(n, raw_a), sym._canonical(n, raw_b)
    c = complex(*rng.normal(size=2))
    perm = tuple(rng.permutation(n).tolist())
    pairs = [
        (a, reference_canonical(n, raw_a)),
        (b, reference_canonical(n, raw_b)),
        (sym.add(a, b), reference_add(a, b)),
        (sym.scale(a, c), reference_scale(a, c)),
        (sym.permute_labels(a, perm), reference_permute_labels(a, perm)),
        (sym.symmetrize(a), reference_orbit_projector(a, signed=False)),
        (sym.antisymmetrize(a), reference_orbit_projector(a, signed=True)),
    ]
    for got, want in pairs:
        assert_same_terms(got, want)
        assert_canonical_arrays(got)
    if n <= 4:  # the n!-term loop
        for signed in (False, True):
            assert_close_terms(pairs[5 + signed][0], reference_projector(a, signed),
                               coefficient_mass(a))
    for other in (a, b, sym.scale(a, 1 + 1e-13)):
        for tol in (1e-12, 0.5):
            assert sym.states_close(a, other, tol) == reference_states_close(a, other, tol)


def test_projector_of_orbits_past_one_key_matches_reference():
    # 600 orbits of 6 slots, each one id four times and two more, over 1800
    # ids: 1800^6 > 2^64, so both the merge of the orbits and the sort of
    # their 30 arrangements must rank the partial keys again.  200 terms
    # are rearrangements of others, which merge into their orbit.
    rng = np.random.default_rng(17)
    ids = (rng.choice(np.iinfo(np.int64).max, 1800, replace=False)
           - (1 << 62)).reshape(600, 3).tolist()
    rows = [[a] * 4 + [b, c] for a, b, c in ids]
    rows += [[r[k] for k in rng.permutation(6)] for r in rows[:200]]
    coeffs = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    s = sym._canonical(6, list(zip(coeffs.tolist(), rows)))
    assert len(np.unique(s.modes)) ** 6 > 1 << 64
    got, want = sym.symmetrize(s), reference_orbit_projector(s, signed=False)
    assert len(want.terms) == 600 * 30
    assert np.array_equal(got.modes, want.modes)
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert_canonical_arrays(got)
    assert sym.antisymmetrize(s).is_zero


@pytest.mark.parametrize("coeffs, zero", [
    ((1.0, -1.0), True),
    ((1.5 - 2j, 0.25j, -1.5), False),
    ((0.5, 1e-15), False),
    ((1e-15,), True),
    ((3e-14, -2.5e-14, 1e-15), True),
    ((3e-14, -1e-14), False),
])
def test_projectors_of_non_canonical_no_slot_states(coeffs, zero):
    # The identity is the only permutation of no slots, so the projectors
    # return the merged state: terms that cancel leave the zero state.
    s = sym.NParticleState(0, [sym.ProductTerm(c, ()) for c in coeffs])
    for signed, project in ((False, sym.symmetrize), (True, sym.antisymmetrize)):
        got, want = project(s), reference_orbit_projector(s, signed)
        assert repr(got) == repr(want) and got == want
        assert_canonical_arrays(got)
        assert got.is_zero == zero


def test_packed_key_with_no_slots_and_the_zero_state():
    # the least id of no ids is never asked for: no rows, or rows of no slots
    for shape in ((0, 3), (0, 0), (4, 0)):
        compact, base = sym._compact(np.zeros(shape, dtype=np.int64))
        assert compact.shape == shape and compact.dtype == np.uint8 and base == 0
    raw = [(1.5 - 2j, ()), (0.25j, ()), (-1.5, ())]
    s, other = sym._canonical(0, raw), sym._canonical(0, [(2.0, ())])
    pairs = [
        (s, reference_canonical(0, raw)),
        (sym.add(s, other), reference_add(s, other)),
        (sym.scale(s, 2j), reference_scale(s, 2j)),
        (sym.permute_labels(s, ()), reference_permute_labels(s, ())),
        (sym.symmetrize(s), reference_projector(s, signed=False)),
        (sym.antisymmetrize(s), reference_projector(s, signed=True)),
    ]
    for got, want in pairs:
        assert repr(got) == repr(want)
        assert_canonical_arrays(got)
    for tol in (1e-12, 2.0):
        assert sym.states_close(s, other, tol) == reference_states_close(s, other, tol)
    zero = sym.zero_state(3)
    p = sym.product_state((4, -1, 4), 0.5j)
    for got in (sym._canonical(3, []), sym.add(zero, zero), sym.scale(zero, 2.0),
                sym.permute_labels(zero, (2, 0, 1)), sym.symmetrize(zero),
                sym.antisymmetrize(zero), sym.add(p, sym.scale(p, -1))):
        assert got == zero and got.modes.shape == (0, 3)
        assert_canonical_arrays(got)
    assert sym.states_close(zero, zero) and not sym.states_close(zero, p)


# -- scalar products -----------------------------------------------------------


def test_scalar_product_orthonormal_product():
    ov = sym.KroneckerOverlap()
    s = sym.product_state((0, 1))
    assert sym.scalar_product(s, s, ov) == pytest.approx(1.0)


def test_scalar_product_size_mismatch():
    with pytest.raises(SizeMismatch):
        sym.scalar_product(sym.product_state((0,)), sym.product_state((0, 1)),
                           sym.KroneckerOverlap())


def test_permutation_unitarity():
    ov = random_unit_overlap(4)
    for n in (2, 3):
        a = random_state(n, 4, 3)
        b = random_state(n, 4, 3)
        base = sym.scalar_product(a, b, ov)
        for perm in itertools.permutations(range(n)):
            moved = sym.scalar_product(
                sym.permute_labels(a, perm), sym.permute_labels(b, perm), ov)
            assert moved == pytest.approx(base, abs=1e-12)


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(states(n), states(n))),
       overlaps())
def test_scalar_product_matches_reference_loop(pair, ov):
    a, b = pair
    want, mass = reference_scalar_product(a, b, ov)
    assert abs(sym.scalar_product(a, b, ov) - want) <= 1e-12 * mass


def test_scalar_product_calls_overlap_once_per_mode_pair():
    calls = []
    base = random_unit_overlap(4)

    def ov(i, j):
        calls.append((i, j))
        return base(i, j)

    a = sym.symmetrize(sym.product_state((0, 1, 2)))
    b = sym.symmetrize(sym.product_state((1, 2, 3)))
    want, mass = reference_scalar_product(a, b, base)
    assert abs(sym.scalar_product(a, b, ov) - want) <= 1e-12 * mass
    assert sorted(calls) == [(i, j) for i in (0, 1, 2) for j in (1, 2, 3)]


@pytest.mark.parametrize("block", [sym._TERM_PAIR_BLOCK, 4096, 64])
def test_scalar_product_in_blocks_matches_reference_loop(block, monkeypatch):
    # 300 terms of 4 slots over 12 modes: about 140 distinct heads and tails
    # a side, so the smaller budgets split b into many runs and give up the
    # table of all of b's heads
    rng = np.random.default_rng(3)
    ov = random_unit_overlap(12, rng)
    a, b = (random_state(4, 12, 300, rng) for _ in range(2))
    # one table of slot products per run (R), plus b's head table (once,
    # or once per run when it does not fit)
    tables = []
    slot_products = sym._slot_products
    monkeypatch.setattr(sym, "_TERM_PAIR_BLOCK", block)
    monkeypatch.setattr(sym, "_slot_products",
                        lambda *args: tables.append(1) or slot_products(*args))
    want, mass = reference_scalar_product(a, b, ov)
    assert abs(sym.scalar_product(a, b, ov) - want) <= 1e-12 * mass
    assert len(tables) >= (2 if block == sym._TERM_PAIR_BLOCK else 6)


def test_scalar_product_of_six_particle_projections_takes_one_run(monkeypatch):
    # two symmetrized products of 6 distinct modes: 720 terms and 120 heads
    # and tails a side, so one run covers all of b's tails; a's group
    # matrix is built once, and b's once for that run.  With the
    # permanent guarded below n = 6 the pair takes the meet in the middle.
    import scipy.sparse

    rng = np.random.default_rng(6)
    ov = random_unit_overlap(12, rng)
    a_modes, b_modes = (rng.choice(12, 6, replace=False).tolist() for _ in range(2))
    a = sym.symmetrize(sym.product_state(a_modes))
    b = sym.symmetrize(sym.product_state(b_modes))
    perm = sym.permanent(sym.overlap_matrix(a_modes, b_modes, ov))
    monkeypatch.setattr(sym, "PERMANENT_MAX_N", 5)
    tables, builds = [], []
    slot_products, csr_array = sym._slot_products, scipy.sparse.csr_array
    monkeypatch.setattr(sym, "_slot_products",
                        lambda *args: tables.append(1) or slot_products(*args))
    monkeypatch.setattr(scipy.sparse, "csr_array",
                        lambda *args, **kw: builds.append(1) or csr_array(*args, **kw))
    value = sym.scalar_product(a, b, ov)
    assert value * math.factorial(6) == pytest.approx(perm, abs=1e-10)
    assert (len(tables), len(builds)) == (2, 2)


def test_scalar_product_of_zero_and_one_particle_states():
    ov = random_unit_overlap(4)
    empty = [sym._canonical(0, [(0.5 - 2j, ())]), sym.NParticleState(
        0, (sym.ProductTerm(1.5, ()), sym.ProductTerm(-0.25j, ())))]
    single = [random_state(1, 4, 3), sym.NParticleState(1, tuple(
        sym.ProductTerm(c, (m,)) for c, m in ((1j, 3), (2.0, 0), (-1.0, 3))))]
    for states in (empty, single):
        for a in states:
            for b in states:
                want, mass = reference_scalar_product(a, b, ov)
                assert abs(sym.scalar_product(a, b, ov) - want) <= 1e-12 * mass


def test_scalar_product_of_states_whose_half_rows_overflow_one_key():
    # 20 slots a half over 40 modes: 40^20 does not fit in an int64 key,
    # so the partial keys are ranked again part way
    rng = np.random.default_rng(4)
    ov = random_unit_overlap(40, rng)
    a, b = (random_state(40, 40, 6, rng) for _ in range(2))
    for x, y in ((a, b), (a, a)):
        want, mass = reference_scalar_product(x, y, ov)
        assert abs(sym.scalar_product(x, y, ov) - want) <= 1e-12 * mass


def test_scalar_product_of_non_canonical_states():
    # terms kept in the given order: unsorted, with repeated mode rows
    ov = random_unit_overlap(5)
    rows = [(4, 0, 2), (1, 1, 3), (4, 0, 2), (0, 3, 3), (1, 1, 3), (2, 4, 0)]
    a = sym.NParticleState(3, tuple(
        sym.ProductTerm(complex(k + 1, 2 - k), m) for k, m in enumerate(rows)))
    b = sym.NParticleState(3, tuple(
        sym.ProductTerm(complex(1 - k, k / 2), m) for k, m in enumerate(rows[::-1])))
    for x, y in ((a, b), (b, a), (a, sym.symmetrize(a)), (random_state(3, 5, 8), a)):
        want, mass = reference_scalar_product(x, y, ov)
        assert abs(sym.scalar_product(x, y, ov) - want) <= 1e-12 * mass


def test_scalar_product_of_benchmark_pair_peaks_under_2_5_mb():
    # two symmetrized n = 6 products of distinct modes: 720 x 720 term pairs
    ov = random_unit_overlap(12)
    a = sym.symmetrize(sym.product_state((0, 2, 4, 6, 8, 10)))
    b = sym.symmetrize(sym.product_state((1, 2, 3, 5, 7, 11)))
    tracemalloc.start()
    try:
        sym.scalar_product(a, b, ov)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * (1 << 20)


def test_projector_moves_across_scalar_product():
    ov = random_unit_overlap(4)
    a = random_state(3, 4, 2)
    b = random_state(3, 4, 2)
    sa = sym.symmetrize(a)
    assert sym.scalar_product(sa, sym.symmetrize(b), ov) == pytest.approx(
        sym.scalar_product(sa, b, ov), abs=1e-12)
    aa = sym.antisymmetrize(a)
    assert sym.scalar_product(aa, sym.antisymmetrize(b), ov) == pytest.approx(
        sym.scalar_product(aa, b, ov), abs=1e-12)


def overlap_table(n_modes: int, rng, hermitian: bool) -> np.ndarray:
    """A random overlap table: a Gram matrix of unit vectors, or a plain
    complex matrix whose (i, j) and (j, i) entries are unrelated."""
    if hermitian:
        return random_unit_overlap(n_modes, rng).matrix
    return rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))


def term_pair_sum(a, b, o: np.ndarray) -> tuple[complex, float]:
    """<a, b> summed over all term pairs at once from the table o[i, j] of
    ov(i, j), and the sum of |term| it adds up."""
    if a.is_zero or b.is_zero:
        return 0j, 0.0
    terms = (np.conj(a.coeffs)[:, None] * b.coeffs[None, :]
             * np.prod(o[a.modes[:, None, :], b.modes[None, :, :]], axis=2))
    return complex(terms.sum()), float(np.abs(terms).sum())


def watch_route_kernels(monkeypatch, record) -> None:
    """Have each call of the orbit route's kernels, sym._glynn and
    np.linalg.det, first call record("permanent" or "determinant", stack)."""
    for owner, attr, name in ((sym, "_glynn", "permanent"), (np.linalg, "det", "determinant")):
        real = getattr(owner, attr)
        monkeypatch.setattr(owner, attr,
                            lambda m, real=real, name=name: record(name, m) or real(m))


def count_route_calls(monkeypatch) -> list:
    """Record each permanent and determinant that scalar_product evaluates:
    one entry per matrix of each stack the route's kernels are given."""
    calls = []
    watch_route_kernels(monkeypatch, lambda name, m: calls.extend(
        [name] * math.prod(np.shape(m)[:-2])))
    return calls


def test_orbit_route_matches_term_pair_sum(monkeypatch):
    # symmetric, antisymmetric, general and zero states on either side,
    # with modes that repeat and several orbits a state
    rng = np.random.default_rng(25)
    calls = count_route_calls(monkeypatch)
    taken = {"permanent": 0, "determinant": 0}
    for trial in range(1800):
        n = int(rng.integers(2, 6))
        n_modes = int(rng.integers(2, 8))
        o = overlap_table(n_modes, rng, hermitian=bool(trial % 2))
        ov = (lambda i, j, o=o: complex(o[i, j]))
        made = []
        for kind in rng.choice(["general", "sym", "anti", "sym", "anti", "zero"], 2):
            s = random_state(n, n_modes, int(rng.integers(1, 4)), rng)
            made.append({"general": s, "sym": sym.symmetrize(s),
                         "anti": sym.antisymmetrize(s), "zero": sym.zero_state(n)}[kind])
        a, b = made
        for x, y in ((a, b), (b, a)):
            del calls[:]
            want, mass = term_pair_sum(x, y, o)
            assert abs(sym.scalar_product(x, y, ov) - want) <= 1e-12 * mass
            for name in set(calls):
                taken[name] += 1
    assert min(taken.values()) >= 100, taken


def test_orbit_route_of_several_orbits_either_side(monkeypatch):
    # three orbits a side, n = 5 with a repeated mode in some: 30 to 120
    # arrangements each, so the orbit pairs undercut the term pairs.  The
    # general state holds every arrangement of one orbit with random
    # coefficients, and two rows of another orbit.
    rng = np.random.default_rng(26)
    calls = count_route_calls(monkeypatch)
    o = overlap_table(7, rng, hermitian=False)
    ov = lambda i, j: complex(o[i, j])
    rows = ([(0, 1, 2, 3, 4), (1, 1, 2, 5, 6), (0, 2, 3, 5, 6)],
            [(6, 5, 4, 3, 2), (0, 0, 1, 4, 4), (1, 2, 3, 4, 5)])
    general = sym._canonical(5, [
        (complex(*rng.normal(size=2)), r)
        for r in list(itertools.permutations((0, 1, 2, 3, 5))) + [(6, 1, 0, 2, 4), (4, 2, 0, 1, 6)]])
    for project in (sym.symmetrize, sym.antisymmetrize):
        a, b = (project(sym._canonical(5, [(complex(*rng.normal(size=2)), r) for r in side]))
                for side in rows)
        for x, y in ((a, b), (b, a), (a, general), (general, b)):
            del calls[:]
            want, mass = term_pair_sum(x, y, o)
            assert abs(sym.scalar_product(x, y, ov) - want) <= 1e-12 * mass
            assert calls and set(calls) == {
                "permanent" if project is sym.symmetrize else "determinant"}


def test_orbit_route_over_ids_that_span_past_2_31(monkeypatch):
    # ids spread over the int64 range are ranked, not shifted by the least
    rng = np.random.default_rng(30)
    calls = count_route_calls(monkeypatch)
    ids = [-2**63, -2**40, 3, 2**31, 2**62, 2**63 - 1]
    o = overlap_table(len(ids), rng, hermitian=False)
    ov = lambda i, j: complex(o[ids.index(i), ids.index(j)])
    rows = [(ids[5], ids[0], ids[3], ids[1], ids[4]), (ids[3], ids[1], ids[4], ids[2], ids[0]),
            (ids[0], ids[2], ids[0], ids[5], ids[3])]
    for project in (sym.symmetrize, sym.antisymmetrize):
        a, b, c = (project(sym.product_state(r, complex(*rng.normal(size=2)))) for r in rows)
        for x, y in ((a, b), (b, a), (c, a)):
            if y.is_zero or x.is_zero:
                continue
            del calls[:]
            want, mass = reference_scalar_product(x, y, ov)
            assert abs(sym.scalar_product(x, y, ov) - want) <= 1e-12 * mass
            assert len(calls) == 1


def test_orbit_route_keeps_the_permanent_guard():
    # 21 bosons in one mode: past PERMANENT_MAX_N, so the term pairs are
    # summed and no permanent is asked for (it would raise TooLarge)
    rng = np.random.default_rng(27)
    o = overlap_table(2, rng, hermitian=False)
    ov = lambda i, j: complex(o[i, j])
    one_mode = sym.symmetrize(sym.product_state([0] * 21, 0.5 + 0.25j))
    two_modes = sym.product_state([0] * 20 + [1], -1.0 + 2.0j)
    for x, y in ((one_mode, one_mode), (one_mode, two_modes), (two_modes, one_mode)):
        want, mass = term_pair_sum(x, y, o)
        assert abs(sym.scalar_product(x, y, ov) - want) <= 1e-12 * mass


def test_orbit_route_is_kept_only_where_it_is_cheaper(monkeypatch):
    def refuse(name, m):
        raise AssertionError("the term-pair route was expected")

    rng = np.random.default_rng(28)
    o = overlap_table(12, rng, hermitian=False)
    ov = lambda i, j: complex(o[i, j])
    # one term a side: a 12 x 12 permanent (2^11 sign vectors) for the
    # one term pair it would replace
    one_term = sym.symmetrize(sym.product_state([3] * 12, 1.5j))
    assert len(one_term.coeffs) == 1
    other = sym.product_state(rng.integers(0, 12, 12).tolist(), 0.5 - 1j)
    cases = [(one_term, other), (other, one_term)]
    # States built by hand, which carry no orbit form, each against the
    # arrangements of one orbit with random coefficients (one orbit pair,
    # had either been projected).
    def scrambled(modes):
        return sym._canonical(len(modes), [(complex(*rng.normal(size=2)), r)
                                           for r in set(itertools.permutations(modes))])

    # a projection copied term by term, and one of its coefficients changed
    for project in (sym.symmetrize, sym.antisymmetrize):
        s = project(sym.product_state([0, 1, 2, 4]))
        cases.append((sym.NParticleState(4, s.terms), scrambled((0, 1, 3, 5))))
        coeffs = s.coeffs.copy()
        coeffs[5] *= 1 + 1e-12
        cases.append((sym.NParticleState(4, tuple(
            sym.ProductTerm(c, tuple(m)) for c, m in zip(coeffs.tolist(), s.modes.tolist()))),
            scrambled((0, 1, 3, 5))))
    # the three cyclic shifts: half the orbit is missing
    cases.append((sym._canonical(3, [(1.0, (0, 1, 2)), (1.0, (1, 2, 0)), (1.0, (2, 0, 1))]),
                  scrambled((0, 1, 5))))
    # the three cyclic shifts twice each: as many rows as arrangements, in
    # order, but not distinct
    cases.append((sym.NParticleState(3, tuple(
        sym.ProductTerm(1.0, m) for m in [(0, 1, 2), (0, 1, 2), (1, 2, 0), (1, 2, 0),
                                          (2, 0, 1), (2, 0, 1)])), scrambled((0, 1, 5))))
    # a repeated mode with signed coefficients: no antisymmetric state
    cases.append((sym._canonical(3, [(1.0, (0, 0, 1)), (-1.0, (0, 1, 0)), (1.0, (1, 0, 0))]),
                  scrambled((0, 1, 5))))
    watch_route_kernels(monkeypatch, refuse)
    for x, y in cases:
        for first, second in ((x, y), (y, x)):
            want, mass = term_pair_sum(first, second, o)
            assert abs(sym.scalar_product(first, second, ov) - want) <= 1e-12 * mass


@pytest.mark.parametrize("block", [sym._TERM_PAIR_BLOCK, 1920])
def test_orbit_route_makes_one_kernel_call_per_block(block, monkeypatch):
    # two states of eight orbits of six distinct modes (5760 rows each):
    # 64 orbit pairs, all in one kernel call at the default budget, and in
    # blocks of 1920 // (6 * 2^5) = 10 pairs at the small one; the value is
    # the meet in the middle's over the same rows rebuilt without a form
    rng = np.random.default_rng(31)
    ov = random_unit_overlap(12, rng)
    expected = [64] if block == sym._TERM_PAIR_BLOCK else [10] * 6 + [4]
    monkeypatch.setattr(sym, "_TERM_PAIR_BLOCK", block)
    calls = []  # the number of matrices in each kernel call
    watch_route_kernels(monkeypatch, lambda name, m: calls.append(len(m)))
    for project in (sym.symmetrize, sym.antisymmetrize):
        a, b = (project(sym._canonical(6, [
            (complex(*rng.normal(size=2)), tuple(rng.choice(12, 6, replace=False).tolist()))
            for _ in range(8)])) for _ in range(2))
        assert len(a._form.orbits) == len(b._form.orbits) == 8
        want = sym.scalar_product(sym.NParticleState(6, a.terms),
                                  sym.NParticleState(6, b.terms), ov)
        norms = math.sqrt(abs(sym.scalar_product(a, a, ov) * sym.scalar_product(b, b, ov)))
        del calls[:]
        got = sym.scalar_product(a, b, ov)
        assert calls == expected
        assert abs(got - want) <= 1e-12 * norms


def test_glynn_matches_permanent_matrix_by_matrix():
    # a stack against its matrices one at a time, at every n up to 13
    rng = np.random.default_rng(32)
    for n in range(14):
        stack = rng.normal(size=(5, n, n)) + 1j * rng.normal(size=(5, n, n))
        values = sym._glynn(stack)
        assert values.shape == (5,)
        for m, value in zip(stack, values):
            scale = sym.permanent(np.abs(m)).real
            assert abs(value - sym.permanent(m)) <= 1e-15 * scale
    assert (sym._glynn(np.zeros((3, 0, 0), dtype=complex)) == 1).all()


def test_orbit_route_takes_a_projection_against_a_few_arrangements(monkeypatch):
    # a projected 720-row n = 6 state against eight orbits holding one to
    # four of their arrangements (no form): 8 orbit pairs of 2^5 (or 12)
    # against at most 720 x 32 term pairs, so the orbit route is taken
    rng = np.random.default_rng(33)
    o = overlap_table(14, rng, hermitian=False)
    ov = lambda i, j: complex(o[i, j])
    few = sym._canonical(6, [
        (complex(*rng.normal(size=2)), tuple(rng.permutation(orbit).tolist()))
        for orbit in (rng.choice(14, 6, replace=False) for _ in range(8))
        for _ in range(int(rng.integers(1, 5)))])
    calls = count_route_calls(monkeypatch)
    for project in (sym.symmetrize, sym.antisymmetrize):
        projected = project(sym.product_state((0, 3, 5, 8, 11, 13), 0.5 - 1.5j))
        assert len(projected.coeffs) == 720
        for x, y in ((projected, few), (few, projected)):
            del calls[:]
            want, mass = term_pair_sum(x, y, o)
            assert abs(sym.scalar_product(x, y, ov) - want) <= 1e-12 * mass
            assert len(calls) == 8


# -- orbit forms --------------------------------------------------------------------


def projected_states(rng) -> list:
    """Symmetrized and antisymmetrized states: products of distinct modes,
    a product with repeated modes, states of several orbits, one whose
    second orbit is dropped (its sum, 3e-14, is kept, but not its
    coefficient, 5e-15), and n = 0 and 1."""
    made = []
    for project in (sym.symmetrize, sym.antisymmetrize):
        made += [project(sym.product_state((4, 0, 3, 1), 0.5 - 2j)),
                 project(sym.product_state((2, 5, 2, 0, 5), 1.25j)),
                 project(random_state(4, 5, 3, rng)),
                 project(sym._canonical(3, [(1.0, (0, 1, 2)), (-0.5j, (2, 3, 4)),
                                            (2.0, (1, 1, 4))])),
                 project(sym._canonical(3, [(1.0, (0, 1, 2)), (3e-14, (5, 6, 7))])),
                 project(sym.product_state((), -3.0)),
                 project(sym.product_state((7,), 0.25 + 1j)),
                 project(random_state(1, 4, 3, rng))]
    return [s for s in made if not s.is_zero]


def test_orbit_form_describes_the_projection():
    # each orbit's sorted arrangement carries the recorded coefficient, and
    # the orbit holds as many rows as its recorded size; a one-orbit
    # state's ids gathered by its table are its rows
    for s in projected_states(np.random.default_rng(31)):
        form = s._form
        if s.n == 0:
            assert form is None
            continue
        orbits = np.sort(s.modes, axis=1)
        assert np.array_equal(form.orbits, np.unique(orbits, axis=0))
        for orbit, coeff, size in zip(form.orbits, form.coeffs, form.sizes):
            rows = (orbits == orbit).all(axis=1)
            assert rows.sum() == size
            assert s.coeffs[(s.modes == orbit).all(axis=1)].tolist() == [coeff]
        assert (form.table is not None) == (len(form.orbits) == 1)
        if form.table is not None:
            assert np.array_equal(form.ids[form.table], s.modes)


def test_projected_state_is_its_term_record():
    # equality, hashing and pickling ignore the orbit form, which neither
    # a hand-built nor an unpickled copy carries; both copies take the
    # term-pair route where the projection may take the orbit route, and
    # write the same CLI text
    rng = np.random.default_rng(32)
    o = overlap_table(8, rng, hermitian=False)
    ov = lambda i, j: complex(o[i, j])
    for s in projected_states(rng):
        hand = sym.NParticleState(s.n, s.terms)
        thawed = pickle.loads(pickle.dumps(s))
        assert hand == s == thawed and hash(hand) == hash(s) == hash(thawed)
        assert pickle.dumps(s) == pickle.dumps(hand)
        assert hand._form is None and thawed._form is None
        others = [s, hand, random_state(s.n, 8, 2, rng)]
        for copy in (hand, thawed):
            for other in others:
                for x, y in ((s, other), (other, s)):
                    want, mass = term_pair_sum(x, y, o)
                    got = sym.scalar_product(x, y, ov)
                    assert abs(got - want) <= 1e-12 * mass
                    x, y = (copy if x is s else x), (copy if y is s else y)
                    assert abs(sym.scalar_product(x, y, ov) - got) <= 1e-12 * mass
        assert cli._state_text(s) == cli._state_text(hand)


def test_state_operations_drop_the_orbit_form():
    for s in projected_states(np.random.default_rng(33)):
        perm = tuple(range(s.n))[::-1]
        for made in (sym.add(s, s), sym.scale(s, 1.0), sym.permute_labels(s, perm),
                     sym.permute_parameters(s, perm), sym.NParticleState(s.n, s.terms)):
            assert made._form is None


# -- exchange superpositions -----------------------------------------------------


def test_exchange_superposition_plain_product():
    s = sym.exchange_superposition(0, 1, 1.0, 0.0)
    assert sym.states_close(s, sym.product_state((0, 1)))


def test_exchange_superposition_symmetric_antisymmetric():
    inv = 1.0 / math.sqrt(2.0)
    s_plus = sym.exchange_superposition(0, 1, inv, inv)
    assert sym.states_close(s_plus, sym.scale(sym.symmetrize(sym.product_state((0, 1))),
                                              math.sqrt(2.0)))
    s_minus = sym.exchange_superposition(0, 1, inv, -inv)
    assert sym.states_close(
        s_minus,
        sym.scale(sym.antisymmetrize(sym.product_state((0, 1))), math.sqrt(2.0)))


def test_exchange_superposition_not_normalized():
    with pytest.raises(NotNormalized):
        sym.exchange_superposition(0, 1, 1.0, 1.0)


def test_interference_value_examples():
    inv = 1.0 / math.sqrt(2.0)
    # orthonormal modes, identity kernel: any admissible pair gives 1
    for alpha, beta in ((1.0, 0.0), (inv, inv), (inv, -inv), (inv, 1j * inv)):
        assert sym.interference_value(alpha, beta, 1.0, 0.0) == pytest.approx(1.0)
    e = 0.37 - 0.11j
    assert sym.interference_value(inv, inv, 1.0, e) == pytest.approx(1.0 + e)
    assert sym.interference_value(inv, 1j * inv, 1.0, e) == pytest.approx(1.0)
    with pytest.raises(NotNormalized):
        sym.interference_value(1.0, 1.0, 1.0, 0.0)


def test_interference_value_matches_scalar_products():
    # the expansion must reproduce the directly computed scalar product
    ov = random_unit_overlap(2)
    phi, eta = 0, 1
    alpha, beta = 0.6, complex(0.0, 0.8)
    state = sym.exchange_superposition(phi, eta, alpha, beta)
    direct_term = sym.scalar_product(
        sym.product_state((phi, eta)), sym.product_state((phi, eta)), ov)
    exchange_term = sym.scalar_product(
        sym.product_state((phi, eta)), sym.product_state((eta, phi)), ov)
    assert sym.scalar_product(state, state, ov) == pytest.approx(
        sym.interference_value(alpha, beta, direct_term, exchange_term), abs=1e-12)


# -- overlap matrices, permanent, determinant ------------------------------------


def test_overlap_matrix_orthonormal_identity():
    ov = sym.KroneckerOverlap()
    m = sym.overlap_matrix([0, 1, 2], [0, 1, 2], ov)
    assert np.allclose(m, np.eye(3))


def test_overlap_matrix_single_entry():
    ov = random_unit_overlap(3)
    m = sym.overlap_matrix([2], [1], ov)
    assert m.shape == (1, 1)
    assert m[0, 0] == ov(2, 1)


def test_overlap_matrix_wavepacket_quadrature():
    packets = [
        wp.WavePacket(m0=1.0, sigma=1.0, x0=-1.0, k0=0.4),
        wp.WavePacket(m0=1.0, sigma=1.3, x0=1.0, k0=-0.2),
    ]
    grid = wp.Grid(-40.0, 40.0, 2049)
    t = 0.2
    reg = sym.ModeRegistry()
    ids = [reg.register(p) for p in packets]
    m = sym.overlap_matrix(ids, ids, lambda i, j: wp.overlap(reg[i], reg[j], t))
    for i in (0, 1):
        for j in (0, 1):
            quad = simpson_overlap(packets[i], packets[j], t, grid)
            assert m[i, j] == pytest.approx(quad, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_packet_gram_matrix_norms(n):
    # <S psi, S psi> = perm(G)/n! and <A psi, A psi> = det(G)/n! for the
    # Gram matrix G of n packets; G is Hermitian positive semidefinite with
    # unit diagonal, so det G <= 1 <= perm G (Hadamard, Marcus 1963)
    rng = np.random.default_rng(1300 + n)
    t = 0.6
    reg = sym.ModeRegistry()
    ids = [reg.register(wp.WavePacket(m0=1.0, sigma=rng.uniform(0.7, 1.5),
                                      x0=rng.uniform(-1.5, 1.5), t0=rng.uniform(-1.0, 1.0),
                                      k0=rng.uniform(-1.0, 1.0)))
           for _ in range(n)]
    ov = lambda i, j: wp.overlap(reg[i], reg[j], t)
    gram = sym.overlap_matrix(ids, ids, ov)
    perm, det = sym.permanent(gram), sym.determinant(gram)
    prod = sym.product_state(ids)
    for project, expected in ((sym.symmetrize, perm), (sym.antisymmetrize, det)):
        state = project(prod)
        norm2 = sym.scalar_product(state, state, ov)
        assert abs(norm2 - expected / math.factorial(n)) <= 1e-12 * abs(expected) / math.factorial(n)
    assert abs(perm.imag) <= 1e-12 * perm.real
    assert det.real <= 1.0 <= perm.real


def test_permanent_and_determinant_2x2():
    m = np.array([[1.0 + 1j, 2.0], [3.0, 4.0 - 2j]])
    a, b, c, d = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    assert sym.permanent(m) == pytest.approx(a * d + b * c)
    assert sym.determinant(m) == pytest.approx(a * d - b * c)


def test_permanent_and_determinant_identity():
    for n in (1, 3, 6):
        eye = np.eye(n)
        assert sym.permanent(eye) == pytest.approx(1.0)
        assert sym.determinant(eye) == pytest.approx(1.0)


def test_permanent_matches_naive_7x7():
    m = RNG.normal(size=(7, 7)) + 1j * RNG.normal(size=(7, 7))
    expected = naive_permanent(m)
    assert abs(sym.permanent(m) - expected) <= 1e-10 * abs(expected)


@pytest.mark.parametrize("n", [10, 11, 12, 14])
def test_permanent_matches_exact_integer_ryser(n):
    rng = np.random.default_rng(n)
    for low in (-2, 0):
        m = rng.integers(low, 3, size=(n, n))
        exact = exact_permanent(m.tolist())
        scale = exact_permanent(np.abs(m).tolist())
        assert abs(sym.permanent(m) - exact) <= 4 * n * EPS * scale


@pytest.mark.parametrize("n", [1, 3, 7, 10, 11, 14, 17, 20])
def test_permanent_of_ones_and_derangements(n):
    # Ryser terms of J_n are k^n per k-subset, of J_n - I (k-1)^k k^(n-k),
    # with alternating signs: their absolute sum bounds the roundoff.
    mass_ones = sum(math.comb(n, k) * k**n for k in range(n + 1))
    mass_der = sum(math.comb(n, k) * abs(k - 1)**k * k**(n - k)
                   for k in range(n + 1))
    d = [1, 0]
    for k in range(2, n + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    ones = np.ones((n, n))
    assert abs(sym.permanent(ones) - math.factorial(n)) <= n * EPS * mass_ones
    assert abs(sym.permanent(ones - np.eye(n)) - d[n]) <= n * EPS * mass_der


def test_permanent_block_triangular_factorizes():
    # permanent splits these matrices into their diagonal blocks before the
    # kernel runs, so _glynn is also run on each whole matrix: at n = 13 it
    # tabulates ten columns and walks three in Gray-code order, with the
    # last diagonal block straddling the two, and at n = 18 and 20 it walks
    # the row-sum table in place for 127 and 511 steps.
    for sizes, seed in (((3, 4, 5), 12), ((4, 5, 4), 13), ((6, 6, 6), 18),
                        ((7, 7, 6), 20)):
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        edges = np.cumsum((0,) + sizes)
        blocks = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            m[hi:, lo:hi] = 0.0  # zero below each diagonal block
            blocks.append(m[lo:hi, lo:hi])
        expected = math.prod(naive_permanent(b) for b in blocks)
        tol = n * EPS * ryser_mass(m)
        assert abs(sym.permanent(m) - expected) <= tol
        assert abs(sym._glynn(m[None])[0] - expected) <= tol


def test_permanent_without_a_perfect_matching_is_exactly_zero():
    # a zero row, and a k x (n - k + 1) zero block (Frobenius-Koenig): no
    # permutation avoids the zeros, so every product of the sum holds one
    rng = np.random.default_rng(29)
    for n in range(1, 21):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m[rng.integers(n)] = 0.0
        value = sym.permanent(m)
        assert type(value) is complex and repr(value) == "0j"
        for k in range(1, n + 1):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m[np.ix_(rng.permutation(n)[:k], rng.permutation(n)[:n - k + 1])] = 0.0
            value = sym.permanent(m)
            assert type(value) is complex and repr(value) == "0j"


def test_permanent_of_sparse_matrices_matches_naive_sum():
    # exact zeros at densities from 0.2 to 0.9: singular patterns, several
    # blocks and single blocks
    rng = np.random.default_rng(290)
    for n, trials in ((1, 10), (2, 30), (3, 40), (4, 40), (5, 40), (6, 30), (7, 8), (8, 3)):
        for _ in range(trials):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m[rng.random((n, n)) > rng.uniform(0.2, 0.9)] = 0.0
            assert abs(sym.permanent(m) - naive_permanent(m)) <= n * EPS * ryser_mass(m)


def test_permanent_of_spinor_gram_matrix_factorizes_by_sector():
    # modes of spin 1/2 in the sectors m = +1/2 and -1/2 with a dense
    # payload overlap: the Gram matrix is a scrambled block-diagonal
    from idstat import spinstat as ss
    rng = np.random.default_rng(291)
    payload = random_unit_overlap(16, rng).matrix
    reg = sym.ModeRegistry()
    ov = ss.SpinorOverlap(reg, lambda u, v: payload[u, v])

    def modes(ups, downs):
        ids = [reg.register(ss.SpinorMode(0.5, 0.5 - (k >= ups), rng.uniform(0, 2 * math.pi),
                                           int(rng.integers(16))))
               for k in range(ups + downs)]
        return [ids[k] for k in rng.permutation(len(ids))]

    for ups, downs in ((1, 1), (3, 2), (4, 4), (5, 6)):
        a, b = modes(ups, downs), modes(ups, downs)
        m = sym.overlap_matrix(a, b, ov)
        sector = [[i for i in a if reg[i].m == s] for s in (0.5, -0.5)]
        sector_b = [[j for j in b if reg[j].m == s] for s in (0.5, -0.5)]
        expected = math.prod(
            naive_permanent(sym.overlap_matrix(x, y, ov)) for x, y in zip(sector, sector_b))
        n = ups + downs
        assert abs(sym.permanent(m) - expected) <= n * EPS * ryser_mass(m)
        # one more up mode on b's side: the sectors cannot be matched
        m = sym.overlap_matrix(a, modes(ups + 1, downs - 1), ov)
        assert repr(sym.permanent(m)) == "0j"


def test_permanent_with_a_nan_or_inf_among_zeros_is_glynns_value():
    # 0 * nan is nan, so a non-finite entry keeps the matrix whole even
    # where the zeros alone would give 0
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        m = np.ones((5, 5), dtype=complex)
        m[2] = 0.0
        m[0, 1] = bad
        m[3, 0] = 0.0
        with np.errstate(invalid="ignore"):  # inf - inf in the sums
            whole = complex(sym._glynn(m[None])[0])
            assert repr(sym.permanent(m)) == repr(whole)
        assert math.isnan(whole.real) or math.isnan(whole.imag)


def test_permanent_of_a_dense_matrix_is_glynns_value_bitwise():
    # also matrices with zeros whose pattern is one fully indecomposable
    # block, which are evaluated whole, as given: scrambled J_n - I
    # (complex scalings of rows and columns, as the benchmark's) and a
    # sparse complex one.  J_2 - I is two 1 x 1 blocks, so n starts at 3.
    rng = np.random.default_rng(292)
    matrices = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for n in range(15)]
    for n in range(3, 15):
        scale = np.exp(rng.normal(0.0, 0.2, (2, n)) + 2j * np.pi * rng.random((2, n)))
        core = scale[0][:, None] * (np.ones((n, n)) - np.eye(n)) * scale[1]
        matrices.append(core[rng.permutation(n)][:, rng.permutation(n)])
    # a 9 x 9 cycle with chords: each row leads on to the next one
    sparse = np.zeros((9, 9), dtype=complex)
    for i in range(9):
        for j in (i, (i + 1) % 9, (i + 4) % 9):
            sparse[i, j] = complex(*rng.normal(size=2))
    matrices.append(sparse[rng.permutation(9)][:, rng.permutation(9)])
    for m in matrices:
        assert sym.permanent(m) == complex(sym._glynn(m[None])[0])


def test_permanent_hands_the_kernel_one_stack_per_block_size(monkeypatch):
    # block upper-triangular with diagonal blocks of 7, 6 and 7, scrambled
    rng = np.random.default_rng(293)
    m = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    m[7:, :7] = m[13:, 7:13] = 0.0
    blocks = [m[:7, :7], m[7:13, 7:13], m[13:, 13:]]
    expected = math.prod(naive_permanent(b) for b in blocks)
    m = m[rng.permutation(20)][:, rng.permutation(20)]
    shapes = []
    real = sym._glynn
    monkeypatch.setattr(sym, "_glynn", lambda stack: shapes.append(stack.shape) or real(stack))
    value = sym.permanent(m)
    assert sorted(shapes) == [(1, 6, 6), (2, 7, 7)]
    assert abs(value - expected) <= 20 * EPS * ryser_mass(m)


@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_permanent_invariant_under_permutation_and_scaling(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    d1, d2 = (np.exp(rng.normal(0.0, 0.3, n) + 2j * np.pi * rng.random(n))
              for _ in range(2))
    moved = (d1[:, None] * m * d2[None, :])[rng.permutation(n)][:, rng.permutation(n)]
    factor = np.prod(d1) * np.prod(d2)
    tol = 2 * n * EPS * ryser_mass(np.abs(m)) * abs(factor)
    assert abs(sym.permanent(moved) - factor * sym.permanent(m)) <= tol


def test_permanent_sizes_zero_and_one():
    assert sym.permanent(np.zeros((0, 0))) == 1.0
    assert sym.permanent(np.array([[2.5 - 1j]])) == 2.5 - 1j


def test_permanent_of_empty_matrix_is_exactly_one():
    value = sym.permanent(np.zeros((0, 0)))
    assert type(value) is complex and value == 1 and repr(value) == "(1+0j)"


@pytest.mark.parametrize("n", range(21))
def test_permanent_of_ones_and_derangements_to_1e12(n):
    # Glynn's signed row sums of J_n and J_n - I are small integers, so
    # only the products round.
    d = [1, 0]
    for k in range(2, n + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    ones = np.ones((n, n))
    assert abs(sym.permanent(ones) - math.factorial(n)) <= 1e-12 * math.factorial(n)
    assert abs(sym.permanent(ones - np.eye(n)) - d[n]) <= 1e-12 * d[n]


def test_determinant_matches_naive():
    for n in range(1, 7):
        m = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
        expected = naive_determinant(m)
        assert sym.determinant(m) == pytest.approx(expected, abs=1e-10 * max(1.0, abs(expected)))


def test_permanent_guards():
    with pytest.raises(NotSquare):
        sym.permanent(np.ones((2, 3)))
    with pytest.raises(NotSquare):
        sym.determinant(np.ones((2, 3)))
    with pytest.raises(TooLarge):
        sym.permanent(np.ones((21, 21)))


def test_antisymmetrized_overlap_is_determinant(monkeypatch):
    ov = random_unit_overlap(7)
    for n in (2, 3, 4, 5, 6, 7):
        a_modes = list(range(n))
        b_modes = list(RNG.permutation(7)[:n])
        m = sym.overlap_matrix(a_modes, b_modes, ov)
        det, perm = sym.determinant(m), sym.permanent(m)
        if n == 7:
            # With the permanent guarded below n = 7 the pairs take the meet
            # in the middle: 210 heads a side do not fit one head table at
            # this budget, so b's head table is built per run over many
            # runs, and the split is odd (3 head slots, 4 tail slots).
            monkeypatch.setattr(sym, "PERMANENT_MAX_N", 6)
            monkeypatch.setattr(sym, "_TERM_PAIR_BLOCK", 4096)
            calls = count_route_calls(monkeypatch)
        a = sym.antisymmetrize(sym.product_state(a_modes))
        b = sym.antisymmetrize(sym.product_state(b_modes))
        lhs = sym.scalar_product(a, b, ov) * math.factorial(n)
        assert lhs == pytest.approx(det, abs=1e-10)

        s_a = sym.symmetrize(sym.product_state(a_modes))
        s_b = sym.symmetrize(sym.product_state(b_modes))
        lhs_sym = sym.scalar_product(s_a, s_b, ov) * math.factorial(n)
        assert lhs_sym == pytest.approx(perm, abs=1e-10)
    assert calls == []


# -- Feynman amplitudes -----------------------------------------------------------


def both_sides_amplitude(b, a, sign, ov):
    inv = 1.0 / math.sqrt(2.0)
    swap = (1, 0)
    b_sym = sym.add(sym.scale(b, inv), sym.scale(sym.permute_labels(b, swap), sign * inv))
    a_sym = sym.add(sym.scale(a, inv), sym.scale(sym.permute_labels(a, swap), sign * inv))
    return sym.scalar_product(b_sym, a_sym, ov)


def test_feynman_equivalence_random():
    for trial in range(50):
        ov = random_unit_overlap(4)
        a = sym.product_state(tuple(RNG.integers(0, 4, size=2)),
                              coeff=complex(RNG.normal(), RNG.normal()))
        b = sym.product_state(tuple(RNG.integers(0, 4, size=2)),
                              coeff=complex(RNG.normal(), RNG.normal()))
        for sign in (1, -1):
            f = sym.feynman_amplitude(b, a, sign, ov)
            f_prime = both_sides_amplitude(b, a, sign, ov)
            assert abs(f - f_prime) <= 1e-12


def test_feynman_amplitude_matches_term_pair_sum(monkeypatch):
    # <b + sign P b, a> term by term, under a plain callable overlap whose
    # (i, j) and (j, i) entries are unrelated; b + sign P b is formed by a
    # projector, whose orbit form the orbit route reads for the products
    # of distinct modes
    rng = np.random.default_rng(29)
    calls = count_route_calls(monkeypatch)
    o = overlap_table(4, rng, hermitian=False)
    ov = lambda i, j: complex(o[i, j])
    routed = {1: 0, -1: 0}
    pairs = [((0, 0), (1, 2)), ((1, 2), (3, 3)), ((2, 2), (2, 2)), ((3, 1), (1, 3))]
    pairs += [tuple(tuple(int(m) for m in rng.integers(0, 4, 2)) for _ in range(2))
              for _ in range(40)]
    for b_modes, a_modes in pairs:
        cb, ca = (complex(*rng.normal(size=2)) for _ in range(2))
        b, a = sym.product_state(b_modes, cb), sym.product_state(a_modes, ca)
        for sign in (1, -1):
            want = cb.conjugate() * ca * (
                o[b_modes[0], a_modes[0]] * o[b_modes[1], a_modes[1]]
                + sign * o[b_modes[1], a_modes[0]] * o[b_modes[0], a_modes[1]])
            del calls[:]
            got = sym.feynman_amplitude(b, a, sign, ov)
            assert abs(got - want) <= 1e-12 * abs(cb * ca) * np.abs(o).max() ** 2
            routed[sign] += bool(calls)
    # a sum over term pairs: with the diagonal term in a, both routes
    b = sym.add(sym.product_state((0, 1), 0.5 - 1j), sym.product_state((2, 2), 1.5j))
    a = sym.add(sym.product_state((1, 1), -0.25), sym.product_state((3, 0), 2.0 + 0.5j))
    for sign in (1, -1):
        want = 0j
        for tb in b.terms:
            for ta in a.terms:
                (b0, b1), (a0, a1) = tb.modes, ta.modes
                want += tb.coeff.conjugate() * ta.coeff * (
                    o[b0, a0] * o[b1, a1] + sign * o[b1, a0] * o[b0, a1])
        assert sym.feynman_amplitude(b, a, sign, ov) == pytest.approx(want, abs=1e-12)
    assert min(routed.values()) >= 20, routed


def test_feynman_orthonormal_product():
    ov = sym.KroneckerOverlap()
    a = sym.product_state((0, 1))
    assert sym.feynman_amplitude(a, a, 1, ov) == pytest.approx(1.0)


def test_feynman_equal_modes_antisymmetric_vanishes():
    ov = sym.KroneckerOverlap()
    a = sym.product_state((0, 0))
    assert sym.feynman_amplitude(a, a, -1, ov) == pytest.approx(0.0, abs=1e-15)


def test_feynman_requires_two_particles():
    ov = sym.KroneckerOverlap()
    with pytest.raises(SizeMismatch):
        sym.feynman_amplitude(sym.product_state((0, 1, 2)),
                              sym.product_state((0, 1, 2)), 1, ov)


# -- registry and provider validation ---------------------------------------------


def test_mode_registry_dedupes():
    reg = sym.ModeRegistry()
    a = sym.OrthonormalMode("a")
    i = reg.register(a)
    j = reg.register(sym.OrthonormalMode("a"))
    k = reg.register(sym.OrthonormalMode("b"))
    assert i == j != k
    assert reg[i] == a
    assert len(reg) == 2


def test_check_overlap_provider():
    sym.check_overlap_provider(sym.KroneckerOverlap(), [0, 1, 2])
    bad = sym.MatrixOverlap.__new__(sym.MatrixOverlap)
    bad.matrix = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        sym.check_overlap_provider(bad, [0, 1])


def test_matrix_overlap_refuses_ids_outside_its_size():
    ov = sym.MatrixOverlap(np.eye(3))
    assert ov(2, 2) == 1 and ov(0, 2) == 0
    for i, j in ((-1, 2), (2, -1), (-3, 0), (3, 0), (0, 3)):
        with pytest.raises(IndexError):
            ov(i, j)
    with pytest.raises(IndexError):
        sym.scalar_product(sym.symmetrize(sym.product_state([-1, 0])),
                           sym.symmetrize(sym.product_state([2, 0])), ov)


def test_zero_state_algebra():
    z = sym.zero_state(2)
    s = sym.product_state((0, 1))
    assert sym.states_close(sym.add(z, s), s)
    assert sym.scale(s, 0.0).is_zero
    assert sym.scalar_product(z, s, sym.KroneckerOverlap()) == 0j
