"""Property tests for the stacked-residue NTT kernels and vectorized RNS paths.

The stacked kernels (:class:`repro.hecore.ntt.NttStackPlan`, a four-step
transform of exact float64 matmuls) must be bit-exact with the scalar
reference plan (:class:`tests.oracles.NttPlan`) and with the schoolbook
negacyclic product — across random inputs, every power-of-two degree from 2
to ``2**15`` (square and 1:2 splits), every seed parameter set and the widest
moduli the limb width admits (the largest NTT primes below
``2**MAX_MODULUS_BITS``, with all-``(p-1)`` and all-``p//2`` inputs), both
width classes (the widest narrow primes at every degree to ``2**16``, at
``0``, ``p//2``, ``p//2 + 1`` and ``p - 1``; each set's class per row),
canonical and non-canonical inputs, natural and raw order, single stacks and
cache-grouped batches, and the small-input transform of signed rows at the
edge of its envelope.  ``check_bounds=True`` asserts the exactness envelope
at every step: every matmul partial sum below ``2**52`` whatever the
summation order, every reduced or twiddled value in ``(-p, p)``.  A modulus
at or above the limb width, or a degree whose sums would leave the envelope,
is refused where it enters.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hecore import ntt
from repro.hecore.bfv import BfvContext
from repro.hecore.modmath import MAX_MODULUS_BITS
from repro.hecore.params import (
    PARAMETER_SET_A,
    PARAMETER_SET_B,
    PARAMETER_SET_C,
    SchemeType,
    small_test_parameters,
)
from repro.hecore.polyring import RnsPoly
from repro.hecore.primes import generate_ntt_primes, is_prime
from repro.hecore.rns import RnsBase
from tests import oracles
from tests.test_hecore_memos import _reachable_arrays

N = 64
PRIMES = tuple(generate_ntt_primes(20, 3, N))

#: The edge of the limb-width contract at the served degree: the largest
#: NTT-friendly primes below ``2**MAX_MODULUS_BITS`` for N = 4096.
EDGE_N = 4096
EDGE_PRIMES = tuple(generate_ntt_primes(MAX_MODULUS_BITS, 3, EDGE_N))

#: The e2e benchmark's CKKS set: one narrow row (16,760,833) among wide ones.
E2E_CKKS = small_test_parameters(SchemeType.CKKS, 4096, data_bits=(30, 30, 30))


def _widest_narrow_primes(n, count=3):
    """The largest NTT-friendly primes for degree *n* in the narrow width
    class: ``n2 * (p//2 + 1) * (p//2)`` just below ``2**52``."""
    n2 = n // (1 << ((n.bit_length() - 1) // 2))
    candidate = 2 * math.isqrt((1 << 52) // n2) + 1
    candidate -= (candidate - 1) % (2 * n)
    primes = []
    while len(primes) < count:
        if ntt.is_narrow(n, candidate) and is_prime(candidate):
            primes.append(candidate)
        candidate -= 2 * n
    return tuple(primes)


def _class_edges(moduli, n):
    """``(k, n)`` stacks that drive every sum to its extreme: the canonical
    ``0``, ``p//2``, ``p//2 + 1`` and ``p - 1`` cycled along each row at
    every phase (so each value sits at every position mod 4, even at
    ``n = 2``), then all-``(p - 1)`` and all-``p//2`` rows."""
    pcol = np.array(moduli, dtype=np.int64)[:, None]
    cycle = np.concatenate([0 * pcol, pcol // 2, pcol // 2 + 1, pcol - 1], axis=1)
    index = np.arange(n)
    return ([cycle[:, (index + phase) % 4] for phase in range(4)]
            + [pcol - 1 + 0 * index, pcol // 2 + 0 * index])


@pytest.fixture(scope="module")
def stack_plan():
    return ntt.get_stack_plan(N, PRIMES)


def _random_stack(rng, moduli, n):
    return np.stack([rng.integers(0, p, n, dtype=np.int64) for p in moduli])


# ---------------------------------------------------------------- plan basics
def test_stack_plan_cached():
    assert ntt.get_stack_plan(N, PRIMES) is ntt.get_stack_plan(N, list(PRIMES))


def test_stack_plan_rejects_bad_size():
    with pytest.raises(ValueError):
        ntt.NttStackPlan(100, PRIMES)


def test_stack_plan_rejects_unfriendly_prime():
    with pytest.raises(ValueError):
        ntt.NttStackPlan(N, (PRIMES[0], 97))


def test_stack_plan_rejects_empty_base():
    with pytest.raises(ValueError):
        ntt.NttStackPlan(N, ())


def test_stack_plan_rejects_bad_shape(stack_plan):
    with pytest.raises(ValueError):
        stack_plan.forward(np.zeros((1, N), dtype=np.int64))


def test_same_roots_as_scalar_plan(stack_plan):
    for r, p in enumerate(PRIMES):
        assert stack_plan.psis[r] == oracles.get_plan(N, p).psi


# ----------------------------------------------------- vs the scalar oracle
def test_forward_matches_scalar_plan(stack_plan):
    rng = np.random.default_rng(11)
    a = _random_stack(rng, PRIMES, N)
    out = stack_plan.forward(a, check_bounds=True)
    for r, p in enumerate(PRIMES):
        assert np.array_equal(out[r], oracles.get_plan(N, p).forward(a[r]))


def test_inverse_matches_scalar_plan(stack_plan):
    rng = np.random.default_rng(12)
    evals = _random_stack(rng, PRIMES, N)
    out = stack_plan.inverse(evals, check_bounds=True)
    for r, p in enumerate(PRIMES):
        assert np.array_equal(out[r], oracles.get_plan(N, p).inverse(evals[r]))


def test_roundtrip_is_identity(stack_plan):
    rng = np.random.default_rng(13)
    a = _random_stack(rng, PRIMES, N)
    assert np.array_equal(stack_plan.inverse(stack_plan.forward(a)), a)


def test_non_canonical_input_reduced(stack_plan):
    rng = np.random.default_rng(14)
    a = _random_stack(rng, PRIMES, N)
    pcol = np.array(PRIMES, dtype=np.int64).reshape(-1, 1)
    shifted = a - 2 * pcol  # negative, non-canonical representatives
    assert np.array_equal(stack_plan.forward(shifted), stack_plan.forward(a))


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_negacyclic_multiply_matches_naive(seed):
    rng = np.random.default_rng(seed)
    n = 16
    moduli = tuple(generate_ntt_primes(20, 2, n))
    plan = ntt.get_stack_plan(n, moduli)
    a = _random_stack(rng, moduli, n)
    b = _random_stack(rng, moduli, n)
    out = plan.negacyclic_multiply(a, b)
    for r, p in enumerate(moduli):
        assert np.array_equal(out[r], oracles.negacyclic_multiply_naive(a[r], b[r], p))


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_lazy_bounds_hold_on_random_input(seed):
    rng = np.random.default_rng(seed)
    n = 128
    moduli = tuple(generate_ntt_primes(28, 3, n))
    plan = ntt.get_stack_plan(n, moduli)
    a = _random_stack(rng, moduli, n)
    # check_bounds=True asserts the 2**52 partial-sum envelope of every
    # matmul and the (-p, p) range of every reduced value.
    evals = plan.forward(a, check_bounds=True)
    assert np.array_equal(plan.inverse(evals, check_bounds=True), a)


# ------------------------------------------------------- seed parameter sets
def _evaluate_at(coeffs, psi, j, p):
    """Python-int reference: the polynomial at ``psi ** (2j + 1)`` mod p."""
    root = pow(psi, 2 * j + 1, p)
    acc = 0
    for c in reversed(coeffs.tolist()):
        acc = (acc * root + c) % p
    return acc


@pytest.mark.parametrize(
    "n, moduli",
    [(params.poly_degree, params.full_base.moduli)
     for params in (PARAMETER_SET_A, PARAMETER_SET_B, PARAMETER_SET_C,
                    E2E_CKKS)]
    + [(EDGE_N, EDGE_PRIMES)],
    ids=["A", "B", "C", "e2e_ckks", "edge30"],
)
def test_seed_parameter_sets_bit_exact(n, moduli):
    plan = ntt.get_stack_plan(n, moduli)
    rng = np.random.default_rng(hash(moduli) & 0xFFFF)
    a = _random_stack(rng, moduli, n)
    a[:, 0] = np.array(moduli) - 1          # the largest canonical residue
    evals = plan.forward(a, check_bounds=True)
    for r, p in enumerate(moduli):
        assert np.array_equal(evals[r], oracles.get_plan(n, p).forward(a[r]))
        for j in (0, 1, n // 2, n - 1):
            assert evals[r, j] == _evaluate_at(a[r], plan.psis[r], j, p)
    assert np.array_equal(plan.inverse(evals, check_bounds=True), a)
    # A batch large enough to run in cache-sized groups of stacks.
    batch = np.stack([a] + [_random_stack(rng, moduli, n) for _ in range(4)])
    assert plan._batch_group(len(batch)) < len(batch)
    out = plan.forward_batch(batch, check_bounds=True)
    for i, stack in enumerate(batch):
        assert np.array_equal(out[i], plan.forward(stack))
    assert np.array_equal(plan.inverse_batch(out, check_bounds=True), batch)


# ------------------------------------------- every degree, the widest primes
@pytest.mark.parametrize("n", [2 ** e for e in range(1, 16)])
def test_every_degree_bit_exact_at_the_widest_primes(n):
    """Square (n1 == n2) and 1:2 (n2 == 2 * n1) four-step splits alike, on
    the largest NTT-friendly primes below the limb width, with the inputs
    that push every sum to its extreme."""
    moduli = tuple(generate_ntt_primes(MAX_MODULUS_BITS, 3, max(n, 4)))
    plan = ntt.get_stack_plan(n, moduli)
    pcol = np.array(moduli, dtype=np.int64)[:, None]
    rng = np.random.default_rng(n)
    inputs = [pcol - 1 + np.zeros((1, n), dtype=np.int64),
              pcol // 2 + np.zeros((1, n), dtype=np.int64),
              _random_stack(rng, moduli, n)]
    for a in inputs:
        evals = plan.forward(a, check_bounds=True)
        coeffs = plan.inverse(a, check_bounds=True)
        for r, p in enumerate(moduli):
            scalar = oracles.get_plan(n, p)
            assert np.array_equal(evals[r], scalar.forward(a[r]))
            assert np.array_equal(coeffs[r], scalar.inverse(a[r]))
        assert np.array_equal(plan.inverse(evals, check_bounds=True), a)
    # The small-input transform at the edge of its envelope, both signs,
    # and refused one past it.
    edge = plan.small_bound - 1
    small = np.stack([np.full(n, edge), np.full(n, -edge),
                      rng.integers(-edge, edge + 1, n)])
    base = RnsBase.of(moduli)
    assert np.array_equal(plan.forward_small(small, check_bounds=True),
                          plan.forward_batch(base.lift_signed(small)))
    for past in (edge + 1, -edge - 1):
        small[2, n // 2] = past
        with pytest.raises(ValueError, match="small-input"):
            plan.forward_small(small)


def _corrupt_first_digit(plan):
    """Replace the one kernel's first forward step by one whose leading
    digit is ``2**20`` times too wide (the tables are read-only)."""
    ((steps, _),) = plan._groups
    first, table, second = steps._forward
    digits = (first.digits[0] * 2 ** 20,) + first.digits[1:]
    steps._forward = (first._replace(digits=digits), table, second)
    return steps


# ------------------------------------------------------ the two width classes
def _placed(plan):
    """Each plan row's ``(narrow, psi)`` as its class kernel holds it."""
    placed = {}
    for steps, runs in plan._groups:
        for rows, mine in runs:
            for r, m in zip(range(rows.start, rows.stop),
                            range(mine.start, mine.stop)):
                placed[r] = (steps.narrow, steps.psis[m])
    return placed


def _batch_matches_the_oracle(plan, stacks):
    """Forward and inverse of a ``(B, k, n)`` batch, batched and one stack
    at a time, with the envelope asserted, against the scalar oracle, and
    the round trip."""
    evals = plan.forward_batch(stacks, check_bounds=True)
    coeffs = plan.inverse_batch(stacks, check_bounds=True)
    for a, want_evals, want_coeffs in zip(stacks, evals, coeffs):
        assert np.array_equal(plan.forward(a, check_bounds=True), want_evals)
        assert np.array_equal(plan.inverse(a, check_bounds=True), want_coeffs)
        for r, p in enumerate(plan.moduli):
            scalar = oracles.get_plan(plan.n, p)
            assert np.array_equal(want_evals[r], scalar.forward(a[r]))
            assert np.array_equal(want_coeffs[r], scalar.inverse(a[r]))
    assert np.array_equal(plan.inverse_batch(evals, check_bounds=True), stacks)


@pytest.mark.parametrize("params, narrow", [
    (PARAMETER_SET_A, ()),
    (PARAMETER_SET_B, PARAMETER_SET_B.data_base.moduli),
    (PARAMETER_SET_C, ()),
    (E2E_CKKS, (16_760_833,)),
], ids=["A", "B", "C", "e2e_ckks"])
def test_each_set_pins_its_width_class_per_row(params, narrow):
    """Which rows take the one-matmul path: set B's three data rows, the
    e2e CKKS set's 16,760,833 row and nothing else; each plan row sits in
    exactly one class kernel, at its own root."""
    n, moduli = params.poly_degree, params.full_base.moduli
    assert tuple(p for p in moduli if ntt.is_narrow(n, p)) == narrow
    plan = ntt.get_stack_plan(n, moduli)
    assert _placed(plan) == {r: (p in narrow, plan.psis[r])
                             for r, p in enumerate(moduli)}
    assert len(plan._groups) == 1 + (0 < len(narrow) < len(moduli))


def test_the_class_bound_at_the_served_degree():
    """At N = 4096 (64-term sums) a prime is narrow exactly below 2**24.
    The NTT-friendly primes on either side of that bound are the e2e CKKS
    set's two rescale primes; each transforms bit-exactly at its
    extremes, one on each path."""
    n = 4096
    below = generate_ntt_primes(24, 1, n)[0]
    above = (1 << 24) + 1
    while not is_prime(above):
        above += 2 * n
    assert (below, above) == (16_760_833, 16_801_793)
    assert ntt.is_narrow(n, below) and ntt.is_narrow(n, (1 << 24) - 1)
    assert not ntt.is_narrow(n, 1 << 24) and not ntt.is_narrow(n, above)
    for p in (below, above):
        plan = ntt.get_stack_plan(n, (p,))
        assert _placed(plan) == {0: (p == below, plan.psis[0])}
        _batch_matches_the_oracle(plan, np.stack(_class_edges((p,), n)))


def test_set_b_rows_match_the_oracle_at_the_class_edges():
    """Set B's full base (three narrow data rows, the wide special prime)
    at the centred extremes, single stacks and a batch that runs in
    cache-sized groups, and the small-input transform at its edge."""
    n, moduli = PARAMETER_SET_B.poly_degree, PARAMETER_SET_B.full_base.moduli
    plan = ntt.get_stack_plan(n, moduli)
    rng = np.random.default_rng(57)
    stacks = np.stack(_class_edges(moduli, n) + [_random_stack(rng, moduli, n)])
    assert plan._batch_group(len(stacks)) < len(stacks)
    _batch_matches_the_oracle(plan, stacks)
    edge = plan.small_bound - 1
    small = np.stack([np.full(n, edge), np.full(n, -edge),
                      rng.integers(-edge, edge + 1, n), rng.integers(-19, 20, n)])
    lifted = RnsBase.of(moduli).lift_signed(small)
    out = plan.forward_small(small, check_bounds=True)
    for i in range(len(small)):
        for r, p in enumerate(moduli):
            assert np.array_equal(out[i, r],
                                  oracles.get_plan(n, p).forward(lifted[i, r]))


@pytest.mark.parametrize("n", [2 ** e for e in range(1, 17)])
def test_every_degree_bit_exact_at_the_widest_narrow_primes(n):
    """Every degree the float64 envelope admits has narrow primes: the
    largest of them, at the centred extremes, forward and inverse, single
    and batched, and the small-input transform at the edge of its
    envelope, against the scalar oracle with the envelope asserted."""
    moduli = _widest_narrow_primes(n)
    plan = ntt.get_stack_plan(n, moduli)
    assert [steps.narrow for steps, _ in plan._groups] == [True]
    rng = np.random.default_rng(n)
    stacks = np.stack(_class_edges(moduli, n) + [_random_stack(rng, moduli, n)])
    _batch_matches_the_oracle(plan, stacks)
    edge = plan.small_bound - 1
    small = np.stack([np.full(n, edge), np.full(n, -edge),
                      rng.integers(-edge, edge + 1, n)])
    assert np.array_equal(plan.forward_small(small, check_bounds=True),
                          plan.forward_batch(RnsBase.of(moduli).lift_signed(small)))


@pytest.mark.parametrize("params", [PARAMETER_SET_B, E2E_CKKS],
                         ids=["B", "e2e_ckks"])
def test_every_table_of_a_mixed_plan_is_read_only(params):
    """A plan of both classes is shared like any other: every array its
    kernel reaches, in either class group, refuses an in-place write."""
    plan = ntt.get_stack_plan(params.poly_degree, params.full_base.moduli)
    plan.forward(np.zeros((len(plan), plan.n), dtype=np.int64))  # fills scratch
    assert sorted(steps.narrow for steps, _ in plan._groups) == [False, True]
    arrays = list(_reachable_arrays(plan._groups, "plan._groups"))
    assert len(arrays) >= 20
    assert [path for path, table in arrays if table.flags.writeable] == []


def test_check_bounds_catches_a_sum_outside_the_envelope():
    """The envelope check is live: a constant whose digits are 2**20 times
    too wide would let a partial sum pass 2**52, and check_bounds says so."""
    moduli = tuple(generate_ntt_primes(MAX_MODULUS_BITS, 3, N))
    plan = ntt.NttStackPlan(N, moduli)      # a private plan, not the memo's
    assert not _corrupt_first_digit(plan).narrow
    a = np.array(moduli, dtype=np.int64)[:, None] - 1 + np.zeros((1, N), np.int64)
    with pytest.raises(AssertionError, match="2\\*\\*52"):
        plan.forward(a, check_bounds=True)


def test_check_bounds_catches_a_narrow_sum_outside_the_envelope():
    """The same on the narrow path: its one full-width matmul is asserted
    against the same envelope."""
    moduli = _widest_narrow_primes(N)
    plan = ntt.NttStackPlan(N, moduli)
    assert _corrupt_first_digit(plan).narrow
    a = np.array(moduli, dtype=np.int64)[:, None] - 1 + np.zeros((1, N), np.int64)
    with pytest.raises(AssertionError, match="2\\*\\*52"):
        plan.forward(a, check_bounds=True)


def test_a_sub_base_plan_takes_its_rows_from_the_tables_already_built():
    """Each modulus' tables are derived once and stacked per plan: once a
    base's plan exists, a plan over any sub-tuple of it (the special prime
    alone, a lower level's extended base) derives no table, holds exactly
    its rows of the wider plan's tables, and transforms as those rows do."""
    # Both memos are bounded and earlier tests fill them: start cold.
    ntt._memoised_stack_plan.cache_clear()
    ntt._modulus_steps.cache_clear()
    wide = ntt.get_stack_plan(N, PRIMES)
    built = ntt._modulus_steps.cache_info().misses
    rng = np.random.default_rng(21)
    stack = _random_stack(rng, PRIMES, N)
    for rows in ([2], [0, 2], [1, 0]):
        sub = ntt.get_stack_plan(N, [PRIMES[r] for r in rows])
        assert ntt._modulus_steps.cache_info().misses == built
        assert sub.psis == tuple(wide.psis[r] for r in rows)
        ((sub_steps, _),) = sub._groups
        ((wide_steps, _),) = wide._groups
        assert np.array_equal(sub_steps._small.digits[0],
                              wide_steps._small.digits[0][rows])
        assert np.array_equal(sub.forward(stack[rows]),
                              wide.forward(stack)[rows])
        assert np.array_equal(sub.inverse(stack[rows]),
                              wide.inverse(stack)[rows])


def test_a_tiled_base_transforms_every_tile_as_its_base_does():
    """A plan over a base repeated ``b`` times transforms each stack (and
    each small row) as the base plan does: tiling is plain stacking."""
    plan = ntt.get_stack_plan(N, PRIMES)
    rng = np.random.default_rng(21)
    for b in (2, 3, 8):
        tiled = ntt.get_stack_plan(N, PRIMES * b)
        stacks = np.stack([_random_stack(rng, PRIMES, N) for _ in range(b)])
        want = plan.forward_batch(stacks).reshape(b * len(PRIMES), N)
        assert np.array_equal(tiled.forward(stacks.reshape(-1, N)), want)
        small = rng.integers(-19, 20, (2, N))
        assert np.array_equal(tiled.forward_small(small),
                              np.tile(plan.forward_small(small), (1, b, 1)))


def test_degree_beyond_the_float64_envelope_is_refused():
    """n2 = 2**ceil(log2(N) / 2) terms per sum: 2**16 is the last degree whose
    sums stay below 2**52 (and it is exact there); 2**17 is refused before
    any table is built."""
    edge, big = 2 ** 16, 2 ** 17
    (p,) = generate_ntt_primes(MAX_MODULUS_BITS, 1, edge)
    a = np.full((1, edge), p - 1, dtype=np.int64)
    evals = ntt.NttStackPlan(edge, (p,)).forward(a, check_bounds=True)
    assert np.array_equal(evals[0], oracles.NttPlan(edge, p).forward(a[0]))
    with pytest.raises(ValueError, match=r"2\*\*52"):
        ntt.NttStackPlan(big, tuple(generate_ntt_primes(MAX_MODULUS_BITS, 1, big)))
    assert ntt.MAX_SUM_TERMS == 2 ** 8


# --------------------------------------------------- the limb-width contract
_P31 = generate_ntt_primes(MAX_MODULUS_BITS + 1, 2, N)


@pytest.mark.parametrize("build", [
    lambda: RnsBase([_P31[0], PRIMES[0]]),
    lambda: ntt.get_stack_plan(N, (_P31[0],)),
    # The plain modulus reaches NttStackPlan through BatchEncoder.
    lambda: BfvContext(small_test_parameters(
        SchemeType.BFV, poly_degree=N, plain_bits=MAX_MODULUS_BITS + 1)),
], ids=["rns_base", "stack_plan", "bfv_plain_modulus"])
def test_moduli_at_or_above_the_limb_width_are_refused(build):
    """Construction is where a modulus enters, so the refusal comes before
    any key or ciphertext exists."""
    with pytest.raises(ValueError, match=rf"2\*\*{MAX_MODULUS_BITS}\b"):
        build()


# --------------------------------------------------- NTT-form automorphism
@pytest.mark.parametrize("galois_elt", [3, 9, 2 * N - 1, 5])
def test_automorphism_ntt_form_matches_coefficient_form(galois_elt):
    base = RnsBase(PRIMES)
    rng = np.random.default_rng(31)
    poly = RnsPoly(base, N, _random_stack(rng, PRIMES, N), is_ntt=False)
    via_coeff = poly.apply_automorphism(galois_elt).to_ntt()
    via_ntt = poly.to_ntt().apply_automorphism(galois_elt)
    assert np.array_equal(via_coeff.data, via_ntt.data)


def test_automorphism_rejects_even_element():
    base = RnsBase(PRIMES)
    poly = RnsPoly.zero(base, N)
    with pytest.raises(ValueError):
        poly.apply_automorphism(4)


# ------------------------------------------- RNS decompose/compose fast paths
def test_decompose_fast_and_big_paths_agree():
    base = RnsBase(PRIMES)
    rng = np.random.default_rng(41)
    small = rng.integers(-(2**40), 2**40, 32).tolist()
    fast = base.decompose(small)
    big = base.decompose([v + base.modulus * 2**70 for v in small])
    # Shifting by a multiple of the modulus must not change the residues.
    assert np.array_equal(fast, big)
    roundtrip = base.compose(fast)
    assert roundtrip == [v % base.modulus for v in small]


def test_compose_wide_base_pair_folded_path():
    # Enough 29-bit primes that the composed modulus exceeds the int64
    # fast-path envelope, exercising the pair-folded big-integer path.
    n = 64
    base = RnsBase(generate_ntt_primes(29, 5, n))
    assert base.bit_size > 62
    rng = np.random.default_rng(42)
    values = [int(v) for v in rng.integers(0, 2**62, 16)]
    residues = base.decompose(values)
    assert base.compose(residues) == [v % base.modulus for v in values]
    centered = base.compose_centered(residues)
    half = base.modulus // 2
    assert all(-half <= c <= half for c in centered)


# ------------------------------------------------------------ shared plans

def test_one_plan_transforms_correctly_from_several_threads():
    """Plans are cached per ``(n, moduli)`` and shared by every context of
    the process; numpy releases the GIL inside the butterfly ufuncs, so the
    work buffers are per thread.  Six threads round-tripping through one
    set-B-sized plan (rows large enough that the GIL really is dropped)
    must each get the single-threaded answer."""
    import sys
    import threading

    n = PARAMETER_SET_B.poly_degree
    plan = ntt.get_stack_plan(n, PARAMETER_SET_B.full_base.moduli)
    rng = np.random.default_rng(77)
    stacks = [_random_stack(rng, plan.moduli, n) for _ in range(6)]
    want = [plan.forward(s) for s in stacks]
    barrier = threading.Barrier(len(stacks))
    bad = []

    def spin(i):
        barrier.wait(timeout=30)
        for _ in range(40):
            fwd = plan.forward(stacks[i])
            if not (np.array_equal(fwd, want[i])
                    and np.array_equal(plan.inverse(fwd), stacks[i])):
                bad.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=spin, args=(i,))
                   for i in range(len(stacks))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not bad
