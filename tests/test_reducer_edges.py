"""Every call routed through the one reducer, at its edges, against Python
integers.

``modmath.mod_reduce`` is the only array reduction of ``hecore``: the
dyadic products, the lazy key-switch sum, the signed lift, the CRT
compositions, the key-switch digit stacks, the weight tables and the
modulus switch all end in it.  Each is checked here on the residues where
a reduction goes wrong first — 0, 1, ``p - 1``, ``P/2``, ``P/2 + 1``,
negatives down to ``-2**62`` and a full lazy sum of ``(p - 1)**2`` — over
the three widest 30-bit NTT primes and set B's 24-bit rows, each with its
special prime ``P`` last.
"""

import itertools

import numpy as np
import pytest

from repro.hecore import hoisting, ntt
from repro.hecore.keys import decompose_for_keyswitch, keyswitch_ext_base
from repro.hecore.modmath import LAZY_SUM_TERMS, MAX_MODULUS_BITS, mod_mac, mod_mul
from repro.hecore.params import PARAMETER_SET_B
from repro.hecore.primes import generate_ntt_primes
from repro.hecore.rns import RnsBase

#: Degree of the edge blocks: small, and every prime below is NTT-friendly
#: for it.
N = 16

#: ``q_0..q_{L-1}, P``: the three widest 30-bit NTT primes at N = 4096 (the
#: widest last, as the special prime), and set B's 24-bit rows with its
#: 30-bit special prime.
_WIDE = generate_ntt_primes(MAX_MODULUS_BITS, 3, 4096)
EXT_BASES = {
    "wide-30": RnsBase(_WIDE[1:] + _WIDE[:1]),
    "set-b-24": RnsBase(PARAMETER_SET_B.data_base.moduli
                        + (PARAMETER_SET_B.special_prime,)),
}


def _residue_edges(p: int, big_p: int):
    """Canonical edge residues of modulus *p* (``P/2`` taken mod *p*)."""
    return sorted({0, 1, p - 1, p // 2, p // 2 + 1,
                   big_p // 2 % p, (big_p // 2 + 1) % p})


def _edge_block(base: RnsBase) -> np.ndarray:
    """``(k, N)`` canonical block: row ``i`` cycles modulus ``i``'s edge
    residues."""
    big_p = base.moduli[-1]
    return np.array([list(itertools.islice(
        itertools.cycle(_residue_edges(p, big_p)), N)) for p in base.moduli],
        dtype=np.int64)


def _signed_edges(big_p: int) -> list:
    return [0, 1, -1, big_p // 2, big_p // 2 + 1, -(big_p // 2),
            -(big_p // 2 + 1), 2**31, -2**31, 2**62, -2**62, -2**62 + 1,
            2**62 - 1, -(2**40) - 3]


@pytest.fixture(params=sorted(EXT_BASES))
def ext(request) -> RnsBase:
    return EXT_BASES[request.param]


def _python_rows(block, moduli):
    """``block`` reduced row by row with Python integers."""
    return [[int(v) % p for v in row] for row, p in zip(block, moduli)]


def test_lift_signed_and_decompose(ext):
    values = _signed_edges(ext.moduli[-1])
    want = [[v % p for v in values] for p in ext.moduli]
    assert ext.lift_signed(np.array(values)).tolist() == want
    assert ext.decompose(values).tolist() == want
    wide = values + [2**200 + 5, -(2**90)]          # the big-integer path
    assert ext.decompose(wide).tolist() == [[v % p for v in wide]
                                            for p in ext.moduli]


def test_dyadic_products(ext):
    a = _edge_block(ext)
    b = a[:, ::-1].copy()
    want = _python_rows(a.astype(object) * b.astype(object), ext.moduli)
    assert mod_mul(a[None], b, ext.moduli)[0].tolist() == want
    plan = ntt.get_stack_plan(N, ext.moduli)
    assert plan.dyadic_multiply(a, b).tolist() == want


@pytest.mark.parametrize("terms", [LAZY_SUM_TERMS, LAZY_SUM_TERMS + 1,
                                   3 * LAZY_SUM_TERMS])
def test_mod_mac_full_lazy_sum(ext, terms):
    """Every chunk a full lazy sum of ``(p - 1)**2``, then the chunks' sum."""
    top = np.array([[p - 1] * N for p in ext.moduli], dtype=np.int64)
    digits = np.broadcast_to(top, (terms,) + top.shape)
    keys = np.broadcast_to(top, (terms, 2) + top.shape)
    got = mod_mac('...lkn,...lckn->...ckn', digits, keys, ext.moduli)
    want = [[terms * (p - 1) ** 2 % p] * N for p in ext.moduli]
    assert got.tolist() == [want, want]


def _crt(block, moduli):
    q = int(np.prod([int(p) for p in moduli], dtype=object))
    return [sum(int(row[j]) * (q // p) * pow(q // p, -1, p)
                for row, p in zip(block, moduli)) % q
            for j in range(block.shape[1])]


def test_crt_composition_matches_python_ints(ext):
    """The CRT coefficients ``y_i`` and both compositions: big-integer
    (the whole base) and int64 (a two-prime prefix, below ``2**62``)."""
    block = _edge_block(ext)
    q = ext.modulus
    assert ext._y_residues(block).tolist() == [
        [int(v) * pow(q // p, -1, p) % p for v in row]
        for row, p in zip(block, ext.moduli)]
    assert ext.compose(block) == _crt(block, ext.moduli)
    prefix = RnsBase(ext.moduli[:2])
    assert prefix.bit_size <= 62
    assert prefix.compose(block[:2]) == _crt(block[:2], prefix.moduli)


def test_divide_and_round_by_last_at_the_centring_boundary(ext):
    """``c = ±P/2`` against ``x_i`` in ``{0, p - 1}``: the one reduction
    of ``(x_i - c)·P^-1`` at the ends of its ``2**61`` bound."""
    big_p = ext.moduli[-1]
    target = ext.drop_last()
    cases = list(itertools.product((big_p // 2, big_p // 2 + 1), (0, 1)))
    block = np.array([[(p - 1) * top for _, top in cases]
                      for p in target.moduli]
                     + [[last for last, _ in cases]], dtype=np.int64)
    got_base, got = ext.divide_and_round_by_last(block)
    assert got_base == target
    for j, (last, _) in enumerate(cases):
        c = last - big_p if last > big_p // 2 else last
        assert abs(c) == big_p // 2
        for i, p in enumerate(target.moduli):
            assert got[i, j] == (int(block[i, j]) - c) * pow(big_p, -1, p) % p


def test_keyswitch_digit_stacks_and_special_row(ext):
    """The centred digits reduced for every other row and for ``P``:
    against Python-integer digits through the same stacked transform."""
    base = ext.drop_last()
    block = _edge_block(base)
    plan = ntt.get_stack_plan(N, base.moduli)
    got = decompose_for_keyswitch(block, base, ext, plan.forward(block))
    centred = [[v - p if v > p // 2 else v for v in row.tolist()]
               for row, p in zip(block, base.moduli)]
    lifted = np.array([[[v % q for v in digit] for q in ext.moduli]
                       for digit in centred], dtype=np.int64)
    want = ntt.get_stack_plan(N, ext.moduli).forward_batch(lifted)
    assert np.array_equal(got, want)
    assert np.array_equal(decompose_for_keyswitch(block, base, ext), want)


def test_weight_table_sums_reduce_like_python_ints(bfv):
    """Terms on one (source, element) pair summed and reduced once."""
    current = bfv.params.data_base
    ext = keyswitch_ext_base(current, bfv.params)
    n = bfv.params.poly_degree
    top = np.array([[p - 1] * n for p in ext.moduli], dtype=np.int64)
    half = np.array([[p // 2 + 1] * n for p in ext.moduli], dtype=np.int64)
    table = hoisting.weight_table(bfv, current,
                                  [(1, 0, top), (1, 0, top), (1, 0, half)])
    want = np.array([[(2 * (p - 1) + p // 2 + 1) % p] * n
                     for p in ext.moduli], dtype=np.int64)
    assert np.array_equal(table.m_ntt[0],
                          ntt.get_stack_plan(n, ext.moduli).forward(want))


def test_weight_table_lifts_summed_coefficient_rows_like_python_ints(bfv):
    """Rows of integer coefficients (BFV plaintexts) on one pair are summed
    in int64 and lifted once: the table of the lifted sum, negative and
    above-``t`` sums included, next to a pair of one term."""
    current = bfv.params.data_base
    ext = keyswitch_ext_base(current, bfv.params)
    n, t = bfv.params.poly_degree, bfv.params.plain_modulus
    rows = [np.full(n, t - 1), np.full(n, t - 1), np.full(n, -(t // 2))]
    table = hoisting.weight_table(bfv, current,
                                  [(1, 0, r) for r in rows] + [(2, 0, rows[2])])
    assert table.terms == 4 and len(table.pairs) == 2
    totals = (2 * (t - 1) - t // 2, -(t // 2))
    want = np.array([[[v % p] * n for p in ext.moduli] for v in totals],
                    dtype=np.int64)
    assert np.array_equal(table.m_ntt,
                          ntt.get_stack_plan(n, ext.moduli).forward_batch(want))
