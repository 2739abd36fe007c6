"""hecore's process-wide state: structural guards and memo behaviour.

Everything ``repro.hecore`` keeps for the life of a worker is derived from
parameters (degree, moduli, Galois element) that a client chooses, and is
read from ``asyncio.to_thread`` workers.  So it must be *bounded* (a fixed
capacity, least recently used out), *read-only* (one shared array, many
readers) and *defined once* (an ``ast`` walk, so a new module-level dict or
a second copy of a modulus-switch constant or of the limb width fails here,
not in production).
"""

import ast
import importlib.util
import pathlib
import struct

import numpy as np
import pytest

import repro.hecore
from repro.hecore import ntt, polyring, serialize
from repro.hecore.polyring import (
    GALOIS_MEMO_SIZE,
    RnsPoly,
    coeff_automorphism_perm,
    ntt_permutation,
)
from repro.hecore.primes import generate_ntt_primes
from repro.hecore.rns import BASE_MEMO_SIZE, RnsBase
from repro.hecore.serialize import deserialize_ciphertext, serialize_ciphertext
from tests import oracles

HECORE = pathlib.Path(repro.hecore.__file__).parent
MODULES = sorted(HECORE.glob("*.py"))


def _call_name(node: ast.AST):
    func = getattr(node, "func", None)
    return getattr(func, "id", getattr(func, "attr", None))


# ------------------------------------------------------- structural guards
def test_no_module_level_dict_cache():
    """A module-level empty mapping is a cache waiting to be filled without
    a bound or a lock (six of them at 946fb03)."""
    makers = {"dict", "OrderedDict", "defaultdict", "WeakValueDictionary"}
    offenders = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            value = getattr(node, "value", None)
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            if (isinstance(value, ast.Dict) and not value.keys
                    or isinstance(value, ast.Call)
                    and _call_name(value) in makers):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_every_memo_has_a_capacity():
    """No ``functools.cache``, no ``lru_cache`` without a ``maxsize`` (or
    with ``maxsize=None``): an unbounded memo is the same dict, hidden."""
    offenders = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, ast.Attribute) and node.attr == "cache"
                    and getattr(node.value, "id", None) == "functools"):
                offenders.append(f"{where} functools.cache")
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                offenders += [f"{where} import {alias.name}"
                              for alias in node.names if alias.name == "cache"]
            if isinstance(node, ast.Call) and _call_name(node) == "lru_cache":
                sizes = [kw.value for kw in node.keywords
                         if kw.arg == "maxsize"]
                if not sizes or (isinstance(sizes[0], ast.Constant)
                                 and sizes[0].value is None):
                    offenders.append(f"{where} lru_cache")
    assert not offenders, offenders


def test_base_prime_inverses_are_derived_in_one_layer():
    """``P^-1 mod p`` for a modulus switch lives beside ``RnsBase.
    drop_last``; the transform constants in ``ntt``.  A ``mod_inv`` call
    anywhere else is a second copy of one of them."""
    allowed = {"rns.py", "ntt.py", "modmath.py"}
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in MODULES if path.name not in allowed
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _call_name(node) == "mod_inv"
    ]
    assert not offenders, offenders


def _int(node: ast.AST):
    """The value of an integer literal, ``None`` for any other node."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


def test_limb_width_is_spelled_only_in_modmath():
    """``modmath.MAX_MODULUS_BITS`` is the one statement of the limb width:
    a ``1 << 30``, a ``2 ** 31``, either value as a bare integer, or a
    ``bit_length()`` compared to 30 or 31 anywhere else is a second copy of
    the decision (four of them, and a 31-bit kernel path, at f39ace9)."""
    widths = {30, 31}
    offenders = []
    for path in MODULES:
        if path.name == "modmath.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.BinOp) and (
                    isinstance(node.op, ast.LShift) and _int(node.left) == 1
                    or isinstance(node.op, ast.Pow) and _int(node.left) == 2):
                if _int(node.right) in widths:
                    offenders.append(f"{where} {ast.unparse(node)}")
            if _int(node) in {1 << w for w in widths}:
                offenders.append(f"{where} {node.value}")
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if (any(_call_name(s) == "bit_length" for s in sides)
                        and any(_int(s) in widths for s in sides)):
                    offenders.append(f"{where} {ast.unparse(node)}")
    assert not offenders, offenders


#: Every module of the package, for the guards that cover more than hecore.
PACKAGE = sorted(HECORE.parent.rglob("*.py"))


def _is_moduli_column(node: ast.AST) -> bool:
    """A ``(k, 1)`` column of moduli by name: ``moduli_col``, ``pcol``,
    ``_pcol`` or any ``*_col``, also sliced or reshaped."""
    while isinstance(node, (ast.Subscript, ast.Call)):
        node = node.value if isinstance(node, ast.Subscript) else node.func
        if isinstance(node, ast.Attribute) and node.attr in {
                "reshape", "astype", "view", "ravel"}:
            node = node.value
    name = getattr(node, "id", getattr(node, "attr", ""))
    return name in {"moduli_col", "pcol", "_pcol"} or name.endswith("_col")


def test_one_reduction_idiom():
    """``modmath.mod_reduce`` is the one array reduction: a ``np.mod`` /
    ``np.remainder`` / ``%`` against a column of moduli pays a hardware
    division per element, and a Shoup quotient (``(c << 32) // p``, a
    ``>> 32`` of a product, anything named ``shoup``) is a second
    reduction body.  Outside ``modmath.py``, neither may come back (nine
    column reductions and two Shoup products at 5e7c02a)."""
    offenders = []
    for path in PACKAGE:
        if path.name == "modmath.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.relative_to(HECORE.parent)}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, ast.Call) and _call_name(node) in {"mod", "remainder"}
                    and len(node.args) > 1 and _is_moduli_column(node.args[1])):
                offenders.append(f"{where} {ast.unparse(node)}")
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and _is_moduli_column(node.right)):
                offenders.append(f"{where} {ast.unparse(node)}")
            if (isinstance(node, ast.BinOp)
                    and isinstance(node.op, (ast.LShift, ast.RShift))
                    and _int(node.right) == 32):
                offenders.append(f"{where} {ast.unparse(node)}")
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", "")))
            if isinstance(name, str) and "shoup" in name.lower():
                offenders.append(f"{where} {name}")
    assert not offenders, offenders


def test_one_client_pipeline():
    """Each client operation is one block kernel in ``rlwe``, its one-shot
    call the one-row case.  The second paths it replaced may not come back
    anywhere in the package: the ``batchcrypt`` module, the NTT's raw-order
    mode (the ``unscramble`` / ``prescrambled`` flags, ``scramble_order``),
    raw-order key tables cached on ``RnsPoly`` (``_raw``) and
    ``decrypt_many``'s one-at-a-time fallback (``decrypt_fallback``); all
    six were there at 8b0af39."""
    assert importlib.util.find_spec("repro.hecore.batchcrypt") is None
    assert "_raw" not in RnsPoly.__slots__
    banned = {"batchcrypt", "unscramble", "prescrambled", "scramble_order",
              "_raw", "decrypt_fallback"}
    offenders = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.relative_to(HECORE.parent)}:{getattr(node, 'lineno', 0)}"
            names = {getattr(node, field, None)
                     for field in ("id", "attr", "arg", "name", "module")}
            if isinstance(node, ast.Constant):
                names.add(node.value)
            names = {part for name in names if isinstance(name, str)
                     for part in name.split(".")}
            offenders += [f"{where} {name}" for name in sorted(names & banned)]
    assert not offenders, offenders


# ------------------------------------------------------------ Galois tables
def test_galois_tables_stay_at_their_capacity_and_answers_do_not_change():
    n = 2 * GALOIS_MEMO_SIZE            # n odd elements: twice the capacity
    base = RnsBase(generate_ntt_primes(28, 2, n))
    rng = np.random.default_rng(0)
    poly = RnsPoly(base, n, np.stack([rng.integers(0, p, n)
                                      for p in base.moduli]))
    first = {g: (ntt_permutation(n, g).copy(),
                 [t.copy() for t in coeff_automorphism_perm(n, g)],
                 poly.apply_automorphism(g).data,
                 poly.to_ntt().apply_automorphism(g).data)
             for g in (3, 5, 2 * n - 1)}
    for g in range(1, 2 * n, 2):        # every element: evicts the first ones
        ntt_permutation(n, g)
        coeff_automorphism_perm(n, g)
    for memo in (ntt_permutation, coeff_automorphism_perm):
        info = memo.cache_info()
        assert info.maxsize == info.currsize == GALOIS_MEMO_SIZE
    for g, (perm, (source, sign), coeff_out, ntt_out) in first.items():
        assert np.array_equal(ntt_permutation(n, g), perm)
        assert np.array_equal(coeff_automorphism_perm(n, g)[0], source)
        assert np.array_equal(coeff_automorphism_perm(n, g)[1], sign)
        assert np.array_equal(poly.apply_automorphism(g).data, coeff_out)
        assert np.array_equal(poly.to_ntt().apply_automorphism(g).data,
                              ntt_out)


def test_shared_tables_are_read_only():
    perm = ntt_permutation(64, 3)
    source, sign = coeff_automorphism_perm(64, 3)
    moduli_col = RnsBase.of((97, 193)).moduli_col
    for table in (perm, source, sign, moduli_col):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


# ------------------------------------------------------------ plans, bases
def test_plan_memos_stay_at_their_capacity():
    n = 8
    primes = generate_ntt_primes(20, ntt.PLAN_MEMO_SIZE + 8, n)
    rows = np.arange(n, dtype=np.int64)[None, :]
    want = ntt.get_stack_plan(n, primes[:1]).forward(rows)
    for p in primes:
        oracles.get_plan(n, p)
        ntt.get_stack_plan(n, (p,))
    assert oracles.get_plan.cache_info().currsize == ntt.PLAN_MEMO_SIZE
    assert ntt._memoised_stack_plan.cache_info().currsize == ntt.PLAN_MEMO_SIZE
    assert np.array_equal(ntt.get_stack_plan(n, primes[:1]).forward(rows), want)


def _reachable_arrays(obj, path="plan", seen=None):
    """``(path, array)`` for every ndarray reachable from *obj* through
    attributes, tuples and lists, skipping the per-thread scratch."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            yield from _reachable_arrays(item, f"{path}[{i}]", seen)
    elif type(obj).__module__.startswith("repro."):
        for name, value in vars(obj).items():
            if name != "_local":
                yield from _reachable_arrays(value, f"{path}.{name}", seen)


@pytest.mark.parametrize("rows", [1, 4])
def test_every_shared_ntt_table_is_read_only(rows):
    """A plan from ``get_stack_plan`` is shared by every context of the
    process: every array it holds, stacked or per modulus, refuses an
    in-place write (a reduction in place on one would corrupt every later
    transform in the worker)."""
    moduli = generate_ntt_primes(28, rows, 64)
    plan = ntt.get_stack_plan(64, moduli)
    plan.forward(np.ones((rows, 64), dtype=np.int64))   # fills the scratch
    arrays = list(_reachable_arrays(plan))
    assert len(arrays) >= 10
    assert [path for path, table in arrays if table.flags.writeable] == []
    with pytest.raises(ValueError, match="read-only"):
        plan._groups[0][0]._pcol[...] = 0


def test_bases_are_interned_and_the_table_is_bounded():
    moduli = tuple(generate_ntt_primes(28, 3, 64))
    base = RnsBase.of(moduli)
    assert RnsBase.of(moduli) is base
    assert base.drop_last() is base.drop_last() is RnsBase.of(moduli[:-1])
    with pytest.raises(ValueError, match="not coprime"):
        RnsBase.of((6, 9))
    for p in generate_ntt_primes(20, BASE_MEMO_SIZE + 8, 8):
        RnsBase.of((p,))
    assert RnsBase.of.cache_info().currsize == BASE_MEMO_SIZE
    # Evicted, rebuilt, still the same base.
    assert RnsBase.of(moduli) == base and base.drop_last().moduli == moduli[:-1]


def test_foreign_moduli_are_refused_before_the_base_lookup(bfv):
    """A blob's moduli must be a prefix of the chain *before* they are used
    as a key of the intern table or of the wire's row-width table: a
    hostile blob costs no entry."""
    blob = bytearray(serialize_ciphertext(bfv.encrypt([1, 2, 3])))
    first = bfv.params.data_base.moduli[0]
    at = blob.index(struct.pack("<Q", first))
    blob[at:at + 8] = struct.pack("<Q", first + 2)
    memos = (RnsBase.of, serialize._rows)
    before = [memo.cache_info() for memo in memos]
    with pytest.raises(ValueError, match="moduli do not match"):
        deserialize_ciphertext(bytes(blob), bfv.params)
    for memo, was in zip(memos, before):
        now = memo.cache_info()
        assert (now.misses, now.currsize) == (was.misses, was.currsize)


def test_aux_base_memo_is_bounded():
    assert 0 < polyring.aux_base_for.cache_info().maxsize <= 64
    assert polyring.aux_base_for(64, 100) is polyring.aux_base_for(64, 100)
