"""An EVA-style compiler for CKKS programs (§3.2).

The paper minimizes CKKS parameters through "optimal operation scheduling
via the state-of-the-art EVA HE compiler".  This module reproduces EVA's
essential behavior for the workloads CHOCO runs:

* programs are **expression graphs** over encrypted inputs, plaintext
  constants, ``+ - *``, and rotations;
* the compiler analyzes multiplicative depth and the rotation-step set,
  recommends the smallest parameter selection, and schedules the ops —
  inserting a **rescale** after every multiplication (waterline discipline),
  **relinearization** after ciphertext-ciphertext products, and **level
  alignment** (modulus drops) before binary operations whose operands sit at
  different depths;
* execution normalizes scales after each rescale (rescale primes are chosen
  near the scale, so the relative bias per level is < 0.1%), keeping every
  node at the program's nominal scale.

Example
-------
>>> x = Input("x")
>>> program = EvaProgram({"y": x * x + Constant([1.0])}, slots=4)
>>> compiled = compile_program(program)
>>> compiled.multiplicative_depth
1
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple, Union

import numpy as np

from repro.core.ir import (IrBuilder, IrProgram, ScheduledProgram,
                           ensure_galois_keys, shared_schedule)
from repro.core.paramsearch import ParameterChoice, WorkloadProfile, select_parameters
from repro.hecore.params import SchemeType


class Expr:
    """Base expression node.  Supports operator overloading."""

    def __add__(self, other):
        return Add(self, _coerce(other))

    def __radd__(self, other):
        return Add(_coerce(other), self)

    def __sub__(self, other):
        return Sub(self, _coerce(other))

    def __rsub__(self, other):
        return Sub(_coerce(other), self)

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __neg__(self):
        return Neg(self)

    def rotate(self, steps: int) -> "Rotate":
        """Rotate the slot vector left by *steps*."""
        return Rotate(self, steps)

    @property
    def children(self) -> Tuple["Expr", ...]:
        return ()


def _coerce(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Scalar(float(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return Constant(np.asarray(value, dtype=float))
    raise TypeError(f"cannot use {type(value).__name__} in an Eva expression")


@dataclass(frozen=True, eq=False)
class Input(Expr):
    """An encrypted program input."""

    name: str


@dataclass(frozen=True, eq=False)
class Constant(Expr):
    """A plaintext vector constant."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


@dataclass(frozen=True, eq=False)
class Scalar(Expr):
    """A plaintext scalar constant (broadcast over all slots)."""

    value: float


@dataclass(frozen=True, eq=False)
class Add(Expr):
    left: Expr
    right: Expr

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True, eq=False)
class Sub(Expr):
    left: Expr
    right: Expr

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    left: Expr
    right: Expr

    @property
    def children(self):
        return (self.left, self.right)


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    operand: Expr

    @property
    def children(self):
        return (self.operand,)


@dataclass(frozen=True, eq=False)
class Rotate(Expr):
    """Left-rotate by *steps* slots.

    HE rotations wrap at the ciphertext's full slot width (N/2), not at the
    program's window, so within the window the observable behaviour is a
    shift with zeros entering from the (zero-padded) adjacent slots.
    """

    operand: Expr
    steps: int

    @property
    def children(self):
        return (self.operand,)


@dataclass
class EvaProgram:
    """A named set of output expressions over *slots*-wide vectors."""

    outputs: Dict[str, Expr]
    slots: int
    name: str = "eva-program"

    def __post_init__(self):
        if not self.outputs:
            raise ValueError("a program needs at least one output")
        if self.slots < 1:
            raise ValueError("slots must be positive")


def _is_plain(expr: Expr) -> bool:
    return isinstance(expr, (Constant, Scalar))


@dataclass
class CompiledProgram:
    """A scheduled program: analysis results plus an executable plan."""

    program: EvaProgram
    multiplicative_depth: int
    rotation_steps: Set[int]
    ct_mults: int
    plain_mults: int
    adds: int
    input_names: Set[str]
    recommended: ParameterChoice
    ir: IrProgram

    # ----------------------------------------------------------- scheduling
    def scheduled(self, params) -> ScheduledProgram:
        """The lowered program (:attr:`ir`) run through the
        scheduler passes (rotation fusion, level planning for *params* —
        outputs go straight to the client — level-drop sinking, NTT
        residency).  The process's shared copy for this program and
        parameter set (:func:`repro.core.ir.shared_schedule`): plaintext
        encodings and NTT tables survive across :meth:`execute` calls, and
        a level plan never serves a modulus chain it was not made for."""
        # No session to charge: whoever holds the program compiles it.
        return shared_schedule(self.ir, params, True, Counter())

    # ----------------------------------------------------------- execution
    def execute(self, ctx, inputs: Dict[str, object]) -> Dict[str, np.ndarray]:
        """Run the program on a :class:`CkksContext`.

        *inputs* maps input names to plaintext vectors (encrypted here) or
        pre-encrypted ciphertexts.  Returns decrypted output vectors.
        """
        if ctx.params.scheme is not SchemeType.CKKS:
            raise ValueError("Eva programs execute under CKKS")
        missing = self.input_names - set(inputs)
        if missing:
            raise ValueError(f"missing program inputs: {sorted(missing)}")
        sched = self.scheduled(ctx.params)
        ensure_galois_keys(ctx, sched.rotation_steps())
        # Encrypt all plaintext program inputs in one stacked client pass,
        # and decrypt all program outputs in another — the compiler is a
        # natural batch boundary for the client-crypto engine.
        prepared = dict(inputs)
        plain_names = [name for name in sorted(self.input_names)
                       if not hasattr(prepared[name], "components")]
        if plain_names:
            padded = []
            for name in plain_names:
                vec = np.zeros(self.program.slots)
                raw = np.asarray(prepared[name], dtype=float)
                vec[: len(raw)] = raw
                padded.append(vec)
            prepared.update(zip(plain_names, ctx.encrypt_many(padded)))
        outputs = sched.run(ctx, prepared)
        names = list(self.program.outputs)
        decrypted = ctx.decrypt_many([outputs[name] for name in names])
        return {name: np.real(vec)[: self.program.slots]
                for name, vec in zip(names, decrypted)}

    def reference(self, inputs: Dict[str, Sequence[float]]) -> Dict[str, np.ndarray]:
        """Plaintext oracle evaluation of the same program."""
        memo: Dict[int, np.ndarray] = {}

        def ev(expr: Expr) -> np.ndarray:
            key = id(expr)
            if key in memo:
                return memo[key]
            if isinstance(expr, Input):
                v = np.zeros(self.program.slots)
                raw = np.asarray(inputs[expr.name], dtype=float)
                v[: len(raw)] = raw
            elif isinstance(expr, Constant):
                v = np.zeros(self.program.slots)
                v[: len(expr.values)] = expr.values
            elif isinstance(expr, Scalar):
                v = np.full(self.program.slots, expr.value)
            elif isinstance(expr, Add):
                v = ev(expr.left) + ev(expr.right)
            elif isinstance(expr, Sub):
                v = ev(expr.left) - ev(expr.right)
            elif isinstance(expr, Mul):
                v = ev(expr.left) * ev(expr.right)
            elif isinstance(expr, Neg):
                v = -ev(expr.operand)
            elif isinstance(expr, Rotate):
                inner = ev(expr.operand)
                v = np.zeros_like(inner)
                s = expr.steps
                if s >= 0:
                    v[: len(inner) - s or None] = inner[s:]
                else:
                    v[-s:] = inner[: len(inner) + s]
            else:
                raise TypeError(type(expr).__name__)
            memo[key] = v
            return v

        return {name: ev(expr) for name, expr in self.program.outputs.items()}


def lower_to_ir(program: EvaProgram) -> IrProgram:
    """Lower an Eva expression DAG to the linear ciphertext IR.

    A normalized rescale follows every multiplication (waterline
    discipline), plaintext operands stay attached to the consuming node
    (the IR runner encodes them at the consumer's level and scale), and
    zero-step rotations vanish.  The scheduler passes in
    :mod:`repro.core.ir` then fuse rotations, sink the rescales and the
    relinearisations ``IrBuilder.mul`` emits, and keep products
    NTT-resident.
    """
    builder = IrBuilder(slots=program.slots)
    memo: Dict[int, int] = {}

    def plain_vector(expr: Expr) -> np.ndarray:
        if isinstance(expr, Constant):
            v = np.zeros(program.slots)
            v[: len(expr.values)] = expr.values
            return v
        return np.full(program.slots, expr.value)

    def lower(expr: Expr) -> int:
        key = id(expr)
        if key in memo:
            return memo[key]
        if isinstance(expr, Input):
            nid = builder.input(expr.name)
        elif _is_plain(expr):
            nid = builder.const(plain_vector(expr))
        elif isinstance(expr, Neg):
            nid = builder.neg(lower(expr.operand))
        elif isinstance(expr, Rotate):
            nid = builder.rotate(lower(expr.operand), expr.steps)
        elif isinstance(expr, Add):
            nid = builder.add(lower(expr.left), lower(expr.right))
        elif isinstance(expr, Sub):
            nid = builder.sub(lower(expr.left), lower(expr.right))
        elif isinstance(expr, Mul):
            nid = builder.rescale(builder.mul(lower(expr.left),
                                              lower(expr.right)),
                                  normalize=True)
        else:
            raise TypeError(f"unknown expression node {type(expr).__name__}")
        memo[key] = nid
        return nid

    for name, expr in program.outputs.items():
        builder.output(name, lower(expr))
    return builder.program


def compile_program(program: EvaProgram) -> CompiledProgram:
    """Lower *program* once and read its analysis off the IR: depth from
    the static levels, the rotation-step set, and the live op counts."""
    ir = lower_to_ir(program)
    live = [(nid, ir.nodes[nid]) for nid in ir.live_set()]
    # Multiplies by how many of their operands are ciphertexts.
    mults = Counter(len(ir.ct_args(nid)) for nid, node in live
                    if node.kind == "mul")
    depth = max(level[0] for level in ir.levels(SchemeType.CKKS).values()
                if level is not None)
    rotation_steps = ir.rotation_steps()
    profile = WorkloadProfile(
        value_bits=8,
        fan_in=max(2, program.slots),
        rotations=len(rotation_steps),
        plain_mult_depth=max(1, depth),
        ct_mult_depth=0,
        min_slots=program.slots,
    )
    return CompiledProgram(
        program=program,
        multiplicative_depth=depth,
        rotation_steps=rotation_steps,
        ct_mults=mults[2],
        plain_mults=mults[1],
        adds=sum(node.kind in ("add", "sub") for _, node in live),
        input_names={node.name for _, node in live if node.kind == "input"},
        recommended=select_parameters(profile, SchemeType.CKKS),
        ir=ir,
    )
