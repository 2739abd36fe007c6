"""Ciphertext-program IR and the fusing scheduler (ROADMAP item 3).

Consumers (``core.linalg``, ``core.distance``, the Eva compiler, apps)
describe their homomorphic computation as a linear **ciphertext IR** —
rotate / mul / relin / add / sub / neg / rescale / mod-switch nodes over
input ciphertexts and plaintext constants — instead of calling scheme
primitives directly.  A ciphertext×ciphertext ``mul`` is the 3-component
tensor product; the builder emits it with the ``relin`` that is its only
consumer, so a traced program relinearises every product on the spot and
the scheduler decides where the key switches happen.  ``input`` is the
one way into a program: a ciphertext the caller supplies, at its entry
level (:meth:`ScheduledProgram.entry_limbs`).  A client round trip
(decrypt, refresh, re-encrypt) lies between two programs, never inside
one.  Ordered passes rewrite the DAG, reading its one :class:`Analysis`:

1. **Key-switch-sum fusion** (BFV and CKKS) — one add-tree matcher
   (:func:`_add_trees`: a maximal tree of single-consumer adds over
   leaves at one static level and scale) serves this pass and product-sum
   fusion (4).  It runs twice.  First the weighted trees: add-trees of
   ``mul(rotate(x, s_j), const_j)`` leaves over any sources (one input
   tile or several) become one weighted ``keyswitch_sum`` node.  Baby
   rotations shared by the giant steps of a baby-step/giant-step sum fuse
   into every node that reads them.  Then the unweighted trees: two or
   more single-consumer rotations among the leaves (the giant steps, each
   phase of a distance kernel's window sum, or PageRank's repacking
   rotations) become one unweighted ``keyswitch_sum``.  Each node runs as
   :func:`repro.hecore.hoisting.keyswitch_sum`: one decompose per source
   per run, shared by every node over it (double hoisting), one
   key-switch inner product per distinct (source, Galois element), and one
   inverse transform and one mod-down for the whole sum, with the
   plaintext weight tables cached across calls (BFV decrypts
   bit-identically; CKKS moves by rounding).  A rotation left outside
   every tree runs alone.
2. **Batch grouping** — plaintext constants consumed by a BFV program are
   encoded in one stacked :meth:`BatchEncoder.encode_many` pass; encrypts
   and decrypts batch at the program boundary (``encrypt_many`` /
   ``decrypt_many`` in the callers).
3. **Mod-switch and relinearisation sinking** — ``add(rescale(a),
   rescale(b))`` rewrites to ``rescale(add(a, b))`` whenever both operands
   sit at the same level and scale exponent, merging redundant level drops
   (same for ``mod_switch``).  Exact for BFV (mod-switch only moves noise);
   rounding-noise-level drift for CKKS.  ``relin`` pairs sink the same way
   (relinearisation is linear): a sum of k products pays one key switch,
   and the 3-component sum feeds only its ``relin``.
4. **Product-sum fusion** (CKKS) — each maximal add-tree of single-consumer
   ct×ct products at one static level and scale exponent (what sinking
   leaves under one ``relin``) becomes one ``product_sum`` node: the
   operands are stacked once and the three tensor components are summed
   as lazily reduced multiply-accumulates
   (:func:`repro.hecore.modmath.mod_mac`), bit-identical to the add-tree
   because modular sums are exact.  BFV keeps its add-trees: its tensor
   product rounds per product.  Every rewrite (1, 3, 4) is done before
   the level planner (:mod:`repro.core.levelplan`) runs, so the planner
   prices the nodes that run.
5. **NTT-domain residency** — plain-multiply products, and CKKS ct×ct
   products, stay in evaluation (NTT) form; adds/subs/negs of resident
   values accumulate without leaving it, and the deferred inverse
   transform is paid once at the first coefficient-domain consumer (a
   ``relin`` takes its sum in either form).  Elided inverse→forward pairs
   are charged to ``ctx.counts['ntt_elided']`` (units: residue-row
   transform pairs); transforms the scheduler does perform charge
   ``ntt_forward`` / ``ntt_inverse``.  A value consumed by several plain
   multiplies is transformed once per run: ``ntt_forward`` is charged once
   per transformed source, and a later consumer reusing that
   evaluation-form copy charges neither ``ntt_forward`` nor ``ntt_elided``
   (an elided pair is an inverse *and* a forward skipped; the reuse
   skipped no inverse).

The scheduler-off reference path (:meth:`ScheduledProgram.run_reference`)
executes the program as traced, before any pass, one naive primitive at a
time — the bit-exactness oracle the randomized DAG and kernel tests compare
against.

``TracerContext`` lets kernel code *emit* IR: it mimics the evaluator
surface of a context (encode, add, multiply_plain, rotate, rescale, ...),
recording nodes instead of computing.  :class:`TracedKernel` is the one
execution pipeline built on it: a kernel writes its evaluation body once,
and every call runs body → trace → passes → scheduled run.
"""

from __future__ import annotations

import hashlib
import heapq
import operator
import os
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, fields, replace
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.hecore import hoisting
from repro.hecore.keys import (
    RotationSteps,
    galois_element_for_step,
    keyswitch_ext_base,
)
from repro.hecore.modmath import mod_mac
from repro.hecore.params import SchemeType


class ScheduleError(ValueError):
    """The program cannot be represented/scheduled in the IR."""


# ---------------------------------------------------------------------------
# IR nodes
# ---------------------------------------------------------------------------

#: Kinds whose output may legally stay in NTT (evaluation) form.
_FORM_AGNOSTIC = frozenset({"add", "sub", "neg"})


@dataclass(frozen=True, init=False)
class IrNode:
    """One IR operation.  ``args`` index earlier nodes.  Frozen: passes
    replace list entries, never fields, so programs share nodes."""

    kind: str
    args: Tuple[int, ...] = ()
    steps: int = 0                  # rotate
    values: Optional[np.ndarray] = None   # const
    name: str = ""                  # input
    #: keyswitch_sum: (step, source index into args, weight const id or
    #: -1 for an unweighted term)
    terms: Tuple[Tuple[int, int, int], ...] = ()
    normalize: bool = False         # rescale: snap scale back to nominal
    planned: bool = False           # mod_switch inserted by the level planner

    def __init__(self, kind: str, args: Tuple[int, ...] = (), steps: int = 0,
                 values: Optional[np.ndarray] = None, name: str = "",
                 terms: Tuple[Tuple[int, int, int], ...] = (),
                 normalize: bool = False, planned: bool = False):
        # Written straight into the instance dict: a frozen dataclass's own
        # __init__ pays one object.__setattr__ per field.  A field left at
        # its default is read off the class.
        d = self.__dict__
        d["kind"], d["args"] = kind, args
        if steps:
            d["steps"] = steps
        if values is not None:
            d["values"] = values
        if name:
            d["name"] = name
        if terms:
            d["terms"] = terms
        if normalize:
            d["normalize"] = normalize
        if planned:
            d["planned"] = planned

    def weights(self) -> Tuple[int, ...]:
        """The const ids a ``keyswitch_sum``'s weighted terms read."""
        return tuple(c for _, _, c in self.terms if c >= 0)

    def deps(self) -> Tuple[int, ...]:
        """Every node this one reads: its args, then its weights."""
        return self.args + self.weights() if self.terms else self.args

    def remapped(self, args: Tuple[int, ...], new_id) -> "IrNode":
        """A copy reading *args*, its weights renumbered through *new_id*."""
        return replace(self, args=args, terms=tuple(
            (s, i, c if c < 0 else new_id[c]) for s, i, c in self.terms))


#: A ciphertext value's static level: (limbs dropped since entry, CKKS scale
#: exponent — the power of the nominal scale the value carries).
Level = Tuple[int, int]


def level_after(node: IrNode, scheme: SchemeType,
                operands: Sequence[Level]) -> Level:
    """The one per-node level rule: *node*'s level from its ciphertext
    operands' levels.  Binary operands meet at the lower one (the executor
    aligns them); ``mod_switch`` drops a limb and keeps the scale; a CKKS
    ``rescale`` drops a limb and a scale power (BFV has no rescale: it
    costs no level); multiplies stack scale powers, and a ``product_sum``
    (operand pairs) is a sum of ct×ct multiplies at one level; ``relin``
    moves neither.  A ``keyswitch_sum``'s sources must share one level,
    which a weighted sum (of plain multiplies) raises by one scale power
    and an unweighted one keeps."""
    if not operands:                # an input enters fresh
        return 0, 1
    if node.kind == "keyswitch_sum":
        if len(set(operands)) > 1:
            raise ScheduleError(f"keyswitch_sum sources sit at two levels: "
                                f"{sorted(set(operands))}")
        dropped, sexp = operands[0]
        return dropped, sexp + bool(node.weights())
    dropped = max(d for d, _ in operands)
    if node.kind not in ("mul", "product_sum"):
        sexp = max(s for _, s in operands)
    elif len(operands) >= 2:
        sexp = operands[0][1] + operands[1][1]
    else:
        sexp = operands[0][1] + 1
    if node.kind == "mod_switch":
        dropped += 1
    elif node.kind == "rescale" and scheme is SchemeType.CKKS:
        dropped, sexp = dropped + 1, max(1, sexp - 1)
    return dropped, sexp


@dataclass
class IrProgram:
    """A linear ciphertext program: nodes in emission order plus outputs."""

    nodes: List[IrNode] = field(default_factory=list)
    outputs: Dict[str, int] = field(default_factory=dict)
    slots: int = 0
    _analysis: Optional["Analysis"] = field(default=None, init=False,
                                            repr=False, compare=False)

    def analysis(self, scheme: SchemeType) -> "Analysis":
        """The program's one :class:`Analysis` as it stands."""
        a = self._analysis
        if not (a and a.scheme is scheme and a.outputs == self.outputs
                and len(a.nodes) == len(self.nodes)
                and all(map(operator.is_, a.nodes, self.nodes))):
            a = self._analysis = Analysis(self, scheme)
        return a

    def levels(self, scheme: SchemeType) -> Dict[int, Optional[Level]]:
        """A fresh walk of the static levels (the pipeline reads them off
        :meth:`analysis`): :func:`level_after` over every live node, ``None``
        for consts, in dependency order: ascending id, each node right after
        the unlisted nodes it reads.  That is emission order for a program
        emitted topologically; a node sinking appended after its consumer
        comes just before that consumer."""
        nodes = self.nodes
        levels: Dict[int, Optional[Level]] = {}
        stack = sorted(self.live_set(), reverse=True)   # lowest id on top
        while stack:
            nid = stack[-1]
            if nid in levels:
                stack.pop()
                continue
            node = nodes[nid]
            missing = [a for a in node.deps() if a not in levels]
            if missing:
                stack.extend(sorted(missing, reverse=True))
                continue
            levels[nid] = None if node.kind == "const" else level_after(
                node, scheme, [levels[a] for a in node.args
                               if levels[a] is not None])
            stack.pop()
        return levels

    def rotations(self) -> List[Tuple[int, int]]:
        """``(step, source node)`` of every rotation the live program
        makes, step 0 (no rotation) left out."""
        pairs: List[Tuple[int, int]] = []
        for nid in self.live_set():
            node = self.nodes[nid]
            if node.kind == "rotate":
                pairs.append((node.steps, node.args[0]))
            elif node.kind == "keyswitch_sum":
                pairs += [(step, node.args[i]) for step, i, _ in node.terms]
        return [(step, src) for step, src in pairs if step]

    def rotation_steps(self) -> RotationSteps:
        """The Galois steps the live program rotates by, all at the top
        level: the one definition of the keys a computation needs (no
        scheduling pass adds or removes a step, so the traced and the
        compiled program agree; :meth:`ScheduledProgram.rotation_steps`
        adds the planned levels)."""
        return RotationSteps(step for step, _ in self.rotations())

    def is_const(self, nid: int) -> bool:
        return self.nodes[nid].kind == "const"

    def ct_args(self, nid: int) -> Tuple[int, ...]:
        return tuple(a for a in self.nodes[nid].args if not self.is_const(a))

    def live_set(self) -> Set[int]:
        """Nodes reachable from the outputs (consts included)."""
        live: Set[int] = set()
        stack = list(self.outputs.values())
        while stack:
            nid = stack.pop()
            if nid in live:
                continue
            live.add(nid)
            stack.extend(self.nodes[nid].deps())
        return live

    def consumers(self, live: Iterable[int]) -> Dict[int, List[int]]:
        """node id -> ids of the nodes in *live* consuming it."""
        out: Dict[int, List[int]] = {}
        for nid in live:
            for a in self.nodes[nid].args:
                out.setdefault(a, []).append(nid)
        return out


class Analysis:
    """One walk of a program — ``level``, :meth:`IrProgram.levels` (the
    live nodes in dependency order, with their static levels), and the
    ``consumers`` of those nodes — read by every rewrite pass, the level
    planner and :class:`ScheduledProgram` in place of walks of their own.
    It keeps the nodes and outputs it walked: :meth:`IrProgram.analysis`
    walks again once the program holds other node objects (nodes are
    frozen) or outputs, so a rewrite by any path retires it."""

    def __init__(self, program: IrProgram, scheme: SchemeType):
        self.nodes, self.outputs = tuple(program.nodes), dict(program.outputs)
        self.scheme = scheme
        self.level = program.levels(scheme)
        self.consumers = program.consumers(self.level)
        self.out_ids = set(self.outputs.values())

    def single(self, nid: int) -> bool:
        """Whether node *nid* has exactly one consumer and is no output."""
        return (len(self.consumers.get(nid, ())) == 1
                and nid not in self.out_ids)


class IrBuilder:
    """Convenience constructor for :class:`IrProgram`."""

    def __init__(self, slots: int = 0):
        self.program = IrProgram(slots=slots)

    # ------------------------------------------------------------- plumbing
    def _emit(self, node: IrNode) -> int:
        self.program.nodes.append(node)
        return len(self.program.nodes) - 1

    def _require_ct(self, nid: int, op: str) -> None:
        if self.program.is_const(nid):
            raise ScheduleError(f"{op} needs a ciphertext operand")

    # ----------------------------------------------------------------- api
    def input(self, name: str) -> int:
        return self._emit(IrNode("input", name=name))

    def const(self, values) -> int:
        return self._emit(IrNode("const", values=np.asarray(values)))

    def rotate(self, a: int, steps: int) -> int:
        self._require_ct(a, "rotate")
        if steps == 0:
            return a
        return self._emit(IrNode("rotate", (a,), steps=int(steps)))

    def _binary(self, kind: str, a: int, b: int) -> int:
        if self.program.is_const(a) and self.program.is_const(b):
            raise ScheduleError("fold constant-only expressions before emitting")
        return self._emit(IrNode(kind, (a, b)))

    def add(self, a: int, b: int) -> int:
        return self._binary("add", a, b)

    def sub(self, a: int, b: int) -> int:
        return self._binary("sub", a, b)

    def mul(self, a: int, b: int) -> int:
        """A product; a ciphertext×ciphertext one is a 3-component ``mul``
        whose only consumer is the ``relin`` emitted with it (the scheduler
        may sink that ``relin`` below an add-tree of such products)."""
        nid = self._binary("mul", a, b)
        if self.program.is_const(a) or self.program.is_const(b):
            return nid
        return self._emit(IrNode("relin", (nid,)))

    def neg(self, a: int) -> int:
        self._require_ct(a, "neg")
        return self._emit(IrNode("neg", (a,)))

    def rescale(self, a: int, normalize: bool = False) -> int:
        self._require_ct(a, "rescale")
        return self._emit(IrNode("rescale", (a,), normalize=normalize))

    def mod_switch(self, a: int) -> int:
        self._require_ct(a, "mod_switch")
        return self._emit(IrNode("mod_switch", (a,)))

    def output(self, name: str, a: int) -> None:
        self._require_ct(a, "output")
        self.program.outputs[name] = a


# ---------------------------------------------------------------------------
# Tracing: existing consumer code emits IR by running against this context
# ---------------------------------------------------------------------------

class _TraceValue:
    """A symbolic ciphertext handle produced while tracing."""

    __slots__ = ("nid",)
    #: Consumers level-match plaintext encodes against ``ct.level_base``;
    #: during tracing there is no level yet, so encodes stay base-deferred.
    level_base = None

    def __init__(self, nid: int):
        self.nid = nid


class _TracePlain:
    """A symbolic plaintext handle (an IR const node)."""

    __slots__ = ("nid",)

    def __init__(self, nid: int):
        self.nid = nid


class TracerContext:
    """A recording stand-in for a BFV/CKKS context.

    Implements exactly the evaluator surface the kernel bodies use.
    Deliberately does **not** expose the fused primitives (key-switch
    sums, window sums): tracing captures the *unfused* rotate/mul/add
    chain and the scheduler re-derives the fusions as passes.
    """

    def __init__(self, params):
        self.params = params
        self.counts: Counter = Counter()
        self.builder = IrBuilder(slots=params.poly_degree // 2)

    # ------------------------------------------------------------ plumbing
    def trace_input(self, name: str) -> _TraceValue:
        return _TraceValue(self.builder.input(name))

    def _ct(self, value) -> int:
        if isinstance(value, _TraceValue):
            return value.nid
        raise ScheduleError(f"cannot trace non-IR value {type(value).__name__}")

    # ----------------------------------------------------------- evaluator
    def encode(self, values, scale=None, base=None) -> _TracePlain:
        return _TracePlain(self.builder.const(values))

    def add(self, a, b) -> _TraceValue:
        return _TraceValue(self.builder.add(self._ct(a), self._ct(b)))

    def sub(self, a, b) -> _TraceValue:
        return _TraceValue(self.builder.sub(self._ct(a), self._ct(b)))

    def negate(self, a) -> _TraceValue:
        return _TraceValue(self.builder.neg(self._ct(a)))

    def add_plain(self, ct, pt: _TracePlain) -> _TraceValue:
        return _TraceValue(self.builder.add(self._ct(ct), pt.nid))

    def multiply_plain(self, ct, pt: _TracePlain) -> _TraceValue:
        return _TraceValue(self.builder.mul(self._ct(ct), pt.nid))

    def multiply(self, a, b, relinearize: bool = True) -> _TraceValue:
        if not relinearize:
            raise ScheduleError("IR multiplies always relinearize; where is "
                                "the scheduler's choice")
        return _TraceValue(self.builder.mul(self._ct(a), self._ct(b)))

    def square(self, a, relinearize: bool = True) -> _TraceValue:
        return self.multiply(a, a, relinearize)

    def rescale(self, ct) -> _TraceValue:
        return _TraceValue(self.builder.rescale(self._ct(ct)))

    def mod_switch_down(self, ct) -> _TraceValue:
        return _TraceValue(self.builder.mod_switch(self._ct(ct)))

    def align(self, a, b):
        return a, b            # the executor aligns levels dynamically

    def rotate(self, ct, steps: int, galois_keys=None) -> _TraceValue:
        return _TraceValue(self.builder.rotate(self._ct(ct), steps))


def trace_program(params, fn, input_names: Sequence[str]) -> IrProgram:
    """Run *fn(tracer, \\*handles)* and return the recorded program.

    *fn* receives a :class:`TracerContext` followed by one symbolic handle
    per input name, and returns a handle or a sequence of handles; outputs
    are named ``out0..outN`` (a single handle still gets ``out0``).
    """
    tracer = TracerContext(params)
    handles = [tracer.trace_input(name) for name in input_names]
    result = fn(tracer, *handles)
    if isinstance(result, _TraceValue):
        result = [result]
    for i, handle in enumerate(result):
        tracer.builder.output(f"out{i}", tracer._ct(handle))
    return tracer.builder.program


class TracedKernel:
    """The one way an encrypted kernel executes: body → trace → passes → run.

    A subclass writes its evaluation once, as ``_body(ev, *groups)``
    against the evaluator surface (:class:`TracerContext`), taking one list
    of ciphertext handles per argument and returning a handle or a sequence
    of handles.  A kernel's *shape* is the ciphertext count of each
    argument; inputs are named ``in0..inN`` in flattened argument order.
    A body the tracer cannot record raises :class:`ScheduleError` from the
    first call — there is no other path to fall back to.
    """

    #: ``True`` when outputs go straight to the client for decryption: the
    #: level planner then drops them to the decryptability floor.  ``False``
    #: when callers chain the outputs into further encrypted compute, so
    #: the schedule keeps the full modulus chain.
    terminal_outputs = False

    #: The shape the kernel is served with — what its Galois keys are
    #: provisioned for.  A declaration of the packing, not an option.
    input_shape: Tuple[int, ...] = (1,)

    def __init__(self, ctx):
        self.ctx = ctx
        self._programs: Dict[Tuple[int, ...], IrProgram] = {}
        self._schedules: Dict[Tuple[int, ...], ScheduledProgram] = {}

    def _body(self, ev, *groups):
        raise NotImplementedError

    def program(self, shape: Tuple[int, ...]) -> IrProgram:
        """The body traced for *shape*, before any scheduling pass; traced
        once per instance and shape, so key provisioning and the run that
        follows share one trace."""
        program = self._programs.get(shape)
        if program is None:
            def body(ev, *handles):
                rest = iter(handles)
                return self._body(ev, *([next(rest) for _ in range(n)]
                                        for n in shape))

            program = self._programs[shape] = trace_program(
                self.ctx.params, body, [f"in{i}" for i in range(sum(shape))])
        return program

    def required_rotation_steps(self) -> RotationSteps:
        """The Galois keys a session must hold to run this kernel, each at
        the level its schedule rotates it at: read off the compiled
        program, never kept by hand next to the body."""
        return self.scheduled(self.input_shape).rotation_steps()

    def scheduled(self, shape: Tuple[int, ...]) -> "ScheduledProgram":
        """The compiled schedule for *shape*: the compiled program the
        trace names is the process's shared copy (:func:`shared_schedule`)."""
        sched = self._schedules.get(shape)
        if sched is None:
            sched = self._schedules[shape] = shared_schedule(
                self.program(shape), self.ctx.params, self.terminal_outputs,
                self.ctx.counts)
        return sched

    def schedule_report(self, shape: Tuple[int, ...] = (1,)
                        ) -> "ScheduleReport":
        """The scheduler's pass report (default: one input ciphertext)."""
        return self.scheduled(shape).report

    def run(self, groups: Sequence[Sequence], galois_keys=None) -> List:
        """Execute on ``self.ctx``; returns the output ciphertexts in order."""
        sched = self.scheduled(tuple(len(g) for g in groups))
        inputs = {f"in{i}": ct
                  for i, ct in enumerate(ct for g in groups for ct in g)}
        outputs = sched.run(self.ctx, inputs, galois_keys)
        return [outputs[f"out{i}"] for i in range(len(outputs))]


# ---------------------------------------------------------------------------
# Scheduling passes
# ---------------------------------------------------------------------------

@dataclass
class ScheduleReport:
    """What the passes did — asserted by the pass-level unit tests."""

    weighted_sum_spans: int = 0     # weighted keyswitch_sum nodes
    weighted_sum_terms: int = 0     # mul terms those nodes absorbed
    rescales_sunk: int = 0          # rescale pairs merged below an add/sub
    mod_switches_sunk: int = 0      # mod-switch pairs merged likewise
    relins_sunk: int = 0            # relinearisation pairs merged likewise
    product_sums: int = 0           # ct x ct add-trees fused to product sums
    product_sum_terms: int = 0      # products those sums absorbed
    rotation_sums: int = 0          # unweighted keyswitch_sum nodes
    rotation_sum_terms: int = 0     # leaves (rotated or not) they absorbed
    resident_nodes: int = 0         # values planned to stay in NTT form
    batched_consts: int = 0         # BFV consts encoded in one stacked pass
    #: The level planner's :class:`repro.core.levelplan.LevelPlan`, when the
    #: planner ran (``compile_ir(..., params=...)``); ``None`` otherwise.
    level_plan: object = None

    def describe(self) -> str:
        text = (f"{self.weighted_sum_spans} weighted key-switch sum(s) "
                f"({self.weighted_sum_terms} terms), "
                f"{self.rescales_sunk + self.mod_switches_sunk} level drop(s) "
                f"and {self.relins_sunk} relinearisation(s) sunk, "
                f"{self.product_sums} product sum(s) "
                f"({self.product_sum_terms} terms), "
                f"{self.rotation_sums} unweighted key-switch sum(s) "
                f"({self.rotation_sum_terms} terms), "
                f"{self.resident_nodes} NTT-resident node(s), "
                f"{self.batched_consts} const(s) batch-encoded")
        if self.level_plan is not None:
            text += f"; {self.level_plan.describe()}"
        return text


def _add_trees(analysis: Analysis, leaf) -> List[Tuple[int, List[int]]]:
    """The one add-tree matcher: every maximal tree of single-consumer adds
    over leaves at one static level and scale exponent, in the program
    *analysis* describes; *leaf* says which nodes may be leaves.

    An add joins a tree when each operand is a leaf or a single-consumer
    add of a tree, both at one level.  Returns ``(root, leaves left to
    right)`` per maximal tree in dependency order; a leaf in no tree is a
    one-leaf tree, and a tree whose root has other consumers may be a leaf
    of a tree above it too.  No tree reads inside another, so rewriting
    roots in place keeps every returned tree valid.
    """
    nodes, level, single = analysis.nodes, analysis.level, analysis.single
    joined: Set[int] = set()
    for nid in level:
        node = nodes[nid]
        if node.kind != "add":
            continue
        a, b = node.args
        if (level[a] is not None and level[a] == level[b]
                and all((x in joined and single(x)) or leaf(x)
                        for x in (a, b))):
            joined.add(nid)
    inner = {a for nid in joined for a in nodes[nid].args
             if a in joined and single(a)}
    in_tree = {a for nid in joined for a in nodes[nid].args}
    trees = []
    for root in level:
        if root in inner or not (root in joined
                                 or (leaf(root) and root not in in_tree)):
            continue
        leaves, stack = [], [root]
        while stack:
            nid = stack.pop()
            if nid in inner or (nid == root and nid in joined):
                stack.extend(reversed(nodes[nid].args))
            else:
                leaves.append(nid)
        trees.append((root, leaves))
    return trees


def _fuse_weighted_sums(program: IrProgram, scheme: SchemeType,
                        report: ScheduleReport) -> None:
    """Collapse masked rotation sums into weighted ``keyswitch_sum`` nodes.

    A *leaf* is a single-consumer ``mul(rotate(x, s) | x, const)``; a
    *tree* is what :func:`_add_trees` matches over such leaves, over one
    source or several (a multi-tile conv's giant step reads every input
    tile).  A ``rotate`` is absorbed when every consumer is a leaf of a
    fused tree: a baby rotation shared by the giant steps of a
    baby-step/giant-step sum fuses into each of their nodes, and one
    consumed anywhere else stays — and so does every tree reading it, to a
    fixpoint.  A tree fuses when it has a rotation term and either reads a
    shared rotation or carries at least two leaves over two distinct
    rotations.  The node's args are its distinct sources, its terms the
    ``(step, source index, const)`` triples, sorted.

    Every decision is made on the program's analysis before the first
    rewrite, and a rewrite only kills nodes.
    """
    nodes = program.nodes
    analysis = program.analysis(scheme)
    level, consumers = analysis.level, analysis.consumers
    operand: Dict[int, Tuple[int, int]] = {}    # leaf -> (ct operand, const)
    for nid in level:
        node = nodes[nid]
        if node.kind != "mul" or not analysis.single(nid):
            continue
        a, b = node.args
        if program.is_const(a):
            a, b = b, a
        if program.is_const(b) and not program.is_const(a):
            operand[nid] = (a, b)
    trees = _add_trees(analysis, operand.__contains__)
    absorbable = {nid for nid in level if nodes[nid].kind == "rotate"
                  and nid not in analysis.out_ids
                  and all(c in operand for c in consumers[nid])}

    def term(leaf: int) -> Tuple[int, int, int]:
        """(source, step, const) of *leaf* under the current absorption."""
        a, cid = operand[leaf]
        if a in absorbable:
            return nodes[a].args[0], nodes[a].steps, cid
        return a, 0, cid

    while True:
        fused: Dict[int, List[Tuple[int, int, int]]] = {}
        covered: Set[int] = set()
        for root, leaves in trees:
            terms = [term(leaf) for leaf in leaves]
            rotations = {(src, step) for src, step, _ in terms if step}
            shared = any(len(consumers[operand[leaf][0]]) > 1
                         for leaf in leaves if operand[leaf][0] in absorbable)
            if rotations and (shared or (len(terms) > 1
                                         and len(rotations) > 1)):
                fused[root] = terms
                covered.update(leaves)
        kept = {nid for nid in absorbable
                if not all(c in covered for c in consumers[nid])}
        if not kept:
            break
        absorbable -= kept

    for root, terms in fused.items():
        sources = tuple(dict.fromkeys(src for src, _, _ in terms))
        nodes[root] = IrNode("keyswitch_sum", sources, terms=tuple(sorted(
            (step, sources.index(src), cid) for src, step, cid in terms)))
        report.weighted_sum_spans += 1
        report.weighted_sum_terms += len(terms)


#: Linear unary kinds the sinking pass moves below an add/sub, and the
#: :class:`ScheduleReport` field each merged pair is counted in.
_SINKABLE = {"rescale": "rescales_sunk", "mod_switch": "mod_switches_sunk",
             "relin": "relins_sunk"}


def _sink_level_drops(program: IrProgram, scheme: SchemeType,
                      report: ScheduleReport) -> None:
    """Rewrite ``add(op(a), op(b))`` → ``op(add(a, b))`` to fixpoint, for
    ``op`` a level drop (``rescale``, ``mod_switch``) or a ``relin``.

    Legal only when both ops are single-consumer siblings at the same
    static level (:meth:`IrProgram.levels`): the merged drop then divides
    the summed value exactly as the two separate drops would have (up to
    CKKS rescale rounding noise, which lives below the noise floor by
    construction), and the merged ``relin`` key-switches the summed
    ``c2`` once — relinearisation is linear, so the sum decrypts the same
    and carries one key switch's noise instead of one per product.  The
    3-component sum only ever feeds its ``relin``.

    One pass, rewriting the lowest-numbered qualifying root first (the
    order, and so the node list, of rescanning from node 0 after every
    rewrite).  A rewrite changes no existing node's level and no consumer
    count but its own: the two sunk ops die, the new inner sum takes
    their operands, and only the rewritten root's consumers and the inner
    sum can start to qualify.  The pass keeps the levels and consumers of
    the analysis it read up to date itself (the inner sum's level entry
    comes last, out of dependency order): its first rewrite retired it.
    """
    nodes = program.nodes
    analysis = program.analysis(scheme)
    level, consumers = analysis.level, analysis.consumers

    def qualifies(root: int) -> bool:
        node = nodes[root]
        if root not in level or node.kind not in ("add", "sub"):
            return False
        a, b = node.args
        da, db = nodes[a], nodes[b]
        return (da.kind == db.kind and da.kind in _SINKABLE
                and da.normalize == db.normalize
                and analysis.single(a) and analysis.single(b)
                and level[da.args[0]] == level[db.args[0]])

    heap = [nid for nid in sorted(level) if qualifies(nid)]
    while heap:
        root = heapq.heappop(heap)
        if not qualifies(root):
            continue
        node = nodes[root]
        a, b = node.args
        da, db = nodes[a], nodes[b]
        x, y = da.args[0], db.args[0]
        inner = len(nodes)
        nodes.append(IrNode(node.kind, (x, y)))
        nodes[root] = IrNode(da.kind, (inner,), normalize=da.normalize)
        field_name = _SINKABLE[da.kind]
        setattr(report, field_name, getattr(report, field_name) + 1)
        for dead, arg in ((a, x), (b, y)):
            del level[dead], consumers[dead]
            consumers[arg].remove(dead)
            consumers[arg].append(inner)
        consumers[inner] = [root]
        level[inner] = level_after(nodes[inner], scheme, [level[x], level[y]])
        for nid in (*consumers.get(root, ()), inner):
            if qualifies(nid):
                heapq.heappush(heap, nid)


def _fuse_product_sums(program: IrProgram, scheme: SchemeType,
                       report: ScheduleReport) -> None:
    """Fold CKKS add-trees of ct×ct products into ``product_sum`` nodes.

    A *leaf* is a single-consumer ``mul`` of two ciphertexts; each tree
    :func:`_add_trees` matches over them (the shape relinearisation
    sinking leaves under one ``relin``) of two or more leaves becomes one
    ``product_sum`` whose args are its leaves' operand pairs, left to
    right (the leftmost product's scale is the sum's, as for the adds).
    Leaves at different levels or scales stay unfused.  BFV is left alone:
    its tensor product rounds per product, so a lazily reduced sum would
    change its results.
    """
    if scheme is not SchemeType.CKKS:
        return
    nodes = program.nodes
    analysis = program.analysis(scheme)

    def product(nid: int) -> bool:
        return (nodes[nid].kind == "mul" and analysis.single(nid)
                and len(program.ct_args(nid)) == 2)

    for root, leaves in _add_trees(analysis, product):
        if len(leaves) < 2:
            continue
        nodes[root] = IrNode("product_sum", tuple(
            a for leaf in leaves for a in nodes[leaf].args))
        report.product_sums += 1
        report.product_sum_terms += len(leaves)


def _fuse_unweighted_sums(program: IrProgram, scheme: SchemeType,
                          report: ScheduleReport) -> None:
    """Fold add-trees of rotations into unweighted ``keyswitch_sum`` nodes.

    Every ciphertext value may be a leaf of the trees :func:`_add_trees`
    matches; each leaf is a term ``(step, source)``: a single-consumer
    ``rotate`` of ``source`` by ``step``, or any other value as itself
    (step 0).  A tree with at least two rotated leaves fuses — a
    baby-step/giant-step sum's giant steps, each a rotation of its own
    weighted sum, a window sum's phase (one value and its rotations,
    :func:`repro.core.linalg._window_sum`), or two rotations of one value
    (PageRank's repacking).
    The node's args are its distinct sources, its terms the ``(step,
    source index, -1)`` triples left to right.
    """
    nodes = program.nodes
    analysis = program.analysis(scheme)

    def term(leaf: int) -> Tuple[int, int]:
        node = nodes[leaf]
        if node.kind == "rotate" and analysis.single(leaf):
            return node.steps, node.args[0]
        return 0, leaf

    for root, leaves in _add_trees(
            analysis, lambda nid: analysis.level[nid] is not None):
        terms = [term(leaf) for leaf in leaves]
        if sum(1 for step, _ in terms if step) < 2:
            continue
        sources = tuple(dict.fromkeys(src for _, src in terms))
        nodes[root] = IrNode("keyswitch_sum", sources, terms=tuple(
            (step, sources.index(src), -1) for step, src in terms))
        report.rotation_sums += 1
        report.rotation_sum_terms += len(terms)


def _mark_residency(program: IrProgram, scheme: SchemeType,
                    report: ScheduleReport) -> Set[int]:
    """Nodes whose value stays in NTT form until a coefficient consumer.

    Plain-multiplies produce NTT-form values, and so do CKKS ct-ct
    multiplies and product sums (the tensor product is dyadic);
    adds/subs/negs stay resident when every ciphertext operand is.
    Everything else (key-switch sums, level drops, ``relin``, BFV ct-ct
    multiplies, outputs) consumes or produces coefficient form — the
    deferred inverse is paid there, once."""
    resident: Set[int] = set()
    for nid in program.analysis(scheme).level:  # dependency order, live only
        node = program.nodes[nid]
        ct_args = program.ct_args(nid)
        if node.kind == "product_sum" or (node.kind == "mul" and (
                len(ct_args) == 1 or scheme is SchemeType.CKKS)):
            resident.add(nid)
        elif node.kind in _FORM_AGNOSTIC:
            if ct_args and all(a in resident for a in ct_args):
                resident.add(nid)
    report.resident_nodes = len(resident)
    return resident


def compile_ir(program: IrProgram, scheme: SchemeType,
               params=None) -> "ScheduledProgram":
    """Run the pass pipeline and return an executable scheduled program.

    Every rewrite runs first (weighted, then unweighted key-switch-sum
    fusion, sinking, product-sum fusion), and each pass reads one
    :meth:`IrProgram.analysis`, walked again only after a rewrite.  With
    *params* the level planner then walks the program that runs with the
    static noise estimator and drops modulus-chain limbs the moment no
    downstream consumer needs their headroom, each input at its entry
    level (see :mod:`repro.core.levelplan`).  The schedule is then a contract for
    *params*' modulus chain: :meth:`ScheduledProgram.run` refuses any
    other chain and any input that does not arrive on all of it.  Without
    *params* the planner never runs and the schedule serves any chain.
    """
    source = program                 # the passes rewrite a private list
    program = IrProgram(nodes=list(source.nodes),
                        outputs=dict(source.outputs), slots=source.slots)
    report = ScheduleReport()
    _fuse_weighted_sums(program, scheme, report)
    _fuse_unweighted_sums(program, scheme, report)
    _sink_level_drops(program, scheme, report)
    _fuse_product_sums(program, scheme, report)
    if params is not None:
        from repro.core.levelplan import plan_levels

        program, report.level_plan = plan_levels(program, params)
    resident = _mark_residency(program, scheme, report)
    if scheme is SchemeType.BFV:
        report.batched_consts = sum(
            map(program.is_const, program.analysis(scheme).level))
    return ScheduledProgram(program, scheme, report, resident, source=source)


# ---------------------------------------------------------------------------
# The shared schedule cache
# ---------------------------------------------------------------------------

#: Compiled programs the process keeps; the least recently used goes first.
PROGRAM_CACHE_SIZE = 32

#: Programs one session (one context's ``counts``) may *insert*.  Past it
#: the session still gets hits and still compiles, but what it compiles
#: lives on its own kernel instance only — so a client that names forty
#: kernel shapes in its request metadata cannot flush the programs every
#: other session is running.
SESSION_PROGRAM_CAP = 8

_programs: "OrderedDict[bytes, ScheduledProgram]" = OrderedDict()
_programs_lock = threading.Lock()

#: Every :class:`IrNode` field but the const payload, hashed by ``repr``.
_NODE_ATTRS = tuple(f.name for f in fields(IrNode) if f.name != "values")


def _reset_program_cache_lock() -> None:
    global _programs_lock
    _programs_lock = threading.Lock()


# An eval-pool respawn forks a serving process whose inline ops compile on
# worker threads: the child must not inherit the lock mid-compile.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_program_cache_lock)


def clear_program_cache() -> None:
    """Forget every shared program (tests and cold-start measurements)."""
    with _programs_lock:
        _programs.clear()


def _program_digest(program: IrProgram, params, planned: bool) -> bytes:
    """The cache key: *program*'s whole content — every node's kind, args
    and attributes, the dtype, shape and bytes of every const — with the
    parameter-set fingerprint and whether the level planner runs.  Each
    hashed piece is self-delimiting, so two different programs cannot
    serialise to one byte stream."""
    h = hashlib.blake2b(digest_size=32)
    h.update(repr((params.fingerprint(), planned, program.slots,
                   list(program.outputs.items()))).encode())
    for node in program.nodes:
        h.update(repr(tuple(getattr(node, a) for a in _NODE_ATTRS)).encode())
        values = node.values
        if values is not None:
            h.update(repr((values.dtype.str, values.shape)).encode())
            h.update(repr(values.tolist()).encode() if values.dtype.hasobject
                     else np.ascontiguousarray(values).data)
    return h.digest()


def _frozen(values: np.ndarray) -> np.ndarray:
    values = np.array(values)
    values.setflags(write=False)
    return values


def shared_schedule(program: IrProgram, params, planned: bool,
                    counts: Counter) -> "ScheduledProgram":
    """The process's one compiled copy of *program* under *params*.

    Keyed by content (:func:`_program_digest`), so a false hit is
    impossible by construction: sessions share a :class:`ScheduledProgram`
    — node list, plaintext, NTT and weight tables — exactly when
    they traced the same computation over the same constants for the same
    parameter set.  *planned* runs the level planner (``compile_ir(...,
    params=params)``).  A cached program owns read-only copies of its
    consts and holds model constants and parameters only: no context, key
    or ciphertext.

    *counts* is the calling session's ``ctx.counts``: it is charged one
    ``program_cache_hits`` or ``program_cache_misses``, and its miss count
    is the session's admission budget (:data:`SESSION_PROGRAM_CAP`).  The
    lock is held across the compile, so sessions cold-starting one program
    together compile it once.
    """
    key = _program_digest(program, params, planned)
    with _programs_lock:
        sched = _programs.get(key)
        if sched is not None:
            _programs.move_to_end(key)
            counts["program_cache_hits"] += 1
            return sched
        private = IrProgram(
            nodes=[replace(n, values=_frozen(n.values)) if n.kind == "const"
                   else n for n in program.nodes],
            outputs=dict(program.outputs), slots=program.slots)
        sched = compile_ir(private, params.scheme,
                           params=params if planned else None)
        if counts["program_cache_misses"] < SESSION_PROGRAM_CAP:
            _programs[key] = sched
            if len(_programs) > PROGRAM_CACHE_SIZE:
                _programs.popitem(last=False)
        counts["program_cache_misses"] += 1
        return sched


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _rows(ct, only_ntt: Optional[bool] = None) -> int:
    """Residue rows across a ciphertext's components (counter units)."""
    return sum(len(c.base) for c in ct.components
               if only_ntt is None or c.is_ntt == only_ntt)


def _negate_bfv_plain(pt):
    from repro.hecore.plaintext import Plaintext

    return Plaintext(np.mod(-pt.coeffs, pt.modulus), pt.modulus)


def _negate_ckks_plain(pt):
    from repro.hecore.plaintext import CkksPlaintext

    return CkksPlaintext(-pt.poly, pt.scale)


class ScheduledProgram:
    """An IR program plus its schedule; reusable across calls and contexts
    on the planned chain (any chain when compiled without a level plan).

    Plaintext encodings, NTT-form plaintext tables, and key-switch-sum
    weight tables are cached per modulus chain, so repeated executions
    (the static-weight inference loop) skip all plaintext transform work.

    One instance serves every session of the process that runs the same
    program (:func:`shared_schedule`), possibly from several threads at
    once: it holds nothing of a run or a session (the per-run NTT memo and
    level tallies live on the runner), and each lazy table fill computes a
    value that depends only on the program and the parameter set, so two
    sessions filling one slot together store the same thing twice.  The
    fill is charged (``ntt_forward``) to whichever session did it, a reuse
    (``ntt_elided``) to the session that reused.
    """

    def __init__(self, program: IrProgram, scheme: SchemeType,
                 report: ScheduleReport, resident: Set[int],
                 source: Optional[IrProgram] = None):
        self.program = program
        #: The program as traced, before any pass: what the oracle runs.
        self.source = program if source is None else source
        self.scheme = scheme
        self.report = report
        self.resident = resident
        plan = report.level_plan
        analysis = None if plan is None else program.analysis(scheme)
        #: Planned live-limb count of every live ciphertext node, read once
        #: off the static levels; empty without a level plan.
        self.limbs: Dict[int, int] = {} if plan is None else {
            nid: len(plan.chain) - level[0]
            for nid, level in analysis.level.items() if level is not None}
        #: Input name -> the planned drops its value takes before anything
        #: else reads it (ids in order; empty when none): what a client can
        #: skip by encrypting at :meth:`entry_limbs`.
        self.entry_chains: Dict[str, Tuple[int, ...]] = (
            {} if plan is None else self._entry_chains(analysis))
        self._entry_drop_ids = frozenset(
            nid for chain in self.entry_chains.values() for nid in chain)
        self._weight_tables: Dict[Tuple, hoisting.WeightTable] = {}
        self._plain_cache: Dict[Tuple, object] = {}
        self._ntt_plain_cache: Dict[Tuple, object] = {}
        self._bfv_batch: Dict[int, Dict[int, object]] = {}

    # ------------------------------------------------------------ metadata
    def rotation_steps(self) -> RotationSteps:
        """The compiled program's :meth:`IrProgram.rotation_steps`, each
        step mapped to the most live limbs the level plan rotates it at
        (every step at the top level without a plan): what a session's
        Galois keys are made for."""
        if not self.limbs:
            return self.program.rotation_steps()
        levels: Dict[int, int] = {}
        for step, src in self.program.rotations():
            levels[step] = max(levels.get(step, 0), self.limbs[src])
        return RotationSteps(levels)

    def _entry_chains(self, analysis: Analysis) -> Dict[str, Tuple[int, ...]]:
        nodes = self.program.nodes
        chains: Dict[str, Tuple[int, ...]] = {}
        for nid in sorted(analysis.level):
            if nodes[nid].kind != "input":
                continue
            chain: List[int] = []
            cur = nid               # then each planned mod_switch after it
            while (analysis.single(cur)
                   and nodes[analysis.consumers[cur][0]].planned):
                cur = analysis.consumers[cur][0]
                chain.append(cur)
            name = nodes[nid].name
            # Two input nodes may share a name (two Eva ``Input("x")``
            # objects): the input enters at the higher of their levels.
            if name in chains:
                chain = min(chain, chains[name], key=len)
            chains[name] = tuple(chain)
        return chains

    def entry_limbs(self) -> Dict[str, int]:
        """Input name -> the live-limb count the level plan first reads it
        at (its entry level): a ciphertext on that prefix of the chain
        skips the planned drops above it, one that arrives higher takes
        them, one below it is refused.  Empty without a level plan."""
        plan = self.report.level_plan
        return {name: self.limbs[chain[-1]] if chain else len(plan.chain)
                for name, chain in self.entry_chains.items()}

    # ------------------------------------------------------------ plaintexts
    def _bfv_plain(self, ctx, cid: int):
        """BFV plaintext for const *cid*, batch-encoded on first touch.

        The first request under a given plain modulus encodes EVERY live
        const in one stacked ``encode_many`` pass (batch-grouping pass)."""
        t = ctx.params.plain_modulus
        batch = self._bfv_batch.get(t)
        if batch is None:
            cids = sorted(filter(self.program.is_const,
                                 self.program.analysis(self.scheme).level))
            pts = ctx.encoder.encode_many(
                [np.asarray(self.program.nodes[c].values, dtype=np.int64)
                 for c in cids])
            batch = self._bfv_batch[t] = dict(zip(cids, pts))
        return batch[cid]

    def _ckks_plain(self, ctx, cid: int, base, scale=None):
        key = (cid, tuple(int(p) for p in base.moduli),
               None if scale is None else round(float(scale), 6))
        pt = self._plain_cache.get(key)
        if pt is None:
            values = np.asarray(self.program.nodes[cid].values,
                                dtype=np.float64)
            pt = ctx.encode(values, scale=scale, base=base)
            self._plain_cache[key] = pt
        return pt

    def _plain_ntt(self, ctx, cid: int, base):
        """NTT-form plaintext multiplicand for const *cid* at *base*."""
        from repro.hecore.polyring import RnsPoly

        key = (cid, tuple(int(p) for p in base.moduli))
        m_ntt = self._ntt_plain_cache.get(key)
        if m_ntt is None:
            if self.scheme is SchemeType.BFV:
                pt = self._bfv_plain(ctx, cid)
                m_ntt = RnsPoly.from_signed_array(base, pt.coeffs).to_ntt()
                scale = 1.0
            else:
                pt = self._ckks_plain(ctx, cid, base)
                m_ntt = pt.poly.to_ntt()
                scale = pt.scale
            ctx.counts["ntt_forward"] += len(base)
            self._ntt_plain_cache[key] = (m_ntt, scale)
        else:
            ctx.counts["ntt_elided"] += len(base)
        return self._ntt_plain_cache[key]

    def _weights(self, ctx, nid: int, current) -> hoisting.WeightTable:
        """Node *nid*'s weight table over the chain *current*: its weights
        are the plaintexts :meth:`_IrRunner._mul_plain` would use (the BFV
        plaintext, the CKKS encoding at the default scale), over the
        chain's extended base.  Built once per chain and encoding — a
        reuse charges ``ntt_elided`` the rows the build transformed."""
        terms = [(step, src, cid)
                 for step, src, cid in self.program.nodes[nid].terms
                 if cid >= 0]
        bfv = self.scheme is SchemeType.BFV
        key = (nid, current.moduli,
               ctx.params.plain_modulus if bfv else ctx.params.scale)
        table = self._weight_tables.get(key)
        if table is not None:
            ctx.counts["ntt_elided"] += table.rows
            return table
        if bfv:
            # Plaintext coefficients: the table lifts each pair's sum once.
            weights = [self._bfv_plain(ctx, cid).coeffs for _, _, cid in terms]
            scale = 1.0
        else:
            pts = ctx.encoder.encode_many(
                [np.asarray(self.program.nodes[cid].values, dtype=np.float64)
                 for _, _, cid in terms],
                base=keyswitch_ext_base(current, ctx.params))
            weights = [pt.poly.data for pt in pts]
            scale = pts[0].scale
        table = self._weight_tables[key] = hoisting.weight_table(
            ctx, current, [(step, src, w) for (step, src, _), w
                           in zip(terms, weights)], scale)
        return table

    # ------------------------------------------------------------ execution
    def run(self, ctx, inputs: Dict[str, object], galois_keys=None):
        """Execute the scheduled program; returns output ciphertexts.

        A level plan is a contract, checked here once before any node
        runs: *ctx* must carry the chain the plan was made for and every
        entering ciphertext must arrive on a prefix of it no shorter than
        its :meth:`entry_limbs` (:class:`ScheduleError` otherwise).  A
        planned drop takes its value down to the node's planned level, so
        an input on its entry chain skips the drops it has already taken
        and every other value takes each of them.
        """
        plan = self.report.level_plan
        if plan is not None:
            self._check_entry(ctx, inputs, plan.chain)
        return _IrRunner(self, ctx, inputs, galois_keys, fused=True).run()

    def _check_entry(self, ctx, inputs, chain: Tuple[int, ...]) -> None:
        live_chain = ctx.params.data_base.moduli
        if live_chain != chain:
            raise ScheduleError(
                f"schedule planned for the {len(chain)}-limb chain {chain} "
                f"cannot run on the {len(live_chain)}-limb chain {live_chain}")
        for name, entry in self.entry_limbs().items():
            # A missing or plaintext operand is the runner's to report.
            base = getattr(inputs.get(name), "level_base", None)
            if base is None:
                continue
            if base.moduli != chain[:len(base)]:
                raise ScheduleError(
                    f"input {name!r} is not on a prefix of the planned chain")
            if len(base) < entry:
                raise ScheduleError(
                    f"input {name!r} arrives on {len(base)} limb(s), below "
                    f"its entry level: the level plan enters it on {entry} "
                    f"of all {len(chain)}")

    def run_reference(self, ctx, inputs: Dict[str, object], galois_keys=None):
        """Scheduler-off oracle: the program as traced, one naive primitive
        call per node — no pass output, no hoisting, no residency, and
        nothing cached from one call to the next."""
        raw = ScheduledProgram(self.source, self.scheme, ScheduleReport(),
                               set())
        return _IrRunner(raw, ctx, inputs, galois_keys, fused=False).run()


class _IrRunner:
    """Demand-driven evaluator over the scheduled (or raw) IR."""

    def __init__(self, sched: ScheduledProgram, ctx, inputs, galois_keys,
                 fused: bool):
        self.sched = sched
        self.program = sched.program
        self.ctx = ctx
        self.inputs = inputs
        self.keys = galois_keys
        self.fused = fused
        self.ckks = ctx.params.scheme is SchemeType.CKKS
        self.memo: Dict[int, object] = {}
        #: Level telemetry, charged to ``ctx.counts`` when the run returns.
        self.tally: Counter = Counter()

    # ------------------------------------------------------- form handling
    def _to_coeff(self, ct):
        if not any(c.is_ntt for c in ct.components):
            return ct
        from repro.hecore.ciphertext import Ciphertext

        self.ctx.counts["ntt_inverse"] += _rows(ct, only_ntt=True)
        return Ciphertext(ct.params, [c.from_ntt() for c in ct.components],
                          scale=ct.scale)

    def _to_ntt(self, nid: int):
        """Evaluation-form copy of node *nid*'s value, transformed at most
        once per run however many plain multiplies consume it."""
        from repro.hecore.ciphertext import Ciphertext

        key = ("ntt", nid)
        ct_ntt = self.memo.get(key)
        if ct_ntt is not None:
            return ct_ntt
        ct = self.memo[nid]
        resident = _rows(ct, only_ntt=True)
        if resident:
            # The producer skipped its inverse AND this forward: one
            # inverse->forward pair per already-resident residue row.
            self.ctx.counts["ntt_elided"] += resident
        pending = _rows(ct, only_ntt=False)
        if pending:
            self.ctx.counts["ntt_forward"] += pending
            ct = Ciphertext(ct.params, [c.to_ntt() for c in ct.components],
                            scale=ct.scale)
        self.memo[key] = ct
        return ct

    def _matched_forms(self, a, b):
        a_ntt = any(c.is_ntt for c in a.components)
        b_ntt = any(c.is_ntt for c in b.components)
        if a_ntt == b_ntt:
            return a, b
        return self._to_coeff(a), self._to_coeff(b)

    # ------------------------------------------------------------- helpers
    def _additive_plain(self, kind, ct, cid, const_left):
        """add/sub with a plaintext operand, encoded at the ciphertext's
        level and scale (``ct - plain`` adds the negated plaintext)."""
        ctx = self.ctx
        ct = self._to_coeff(ct)
        if self.ckks:
            pt = self.sched._ckks_plain(ctx, cid, ct.level_base, scale=ct.scale)
            negate_pt = _negate_ckks_plain
        else:
            pt = self.sched._bfv_plain(ctx, cid)
            negate_pt = _negate_bfv_plain
        if kind == "add":
            return ctx.add_plain(ct, pt)
        if const_left:                      # plain - ct
            return ctx.add_plain(ctx.negate(ct), pt)
        return ctx.add_plain(ct, negate_pt(pt))   # ct - plain

    def _mul_plain(self, ct_id, cid):
        ctx = self.ctx
        ct = self.memo[ct_id]
        if not self.fused:
            ct = self._to_coeff(ct)
            if self.ckks:
                pt = self.sched._ckks_plain(ctx, cid, ct.level_base)
            else:
                pt = self.sched._bfv_plain(ctx, cid)
            return ctx.multiply_plain(ct, pt)
        # Residency pass: multiply in evaluation form and STAY there.  The
        # product is bit-identical to multiply_plain (to_ntt/from_ntt are
        # exact inverses mod p); only the inverse transform is deferred.
        from repro.hecore.ciphertext import Ciphertext

        ct_ntt = self._to_ntt(ct_id)
        m_ntt, pt_scale = self.sched._plain_ntt(ctx, cid, ct.level_base)
        ctx.counts["multiply_plain"] += 1
        comps = [c * m_ntt for c in ct_ntt.components]
        return Ciphertext(ct.params, comps, scale=ct.scale * pt_scale)

    def _align(self, a, b):
        if a.level_base != b.level_base:
            if not self.ckks:       # a BFV drop divides: coefficients only
                a, b = self._to_coeff(a), self._to_coeff(b)
            a, b = self.ctx.align(a, b)     # a CKKS drop is a row slice
        return a, b

    def _product_sum(self, pairs: Tuple[int, ...]):
        """``Σ a_i·b_i`` over the operand pairs of a ``product_sum`` node:
        every operand transformed once (:meth:`_to_ntt`) and stacked in
        one block, then each tensor component summed as one lazily reduced
        multiply-accumulate.  A square reads its one operand once, and its
        cross term is ``2·Σ a0·a1``.  Bit-identical to the add-tree of
        ``multiply`` calls it replaces: every modular sum is exact."""
        from repro.hecore.ciphertext import Ciphertext
        from repro.hecore.ckks import scales_close
        from repro.hecore.polyring import RnsPoly

        ctx = self.ctx
        products = list(zip(pairs[::2], pairs[1::2]))
        squares = [a for a, b in products if a == b]
        distinct = [(a, b) for a, b in products if a != b]
        cts = {nid: self._to_ntt(nid) for nid in pairs}
        scales = [cts[a].scale * cts[b].scale for a, b in products]
        for scale in scales[1:]:
            if not scales_close(scale, scales[0]):
                raise ValueError(f"scale mismatch: {scales[0]} vs {scale}")
        # Operands meet at the lowest level among them (a CKKS level
        # alignment is a row slice, in either form), as the adds did.
        base = min((ct.level_base for ct in cts.values()), key=len)
        k, n = len(base), ctx.params.poly_degree
        order = squares + [a for a, _ in distinct] + [b for _, b in distinct]
        block = np.stack([c.data[:k] for nid in order
                          for c in cts[nid].components]
                         ).reshape(len(order), 2, k, n)
        s, d = len(squares), len(distinct)
        x, a, b = block[:s], block[s:s + d], block[s + d:]
        moduli, add = base.moduli, base.add

        def mac(u, v):
            return mod_mac("tkn,tkn->kn", u, v, moduli)

        parts = []
        if s:
            cross = mac(x[:, 0], x[:, 1])
            parts.append((mac(x[:, 0], x[:, 0]), add(cross, cross),
                          mac(x[:, 1], x[:, 1])))
        if d:
            parts.append((mac(a[:, 0], b[:, 0]),
                          mac(a.reshape(2 * d, k, n),
                              b[:, ::-1].reshape(2 * d, k, n)),
                          mac(a[:, 1], b[:, 1])))
        comps = parts[0] if len(parts) == 1 else map(add, *parts)
        # Charged as the add-tree it replaces: one per product and sum.
        ctx.counts["multiply"] += len(products)
        ctx.counts["add"] += len(products) - 1
        return Ciphertext(ctx.params,
                          [RnsPoly(base, n, c, is_ntt=True) for c in comps],
                          scale=scales[0])

    def _keyswitch_sum(self, nid: int, node: IrNode):
        """A ``keyswitch_sum`` node, from the run's rotator of each source
        (a source's decompose and weighted blocks are shared by every node
        over it).  The sources must share one level base: one off the
        first's is refused, not aligned (the passes fused one static
        level)."""
        rotators = [self._rotator(src) for src in node.args]
        base = rotators[0].current
        off = [src for src, r in zip(node.args, rotators) if r.current != base]
        if off:
            raise ScheduleError(
                f"keyswitch_sum node {nid}: source(s) {off} arrive off the "
                f"{len(base)}-limb level base of its first source")
        self._require_keys([step for step, _, _ in node.terms], len(base))
        if node.weights():
            out = hoisting.keyswitch_sum(
                self.ctx, rotators,
                weights=self.sched._weights(self.ctx, nid, base))
        else:
            out = hoisting.keyswitch_sum(
                self.ctx, rotators, [(step, i) for step, i, _ in node.terms])
        # Charged as the add-tree it replaces, weighted or not (once the
        # sum ran: a refused one charges nothing).
        self.ctx.counts["add"] += len(node.terms) - 1
        return out

    def _require_keys(self, steps: Sequence[int], limbs: int) -> None:
        """Raise :class:`MissingEvaluationKey` unless every step's key
        covers *limbs*: a planned run fixed the level, so a key made below
        it is missing, refused before the node charges anything."""
        keys = self.ctx._resolve_galois(self.keys)
        n = self.ctx.params.poly_degree
        for step in steps:
            g = galois_element_for_step(step, n)
            if g != 1:
                keys.key_for(g, limbs)

    def _rotator(self, src_nid: int) -> hoisting.HoistedRotator:
        """The run's one hoisted rotator of node *src_nid*'s value, shared
        by every key-switch sum over it."""
        key = ("rotator", src_nid)
        rotator = self.memo.get(key)
        if rotator is None:
            rotator = self.memo[key] = hoisting.HoistedRotator(
                self.ctx, self.memo[src_nid], self.keys)
        return rotator

    # ----------------------------------------------------------- evaluation
    def run(self):
        outputs = {}
        for name, nid in self.program.outputs.items():
            self._eval(nid)
            outputs[name] = self._to_coeff(self.memo[nid])
        self.ctx.counts.update(self.tally)
        return outputs

    def _eval(self, root: int):
        stack = [root]
        nodes = self.program.nodes
        while stack:
            nid = stack[-1]
            if nid in self.memo:
                stack.pop()
                continue
            deps = [a for a in nodes[nid].args if not self.program.is_const(a)]
            missing = [d for d in deps if d not in self.memo]
            if missing:
                stack.extend(missing)
                continue
            value = self.memo[nid] = self._compute(nid)
            # Limbs-live integral: live limb count summed over every
            # executed op, each producing a ciphertext (CostLedger telemetry).
            self.tally["limbs_live"] += len(value.level_base)
            stack.pop()

    def _compute(self, nid: int):
        ctx = self.ctx
        node = self.program.nodes[nid]
        kind = node.kind
        if kind == "input":
            value = self.inputs[node.name]
            if not hasattr(value, "components"):
                raise ScheduleError(
                    f"input {node.name!r} must be a ciphertext (encrypt "
                    "program inputs at the batch boundary)")
            return value
        if kind == "neg":
            return ctx.negate(self.memo[node.args[0]])
        if kind == "rotate":
            ct = self._to_coeff(self.memo[node.args[0]])
            if self.fused:
                self._require_keys([node.steps], len(ct.level_base))
            return ctx.rotate(ct, node.steps, self.keys)
        if kind in ("add", "sub"):
            a, b = node.args
            a_const = self.program.is_const(a)
            b_const = self.program.is_const(b)
            if a_const or b_const:
                cid, ct_id = (a, b) if a_const else (b, a)
                return self._additive_plain(kind, self.memo[ct_id], cid,
                                            const_left=a_const)
            va, vb = self._align(self.memo[a], self.memo[b])
            if self.fused:
                va, vb = self._matched_forms(va, vb)
            else:
                va, vb = self._to_coeff(va), self._to_coeff(vb)
            return (ctx.add if kind == "add" else ctx.sub)(va, vb)
        if kind == "mul":
            a, b = node.args
            if self.program.is_const(a) or self.program.is_const(b):
                cid, ct_id = ((a, b) if self.program.is_const(a) else (b, a))
                return self._mul_plain(ct_id, cid)
            if self.ckks and self.fused:
                # CKKS ct-ct multiply starts in evaluation form anyway:
                # each operand is transformed (or found resident) once.
                va, vb = self._align(self._to_ntt(a), self._to_ntt(b))
            else:
                va, vb = self._align(self.memo[a], self.memo[b])
                va, vb = self._to_coeff(va), self._to_coeff(vb)
            return ctx.multiply(va, vb, relinearize=False)
        if kind == "product_sum":
            return self._product_sum(node.args)
        if kind == "relin":
            # relinearize takes the sum in the form it arrives in (a CKKS
            # sum is still evaluation form) and returns coefficient form.
            return ctx.relinearize(self.memo[node.args[0]])
        if kind == "rescale":
            out = ctx.rescale(self._to_coeff(self.memo[node.args[0]]))
            if node.normalize:
                drift = out.scale / ctx.params.scale
                if not 0.5 < drift < 2.0:
                    raise RuntimeError(
                        "scale drifted out of the normalization range")
                out.scale = ctx.params.scale
            return out
        if kind == "mod_switch":
            ct = self.memo[node.args[0]]
            # A planned drop goes down to its planned level (an input that
            # arrived on its entry chain has taken it already); a traced
            # one drops one limb.
            target = self.sched.limbs.get(nid) if node.planned else None
            drops = 1 if target is None else len(ct.level_base) - target
            if drops > 0 and node.planned:
                self.tally["limb_drops"] += drops
                if nid in self.sched._entry_drop_ids:
                    self.tally["entry_drops"] += drops
            # A CKKS drop is a row slice in either form; BFV divides and
            # rounds, which needs coefficients.
            for _ in range(drops):
                ct = ctx.mod_switch_down(ct if self.ckks
                                         else self._to_coeff(ct))
            return ct
        if kind == "keyswitch_sum":
            return self._keyswitch_sum(nid, node)
        raise ScheduleError(f"unknown IR node kind {kind!r}")


# ---------------------------------------------------------------------------
# Pipeline conveniences
# ---------------------------------------------------------------------------

def ensure_galois_keys(ctx, *step_sets):
    """Union *step_sets* and make ONE merged Galois key set.

    The dnn/knn pipelines call this once per session instead of generating
    keys per-op.  A :class:`RotationSteps` set keeps its levels (the
    higher one where two sets share a step), a plain set asks for full
    keys; ``make_galois_keys`` reuses already-present elements at a high
    enough level.  Returns the context's Galois key object (extended in
    place)."""
    return ctx.make_galois_keys(RotationSteps().union(*step_sets))
