"""Encrypted PageRank in BFV and CKKS (§5.1, §5.6, Figure 13).

PageRank is pure linear algebra, so it can run *continuously* in encrypted
space — or client-aided, with the client decrypting and re-encrypting the
rank vector every few iterations to refresh the noise budget.  Less frequent
communication demands larger parameters (deeper encrypted segments); §5.6
finds that frequent communication of *smaller* ciphertexts wins — and that
every client-optimal schedule fits CHOCO-TACO's (N ≤ 8192, k ≤ 3) envelope.

The functional implementation runs real HE on small graphs; the analytic
:func:`schedule_communication_bytes` sweep regenerates Figure 13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.linalg import EncryptedMatVec
from repro.core.paramsearch import (
    ParameterChoice,
    WorkloadProfile,
    select_parameters,
)
from repro.core.protocol import ClientAidedSession
from repro.hecore.params import SchemeType


def _to_signed(values: np.ndarray, modulus: int) -> np.ndarray:
    """Map canonical BFV residues to signed values."""
    values = np.mod(values, modulus)
    return np.where(values > modulus // 2, values - modulus, values)


def google_matrix(adjacency: np.ndarray, damping: float = 0.85) -> np.ndarray:
    """The dense PageRank iteration matrix ``d*A_norm + (1-d)/n``."""
    adjacency = np.asarray(adjacency, dtype=float)
    n = adjacency.shape[0]
    out_degree = adjacency.sum(axis=0)
    norm = np.where(out_degree > 0, adjacency / np.maximum(out_degree, 1), 1.0 / n)
    return damping * norm + (1 - damping) / n


def pagerank_reference(adjacency: np.ndarray, damping: float = 0.85,
                       iterations: int = 20) -> np.ndarray:
    """Plaintext power iteration (the correctness oracle)."""
    m = google_matrix(adjacency, damping)
    rank = np.full(m.shape[0], 1.0 / m.shape[0])
    for _ in range(iterations):
        rank = m @ rank
    return rank


class _FinalIteration(EncryptedMatVec):
    """A segment's last PageRank iteration: mat-vec, then the CKKS rescale."""

    def _body(self, ev, cts):
        out = super()._body(ev, cts)
        if ev.params.scheme is SchemeType.CKKS:
            out = ev.rescale(out)
        return out


class _Iteration(_FinalIteration):
    """An iteration another follows: the server also repacks.

    The matvec output occupies the window without redundant margins; a
    further iteration needs the rotational redundancy restored.  The server
    rebuilds the margins with two rotations and adds — cheap in noise (no
    masking multiplies), which is what lets encrypted segments run
    back-to-back.  Both rotations act on the same value, so the scheduler
    serves them from one hoisted key-switch decompose.
    """

    #: The next iteration consumes the output: keep the full chain.
    terminal_outputs = False

    def _body(self, ev, cts):
        out = super()._body(ev, cts)
        return ev.add(ev.add(out, ev.rotate(out, self.dim)),
                      ev.rotate(out, -self.dim))


class ClientAidedPageRank:
    """Functional encrypted PageRank with a configurable refresh schedule.

    ``schedule`` is a list of encrypted-segment lengths; between segments the
    client decrypts and re-encrypts the rank vector (noise refresh + repack).
    A single-segment schedule is the fully-offloaded, continuously encrypted
    variant.
    """

    def __init__(self, ctx, adjacency: np.ndarray, damping: float = 0.85,
                 quant_bits: int = 7):
        self.ctx = ctx
        self.is_bfv = ctx.params.scheme is SchemeType.BFV
        self.matrix = google_matrix(adjacency, damping)
        self.n = self.matrix.shape[0]
        if self.is_bfv:
            # Fixed-point: integer matrix at scale 2^quant_bits; the running
            # rank vector picks up one factor of the scale per iteration.
            self.scale = float(1 << quant_bits)
            matrix = np.rint(self.matrix * self.scale).astype(np.int64)
        else:
            self.scale = 1.0
            matrix = self.matrix
        self._iteration = _Iteration(ctx, matrix)
        self.matvec = _FinalIteration(ctx, matrix)
        # The repacking body extends the final one: its keys cover both.
        ctx.make_galois_keys(self._iteration.required_rotation_steps())

    def run(self, schedule: Sequence[int],
            session: Optional[ClientAidedSession] = None) -> Tuple[np.ndarray, object]:
        """Run ``sum(schedule)`` iterations; returns (ranks, ledger)."""
        session = session or ClientAidedSession(self.ctx)
        rank = np.full(self.n, 1.0 / self.n)
        for segment in schedule:
            ct = session.upload(session.client_encrypt(self._pack(rank)))
            for step in range(segment):
                last = step == segment - 1
                ct = session.server_compute(
                    self.matvec if last else self._iteration, ct)
            slots = np.asarray(session.client_decrypt(session.download(ct)))
            raw = np.real(self.matvec.unpack_output(slots))
            if self.is_bfv:
                raw = _to_signed(raw, self.ctx.params.plain_modulus)
                raw = raw / (self.scale ** (segment + 1))
            rank = raw / raw.sum()         # client-side renormalization
        return rank, session.ledger

    def _pack(self, rank: np.ndarray):
        if self.is_bfv:
            return np.rint(self.matvec.pack_input(rank) * self.scale).astype(np.int64)
        return self.matvec.pack_input(rank)


class FullyEncryptedPageRank:
    """Continuous encrypted PageRank: zero client interaction mid-run.

    Uses LoLa's alternating dense/spread dot-product representations
    (:class:`repro.core.lola.AlternatingMatVec`) so consecutive iterations
    compose on the server without repacking.  The client encrypts the
    initial rank vector once and decrypts once at the end — at the price of
    parameters deep enough for the whole iteration count (the §5.6
    tradeoff that client-aided execution wins).
    """

    def __init__(self, ctx, adjacency: np.ndarray, damping: float = 0.85):
        from repro.core.lola import AlternatingMatVec

        self.ctx = ctx
        if ctx.params.scheme is not SchemeType.CKKS:
            raise ValueError("the fully-encrypted variant runs under CKKS")
        self.matrix = google_matrix(adjacency, damping)
        self.n = self.matrix.shape[0]
        self.matvec = AlternatingMatVec(ctx, self.matrix)
        ctx.make_galois_keys(self.matvec.required_rotation_steps())

    def max_iterations(self) -> int:
        """Each iteration consumes two levels (weight + cleanup masks)."""
        return (len(self.ctx.params.data_base) - 1) // 2

    def run(self, iterations: int,
            session: Optional[ClientAidedSession] = None) -> Tuple[np.ndarray, object]:
        if iterations > self.max_iterations():
            raise ValueError(
                f"{iterations} iterations exceed the parameter depth "
                f"({self.max_iterations()} levels)"
            )
        session = session or ClientAidedSession(self.ctx)
        rank = np.full(self.n, 1.0 / self.n)
        ct = session.upload(session.client_encrypt(self.matvec.pack_dense(rank)))
        ct, fmt = session.server_compute(self.matvec.power_iteration,
                                         ct, iterations)
        slots = np.real(np.asarray(session.client_decrypt(session.download(ct))))
        out = self.matvec.unpack(slots, fmt)
        return out / out.sum(), session.ledger


def segment_profile(segment: int, n_nodes: int,
                    scheme: SchemeType) -> WorkloadProfile:
    """The workload one encrypted PageRank segment imposes (Figure 13).

    Each iteration is one matrix-vector product: ~n rotations of the packed
    rank vector and one plaintext-multiply level.  BFV fixed-point scales
    compound per iteration, so the accumulated value width grows with the
    segment length; CKKS rescales instead, consuming one prime per level.
    """
    value_bits = 6  # fixed-point rank/link weights per iteration
    return WorkloadProfile(
        value_bits=value_bits,
        fan_in=n_nodes,
        rotations=segment * max(1, int(math.ceil(math.log2(max(n_nodes, 2))))),
        masked_permutations=0,
        plain_mult_depth=segment,
        min_slots=n_nodes,
    )


@dataclass(frozen=True)
class SchedulePoint:
    """One Figure 13 dot: a (total iterations, segment length) combination."""

    total_iterations: int
    segment: int
    scheme: SchemeType
    choice: ParameterChoice
    communication_bytes: int

    @property
    def taco_compatible(self) -> bool:
        """Within CHOCO-TACO's supported envelope: N <= 8192, k <= 3 (§5.6)."""
        return (self.choice.poly_degree <= 8192
                and self.choice.residue_count <= 3)


def schedule_communication_bytes(total_iterations: int, segment: int,
                                 n_nodes: int, scheme: SchemeType) -> SchedulePoint:
    """Total communication to reach *total_iterations* with one refresh every
    *segment* iterations, using the smallest workable parameters."""
    if total_iterations % segment:
        raise ValueError("segment must divide the iteration total")
    choice = select_parameters(segment_profile(segment, n_nodes, scheme), scheme)
    segments = total_iterations // segment
    vector_cts = max(1, math.ceil(n_nodes / choice.poly_degree))
    # Each segment: upload the (re-encrypted) rank vector, download the result.
    total_bytes = segments * 2 * vector_cts * choice.ciphertext_bytes
    return SchedulePoint(total_iterations, segment, scheme, choice, total_bytes)


def sweep_schedules(total_iterations: int, n_nodes: int,
                    scheme: SchemeType) -> List[SchedulePoint]:
    """All divisor schedules for one iteration total (one Figure 13 column)."""
    points = []
    for segment in range(1, total_iterations + 1):
        if total_iterations % segment:
            continue
        try:
            points.append(schedule_communication_bytes(
                total_iterations, segment, n_nodes, scheme))
        except ValueError:
            continue   # segment too deep for any 128-bit-secure parameters
    return points
