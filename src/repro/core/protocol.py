"""The client-aided protocol runtime (Figure 3) and its cost ledger.

A trusted, resource-constrained client and an untrusted offload server
exchange ciphertexts: the server applies encrypted linear algebra; the
client decrypts, applies plaintext non-linear operations (refreshing the
noise budget and repacking vectors in the process), re-encrypts, and
uploads.  The ledger tallies exactly the quantities the paper's evaluation
reports: client encryption/decryption operations, client active time and
energy, bytes moved in each direction, rounds, and server time.

Costs follow §5.2's methodology — operation counts multiplied by
per-operation platform costs — with the client's per-operation cost coming
from either the software model (:class:`Imx6SoftwareClient`), a partial
accelerator (HEAX/FPGA), or CHOCO-TACO (:class:`AcceleratorModel`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Callable, Optional

from repro.hecore.params import EncryptionParameters, SchemeType
from repro.platforms.client_device import Imx6SoftwareClient
from repro.platforms.radio import BluetoothLink
from repro.platforms.server import XeonServer


#: Every metered kernel quantity, declared once: ``ctx.counts`` key ->
#: (reported name, help).  :class:`KernelCounted` turns each row into an
#: ``int`` field of :class:`CostLedger` and of the runtime's
#: ``SessionMetrics``, and the worker / fleet totals sum the same names, so
#: a new counter is one row here plus the kernel's ``ctx.counts[key] +=``.
KERNEL_COUNTERS = {
    # Rotation accounting.  A healthy hoisted hot path shows
    # rotations >> hoisted + naive decomposes.
    "rotate": ("rotations", "slot rotations the server evaluated"),
    "hoisted_decompose": ("hoisted_decomposes",
                          "key-switch digit decomposes shared via hoisting"),
    "naive_decompose": ("naive_decomposes",
                        "per-rotation (unshared) key-switch decomposes"),
    # One per relinearisation the scheduler left live: one per sum of
    # ct-ct products, not one per product.
    "relinearize": ("relinearizations",
                    "ct-ct key switches the server evaluated"),
    # NTT-residency accounting (units: residue-row transform passes).
    "ntt_forward": ("ntt_forward",
                    "forward NTT residue-rows the scheduler ran"),
    "ntt_inverse": ("ntt_inverse",
                    "inverse NTT residue-rows the scheduler ran"),
    "ntt_elided": ("ntt_elided", "inverse->forward row pairs the residency "
                                 "pass skipped across op boundaries"),
    # Level-planner accounting.  A lower limbs-live integral means the
    # planner ran more of the program on a trimmed chain.
    "limb_drops": ("limb_drops", "planned mod-switch limb drops executed"),
    # The share of limb_drops taken on an input that arrived above its
    # entry level: limbs a client or store carried that the plan discards.
    "entry_drops": ("entry_drops", "planned drops executed on inputs that "
                                   "arrived above their entry level"),
    "limbs_live": ("limbs_live", "live residue count summed over every "
                                 "ciphertext the server produced"),
    # Level-trimmed Galois keys.  A planned run never drops to a key (the
    # plan fixed every level and the keys follow it); the unplanned oracle
    # and ad-hoc rotations take a ciphertext down to its key's level.
    "key_drops": ("key_drops", "limbs dropped to meet a Galois key made "
                               "for a lower level"),
    # The decrypt's exact fallback: coefficients too close to a rounding
    # boundary for the int64 path, recomputed through big integers.
    "decrypt_exact_coeffs": ("decrypt_exact_coeffs",
                             "decrypted coefficients recomputed through "
                             "big integers"),
    # Shared schedule cache (``core.ir``), once per kernel instance and
    # shape.  A cold session of a model another session already ran shows
    # hits and no misses.
    "program_cache_hits": ("program_cache_hits",
                           "kernel schedules served from the shared cache"),
    "program_cache_misses": ("program_cache_misses",
                             "kernel schedules this session had to compile"),
}

#: The reported names, in table order.
KERNEL_COUNTER_NAMES = tuple(name for name, _ in KERNEL_COUNTERS.values())


class KernelCounted:
    """Dataclass mixin: one ``int`` field per :data:`KERNEL_COUNTERS` row
    (appended after the subclass's own fields), :meth:`add_counts` to meter
    a ``ctx.counts`` delta into them and :meth:`merge` to sum two records."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Runs before ``@dataclass`` sees the class, so the rows become
        # ordinary defaulted fields (keyword-constructible, in ``fields()``).
        for name in KERNEL_COUNTER_NAMES:
            cls.__annotations__[name] = "int"
            setattr(cls, name, 0)

    def add_counts(self, delta) -> None:
        """Charge a ``ctx.counts`` delta (``ctx.counts - before``)."""
        for key, (name, _help) in KERNEL_COUNTERS.items():
            setattr(self, name, getattr(self, name) + delta.get(key, 0))

    def merge(self, other) -> None:
        """Add every accumulator of *other* (the fields that default to
        zero); identity fields such as a session's id and peer stay."""
        for f in fields(self):
            if f.default == 0:
                setattr(self, f.name,
                        getattr(self, f.name) + getattr(other, f.name))


@dataclass
class CostLedger(KernelCounted):
    """Everything the evaluation charges to the client, server, or link."""

    client_encrypt_ops: int = 0
    client_decrypt_ops: int = 0
    # Batched-schedule accounting: how many stacked encrypt/decrypt passes
    # produced those ops.  ops >> batches means the client amortizes its
    # per-invocation overhead well (Fig. 12's batched client schedule).
    client_encrypt_batches: int = 0
    client_decrypt_batches: int = 0
    client_compute_s: float = 0.0
    client_energy_j: float = 0.0
    bytes_up: int = 0
    bytes_down: int = 0
    rounds: int = 0
    server_compute_s: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.bytes_up + self.bytes_down

    # Single source of truth for transfer accounting: the in-process
    # ClientAidedSession and the runtime's OffloadClient charge through the
    # same two methods, so the analytical byte/round model cannot drift from
    # the served path.
    def charge_upload(self, nbytes: int) -> None:
        """One client->server ciphertext upload: bytes plus one round."""
        self.bytes_up += int(nbytes)
        self.rounds += 1

    def charge_download(self, nbytes: int) -> None:
        """One server->client ciphertext download (no extra round)."""
        self.bytes_down += int(nbytes)

    def communication_energy(self, radio: BluetoothLink) -> float:
        return radio.transfer_energy(self.total_bytes)

    def end_to_end_client_time(self, radio: BluetoothLink) -> float:
        """Client-perceived latency: active compute + radio (bytes and
        per-round link latency) + server."""
        return (self.client_compute_s
                + radio.session_time(self.total_bytes, self.rounds)
                + self.server_compute_s)

    def end_to_end_client_energy(self, radio: BluetoothLink) -> float:
        """Client energy: active compute plus radio (server energy is free
        to the client — the point of offloading)."""
        return self.client_energy_j + self.communication_energy(radio)


class ClientCostModel:
    """Per-HE-operation client costs under one hardware assumption.

    The ``*_batch_overhead_*`` fields are the per-invocation fixed cost a
    batched schedule amortizes: a batch of ``m`` operations costs
    ``m * per_op - (m - 1) * overhead``.  Software models pay the overhead
    on every op (no pipeline to keep warm), so theirs is zero; the
    CHOCO-TACO model amortizes its fixed per-invocation pipeline cycles
    (see ``AcceleratorModel.batch_overhead_cycles``).
    """

    def __init__(self, name: str, encrypt_s: float, decrypt_s: float,
                 encrypt_j: float, decrypt_j: float,
                 encrypt_batch_overhead_s: float = 0.0,
                 decrypt_batch_overhead_s: float = 0.0,
                 encrypt_batch_overhead_j: float = 0.0,
                 decrypt_batch_overhead_j: float = 0.0):
        self.name = name
        self.encrypt_s = encrypt_s
        self.decrypt_s = decrypt_s
        self.encrypt_j = encrypt_j
        self.decrypt_j = decrypt_j
        self.encrypt_batch_overhead_s = encrypt_batch_overhead_s
        self.decrypt_batch_overhead_s = decrypt_batch_overhead_s
        self.encrypt_batch_overhead_j = encrypt_batch_overhead_j
        self.decrypt_batch_overhead_j = decrypt_batch_overhead_j

    # ------------------------------------------------------- batched costs
    def encrypt_many_s(self, m: int) -> float:
        return 0.0 if m <= 0 else m * self.encrypt_s - (m - 1) * self.encrypt_batch_overhead_s

    def decrypt_many_s(self, m: int) -> float:
        return 0.0 if m <= 0 else m * self.decrypt_s - (m - 1) * self.decrypt_batch_overhead_s

    def encrypt_many_j(self, m: int) -> float:
        return 0.0 if m <= 0 else m * self.encrypt_j - (m - 1) * self.encrypt_batch_overhead_j

    def decrypt_many_j(self, m: int) -> float:
        return 0.0 if m <= 0 else m * self.decrypt_j - (m - 1) * self.decrypt_batch_overhead_j

    # ------------------------------------------------------------ factories
    @classmethod
    def software(cls, params: EncryptionParameters,
                 client: Optional[Imx6SoftwareClient] = None) -> "ClientCostModel":
        client = client or Imx6SoftwareClient()
        n = params.poly_degree
        k = params.logical_residue_count
        if params.scheme is SchemeType.CKKS:
            enc = client.ckks_encrypt_time(n, k)
            dec = client.ckks_decrypt_time(n, k)
        else:
            enc = client.encrypt_time(n, k)
            dec = client.decrypt_time(n, k)
        return cls("software", enc, dec, client.energy(enc), client.energy(dec))

    @classmethod
    def partial_accelerator(cls, params: EncryptionParameters, accelerator,
                            client: Optional[Imx6SoftwareClient] = None):
        """HEAX/FPGA-style NTT-only assistance applied to the software model."""
        base = cls.software(params, client)
        client = client or Imx6SoftwareClient()
        enc = accelerator.accelerated_time(base.encrypt_s)
        dec = accelerator.accelerated_time(base.decrypt_s)
        return cls(accelerator.name, enc, dec, client.energy(enc), client.energy(dec))

    @classmethod
    def choco_taco(cls, params: EncryptionParameters, model=None) -> "ClientCostModel":
        """Full CHOCO-TACO acceleration of encryption and decryption."""
        from repro.accel.ckks_support import CkksAcceleration
        from repro.accel.design import AcceleratorModel

        from repro.accel.design import CLOCK_HZ

        n = params.poly_degree
        k = params.logical_residue_count
        hw = (model or AcceleratorModel()).at_parameters(n, k)
        # The fixed pipeline overhead only the first op of a stacked batch
        # pays (see AcceleratorModel.batch_overhead_cycles); leakage is the
        # only energy drawn during those cycles.
        overhead_s = hw.batch_overhead_cycles() / CLOCK_HZ
        overhead_j = hw.leakage_w * overhead_s
        if params.scheme is SchemeType.CKKS:
            ckks = CkksAcceleration()
            enc = ckks.encrypt_encode_time(n, k)
            dec = ckks.decrypt_decode_time(n, k)
            enc_j = hw.encrypt_cost().energy_j + Imx6SoftwareClient().energy(enc) * 0.05
            dec_j = hw.decrypt_cost().energy_j + Imx6SoftwareClient().energy(dec) * 0.44
            return cls("choco-taco", enc, dec, enc_j, dec_j,
                       encrypt_batch_overhead_s=overhead_s,
                       decrypt_batch_overhead_s=overhead_s,
                       encrypt_batch_overhead_j=overhead_j,
                       decrypt_batch_overhead_j=overhead_j)
        enc_cost = hw.encrypt_cost()
        dec_cost = hw.decrypt_cost()
        return cls("choco-taco", enc_cost.time_s, dec_cost.time_s,
                   enc_cost.energy_j, dec_cost.energy_j,
                   encrypt_batch_overhead_s=overhead_s,
                   decrypt_batch_overhead_s=overhead_s,
                   encrypt_batch_overhead_j=overhead_j,
                   decrypt_batch_overhead_j=overhead_j)


class ProtocolViolation(RuntimeError):
    """Server-side code touched a client-only capability.

    The semi-honest model (§3.1) trusts the server to run the specified
    encrypted operations — but nothing the server runs may require the
    secret key.  The session enforces that boundary mechanically.
    """


class ClientAidedSession:
    """Functional protocol driver: real HE plus cost accounting.

    Wraps a :class:`BfvContext` or :class:`CkksContext`; client-side
    encrypt/decrypt and transfers must go through this object so the ledger
    stays faithful.  Server-side evaluation runs inside
    :meth:`server_compute`, which meters HE operation counts into server
    time and raises :class:`ProtocolViolation` if the computation decrypts
    anything (the secret key never leaves the client, §3.1).
    """

    def __init__(self, ctx, cost_model: Optional[ClientCostModel] = None,
                 server: Optional[XeonServer] = None,
                 radio: Optional[BluetoothLink] = None,
                 record_transcript: bool = False):
        self.ctx = ctx
        self.params = ctx.params
        self.cost_model = cost_model or ClientCostModel.software(ctx.params)
        self.server = server or XeonServer()
        self.radio = radio or BluetoothLink()
        self.ledger = CostLedger()
        self.transcript: list = [] if record_transcript else None

    def _record(self, event: str, detail: str) -> None:
        if self.transcript is not None:
            self.transcript.append((event, detail))

    def format_transcript(self) -> str:
        """The protocol run as a readable message trace."""
        if not self.transcript:
            return "(no transcript recorded)"
        lines = []
        for i, (event, detail) in enumerate(self.transcript):
            lines.append(f"{i:3d}  {event:10s} {detail}")
        return "\n".join(lines)

    # ------------------------------------------------------------- client
    def client_encrypt(self, values):
        ct = self.ctx.encrypt(values)
        self.ledger.client_encrypt_ops += 1
        self.ledger.client_compute_s += self.cost_model.encrypt_s
        self.ledger.client_energy_j += self.cost_model.encrypt_j
        self._record("encrypt", f"client encrypts ({ct.size_bytes()} B)")
        return ct

    def client_decrypt(self, ct):
        out = self.ctx.decrypt(ct)
        self.ledger.client_decrypt_ops += 1
        self.ledger.client_compute_s += self.cost_model.decrypt_s
        self.ledger.client_energy_j += self.cost_model.decrypt_j
        self._record("decrypt", "client decrypts and refreshes noise")
        return out

    def client_encrypt_many(self, values_list):
        """Encrypt a batch through the stacked engine, charging the
        batch-amortized cost (one pipeline overhead for the whole batch)."""
        cts = self.ctx.encrypt_many(values_list)
        m = len(cts)
        self.ledger.client_encrypt_ops += m
        if m:
            self.ledger.client_encrypt_batches += 1
        self.ledger.client_compute_s += self.cost_model.encrypt_many_s(m)
        self.ledger.client_energy_j += self.cost_model.encrypt_many_j(m)
        self._record("encrypt", f"client encrypts batch of {m}")
        return cts

    def client_decrypt_many(self, cts):
        """Decrypt a batch through the stacked engine (batch-amortized)."""
        out = self.ctx.decrypt_many(cts)
        m = len(out)
        self.ledger.client_decrypt_ops += m
        if m:
            self.ledger.client_decrypt_batches += 1
        self.ledger.client_compute_s += self.cost_model.decrypt_many_s(m)
        self.ledger.client_energy_j += self.cost_model.decrypt_many_j(m)
        self._record("decrypt", f"client decrypts batch of {m}")
        return out

    # ----------------------------------------------------------- transfers
    def upload(self, ct):
        self.ledger.charge_upload(ct.size_bytes())
        self._record("upload", f"client -> server, {ct.size_bytes()} B "
                               f"(round {self.ledger.rounds})")
        return ct

    def download(self, ct):
        self.ledger.charge_download(ct.size_bytes())
        self._record("download", f"server -> client, {ct.size_bytes()} B")
        return ct

    # -------------------------------------------------------------- server
    def server_compute(self, fn: Callable, *args, **kwargs):
        """Run server-side HE work, metering its operation counts.

        Raises :class:`ProtocolViolation` if the work decrypts — server
        code has no business holding the secret key (§3.1).
        """
        before = Counter(self.ctx.counts)
        result = fn(*args, **kwargs)
        delta = self.ctx.counts - before
        if delta.get("decrypt", 0):
            raise ProtocolViolation(
                "server-side computation performed a decryption; the secret "
                "key must never leave the client"
            )
        residues = self.params.logical_data_residues
        self.ledger.server_compute_s += self.server.time_for_counts(
            delta, self.params.poly_degree, residues
        )
        self.ledger.add_counts(delta)
        ops = ", ".join(f"{op}x{n}" for op, n in sorted(delta.items()) if n)
        self._record("server", f"encrypted compute: {ops or 'no-op'}")
        return result
