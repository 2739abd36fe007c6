"""Rotational redundancy: CHOCO's encrypted-permutation optimization (§3.3).

A *windowed rotation* rotates the elements of a sub-range of a vector,
wrapping within the sub-range.  The standard HE implementation (Figure 4A,
:mod:`repro.core.permute`) needs two full rotations, two masking multiplies
and an add — and each masking multiply burns roughly ``log2(t) + 6`` bits of
noise budget (Table 4).

Rotational redundancy (Figure 4B) instead packs each window with redundant
copies of its edge values on both sides *before encryption*.  Any windowed
rotation of magnitude up to the redundancy then becomes a **single** cheap
full-ciphertext rotation: the values that should wrap are already sitting in
the redundant margins.  The client, which unpacks and repacks ciphertexts at
every layer boundary anyway, simply discards everything outside the window
of interest.

The payoff is smaller noise growth → smaller HE parameters → smaller
ciphertexts → less client computation and communication (Tables 3 & 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.hecore.modmath import next_power_of_two


@dataclass(frozen=True)
class ChannelLayout:
    """Where redundantly packed channels live inside a slot vector.

    Each channel occupies ``span`` slots (a power of two, so channels stay
    aligned under rotation); the useful *window* starts ``redundancy`` slots
    into the span, flanked by redundant copies of the window's edges.
    """

    window: int          # useful values per channel
    redundancy: int      # maximum supported rotation magnitude
    span: int            # power-of-two slots allotted per channel
    count: int           # number of channels packed

    def __post_init__(self):
        if self.window < 1 or self.count < 1 or self.redundancy < 0:
            raise ValueError("invalid layout dimensions")
        if self.span & (self.span - 1):
            raise ValueError(f"span {self.span} must be a power of two")
        if self.window + 2 * self.redundancy > self.span:
            raise ValueError(
                f"window {self.window} + 2x redundancy {self.redundancy} "
                f"exceeds span {self.span}"
            )

    @property
    def total_slots(self) -> int:
        return self.span * self.count

    def window_offset(self, channel: int) -> int:
        """First slot of *channel*'s window of interest."""
        if not 0 <= channel < self.count:
            raise IndexError(f"channel {channel} out of range")
        return channel * self.span + self.redundancy

    @property
    def density(self) -> float:
        """Fraction of slots holding non-redundant payload (§3.3 tradeoff)."""
        return (self.window * self.count) / self.total_slots


class RedundantPacking:
    """Packs channel vectors with rotational redundancy into slot vectors."""

    def __init__(self, window: int, redundancy: int, count: int = 1,
                 slot_limit: int | None = None):
        span = next_power_of_two(window + 2 * redundancy)
        self.layout = ChannelLayout(window=window, redundancy=redundancy,
                                    span=span, count=count)
        if slot_limit is not None and self.layout.total_slots > slot_limit:
            raise ValueError(
                f"layout needs {self.layout.total_slots} slots, "
                f"only {slot_limit} available"
            )

    def pack(self, channels: Sequence[np.ndarray]) -> np.ndarray:
        """Pack channel value vectors into one redundant slot vector.

        Channel *c*'s window values ``v`` are laid out as
        ``[v[-r:], v, v[:r]]`` inside the channel's power-of-two span, so a
        rotation by up to ``r`` in either direction stays correct.
        """
        layout = self.layout
        if len(channels) > layout.count:
            raise ValueError(f"expected <= {layout.count} channels, got {len(channels)}")
        out = np.zeros(layout.total_slots, dtype=np.asarray(channels[0]).dtype)
        r, w = layout.redundancy, layout.window
        for c, values in enumerate(channels):
            values = np.asarray(values)
            if len(values) != w:
                raise ValueError(f"channel {c} has {len(values)} values, window is {w}")
            start = c * layout.span
            if r:
                out[start: start + r] = values[-r:]
                out[start + r + w: start + r + w + r] = values[:r]
            out[start + r: start + r + w] = values
        return out

    def unpack(self, slots: np.ndarray, rotation: int = 0) -> List[np.ndarray]:
        """Read every channel's window of interest, discarding redundancy.

        *rotation* is the net windowed rotation the ciphertext has undergone
        (positive = left); redundancy guarantees windows are still intact for
        ``|rotation| <= redundancy``.
        """
        layout = self.layout
        if abs(rotation) > layout.redundancy:
            raise ValueError(
                f"rotation {rotation} exceeds redundancy {layout.redundancy}"
            )
        slots = np.asarray(slots)
        out = []
        for c in range(layout.count):
            start = layout.window_offset(c)
            out.append(slots[start: start + layout.window].copy())
        return out

    def expected_after_rotation(self, channels: Sequence[np.ndarray],
                                rotation: int) -> List[np.ndarray]:
        """Plaintext oracle: each window rotated left by *rotation*."""
        return [np.roll(np.asarray(v), -rotation) for v in channels]


def windowed_rotation_redundant(ctx, ct, rotation: int, layout: ChannelLayout,
                                galois_keys=None):
    """Windowed rotation via rotational redundancy: ONE ciphertext rotation.

    Contrast with :func:`repro.core.permute.windowed_rotation_masked`, which
    needs two rotations, two masking multiplies and an add.  Works for BFV
    and CKKS contexts alike.
    """
    if abs(rotation) > layout.redundancy:
        raise ValueError(f"rotation {rotation} exceeds redundancy {layout.redundancy}")
    return ctx.rotate(ct, rotation, galois_keys)
