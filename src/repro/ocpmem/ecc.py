"""ECC engines of the persistent support module.

Two engines, per the paper:

* :class:`XORCodec` (XCC, §V-A) — the shipping scheme.  A 64 B cacheline
  is striped as two 32 B halves across a dual-channel PRAM group; the PSM
  keeps their XOR as parity on separate media.  Because the code is fully
  combinational (parallel XOR gates), en/decoding is a single cycle and,
  crucially, a missing half — a die that is busy programming, or corrupted
  — can be regenerated from the surviving half and the parity without
  touching the busy die.  That regeneration is the PSM's non-blocking
  read-after-write service.

* :class:`SymbolECC` (§VIII, future work) — a finer-granularity
  symbol-based code layered behind XCC for the case where whole halves are
  lost.  Implemented as a Reed-Solomon code over GF(256) with two parity
  symbols (single-symbol correction, double-symbol detection) applied per
  interleaved column, at a real en/decode latency cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = ["EccResult", "SymbolECC", "UncorrectableError", "XORCodec", "xor_bytes"]


class UncorrectableError(Exception):
    """Data loss exceeds the code's correction capability.

    The PSM surfaces this as an *error containment bit* on the response;
    the host then raises a machine check exception (§V-A).
    """


def xor_bytes(a: bytes, b: bytes) -> bytes:
    size = len(a)
    if size != len(b):
        raise ValueError(f"length mismatch: {size} vs {len(b)}")
    # as two wide integers, so the XOR is one C-level operation
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")) \
        .to_bytes(size, "little")


@dataclass(frozen=True)
class EccResult:
    """Outcome of a decode attempt."""

    data: bytes
    reconstructed: bool = False
    corrected_symbols: int = 0


class XORCodec:
    """Half-and-half XOR parity over a dual-channel group (XCC).

    All operations are stateless byte math; the PSM decides *when* to call
    :meth:`reconstruct` (die busy) vs :meth:`verify` (die readable).
    """

    def __init__(self, half_bytes: int = 32) -> None:
        if half_bytes <= 0:
            raise ValueError("half size must be positive")
        self.half_bytes = half_bytes
        self.encodes = 0
        self.reconstructions = 0

    def encode(self, half0: bytes, half1: bytes) -> bytes:
        """Parity for a cacheline's two halves (one combinational cycle)."""
        self._check(half0)
        self._check(half1)
        self.encodes += 1
        return xor_bytes(half0, half1)

    def reconstruct(self, surviving: bytes, parity: bytes) -> bytes:
        """Regenerate the missing half from the surviving half + parity."""
        self._check(surviving)
        self._check(parity)
        self.reconstructions += 1
        return xor_bytes(surviving, parity)

    def verify(self, half0: bytes, half1: bytes, parity: bytes) -> bool:
        """Parity check; False means at least one half is corrupt."""
        return xor_bytes(half0, half1) == parity

    def correct(
        self,
        half0: Optional[bytes],
        half1: Optional[bytes],
        parity: Optional[bytes],
    ) -> EccResult:
        """Best-effort recovery given at most one missing component.

        Raises :class:`UncorrectableError` when two or more components are
        unavailable — XCC can regenerate exactly one missing half.
        """
        present = [x is not None for x in (half0, half1, parity)]
        if present.count(False) > 1:
            raise UncorrectableError("XCC cannot recover two missing components")
        if half0 is None:
            assert half1 is not None and parity is not None
            return EccResult(
                self.reconstruct(half1, parity) + half1, reconstructed=True
            )
        if half1 is None:
            assert parity is not None
            return EccResult(
                half0 + self.reconstruct(half0, parity), reconstructed=True
            )
        return EccResult(half0 + half1)

    def _check(self, half: bytes) -> None:
        if len(half) != self.half_bytes:
            raise ValueError(
                f"expected {self.half_bytes} B half, got {len(half)} B"
            )


# ---------------------------------------------------------------------------
# GF(256) Reed-Solomon for the symbol-based fallback (future-work extension)
# ---------------------------------------------------------------------------

_GF_POLY = 0x11D  # x^8 + x^4 + x^3 + x^2 + 1


def _build_gf_tables() -> tuple[list[int], list[int]]:
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _GF_POLY
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    return exp, log


_GF_EXP, _GF_LOG = _build_gf_tables()


def _gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _GF_EXP[_GF_LOG[a] + _GF_LOG[b]]


def _gf_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("GF division by zero")
    if a == 0:
        return 0
    return _GF_EXP[(_GF_LOG[a] - _GF_LOG[b]) % 255]


class SymbolECC:
    """RS(k+2, k) over GF(256): corrects one symbol, detects two.

    The codeword is ``data + [p0, p1]`` with ``p0 = sum(d_i)`` and
    ``p1 = sum(d_i * alpha^i)`` (alpha = 2).  Decoding computes the two
    syndromes; a single corrupted symbol is located by ``s1/s0`` and
    corrected by ``s0``.  En/decode latency is charged by the PSM when this
    engine is engaged (it is combinationally much deeper than XCC).
    """

    def __init__(self, data_symbols: int = 8, decode_ns: float = 35.0) -> None:
        if not 1 <= data_symbols <= 253:
            raise ValueError("data_symbols must be in [1, 253]")
        self.k = data_symbols
        self.decode_ns = decode_ns
        self.corrections = 0

    def encode(self, data: Sequence[int]) -> list[int]:
        if len(data) != self.k:
            raise ValueError(f"expected {self.k} data symbols, got {len(data)}")
        if any(not 0 <= s < 256 for s in data):
            raise ValueError("symbols must be bytes")
        p0 = 0
        p1 = 0
        for i, symbol in enumerate(data):
            p0 ^= symbol
            p1 ^= _gf_mul(symbol, _GF_EXP[i % 255])
        return list(data) + [p0, p1]

    def decode(self, codeword: Sequence[int]) -> EccResult:
        """Validate/correct a codeword; returns the data symbols."""
        if len(codeword) != self.k + 2:
            raise ValueError(f"expected {self.k + 2} symbols")
        data = list(codeword[: self.k])
        p0, p1 = codeword[self.k], codeword[self.k + 1]
        s0 = p0
        s1 = p1
        for i, symbol in enumerate(data):
            s0 ^= symbol
            s1 ^= _gf_mul(symbol, _GF_EXP[i % 255])
        if s0 == 0 and s1 == 0:
            return EccResult(bytes(data))
        if s0 == 0 or s1 == 0:
            # Syndromes disagree about the error pattern: >1 symbol bad,
            # or a parity symbol itself is corrupt in a way we can flag.
            raise UncorrectableError("inconsistent syndromes")
        locator = _gf_div(s1, s0)
        position = _GF_LOG[locator]
        if position >= self.k:
            raise UncorrectableError(f"error locator {position} out of range")
        data[position] ^= s0
        self.corrections += 1
        return EccResult(bytes(data), corrected_symbols=1)
