"""Byte-addressable scratchpad memory (TCDM) and a bump allocator.

The Snitch cluster's L1 is a banked scratchpad (TCDM).  Functionally we
model it as a flat bytearray with typed accessors; NumPy helpers move whole
arrays in and out for test setup and verification.  Timing effects live
elsewhere: per-access latency in the core timing model, bank arbitration
in :mod:`repro.cluster.tcdm`.  Scalar accessors require natural alignment
(2/4/8-byte accesses on matching boundaries), as the TCDM interconnect
does; the bulk NumPy helpers are host-side conveniences and only
range-check.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import SimulationError

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")


class MemoryError_(Exception):
    """Out-of-range or misaligned memory access."""


class Memory:
    """Flat little-endian byte-addressable memory.

    The word-size scalar accessors inline their bounds/alignment test
    (falling back to :meth:`_check` only to raise the detailed error) —
    they run once per simulated load/store, making them part of the
    simulator's hot path.

    Args:
        size: Capacity in bytes (default 1 MiB: generous so experiment
            sweeps are not artificially limited; the architectural TCDM
            budget is enforced separately by the kernel layer).
    """

    __slots__ = ("size", "data")

    def __init__(self, size: int = 1 << 20) -> None:
        self.size = size
        self.data = bytearray(size)

    def _check(self, addr: int, width: int, align: int = 1) -> None:
        if addr < 0 or addr + width > self.size:
            raise MemoryError_(
                f"access of {width} bytes at 0x{addr:x} outside "
                f"memory of size 0x{self.size:x}"
            )
        if align > 1 and addr % align:
            raise MemoryError_(
                f"misaligned access of {width} bytes at 0x{addr:x} "
                f"(requires {align}-byte alignment)"
            )

    def copy_within(self, dst: int, src: int, nbytes: int) -> None:
        """Checked bulk copy (the DMA engines' functional data path).

        Bounds-checks both ranges first: a raw bytearray slice
        assignment would silently grow or shrink the image on an
        out-of-range destination.
        """
        self._check(src, nbytes)
        self._check(dst, nbytes)
        self.data[dst:dst + nbytes] = self.data[src:src + nbytes]

    # -- scalar accessors --------------------------------------------------
    def read_u8(self, addr: int) -> int:
        self._check(addr, 1)
        return self.data[addr]

    def write_u8(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self.data[addr] = value & 0xFF

    def read_u16(self, addr: int) -> int:
        self._check(addr, 2, align=2)
        return int.from_bytes(self.data[addr:addr + 2], "little")

    def write_u16(self, addr: int, value: int) -> None:
        self._check(addr, 2, align=2)
        self.data[addr:addr + 2] = (value & 0xFFFF).to_bytes(2, "little")

    def read_u32(self, addr: int) -> int:
        if addr < 0 or addr + 4 > self.size or addr & 3:
            self._check(addr, 4, align=4)
        return _U32.unpack_from(self.data, addr)[0]

    def write_u32(self, addr: int, value: int) -> None:
        if addr < 0 or addr + 4 > self.size or addr & 3:
            self._check(addr, 4, align=4)
        _U32.pack_into(self.data, addr, value & 0xFFFFFFFF)

    def read_index(self, addr: int, size: int) -> int:
        """An indirect SSR's index word (16 or 32 bits)."""
        if size == 2:
            return self.read_u16(addr)
        if size == 4:
            return self.read_u32(addr)
        raise SimulationError(f"unsupported ISSR index size {size}")

    def read_u64(self, addr: int) -> int:
        if addr < 0 or addr + 8 > self.size or addr & 7:
            self._check(addr, 8, align=8)
        return _U64.unpack_from(self.data, addr)[0]

    def write_u64(self, addr: int, value: int) -> None:
        if addr < 0 or addr + 8 > self.size or addr & 7:
            self._check(addr, 8, align=8)
        _U64.pack_into(self.data, addr, value & 0xFFFFFFFFFFFFFFFF)

    def read_f32(self, addr: int) -> float:
        if addr < 0 or addr + 4 > self.size or addr & 3:
            self._check(addr, 4, align=4)
        return _F32.unpack_from(self.data, addr)[0]

    def write_f32(self, addr: int, value: float) -> None:
        if addr < 0 or addr + 4 > self.size or addr & 3:
            self._check(addr, 4, align=4)
        _F32.pack_into(self.data, addr, value)

    def read_f64(self, addr: int) -> float:
        if addr < 0 or addr + 8 > self.size or addr & 7:
            self._check(addr, 8, align=8)
        return _F64.unpack_from(self.data, addr)[0]

    def write_f64(self, addr: int, value: float) -> None:
        if addr < 0 or addr + 8 > self.size or addr & 7:
            self._check(addr, 8, align=8)
        _F64.pack_into(self.data, addr, value)

    # -- bulk NumPy helpers --------------------------------------------------
    def write_array(self, addr: int, array: np.ndarray) -> None:
        """Copy *array* (C-contiguous view) into memory at *addr*."""
        raw = np.ascontiguousarray(array).tobytes()
        self._check(addr, len(raw))
        self.data[addr:addr + len(raw)] = raw

    def read_array(self, addr: int, dtype, count: int) -> np.ndarray:
        """Read *count* elements of *dtype* starting at *addr*."""
        nbytes = np.dtype(dtype).itemsize * count
        self._check(addr, nbytes)
        return np.frombuffer(
            bytes(self.data[addr:addr + nbytes]), dtype=dtype
        ).copy()


class Allocator:
    """Bump allocator for laying out kernel data in the scratchpad.

    Keeps a symbol table so reports and tests can refer to buffers by name.
    """

    def __init__(self, memory: Memory, base: int = 0x1000,
                 align: int = 8) -> None:
        self.memory = memory
        self._next = base
        self._align = align
        self.symbols: dict[str, tuple[int, int]] = {}

    def alloc(self, name: str, nbytes: int) -> int:
        """Reserve *nbytes*, returning the base address."""
        if name in self.symbols:
            raise ValueError(f"symbol {name!r} allocated twice")
        mask = self._align - 1
        addr = (self._next + mask) & ~mask
        if addr + nbytes > self.memory.size:
            raise MemoryError_(
                f"allocation {name!r} of {nbytes} bytes does not fit "
                f"(next free 0x{addr:x}, size 0x{self.memory.size:x})"
            )
        self._next = addr + nbytes
        self.symbols[name] = (addr, nbytes)
        return addr

    def alloc_array(self, name: str, array: np.ndarray) -> int:
        """Reserve space for *array*, copy it in, return the address."""
        addr = self.alloc(name, array.nbytes)
        self.memory.write_array(addr, array)
        return addr

    def address(self, name: str) -> int:
        return self.symbols[name][0]
