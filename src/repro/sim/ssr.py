"""Stream Semantic Register (SSR) and ISSR data movers.

SSRs stream data between memory and the FP register file without explicit
load/store instructions: while enabled, reads of ``ft0``/``ft1``/``ft2``
pop the next element of the bound read stream and writes push onto the
bound write stream.  Address patterns are affine functions of up to four
nested loop induction variables (paper §II-A); ISSR mode adds one level of
indirection through an index array for arbitrary gather patterns.

Configuration happens through ``scfgwi rs1, imm`` writes where the
immediate encodes ``(field << 4) | ssr_index``:

====== ============ ========================================================
field  name         meaning of the written value
====== ============ ========================================================
0      STATUS       number of active dimensions (1-4)
1      REPEAT       each element is delivered (value+1) times
2-5    BOUND0-3     iterations in dimension d, minus one (Snitch style)
6-9    STRIDE0-3    byte stride of dimension d
10     RPTR         base address; arms the SSR as a *read* stream
11     WPTR         base address; arms the SSR as a *write* stream
12     IDX_BASE     index-array base address; next RPTR arms *indirect*
13     IDX_CFG      bits[2:0] index element size in bytes, bits[7:3] shift
====== ============ ========================================================

Arming resets the iteration state.  The generated address for linear
position ``(i3, i2, i1, i0)`` is ``base + sum_d i_d * stride_d`` (indirect
streams instead fetch ``index[pos]`` and access ``base + (index <<
shift)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Configuration field codes (the imm's upper bits in scfgwi).
F_STATUS = 0
F_REPEAT = 1
F_BOUND0 = 2
F_BOUND1 = 3
F_BOUND2 = 4
F_BOUND3 = 5
F_STRIDE0 = 6
F_STRIDE1 = 7
F_STRIDE2 = 8
F_STRIDE3 = 9
F_RPTR = 10
F_WPTR = 11
F_IDX_BASE = 12
F_IDX_CFG = 13

FIELD_NAMES = {
    F_STATUS: "status", F_REPEAT: "repeat",
    F_BOUND0: "bound0", F_BOUND1: "bound1",
    F_BOUND2: "bound2", F_BOUND3: "bound3",
    F_STRIDE0: "stride0", F_STRIDE1: "stride1",
    F_STRIDE2: "stride2", F_STRIDE3: "stride3",
    F_RPTR: "rptr", F_WPTR: "wptr",
    F_IDX_BASE: "idx_base", F_IDX_CFG: "idx_cfg",
}


def encode_cfg_imm(field_code: int, ssr_index: int) -> int:
    """Encode the scfgwi immediate for (*field_code*, *ssr_index*)."""
    if not 0 <= ssr_index < 16:
        raise ValueError(f"ssr index out of range: {ssr_index}")
    if field_code not in FIELD_NAMES:
        raise ValueError(f"unknown SSR config field: {field_code}")
    return (field_code << 4) | ssr_index


def decode_cfg_imm(imm: int) -> tuple[int, int]:
    """Inverse of :func:`encode_cfg_imm`: returns (field, ssr_index)."""
    return imm >> 4, imm & 0xF


class SSRError(Exception):
    """Illegal SSR use: popping an exhausted or unarmed stream, etc."""


@dataclass(slots=True)
class _Config:
    """Raw configuration registers of one SSR."""

    dims: int = 1
    repeat: int = 0
    bounds: list[int] = field(default_factory=lambda: [0, 0, 0, 0])
    strides: list[int] = field(default_factory=lambda: [0, 0, 0, 0])
    idx_base: int = 0
    idx_size: int = 0          # 0 = affine mode; 2/4 = indirect mode
    idx_shift: int = 0


class SSR:
    """One stream semantic register data mover."""

    __slots__ = (
        "index", "cfg", "armed", "is_write", "indirect", "base",
        "seq", "arm_time", "last_pop_time", "_counters",
        "_repeat_left", "_done", "total_elements", "_offset",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.cfg = _Config()
        self.armed = False
        self.is_write = False
        self.indirect = False
        self.base = 0
        #: Elements delivered since arming (for prefetch timing).
        self.seq = 0
        #: Simulation time at which the stream was armed.
        self.arm_time = 0
        #: Issue time of the most recent element pop (FPSS timeline);
        #: re-arming must wait for the previous stream to drain.
        self.last_pop_time = 0
        self._counters = [0, 0, 0, 0]
        self._repeat_left = 0
        self._done = False
        self.total_elements = 0
        #: Current iteration-space byte offset
        #: (sum of counter[d] * stride[d] over the active dimensions),
        #: maintained incrementally by advance().
        self._offset = 0

    # -- configuration -------------------------------------------------------
    def write_config(self, field_code: int, value: int, now: int) -> None:
        """Apply one ``scfgwi`` write at simulation time *now*."""
        cfg = self.cfg
        if field_code == F_STATUS:
            if not 1 <= value <= 4:
                raise SSRError(f"ssr{self.index}: dims must be 1-4, "
                               f"got {value}")
            cfg.dims = value
        elif field_code == F_REPEAT:
            cfg.repeat = value
        elif F_BOUND0 <= field_code <= F_BOUND3:
            cfg.bounds[field_code - F_BOUND0] = value
        elif F_STRIDE0 <= field_code <= F_STRIDE3:
            # Strides are signed byte offsets; sign-extend from 32 bits.
            if value >= 1 << 31:
                value -= 1 << 32
            cfg.strides[field_code - F_STRIDE0] = value
        elif field_code == F_IDX_BASE:
            cfg.idx_base = value
        elif field_code == F_IDX_CFG:
            cfg.idx_size = value & 0x7
            cfg.idx_shift = (value >> 3) & 0x1F
        elif field_code == F_RPTR:
            self._arm(base=value, is_write=False, now=now)
        elif field_code == F_WPTR:
            self._arm(base=value, is_write=True, now=now)
        else:
            raise SSRError(f"unknown SSR config field {field_code}")

    def _arm(self, base: int, is_write: bool, now: int) -> None:
        self.base = base
        self.is_write = is_write
        self.indirect = self.cfg.idx_size != 0 and not is_write
        self.armed = True
        self.seq = 0
        self.arm_time = now
        self._counters = [0, 0, 0, 0]
        self._repeat_left = self.cfg.repeat
        self._done = False
        self._offset = 0
        n = 1
        for d in range(self.cfg.dims):
            n *= self.cfg.bounds[d] + 1
        self.total_elements = n * (self.cfg.repeat + 1)
        # Indirect streams consume configuration for the *index* pattern;
        # the data access is base + (index << shift).

    # -- streaming -----------------------------------------------------------
    def current_index_address(self) -> int:
        """Address of the index element about to be consumed (ISSR)."""
        if not self.indirect:
            raise SSRError(f"ssr{self.index} is not in indirect mode")
        return self.cfg.idx_base + self._offset

    def peek_address(self, read_index) -> int:
        """Address of the next element, without consuming it.

        Args:
            read_index: Callable ``(addr, size) -> int`` used to fetch the
                index element in ISSR mode (indices live in simulated
                memory).
        """
        if not self.armed:
            raise SSRError(f"ssr{self.index} accessed while not armed")
        if self._done:
            raise SSRError(
                f"ssr{self.index} exhausted after "
                f"{self.total_elements} elements"
            )
        if self.indirect:
            idx = read_index(self.current_index_address(),
                             self.cfg.idx_size)
            return self.base + (idx << self.cfg.idx_shift)
        return self.base + self._offset

    def advance(self) -> None:
        """Consume the current element, stepping the iteration space.

        The iteration-space byte offset is maintained incrementally
        (``_offset``), saving the per-element dimension walk the
        original recomputation did; a stream's stride/bound
        configuration is fixed while armed (re-arming resets it), so
        the incremental form is exact.
        """
        self.seq += 1
        if self._repeat_left > 0:
            self._repeat_left -= 1
            return
        cfg = self.cfg
        self._repeat_left = cfg.repeat
        counters = self._counters
        bounds = cfg.bounds
        strides = cfg.strides
        for d in range(cfg.dims):
            if counters[d] < bounds[d]:
                counters[d] += 1
                self._offset += strides[d]
                return
            counters[d] = 0
            self._offset -= bounds[d] * strides[d]
        self._done = True

    @property
    def exhausted(self) -> bool:
        return self._done
