"""System configuration for the Fifer reproduction.

The defaults reproduce Table 2 of the paper ("Configuration parameters of
the evaluated system"):

* 16 PEs at 2 GHz, each a 16x5 functional-unit mesh with a 32 KB L1
  (8-way, 4-cycle latency).
* Up to 16 queues per PE, virtualized on a 16 KB buffer.
* 1 or 4 Skylake-like out-of-order cores (6-wide issue, 32 KB L1,
  256 KB L2).
* Shared LLC: 2 MB/core or 512 KB/PE, 16-way, 40-cycle latency.
* Main memory: 120-cycle latency, 256 GB/s high-bandwidth memory.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

KB = 1024
MB = 1024 * KB


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    ways: int
    latency: int
    line_bytes: int = 64

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class FabricConfig:
    """The CGRA fabric inside each PE (paper Sec. 3 and Sec. 6).

    The fabric is a 16x5 grid of word-width functional units surrounded
    by switches, with 4 double-precision FMA units distributed evenly.
    The whole-fabric configuration is about 360 bytes, loaded from the
    L1 in 64-byte chunks (6 groups, Sec. 5.1).
    """

    cols: int = 16
    rows: int = 5
    fma_units: int = 4
    word_bytes: int = 8
    config_bytes: int = 360
    activation_cycles: int = 2

    @property
    def n_functional_units(self) -> int:
        return self.cols * self.rows

    @property
    def config_chunks(self) -> int:
        """Number of 64-byte chunks in one configuration bitstream."""
        return -(-self.config_bytes // 64)


@dataclass(frozen=True)
class MemoryConfig:
    """Main-memory (HBM) latency and bandwidth (paper Table 2)."""

    latency: int = 120
    # 256 GB/s at 2 GHz = 128 bytes per cycle.
    bandwidth_bytes_per_cycle: float = 128.0


@dataclass(frozen=True)
class OOOConfig:
    """Skylake-like out-of-order core model parameters (paper Sec. 7.1).

    The paper's cores are 6-wide OOO with 32 KB L1 and 256 KB L2. Our
    analytic model additionally needs an effective IPC for irregular
    integer code and a memory-level-parallelism factor bounding how many
    independent misses the backend overlaps.
    """

    # Measured IPC of tuned graph/sparse codes on Skylake-class cores is
    # well below the 6-wide issue width (branchy, dependence-limited).
    issue_width: int = 6
    effective_ipc: float = 1.8
    mlp_independent: float = 4.5
    mlp_dependent: float = 1.0
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(32 * KB, 8, 4))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(256 * KB, 8, 12))
    llc_per_core_bytes: int = 2 * MB
    barrier_cycles: int = 200


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration for the CGRA-based systems.

    ``queue_mem_bytes`` is the per-PE virtualized queue buffer; Fig. 16
    sweeps it from 1/4x to 4x of the default 16 KB. Silo uses 4 KB
    (paper Sec. 7.2). ``double_buffered`` selects Fifer's double-buffered
    configuration cells (Sec. 5.1); disabling it serializes configuration
    draining and loading (the "without double-buffering" line of Fig. 16).
    ``zero_cost_reconfig`` models the idealized design discussed at the
    end of Sec. 8.3.
    """

    n_pes: int = 16
    fabric: FabricConfig = field(default_factory=FabricConfig)
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(32 * KB, 8, 4))
    llc_per_pe_bytes: int = 512 * KB
    llc_ways: int = 16
    llc_latency: int = 40
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    queue_mem_bytes: int = 16 * KB
    max_queues_per_pe: int = 16
    n_drms: int = 4
    drm_max_outstanding: int = 8
    # Accesses a DRM can issue per cycle to its (banked) L1; keeps
    # SIMD-replicated datapaths fed (see DESIGN.md, known divergences).
    drm_issue_width: int = 4
    double_buffered: bool = True
    zero_cost_reconfig: bool = False
    scheduler_policy: str = "most-work"
    # Cap on SIMD datapath replication (paper Sec. 5.6); None lets each
    # stage replicate until it fills the fabric's columns. 1 disables
    # SIMD entirely (the ablation in bench_simd_ablation).
    max_simd_replication: "int | None" = None
    quantum: int = 64
    deadlock_quanta: int = 2_000
    # What-if speed factors for stage/DRM datapaths: ((name, factor),
    # ...) where ``name`` is a base component name ("bfs.fetch" matches
    # every "bfs.fetch@shard" replica) or an exact per-shard name, and
    # ``factor`` > 0 divides the component's cycle costs (queue I/O and
    # compute for stages, issue throughput for DRMs). Used by the causal
    # what-if validator (repro.profiling.whatif); the default () leaves
    # every cost expression untouched, bit for bit.
    stage_speedup: tuple = ()

    def __post_init__(self):
        if self.n_pes <= 0:
            raise ValueError(f"n_pes must be positive, got {self.n_pes}")
        if not self.quantum > 0 or self.quantum % 1 != 0:
            # Whole quanta keep the fast-forward's bulk charges exact
            # (ProcessingElement.fast_forward_quanta).
            raise ValueError(
                f"quantum must be a positive whole number of cycles, "
                f"got {self.quantum}")
        if self.queue_mem_bytes < 64:
            raise ValueError(
                f"queue memory of {self.queue_mem_bytes} bytes is too small")
        if self.n_drms < 0:
            raise ValueError(f"n_drms must be >= 0, got {self.n_drms}")
        if self.drm_issue_width <= 0:
            raise ValueError(
                f"drm_issue_width must be positive, got {self.drm_issue_width}")
        if self.drm_max_outstanding <= 0:
            raise ValueError(
                f"drm_max_outstanding must be positive, got "
                f"{self.drm_max_outstanding}")
        if self.max_queues_per_pe <= 0:
            raise ValueError(
                f"max_queues_per_pe must be positive, got "
                f"{self.max_queues_per_pe}")
        if self.deadlock_quanta <= 0:
            raise ValueError(
                f"deadlock_quanta must be positive, got "
                f"{self.deadlock_quanta}")
        if (self.max_simd_replication is not None
                and self.max_simd_replication < 1):
            raise ValueError("max_simd_replication must be >= 1 or None")
        for entry in self.stage_speedup:
            if (not isinstance(entry, tuple) or len(entry) != 2
                    or not isinstance(entry[0], str) or entry[1] <= 0):
                raise ValueError(
                    f"stage_speedup entries must be (stage_name, factor>0) "
                    f"tuples, got {entry!r}")

    def replace(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    @property
    def llc(self) -> CacheConfig:
        return CacheConfig(self.llc_per_pe_bytes * self.n_pes,
                           self.llc_ways, self.llc_latency)


DEFAULT_CONFIG = SystemConfig()
