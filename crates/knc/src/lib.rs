//! Knights Corner (KNC) substrate: the simulated replacement for the Intel
//! Xeon Phi coprocessor the paper runs on.
//!
//! Since no Phi hardware (or toolchain) exists in this environment, the
//! coprocessor is rebuilt as three cooperating layers:
//!
//! 1. [`isa`] + [`emu`] — an **instruction-level emulator** for the vector
//!    ISA subset the paper's DGEMM kernels use (Fig. 1–2): 512-bit fused
//!    multiply-add with `1to8`/`4to8` memory broadcast, in-flight register
//!    swizzles, aligned loads/stores and L1/L2 prefetches. Programs execute
//!    real `f64` arithmetic against real memory, so emulated kernels are
//!    verified bit-for-bit against `phi-blas`.
//! 2. [`cache`] + [`pipeline`] — a **cycle-level core model**: in-order
//!    dual-issue pipeline, 4-way round-robin SMT, two-ported L1 with the
//!    deferred-fill / threshold-stall prefetch semantics of Fig. 1c, and
//!    set-associative L1/L2 caches. This is the layer on which Basic
//!    Kernel 1 loses to Basic Kernel 2 (Section III-A2), for exactly the
//!    reason the paper gives: port conflicts between streaming FMAs and
//!    prefetch fills.
//! 3. [`chip`] — an **analytic chip model** that composes per-iteration
//!    cycle counts (calibrated from the emulator) with the paper's own
//!    overhead terms — C-tile update, packing traffic, L2 spill, tile
//!    quantization across 60 cores — to predict DGEMM/SGEMM efficiency at
//!    paper scale (Table II, Fig. 4) and to provide task durations for the
//!    discrete-event Linpack simulations (Fig. 6–9, Table III).
//!
//! The division of labour is deliberate: the emulator establishes the
//! *microarchitectural* constants from first principles; the chip model
//! scales them to matrices that would need terabytes if held in memory.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cache;
pub mod chip;
pub mod disasm;
pub mod emu;
pub mod isa;
pub mod kernels;
pub mod pipeline;
pub mod roofline;
pub mod spmv;
pub mod stencil;
pub mod tlb;
mod trace;

pub use chip::{GemmModel, KncChip, LuTaskModel, Precision};
pub use emu::CoreSim;
pub use isa::{Addr, BcastMode, Instr, Operand, Program, StreamId};
pub use kernels::{build_basic_kernel, run_tile_product, KernelReport};
pub use pipeline::PipelineConfig;
pub use roofline::{RooflineClass, RooflinePoint};
pub use spmv::{run_spmv, run_spmv_traced, Csr, SpmvReport};
pub use stencil::{run_stencil, StarStencil, StencilReport};
