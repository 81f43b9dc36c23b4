//! `phi-hpl` — the paper's primary contribution, rebuilt in Rust.
//!
//! Three Linpack flavours, exactly as in Heinecke et al. (IPDPS 2013):
//!
//! * [`native`] — Linpack running *entirely on the coprocessor*
//!   (Section IV): blocked LU with partial pivoting scheduled dynamically
//!   over the compact panel DAG, with master-thread-only critical
//!   sections, super-stages and thread regrouping; plus the static
//!   look-ahead baseline it is compared against in Fig. 6/7.
//! * [`offload`] — the offload DGEMM engine (Section V-B, Fig. 10):
//!   tiles DMA'd over PCIe through memory-mapped queues, dynamic
//!   host/card work stealing from the two ends of the tile sequence,
//!   run-time tile-size selection, and partial-tile merging.
//! * [`hybrid`] — hybrid HPL (Section V): the host runs panel
//!   factorization, swapping, DTRSM and broadcasts while trailing updates
//!   are offloaded; three look-ahead schemes (none / basic / pipelined,
//!   Fig. 8) on one node or a P × Q cluster (Fig. 9, Table III).
//!
//! Every flavour exists in two backends sharing the scheduler code:
//!
//! * a **numeric backend** operating on real matrices via `phi-blas`
//!   (used at small N by tests and examples, validated with the HPL
//!   residual criterion), and
//! * a **model backend** in which the same control flow advances virtual
//!   time from the calibrated `phi-knc` / [`xeon`] machine models (used
//!   at paper scale by the benchmark regenerators).

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod distributed;
pub mod energy;
pub mod hpldat;
pub mod hybrid;
pub mod native;
pub mod offload;
pub mod refine;
pub mod report;
mod workload;
pub mod xeon;

pub use distributed::factorize_distributed;
pub use hpldat::HplDat;
pub use hybrid::{simulate_cluster_faulty, FtPolicy, HybridConfig, WorkDivision};
pub use native::{NativeConfig, NativeScheme};
pub use phi_fabric::RemapStrategy;
pub use report::{hpl_flops, GigaflopsReport};
pub use workload::{
    simulate_stencil_cluster, DgemmWorkload, SpmvWorkload, StencilClusterConfig,
    StencilClusterReport, StencilWorkload, Workload, WorkloadKind,
};
