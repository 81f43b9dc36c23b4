//! Communication substrate for the hybrid and multi-node Linpack
//! flavours.
//!
//! * `pcie` — the host ↔ coprocessor path: the PCIe parameters with
//!   the paper's effective-bandwidth distinction (6 GB/s nominal, ≈4 GB/s
//!   when DMA competes with swapping and host DGEMM for memory bandwidth
//!   — footnote 4), plus the memory-mapped request/response queues of
//!   Fig. 10b through which the host enqueues offload-DGEMM work and the
//!   card polls for it.
//! * `grid` — the P × Q process grid of HPL: coordinate algebra,
//!   block-cyclic ownership, and ring orderings for broadcasts.
//! * `net` — the FDR InfiniBand model and analytic times for the two
//!   collectives hybrid HPL exposes on its critical path: the panel
//!   broadcast along a process row and the `U`/swap exchange along a
//!   process column (Section V-A's "U broadcast" and "row swapping").
//! * [`schedule`] — the same collectives materialized as message-level
//!   send/recv programs (`CommSchedule`), routed around dead ranks,
//!   so `phi-lint`'s schedule passes can prove every plan the
//!   simulators emit deadlock-free before its analytic time is charged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod grid;
mod net;
mod pcie;
pub mod schedule;

pub use grid::{GridCoord, PatchRemap, ProcessGrid, RemapStrategy};
pub use net::{ceil_log2, BcastScheme, HaloSpec, NetModel};
pub use pcie::{MmQueue, PcieConfig};
pub use schedule::{ScheduleBuilder, ScheduleShape};
