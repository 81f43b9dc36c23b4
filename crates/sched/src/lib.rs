//! The paper's scheduling machinery (Section IV-A and V-B).
//!
//! Four pieces, each usable both by the real-thread numeric backend and
//! by the discrete-event model backend in `phi-hpl`:
//!
//! * `dag` — the compact one-dimensional DAG of LU panels: "we
//!   represent it as a one dimensional array of the length equal to the
//!   number of panels. Each element of the array stores the current stage
//!   of the panel." `available_task` implements the look-ahead rule: a
//!   panel whose updates are complete is factored immediately, ahead of
//!   the remaining trailing updates of the previous stage.
//! * `groups` — fixed thread groups in which only a single **master**
//!   thread enters the critical section to fetch work, "significantly
//!   reduc\[ing\] contention" on many-core parts; plus the group-local
//!   barrier the other threads wait on.
//! * `superstage` — the paper's extension for load balance: LU is cut
//!   into super-stages; groups are re-formed (grown) at super-stage
//!   boundaries so later, smaller stages still hide panel factorization.
//! * `steal` — the two-ended tile counter of offload DGEMM: the
//!   coprocessor steals tiles forward from `C00`, the host steals
//!   backward from the last tile, "until there are no more tiles to
//!   steal" (Section V-B).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod dag;
mod groups;
mod steal;
mod superstage;

pub use dag::{DagScheduler, Task};
pub use groups::{run_group_scheduled, GroupPlan};
pub use steal::TileDeque;
pub use superstage::{superstage_plan, SuperStage};
