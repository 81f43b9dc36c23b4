//! Experiment regenerators: every table and figure of the paper's
//! evaluation, as structured data plus plain-text renderers.
//!
//! Each `table*`/`fig*` module produces rows/series through the machine
//! models and simulations of the workspace, paired with the number the
//! paper reports so drift is visible at a glance. The `src/bin/`
//! executables are thin wrappers; `cargo run -p phi-bench --bin repro`
//! regenerates everything.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ablations;
mod experiments;
mod faults;
pub mod fleet;
mod format;
pub mod lintgate;
pub mod perfgate;
pub mod schedlint;
pub mod serve;
pub mod tune;
pub mod workloads;

pub use experiments::*;
pub use faults::{
    experiments_fault_section_md, fault_campaign_cluster_render, fault_campaign_render,
    paper_cluster,
};
pub use fleet::{fleet_render, FleetOptions};
pub(crate) use format::TextTable;
use phi_hpl::native::NativeScheme;
