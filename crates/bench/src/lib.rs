//! Experiment regenerators: every table and figure of the paper's
//! evaluation, as structured data plus plain-text renderers.
//!
//! Each `table*`/`fig*` module produces rows/series through the machine
//! models and simulations of the workspace, paired with the number the
//! paper reports so drift is visible at a glance. The `phi` binary
//! runs each regenerator, gate and campaign driver as a subcommand;
//! `cargo run --release --bin phi -- repro` regenerates everything.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod ablations;
mod cli;
mod emudiff;
mod experiments;
mod faults;
pub mod fleet;
mod format;
mod lintgate;
mod perfgate;
mod schedlint;
pub mod serve;
mod tune;
pub mod workloads;

pub use cli::run_cli;
pub use experiments::{table2_rows, table3_rows};
pub use faults::{
    experiments_fault_section_md, fault_campaign_cluster_render, fault_campaign_render,
    paper_cluster,
};
pub(crate) use format::TextTable;
use phi_hpl::native::NativeScheme;
