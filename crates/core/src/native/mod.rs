//! Native Linpack: LU factorization running entirely on the coprocessor
//! (Section IV).
//!
//! * `numeric` — the real-arithmetic backend: the DAG-scheduled blocked
//!   LU of Fig. 5 executed by real thread groups over a shared matrix,
//!   validated against the sequential reference and the HPL residual.
//! * [`model`] — the timed backend: the *same* `DagScheduler` driven over
//!   `phi-des` virtual time with task durations from the KNC machine
//!   model, including super-stages with thread regrouping (the Fig. 6
//!   "dynamic scheduling" curve and the Fig. 7b Gantt chart).
//! * [`static_la`] — the static look-ahead baseline (Deisher et al.):
//!   per-stage thread partitioning with a global barrier between stages
//!   (the other Fig. 6 curve and Fig. 7a).

pub mod cluster;
pub mod model;
mod numeric;
pub mod static_la;

pub use cluster::{
    native_recovery_regimes, simulate_native_cluster, simulate_native_cluster_ft,
    NativeClusterConfig,
};
pub use model::simulate_dynamic;
pub use numeric::{factorize_parallel, solve_parallel};
use static_la::simulate_static;

use phi_knc::LuTaskModel;

/// Which native scheduling scheme to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NativeScheme {
    /// Global barrier between stages, static thread partitioning with
    /// minimal panel groups (Fig. 7a).
    StaticLookahead,
    /// DAG dynamic scheduling with super-stages and regrouping (Fig. 7b).
    DynamicScheduling,
}

/// Configuration of a native Linpack run (model backend).
#[derive(Clone, Copy, Debug)]
pub struct NativeConfig {
    /// Problem size.
    pub n: usize,
    /// Panel width (the LU block size; also the GEMM inner dimension).
    pub nb: usize,
    /// Task duration models.
    pub tasks: LuTaskModel,
    /// Total hardware threads (240 = 60 compute cores × 4).
    pub total_threads: usize,
    /// Initial (smallest) threads per group.
    pub min_group_threads: usize,
    /// Per-task dispatch overhead (critical section + group wakeup),
    /// seconds.
    pub dispatch_overhead_s: f64,
    /// Ablation hook: when set, disables super-stage regrouping and uses
    /// this fixed threads-per-group for the whole factorization (the
    /// "original implementation" of Buttari et al. that Section IV-A
    /// extends).
    pub fixed_group_threads: Option<usize>,
}

impl NativeConfig {
    /// Defaults for a given problem size: NB = 256, 60 × 4 threads,
    /// 16-thread (4-core) initial groups.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            nb: 256,
            tasks: LuTaskModel::default(),
            total_threads: 240,
            min_group_threads: 16,
            dispatch_overhead_s: 3e-6,
            fixed_group_threads: None,
        }
    }

    /// Number of column panels.
    pub fn npanels(&self) -> usize {
        self.n.div_ceil(self.nb)
    }

    /// Rows remaining at the start of stage `i`.
    pub fn rows_at(&self, stage: usize) -> usize {
        self.n.saturating_sub(stage * self.nb)
    }

    /// Width of panel `j` (the last panel may be ragged).
    fn panel_width(&self, j: usize) -> usize {
        self.nb.min(self.n - (j * self.nb).min(self.n))
    }

    /// Runs the configured simulation for a scheme.
    pub fn simulate(&self, scheme: NativeScheme) -> crate::report::GigaflopsReport {
        match scheme {
            NativeScheme::StaticLookahead => simulate_static(self, false),
            NativeScheme::DynamicScheduling => simulate_dynamic(self, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_geometry() {
        let c = NativeConfig::new(5120);
        assert_eq!(c.npanels(), 20);
        assert_eq!(c.rows_at(0), 5120);
        assert_eq!(c.rows_at(19), 256);
        assert_eq!(c.panel_width(19), 256);
        let ragged = NativeConfig {
            n: 5000,
            ..NativeConfig::new(5000)
        };
        assert_eq!(ragged.npanels(), 20);
        assert_eq!(ragged.panel_width(19), 5000 - 19 * 256);
    }
}
