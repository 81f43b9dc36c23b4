//! Result types shared by all Linpack flavours.

use phi_des::Kind;
use phi_fabric::RemapStrategy;

/// The FLOP count HPL credits a solved `N × N` system with:
/// `2/3 N³ + 3/2 N²` (factorization plus solve).
pub fn hpl_flops(n: usize) -> f64 {
    let n = n as f64;
    2.0 / 3.0 * n * n * n + 1.5 * n * n
}

/// Fault/recovery accounting attached to a run executed under a
/// [`phi_faults::FaultPlan`]-driven simulation — the degraded-vs-healthy
/// comparison the fault campaign reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSummary {
    /// Fingerprint of the plan that drove the run (replay identity).
    pub plan_fingerprint: u64,
    /// Scheduled fault events.
    pub events: usize,
    /// Coprocessors permanently lost during the run.
    pub cards_lost: usize,
    /// Host ranks permanently lost during the run.
    pub hosts_lost: usize,
    /// Grid the survivors re-formed after the last host death — only
    /// under a wholesale reshape (`(p, q)` of the fallback grid). A
    /// locality-preserving patch keeps the original grid and reports
    /// `None`.
    pub fallback_grid: Option<(usize, usize)>,
    /// Recovery remapping strategy the run was configured with.
    pub remap: RemapStrategy,
    /// Total `nb × nb` trailing blocks redistributed across all host
    /// deaths (the paper-table "redistribution volume" — a patch remap
    /// moves only the dead ranks' block-cyclic share, a wholesale
    /// reshape moves the whole trailing matrix).
    pub blocks_moved: usize,
    /// Total panel-checkpoint time paid, seconds.
    pub checkpoint_s: f64,
    /// Total recovery time (restore + §V re-division), seconds.
    pub recovery_s: f64,
    /// Stages executed with fewer cards than configured.
    pub degraded_stages: usize,
    /// Wall time of the identical configuration with no faults, seconds.
    pub healthy_time_s: f64,
    /// GFLOPS of the identical configuration with no faults.
    pub healthy_gflops: f64,
}

impl FaultSummary {
    /// Fractional slowdown versus the healthy run:
    /// `degraded_time / healthy_time - 1`.
    pub fn overhead_fraction(&self, degraded_time_s: f64) -> f64 {
        degraded_time_s / self.healthy_time_s - 1.0
    }
}

/// A performance result with its efficiency denominator.
#[derive(Clone, Debug)]
pub struct GigaflopsReport {
    /// Problem size.
    pub n: usize,
    /// Wall (virtual) time in seconds.
    pub time_s: f64,
    /// Achieved GFLOPS (HPL convention).
    pub gflops: f64,
    /// Peak GFLOPS the efficiency is measured against.
    pub peak_gflops: f64,
    /// Time per activity kind, when the run was traced.
    pub breakdown: Vec<(Kind, f64)>,
    /// Fault/recovery accounting, when the run was fault-injected.
    pub faults: Option<FaultSummary>,
}

impl GigaflopsReport {
    /// Builds a report from a timed run.
    pub fn new(n: usize, time_s: f64, peak_gflops: f64) -> Self {
        assert!(time_s > 0.0, "non-positive run time");
        Self {
            n,
            time_s,
            gflops: hpl_flops(n) / time_s / 1e9,
            peak_gflops,
            breakdown: Vec::new(),
            faults: None,
        }
    }

    /// Efficiency in `[0, 1]`.
    pub fn efficiency(&self) -> f64 {
        self.gflops / self.peak_gflops
    }

    /// Attaches a time breakdown.
    pub(crate) fn with_breakdown(mut self, breakdown: Vec<(Kind, f64)>) -> Self {
        self.breakdown = breakdown;
        self
    }

    /// Attaches fault accounting.
    pub(crate) fn with_faults(mut self, faults: FaultSummary) -> Self {
        self.faults = Some(faults);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_count_convention() {
        // 2/3 N³ dominates; the N² term matters at small N.
        let f = hpl_flops(30_000);
        assert!((f - (2.0 / 3.0 * 2.7e13 + 1.5 * 9e8)).abs() / f < 1e-12);
    }

    #[test]
    fn report_efficiency() {
        let r = GigaflopsReport::new(30_000, 21.63, 1056.0);
        // 2/3·30000³/21.63s ≈ 832 GFLOPS ≈ 78.8% — the paper's native
        // headline.
        assert!((r.gflops - 832.0).abs() < 2.0, "{}", r.gflops);
        assert!((r.efficiency() - 0.788).abs() < 0.003);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn zero_time_rejected() {
        GigaflopsReport::new(10, 0.0, 1.0);
    }

    #[test]
    fn fault_summary_accounting() {
        let healthy = GigaflopsReport::new(30_000, 20.0, 1056.0);
        let degraded = GigaflopsReport::new(30_000, 25.0, 1056.0).with_faults(FaultSummary {
            plan_fingerprint: 0xABCD,
            events: 3,
            cards_lost: 1,
            hosts_lost: 0,
            fallback_grid: None,
            remap: RemapStrategy::default(),
            blocks_moved: 0,
            checkpoint_s: 0.5,
            recovery_s: 1.0,
            degraded_stages: 7,
            healthy_time_s: healthy.time_s,
            healthy_gflops: healthy.gflops,
        });
        let f = degraded.faults.unwrap();
        assert!((f.overhead_fraction(degraded.time_s) - 0.25).abs() < 1e-12);
        assert!(healthy.faults.is_none());
    }
}
