//! Core pipeline parameters for the cycle-level model.
//!
//! The values mirror Section II of the paper and Intel's published KNC
//! microarchitecture details:
//!
//! * in-order core, **one vector instruction per cycle** (U-pipe);
//! * **dual-issue**: a prefetch or scalar instruction can co-issue with a
//!   vector instruction in the same cycle (V-pipe), which "removes these
//!   instructions from the critical path" — essential in loops with
//!   limited unrolling like the DGEMM inner loop;
//! * **4-way SMT round-robin**: a thread cannot issue in back-to-back
//!   cycles, so four hardware threads per core are used to keep the
//!   vector unit saturated (the paper's Fig. 2a decomposition);
//! * L1 hit latency 1 cycle, **local L2 hit latency under 25 cycles**
//!   (Section III-A2 — "we prefetch for the next iteration of the loop");
//! * prefetch fills need both L1 ports; if a port is busy the fill defers,
//!   and past a threshold the pipeline stalls a few cycles (Fig. 1c).

/// Tunable parameters of the simulated KNC core.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Hardware threads per core (KNC: 4).
    pub threads_per_core: usize,
    /// Cycles from L1-prefetch issue until the line arrives from a local
    /// L2 hit and the fill becomes attemptable (paper: "under 25 cycles").
    pub l2_hit_latency: u64,
    /// Cycles for a line absent from L2 (GDDR access).
    pub mem_latency: u64,
    /// Deferral cycles after which a blocked fill forces a pipeline stall
    /// (Fig. 1c "threshold cycles").
    pub fill_defer_threshold: u32,
    /// Pipeline stall length used to push a blocked fill through.
    pub fill_stall_cycles: u64,
    /// Stall charged when a *demand* access misses L1 but hits L2
    /// (mis-scheduled prefetching; the tuned kernels avoid this).
    pub demand_l2_penalty: u64,
    /// Stall charged when a demand access misses both levels.
    pub demand_mem_penalty: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            threads_per_core: 4,
            l2_hit_latency: 12,
            mem_latency: 230,
            fill_defer_threshold: 8,
            fill_stall_cycles: 2,
            demand_l2_penalty: 12,
            demand_mem_penalty: 230,
        }
    }
}

/// Knobs of the block-trace fast path ([`crate::trace`]). Kept separate
/// from [`PipelineConfig`] — they change *how fast the simulator runs*,
/// never what it computes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TraceConfig {
    /// Largest steady-state period, in macro-iterations, the template
    /// detector recognizes (software-pipelined kernels can alternate
    /// between a small cycle of distinct segment shapes).
    pub max_period: usize,
    /// Recorded segments retained for period detection; must exceed
    /// `2 * max_period` so a full double period fits.
    pub ring_cap: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            max_period: 4,
            ring_cap: 9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_defaults_are_consistent() {
        let t = TraceConfig::default();
        assert!(t.ring_cap > 2 * t.max_period);
    }

    #[test]
    fn defaults_match_paper_bounds() {
        let c = PipelineConfig::default();
        assert_eq!(c.threads_per_core, 4);
        assert!(c.l2_hit_latency < 25, "paper: local L2 hit under 25 cycles");
        assert!(c.mem_latency > c.l2_hit_latency);
    }
}
