//! Rank-level cluster DES: the hybrid HPL stage loop executed as a
//! `P × Q`-rank discrete-event simulation on the deterministic parallel
//! engine ([`phi_des::parallel`]).
//!
//! [`super::simulate_cluster`] charges every stage with the *worst* node's
//! extents and sums — fast, but it cannot express the real cluster
//! pipeline where the column holding stage `s + 1`'s panel starts
//! factoring while other columns are still updating stage `s`. This
//! module gives every grid rank its own logical process:
//!
//! * the owner column (`stage % Q`, block-cyclic) factors the panel and
//!   forwards it along the process-row ring with point-to-point network
//!   delays;
//! * every rank, once the panel has both arrived and its own previous
//!   stage finished, performs its local swap/DTRSM/U-broadcast share and
//!   trailing update sized by **its own** block-cyclic extents;
//! * stage costs come from the same stage model as the analytic path
//!   ([`super::stage`]), so the two are directly comparable.
//!
//! The conservative lookahead is the network latency — every cross-rank
//! message is a real wire message and can never arrive faster — which
//! makes the execution byte-identical at any `--threads` (the engine's
//! contract, pinned again here at cluster scale).

use super::{stage, HybridConfig, StageEnv};
use crate::report::GigaflopsReport;
use phi_des::parallel::{LogicalProcess, Mailbox, ParallelDes, ParallelReport};
use phi_fabric::GridCoord;

/// Messages between grid ranks.
#[derive(Clone, Copy, Debug)]
enum LuMsg {
    /// This rank is free to begin stage `s` (self-scheduled at the end of
    /// the previous stage's local work).
    Start(usize),
    /// The stage-`s` panel arriving over the row ring.
    Panel(usize),
}

/// One grid rank's logical process: per-stage costs precomputed from the
/// calibrated models, plus the panel/ready join state.
struct RankLu {
    nstages: usize,
    q: usize,
    my_q: usize,
    /// Linear rank of the next column in this process row's ring.
    next_rank: u32,
    /// Panel factorization cost per stage (0.0 unless this column owns).
    panel: Vec<f64>,
    /// Local swap + DTRSM + U-bcast + trailing update per stage.
    local: Vec<f64>,
    /// Row-ring forward delay of the stage's panel (one p2p hop).
    forward: Vec<f64>,
    /// Stages whose panel has already arrived.
    arrived: Vec<bool>,
    /// Stage this rank is idle-waiting a panel for, if any.
    pending: Option<usize>,
    /// Local completion time of the whole factorization.
    finished_at: f64,
}

impl RankLu {
    fn owns(&self, stage: usize) -> bool {
        stage % self.q == self.my_q
    }

    /// Forwards the stage-`s` panel one hop unless the next column is the
    /// owner (the ring is complete).
    fn forward_panel(&self, stage: usize, extra_delay: f64, out: &mut Mailbox<LuMsg>) {
        let next_col = (self.my_q + 1) % self.q;
        if self.q > 1 && next_col != stage % self.q {
            out.send(
                self.next_rank,
                extra_delay + self.forward[stage],
                LuMsg::Panel(stage),
            );
        }
    }
}

impl LogicalProcess for RankLu {
    type Msg = LuMsg;

    fn handle(&mut self, now: f64, msg: LuMsg, out: &mut Mailbox<LuMsg>) {
        match msg {
            LuMsg::Start(s) => {
                if s == self.nstages {
                    self.finished_at = now;
                } else if self.owns(s) {
                    // Factor, then ship the panel and run the local stage.
                    self.forward_panel(s, self.panel[s], out);
                    out.schedule(self.panel[s] + self.local[s], LuMsg::Start(s + 1));
                } else if self.arrived[s] {
                    out.schedule(self.local[s], LuMsg::Start(s + 1));
                } else {
                    self.pending = Some(s);
                }
            }
            LuMsg::Panel(s) => {
                self.arrived[s] = true;
                self.forward_panel(s, 0.0, out);
                if self.pending == Some(s) {
                    self.pending = None;
                    out.schedule(self.local[s], LuMsg::Start(s + 1));
                }
            }
        }
    }
}

/// Builds one [`RankLu`] per grid rank with all stage costs precomputed
/// by the shared stage model ([`stage::parts`]) — but sized by each
/// rank's *own* block-cyclic extents rather than the worst node's.
fn build_ranks(cfg: &HybridConfig) -> Vec<RankLu> {
    let s_total = cfg.n.div_ceil(cfg.nb);
    let env = StageEnv::healthy(cfg);
    let q = cfg.grid.q;

    let mut ranks = Vec::with_capacity(cfg.grid.size());
    for r in 0..cfg.grid.size() {
        let GridCoord { p: my_p, q: my_q } = cfg.grid.coord(r);
        let next_rank = cfg.grid.rank(GridCoord {
            p: my_p,
            q: (my_q + 1) % q,
        }) as u32;

        let mut panel = Vec::with_capacity(s_total);
        let mut local = Vec::with_capacity(s_total);
        let mut forward = Vec::with_capacity(s_total);
        for stage in 0..s_total {
            let rows_loc =
                (cfg.grid.trailing_blocks_row(my_p, stage + 1, s_total) * cfg.nb).min(cfg.n);
            let cols_loc =
                (cfg.grid.trailing_blocks_col(my_q, stage + 1, s_total) * cfg.nb).min(cfg.n);
            let parts = stage::parts(&env, stage, rows_loc, cols_loc);
            let (m_panel_loc, nb) = stage::panel_shape(cfg, cfg.grid.p, stage);

            panel.push(if stage % q == my_q { parts.panel } else { 0.0 });
            forward.push(cfg.net.p2p(8.0 * (m_panel_loc * nb) as f64));
            local.push(parts.swap + parts.trsm + parts.ubcast + parts.update);
        }

        ranks.push(RankLu {
            nstages: s_total,
            q,
            my_q,
            next_rank,
            panel,
            local,
            forward,
            arrived: vec![false; s_total],
            pending: None,
            finished_at: 0.0,
        });
    }
    ranks
}

/// Result of a rank-level cluster DES run.
#[derive(Clone, Debug)]
pub struct RankDesResult {
    /// Engine counters: events, windows, end time, and the thread-count-
    /// independent digest (compare digests across `threads` values to
    /// prove determinism at cluster scale).
    pub parallel: ParallelReport,
    /// End-to-end factorization time, seconds (latest rank completion).
    pub time_s: f64,
    /// Overall performance at that time.
    pub report: GigaflopsReport,
}

/// Runs the hybrid HPL stage loop as a `P × Q`-rank parallel DES on
/// `threads` workers. The result is byte-identical for every `threads`
/// value; per-rank extents make it a *tighter* (≤) estimate than the
/// worst-node analytic path under [`super::Lookahead::None`].
///
/// # Panics
/// Panics when the per-node share does not fit in host memory (same gate
/// as [`super::simulate_cluster`]).
pub fn simulate_cluster_rankdes(cfg: &HybridConfig, threads: usize) -> RankDesResult {
    super::assert_fits_host_memory(cfg);
    let ranks = build_ranks(cfg);
    let mut des = ParallelDes::new(ranks, cfg.net.latency);
    for r in 0..cfg.grid.size() {
        des.seed(r, 0.0, LuMsg::Start(0));
    }
    let parallel = des.run(threads);
    let time_s = (0..des.ranks())
        .map(|i| des.process(i).finished_at)
        .fold(0.0f64, f64::max);
    RankDesResult {
        parallel,
        time_s,
        report: GigaflopsReport::new(cfg.n, time_s, cfg.peak_gflops()),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{simulate_cluster, Lookahead};
    use super::*;
    use phi_fabric::ProcessGrid;

    fn cfg(n: usize, p: usize, q: usize, cards: usize) -> HybridConfig {
        let mut c = HybridConfig::new(n, ProcessGrid::new(p, q), cards);
        c.lookahead = Lookahead::None;
        c
    }

    #[test]
    fn single_node_matches_the_analytic_stage_sum_exactly() {
        // On a 1 × 1 grid there is no network, no pipeline, no overlap:
        // the DES must reproduce the analytic Lookahead::None total minus
        // its final back-substitution term, bit-for-bit modulo f64
        // summation order.
        let c = cfg(84_000, 1, 1, 1);
        let des = simulate_cluster_rankdes(&c, 1);
        let analytic = simulate_cluster(&c, false);
        let backsub =
            2.0 * (c.n as f64) * (c.n as f64) * 8.0 / (c.offload.host.cfg.stream_bw_gbs * 1e9);
        let expect = analytic.report.time_s - backsub;
        assert!(
            (des.time_s - expect).abs() / expect < 1e-9,
            "DES {} vs analytic stage sum {}",
            des.time_s,
            expect
        );
    }

    #[test]
    fn byte_identical_at_any_thread_count() {
        let c = cfg(168_000, 2, 2, 1);
        let one = simulate_cluster_rankdes(&c, 1);
        let two = simulate_cluster_rankdes(&c, 2);
        let eight = simulate_cluster_rankdes(&c, 8);
        assert_eq!(one.parallel, two.parallel);
        assert_eq!(one.parallel, eight.parallel);
        assert_eq!(one.time_s.to_bits(), two.time_s.to_bits());
        assert_eq!(one.time_s.to_bits(), eight.time_s.to_bits());
    }

    #[test]
    fn windowed_run_equals_the_sequential_reference() {
        let c = cfg(120_000, 2, 3, 1);
        let windowed = simulate_cluster_rankdes(&c, 4);
        let ranks = build_ranks(&c);
        let mut des = ParallelDes::new(ranks, c.net.latency);
        for r in 0..c.grid.size() {
            des.seed(r, 0.0, LuMsg::Start(0));
        }
        let seq = des.run_sequential();
        assert_eq!(windowed.parallel.events, seq.events);
        assert_eq!(windowed.parallel.digest, seq.digest);
        assert_eq!(windowed.parallel.end_time.to_bits(), seq.end_time.to_bits());
    }

    #[test]
    fn per_rank_extents_tighten_the_worst_node_analytic_bound() {
        // Column pipelining + own-extent sizing: the DES can only come in
        // at or under the serial worst-node sum, and not absurdly under.
        let c = cfg(168_000, 2, 2, 1);
        let des = simulate_cluster_rankdes(&c, 2);
        let analytic = simulate_cluster(&c, false);
        let ratio = des.time_s / analytic.report.time_s;
        assert!(
            (0.15..=1.02).contains(&ratio),
            "DES/analytic ratio {ratio:.3} ({} vs {})",
            des.time_s,
            analytic.report.time_s
        );
        // Sanity on the counters: every rank starts every stage, panels
        // traverse the ring.
        let s = c.n.div_ceil(c.nb) as u64;
        let min_events = (s + 1) * c.grid.size() as u64;
        assert!(
            des.parallel.events >= min_events,
            "{} events for {} stage-starts",
            des.parallel.events,
            min_events
        );
        assert!(des.report.efficiency() > 0.0 && des.report.efficiency() < 1.0);
    }

    #[test]
    fn tiny_grid_panel_ring_is_hand_checkable() {
        // 1 × 2 grid, 2 stages: rank 0 owns stage 0's panel, rank 1 owns
        // stage 1's. Rank 1 cannot start stage 0 before the panel crosses
        // the wire; the whole run must therefore take at least one p2p
        // delay plus the two local stages on the critical path.
        let c = cfg(2_400, 1, 2, 0);
        let des = simulate_cluster_rankdes(&c, 1);
        let ranks = build_ranks(&c);
        // Critical path: rank0 panel0 → wire → rank1 local0 → rank1
        // panel1 (then rank1 local1 is its only remaining work; rank0's
        // stage-1 wait is symmetric and shorter or equal).
        let r0 = &ranks[0];
        let r1 = &ranks[1];
        let path_r1 = r0.panel[0] + r0.forward[0] + r1.local[0] + r1.panel[1] + r1.local[1];
        let path_r0 = (r0.panel[0] + r0.forward[0] + r1.local[0] + r1.panel[1] + r1.forward[1])
            .max(r0.panel[0] + r0.local[0])
            + r0.local[1];
        let expect = path_r1.max(path_r0);
        assert!(
            (des.time_s - expect).abs() < 1e-12,
            "DES {} vs hand path {}",
            des.time_s,
            expect
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn memory_gate_enforced() {
        let _ = simulate_cluster_rankdes(&cfg(400_000, 1, 1, 1), 1);
    }
}
