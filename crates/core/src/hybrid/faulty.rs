//! Fault-tolerant hybrid cluster execution under an injected
//! [`FaultPlan`].
//!
//! [`simulate_cluster_faulty`] drives the same per-stage model as
//! [`super::simulate_cluster`] ([`super::stage`]), but before each stage
//! it samples the plan's aggregate [`Effects`] over the stage's time
//! window and hands the stage perturbed copies of the calibrated
//! machine models:
//!
//! * **Link degradation / latency jitter** — the stage's
//!   [`NetModel`](phi_fabric::NetModel) is replaced by
//!   [`NetModel::degraded`](phi_fabric::NetModel::degraded), slowing
//!   the panel broadcast, long swap and `U` broadcast.
//! * **PCIe CRC-retry storms** — the offload model's
//!   [`PcieConfig`](phi_fabric::PcieConfig) is replaced by
//!   [`PcieConfig::with_crc_stall`](phi_fabric::PcieConfig::with_crc_stall),
//!   with the per-DMA stall amortized into a bandwidth derate at the
//!   strip-transfer cadence.
//! * **Stragglers** — the card's [`KncChip`](phi_knc::KncChip) is
//!   throttled through
//!   [`KncChip::with_straggler`](phi_knc::KncChip::with_straggler),
//!   dragging the trailing-update rate.
//! * **Card death** — permanent. Deaths take effect at the next panel
//!   boundary: the run pays a recovery cost (checkpoint restore, or
//!   replay of the in-flight stage when checkpointing is off, plus the
//!   §V re-division of work), then continues with fewer cards. When the
//!   last card dies the update falls back to the host-only branch — the
//!   paper's dynamic work-division rebalance with the card share forced
//!   to zero — and the factorization still completes.
//! * **Host-rank death** — permanent, also applied at the next panel
//!   boundary. Recovery remapping follows [`FtPolicy::remap`]:
//!
//!   * [`RemapStrategy::Patch`] (the default) is locality-preserving —
//!     survivors keep their block ownership and only the dead ranks'
//!     block-cyclic share of the trailing matrix moves
//!     ([`ProcessGrid::patch_remap`]), roughly a `1/(P·Q)` fraction of
//!     what a reshape would ship. The grid keeps its shape, so the
//!     surviving ranks absorb the dead coordinates' work as a per-stage
//!     [`ProcessGrid::patch_imbalance`] factor on the trailing update.
//!     When deaths exceed the patchable budget (more than `size/8`
//!     ranks down, mirroring the fallback grid's idle allowance) the
//!     run degrades to a wholesale reshape from that boundary on.
//!   * [`RemapStrategy::Wholesale`] re-forms a (possibly smaller)
//!     [`ProcessGrid::fallback_grid`] and redistributes the whole
//!     trailing matrix to the new block-cyclic ownership.
//!
//!   Either way the dead ranks' share of the factored state is restored
//!   from panel checkpoints streamed over the fabric (or recomputed
//!   outright when checkpointing is off) and the factorization
//!   continues; the blocks shipped are reported as
//!   [`FaultSummary::blocks_moved`].
//!
//! Panel-granular checkpointing ([`FtPolicy::checkpoint_panels`]) adds
//! its write cost to every stage; that is the premium paid for cheap
//! recovery.
//!
//! **Determinism and the healthy identity.** Every perturbation reduces
//! to `× 1.0` / `+ 0.0` under [`Effects::healthy`], so a run under
//! [`FaultPlan::none`] (with [`FtPolicy::none`]) reproduces the
//! unfaulted [`super::simulate_cluster`] *bit-identically* — and any
//! plan replays bit-identically from its seed. Both properties are
//! locked by tests.

use super::{simulate_cluster, stage, ClusterResult, HybridConfig, IterationProfile, StageEnv};
use crate::offload::OffloadModel;
use crate::report::{FaultSummary, GigaflopsReport};
use phi_des::{Kind, Trace};
use phi_fabric::{NetModel, PatchRemap, ProcessGrid, RemapStrategy, ScheduleShape};
use phi_faults::{Effects, FaultPlan, Fnv};

/// Bandwidth at which checkpoints are written, bytes/s (host memory
/// copy to a retained region; well above PCIe, below STREAM).
const CHECKPOINT_BW: f64 = 8e9;
/// Fixed cost of one §V dynamic work re-division after a card loss
/// (draining queues, re-partitioning tiles, re-arming DMA).
const REBALANCE_S: f64 = 0.25;
/// Per-link bandwidth at which the trailing matrix is redistributed
/// after a host death, bytes/s. Survivors pull in parallel, so the
/// aggregate rate is `survivors ×` this.
const REDISTRIBUTION_BW: f64 = 6.8e9;

/// Fault-tolerance policy of the run: what the cluster pays up front
/// (checkpoints) and what recovery costs when a card dies.
#[derive(Clone, Copy, Debug)]
pub struct FtPolicy {
    /// Write a checkpoint of every factored panel (plus pivots) so a
    /// card death only loses the in-flight stage's update, not the
    /// whole factorization state.
    pub checkpoint_panels: bool,
    /// How surviving ranks re-own the dead ranks' blocks after a host
    /// death: a locality-preserving patch (default) or a wholesale
    /// reshape onto a fallback grid.
    pub remap: RemapStrategy,
    /// Cumulative host deaths the patch remap absorbs before the
    /// survivors reshape wholesale. `None` (the default) keeps the
    /// historical allowance of an eighth of the grid — the same 1/8 idle
    /// fraction the fallback grid tolerates; fleet campaigns sweep
    /// explicit budgets to find the threshold maximizing expected
    /// throughput.
    pub death_budget: Option<usize>,
}

impl FtPolicy {
    /// No checkpointing: recovery must replay the lost stage.
    pub fn none() -> Self {
        Self {
            checkpoint_panels: false,
            remap: RemapStrategy::default(),
            death_budget: None,
        }
    }

    /// The same policy with the given recovery remapping strategy.
    pub fn with_remap(mut self, remap: RemapStrategy) -> Self {
        self.remap = remap;
        self
    }

    /// The same policy with an explicit patch death budget.
    pub fn with_death_budget(mut self, budget: usize) -> Self {
        self.death_budget = Some(budget);
        self
    }
}

impl Default for FtPolicy {
    /// Panel checkpointing on, 8 GB/s checkpoint stream, 250 ms
    /// re-division.
    fn default() -> Self {
        Self {
            checkpoint_panels: true,
            ..Self::none()
        }
    }
}

/// Outcome of a fault-injected cluster run.
#[derive(Clone, Debug)]
pub struct FaultyClusterResult {
    /// The degraded run; `result.report.faults` carries the summary.
    pub result: ClusterResult,
    /// Span trace including [`Kind::Fault`] windows and
    /// [`Kind::Recovery`] work (lane 0 host, lane 1 card, lane 2
    /// faults).
    pub trace: Trace,
}

impl FaultyClusterResult {
    /// A replay fingerprint over the plan and the run's exact timing
    /// bits: two runs are the same execution iff these are equal.
    pub fn run_fingerprint(&self) -> u64 {
        let r = &self.result.report;
        let mut h = r
            .faults
            .map_or_else(Fnv::new, |f| Fnv::resume(f.plan_fingerprint));
        h.write_u64(r.time_s.to_bits());
        h.write_u64(r.gflops.to_bits());
        h.finish()
    }
}

/// The offload model under the stage's fault effects: CRC stalls
/// amortized into a bandwidth derate at the strip-transfer cadence,
/// stragglers dragging the card clock. Bit-identical to `offload` under
/// [`Effects::healthy`].
fn perturbed_offload(offload: &OffloadModel, nb: usize, eff: &Effects) -> OffloadModel {
    let mut off = *offload;
    let typical_xfer_s = 8.0 * (nb * off.kt) as f64 / off.pcie.effective_bw;
    let retry_fraction = (eff.pcie_stall_s / typical_xfer_s).min(0.9);
    off.pcie = off.pcie.with_crc_stall(eff.pcie_stall_s, retry_fraction);
    off.card.chip = off.card.chip.with_straggler(1.0, eff.compute_slowdown);
    off
}

/// Runs the hybrid cluster simulation under `plan`, tolerating every
/// fault the plan throws at it (the factorization always completes —
/// at worst on the hosts alone).
///
/// # Panics
/// Panics when the per-node share does not fit in host memory, exactly
/// as [`super::simulate_cluster`] does.
pub fn simulate_cluster_faulty(
    cfg: &HybridConfig,
    plan: &FaultPlan,
    policy: &FtPolicy,
    keep_profiles: bool,
) -> FaultyClusterResult {
    super::assert_fits_host_memory(cfg);
    let s = cfg.n.div_ceil(cfg.nb);

    let mut trace = Trace::default();
    trace.enable();

    let mut total = 0.0f64;
    let mut card_busy_total = 0.0f64;
    let mut profiles = Vec::new();

    let mut deaths_applied = 0usize;
    let mut degraded_stages = 0usize;
    let mut checkpoint_s = 0.0f64;
    let mut recovery_s = 0.0f64;
    let mut prev_update = 0.0f64;
    let mut weighted_cards = 0.0f64;
    let mut blocks_moved = 0usize;
    // Host deaths applied so far and the shape the survivors form: the
    // original grid with patched-out ranks, or a fallback grid.
    let mut hosts = DeathStep::hybrid(cfg.grid, plan, policy);

    for stage in 0..s {
        let nb = cfg.nb.min(cfg.n - stage * cfg.nb);

        // Deaths take effect at panel boundaries: a card that died during
        // the previous stage is mourned (recovery paid) here.
        let deaths_now = plan.effects_at(total).cards_lost.min(cfg.cards_per_node);
        if deaths_now > deaths_applied {
            let newly_dead = deaths_now - deaths_applied;
            let restore = if policy.checkpoint_panels {
                // Reload factorization state from the panel checkpoints.
                8.0 * ((cfg.n / hosts.shape().grid.p).max(nb) * nb) as f64 / CHECKPOINT_BW
            } else {
                // No checkpoint: the in-flight stage's update replays.
                prev_update
            };
            let cost = newly_dead as f64 * (REBALANCE_S + restore);
            trace.record(2, total, total + cost, Kind::Recovery);
            total += cost;
            recovery_s += cost;
            deaths_applied = deaths_now;
        }
        let cards_avail = cfg.cards_per_node - deaths_applied;

        // Host-rank deaths, also at panel boundaries: restore the dead
        // ranks' factored state over the fabric (or recompute it without
        // checkpoints), then ship the trailing blocks the step moves —
        // the dead ranks' patch, or the whole matrix onto a fallback grid.
        if let Some(t) = hosts.apply(plan.effects_at(total).hosts_lost) {
            let factored_cols = (stage * cfg.nb).min(cfg.n);
            let restore = if policy.checkpoint_panels {
                // The dead ranks' block-cyclic share of the factored
                // state streams from checkpoint replicas over the fabric.
                8.0 * factored_cols as f64 * cfg.n as f64 * t.newly as f64
                    / cfg.grid.size() as f64
                    / cfg.net.bandwidth
            } else {
                // No checkpoint: the dead ranks' share of everything done
                // so far is recomputed by the survivors.
                total * t.newly as f64 / cfg.grid.size() as f64
            };
            let (blocks, elements) = t.moved(stage, s, cfg.nb, cfg.n);
            blocks_moved += blocks;
            let redistribution = 8.0 * elements / (t.survivors as f64 * REDISTRIBUTION_BW);
            let cost = t.newly as f64 * REBALANCE_S + restore + redistribution;
            trace.record(2, total, total + cost, Kind::Recovery);
            total += cost;
            recovery_s += cost;
        }
        if cards_avail < cfg.cards_per_node || hosts.applied() > 0 {
            degraded_stages += 1;
        }
        // The live grid: every stage prices against the grid the
        // survivors actually form. Patched (not reshaped) grids run
        // load-imbalanced: survivors carry the dead coordinates'
        // trailing work. Exactly 1.0 with no patched deaths.
        let shape = hosts.shape();
        let grid = shape.grid;
        let imbalance = if shape.reshaped {
            1.0
        } else {
            cfg.grid.patch_imbalance(shape.dead_ranks.len())
        };

        // Two-pass effects sampling: estimate the stage on the healthy
        // models, then average the plan's transient windows over that
        // estimate and price it again on the perturbed copies.
        // Deterministic, and exact when no window straddles the stage
        // boundary.
        let (rows_loc, cols_loc) = stage::worst_extents(grid, cfg.n, cfg.nb, stage);
        let price = |net: &NetModel, offload: &OffloadModel| {
            let env = StageEnv {
                cfg,
                grid,
                net,
                offload,
                cards: cards_avail,
            };
            let mut parts = stage::parts(&env, stage, rows_loc, cols_loc);
            // Patched-out ranks: each survivor shoulders `imbalance ×` its
            // own trailing share (and its card stays busy proportionally
            // longer). Exactly `× 1.0` with no patched deaths.
            parts.update *= imbalance;
            parts.busy *= imbalance;
            (parts, parts.compose(cfg.lookahead))
        };
        let (_, (est_time, _, _)) = price(&cfg.net, &cfg.offload);
        let eff = plan.effects_over(total, total + est_time);
        let (parts, (stage_time, three_exposed, panel_exposed)) = price(
            &cfg.net.degraded(eff.net_bw_factor, eff.extra_latency_s),
            &perturbed_offload(&cfg.offload, cfg.nb, &eff),
        );

        trace.record(0, total, total + panel_exposed + three_exposed, Kind::Panel);
        trace.record(
            1,
            total + (stage_time - parts.update).max(0.0),
            total + stage_time,
            Kind::Gemm,
        );

        total += stage_time;
        card_busy_total += parts.busy;
        weighted_cards += stage_time * cards_avail as f64;
        prev_update = parts.update;

        if policy.checkpoint_panels {
            // Panel-granular checkpoint: the factored m × nb panel and
            // its pivots are copied to a retained host region before the
            // stage retires.
            let (m_panel_loc, _) = stage::panel_shape(cfg, grid.p, stage);
            let ckpt = (8.0 * (m_panel_loc * nb) as f64 + 8.0 * nb as f64) / CHECKPOINT_BW;
            trace.record(0, total, total + ckpt, Kind::Comm);
            total += ckpt;
            checkpoint_s += ckpt;
        }

        if keep_profiles {
            profiles.push(IterationProfile {
                stage,
                trailing_n: cfg.n - stage * cfg.nb,
                stage_time,
                card_busy: parts.busy,
                panel_exposed,
                three_exposed,
                update: parts.update,
            });
        }
    }

    let shape = hosts.shape();
    total += super::backsub_time_s(cfg, shape.grid);

    // Fault windows on the fault lane, clipped to the run.
    for ev in plan.events() {
        let end = if ev.kind.is_permanent() {
            total
        } else {
            (ev.at_s + ev.kind.duration_s()).min(total)
        };
        if ev.at_s < total {
            trace.record(2, ev.at_s, end, Kind::Fault);
        }
    }

    let healthy = simulate_cluster(cfg, false);
    let peak = cfg.peak_gflops();
    let report = GigaflopsReport::new(cfg.n, total, peak).with_faults(FaultSummary {
        plan_fingerprint: plan.fingerprint(),
        events: plan.events().len(),
        cards_lost: deaths_applied,
        hosts_lost: hosts.applied(),
        fallback_grid: shape.reshaped.then_some((shape.grid.p, shape.grid.q)),
        remap: policy.remap,
        blocks_moved,
        checkpoint_s,
        recovery_s,
        degraded_stages,
        healthy_time_s: healthy.report.time_s,
        healthy_gflops: healthy.report.gflops,
    });
    // Idle accounting against the cards actually alive per stage.
    let card_idle_fraction = if cfg.cards_per_node > 0 && weighted_cards > 0.0 {
        (1.0 - card_busy_total / weighted_cards).max(0.0)
    } else {
        0.0
    };
    FaultyClusterResult {
        result: ClusterResult {
            report,
            iterations: profiles,
            card_idle_fraction,
        },
        trace,
    }
}

/// Every communication-grid regime `simulate_cluster_faulty` can route
/// through under `plan` and `policy`, in the order entered: the healthy
/// grid, then one [`ScheduleShape`] per applied host death that changes
/// it — patched shapes accumulate dead ranks on the original grid; once
/// the death budget is blown (or under [`RemapStrategy::Wholesale`]) the
/// shapes switch to fallback grids that shrink with the survivor count.
///
/// The shapes come from the fault loop's own death step, fed the plan's
/// deaths one per boundary — the finest batching the simulator can
/// experience — so verifying every shape returned here proves any
/// coarser batching safe. This is the contract the `schedule-lint` gate
/// checks: each shape's broadcast/swap plans must verify deadlock-free
/// before the simulator's analytic times mean anything.
pub fn recovery_regimes(
    cfg: &HybridConfig,
    plan: &FaultPlan,
    policy: &FtPolicy,
) -> Vec<ScheduleShape> {
    DeathStep::hybrid(cfg.grid, plan, policy).regimes()
}

/// The host-death recovery policy, written once: how many death events
/// have applied and the [`ScheduleShape`] the survivors form. Both fault
/// loops apply the plan's deaths through it at panel boundaries and
/// price the [`Transition`] it returns; both regime lists feed it the
/// same deaths one per boundary and collect the shapes — so the shapes
/// `schedule-lint` proves are the shapes the simulators price.
///
/// Death *events*, not distinct ranks, count toward the survivors and
/// the budget, and at most `size − 1` apply: a survivor remains.
#[derive(Debug)]
pub(crate) struct DeathStep {
    /// Ranks of the original grid.
    size: usize,
    /// The plan's dying ranks, onset-ordered and folded into the grid.
    ranks: Vec<usize>,
    /// How the trailing matrix reaches its new owners.
    remap: RemapStrategy,
    /// Cumulative deaths a patch absorbs before the survivors reshape
    /// onto a fallback grid; `None` never reshapes.
    budget: Option<usize>,
    /// Death events applied so far.
    applied: usize,
    /// The live shape: the original grid with the patched-out ranks, or
    /// a fallback grid once reshaped.
    shape: ScheduleShape,
}

/// What one death boundary did, for the fault loop to price.
#[derive(Debug)]
pub(crate) struct Transition<'a> {
    /// Death events applied at this boundary.
    pub(crate) newly: usize,
    /// Ranks left after every death event so far.
    pub(crate) survivors: usize,
    /// The grid the patched ranks are dealt on.
    grid: ProcessGrid,
    /// The distinct ranks newly patched out; `None` when the whole
    /// trailing matrix moves instead.
    patched: Option<&'a [usize]>,
}

impl DeathStep {
    /// The hybrid policy: host deaths only. Survivors patch while
    /// `policy.remap` is [`RemapStrategy::Patch`] and the cumulative
    /// deaths fit the budget — by default an eighth of the grid, the
    /// idle allowance the fallback grid tolerates — and reshape onto a
    /// fallback grid from the first boundary past it.
    pub(crate) fn hybrid(grid: ProcessGrid, plan: &FaultPlan, policy: &FtPolicy) -> Self {
        let budget = policy.death_budget.unwrap_or(grid.size() / 8);
        let ranks = plan.host_death_ranks(grid.size());
        Self::new(grid, ranks, policy.remap, Some(budget))
    }

    /// The native policy: a node *is* a card, so every death costs a
    /// rank, and the grid never reshapes — `remap` only decides whether
    /// the dead ranks' patch or the whole trailing matrix travels.
    pub(crate) fn native(grid: ProcessGrid, plan: &FaultPlan, remap: RemapStrategy) -> Self {
        Self::new(grid, plan.node_death_ranks(grid.size()), remap, None)
    }

    fn new(
        grid: ProcessGrid,
        ranks: Vec<usize>,
        remap: RemapStrategy,
        budget: Option<usize>,
    ) -> Self {
        Self {
            size: grid.size(),
            ranks,
            remap,
            budget,
            applied: 0,
            shape: ScheduleShape::healthy(grid),
        }
    }

    /// Death events applied so far.
    pub(crate) fn applied(&self) -> usize {
        self.applied
    }

    /// The shape the survivors form now.
    pub(crate) fn shape(&self) -> &ScheduleShape {
        &self.shape
    }

    /// Applies the plan's first `deaths` death events, capped so a
    /// survivor remains. Returns the transition when any of them is new.
    pub(crate) fn apply(&mut self, deaths: usize) -> Option<Transition<'_>> {
        let deaths = deaths.min(self.size.saturating_sub(1));
        if deaths <= self.applied {
            return None;
        }
        let survivors = self.size - deaths;
        let patch = self.remap == RemapStrategy::Patch
            && !self.shape.reshaped
            && self.budget.is_none_or(|b| deaths <= b);
        let first = self.shape.dead_ranks.len();
        if patch || self.budget.is_none() {
            for &rank in &self.ranks[self.applied..deaths] {
                if !self.shape.dead_ranks.contains(&rank) {
                    self.shape.dead_ranks.push(rank);
                }
            }
        } else {
            self.shape = ScheduleShape {
                grid: ProcessGrid::fallback_grid(survivors),
                dead_ranks: Vec::new(),
                reshaped: true,
            };
        }
        let newly = deaths - self.applied;
        self.applied = deaths;
        Some(Transition {
            newly,
            survivors,
            grid: self.shape.grid,
            patched: patch.then(|| &self.shape.dead_ranks[first..]),
        })
    }

    /// Every shape the survivors pass through when the plan's deaths land
    /// one per boundary, in the order entered, starting healthy.
    pub(crate) fn regimes(mut self) -> Vec<ScheduleShape> {
        let mut shapes = vec![self.shape.clone()];
        for deaths in 1..=self.ranks.len() {
            if self.apply(deaths).is_some() && shapes.last() != Some(&self.shape) {
                shapes.push(self.shape.clone());
            }
        }
        shapes
    }
}

impl Transition<'_> {
    /// Trailing-matrix blocks and elements that reach new owners at
    /// `stage` of `stages` (order `n`, blocks of `nb`): the newly dead
    /// ranks' block-cyclic share when patched, the whole trailing
    /// matrix otherwise.
    pub(crate) fn moved(&self, stage: usize, stages: usize, nb: usize, n: usize) -> (usize, f64) {
        let Some(ranks) = self.patched else {
            let trailing = (n - (stage * nb).min(n)) as f64;
            return (
                PatchRemap::wholesale_trailing_blocks(stage, stages),
                trailing * trailing,
            );
        };
        let (mut blocks, mut elements) = (0, 0.0f64);
        for &rank in ranks {
            let r = self.grid.patch_remap(rank);
            blocks += r.moved_trailing_blocks(stage, stages);
            elements += r.moved_trailing_elements(stage, stages, nb, n);
        }
        (blocks, elements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_faults::FaultKind;

    fn cfg(n: usize, p: usize, q: usize, cards: usize) -> HybridConfig {
        HybridConfig::new(n, ProcessGrid::new(p, q), cards)
    }

    #[test]
    fn zero_fault_run_is_bit_identical_to_baseline() {
        for (n, p, q, cards) in [(84_000, 1, 1, 1), (168_000, 2, 2, 2), (84_000, 1, 1, 0)] {
            let c = cfg(n, p, q, cards);
            let base = simulate_cluster(&c, false);
            let ft = simulate_cluster_faulty(&c, &FaultPlan::none(), &FtPolicy::none(), false);
            assert_eq!(
                ft.result.report.time_s.to_bits(),
                base.report.time_s.to_bits(),
                "time diverged on {n}/{p}x{q}/{cards}"
            );
            assert_eq!(
                ft.result.report.gflops.to_bits(),
                base.report.gflops.to_bits()
            );
            let f = ft.result.report.faults.unwrap();
            assert_eq!((f.events, f.cards_lost, f.degraded_stages), (0, 0, 0));
            assert_eq!(f.checkpoint_s, 0.0);
            assert_eq!(f.recovery_s, 0.0);
        }
    }

    #[test]
    fn card_death_mid_run_completes_degraded() {
        // Kill the only card a third of the way through: the run must
        // complete (host-only fallback) and cost real time.
        let c = cfg(84_000, 1, 1, 1);
        let healthy = simulate_cluster(&c, false);
        let t_kill = healthy.report.time_s / 3.0;
        let plan = FaultPlan::none().with_event(t_kill, FaultKind::CardDeath { card: 0 });
        let ft = simulate_cluster_faulty(&c, &plan, &FtPolicy::default(), true);
        let r = &ft.result.report;
        let f = r.faults.unwrap();
        assert_eq!(f.cards_lost, 1);
        assert!(f.degraded_stages > 0, "post-death stages must be degraded");
        assert!(f.recovery_s > 0.0);
        assert!(
            r.time_s > 1.5 * healthy.report.time_s,
            "host-only tail must hurt: {:.1}s vs healthy {:.1}s",
            r.time_s,
            healthy.report.time_s
        );
        // But it finishes, and far faster than an all-host run from t=0
        // would relative to never having had a card... sanity: efficiency
        // is positive and below healthy.
        assert!(r.efficiency() > 0.0 && r.efficiency() < healthy.report.efficiency());
        // The trace carries fault and recovery spans.
        let kinds: Vec<Kind> = ft.trace.spans().iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&Kind::Fault));
        assert!(kinds.contains(&Kind::Recovery));
    }

    #[test]
    fn transient_degradation_costs_less_than_death() {
        let c = cfg(168_000, 2, 2, 1);
        let healthy = simulate_cluster(&c, false);
        let mid = healthy.report.time_s / 2.0;
        let transient = FaultPlan::none().with_event(
            mid,
            FaultKind::LinkDegrade {
                factor: 0.3,
                duration_s: healthy.report.time_s / 4.0,
            },
        );
        let lethal = FaultPlan::none().with_event(mid, FaultKind::CardDeath { card: 0 });
        let pol = FtPolicy::none();
        let t_trans = simulate_cluster_faulty(&c, &transient, &pol, false)
            .result
            .report
            .time_s;
        let t_death = simulate_cluster_faulty(&c, &lethal, &pol, false)
            .result
            .report
            .time_s;
        assert!(t_trans > healthy.report.time_s, "degradation costs time");
        assert!(t_death > t_trans, "death costs more than a flapping link");
    }

    #[test]
    fn straggler_and_crc_storm_slow_the_update() {
        let c = cfg(84_000, 1, 1, 1);
        let healthy = simulate_cluster(&c, false);
        let plan = FaultPlan::none()
            .with_event(
                0.0,
                FaultKind::Straggler {
                    core_fraction: 0.25,
                    slowdown: 2.0,
                    duration_s: healthy.report.time_s * 2.0,
                },
            )
            .with_event(
                0.0,
                FaultKind::PcieCrcStorm {
                    stall_s: 100e-6,
                    duration_s: healthy.report.time_s * 2.0,
                },
            );
        let ft = simulate_cluster_faulty(&c, &plan, &FtPolicy::none(), false);
        assert!(ft.result.report.time_s > healthy.report.time_s);
        assert_eq!(ft.result.report.faults.unwrap().cards_lost, 0);
    }

    #[test]
    fn checkpointing_costs_time_but_caps_recovery() {
        let c = cfg(84_000, 1, 1, 1);
        let healthy = simulate_cluster(&c, false);
        let t_kill = healthy.report.time_s * 0.6;
        let plan = FaultPlan::none().with_event(t_kill, FaultKind::CardDeath { card: 0 });
        let with_ck = simulate_cluster_faulty(&c, &plan, &FtPolicy::default(), false);
        let without = simulate_cluster_faulty(&c, &plan, &FtPolicy::none(), false);
        let f_ck = with_ck.result.report.faults.unwrap();
        let f_no = without.result.report.faults.unwrap();
        assert!(f_ck.checkpoint_s > 0.0 && f_no.checkpoint_s == 0.0);
        // Restoring a checkpoint is cheaper than replaying the lost stage.
        assert!(f_ck.recovery_s < f_no.recovery_s);
    }

    #[test]
    fn host_death_remaps_grid_and_completes() {
        // Kill one of four hosts a third of the way through: the three
        // survivors re-form a 1×3 grid and finish the factorization.
        let c = cfg(168_000, 2, 2, 1);
        let healthy = simulate_cluster(&c, false);
        let t_kill = healthy.report.time_s / 3.0;
        let plan = FaultPlan::none().with_event(t_kill, FaultKind::HostDeath { rank: 3 });
        let ft = simulate_cluster_faulty(&c, &plan, &FtPolicy::default(), false);
        let r = &ft.result.report;
        let f = r.faults.unwrap();
        assert_eq!(f.hosts_lost, 1);
        assert_eq!(f.cards_lost, 0);
        assert_eq!(f.fallback_grid, Some((1, 3)));
        assert!(f.degraded_stages > 0);
        assert!(f.recovery_s > 0.0);
        assert!(
            r.time_s > healthy.report.time_s,
            "losing a quarter of the cluster must cost time"
        );
        assert!(r.efficiency() > 0.0 && r.efficiency() < healthy.report.efficiency());
        let kinds: Vec<Kind> = ft.trace.spans().iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&Kind::Recovery));
    }

    #[test]
    fn patch_remap_keeps_grid_and_moves_a_fraction() {
        // 4×8 grid (size/8 = 4): one host death patches in place.
        let c = cfg(240_000, 4, 8, 1);
        let healthy = simulate_cluster(&c, false);
        let t_kill = healthy.report.time_s / 3.0;
        let plan = FaultPlan::none().with_event(t_kill, FaultKind::HostDeath { rank: 5 });
        let patch = simulate_cluster_faulty(&c, &plan, &FtPolicy::default(), false);
        let whole = simulate_cluster_faulty(
            &c,
            &plan,
            &FtPolicy::default().with_remap(RemapStrategy::Wholesale),
            false,
        );
        let fp = patch.result.report.faults.unwrap();
        let fw = whole.result.report.faults.unwrap();
        assert_eq!(fp.remap, RemapStrategy::Patch);
        assert_eq!(fw.remap, RemapStrategy::Wholesale);
        // Patch keeps the 4×8 grid; wholesale reshapes to 31 survivors.
        assert_eq!(fp.fallback_grid, None);
        assert!(fw.fallback_grid.is_some());
        // Redistribution volume shrinks by roughly the grid size.
        assert!(fp.blocks_moved > 0);
        assert!(
            fw.blocks_moved >= 10 * fp.blocks_moved,
            "patch moved {} vs wholesale {}",
            fp.blocks_moved,
            fw.blocks_moved
        );
        // And the patched run recovers no slower than the reshape.
        assert!(fp.recovery_s <= fw.recovery_s);
        // Both still cost time versus healthy, and both complete.
        assert!(patch.result.report.time_s > healthy.report.time_s);
        assert!(whole.result.report.time_s > healthy.report.time_s);
    }

    #[test]
    fn patch_budget_exhaustion_degrades_to_wholesale() {
        // 4×8 grid patches at most 4 dead ranks; a fifth death forces
        // the wholesale reshape.
        let c = cfg(240_000, 4, 8, 1);
        let healthy = simulate_cluster(&c, false);
        let mut plan = FaultPlan::none();
        for rank in 0..5usize {
            plan = plan.with_event(
                healthy.report.time_s * (0.2 + 0.1 * rank as f64),
                FaultKind::HostDeath { rank },
            );
        }
        let ft = simulate_cluster_faulty(&c, &plan, &FtPolicy::default(), false);
        let f = ft.result.report.faults.unwrap();
        assert_eq!(f.hosts_lost, 5);
        assert_eq!(f.remap, RemapStrategy::Patch);
        assert!(
            f.fallback_grid.is_some(),
            "5 > size/8 deaths must reshape wholesale"
        );
        assert!(ft.result.report.time_s > healthy.report.time_s);
    }

    #[test]
    fn checkpointed_host_restore_is_cheaper_than_recompute() {
        let c = cfg(168_000, 2, 2, 1);
        let healthy = simulate_cluster(&c, false);
        let t_kill = healthy.report.time_s * 0.6;
        let plan = FaultPlan::none().with_event(t_kill, FaultKind::HostDeath { rank: 1 });
        let with_ck = simulate_cluster_faulty(&c, &plan, &FtPolicy::default(), false);
        let without = simulate_cluster_faulty(&c, &plan, &FtPolicy::none(), false);
        let f_ck = with_ck.result.report.faults.unwrap();
        let f_no = without.result.report.faults.unwrap();
        // Streaming checkpointed state beats recomputing the dead rank's
        // share of 60% of the run.
        assert!(f_ck.recovery_s < f_no.recovery_s);
    }

    #[test]
    fn cascade_storm_into_card_death_is_one_causal_run() {
        let c = cfg(84_000, 1, 1, 1);
        let healthy = simulate_cluster(&c, false);
        let storm = FaultKind::PcieCrcStorm {
            stall_s: 200e-6,
            duration_s: healthy.report.time_s / 4.0,
        };
        let esc = phi_faults::Escalation::new(
            FaultKind::CardDeath { card: 0 },
            healthy.report.time_s / 8.0,
            1.0,
        );
        let plan = FaultPlan::none()
            .with_cascade(healthy.report.time_s / 3.0, storm, esc)
            .resolved(1, healthy.report.time_s * 2.0);
        assert_eq!(plan.total_card_deaths(), 1);
        let ft = simulate_cluster_faulty(&c, &plan, &FtPolicy::default(), false);
        let f = ft.result.report.faults.unwrap();
        assert_eq!(f.cards_lost, 1);
        assert_eq!(f.events, 2, "storm plus its escalated death");
        // Replays bit-identically under the same fingerprint.
        let again = simulate_cluster_faulty(&c, &plan, &FtPolicy::default(), false);
        assert_eq!(ft.run_fingerprint(), again.run_fingerprint());
    }

    #[test]
    fn rack_fanout_kills_the_rank_set_in_one_recovery_step() {
        // A rack power event fans out, on one correlated draw, into
        // host deaths across a contiguous rank set. All members land at
        // the same onset, so the simulator recovers the whole set in
        // one panel-boundary batch: a single Recovery span, patch
        // intact (4 deaths = the 4×8 grid's default budget).
        let c = cfg(240_000, 4, 8, 1);
        let healthy = simulate_cluster(&c, false);
        let t = healthy.report.time_s;
        let ranks: Vec<usize> = (8..12).collect();
        let plan = FaultPlan::none()
            .with_cascade(
                t / 3.0,
                FaultKind::LinkDegrade {
                    factor: 0.1,
                    duration_s: t / 10.0,
                },
                phi_faults::Escalation::fan(vec![phi_faults::ChildSpec::new(
                    FaultKind::HostDeath { rank: 0 },
                    t / 20.0,
                    1.0,
                )
                .with_scope(phi_faults::Scope::RankSet(ranks.clone()))]),
            )
            .resolved(0xFA, t * 2.0);
        assert_eq!(plan.total_host_deaths(), ranks.len());
        let ft = simulate_cluster_faulty(&c, &plan, &FtPolicy::default(), true);
        let f = ft.result.report.faults.unwrap();
        assert_eq!(f.hosts_lost, 4);
        assert_eq!(f.remap, RemapStrategy::Patch);
        assert_eq!(f.fallback_grid, None, "4 deaths fit the 32/8 budget");
        let recovery_spans = ft
            .trace
            .spans()
            .iter()
            .filter(|s| s.kind == Kind::Recovery)
            .count();
        assert_eq!(
            recovery_spans, 1,
            "the correlated set must recover in one step"
        );
        // Deterministic per seed: the same plan replays bit-identically.
        let again = simulate_cluster_faulty(&c, &plan, &FtPolicy::default(), true);
        assert_eq!(ft.run_fingerprint(), again.run_fingerprint());
    }

    #[test]
    fn death_budget_knob_moves_the_patch_wholesale_frontier() {
        let c = cfg(240_000, 4, 8, 1);
        let healthy = simulate_cluster(&c, false);
        let t = healthy.report.time_s;
        let mut plan = FaultPlan::none();
        for rank in 0..3usize {
            plan = plan.with_event(t * (0.2 + 0.1 * rank as f64), FaultKind::HostDeath { rank });
        }
        // The default budget (32/8 = 4) absorbs all three deaths...
        let default_run = simulate_cluster_faulty(&c, &plan, &FtPolicy::default(), false);
        assert_eq!(
            default_run.result.report.faults.unwrap().fallback_grid,
            None
        );
        // ...an explicit budget of 4 is bit-identical to the default...
        let explicit =
            simulate_cluster_faulty(&c, &plan, &FtPolicy::default().with_death_budget(4), false);
        assert_eq!(
            explicit.run_fingerprint(),
            default_run.run_fingerprint(),
            "explicit default-sized budget must not change the run"
        );
        // ...and a budget of 1 forces the wholesale reshape at the
        // second death.
        let tight =
            simulate_cluster_faulty(&c, &plan, &FtPolicy::default().with_death_budget(1), false);
        let f = tight.result.report.faults.unwrap();
        assert!(f.fallback_grid.is_some(), "budget 1 must reshape");
        assert_ne!(tight.run_fingerprint(), default_run.run_fingerprint());
    }

    #[test]
    fn same_plan_replays_bit_identically() {
        let c = cfg(168_000, 2, 2, 2);
        let plan_a = FaultPlan::campaign(0xF00D, 60.0, 8);
        let plan_b = FaultPlan::campaign(0xF00D, 60.0, 8);
        let a = simulate_cluster_faulty(&c, &plan_a, &FtPolicy::default(), true);
        let b = simulate_cluster_faulty(&c, &plan_b, &FtPolicy::default(), true);
        assert_eq!(a.run_fingerprint(), b.run_fingerprint());
        assert_eq!(
            a.result.report.time_s.to_bits(),
            b.result.report.time_s.to_bits()
        );
        assert_eq!(a.trace.spans(), b.trace.spans());
        // A different seed is a different execution.
        let other = simulate_cluster_faulty(
            &c,
            &FaultPlan::campaign(0xBEEF, 60.0, 8),
            &FtPolicy::default(),
            true,
        );
        assert_ne!(a.run_fingerprint(), other.run_fingerprint());
    }

    #[test]
    fn fault_loop_ends_on_the_last_regime_the_lint_proves() {
        // `schedule-lint` proves the shapes `recovery_regimes` lists;
        // the loop prices the deaths it applies itself. Whenever every
        // host death of a plan lands before the run ends, both must end
        // on the same shape: the same fallback grid, or the same
        // patched-out ranks on the original grid.
        let (mut patched, mut reshaped) = (0, 0);
        for c in [cfg(120_000, 4, 4, 2), cfg(120_000, 4, 8, 1)] {
            let size = c.grid.size();
            let horizon = 0.8 * simulate_cluster(&c, false).report.time_s;
            for seed in 0..12u64 {
                let plans = [
                    FaultPlan::cluster_campaign(seed, horizon, 24, size, c.cards_per_node),
                    FaultPlan::fleet_campaign(
                        seed,
                        horizon,
                        8,
                        size,
                        c.cards_per_node,
                        phi_faults::CampaignScope::Mixed,
                    ),
                ];
                for plan in &plans {
                    let ranks = plan.host_death_ranks(size);
                    for remap in [RemapStrategy::Patch, RemapStrategy::Wholesale] {
                        for budget in [Some(1), Some(2), None] {
                            let policy = FtPolicy {
                                remap,
                                death_budget: budget,
                                ..FtPolicy::default()
                            };
                            let run = simulate_cluster_faulty(&c, plan, &policy, false);
                            let f = run.result.report.faults.unwrap();
                            if f.hosts_lost < ranks.len().min(size - 1) {
                                continue;
                            }
                            let last = recovery_regimes(&c, plan, &policy).pop().unwrap();
                            let what = format!("seed {seed}, {remap:?}, budget {budget:?}");
                            if last.reshaped {
                                reshaped += 1;
                                let grid = (last.grid.p, last.grid.q);
                                assert_eq!(f.fallback_grid, Some(grid), "{what}");
                            } else {
                                patched += 1;
                                assert_eq!(f.fallback_grid, None, "{what}");
                                let mut dead: Vec<usize> = Vec::new();
                                for &rank in &ranks[..f.hosts_lost] {
                                    if !dead.contains(&rank) {
                                        dead.push(rank);
                                    }
                                }
                                assert_eq!(last.dead_ranks, dead, "{what}");
                            }
                        }
                    }
                }
            }
        }
        assert!(
            patched > 40 && reshaped > 40,
            "{patched} patched, {reshaped} reshaped"
        );
    }

    #[test]
    fn recovery_regimes_track_patch_then_reshape() {
        let c = cfg(336_000, 4, 4, 2);
        // No deaths: just the healthy shape.
        let shapes = recovery_regimes(&c, &FaultPlan::none(), &FtPolicy::default());
        assert_eq!(shapes.len(), 1);
        assert!(shapes[0].dead_ranks.is_empty() && !shapes[0].reshaped);

        // Three deaths under a budget of 2: two patched shapes on the
        // original grid, then a wholesale fallback.
        let plan = FaultPlan::none()
            .with_event(1.0, FaultKind::HostDeath { rank: 3 })
            .with_event(2.0, FaultKind::HostDeath { rank: 7 })
            .with_event(3.0, FaultKind::HostDeath { rank: 11 });
        let policy = FtPolicy::default().with_death_budget(2);
        let shapes = recovery_regimes(&c, &plan, &policy);
        assert_eq!(shapes.len(), 4);
        assert_eq!(shapes[1].dead_ranks, vec![3]);
        assert_eq!(shapes[2].dead_ranks, vec![3, 7]);
        assert!(shapes[3].reshaped, "third death blows the budget");
        // The fallback grid re-forms from the 13 survivors, idling at
        // most the 1/8 allowance; the dead set is renumbered away.
        assert!(shapes[3].dead_ranks.is_empty());
        assert!((12..=13).contains(&shapes[3].grid.size()));

        // Wholesale policy reshapes from the first death.
        let w = recovery_regimes(
            &c,
            &plan,
            &FtPolicy::default().with_remap(RemapStrategy::Wholesale),
        );
        assert!(w[1..].iter().all(|s| s.reshaped));

        // A duplicate death event changes nothing patch-side.
        let dup = plan
            .clone()
            .with_event(4.0, FaultKind::HostDeath { rank: 3 });
        let d = recovery_regimes(&c, &dup, &policy);
        assert_eq!(d.last(), shapes.last());
    }
}
