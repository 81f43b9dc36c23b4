//! Fully-native multi-node Linpack — the paper's stated future work.
//!
//! The conclusion (Section VII) motivates "running the Linpack directly
//! on a cluster of Knights Corners, while CPU cores are put into a deep
//! sleep state": the host is several times slower than the card but
//! consumes comparable power, so a hybrid node is energy-inefficient.
//! This module implements that future system on the timed backend: a
//! P × Q grid of coprocessor-only nodes running the dynamic-scheduling
//! native LU per node, with panel broadcast, long swap and U broadcast
//! over the InfiniBand fabric (the card's NIC path adds a PCIe-like
//! store-and-forward hop).
//!
//! The 8 GB GDDR per card gates the problem size — the constraint the
//! hybrid design exists to escape — so this flavour trades problem size
//! for energy efficiency; see [`crate::energy`] for that comparison.
//!
//! One stage is priced in one place, `native_stage_time`; the healthy
//! and the fault-tolerant entry points both loop over it.

use crate::hybrid::stage::worst_extents;
use crate::hybrid::DeathStep;
use crate::report::GigaflopsReport;
use phi_fabric::{NetModel, ProcessGrid, RemapStrategy, ScheduleShape};
use phi_knc::{LuTaskModel, Precision};

/// Extra store-and-forward latency per network operation: without a
/// host, the card reaches the NIC over PCIe (seconds).
const NIC_HOP_S: f64 = 8e-6;
/// Utilization of the per-card dynamic DAG scheduler (panel
/// displacement, wave tails, super-stage barriers) on top of the
/// task model's own group-sync drag; calibrated so a 1x1 "cluster"
/// matches the event-driven single-card simulation at N = 30K.
const DAG_UTILIZATION: f64 = 0.99;

/// Configuration of a native multi-node run.
#[derive(Clone, Copy, Debug)]
pub struct NativeClusterConfig {
    /// Global problem size.
    pub n: usize,
    /// Block size (native LU uses smaller panels than hybrid; default 256).
    pub nb: usize,
    /// Process grid (one card per process).
    pub grid: ProcessGrid,
    /// Card task models.
    pub tasks: LuTaskModel,
    /// Inter-node network.
    pub net: NetModel,
}

impl NativeClusterConfig {
    /// Defaults for an `n`-sized problem on a `p × q` grid.
    pub fn new(n: usize, p: usize, q: usize) -> Self {
        Self {
            n,
            nb: 256,
            grid: ProcessGrid::new(p, q),
            tasks: LuTaskModel::default(),
            net: NetModel::default(),
        }
    }

    /// Per-card matrix bytes.
    fn bytes_per_card(&self) -> f64 {
        (self.n as f64 / self.grid.p as f64) * (self.n as f64 / self.grid.q as f64) * 8.0
    }

    /// The GDDR gate both native-cluster entry points assert: the
    /// per-card share must fit in 90 % of the card's memory. Callers
    /// that must not panic check it first and report the refusal it
    /// returns.
    #[inline]
    pub fn fits_gddr(&self) -> Result<(), String> {
        let gib = self.tasks.gemm.chip.memory_gib;
        if self.bytes_per_card() <= gib * 1.073741824e9 * 0.9 {
            return Ok(());
        }
        Err(format!(
            "N = {} does not fit {} GiB of GDDR per card on a {}x{} grid",
            self.n, gib, self.grid.p, self.grid.q
        ))
    }
}

/// Panics with [`NativeClusterConfig::fits_gddr`]'s refusal.
fn assert_fits_gddr(cfg: &NativeClusterConfig) {
    if let Err(refusal) = cfg.fits_gddr() {
        panic!("{refusal}");
    }
}

/// Final back-substitution: one bandwidth-bound sweep over the local
/// share of the factored matrix.
fn backsub_time_s(cfg: &NativeClusterConfig) -> f64 {
    2.0 * (cfg.n as f64 / cfg.grid.p as f64) * (cfg.n as f64 / cfg.grid.q as f64) * 8.0
        / (cfg.tasks.gemm.chip.stream_bw_gbs * 1e9)
}

/// Simulates the native cluster run: every stage priced by
/// `native_stage_time` on the healthy machine, plus back-substitution.
///
/// # Panics
/// Panics when the per-card share exceeds the 8 GB GDDR.
pub fn simulate_native_cluster(cfg: &NativeClusterConfig) -> GigaflopsReport {
    assert_fits_gddr(cfg);
    let mut total = 0.0f64;
    for stage in 0..cfg.n.div_ceil(cfg.nb) {
        total += native_stage_time(cfg, stage, 1.0, &cfg.net, 1.0);
    }
    total += backsub_time_s(cfg);

    let chip = cfg.tasks.gemm.chip;
    let peak = cfg.grid.size() as f64 * chip.native_peak_gflops(Precision::F64);
    GigaflopsReport::new(cfg.n, total, peak)
}

/// Fault-tolerant native cluster run under an injected
/// [`phi_faults::FaultPlan`]: panel-granular diskless checkpointing
/// (each factored panel is mirrored to a ring neighbor's GDDR over the
/// fabric) and graceful degradation on node death — the dead card's
/// block-cyclic share is re-divided among the survivors, scaling the
/// per-stage compute by `size / survivors` after a checkpoint restore.
/// A node here *is* a card, so [`phi_faults::FaultKind::HostDeath`]
/// and card death both cost a whole node; the re-division keeps the
/// original grid shape (no fallback grid), which the summary reports
/// as `fallback_grid: None`.
///
/// `remap` prices how the dead nodes' trailing blocks reach their new
/// owners over the fabric: [`RemapStrategy::Patch`] ships only the
/// dead ranks' block-cyclic share ([`ProcessGrid::patch_remap`]),
/// [`RemapStrategy::Wholesale`] re-ships the whole trailing matrix.
/// Either volume is reported as
/// [`crate::report::FaultSummary::blocks_moved`].
///
/// With an empty plan and `checkpoint: false` this is bit-identical to
/// [`simulate_native_cluster`]; the returned report carries a
/// [`crate::report::FaultSummary`] either way.
///
/// # Panics
/// Panics when the per-card share exceeds GDDR, as the unfaulted entry
/// point does.
pub fn simulate_native_cluster_ft(
    cfg: &NativeClusterConfig,
    plan: &phi_faults::FaultPlan,
    checkpoint: bool,
    remap: RemapStrategy,
) -> GigaflopsReport {
    assert_fits_gddr(cfg);
    let s = cfg.n.div_ceil(cfg.nb);
    let p = cfg.grid.p;
    let size = cfg.grid.size();

    let mut total = 0.0f64;
    let mut hosts_seen = 0usize;
    let mut degraded_stages = 0usize;
    let mut checkpoint_s = 0.0f64;
    let mut recovery_s = 0.0f64;
    let mut prev_stage = 0.0f64;
    let mut blocks_moved = 0usize;
    let mut nodes = DeathStep::native(cfg.grid, plan, remap);

    for stage in 0..s {
        let nb = cfg.nb.min(cfg.n - stage * cfg.nb);
        let m_panel_loc = ((cfg.n - stage * cfg.nb) / p).max(nb);

        // Node deaths surface at panel boundaries; survivors re-divide
        // the dead node's share after restoring its mirrored panels and
        // pulling its trailing blocks over the fabric (`remap` decides
        // whether only that share moves or the whole trailing matrix is
        // re-shipped).
        let e_now = plan.effects_at(total);
        if let Some(t) = nodes.apply(e_now.cards_lost + e_now.hosts_lost) {
            let restore = if checkpoint {
                cfg.net.p2p(8.0 * (m_panel_loc * nb) as f64) + NIC_HOP_S
            } else {
                prev_stage
            };
            let (blocks, elements) = t.moved(stage, s, cfg.nb, cfg.n);
            blocks_moved += blocks;
            let redistribution = 8.0 * elements / (t.survivors as f64 * cfg.net.bandwidth);
            let cost = t.newly as f64 * restore + redistribution;
            recovery_s += cost;
            total += cost;
        }
        let nodes_lost = nodes.applied();
        hosts_seen = hosts_seen.max(e_now.hosts_lost.min(nodes_lost));
        let survivors = size - nodes_lost;
        // Survivors absorb the dead nodes' block-cyclic share.
        let redivide = size as f64 / survivors as f64;
        if nodes_lost > 0 {
            degraded_stages += 1;
        }

        // Transient fault state averaged over the stage (two-pass, as in
        // the hybrid flavour: healthy estimate, then perturbed compute).
        let est = native_stage_time(cfg, stage, 1.0, &cfg.net, 1.0);
        let eff = plan.effects_over(total, total + est);
        let net = cfg.net.degraded(eff.net_bw_factor, eff.extra_latency_s);
        let stage_time = native_stage_time(cfg, stage, redivide, &net, eff.compute_slowdown);
        total += stage_time;
        prev_stage = stage_time;

        if checkpoint {
            // Mirror the factored panel to the ring neighbor's GDDR.
            let ckpt = cfg.net.p2p(8.0 * (m_panel_loc * nb) as f64) + NIC_HOP_S;
            total += ckpt;
            checkpoint_s += ckpt;
        }
    }
    total += backsub_time_s(cfg);

    let healthy = simulate_native_cluster(cfg);
    let chip = cfg.tasks.gemm.chip;
    let peak = cfg.grid.size() as f64 * chip.native_peak_gflops(Precision::F64);
    GigaflopsReport::new(cfg.n, total, peak).with_faults(crate::report::FaultSummary {
        plan_fingerprint: plan.fingerprint(),
        events: plan.events().len(),
        cards_lost: nodes.applied() - hosts_seen,
        hosts_lost: hosts_seen,
        fallback_grid: None,
        remap,
        blocks_moved,
        checkpoint_s,
        recovery_s,
        degraded_stages,
        healthy_time_s: healthy.time_s,
        healthy_gflops: healthy.gflops,
    })
}

/// Every communication-grid regime [`simulate_native_cluster_ft`] can
/// route through under `plan`: the healthy grid, then one
/// [`ScheduleShape`] per applied node death that adds a dead rank. The
/// native flavour never reshapes — the grid keeps its coordinates and
/// survivors route around the dead ranks — so every shape sits on the
/// original grid with an accumulating dead set, regardless of
/// [`RemapStrategy`] (the strategy only prices how the blocks travel,
/// not who talks to whom). The shapes come from the fault loop's own
/// death step, fed the deaths one per boundary, the finest batching the
/// simulator can see; verifying each shape proves any coarser batching
/// safe.
pub fn native_recovery_regimes(
    cfg: &NativeClusterConfig,
    plan: &phi_faults::FaultPlan,
) -> Vec<ScheduleShape> {
    DeathStep::native(cfg.grid, plan, RemapStrategy::default()).regimes()
}

/// One stage of the native-cluster loop — the only place the native
/// cluster prices a stage — with the compute terms scaled by
/// `redivide × slowdown` and the network terms taken from `net`. Both
/// scale factors at `1.0` (exact in IEEE-754) and the configured net
/// give the healthy stage.
fn native_stage_time(
    cfg: &NativeClusterConfig,
    stage: usize,
    redivide: f64,
    net: &NetModel,
    slowdown: f64,
) -> f64 {
    let chip = cfg.tasks.gemm.chip;
    let (p, q) = (cfg.grid.p, cfg.grid.q);
    let t = &cfg.tasks;
    let cores = chip.cores_compute as f64;
    let nb = cfg.nb.min(cfg.n - stage * cfg.nb);
    let (rows_loc, cols_loc) = worst_extents(cfg.grid, cfg.n, cfg.nb, stage);

    // Panel on the owning card column (a quarter of the card's cores
    // suffice — the rest continue the previous trailing update, which
    // we approximate with the dynamic scheduler's steady overlap).
    let m_panel_loc = ((cfg.n - stage * cfg.nb) / p).max(nb);
    let panel = t.panel_time_s(m_panel_loc, nb, cores / 4.0) * redivide * slowdown;
    let pbcast = net.ring_bcast(8.0 * (m_panel_loc * nb) as f64, q)
        + NIC_HOP_S * (q.saturating_sub(1)) as f64;

    // Swap and U broadcast down the columns.
    let swap =
        t.swap_time_s(nb, cols_loc, cores) * redivide * slowdown + net.long_swap(nb, cols_loc, p);
    let trsm = t.trsm_time_s(nb, cols_loc, cores) * redivide * slowdown;
    let ubcast = net.u_bcast(nb, cols_loc, p) + NIC_HOP_S * (p.saturating_sub(1)) as f64;

    // Trailing update on the whole card (DAG scheduling hides the panel
    // under it, as in the single-card native flavour).
    let update = if rows_loc > 0 && cols_loc > 0 {
        t.update_time_s(rows_loc, cols_loc, nb, cores) / DAG_UTILIZATION * redivide * slowdown
    } else {
        0.0
    };

    // Dynamic scheduling overlaps the panel and its broadcast with the
    // update; swap/trsm/ubcast partially pipeline (the native code
    // reuses the hybrid's strip pipeline, minus the host).
    let three_exposed = (swap + trsm + ubcast) / 6.0;
    update.max(panel + pbcast) + three_exposed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_matches_native_flavour() {
        // A 1×1 "cluster" must land near the single-card native result
        // (no network terms).
        let cfg = NativeClusterConfig::new(30_720, 1, 1);
        let r = simulate_native_cluster(&cfg);
        assert!(
            (r.efficiency() - 0.788).abs() < 0.04,
            "1x1 native cluster eff {:.3}",
            r.efficiency()
        );
    }

    #[test]
    fn memory_gate_enforced() {
        // 60K² × 8 = 28.8 GB ≫ 8 GB per card on 1×1.
        let cfg = NativeClusterConfig::new(60_000, 1, 1);
        assert!(std::panic::catch_unwind(|| simulate_native_cluster(&cfg)).is_err());
        // But a 2×2 grid holds it (28.8/4 = 7.2 GB/card).
        let cfg4 = NativeClusterConfig::new(60_000, 2, 2);
        let r = simulate_native_cluster(&cfg4);
        assert!(r.gflops > 0.0);
    }

    #[test]
    fn scales_with_modest_degradation() {
        // Same per-card load: 30K on 1 card vs 60K on 4 vs 120K on 16.
        let e1 = simulate_native_cluster(&NativeClusterConfig::new(30_000, 1, 1)).efficiency();
        let e4 = simulate_native_cluster(&NativeClusterConfig::new(60_000, 2, 2)).efficiency();
        let e16 = simulate_native_cluster(&NativeClusterConfig::new(120_000, 4, 4)).efficiency();
        assert!(e4 < e1, "network costs something: {e4:.3} vs {e1:.3}");
        assert!(e16 < e4 + 0.01);
        assert!(e1 - e16 < 0.10, "degradation bounded: {:.3}", e1 - e16);
    }

    #[test]
    fn ft_zero_fault_no_checkpoint_is_bit_identical() {
        let cfg = NativeClusterConfig::new(60_000, 2, 2);
        let base = simulate_native_cluster(&cfg);
        let ft = simulate_native_cluster_ft(
            &cfg,
            &phi_faults::FaultPlan::none(),
            false,
            RemapStrategy::default(),
        );
        assert_eq!(ft.time_s.to_bits(), base.time_s.to_bits());
        assert_eq!(ft.gflops.to_bits(), base.gflops.to_bits());
        let f = ft.faults.unwrap();
        assert_eq!((f.events, f.cards_lost), (0, 0));
    }

    #[test]
    fn ft_node_death_redivides_and_completes() {
        use phi_faults::{FaultKind, FaultPlan};
        let cfg = NativeClusterConfig::new(60_000, 2, 2);
        let base = simulate_native_cluster(&cfg);
        let plan =
            FaultPlan::none().with_event(base.time_s / 2.0, FaultKind::CardDeath { card: 0 });
        let ft = simulate_native_cluster_ft(&cfg, &plan, true, RemapStrategy::Patch);
        let f = ft.faults.unwrap();
        assert_eq!(f.cards_lost, 1);
        assert!(f.degraded_stages > 0);
        assert!(f.checkpoint_s > 0.0 && f.recovery_s > 0.0);
        assert!(f.blocks_moved > 0, "the dead node's share must move");
        // Survivors carry 4/3 of the work for the tail: slower, but done.
        assert!(ft.time_s > base.time_s);
        assert!(f.overhead_fraction(ft.time_s) > 0.0);
        // Wholesale re-ships the whole trailing matrix: strictly more
        // volume, and recovery at least as slow.
        let whole = simulate_native_cluster_ft(&cfg, &plan, true, RemapStrategy::Wholesale);
        let fw = whole.faults.unwrap();
        assert!(fw.blocks_moved > f.blocks_moved);
        assert!(fw.recovery_s >= f.recovery_s);
    }

    #[test]
    fn ft_host_death_costs_a_whole_node() {
        use phi_faults::{FaultKind, FaultPlan};
        let cfg = NativeClusterConfig::new(60_000, 2, 2);
        let base = simulate_native_cluster(&cfg);
        let plan =
            FaultPlan::none().with_event(base.time_s / 2.0, FaultKind::HostDeath { rank: 2 });
        let ft = simulate_native_cluster_ft(&cfg, &plan, true, RemapStrategy::Patch);
        let f = ft.faults.unwrap();
        assert_eq!((f.cards_lost, f.hosts_lost), (0, 1));
        assert_eq!(f.fallback_grid, None);
        assert!(f.degraded_stages > 0);
        assert!(ft.time_s > base.time_s);
    }

    #[test]
    fn ft_storm_fanout_kills_every_card_in_one_batch() {
        use phi_faults::{ChildSpec, Escalation, FaultKind, FaultPlan, Scope};
        // A host-wide PCIe storm fans out to a correlated set of nodes
        // (a node here *is* a card): the whole set dies at one onset
        // and the simulator recovers it in a single boundary batch.
        let cfg = NativeClusterConfig::new(90_000, 3, 3);
        let base = simulate_native_cluster(&cfg);
        let t = base.time_s;
        let plan = FaultPlan::none()
            .with_cascade(
                t / 3.0,
                FaultKind::PcieCrcStorm {
                    stall_s: 200e-6,
                    duration_s: t / 10.0,
                },
                Escalation::fan(vec![ChildSpec::new(
                    FaultKind::CardDeath { card: 0 },
                    t / 20.0,
                    1.0,
                )
                .with_scope(Scope::SameHost { cards: 3 })]),
            )
            .resolved(0xFA, t * 2.0);
        assert_eq!(plan.total_card_deaths(), 3);
        let ft = simulate_native_cluster_ft(&cfg, &plan, true, RemapStrategy::Patch);
        let f = ft.faults.unwrap();
        assert_eq!(f.cards_lost, 3, "the whole correlated set dies");
        assert!(f.blocks_moved > 0);
        assert!(ft.time_s > base.time_s);
        // Deterministic per seed: bit-identical replay.
        let again = simulate_native_cluster_ft(&cfg, &plan, true, RemapStrategy::Patch);
        assert_eq!(ft.time_s.to_bits(), again.time_s.to_bits());
        assert_eq!(f.plan_fingerprint, again.faults.unwrap().plan_fingerprint);
    }

    #[test]
    fn native_regimes_keep_the_grid_and_accumulate_deaths() {
        use phi_faults::{FaultKind, FaultPlan};
        let cfg = NativeClusterConfig::new(50_000, 2, 3);
        assert_eq!(native_recovery_regimes(&cfg, &FaultPlan::none()).len(), 1);
        let plan = FaultPlan::none()
            .with_event(1.0, FaultKind::CardDeath { card: 4 })
            .with_event(2.0, FaultKind::HostDeath { rank: 1 })
            .with_event(3.0, FaultKind::CardDeath { card: 4 });
        let shapes = native_recovery_regimes(&cfg, &plan);
        // Healthy, then {4}, then {4,1}; the duplicate adds nothing.
        assert_eq!(shapes.len(), 3);
        assert!(shapes.iter().all(|s| !s.reshaped && s.grid == cfg.grid));
        assert_eq!(shapes[2].dead_ranks, vec![4, 1]);
    }
}
