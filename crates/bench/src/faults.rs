//! The fault campaign: degraded-vs-healthy hybrid Linpack under seeded,
//! replayable fault plans — the robustness companion to the paper's
//! Table III. Scenarios run on the paper's single-node configuration
//! and, via [`fault_campaign_cluster_rows`], on the Table III 100-node
//! system (N = 825K on a 10 × 10 grid), where host-rank deaths force a
//! fallback-grid recovery. Every scenario runs through the
//! fault-tolerant cluster simulator; the renderers close with a replay
//! check that re-runs one campaign and verifies bit-identity.

use crate::TextTable;
use phi_fabric::{ProcessGrid, RemapStrategy};
use phi_faults::{ChildSpec, Escalation, FaultKind, FaultPlan, Scope};
use phi_hpl::hybrid::{simulate_cluster, HybridConfig, Lookahead};
use phi_hpl::{simulate_cluster_faulty, FtPolicy};
use std::fmt::Write;

/// One campaign scenario's degraded-vs-healthy outcome.
#[derive(Clone, Debug)]
pub(crate) struct CampaignRow {
    /// Scenario label.
    pub scenario: String,
    /// Scheduled fault events.
    pub events: usize,
    /// Cards permanently lost.
    pub cards_lost: usize,
    /// Host ranks permanently lost.
    pub hosts_lost: usize,
    /// Grid the survivors re-formed — only under a wholesale reshape.
    pub fallback: Option<(usize, usize)>,
    /// Recovery remapping strategy the row ran under.
    pub remap: RemapStrategy,
    /// Trailing `nb × nb` blocks redistributed across host deaths.
    pub blocks_moved: usize,
    /// Degraded wall time, seconds.
    pub time_s: f64,
    /// Healthy wall time of the same configuration, seconds.
    pub healthy_s: f64,
    /// Degraded GFLOPS.
    pub gflops: f64,
    /// Checkpoint time paid, seconds.
    pub checkpoint_s: f64,
    /// Recovery (restore + re-division) time, seconds.
    pub recovery_s: f64,
    /// Fractional slowdown versus the healthy run, from
    /// [`phi_hpl::FaultSummary::overhead_fraction`].
    pub overhead: f64,
    /// Replay-identity fingerprint of the whole run (the determinism
    /// tests' witness; the rendered table does not print it).
    #[cfg(test)]
    pub fingerprint: u64,
}

impl CampaignRow {
    /// The fallback grid as `pxq`, or `-` when no host died.
    fn fallback_label(&self) -> String {
        match self.fallback {
            Some((p, q)) => format!("{p}x{q}"),
            None => "-".to_string(),
        }
    }
}

fn paper_node() -> HybridConfig {
    let mut cfg = HybridConfig::new(30_000, ProcessGrid::new(1, 1), 1);
    cfg.lookahead = Lookahead::Pipelined;
    cfg
}

/// The paper's Table III 100-node system: N = 825K on a 10 × 10 grid,
/// one coprocessor per node, pipelined look-ahead.
pub fn paper_cluster() -> HybridConfig {
    let mut cfg = HybridConfig::new(825_000, ProcessGrid::new(10, 10), 1);
    cfg.lookahead = Lookahead::Pipelined;
    cfg
}

fn run(cfg: &HybridConfig, label: &str, plan: &FaultPlan, policy: &FtPolicy) -> CampaignRow {
    let out = simulate_cluster_faulty(cfg, plan, policy, false);
    let f = out
        .result
        .report
        .faults
        .expect("faulty runs carry accounting");
    CampaignRow {
        scenario: label.to_string(),
        events: f.events,
        cards_lost: f.cards_lost,
        hosts_lost: f.hosts_lost,
        fallback: f.fallback_grid,
        remap: f.remap,
        blocks_moved: f.blocks_moved,
        time_s: out.result.report.time_s,
        healthy_s: f.healthy_time_s,
        gflops: out.result.report.gflops,
        checkpoint_s: f.checkpoint_s,
        recovery_s: f.recovery_s,
        overhead: f.overhead_fraction(out.result.report.time_s),
        #[cfg(test)]
        fingerprint: out.run_fingerprint(),
    }
}

/// Runs the canonical scenario set on the paper's single-node hybrid
/// configuration, plus three seeded random campaigns derived from
/// `seed`.
fn fault_campaign_rows(seed: u64) -> Vec<CampaignRow> {
    let cfg = paper_node();
    let healthy = simulate_cluster(&cfg, false).report.time_s;
    let none = FtPolicy::none();
    let ckpt = FtPolicy::default();

    let mut rows = vec![
        run(&cfg, "healthy (zero-fault plan)", &FaultPlan::none(), &none),
        run(
            &cfg,
            "straggler 30% cores x2, mid-run",
            &FaultPlan::none().with_event(
                healthy * 0.3,
                FaultKind::Straggler {
                    core_fraction: 0.3,
                    slowdown: 2.0,
                    duration_s: healthy * 0.3,
                },
            ),
            &none,
        ),
        run(
            &cfg,
            "PCIe CRC storm, mid-run",
            &FaultPlan::none().with_event(
                healthy * 0.3,
                FaultKind::PcieCrcStorm {
                    stall_s: 2e-4,
                    duration_s: healthy * 0.3,
                },
            ),
            &none,
        ),
        run(
            &cfg,
            "card death @ T/3, replay recovery",
            &FaultPlan::none().with_event(healthy / 3.0, FaultKind::CardDeath { card: 0 }),
            &none,
        ),
        run(
            &cfg,
            "card death @ T/3, checkpointed",
            &FaultPlan::none().with_event(healthy / 3.0, FaultKind::CardDeath { card: 0 }),
            &ckpt,
        ),
    ];
    for i in 0..3 {
        let s = seed.wrapping_add(i);
        rows.push(run(
            &cfg,
            &format!("campaign seed {s:#x}"),
            &FaultPlan::campaign(s, healthy * 1.5, 5),
            &ckpt,
        ));
    }
    rows
}

/// The Table III 100-node scenario set: healthy baseline, a transient
/// link fault, host-rank deaths under both recovery policies (plus an
/// explicit wholesale-remap row for the redistribution-volume
/// comparison), a card death, the two cascade archetypes
/// (storm → card, link flap → host), a three-hop
/// storm → card → host chain, and two seeded cluster campaigns derived
/// from `seed`. Host-death rows recover under `remap` except the
/// explicitly-wholesale row.
pub(crate) fn fault_campaign_cluster_rows(seed: u64, remap: RemapStrategy) -> Vec<CampaignRow> {
    let cfg = paper_cluster();
    let healthy = simulate_cluster(&cfg, false).report.time_s;
    let none = FtPolicy::none().with_remap(remap);
    let ckpt = FtPolicy::default().with_remap(remap);
    let whsl = FtPolicy::default().with_remap(RemapStrategy::Wholesale);

    let host_death = FaultPlan::none().with_event(healthy / 3.0, FaultKind::HostDeath { rank: 42 });
    let storm_cascade = FaultPlan::none()
        .with_cascade(
            healthy / 3.0,
            FaultKind::PcieCrcStorm {
                stall_s: 2e-4,
                duration_s: healthy * 0.1,
            },
            Escalation::new(FaultKind::CardDeath { card: 0 }, healthy * 0.05, 1.0),
        )
        .resolved(seed, healthy * 2.0);
    let flap_cascade = FaultPlan::none()
        .with_cascade(
            healthy / 2.0,
            FaultKind::LinkDegrade {
                factor: 0.2,
                duration_s: healthy * 0.1,
            },
            Escalation::new(FaultKind::HostDeath { rank: 7 }, healthy * 0.05, 1.0),
        )
        .resolved(seed, healthy * 2.0);
    // The recursive-chain archetype: a CRC storm takes out its card,
    // and the orphaned host rank follows — three hops, one causal unit.
    let chain_cascade = FaultPlan::none()
        .with_cascade(
            healthy / 3.0,
            FaultKind::PcieCrcStorm {
                stall_s: 2e-4,
                duration_s: healthy * 0.1,
            },
            Escalation::new(FaultKind::CardDeath { card: 0 }, healthy * 0.05, 1.0).chain(
                Escalation::new(FaultKind::HostDeath { rank: 23 }, healthy * 0.05, 1.0),
            ),
        )
        .resolved(seed, healthy * 2.0);
    // The correlated fan-out archetypes: one rack power event takes a
    // contiguous 8-rank set down in a single resolution step, and one
    // CRC storm fans to every card on its host.
    let rack_fanout = FaultPlan::none()
        .with_cascade(
            healthy / 2.0,
            FaultKind::LinkDegrade {
                factor: 0.1,
                duration_s: healthy * 0.05,
            },
            Escalation::fan(vec![ChildSpec::new(
                FaultKind::HostDeath { rank: 40 },
                healthy * 0.02,
                1.0,
            )
            .with_scope(Scope::RankSet((40..48).collect()))]),
        )
        .resolved(seed, healthy * 2.0);
    let storm_fanout = FaultPlan::none()
        .with_cascade(
            healthy / 3.0,
            FaultKind::PcieCrcStorm {
                stall_s: 2e-4,
                duration_s: healthy * 0.1,
            },
            Escalation::fan(vec![ChildSpec::new(
                FaultKind::CardDeath { card: 0 },
                healthy * 0.05,
                1.0,
            )
            .with_scope(Scope::SameHost {
                cards: cfg.cards_per_node,
            })]),
        )
        .resolved(seed, healthy * 2.0);

    let mut rows = vec![
        run(&cfg, "healthy (zero-fault plan)", &FaultPlan::none(), &none),
        run(
            &cfg,
            "link degrade 50%, T/5 window",
            &FaultPlan::none().with_event(
                healthy * 0.4,
                FaultKind::LinkDegrade {
                    factor: 0.5,
                    duration_s: healthy * 0.2,
                },
            ),
            &none,
        ),
        run(&cfg, "host death @ T/3, checkpointed", &host_death, &ckpt),
        run(&cfg, "host death @ T/3, recompute", &host_death, &none),
        run(
            &cfg,
            "host death @ T/3, wholesale remap",
            &host_death,
            &whsl,
        ),
        run(
            &cfg,
            "card death @ T/3, checkpointed",
            &FaultPlan::none().with_event(healthy / 3.0, FaultKind::CardDeath { card: 0 }),
            &ckpt,
        ),
        run(
            &cfg,
            "CRC storm -> card death cascade",
            &storm_cascade,
            &ckpt,
        ),
        run(
            &cfg,
            "link flap -> host death cascade",
            &flap_cascade,
            &ckpt,
        ),
        run(&cfg, "storm -> card -> host chain", &chain_cascade, &ckpt),
        run(
            &cfg,
            "rack power event, 8-rank fan-out",
            &rack_fanout,
            &ckpt,
        ),
        run(
            &cfg,
            "storm fans to every card on host",
            &storm_fanout,
            &ckpt,
        ),
    ];
    for i in 0..2u64 {
        let s = seed.wrapping_add(i);
        rows.push(run(
            &cfg,
            &format!("cluster campaign seed {s:#x}"),
            &FaultPlan::cluster_campaign(s, healthy * 1.2, 6, cfg.grid.size(), cfg.cards_per_node),
            &ckpt,
        ));
    }
    rows
}

fn render_rows(rows: &[CampaignRow]) -> String {
    let mut t = TextTable::new([
        "scenario", "events", "cards", "hosts", "remap", "grid", "moved", "t(s)", "healthy",
        "GFLOPS", "ovhd", "ckpt(s)", "rec(s)",
    ]);
    for r in rows {
        t.row([
            r.scenario.clone(),
            r.events.to_string(),
            r.cards_lost.to_string(),
            r.hosts_lost.to_string(),
            r.remap.label().to_string(),
            r.fallback_label(),
            r.blocks_moved.to_string(),
            format!("{:.2}", r.time_s),
            format!("{:.2}", r.healthy_s),
            format!("{:.0}", r.gflops),
            format!("{:+.1}%", 100.0 * r.overhead),
            format!("{:.2}", r.checkpoint_s),
            format!("{:.2}", r.recovery_s),
        ]);
    }
    t.render()
}

fn replay_check(cfg: &HybridConfig, plan: &FaultPlan, seed: u64) -> String {
    let a = simulate_cluster_faulty(cfg, plan, &FtPolicy::default(), false);
    let b = simulate_cluster_faulty(cfg, plan, &FtPolicy::default(), false);
    let verdict = if a.run_fingerprint() == b.run_fingerprint() {
        "bit-identical"
    } else {
        "MISMATCH"
    };
    format!(
        "replay check (seed {seed:#x}): {:#018x} vs {:#018x} — {verdict}\n",
        a.run_fingerprint(),
        b.run_fingerprint(),
    )
}

/// Renders the single-node campaign table and the replay determinism
/// check.
pub fn fault_campaign_render(seed: u64) -> String {
    let rows = fault_campaign_rows(seed);
    // Replay check: the same seed must reproduce the same run, bit for
    // bit — re-run the first seeded campaign and compare fingerprints.
    let cfg = paper_node();
    let healthy = simulate_cluster(&cfg, false).report.time_s;
    let plan = FaultPlan::campaign(seed, healthy * 1.5, 5);
    format!(
        "{}\n{}",
        render_rows(&rows),
        replay_check(&cfg, &plan, seed)
    )
}

/// Renders the Table III 100-node campaign table and its replay check,
/// recovering host deaths under `remap`.
pub fn fault_campaign_cluster_render(seed: u64, remap: RemapStrategy) -> String {
    let rows = fault_campaign_cluster_rows(seed, remap);
    let cfg = paper_cluster();
    let healthy = simulate_cluster(&cfg, false).report.time_s;
    let plan =
        FaultPlan::cluster_campaign(seed, healthy * 1.2, 6, cfg.grid.size(), cfg.cards_per_node);
    format!(
        "{}\n{}",
        render_rows(&rows),
        replay_check(&cfg, &plan, seed)
    )
}

/// The fault section of `phi experiments_md`, shared with the
/// golden-snapshot test: single-node campaign plus the Table III
/// cluster scenarios, as markdown.
pub fn experiments_fault_section_md(seed: u64) -> String {
    let mut out = String::new();
    out.push_str("## Fault campaign\n\n");
    out.push_str("| scenario | events | lost | overhead | ckpt(s) | rec(s) |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for r in fault_campaign_rows(seed) {
        writeln!(
            out,
            "| {} | {} | {} | {:+.1}% | {:.2} | {:.2} |",
            r.scenario,
            r.events,
            r.cards_lost,
            100.0 * r.overhead,
            r.checkpoint_s,
            r.recovery_s
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n### Table III cluster scenarios (N = 825K, 10×10)\n\n");
    out.push_str(
        "| scenario | events | cards | hosts | remap | grid | moved | overhead | rec(s) |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|\n");
    for r in fault_campaign_cluster_rows(seed, RemapStrategy::default()) {
        writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {:+.1}% | {:.2} |",
            r.scenario,
            r.events,
            r.cards_lost,
            r.hosts_lost,
            r.remap.label(),
            r.fallback_label(),
            r.blocks_moved,
            100.0 * r.overhead,
            r.recovery_s
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_table_is_deterministic_and_ordered() {
        let one = fault_campaign_rows(0xCA11);
        let two = fault_campaign_rows(0xCA11);
        assert_eq!(one.len(), two.len());
        for (a, b) in one.iter().zip(&two) {
            assert_eq!(a.fingerprint, b.fingerprint, "{}", a.scenario);
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        }
        // The zero-fault row matches the healthy baseline exactly and the
        // card-death rows are the slowest.
        assert!((one[0].overhead).abs() < 1e-12);
        // The stored overhead is the canonical FaultSummary accounting.
        assert!((one[1].overhead - (one[1].time_s / one[1].healthy_s - 1.0)).abs() < 1e-12);
        assert!(one[3].time_s > one[1].time_s);
        assert_eq!(one[3].cards_lost, 1);
        // Checkpointing caps recovery relative to replaying lost work.
        assert!(one[4].recovery_s <= one[3].recovery_s);
    }

    #[test]
    fn render_reports_bit_identical_replay() {
        let text = fault_campaign_render(0xBEEF);
        assert!(text.contains("bit-identical"), "{text}");
        assert!(!text.contains("MISMATCH"), "{text}");
    }

    #[test]
    fn cluster_table_covers_host_death_and_recovers() {
        let rows = fault_campaign_cluster_rows(crate::FIXTURE_SEED, RemapStrategy::default());
        // Zero-fault row is exactly healthy.
        assert!((rows[0].overhead).abs() < 1e-12);
        assert_eq!(rows[0].fallback, None);
        assert_eq!(rows[0].blocks_moved, 0);
        // The checkpointed host-death row: one rank lost, patched in
        // place (original 10×10 grid kept), overhead well under 1 (the
        // ISSUE 4 acceptance bar) and checkpointed recovery cheaper
        // than recomputing the dead rank's share.
        let ck = &rows[2];
        assert_eq!((ck.hosts_lost, ck.cards_lost), (1, 0));
        assert_eq!(ck.remap, RemapStrategy::Patch);
        assert_eq!(ck.fallback, None, "a patch keeps the grid");
        assert!(ck.blocks_moved > 0);
        assert!(ck.overhead > 0.0 && ck.overhead < 1.0, "{}", ck.overhead);
        let re = &rows[3];
        assert!(ck.recovery_s < re.recovery_s);
        // The wholesale row reshapes to the 9×11 fallback grid and ships
        // ≥ 10× the patch's redistribution volume (ISSUE 5 acceptance —
        // on a 10×10 grid the closed form gives ~100×).
        let wh = &rows[4];
        assert_eq!(wh.remap, RemapStrategy::Wholesale);
        assert_eq!(wh.fallback, Some((9, 11)));
        assert!(
            wh.blocks_moved >= 10 * ck.blocks_moved,
            "patch moved {} vs wholesale {}",
            ck.blocks_moved,
            wh.blocks_moved
        );
        assert!(ck.recovery_s <= wh.recovery_s);
        // Exact redistribution volumes: the patch ships the dead rank's
        // 3 600 blocks, the reshape ships 360 000, a 100× reduction.
        let volumes = (ck.blocks_moved, wh.blocks_moved);
        assert_eq!((volumes, volumes.1 / volumes.0), ((3_600, 360_000), 100));
        // Cascades resolve into two-event causal units.
        let storm = &rows[6];
        assert_eq!((storm.events, storm.cards_lost), (2, 1));
        let flap = &rows[7];
        assert_eq!((flap.events, flap.hosts_lost), (2, 1));
        assert_eq!(flap.fallback, None, "patched, not reshaped");
        assert!(flap.blocks_moved > 0);
        // The three-hop chain resolves storm → card → host: three
        // events, one card and one host down.
        let chain = &rows[8];
        assert_eq!(
            (chain.events, chain.cards_lost, chain.hosts_lost),
            (3, 1, 1)
        );
        // The rack power event fans one draw into the whole correlated
        // 8-rank set — all dead in one resolution step, still patched
        // in place (8 ≤ the size/8 death budget on 100 nodes).
        let rack = &rows[9];
        assert_eq!((rack.events, rack.hosts_lost), (9, 8));
        assert_eq!(rack.remap, RemapStrategy::Patch);
        assert_eq!(rack.fallback, None, "budgeted patch keeps the grid");
        assert!(rack.blocks_moved > ck.blocks_moved);
        // The storm fan-out strikes every card on its host (one on the
        // Table III system).
        let fan = &rows[10];
        assert_eq!((fan.events, fan.cards_lost, fan.hosts_lost), (2, 1, 0));
        // Monotone: every faulted row costs time and GF/s.
        for r in &rows[1..] {
            assert!(r.time_s >= r.healthy_s, "{}", r.scenario);
            assert!(r.gflops <= rows[0].gflops, "{}", r.scenario);
        }
    }

    #[test]
    fn cluster_render_is_deterministic() {
        let a = fault_campaign_cluster_render(0xCAFE, RemapStrategy::default());
        assert_eq!(
            a,
            fault_campaign_cluster_render(0xCAFE, RemapStrategy::default())
        );
        assert!(a.contains("bit-identical"), "{a}");
        let md = experiments_fault_section_md(0xCAFE);
        assert_eq!(md, experiments_fault_section_md(0xCAFE));
        assert!(md.contains("Table III cluster scenarios"));
    }

    #[test]
    fn wholesale_everywhere_matches_the_explicit_row() {
        // Running the whole table under Wholesale turns the default
        // host-death row into the explicit wholesale row.
        let rows = fault_campaign_cluster_rows(0x11, RemapStrategy::Wholesale);
        assert_eq!(rows[2].fingerprint, rows[4].fingerprint);
        assert_eq!(rows[2].blocks_moved, rows[4].blocks_moved);
        assert_eq!(rows[2].fallback, Some((9, 11)));
    }
}
