//! Bit-identity lock on the per-stage cost model.
//!
//! A seeded sweep of cluster configurations is run through every entry
//! point that prices an HPL stage — healthy, DES-calibrated, faulty,
//! rank-DES and the native pair — and each entry point's exact output
//! bits are folded into one digest. The digests are a golden: any
//! reordering of an `f64` expression anywhere in the stage model moves
//! at least one of them.
//!
//! To accept an intentional numeric change, regenerate with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p phi-hpl --test stage_identity
//! ```
//!
//! and review the diff like any other code change.

use phi_fabric::{BcastScheme, ProcessGrid, RemapStrategy};
use phi_faults::{CampaignScope, FaultPlan, FaultRng, Fnv};
use phi_hpl::hybrid::{
    simulate_cluster, simulate_cluster_calibrated, simulate_cluster_faulty,
    simulate_cluster_rankdes, ClusterResult, FtPolicy, HybridConfig, IterationProfile, Lookahead,
    WorkDivision,
};
use phi_hpl::native::{simulate_native_cluster, simulate_native_cluster_ft, NativeClusterConfig};
use phi_hpl::report::GigaflopsReport;
use std::path::PathBuf;

/// Configurations in the sweep (the first 162 are the full cross of
/// grid × cards × look-ahead × broadcast; the rest revisit it with fresh
/// seeded N/NB/division draws).
const CONFIGS: usize = 240;
/// Seeded fault plans per configuration (each run under both remaps).
const PLANS: u64 = 8;

const GRIDS: [(usize, usize); 6] = [(1, 1), (2, 2), (2, 3), (4, 8), (10, 10), (9, 11)];
const LOOKAHEADS: [Lookahead; 3] = [Lookahead::None, Lookahead::Basic, Lookahead::Pipelined];
const BCASTS: [BcastScheme; 3] = [
    BcastScheme::Ring,
    BcastScheme::TwoRing,
    BcastScheme::Binomial,
];
const REMAPS: [RemapStrategy; 2] = [RemapStrategy::Patch, RemapStrategy::Wholesale];

/// The `i`-th hybrid configuration of the sweep.
fn hybrid_case(i: usize, rng: &mut FaultRng) -> HybridConfig {
    let (p, q) = GRIDS[i % 6];
    let cards = (i / 6) % 3;
    let nb = [240, 480, 960, 1200, 1536][rng.index(0, 5)];
    let stages = rng.index(3, 48);
    // A ragged last panel two times in three.
    let ragged = if rng.index(0, 3) == 0 {
        0
    } else {
        rng.index(1, nb)
    };
    let mut cfg = HybridConfig::new(nb * stages - ragged, ProcessGrid::new(p, q), cards);
    cfg.nb = nb;
    cfg.lookahead = LOOKAHEADS[(i / 18) % 3];
    cfg.bcast = BCASTS[(i / 54) % 3];
    cfg.division = if rng.index(0, 2) == 0 {
        WorkDivision::Dynamic
    } else {
        WorkDivision::Static {
            card_fraction: rng.range(0.5, 1.0),
        }
    };
    cfg
}

/// The `i`-th native configuration: same grid, card-sized problem.
fn native_case(i: usize, rng: &mut FaultRng) -> NativeClusterConfig {
    let (p, q) = GRIDS[i % 6];
    let nb = [128, 256, 384][rng.index(0, 3)];
    let stages = rng.index(3, 60);
    let ragged = rng.index(0, nb);
    let mut cfg = NativeClusterConfig::new(nb * stages - ragged, p, q);
    cfg.nb = nb;
    cfg
}

fn fold_report(h: &mut Fnv, r: &GigaflopsReport) {
    h.write_u64(r.time_s.to_bits());
    h.write_u64(r.gflops.to_bits());
    if let Some(f) = r.faults {
        for x in [
            f.plan_fingerprint,
            f.events as u64,
            f.cards_lost as u64,
            f.hosts_lost as u64,
            f.fallback_grid.map_or(0, |(p, q)| (p * 1000 + q) as u64),
            f.blocks_moved as u64,
            f.checkpoint_s.to_bits(),
            f.recovery_s.to_bits(),
            f.degraded_stages as u64,
            f.healthy_time_s.to_bits(),
            f.healthy_gflops.to_bits(),
        ] {
            h.write_u64(x);
        }
    }
}

fn fold_profile(h: &mut Fnv, it: &IterationProfile) {
    h.write_u64(it.stage as u64);
    h.write_u64(it.trailing_n as u64);
    for x in [
        it.stage_time,
        it.card_busy,
        it.panel_exposed,
        it.three_exposed,
        it.update,
    ] {
        h.write_u64(x.to_bits());
    }
}

fn fold_cluster(h: &mut Fnv, r: &ClusterResult) {
    fold_report(h, &r.report);
    h.write_u64(r.card_idle_fraction.to_bits());
    h.write_u64(r.iterations.len() as u64);
    for it in &r.iterations {
        fold_profile(h, it);
    }
}

/// One digest per entry point over the whole sweep.
fn sweep_digests() -> String {
    let mut healthy = Fnv::new();
    let mut calibrated = Fnv::new();
    let mut faulty_none = Fnv::new();
    let mut faulty_plans = Fnv::new();
    let mut rankdes = Fnv::new();
    let mut native = Fnv::new();
    let mut native_ft = Fnv::new();

    let mut rng = FaultRng::new(0x057A_6E1D);
    for i in 0..CONFIGS {
        let cfg = hybrid_case(i, &mut rng);
        let base = simulate_cluster(&cfg, true);
        fold_cluster(&mut healthy, &base);
        fold_cluster(&mut calibrated, &simulate_cluster_calibrated(&cfg, 16));

        let none = simulate_cluster_faulty(&cfg, &FaultPlan::none(), &FtPolicy::none(), true);
        fold_cluster(&mut faulty_none, &none.result);
        // (b) healthy ≡ faulty-under-no-faults, field by field. (The idle
        // fraction is accounted differently by design: the fault driver
        // weighs by cards alive per stage and leaves out back-substitution.)
        assert_eq!(none.result.iterations.len(), base.iterations.len());
        for (a, b) in none.result.iterations.iter().zip(&base.iterations) {
            let (mut ha, mut hb) = (Fnv::new(), Fnv::new());
            fold_profile(&mut ha, a);
            fold_profile(&mut hb, b);
            assert_eq!(ha.finish(), hb.finish(), "config {i}: {a:?} vs {b:?}");
        }
        assert_eq!(
            none.result.report.time_s.to_bits(),
            base.report.time_s.to_bits(),
            "config {i}: total time"
        );

        let horizon = base.report.time_s * 1.2;
        for k in 0..PLANS {
            let seed = (i as u64) << 8 | k;
            let plan = if k % 2 == 0 {
                FaultPlan::cluster_campaign(seed, horizon, 6, cfg.grid.size(), cfg.cards_per_node)
            } else {
                FaultPlan::fleet_campaign(
                    seed,
                    horizon,
                    6,
                    cfg.grid.size(),
                    cfg.cards_per_node,
                    CampaignScope::Mixed,
                )
            };
            for remap in REMAPS {
                let policy = if k % 4 < 2 {
                    FtPolicy::default()
                } else {
                    FtPolicy::none()
                }
                .with_remap(remap);
                let ft = simulate_cluster_faulty(&cfg, &plan, &policy, true);
                fold_cluster(&mut faulty_plans, &ft.result);
                faulty_plans.write_u64(ft.run_fingerprint());
                faulty_plans.write_u64(ft.trace.spans().len() as u64);
                for s in ft.trace.spans() {
                    faulty_plans.write_u64(s.lane as u64);
                    faulty_plans.write_u64(s.start.to_bits());
                    faulty_plans.write_u64(s.end.to_bits());
                }
            }
        }

        // The engine is byte-identical at any thread count (its own tests
        // pin that) and a two-thread run costs ~100 ms of barrier traffic,
        // so only every 40th configuration pays for one.
        let des = simulate_cluster_rankdes(&cfg, if i % 40 == 0 { 2 } else { 1 });
        rankdes.write_u64(des.time_s.to_bits());
        rankdes.write_u64(des.report.gflops.to_bits());
        rankdes.write_u64(des.parallel.events);
        rankdes.write_u64(des.parallel.digest);

        let ncfg = native_case(i, &mut rng);
        let nbase = simulate_native_cluster(&ncfg);
        fold_report(&mut native, &nbase);
        let nhorizon = nbase.time_s * 1.2;
        fold_report(
            &mut native_ft,
            &simulate_native_cluster_ft(&ncfg, &FaultPlan::none(), false, REMAPS[0]),
        );
        for k in 0..2u64 {
            let plan =
                FaultPlan::cluster_campaign((i as u64) << 8 | k, nhorizon, 6, ncfg.grid.size(), 1);
            for remap in REMAPS {
                fold_report(
                    &mut native_ft,
                    &simulate_native_cluster_ft(&ncfg, &plan, k == 0, remap),
                );
            }
        }
    }

    let mut out = format!("configs {CONFIGS}\n");
    for (name, h) in [
        ("simulate_cluster", healthy),
        ("simulate_cluster_calibrated", calibrated),
        ("simulate_cluster_faulty/none", faulty_none),
        ("simulate_cluster_faulty/plans", faulty_plans),
        ("simulate_cluster_rankdes", rankdes),
        ("simulate_native_cluster", native),
        ("simulate_native_cluster_ft", native_ft),
    ] {
        out.push_str(&format!("{name} {:016x}\n", h.finish()));
    }
    out
}

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    for (exp, act) in expected.lines().zip(actual.lines()) {
        assert_eq!(exp, act, "{name}: digest moved (UPDATE_GOLDEN=1 to regen)");
    }
    assert_eq!(expected, actual, "{name}: byte-level drift");
}

#[test]
fn every_stage_entry_point_matches_the_parent_golden() {
    check_golden("stage_identity.txt", &sweep_digests());
}
