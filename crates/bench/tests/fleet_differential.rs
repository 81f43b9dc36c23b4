//! Differential locks on the fleet Monte Carlo layer and the fan-out
//! refactor it rides on.
//!
//! 1. **Thread-count independence** — the fleet's rendered report (and
//!    therefore every percentile, curve and frontier in it) must be
//!    byte-identical at 1, 2 and 8 worker threads: the striped merge
//!    puts every seed's outcome back in its input slot, so scheduling
//!    can never leak into the statistics.
//! 2. **Single-child chains are the legacy format** — an
//!    `Escalation::new(..).chain(..)` cascade built after the fan-out
//!    refactor must resolve to the same events and the same plan
//!    fingerprint as the pre-refactor single-child encoding; the pinned
//!    constant below was captured from the pre-fan-out implementation.

use phi_bench::fleet::{fleet_render, run_fleet, FleetOptions};
use phi_bench::FIXTURE_SEED;
use phi_faults::{CampaignScope, Escalation, FaultKind, FaultPlan};

fn opts(threads: usize) -> FleetOptions {
    FleetOptions {
        seeds: 48,
        threads,
        scope: CampaignScope::Mixed,
        budgets: vec![4, 12],
        budget_stride: 12,
        ..FleetOptions::default()
    }
}

#[test]
fn fleet_report_is_byte_identical_at_1_2_and_8_threads() {
    let base = fleet_render(&opts(1));
    for threads in [2usize, 8] {
        assert_eq!(
            fleet_render(&opts(threads)),
            base,
            "fleet report diverged at {threads} threads"
        );
    }
}

#[test]
fn fleet_outcomes_merge_independently_of_thread_count() {
    let base = run_fleet(&opts(1));
    for threads in [2usize, 8] {
        let other = run_fleet(&opts(threads));
        assert_eq!(other.digest, base.digest);
        for (a, b) in base.outcomes.iter().zip(&other.outcomes) {
            assert_eq!(a, b, "seed {:#x} diverged at {threads} threads", a.seed);
        }
    }
}

#[test]
fn rack_and_storm_scoped_fleets_are_deterministic_too() {
    for scope in [CampaignScope::Rack, CampaignScope::Storm] {
        let base = run_fleet(&FleetOptions { scope, ..opts(1) });
        let wide = run_fleet(&FleetOptions { scope, ..opts(8) });
        assert_eq!(base.digest, wide.digest, "{}", scope.name());
    }
}

/// Builds the three-hop single-child cascade the pre-fan-out campaign
/// used, resolves it, and checks fingerprint + event schedule are
/// exactly what the single-boxed-child implementation produced.
#[test]
fn single_child_chain_resolution_matches_pre_fanout_capture() {
    let plan =
        FaultPlan::none()
            .with_cascade(
                100.0,
                FaultKind::PcieCrcStorm {
                    stall_s: 2e-4,
                    duration_s: 30.0,
                },
                Escalation::new(FaultKind::CardDeath { card: 0 }, 15.0, 1.0).chain(
                    Escalation::new(FaultKind::HostDeath { rank: 23 }, 15.0, 1.0),
                ),
            )
            .resolved(FIXTURE_SEED, 1.0e4);
    // Storm at 100 s, card death at exactly +15 s, host death +15 s
    // after that: delays with probability 1.0 and no jitter take no
    // random draw, so the onsets are exact sums.
    assert_eq!(plan.events().len(), 3);
    assert_eq!(plan.events()[0].at_s.to_bits(), 100.0f64.to_bits());
    assert_eq!(plan.events()[1].at_s.to_bits(), 115.0f64.to_bits());
    assert_eq!(plan.events()[2].at_s.to_bits(), 130.0f64.to_bits());
    assert!(matches!(
        plan.events()[1].kind,
        FaultKind::CardDeath { card: 0 }
    ));
    assert!(matches!(
        plan.events()[2].kind,
        FaultKind::HostDeath { rank: 23 }
    ));
    // The pinned capture: the single-child encoding's exact
    // fingerprint. Any fan-out change that perturbs the legacy byte
    // stream lands here.
    assert_eq!(plan.fingerprint(), 0x2c2153e4f8029b53);
}
