//! Declarative campaign specifications and their content-addressed
//! keys.
//!
//! A [`CampaignSpec`] names everything a campaign's result depends on —
//! machine shape, process grid, `NB`, look-ahead, work division,
//! broadcast scheme, the seeded fault plan, and the recovery remap —
//! and nothing else. Specs are **canonicalized** before keying
//! ([`CampaignSpec::canonical`]): fields that provably cannot affect
//! the outcome (a fault plan with zero events, a remap strategy with no
//! faults to recover from) are normalized away, so two requests that
//! denote the same simulation hash to the same key and dedup into one
//! execution.

use crate::error::ServeError;
use crate::Fnv;
use phi_fabric::{BcastScheme, ProcessGrid, RemapStrategy};
use phi_faults::CampaignScope;
use phi_hpl::hybrid::{HybridConfig, Lookahead, WorkDivision};

/// Bumped whenever spec canonicalization or the executed simulation
/// changes meaning, so stale store entries can never be served.
const SPEC_VERSION: u64 = 1;

/// Most fault events one campaign may schedule (cascade fan-out adds
/// more at resolution time; this bounds the *root* draws).
const MAX_EVENTS: usize = 64;

/// The seeded fault plan a campaign runs under.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSpec {
    /// No faults: the healthy run of the configuration.
    None,
    /// A seeded [`phi_faults::FaultPlan::fleet_campaign`] draw.
    Campaign {
        /// Campaign seed (replay identity).
        seed: u64,
        /// Root events drawn over the horizon.
        events: usize,
        /// Failure-mode family the draw comes from.
        scope: CampaignScope,
        /// Fault horizon as a multiple of the healthy completion time
        /// (the fleet campaigns use `1.2`).
        horizon_scale: f64,
    },
}

impl FaultSpec {
    /// The fleet campaigns' default draw: 3 mixed events over 1.2× the
    /// healthy run.
    pub(crate) fn default_campaign(seed: u64) -> Self {
        FaultSpec::Campaign {
            seed,
            events: 3,
            scope: CampaignScope::Mixed,
            horizon_scale: 1.2,
        }
    }
}

fn scope_code(s: CampaignScope) -> u64 {
    match s {
        CampaignScope::Mixed => 0,
        CampaignScope::Rack => 1,
        CampaignScope::Storm => 2,
    }
}

fn la_code(la: Lookahead) -> u64 {
    match la {
        Lookahead::None => 0,
        Lookahead::Basic => 1,
        Lookahead::Pipelined => 2,
    }
}

fn bc_code(b: BcastScheme) -> u64 {
    match b {
        BcastScheme::Ring => 0,
        BcastScheme::TwoRing => 1,
        BcastScheme::Binomial => 2,
    }
}

/// One campaign, declaratively: the full product the ROADMAP names —
/// grid × NB × broadcast × look-ahead × work division × fault plan ×
/// remap × fleet scope. Everything the simulated outcome depends on is
/// a field here; everything else (worker threads, store paths, wall
/// clock) is deliberately absent, so the key is a pure content address.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Process grid `(p, q)`; the machine has `p · q` nodes.
    pub grid: (usize, usize),
    /// Coprocessors per node.
    pub cards_per_node: usize,
    /// Host memory per node, GiB.
    pub host_mem_gib: f64,
    /// Problem size.
    pub n: usize,
    /// Panel width (`Kt` is tied to it, as the paper runs).
    pub nb: usize,
    /// Look-ahead scheme.
    pub lookahead: Lookahead,
    /// Host/card work division.
    pub division: WorkDivision,
    /// Panel-broadcast scheme.
    pub bcast: BcastScheme,
    /// The fault plan.
    pub faults: FaultSpec,
    /// Recovery remap strategy (only meaningful with faults).
    pub remap: RemapStrategy,
    /// Patch death budget override; `None` keeps the simulator's
    /// `size / 8` default.
    pub death_budget: Option<usize>,
}

impl CampaignSpec {
    /// A healthy single-node spec at the paper's defaults: pipelined
    /// look-ahead, dynamic stealing, ring broadcast, one card, 64 GiB.
    pub fn single_node(n: usize, nb: usize) -> Self {
        Self {
            grid: (1, 1),
            cards_per_node: 1,
            host_mem_gib: 64.0,
            n,
            nb,
            lookahead: Lookahead::Pipelined,
            division: WorkDivision::Dynamic,
            bcast: BcastScheme::Ring,
            faults: FaultSpec::None,
            remap: RemapStrategy::Patch,
            death_budget: None,
        }
    }

    /// The paper's Table III 100-node system (N = 825K on 10 × 10) with
    /// a seeded mixed fault campaign — the fleet campaigns' per-seed
    /// hybrid run.
    pub fn paper_cluster_campaign(seed: u64) -> Self {
        Self {
            grid: (10, 10),
            n: 825_000,
            faults: FaultSpec::default_campaign(seed),
            ..Self::single_node(825_000, 1200)
        }
    }

    /// The simulator configuration this spec denotes.
    pub(crate) fn hybrid_config(&self) -> HybridConfig {
        let mut cfg = HybridConfig::new(
            self.n,
            ProcessGrid::new(self.grid.0, self.grid.1),
            self.cards_per_node,
        );
        cfg.nb = self.nb;
        cfg.offload.kt = self.nb;
        cfg.lookahead = self.lookahead;
        cfg.division = self.division;
        cfg.bcast = self.bcast;
        cfg.host_mem_gib = self.host_mem_gib;
        cfg
    }

    /// Validates every rule the executor relies on, so the request path
    /// can never hit a simulator assertion. Returns the violated rule.
    pub fn validate(&self) -> Result<(), ServeError> {
        let (p, q) = self.grid;
        if p == 0 || q == 0 {
            return Err(ServeError::invalid(format!("grid {p}x{q} has no ranks")));
        }
        if self.cards_per_node == 0 {
            return Err(ServeError::invalid("at least one coprocessor per node"));
        }
        if self.n == 0 {
            return Err(ServeError::invalid("problem size N must be positive"));
        }
        if self.nb == 0 || self.nb > self.n {
            return Err(ServeError::invalid(format!(
                "panel width NB = {} outside 1..=N (N = {})",
                self.nb, self.n
            )));
        }
        if !self.host_mem_gib.is_finite() || self.host_mem_gib <= 0.0 {
            return Err(ServeError::invalid(
                "host memory must be finite and positive",
            ));
        }
        if let WorkDivision::Static { card_fraction } = self.division {
            if !card_fraction.is_finite() || !(0.0..=1.0).contains(&card_fraction) {
                return Err(ServeError::invalid(format!(
                    "static card fraction {card_fraction} outside [0, 1]"
                )));
            }
        }
        if let FaultSpec::Campaign {
            events,
            horizon_scale,
            ..
        } = self.faults
        {
            if events > MAX_EVENTS {
                return Err(ServeError::invalid(format!(
                    "{events} fault events exceeds the {MAX_EVENTS}-event bound"
                )));
            }
            if !horizon_scale.is_finite() || horizon_scale <= 0.0 || horizon_scale > 100.0 {
                return Err(ServeError::invalid(format!(
                    "fault horizon scale {horizon_scale} outside (0, 100]"
                )));
            }
        }
        // The same memory gate `simulate_cluster` asserts — checked
        // here so an infeasible spec is a typed error, not a panic.
        self.hybrid_config()
            .fits_host_memory()
            .map_err(ServeError::invalid)
    }

    /// The canonical form: equal simulations, equal specs. A fault plan
    /// with zero events *is* the healthy plan regardless of its seed or
    /// scope, and without faults the recovery remap and death budget
    /// cannot influence the run — both normalize to their defaults so
    /// every spelling of the same simulation shares one key.
    pub fn canonical(&self) -> Self {
        let mut c = *self;
        if let FaultSpec::Campaign { events: 0, .. } = c.faults {
            c.faults = FaultSpec::None;
        }
        if c.faults == FaultSpec::None {
            c.remap = RemapStrategy::Patch;
            c.death_budget = None;
        }
        c
    }

    /// The content-addressed key: FNV-1a over `SPEC_VERSION` and
    /// every canonical field, `f64`s as exact bit patterns.
    pub fn key(&self) -> u64 {
        let c = self.canonical();
        let mut h = Fnv::new();
        h.write_u64(SPEC_VERSION);
        h.write_u64(c.grid.0 as u64);
        h.write_u64(c.grid.1 as u64);
        h.write_u64(c.cards_per_node as u64);
        h.write_u64(c.host_mem_gib.to_bits());
        h.write_u64(c.n as u64);
        h.write_u64(c.nb as u64);
        h.write_u64(la_code(c.lookahead));
        match c.division {
            WorkDivision::Dynamic => h.write_u64(0),
            WorkDivision::Static { card_fraction } => {
                h.write_u64(1);
                h.write_u64(card_fraction.to_bits());
            }
        }
        h.write_u64(bc_code(c.bcast));
        match c.faults {
            FaultSpec::None => h.write_u64(0),
            FaultSpec::Campaign {
                seed,
                events,
                scope,
                horizon_scale,
            } => {
                h.write_u64(1);
                h.write_u64(seed);
                h.write_u64(events as u64);
                h.write_u64(scope_code(scope));
                h.write_u64(horizon_scale.to_bits());
            }
        }
        h.write_u64(match c.remap {
            RemapStrategy::Patch => 0,
            RemapStrategy::Wholesale => 1,
        });
        match c.death_budget {
            None => h.write_u64(0),
            Some(b) => {
                h.write_u64(1);
                h.write_u64(b as u64);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_names_each_violated_rule() {
        let ok = CampaignSpec::single_node(20_000, 1200);
        assert!(ok.validate().is_ok());
        let cases: Vec<(CampaignSpec, &str)> = vec![
            (CampaignSpec { grid: (0, 3), ..ok }, "no ranks"),
            (
                CampaignSpec {
                    cards_per_node: 0,
                    ..ok
                },
                "coprocessor",
            ),
            (CampaignSpec { nb: 0, ..ok }, "panel width"),
            (CampaignSpec { nb: ok.n + 1, ..ok }, "panel width"),
            (
                CampaignSpec {
                    host_mem_gib: f64::NAN,
                    ..ok
                },
                "host memory",
            ),
            (
                CampaignSpec {
                    division: WorkDivision::Static { card_fraction: 1.5 },
                    ..ok
                },
                "card fraction",
            ),
            (
                CampaignSpec {
                    faults: FaultSpec::Campaign {
                        seed: 1,
                        events: MAX_EVENTS + 1,
                        scope: CampaignScope::Mixed,
                        horizon_scale: 1.2,
                    },
                    ..ok
                },
                "event",
            ),
            (
                CampaignSpec {
                    faults: FaultSpec::Campaign {
                        seed: 1,
                        events: 2,
                        scope: CampaignScope::Mixed,
                        horizon_scale: 0.0,
                    },
                    ..ok
                },
                "horizon",
            ),
            (CampaignSpec { n: 200_000, ..ok }, "does not fit"),
        ];
        for (bad, needle) in cases {
            match bad.validate() {
                Err(ServeError::InvalidSpec { reason }) => {
                    assert!(reason.contains(needle), "`{reason}` lacks `{needle}`")
                }
                other => panic!("expected InvalidSpec({needle}), got {other:?}"),
            }
        }
    }

    #[test]
    fn canonicalization_collapses_equivalent_spellings() {
        let base = CampaignSpec::single_node(20_000, 1200);
        // A zero-event campaign is the healthy plan, whatever its seed.
        let zero_events = CampaignSpec {
            faults: FaultSpec::Campaign {
                seed: 0xABCD,
                events: 0,
                scope: CampaignScope::Rack,
                horizon_scale: 7.0,
            },
            ..base
        };
        assert_eq!(zero_events.key(), base.key());
        // Without faults the remap and budget cannot matter.
        let whsl = CampaignSpec {
            remap: RemapStrategy::Wholesale,
            death_budget: Some(3),
            ..base
        };
        assert_eq!(whsl.key(), base.key());
        // With faults they do.
        let faulty = CampaignSpec {
            faults: FaultSpec::default_campaign(9),
            ..base
        };
        let faulty_whsl = CampaignSpec {
            remap: RemapStrategy::Wholesale,
            ..faulty
        };
        assert_ne!(faulty.key(), faulty_whsl.key());
    }

    #[test]
    fn distinct_specs_key_distinctly() {
        let base = CampaignSpec::paper_cluster_campaign(1);
        let mut keys = vec![base.key()];
        for variant in [
            CampaignSpec { nb: 960, ..base },
            CampaignSpec {
                bcast: BcastScheme::Binomial,
                ..base
            },
            CampaignSpec {
                lookahead: Lookahead::Basic,
                ..base
            },
            CampaignSpec {
                grid: (5, 20),
                ..base
            },
            CampaignSpec::paper_cluster_campaign(2),
            CampaignSpec {
                division: WorkDivision::Static {
                    card_fraction: 0.85,
                },
                ..base
            },
            CampaignSpec {
                death_budget: Some(2),
                ..base
            },
        ] {
            keys.push(variant.key());
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 8, "spec variants must key apart");
        // Keys are stable across calls.
        assert_eq!(base.key(), CampaignSpec::paper_cluster_campaign(1).key());
    }
}
