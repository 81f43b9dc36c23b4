//! Campaign execution and the persisted outcome row.
//!
//! [`run_campaign`] is the pure function behind the service: spec in,
//! [`CampaignOutcome`] out, deterministic bit-for-bit (the simulators
//! replay from the spec's seed). The outcome implements
//! [`Record`], so the service persists every
//! result in the content-addressed store and a warm process serves the
//! exact bytes a cold one computed.

use crate::spec::{CampaignSpec, FaultSpec};
use crate::store::{field, hex_f64, Record};
use phi_faults::FaultPlan;
use phi_hpl::hybrid::simulate_cluster;
use phi_hpl::{simulate_cluster_faulty, FtPolicy};

/// One executed campaign, reduced to the queryable row the result
/// table serves: throughput, completion time, fault counts and
/// recovery cost, plus the replay fingerprint witnessing the run.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignOutcome {
    /// The canonical spec key this outcome answers.
    pub key: u64,
    /// Completion time, seconds.
    pub time_s: f64,
    /// Delivered GFLOPS.
    pub gflops: f64,
    /// Completion time of the identical configuration with no faults.
    pub healthy_time_s: f64,
    /// GFLOPS of the identical configuration with no faults.
    pub healthy_gflops: f64,
    /// Scheduled fault events (after cascade resolution).
    pub events: usize,
    /// Coprocessors permanently lost.
    pub cards_lost: usize,
    /// Host ranks permanently lost.
    pub hosts_lost: usize,
    /// Trailing `nb × nb` blocks redistributed across host deaths.
    pub blocks_moved: usize,
    /// Panel-checkpoint time paid, seconds.
    pub checkpoint_s: f64,
    /// Recovery (restore + re-division) time, seconds.
    pub recovery_s: f64,
    /// Replay fingerprint of the run.
    pub fingerprint: u64,
}

impl CampaignOutcome {
    /// Fractional slowdown versus the healthy run.
    pub(crate) fn overhead(&self) -> f64 {
        if self.healthy_time_s > 0.0 {
            self.time_s / self.healthy_time_s - 1.0
        } else {
            0.0
        }
    }
}

/// Executes one validated, canonicalized spec. Pure and deterministic:
/// two calls with the same spec return bit-identical outcomes, which is
/// what makes the content-addressed store sound.
///
/// A healthy spec ([`FaultSpec::None`]) runs under [`FtPolicy::none`]
/// (no checkpoint insurance — it *is* the healthy reference run);
/// a fault campaign runs under the default checkpointing policy with
/// the spec's remap strategy and death budget applied.
pub fn run_campaign(spec: &CampaignSpec) -> CampaignOutcome {
    let spec = spec.canonical();
    let cfg = spec.hybrid_config();
    let healthy = simulate_cluster(&cfg, false).report;
    let (plan, policy) = match spec.faults {
        FaultSpec::None => (FaultPlan::none(), FtPolicy::none()),
        FaultSpec::Campaign {
            seed,
            events,
            scope,
            horizon_scale,
        } => {
            let plan = FaultPlan::fleet_campaign(
                seed,
                healthy.time_s * horizon_scale,
                events,
                cfg.grid.size(),
                spec.cards_per_node,
                scope,
            );
            let mut policy = FtPolicy::default().with_remap(spec.remap);
            if let Some(b) = spec.death_budget {
                policy = policy.with_death_budget(b);
            }
            (plan, policy)
        }
    };
    let out = simulate_cluster_faulty(&cfg, &plan, &policy, false);
    let report = &out.result.report;
    let f = report
        .faults
        .as_ref()
        .expect("fault-tolerant runs always carry accounting");
    CampaignOutcome {
        key: spec.key(),
        time_s: report.time_s,
        gflops: report.gflops,
        healthy_time_s: healthy.time_s,
        healthy_gflops: healthy.gflops,
        events: f.events,
        cards_lost: f.cards_lost,
        hosts_lost: f.hosts_lost,
        blocks_moved: f.blocks_moved,
        checkpoint_s: f.checkpoint_s,
        recovery_s: f.recovery_s,
        fingerprint: out.run_fingerprint(),
    }
}

impl Record for CampaignOutcome {
    const NAMESPACE: &'static str = "campaign";
    const HEADER: &'static str = "phi-serve campaign v1";

    fn write_fields(&self, out: &mut String) {
        out.push_str(&format!("key {:016x}\n", self.key));
        out.push_str(&format!(
            "times t={:016x} g={:016x} ht={:016x} hg={:016x}\n",
            self.time_s.to_bits(),
            self.gflops.to_bits(),
            self.healthy_time_s.to_bits(),
            self.healthy_gflops.to_bits(),
        ));
        out.push_str(&format!(
            "faults ev={} cards={} hosts={} blocks={} ck={:016x} rec={:016x}\n",
            self.events,
            self.cards_lost,
            self.hosts_lost,
            self.blocks_moved,
            self.checkpoint_s.to_bits(),
            self.recovery_s.to_bits(),
        ));
        out.push_str(&format!("fp {:016x}\n", self.fingerprint));
    }

    fn parse_fields(fields: &str) -> Option<Self> {
        let mut lines = fields.lines();
        let key = u64::from_str_radix(lines.next()?.strip_prefix("key ")?, 16).ok()?;
        let t: Vec<&str> = lines.next()?.strip_prefix("times ")?.split(' ').collect();
        let f: Vec<&str> = lines.next()?.strip_prefix("faults ")?.split(' ').collect();
        let fp = u64::from_str_radix(lines.next()?.strip_prefix("fp ")?, 16).ok()?;
        if lines.next().is_some() {
            return None;
        }
        Some(Self {
            key,
            time_s: hex_f64(field(&t, "t")?)?,
            gflops: hex_f64(field(&t, "g")?)?,
            healthy_time_s: hex_f64(field(&t, "ht")?)?,
            healthy_gflops: hex_f64(field(&t, "hg")?)?,
            events: field(&f, "ev")?.parse().ok()?,
            cards_lost: field(&f, "cards")?.parse().ok()?,
            hosts_lost: field(&f, "hosts")?.parse().ok()?,
            blocks_moved: field(&f, "blocks")?.parse().ok()?,
            checkpoint_s: hex_f64(field(&f, "ck")?)?,
            recovery_s: hex_f64(field(&f, "rec")?)?,
            fingerprint: fp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{parse_record, serialize_record};

    fn eq_bits(a: &CampaignOutcome, b: &CampaignOutcome) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        assert_eq!(a.gflops.to_bits(), b.gflops.to_bits());
        assert_eq!(a.healthy_time_s.to_bits(), b.healthy_time_s.to_bits());
        assert_eq!(a.healthy_gflops.to_bits(), b.healthy_gflops.to_bits());
        assert_eq!(a.checkpoint_s.to_bits(), b.checkpoint_s.to_bits());
        assert_eq!(a.recovery_s.to_bits(), b.recovery_s.to_bits());
        assert_eq!(
            (a.events, a.cards_lost, a.hosts_lost, a.blocks_moved),
            (b.events, b.cards_lost, b.hosts_lost, b.blocks_moved)
        );
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn execution_is_deterministic_bit_for_bit() {
        let spec = CampaignSpec::paper_cluster_campaign(0xC0DE);
        let a = run_campaign(&spec);
        let b = run_campaign(&spec);
        eq_bits(&a, &b);
        assert!(a.events > 0, "a seeded campaign draws events");
        assert!(a.time_s >= a.healthy_time_s);
    }

    #[test]
    fn healthy_spec_reproduces_the_healthy_simulation() {
        let spec = CampaignSpec::single_node(20_000, 1200);
        let out = run_campaign(&spec);
        let healthy = simulate_cluster(&spec.hybrid_config(), false).report;
        assert_eq!(out.time_s.to_bits(), healthy.time_s.to_bits());
        assert_eq!(out.gflops.to_bits(), healthy.gflops.to_bits());
        assert_eq!(out.events, 0);
        assert_eq!(out.overhead(), 0.0);
    }

    #[test]
    fn outcome_record_round_trips_byte_identically() {
        let out = run_campaign(&CampaignSpec::paper_cluster_campaign(7));
        let text = serialize_record(&out);
        let back: CampaignOutcome = parse_record(&text).expect("own serialization parses");
        eq_bits(&back, &out);
        assert_eq!(serialize_record(&back), text, "re-serialization drifts");
        // Negative-zero and subnormal bit patterns survive too.
        let odd = CampaignOutcome {
            time_s: -0.0,
            recovery_s: f64::MIN_POSITIVE / 2.0,
            ..out
        };
        let round: CampaignOutcome = parse_record(&serialize_record(&odd)).unwrap();
        assert_eq!(round.time_s.to_bits(), (-0.0f64).to_bits());
        assert_eq!(
            round.recovery_s.to_bits(),
            (f64::MIN_POSITIVE / 2.0).to_bits()
        );
    }
}
