//! Load generator for the `phi-serve` campaign service: thousands of
//! concurrent requests against a bounded worker pool, proving the
//! single-flight dedup, the content-addressed hit path and the
//! determinism contract under real thread contention.
//!
//! The workload draws requests from a fixed spec *space* (paper-cluster
//! campaigns varying `NB`, broadcast, look-ahead, fleet scope and seed)
//! with a seeded index mix, so many clients hammer few keys — the shape
//! a production result cache actually sees. Two phases run against one
//! service: **cold** (every unique spec executes exactly once, all
//! duplicates coalesce or hit memory) and **warm** (the same requests
//! again; zero executions). Each phase folds a digest over every
//! request's `(index, key, fingerprint, gflops)` — wall-clock numbers
//! are reported but deliberately excluded — so the digest is
//! byte-identical at any worker count, client count or hit/miss split.

use crate::fleet::percentile;
use crate::TextTable;
use phi_fabric::BcastScheme;
use phi_faults::{CampaignScope, Fnv};
use phi_hpl::hybrid::Lookahead;
use phi_serve::{CampaignService, CampaignSpec, FaultSpec, ServiceStats};
use phi_tune::striped_map;
use std::collections::BTreeSet;
use std::fmt::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Knobs of one load-generation run.
#[derive(Clone, Debug)]
pub struct ServeLoadOptions {
    /// Requests per phase (cold and warm each send this many).
    pub requests: usize,
    /// Unique specs in the workload space.
    pub space: usize,
    /// Service worker-pool threads; `0` picks the service default.
    pub workers: usize,
    /// Client threads issuing requests concurrently.
    pub clients: usize,
    /// Seed for the spec space and the request→spec index mix.
    pub seed0: u64,
    /// Persistent store directory; `None` runs the service in memory.
    pub store_dir: Option<PathBuf>,
}

impl Default for ServeLoadOptions {
    fn default() -> Self {
        Self {
            requests: 2_000,
            space: 48,
            workers: 0,
            clients: 8,
            seed0: 0x5E12E,
            store_dir: None,
        }
    }
}

/// The deterministic spec space of a run: paper-cluster fault campaigns
/// (Table III, N = 825K on 10 × 10) with `NB`, broadcast scheme,
/// look-ahead, fleet scope and seed varied per index. Every index gets
/// its own campaign seed, so the space holds exactly `space` distinct
/// keys.
pub fn build_specs(opts: &ServeLoadOptions) -> Vec<CampaignSpec> {
    const NBS: [usize; 2] = [1200, 960];
    const LAS: [Lookahead; 2] = [Lookahead::Pipelined, Lookahead::Basic];
    (0..opts.space)
        .map(|i| {
            let mut s = CampaignSpec::paper_cluster_campaign(opts.seed0.wrapping_add(i as u64));
            s.nb = NBS[i % NBS.len()];
            s.bcast = BcastScheme::ALL[i % BcastScheme::ALL.len()];
            s.lookahead = LAS[(i / 2) % LAS.len()];
            if let FaultSpec::Campaign { ref mut scope, .. } = s.faults {
                *scope = CampaignScope::ALL[(i / 3) % CampaignScope::ALL.len()];
            }
            s
        })
        .collect()
}

/// Which spec request `i` asks for: a seeded multiplicative mix, so
/// consecutive requests scatter across the space and every run of the
/// same options replays the same request stream.
fn pick(seed0: u64, i: usize, space: usize) -> usize {
    let x = (i as u64 ^ seed0)
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (((x ^ (x >> 33)).wrapping_mul(0xff51afd7ed558ccd) >> 16) % space.max(1) as u64) as usize
}

/// One phase's report. `digest` folds every request's deterministic
/// payload; the wall-clock fields are measurements, not contract.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PhaseReport {
    /// Requests issued.
    pub requests: usize,
    /// FNV-1a over `(index, key, fingerprint, gflops)` per request, in
    /// request order — byte-identical at any worker/client count.
    pub digest: u64,
    /// Wall-clock duration of the phase, seconds.
    pub wall_s: f64,
    /// Requests per wall-clock second.
    pub requests_per_s: f64,
    /// 99th-percentile per-request latency, microseconds.
    pub p99_latency_us: f64,
}

/// A full cold + warm load-generation run.
#[derive(Clone, Debug)]
pub(crate) struct ServeLoadResult {
    /// Distinct keys in the spec space.
    pub unique: usize,
    /// First pass: misses execute, duplicates dedup.
    pub cold: PhaseReport,
    /// Second pass of the same stream: pure hits.
    pub warm: PhaseReport,
    /// Service counters after the cold phase.
    pub cold_stats: ServiceStats,
    /// Service counters after both phases.
    pub stats: ServiceStats,
    /// Σ simulated completion time over the unique campaigns served,
    /// seconds — the deterministic denominator for simulated-terms
    /// throughput.
    pub sim_time_s: f64,
}

impl ServeLoadResult {
    /// Requests per *simulated* second: total requests served divided
    /// by the simulated time of the unique campaigns behind them.
    /// Deterministic at any thread count, unlike wall-clock throughput.
    pub(crate) fn simulated_requests_per_s(&self) -> f64 {
        if self.sim_time_s > 0.0 {
            (self.cold.requests + self.warm.requests) as f64 / self.sim_time_s
        } else {
            0.0
        }
    }

    /// Verifies every invariant the service contract promises. Returns
    /// the first violation, or `Ok` when the run is clean.
    pub(crate) fn check(&self) -> Result<(), String> {
        let s = &self.stats;
        if s.requests != self.cold.requests + self.warm.requests {
            return Err(format!(
                "request accounting: {} counted vs {} issued",
                s.requests,
                self.cold.requests + self.warm.requests
            ));
        }
        if s.mem_hits + s.store_hits + s.coalesced + s.executed != s.requests {
            return Err(format!("stats do not partition the requests: {s:?}"));
        }
        if self.cold_stats.executed > self.unique {
            return Err(format!(
                "single-flight violated: {} executions for {} unique specs",
                self.cold_stats.executed, self.unique
            ));
        }
        if s.executed != self.cold_stats.executed {
            return Err(format!(
                "warm phase executed {} simulations; it must execute none",
                s.executed - self.cold_stats.executed
            ));
        }
        if self.warm.digest != self.cold.digest {
            return Err(format!(
                "hit path returned different bytes: cold {:#018x} vs warm {:#018x}",
                self.cold.digest, self.warm.digest
            ));
        }
        Ok(())
    }
}

fn run_phase(
    service: &CampaignService,
    specs: &[CampaignSpec],
    opts: &ServeLoadOptions,
) -> PhaseReport {
    let t0 = Instant::now();
    let per: Vec<(u64, u64, u64, f64)> = striped_map(opts.requests, opts.clients, |i| {
        let spec = &specs[pick(opts.seed0, i, specs.len())];
        let t = Instant::now();
        let out = service
            .get(spec)
            .expect("load-generator specs are valid and the pool is live");
        let us = t.elapsed().as_secs_f64() * 1e6;
        (out.key, out.fingerprint, out.gflops.to_bits(), us)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut digest = Fnv::new();
    let mut lat = Vec::with_capacity(per.len());
    for (i, (key, fp, gbits, us)) in per.into_iter().enumerate() {
        digest.write_u64(i as u64);
        digest.write_u64(key);
        digest.write_u64(fp);
        digest.write_u64(gbits);
        lat.push(us);
    }
    PhaseReport {
        requests: opts.requests,
        digest: digest.finish(),
        wall_s,
        requests_per_s: opts.requests as f64 / wall_s.max(1e-9),
        p99_latency_us: percentile(&lat, 99.0),
    }
}

/// Runs the full load generation: build the spec space, start one
/// service, replay the request stream cold then warm, and collect the
/// phase reports plus the service counters.
pub(crate) fn serve_load(opts: &ServeLoadOptions) -> ServeLoadResult {
    let specs = build_specs(opts);
    let unique = specs
        .iter()
        .map(|s| s.key())
        .collect::<BTreeSet<u64>>()
        .len();
    let service = match &opts.store_dir {
        Some(dir) => CampaignService::open(dir, opts.workers)
            .expect("load-generator store directory must be creatable"),
        None => CampaignService::in_memory(opts.workers),
    };
    let cold = run_phase(&service, &specs, opts);
    let cold_stats = service.stats();
    let warm = run_phase(&service, &specs, opts);
    let stats = service.stats();
    let sim_time_s = service
        .table()
        .aggregate(phi_serve::Column::TimeS, phi_serve::Agg::Sum)
        .unwrap_or(0.0);
    ServeLoadResult {
        unique,
        cold,
        warm,
        cold_stats,
        stats,
        sim_time_s,
    }
}

/// Runs the load generation and renders the human-readable report
/// `phi serve` emits, ending with a PASS/FAIL verdict from
/// `ServeLoadResult::check`.
pub(crate) fn serve_load_render(opts: &ServeLoadOptions) -> String {
    let r = serve_load(opts);
    let s = &r.stats;
    let mut out = String::new();
    writeln!(
        out,
        "== phi-serve load generation: {} requests/phase over {} specs ({} unique), {} clients ==",
        opts.requests, opts.space, r.unique, opts.clients
    )
    .expect("writing to a String cannot fail");
    writeln!(
        out,
        "store: {}",
        opts.store_dir
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "in-memory".to_string())
    )
    .expect("writing to a String cannot fail");

    let mut t = TextTable::new(["phase", "requests", "wall(s)", "req/s", "p99(us)", "digest"]);
    for (label, p) in [("cold", &r.cold), ("warm", &r.warm)] {
        t.row([
            label.to_string(),
            p.requests.to_string(),
            format!("{:.3}", p.wall_s),
            format!("{:.0}", p.requests_per_s),
            format!("{:.1}", p.p99_latency_us),
            format!("{:#018x}", p.digest),
        ]);
    }
    out.push_str(&t.render());

    writeln!(
        out,
        "\nexecuted: {} | mem hits: {} | store hits: {} | coalesced: {}",
        s.executed, s.mem_hits, s.store_hits, s.coalesced
    )
    .expect("writing to a String cannot fail");
    writeln!(
        out,
        "hit rate: {:.4} | simulated throughput: {:.1} req/simulated-s",
        s.hit_rate(),
        r.simulated_requests_per_s()
    )
    .expect("writing to a String cannot fail");
    match r.check() {
        Ok(()) => out.push_str("serve-load invariants: PASS\n"),
        Err(e) => {
            writeln!(out, "serve-load invariants: FAIL — {e}")
                .expect("writing to a String cannot fail");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> ServeLoadOptions {
        ServeLoadOptions {
            requests: 1_000,
            space: 12,
            clients: 4,
            ..ServeLoadOptions::default()
        }
    }

    #[test]
    fn spec_space_is_exactly_unique_and_pick_is_stable() {
        let opts = ServeLoadOptions::default();
        let specs = build_specs(&opts);
        let keys: BTreeSet<u64> = specs.iter().map(|s| s.key()).collect();
        assert_eq!(keys.len(), opts.space, "every index must key uniquely");
        for s in &specs {
            s.validate().expect("generated specs are valid");
        }
        // The request→spec mix is deterministic and covers the space.
        let picks: Vec<usize> = (0..1000).map(|i| pick(opts.seed0, i, opts.space)).collect();
        assert_eq!(
            picks,
            (0..1000)
                .map(|i| pick(opts.seed0, i, opts.space))
                .collect::<Vec<_>>()
        );
        let covered: BTreeSet<usize> = picks.iter().copied().collect();
        assert!(covered.len() > opts.space / 2, "mix must spread the space");
    }

    #[test]
    fn load_is_byte_identical_at_one_two_and_eight_workers() {
        // Acceptance gate: ≥1000 concurrent requests, digest identical
        // at 1, 2 and 8 pool workers.
        let base = serve_load(&ServeLoadOptions {
            workers: 1,
            ..small_opts()
        });
        base.check().expect("workers=1 run violates an invariant");
        assert_eq!(base.cold_stats.executed, base.unique);
        for workers in [2usize, 8] {
            let other = serve_load(&ServeLoadOptions {
                workers,
                ..small_opts()
            });
            other
                .check()
                .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
            assert_eq!(other.cold.digest, base.cold.digest, "workers {workers}");
            assert_eq!(other.warm.digest, base.warm.digest, "workers {workers}");
        }
    }

    #[test]
    fn warm_phase_is_all_hits_and_store_survives_processes() {
        let dir = std::env::temp_dir().join(format!("phi-serve-load-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeLoadOptions {
            store_dir: Some(dir.clone()),
            ..small_opts()
        };
        let first = serve_load(&opts);
        first.check().expect("cold run violates an invariant");
        assert_eq!(first.stats.executed, first.unique);
        assert_eq!(
            first.stats.requests - first.stats.executed,
            2 * opts.requests - first.unique,
            "everything but the first touch of each key is a hit"
        );
        // A second process over the same store executes nothing: its
        // cold phase is all store hits, and the digests still match.
        let second = serve_load(&opts);
        assert_eq!(second.stats.executed, 0, "{:?}", second.stats);
        assert_eq!(second.stats.store_hits, second.unique);
        assert_eq!(second.cold.digest, first.cold.digest);
        assert_eq!(second.sim_time_s.to_bits(), first.sim_time_s.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fixture_load_hit_rate_is_exact() {
        // 600 requests per phase over 24 unique specs: every request but
        // the first touch of each key skips execution, 1 176 of 1 200.
        let r = serve_load(&ServeLoadOptions {
            requests: 600,
            space: 24,
            clients: 4,
            seed0: crate::FIXTURE_SEED,
            ..ServeLoadOptions::default()
        });
        r.check().expect("fixture load violates an invariant");
        assert_eq!((r.stats.requests, r.stats.executed), (1_200, 24));
        assert_eq!(r.stats.hit_rate(), 0.98);
    }

    #[test]
    fn render_reports_phases_and_verdict() {
        let text = serve_load_render(&ServeLoadOptions {
            requests: 200,
            space: 6,
            clients: 2,
            ..ServeLoadOptions::default()
        });
        for needle in ["cold", "warm", "hit rate", "digest", "PASS"] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
    }
}
