//! `serve_mix`: the campaign service under a three-phase traffic mix —
//! **cold** (a new in-memory service: every spec misses once and
//! executes), **warm** (the same stream again and again, pure memory
//! hits) and **restart** (a new service on a populated store directory,
//! every spec loaded from its record). Closed loop: in-process clients
//! each wait for their reply before sending the next request; `T`
//! workers; no sockets. It is the service shell — spec canonicalisation
//! and keys, the single-flight map, the worker pool, the record codec and
//! page-cache-warm file reads — that is measured; one miss costs one
//! faulty 10 × 10 run.
//!
//! The store is written once per process, by the first set-up (every spec
//! through a store-backed service), and only read after that. A first design created and removed a fresh
//! directory of records in every pass: on the reference box (ext4 with
//! `discard`) the cost of creating and unlinking files carried over from
//! one run to the next and moved the whole-pass rate by ±15 %, which says
//! nothing about the service.

use super::{shuffle, Env, Layers, Pass, Workload};
use crate::stats::{summarize, tail_percentile, Summary};
use crate::timing::{timed, Tracer};
use phi_bench::serve::{build_specs, ServeLoadOptions};
use phi_faults::FaultRng;
use phi_serve::store::{parse_record, serialize_record};
use phi_serve::{
    run_campaign, Agg, CampaignOutcome, CampaignService, CampaignSpec, Column, Filter, FilterOp,
    Fnv, ResultStore, ResultTable, ServeError, ServiceStats,
};
use std::path::PathBuf;

/// Cold-phase clients per worker. A miss hands its job to a worker and
/// blocks; with as many clients as workers the pool idles through two
/// thread wake-ups per miss and the phase measures the host's wake-up
/// latency (it runs at half the speed and varies by a quarter from run to
/// run). Four blocked clients per worker keep a job queued, so the phase
/// is bound by the work it is meant to measure. Blocked clients are not
/// runnable: the runnable threads are still the `T` workers.
const COLD_CLIENTS_PER_WORKER: usize = 4;
/// Times the warm phase replays the stream.
const WARM_ROUNDS: usize = 160;
/// Times the restart phase reopens the store and replays the stream.
/// With the warm rounds it sizes the mix so that no phase is under a
/// sixth of a pass: a slowdown of any one path moves `work_per_s`.
const RESTARTS: usize = 40;

/// The built workload.
pub struct ServeMix {
    env: Env,
    specs: Vec<CampaignSpec>,
    /// Spec index of every request, in send order.
    stream: Vec<u32>,
    /// Whether a request is the first for its spec (it misses when cold).
    first: Vec<bool>,
    /// The populated store the restart phase reopens.
    store_dir: PathBuf,
    cold_stats: ServiceStats,
    /// Per-request latencies of the traced passes, µs (the warm phase's
    /// of the last pass only: one pass is 819 200 samples).
    lat_cold: Vec<f64>,
    lat_miss: Vec<f64>,
    lat_warm: Vec<f64>,
}

/// Builds the spec space and the request stream from the seed: every
/// spec once (so the cold phase executes each exactly once — about a
/// tenth of its requests miss), the rest a skewed pick that favours low
/// indices, all shuffled.
pub fn build(env: &Env) -> ServeMix {
    let space = env.scale.pick(512, 10);
    let requests = 10 * space;
    let specs = build_specs(&ServeLoadOptions {
        space,
        seed0: env.seed,
        ..ServeLoadOptions::default()
    });
    let mut rng = FaultRng::new(env.seed);
    let mut stream: Vec<u32> = (0..space as u32).collect();
    stream.extend((space..requests).map(|_| {
        let u = rng.unit();
        (u * u * space as f64) as u32
    }));
    shuffle(&mut rng, &mut stream);
    let mut seen = vec![false; space];
    let first = stream
        .iter()
        .map(|&i| !std::mem::replace(&mut seen[i as usize], true))
        .collect();
    // Written by the first set-up of the process and reused by the later
    // ones: `setup_s` is the median of three, so it reads without the
    // 512 file creations, whose cost drifts with the file system's state.
    let store_dir = env.scratch.join("serve-store");
    if !store_dir.exists() {
        let mut service = open(&store_dir, env.threads);
        let filled = run_phase(
            &specs,
            &stream,
            COLD_CLIENTS_PER_WORKER * env.threads,
            &service,
            1,
            false,
        );
        service.shutdown();
        assert!(
            filled.error.is_none(),
            "populating the store failed: {:?}",
            filled.error
        );
    }
    ServeMix {
        env: env.clone(),
        specs,
        stream,
        first,
        store_dir,
        cold_stats: ServiceStats::default(),
        lat_cold: Vec::new(),
        lat_miss: Vec::new(),
        lat_warm: Vec::new(),
    }
}

/// What one phase returned.
struct Phase {
    /// Order-independent digest of each round's replies.
    round_digests: Vec<u64>,
    /// Per-request latency, µs, in client order (traced runs only).
    latencies: Vec<(u32, f64)>,
    error: Option<ServeError>,
}

impl Phase {
    fn new(rounds: usize) -> Self {
        Phase {
            round_digests: vec![0; rounds],
            latencies: Vec::new(),
            error: None,
        }
    }
}

/// One reply's contribution to a round digest. Summed with wrapping
/// addition, so the digest does not depend on how requests are striped
/// over clients.
fn reply_hash(i: usize, out: &CampaignOutcome) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(i as u64);
    h.write_u64(out.key);
    h.write_u64(out.fingerprint);
    h.write_u64(out.gflops.to_bits());
    h.finish()
}

/// Replays `stream` `rounds` times against `service` from `clients`
/// threads, client `t` sending requests `t, t + T, …`.
fn run_phase(
    specs: &[CampaignSpec],
    stream: &[u32],
    clients: usize,
    service: &CampaignService,
    rounds: usize,
    record: bool,
) -> Phase {
    let per_client: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                s.spawn(move || {
                    let mut ph = Phase::new(rounds);
                    for round in 0..rounds {
                        for i in (t..stream.len()).step_by(clients) {
                            let spec = &specs[stream[i] as usize];
                            let reply = if record {
                                let (r, s) = timed(|| service.get(spec));
                                ph.latencies.push((i as u32, s * 1e6));
                                r
                            } else {
                                service.get(spec)
                            };
                            match reply {
                                Ok(out) => {
                                    ph.round_digests[round] =
                                        ph.round_digests[round].wrapping_add(reply_hash(i, &out));
                                }
                                Err(e) => {
                                    ph.error = Some(e);
                                    return ph;
                                }
                            }
                        }
                    }
                    ph
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut all = Phase::new(rounds);
    for ph in per_client {
        for (a, b) in all.round_digests.iter_mut().zip(&ph.round_digests) {
            *a = a.wrapping_add(*b);
        }
        all.latencies.extend(ph.latencies);
        all.error = all.error.or(ph.error);
    }
    all
}

impl ServeMix {
    fn phase(
        &self,
        service: &CampaignService,
        clients: usize,
        rounds: usize,
        record: bool,
    ) -> Phase {
        run_phase(&self.specs, &self.stream, clients, service, rounds, record)
    }

    /// Where the traced run's store microbenchmarks write.
    fn micro_dir(&self) -> PathBuf {
        self.env.scratch.join("serve-micro")
    }
}

fn open(dir: &PathBuf, workers: usize) -> CampaignService {
    CampaignService::open(dir, workers).expect("the scratch directory is writable")
}

/// Counters a phase added on top of `before`.
fn delta(after: ServiceStats, before: ServiceStats) -> ServiceStats {
    ServiceStats {
        requests: after.requests - before.requests,
        mem_hits: after.mem_hits - before.mem_hits,
        store_hits: after.store_hits - before.store_hits,
        coalesced: after.coalesced - before.coalesced,
        executed: after.executed - before.executed,
        ..after
    }
}

/// Counters of two services added up.
fn sum(a: ServiceStats, b: ServiceStats) -> ServiceStats {
    ServiceStats {
        requests: a.requests + b.requests,
        mem_hits: a.mem_hits + b.mem_hits,
        store_hits: a.store_hits + b.store_hits,
        coalesced: a.coalesced + b.coalesced,
        executed: a.executed + b.executed,
        ..b
    }
}

impl Workload for ServeMix {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let record = tr.is_on();
        let workers = self.env.threads;
        let n = self.stream.len();
        let mut pass = Pass {
            work: ((1 + WARM_ROUNDS + RESTARTS) * n) as f64,
            ..Pass::default()
        };

        let ((mut service, cold), cold_s) = timed(|| {
            tr.time("serve.phase.cold", || {
                let service = CampaignService::in_memory(workers);
                let ph = self.phase(&service, COLD_CLIENTS_PER_WORKER * workers, 1, record);
                (service, ph)
            })
        });
        let cold_stats = service.stats();
        let (warm, warm_s) = timed(|| {
            tr.time("serve.phase.warm", || {
                self.phase(&service, workers, WARM_ROUNDS, record)
            })
        });
        let warm_stats = delta(service.stats(), cold_stats);
        service.shutdown();
        drop(service);
        // Every restart is a new service on the populated directory: each
        // spec is loaded from the store once, then hit.
        let ((mut restart, restart_stats), restart_s) = timed(|| {
            tr.time("serve.phase.restart", || {
                let mut all = Phase::new(0);
                let mut total = ServiceStats::default();
                for _ in 0..RESTARTS {
                    let mut service = open(&self.store_dir, workers);
                    let ph = self.phase(&service, workers, 1, false);
                    total = sum(total, service.stats());
                    service.shutdown();
                    all.round_digests.extend(ph.round_digests);
                    all.error = all.error.or(ph.error);
                }
                (all, total)
            })
        });
        pass.seconds = cold_s + warm_s + restart_s;

        if self.env.inject {
            restart.round_digests[0] ^= 1;
        }
        let unique = self.specs.len();
        let digest = cold.round_digests[0];
        for (name, ph, stats, requests, executed) in [
            ("cold", &cold, cold_stats, n, unique),
            ("warm", &warm, warm_stats, WARM_ROUNDS * n, 0),
            ("restart", &restart, restart_stats, RESTARTS * n, 0),
        ] {
            pass.check(
                ph.error
                    .as_ref()
                    .map(|e| format!("{name}: a request failed: {e:?}")),
            );
            let served = stats.mem_hits + stats.store_hits + stats.coalesced + stats.executed;
            pass.check((stats.requests != requests || served != requests).then(|| {
                format!("{name}: counters do not partition {requests} requests: {stats:?}")
            }));
            pass.check((stats.executed != executed).then(|| {
                format!(
                    "{name}: executed {} simulations, expected {executed}",
                    stats.executed
                )
            }));
            pass.check(
                ph.round_digests.iter().any(|d| *d != digest).then(|| {
                    format!("{name}: replies differ from the cold phase's ({digest:#018x})")
                }),
            );
        }
        pass.sim_digest = digest;
        self.cold_stats = cold_stats;
        if record {
            for (i, us) in cold.latencies {
                self.lat_cold.push(us);
                if self.first[i as usize] {
                    self.lat_miss.push(us);
                }
            }
            self.lat_warm = warm.latencies.iter().map(|l| l.1).collect();
        }
        pass
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let sc = self.env.scale;
        let threads = self.env.threads;
        let n = self.stream.len() as f64;
        let rps =
            |span: &str, requests: f64| summarize(&tr.pass_seconds(span)).map(|s| requests / s);
        out.put("serve.phase.cold_rps", rps("serve.phase.cold", n));
        out.put(
            "serve.phase.warm_rps",
            rps("serve.phase.warm", WARM_ROUNDS as f64 * n),
        );
        out.put(
            "serve.phase.restart_rps",
            rps("serve.phase.restart", RESTARTS as f64 * n),
        );
        // A tail is reported only with ten samples beyond it; the test
        // sizes are too small for a p99 and fall back to the median.
        let tail = |xs: &[f64]| Summary {
            n: xs.len(),
            ..Summary::exact(tail_percentile(xs, 99.0).unwrap_or(summarize(xs).median))
        };
        out.put("serve.get.miss_p50_us", summarize(&self.lat_miss));
        out.put("serve.get.miss_p99_us", tail(&self.lat_miss));
        out.put("serve.get.cold_p99_us", tail(&self.lat_cold));
        out.put("serve.get.warm_p99_us", tail(&self.lat_warm));
        out.exact("serve.service.coalesced", self.cold_stats.coalesced as f64);
        out.exact("serve.service.executed", self.cold_stats.executed as f64);

        let specs = &self.specs[..self.specs.len().min(64)];
        let per = specs.len() as f64;
        let s = tr.bench("serve.spec.canonical_key", sc.budget(0.05), 5, || {
            specs.iter().fold(0u64, |h, s| h ^ s.canonical().key())
        });
        out.put("serve.spec.canonical_key_ns", s.map(|sec| sec * 1e9 / per));
        let s = tr.bench("serve.spec.validate", sc.budget(0.05), 5, || {
            specs.iter().filter(|s| s.validate().is_ok()).count()
        });
        out.put("serve.spec.validate_ns", s.map(|sec| sec * 1e9 / per));
        let s = tr.bench("serve.campaign.run", sc.budget(0.2), 3, || {
            specs[..16.min(specs.len())]
                .iter()
                .map(|s| run_campaign(s).fingerprint)
                .fold(0u64, |a, b| a ^ b)
        });
        out.put(
            "serve.campaign.run_us",
            s.map(|sec| sec * 1e6 / 16.0f64.min(per)),
        );

        // The record codec and the store, on real outcomes.
        let outcomes: Vec<CampaignOutcome> = specs.iter().map(run_campaign).collect();
        let texts: Vec<String> = outcomes.iter().map(serialize_record).collect();
        let s = tr.bench("serve.record.serialize", sc.budget(0.05), 5, || {
            outcomes
                .iter()
                .map(|o| serialize_record(o).len())
                .sum::<usize>()
        });
        out.put("serve.record.serialize_ns", s.map(|sec| sec * 1e9 / per));
        let s = tr.bench("serve.record.parse", sc.budget(0.05), 5, || {
            texts
                .iter()
                .filter(|t| parse_record::<CampaignOutcome>(t).is_some())
                .count()
        });
        out.put("serve.record.parse_ns", s.map(|sec| sec * 1e9 / per));
        let store = ResultStore::open(self.micro_dir()).expect("the scratch directory is writable");
        let s = tr.bench("serve.store.put", sc.budget(0.1), 3, || {
            for o in &outcomes {
                store
                    .put(o.key, o)
                    .expect("the scratch directory is writable");
            }
        });
        out.put("serve.store.put_us", s.map(|sec| sec * 1e6 / per));
        let s = tr.bench("serve.store.load", sc.budget(0.1), 3, || {
            outcomes
                .iter()
                .filter(|o| matches!(store.load::<CampaignOutcome>(o.key), Ok(Some(_))))
                .count()
        });
        out.put("serve.store.load_us", s.map(|sec| sec * 1e6 / per));
        let s = tr.bench("serve.table.load", sc.budget(0.1), 3, || {
            ResultTable::load(&store).expect("the store was just written")
        });
        out.put("serve.table.load_ms", s.map(|sec| sec * 1e3));
        let table = ResultTable::load(&store).expect("the store was just written");
        let lossy = [Filter::new(Column::HostsLost, FilterOp::Ge, 1.0)];
        let s = tr.bench("serve.table.filter_agg", sc.budget(0.05), 5, || {
            table.filter(&lossy).aggregate(Column::TimeS, Agg::Mean)
        });
        out.put("serve.table.filter_agg_us", s.map(|sec| sec * 1e6));

        // A damaged record is recomputed and overwritten on the request
        // path: open, one get that re-executes its campaign, shutdown.
        let dir = self.micro_dir();
        let victim = &specs[0];
        let path = store.record_path::<CampaignOutcome>(victim.key());
        let s = tr.bench("serve.store.corrupt_recover", 0.0, 5, || {
            std::fs::write(&path, "not a record").expect("the scratch directory is writable");
            let mut service = open(&dir, 1);
            let reply = service.get(victim).map(|o| o.fingerprint);
            service.shutdown();
            reply.ok()
        });
        out.put("serve.store.corrupt_recover_us", s.map(|sec| sec * 1e6));
        let s = tr.bench("serve.service.open_shutdown", sc.budget(0.05), 5, || {
            open(&dir, threads).shutdown()
        });
        out.put("serve.service.open_shutdown_ms", s.map(|sec| sec * 1e3));

        // Memory hits from one client: no lock contention, the base the
        // T-client warm phase is read against.
        let mem = CampaignService::in_memory(threads);
        for s in specs {
            mem.get(s).expect("benchmark specs are valid");
        }
        let s = tr.bench("serve.service.mem_hit", sc.budget(0.1), 5, || {
            specs.iter().filter(|s| mem.get(s).is_ok()).count()
        });
        out.put("serve.service.mem_hit_ns", s.map(|sec| sec * 1e9 / per));
        let service = open(&dir, threads);
        let hot: Vec<u32> = self.stream.iter().map(|i| i % specs.len() as u32).collect();
        run_phase(specs, &hot, 1, &service, 1, false);
        let s = tr.bench("serve.service.warm_c1", sc.budget(0.2), 3, || {
            run_phase(specs, &hot, 1, &service, 1, false).round_digests[0]
        });
        out.put("serve.service.warm_rps_c1", s.map(|sec| n / sec));
    }
}
