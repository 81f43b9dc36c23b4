//! The campaign service: a bounded std-only worker pool with
//! single-flight dedup over the content-addressed store.
//!
//! Request flow for [`CampaignService::get`]:
//!
//! 1. **validate + canonicalize** the spec and compute its key;
//! 2. **memory hit** — the in-process result map already holds the
//!    outcome: return it;
//! 3. **coalesce** — another request for the same key is in flight:
//!    wait on it (this is the single-flight guarantee — N concurrent
//!    identical requests run the simulation exactly once);
//! 4. **store hit** — the first requester for a key probes the
//!    persistent store; a valid record is published without running
//!    anything, a *corrupt* record is counted and recomputed (the
//!    `TuneCache` recovery semantics), a hard read error degrades to
//!    recompute so availability never hinges on the disk;
//! 5. **miss** — the job goes over an mpsc channel to the bounded
//!    worker pool; the result is persisted and published to every
//!    waiter.
//!
//! Results are pure functions of the canonical key, so the map's
//! contents — and anything rendered from them — are byte-identical at
//! any pool size.

use crate::campaign::{run_campaign, CampaignOutcome};
use crate::error::ServeError;
use crate::spec::CampaignSpec;
use crate::store::{ResultStore, StoreReadError};
use crate::table::ResultTable;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Serving counters, all monotone. `requests` splits exactly into
/// `mem_hits + store_hits + coalesced + executed`: every request is a
/// memory hit, a wait on an in-flight duplicate, a store hit, or the
/// one request that executed its key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests accepted (past validation).
    pub requests: usize,
    /// Served from the in-process result map.
    pub mem_hits: usize,
    /// Served from the persistent store without executing.
    pub store_hits: usize,
    /// Waited on an identical in-flight request (single-flight dedup).
    pub coalesced: usize,
    /// Simulations actually executed by the pool.
    pub executed: usize,
    /// Corrupt store records recovered by recomputing and overwriting.
    pub store_corrupt_recovered: usize,
    /// Store reads that failed hard (I/O) and degraded to recompute.
    pub store_read_errors: usize,
    /// Store writes that failed; the result was still served.
    pub store_write_errors: usize,
}

impl ServiceStats {
    /// Requests that did not run a simulation.
    fn hits(&self) -> usize {
        self.requests - self.executed
    }

    /// Fraction of requests served without executing; `0` when idle.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits() as f64 / self.requests as f64
        }
    }
}

enum Entry {
    InFlight,
    Done(Arc<CampaignOutcome>),
}

struct State {
    entries: BTreeMap<u64, Entry>,
    stats: ServiceStats,
}

struct Inner {
    store: Option<ResultStore>,
    state: Mutex<State>,
    done: Condvar,
}

struct Job {
    key: u64,
    spec: CampaignSpec,
}

/// The campaign service. Construct with [`CampaignService::open`] (a
/// persistent store directory) or [`CampaignService::in_memory`];
/// every clone of the handle shares the pool — use [`Arc`] to share
/// across request threads.
pub struct CampaignService {
    inner: Arc<Inner>,
    tx: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

fn worker_count(workers: usize) -> usize {
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    if workers == 0 { auto } else { workers }.max(1)
}

impl CampaignService {
    /// A service backed by a persistent store directory: results
    /// survive the process and later services start warm.
    /// `workers = 0` picks `available_parallelism` (capped at 8).
    pub fn open(dir: impl Into<std::path::PathBuf>, workers: usize) -> Result<Self, ServeError> {
        Ok(Self::build(Some(ResultStore::open(dir)?), workers))
    }

    /// A purely in-process service: no persistence, same dedup.
    pub fn in_memory(workers: usize) -> Self {
        Self::build(None, workers)
    }

    fn build(store: Option<ResultStore>, workers: usize) -> Self {
        let inner = Arc::new(Inner {
            store,
            state: Mutex::new(State {
                entries: BTreeMap::new(),
                stats: ServiceStats::default(),
            }),
            done: Condvar::new(),
        });
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..worker_count(workers))
            .map(|_| {
                let inner = Arc::clone(&inner);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&inner, &rx))
            })
            .collect();
        Self {
            inner,
            tx: Some(tx),
            workers,
        }
    }

    fn lock(&self) -> Result<MutexGuard<'_, State>, ServeError> {
        // A poisoned lock means a worker panicked mid-publish: the pool
        // is no longer trustworthy, which is exactly `PoolShutdown`.
        self.inner
            .state
            .lock()
            .map_err(|_| ServeError::PoolShutdown)
    }

    /// Serves one campaign request. Blocks until the result is
    /// available; identical concurrent requests execute exactly once.
    pub fn get(&self, spec: &CampaignSpec) -> Result<Arc<CampaignOutcome>, ServeError> {
        spec.validate()?;
        let spec = spec.canonical();
        let key = spec.key();

        enum Claim {
            Hit(Arc<CampaignOutcome>),
            Wait,
            Probe,
        }
        let claim = {
            let mut st = self.lock()?;
            st.stats.requests += 1;
            match st.entries.get(&key) {
                Some(Entry::Done(out)) => {
                    let out = Arc::clone(out);
                    st.stats.mem_hits += 1;
                    Claim::Hit(out)
                }
                Some(Entry::InFlight) => {
                    st.stats.coalesced += 1;
                    Claim::Wait
                }
                None => {
                    st.entries.insert(key, Entry::InFlight);
                    Claim::Probe
                }
            }
        };
        match claim {
            Claim::Hit(out) => Ok(out),
            Claim::Wait => self.wait_done(key),
            Claim::Probe => self.probe_then_enqueue(key, spec),
        }
    }

    /// First requester for a key: probe the store, else hand the job to
    /// the pool. Runs outside the state lock — the `InFlight` entry
    /// makes this thread the key's only prober.
    fn probe_then_enqueue(
        &self,
        key: u64,
        spec: CampaignSpec,
    ) -> Result<Arc<CampaignOutcome>, ServeError> {
        if let Some(store) = &self.inner.store {
            match store.load_checked::<CampaignOutcome>(key) {
                Ok(Some(out)) => {
                    let out = Arc::new(out);
                    let mut st = self.lock()?;
                    st.stats.store_hits += 1;
                    st.entries.insert(key, Entry::Done(Arc::clone(&out)));
                    self.inner.done.notify_all();
                    return Ok(out);
                }
                Ok(None) => {}
                Err(StoreReadError::Corrupt { .. }) => {
                    self.lock()?.stats.store_corrupt_recovered += 1;
                }
                Err(StoreReadError::Io(_)) => {
                    self.lock()?.stats.store_read_errors += 1;
                }
            }
        }
        let sent = self
            .tx
            .as_ref()
            .map(|tx| tx.send(Job { key, spec }).is_ok())
            .unwrap_or(false);
        if !sent {
            // Unclaim so later requests fail fast instead of hanging.
            if let Ok(mut st) = self.inner.state.lock() {
                st.entries.remove(&key);
            }
            self.inner.done.notify_all();
            return Err(ServeError::PoolShutdown);
        }
        self.wait_done(key)
    }

    /// Blocks until `key` is published (or its claim vanished, which
    /// only happens when the pool died under it).
    fn wait_done(&self, key: u64) -> Result<Arc<CampaignOutcome>, ServeError> {
        let mut st = self.lock()?;
        loop {
            match st.entries.get(&key) {
                Some(Entry::Done(out)) => return Ok(Arc::clone(out)),
                Some(Entry::InFlight) => {
                    st = self
                        .inner
                        .done
                        .wait(st)
                        .map_err(|_| ServeError::PoolShutdown)?;
                }
                None => return Err(ServeError::PoolShutdown),
            }
        }
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> ServiceStats {
        self.inner
            .state
            .lock()
            .map(|st| st.stats)
            .unwrap_or_default()
    }

    /// A queryable snapshot of every completed campaign, in key order
    /// (deterministic at any pool size).
    pub fn table(&self) -> ResultTable {
        let rows = match self.inner.state.lock() {
            Ok(st) => st
                .entries
                .values()
                .filter_map(|e| match e {
                    Entry::Done(out) => Some((**out).clone()),
                    Entry::InFlight => None,
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        ResultTable::new(rows)
    }

    /// Drains queued work and stops the pool. Requests after shutdown
    /// return [`ServeError::PoolShutdown`]. Called implicitly on drop.
    pub fn shutdown(&mut self) {
        drop(self.tx.take()); // closes the channel; workers drain and exit
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Wake anything still waiting on an entry that will never come
        // (possible only if a worker died mid-job).
        let mut orphaned = VecDeque::new();
        if let Ok(mut st) = self.inner.state.lock() {
            for (k, e) in &st.entries {
                if matches!(e, Entry::InFlight) {
                    orphaned.push_back(*k);
                }
            }
            for k in orphaned {
                st.entries.remove(&k);
            }
        }
        self.inner.done.notify_all();
    }
}

impl Drop for CampaignService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner, rx: &Mutex<mpsc::Receiver<Job>>) {
    loop {
        let job = match rx.lock() {
            Ok(rx) => match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // channel closed and drained
            },
            Err(_) => return,
        };
        let out = Arc::new(run_campaign(&job.spec));
        let wrote = match &inner.store {
            Some(store) => store.put(job.key, &*out).is_ok(),
            None => true,
        };
        if let Ok(mut st) = inner.state.lock() {
            st.stats.executed += 1;
            if !wrote {
                st.stats.store_write_errors += 1;
            }
            st.entries.insert(job.key, Entry::Done(out));
        }
        inner.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::serialize_record;
    use crate::table::{Agg, Column};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("phi-serve-svc-{}-{tag}", std::process::id()))
    }

    fn small_spec(seed: u64) -> CampaignSpec {
        CampaignSpec {
            faults: crate::spec::FaultSpec::default_campaign(seed),
            ..CampaignSpec::single_node(20_000, 1200)
        }
    }

    #[test]
    fn single_flight_concurrent_identical_specs_execute_once() {
        const CLIENTS: usize = 16;
        let service = Arc::new(CampaignService::in_memory(4));
        let spec = small_spec(0xAA);
        let outs: Vec<Arc<CampaignOutcome>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    let service = Arc::clone(&service);
                    s.spawn(move || service.get(&spec).expect("request served"))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for o in &outs {
            assert_eq!(o.fingerprint, outs[0].fingerprint);
            assert_eq!(o.time_s.to_bits(), outs[0].time_s.to_bits());
        }
        let stats = service.stats();
        assert_eq!(stats.requests, CLIENTS);
        assert_eq!(stats.executed, 1, "single-flight must dedup to one run");
        assert_eq!(
            stats.mem_hits + stats.store_hits + stats.coalesced,
            CLIENTS - 1,
            "{stats:?}"
        );
    }

    #[test]
    fn second_process_is_a_pure_store_hit() {
        let dir = tmp_dir("warm");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec(0xBB);
        let first = {
            let cold = CampaignService::open(&dir, 2).unwrap();
            let out = cold.get(&spec).unwrap();
            assert_eq!(cold.stats().executed, 1);
            out
        };
        let warm = CampaignService::open(&dir, 2).unwrap();
        let again = warm.get(&spec).unwrap();
        let stats = warm.stats();
        assert_eq!(stats.executed, 0, "warm service must not re-simulate");
        assert_eq!(stats.store_hits, 1);
        assert_eq!(again.fingerprint, first.fingerprint);
        assert_eq!(again.time_s.to_bits(), first.time_s.to_bits());
        // And the bytes on disk are exactly the cold run's record.
        let store = ResultStore::open(&dir).unwrap();
        let bytes = std::fs::read(store.record_path::<CampaignOutcome>(spec.key())).unwrap();
        assert_eq!(bytes, serialize_record(&*first).into_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_entry_is_recovered_not_served() {
        let dir = tmp_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec(0xCC);
        let good = {
            let svc = CampaignService::open(&dir, 1).unwrap();
            svc.get(&spec).unwrap()
        };
        let store = ResultStore::open(&dir).unwrap();
        std::fs::write(
            store.record_path::<CampaignOutcome>(spec.key()),
            "phi-serve campaign v1\ngarbage\n",
        )
        .unwrap();
        let svc = CampaignService::open(&dir, 1).unwrap();
        let out = svc.get(&spec).unwrap();
        let stats = svc.stats();
        assert_eq!(stats.store_corrupt_recovered, 1);
        assert_eq!(stats.executed, 1, "corrupt entry must recompute");
        assert_eq!(out.fingerprint, good.fingerprint);
        // The bad bytes were overwritten with a valid record.
        let bytes = std::fs::read(store.record_path::<CampaignOutcome>(spec.key())).unwrap();
        assert_eq!(bytes, serialize_record(&*good).into_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_specs_and_shutdown_are_typed_errors() {
        let mut service = CampaignService::in_memory(1);
        let bad = CampaignSpec {
            nb: 0,
            ..CampaignSpec::single_node(20_000, 1200)
        };
        assert!(matches!(
            service.get(&bad),
            Err(ServeError::InvalidSpec { .. })
        ));
        assert_eq!(service.stats().requests, 0, "rejected before counting");
        service.shutdown();
        assert!(matches!(
            service.get(&small_spec(1)),
            Err(ServeError::PoolShutdown)
        ));
    }

    #[test]
    fn distinct_specs_shard_across_the_pool_and_all_complete() {
        let service = Arc::new(CampaignService::in_memory(4));
        let outs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..12u64)
                .map(|i| {
                    let service = Arc::clone(&service);
                    s.spawn(move || service.get(&small_spec(i % 6)).expect("served"))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(outs.len(), 12);
        let stats = service.stats();
        assert_eq!(stats.executed, 6, "one execution per unique spec");
        assert_eq!(stats.requests, 12);
        assert_eq!(stats.hits(), 6);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        // The result table snapshot holds one row per unique spec.
        let rows = service.table().aggregate(Column::TimeS, Agg::Count);
        assert_eq!(rows, Some(6.0));
    }
}
