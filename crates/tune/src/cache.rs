//! Content-addressed tuning cache — a client of the shared
//! [`phi_serve::ResultStore`].
//!
//! A tuning result is stored under an FNV-1a key over the machine
//! fingerprint, the search-space signature, every [`TuneOptions`] field
//! that changes the outcome and the tuner version — the same
//! content-addressing scheme `phi-faults` uses for replay
//! fingerprints. The framing (header line, hex-bit `f64` text,
//! `end <fnv>` integrity trailer, `tune-<key>.txt` file naming) now
//! lives in `phi-serve`'s generic store; this module contributes only
//! the [`TuneOutcome`] field layout via a [`Record`] implementation.
//! The on-disk bytes are **identical** to the pre-store v2 format, so
//! cache directories written before the migration stay readable, and
//! two runs with the same key still produce byte-identical files
//! (wall time and the cache-hit flag are deliberately excluded).

use crate::search::{ScoredCandidate, TuneOptions, TuneOutcome, TunedConfig};
use crate::space::{Candidate, MachineConfig, TuneSpace};
use phi_fabric::BcastScheme;
use phi_hpl::hybrid::{Lookahead, WorkDivision};
use phi_hpl::GigaflopsReport;
use phi_serve::store::{field, hex_f64, Record, ResultStore};
use phi_serve::Fnv;
use std::io;
use std::path::PathBuf;

/// Why a cache record could not be read. This *is* the shared store's
/// error: `Io` is the environment's fault (permissions, disk);
/// `Corrupt` means the file exists but its bytes are not a valid
/// record — truncated write, bit flip, wrong format. Callers treat
/// `Corrupt` as "recompute and overwrite", never as a panic.
pub(crate) use phi_serve::store::StoreReadError as CacheReadError;

/// Bumped whenever the search or serialization changes meaning, so old
/// cache entries can never be mistaken for current ones. v2 added the
/// `end <fnv>` integrity trailer.
const TUNER_VERSION: u64 = 2;

/// The content-addressed cache key of a tuning run: every input that
/// changes the outcome. `opts.threads` is left out because it never
/// does (evaluations merge by index).
pub(crate) fn cache_key(machine: &MachineConfig, space: &TuneSpace, opts: &TuneOptions) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(TUNER_VERSION);
    h.write_u64(machine.fingerprint());
    h.write_u64(space.signature());
    h.write_u64(opts.seed);
    h.write_u64(opts.refine_rounds as u64);
    h.write_u64(opts.sample_every as u64);
    h.write_u64(opts.coarse_only as u64);
    h.finish()
}

/// A directory of tuning results, one file per cache key. Since the
/// store migration this is a thin veneer over [`ResultStore`]: a tune
/// cache directory is a result-store directory whose `tune` namespace
/// holds [`TuneOutcome`] records, and it can be shared with
/// `phi-serve`'s campaign service without collision.
#[derive(Clone, Debug)]
pub struct TuneCache {
    store: ResultStore,
}

impl TuneCache {
    /// Opens (creating if needed) a cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Ok(Self {
            store: ResultStore::open(dir)?,
        })
    }

    /// Loads the outcome stored under `key`, if any. A damaged file
    /// surfaces as a typed [`CacheReadError::Corrupt`] rather than a
    /// silent miss, so callers can log or count the fallback (the tuner
    /// re-runs and overwrites it). Never panics on truncated,
    /// bit-flipped or empty files.
    pub(crate) fn load_checked(&self, key: u64) -> Result<Option<TuneOutcome>, CacheReadError> {
        self.store.load_checked::<TuneOutcome>(key)
    }

    /// Stores an outcome under its own fingerprint.
    pub(crate) fn store(&self, out: &TuneOutcome) -> io::Result<()> {
        self.store.put(out.fingerprint, out)
    }
}

fn la_code(la: Lookahead) -> u8 {
    match la {
        Lookahead::None => 0,
        Lookahead::Basic => 1,
        Lookahead::Pipelined => 2,
    }
}

fn bc_code(b: BcastScheme) -> u8 {
    match b {
        BcastScheme::Ring => 0,
        BcastScheme::TwoRing => 1,
        BcastScheme::Binomial => 2,
    }
}

fn cand_line(c: &Candidate) -> String {
    let div = match c.division {
        WorkDivision::Dynamic => "dyn".to_string(),
        WorkDivision::Static { card_fraction } => format!("st:{:016x}", card_fraction.to_bits()),
    };
    format!(
        "nb={} la={} div={div} bc={} grid={}x{}",
        c.nb,
        la_code(c.lookahead),
        bc_code(c.bcast),
        c.grid.0,
        c.grid.1
    )
}

fn score_line(r: &GigaflopsReport) -> String {
    format!(
        "time={:016x} peak={:016x}",
        r.time_s.to_bits(),
        r.peak_gflops.to_bits()
    )
}

fn parse_cand(tokens: &[&str]) -> Option<Candidate> {
    let nb: usize = field(tokens, "nb")?.parse().ok()?;
    let lookahead = match field(tokens, "la")? {
        "0" => Lookahead::None,
        "1" => Lookahead::Basic,
        "2" => Lookahead::Pipelined,
        _ => return None,
    };
    let division = match field(tokens, "div")? {
        "dyn" => WorkDivision::Dynamic,
        st => WorkDivision::Static {
            card_fraction: hex_f64(st.strip_prefix("st:")?)?,
        },
    };
    let bcast = match field(tokens, "bc")? {
        "0" => BcastScheme::Ring,
        "1" => BcastScheme::TwoRing,
        "2" => BcastScheme::Binomial,
        _ => return None,
    };
    let (p, q) = field(tokens, "grid")?.split_once('x')?;
    Some(Candidate {
        nb,
        lookahead,
        division,
        bcast,
        grid: (p.parse().ok()?, q.parse().ok()?),
    })
}

fn parse_score(tokens: &[&str], n: usize) -> Option<GigaflopsReport> {
    let time = hex_f64(field(tokens, "time")?)?;
    let peak = hex_f64(field(tokens, "peak")?)?;
    if time <= 0.0 || time.is_nan() {
        return None;
    }
    Some(GigaflopsReport::new(n, time, peak))
}

impl Record for TuneOutcome {
    const NAMESPACE: &'static str = "tune";
    const HEADER: &'static str = "phi-tune cache v2";

    fn write_fields(&self, s: &mut String) {
        let m = &self.machine;
        s.push_str(&format!("key {:016x}\n", self.fingerprint));
        s.push_str(&format!(
            "machine nodes={} cards={} mem={:016x} n={}\n",
            m.nodes,
            m.cards_per_node,
            m.host_mem_gib.to_bits(),
            m.n
        ));
        s.push_str(&format!("evaluated {}\n", self.candidates_evaluated));
        s.push_str(&format!("baseline {}\n", cand_line(&self.baseline)));
        s.push_str(&format!(
            "baseline-score {}\n",
            score_line(&self.baseline_report)
        ));
        s.push_str(&format!("tuned {}\n", cand_line(&self.tuned.candidate())));
        s.push_str(&format!("tuned-score {}\n", score_line(&self.tuned_report)));
        s.push_str(&format!("table {}\n", self.table.len()));
        for sc in &self.table {
            s.push_str(&format!(
                "row {} {}\n",
                cand_line(&sc.candidate),
                score_line(&sc.report)
            ));
        }
    }

    fn parse_fields(fields: &str) -> Option<Self> {
        let mut lines = fields.lines();
        let key = u64::from_str_radix(lines.next()?.strip_prefix("key ")?, 16).ok()?;
        let mtoks: Vec<&str> = lines.next()?.strip_prefix("machine ")?.split(' ').collect();
        let machine = MachineConfig {
            nodes: field(&mtoks, "nodes")?.parse().ok()?,
            cards_per_node: field(&mtoks, "cards")?.parse().ok()?,
            host_mem_gib: hex_f64(field(&mtoks, "mem")?)?,
            n: field(&mtoks, "n")?.parse().ok()?,
        };
        let evaluated: usize = lines.next()?.strip_prefix("evaluated ")?.parse().ok()?;
        let btoks: Vec<&str> = lines
            .next()?
            .strip_prefix("baseline ")?
            .split(' ')
            .collect();
        let baseline = parse_cand(&btoks)?;
        let bstoks: Vec<&str> = lines
            .next()?
            .strip_prefix("baseline-score ")?
            .split(' ')
            .collect();
        let baseline_report = parse_score(&bstoks, machine.n)?;
        let ttoks: Vec<&str> = lines.next()?.strip_prefix("tuned ")?.split(' ').collect();
        let tuned = TunedConfig::from_candidate(machine.n, &parse_cand(&ttoks)?);
        let tstoks: Vec<&str> = lines
            .next()?
            .strip_prefix("tuned-score ")?
            .split(' ')
            .collect();
        let tuned_report = parse_score(&tstoks, machine.n)?;
        let nrows: usize = lines.next()?.strip_prefix("table ")?.parse().ok()?;
        let mut table = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let toks: Vec<&str> = lines.next()?.strip_prefix("row ")?.split(' ').collect();
            table.push(ScoredCandidate {
                candidate: parse_cand(&toks)?,
                report: parse_score(&toks, machine.n)?,
            });
        }
        Some(TuneOutcome {
            fingerprint: key,
            machine,
            tuned,
            tuned_report,
            baseline,
            baseline_report,
            candidates_evaluated: evaluated,
            table,
            cache_hit: false,
            wall_time_s: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{tune, tune_cached, TuneOptions};
    use phi_serve::store::{parse_record, serialize_record};

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("phi-tune-test-{}-{tag}", std::process::id()))
    }

    fn small_machine() -> MachineConfig {
        MachineConfig {
            nodes: 2,
            cards_per_node: 1,
            host_mem_gib: 64.0,
            n: 90_000,
        }
    }

    #[test]
    fn cache_determinism_same_seed_identical_bytes() {
        // Satellite gate: two runs with the same seed and machine
        // fingerprint produce identical TunedConfig and identical cache
        // bytes; a changed fingerprint misses the cache.
        let m = small_machine();
        let space = TuneSpace::coarse(&m);
        let opts = TuneOptions {
            coarse_only: true,
            ..TuneOptions::default()
        };
        let a = tune(&m, &space, &opts);
        let b = tune(&m, &space, &opts);
        assert_eq!(a.tuned, b.tuned);
        assert_eq!(
            serialize_record(&a).as_bytes(),
            serialize_record(&b).as_bytes()
        );

        // A different machine fingerprint keys differently.
        let key = cache_key(&m, &space, &opts);
        let other = MachineConfig { n: 60_000, ..m };
        assert_ne!(key, cache_key(&other, &TuneSpace::coarse(&other), &opts));
        // So does every option that shapes the result; `threads` does not.
        for changed in [
            TuneOptions {
                seed: opts.seed + 1,
                ..opts
            },
            TuneOptions {
                refine_rounds: opts.refine_rounds + 1,
                ..opts
            },
            TuneOptions {
                sample_every: opts.sample_every + 1,
                ..opts
            },
            TuneOptions {
                coarse_only: false,
                ..opts
            },
        ] {
            assert_ne!(key, cache_key(&m, &space, &changed), "{changed:?}");
        }
        assert_eq!(
            key,
            cache_key(&m, &space, &TuneOptions { threads: 3, ..opts })
        );
    }

    #[test]
    fn coarse_tune_does_not_serve_a_full_tune() {
        // A smoke (coarse-only) tune and a full tune of the same machine
        // share a cache directory; the full tune must search, not return
        // the coarse outcome as a hit.
        let dir = tmp_dir("coarse-then-full");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TuneCache::open(&dir).unwrap();
        let m = small_machine();
        let space = TuneSpace::coarse(&m);
        let coarse = TuneOptions {
            coarse_only: true,
            ..TuneOptions::default()
        };
        let smoke = tune_cached(&m, &space, &coarse, &cache).unwrap();
        let full = tune_cached(&m, &space, &TuneOptions::default(), &cache).unwrap();
        assert!(!full.cache_hit, "a full tune was served the coarse outcome");
        assert_ne!(full.fingerprint, smoke.fingerprint);
        assert!(full.candidates_evaluated > smoke.candidates_evaluated);
        // Each outcome is still a hit under its own options.
        assert!(tune_cached(&m, &space, &coarse, &cache).unwrap().cache_hit);
        let again = tune_cached(&m, &space, &TuneOptions::default(), &cache).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.candidates_evaluated, full.candidates_evaluated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_run_is_a_pure_cache_hit() {
        let dir = tmp_dir("hit");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TuneCache::open(&dir).unwrap();
        let m = small_machine();
        let space = TuneSpace::coarse(&m);
        let opts = TuneOptions {
            coarse_only: true,
            ..TuneOptions::default()
        };
        let first = tune_cached(&m, &space, &opts, &cache).unwrap();
        assert!(!first.cache_hit);
        let second = tune_cached(&m, &space, &opts, &cache).unwrap();
        assert!(second.cache_hit, "second run must be served from cache");
        assert_eq!(first.tuned, second.tuned);
        assert_eq!(
            first.tuned_report.time_s.to_bits(),
            second.tuned_report.time_s.to_bits()
        );
        assert_eq!(first.candidates_evaluated, second.candidates_evaluated);
        // The file on disk round-trips the serialization byte-exactly.
        let bytes =
            std::fs::read(cache.store.record_path::<TuneOutcome>(first.fingerprint)).unwrap();
        assert_eq!(bytes, serialize_record(&first).into_bytes());

        // A changed fingerprint (different machine) misses.
        let other = MachineConfig { n: 60_000, ..m };
        let other_space = TuneSpace::coarse(&other);
        let miss = tune_cached(&other, &other_space, &opts, &cache).unwrap();
        assert!(!miss.cache_hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serialization_roundtrips_bit_exactly() {
        let m = small_machine();
        let space = TuneSpace::coarse(&m);
        let opts = TuneOptions {
            coarse_only: true,
            seed: 42,
            ..TuneOptions::default()
        };
        let out = tune(&m, &space, &opts);
        let text = serialize_record(&out);
        let back: TuneOutcome = parse_record(&text).expect("own serialization parses");
        assert_eq!(back.fingerprint, out.fingerprint);
        assert_eq!(back.machine, out.machine);
        assert_eq!(back.tuned, out.tuned);
        assert_eq!(
            back.tuned_report.time_s.to_bits(),
            out.tuned_report.time_s.to_bits()
        );
        assert_eq!(
            back.tuned_report.gflops.to_bits(),
            out.tuned_report.gflops.to_bits()
        );
        assert_eq!(
            back.baseline_report.time_s.to_bits(),
            out.baseline_report.time_s.to_bits()
        );
        assert_eq!(back.table.len(), out.table.len());
        for (x, y) in back.table.iter().zip(&out.table) {
            assert_eq!(x.candidate, y.candidate);
            assert_eq!(x.report.time_s.to_bits(), y.report.time_s.to_bits());
        }
        // Re-serializing the parsed outcome is byte-identical.
        assert_eq!(serialize_record(&back).as_bytes(), text.as_bytes());
    }

    #[test]
    fn legacy_v2_cache_files_stay_readable_through_the_shared_store() {
        // Migration gate: a cache file written by the pre-`ResultStore`
        // code must load unchanged. The v2 layout is reconstructed here
        // literally — header, field lines, FNV trailer, `tune-<key>.txt`
        // naming — independent of the production serializer, so a
        // framing drift in either layer fails this test.
        let m = small_machine();
        let space = TuneSpace::coarse(&m);
        let opts = TuneOptions {
            coarse_only: true,
            ..TuneOptions::default()
        };
        let out = tune(&m, &space, &opts);

        let mut legacy = String::new();
        legacy.push_str("phi-tune cache v2\n");
        legacy.push_str(&format!("key {:016x}\n", out.fingerprint));
        legacy.push_str(&format!(
            "machine nodes={} cards={} mem={:016x} n={}\n",
            m.nodes,
            m.cards_per_node,
            m.host_mem_gib.to_bits(),
            m.n
        ));
        legacy.push_str(&format!("evaluated {}\n", out.candidates_evaluated));
        legacy.push_str(&format!("baseline {}\n", cand_line(&out.baseline)));
        legacy.push_str(&format!(
            "baseline-score {}\n",
            score_line(&out.baseline_report)
        ));
        legacy.push_str(&format!("tuned {}\n", cand_line(&out.tuned.candidate())));
        legacy.push_str(&format!("tuned-score {}\n", score_line(&out.tuned_report)));
        legacy.push_str(&format!("table {}\n", out.table.len()));
        for sc in &out.table {
            legacy.push_str(&format!(
                "row {} {}\n",
                cand_line(&sc.candidate),
                score_line(&sc.report)
            ));
        }
        let mut h = Fnv::new();
        h.write(legacy.as_bytes());
        legacy.push_str(&format!("end {:016x}\n", h.finish()));

        // The migrated serializer still emits exactly the legacy bytes.
        assert_eq!(
            serialize_record(&out),
            legacy,
            "on-disk format drifted from v2"
        );

        // And a legacy file dropped into a cache directory is a hit.
        let dir = tmp_dir("legacy");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TuneCache::open(&dir).unwrap();
        let legacy_path = dir.join(format!("tune-{:016x}.txt", out.fingerprint));
        std::fs::write(&legacy_path, &legacy).unwrap();
        assert_eq!(
            cache.store.record_path::<TuneOutcome>(out.fingerprint),
            legacy_path
        );
        let loaded = cache
            .store
            .load::<TuneOutcome>(out.fingerprint)
            .unwrap()
            .expect("legacy record loads");
        assert_eq!(loaded.tuned, out.tuned);
        assert_eq!(loaded.fingerprint, out.fingerprint);
        let hit = tune_cached(&m, &space, &opts, &cache).unwrap();
        assert!(hit.cache_hit, "legacy file must serve as a cache hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_file_is_a_miss_not_an_error() {
        let dir = tmp_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TuneCache::open(&dir).unwrap();
        std::fs::write(
            cache.store.record_path::<TuneOutcome>(0xDEAD),
            "not a cache file",
        )
        .unwrap();
        assert!(cache.store.load::<TuneOutcome>(0xDEAD).unwrap().is_none());
        assert!(cache.store.load::<TuneOutcome>(0xBEEF).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_cache_files_surface_typed_errors_and_never_panic() {
        let dir = tmp_dir("damaged");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TuneCache::open(&dir).unwrap();
        let m = small_machine();
        let space = TuneSpace::coarse(&m);
        let opts = TuneOptions {
            coarse_only: true,
            ..TuneOptions::default()
        };
        let good = tune(&m, &space, &opts);
        let bytes = serialize_record(&good).into_bytes();
        let key = good.fingerprint;

        // Empty file.
        std::fs::write(cache.store.record_path::<TuneOutcome>(key), b"").unwrap();
        match cache.load_checked(key) {
            Err(CacheReadError::Corrupt { reason, .. }) => assert_eq!(reason, "empty file"),
            other => panic!("expected Corrupt(empty), got {other:?}"),
        }

        // Truncations at every prefix length must parse-fail or parse,
        // never panic (the full record is the only valid prefix).
        for cut in (0..bytes.len()).step_by(37) {
            std::fs::write(cache.store.record_path::<TuneOutcome>(key), &bytes[..cut]).unwrap();
            assert!(
                cache.load_checked(key).unwrap_or(None).is_none(),
                "truncation at {cut} produced a record"
            );
        }

        // A single bit flip anywhere — header, payload or trailer — is
        // caught by the integrity trailer, never panics, never yields a
        // silently altered record.
        for pos in (0..bytes.len()).step_by(11) {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x10;
            std::fs::write(cache.store.record_path::<TuneOutcome>(key), &flipped).unwrap();
            match cache.load_checked(key) {
                Err(CacheReadError::Corrupt { .. }) => {}
                other => panic!("bit flip at {pos} not caught: {other:?}"),
            }
        }

        // The lenient `load` maps every Corrupt to a miss.
        std::fs::write(
            cache.store.record_path::<TuneOutcome>(key),
            "phi-tune cache v2\ngarbage",
        )
        .unwrap();
        assert!(cache.store.load::<TuneOutcome>(key).unwrap().is_none());

        // And `tune_cached` recovers: recompute, overwrite, serve hits.
        let recomputed = tune_cached(&m, &space, &opts, &cache).unwrap();
        assert!(!recomputed.cache_hit);
        assert_eq!(recomputed.tuned, good.tuned);
        assert_eq!(
            std::fs::read(cache.store.record_path::<TuneOutcome>(key)).unwrap(),
            serialize_record(&recomputed).into_bytes(),
            "bad bytes must be overwritten with a valid record"
        );
        assert!(tune_cached(&m, &space, &opts, &cache).unwrap().cache_hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn post_recovery_retune_never_regresses_baseline() {
        // After a host death on the paper's 100-node system the
        // survivors re-tune for the 99-rank fallback machine; the tuned
        // configuration must still beat (or match) the untuned baseline.
        let lost_one = MachineConfig {
            nodes: 99,
            ..MachineConfig::paper_cluster_100()
        };
        let space = TuneSpace::coarse(&lost_one);
        let opts = TuneOptions {
            coarse_only: true,
            ..TuneOptions::default()
        };
        let out = tune(&lost_one, &space, &opts);
        assert!(
            out.tuned_report.time_s <= out.baseline_report.time_s,
            "re-tune regressed: {} s vs baseline {} s",
            out.tuned_report.time_s,
            out.baseline_report.time_s
        );
        assert!(out.tuned_report.gflops >= out.baseline_report.gflops);
    }
}
