//! `phi-serve` — simulation-as-a-service for the Linpack stack.
//!
//! Every scenario in this workspace used to be a one-shot bench binary:
//! the paper's Table II/III sweeps and the fleet-scale Monte Carlo
//! campaigns re-ran identical `(configuration → result)` work on every
//! invocation. This crate turns the simulators into a *service*:
//!
//! * [`CampaignSpec`] is a declarative description of one campaign —
//!   process grid × `NB` × broadcast scheme × look-ahead × work
//!   division × fault plan × recovery remap — canonicalized and
//!   FNV-hashed into a content-addressed key ([`CampaignSpec::key`]);
//! * [`store::ResultStore`] is the system-wide content-addressed store
//!   grown out of `phi-tune`'s `TuneCache`: the same FNV keying and
//!   hex-bit `f64` text serialization, the same corrupt-entry recovery
//!   semantics, generalized over a [`store::Record`] trait so tuning
//!   outcomes, campaign rows and fleet seeds all share one layer;
//! * [`CampaignService`] executes misses on a bounded worker pool
//!   (std threads + an mpsc channel — the workspace stays offline and
//!   dependency-free) with **single-flight dedup**: any number of
//!   concurrent identical requests run the simulation exactly once,
//!   and every result is persisted so later processes start warm;
//! * [`ResultTable`] is a queryable in-memory table over persisted
//!   campaign rows — `filter` / `project` / `aggregate` over GFLOPS,
//!   completion time, faults and recovery cost.
//!
//! Determinism is inherited from the simulators: a spec's outcome is a
//! pure function of its canonical key, so results are byte-identical at
//! any worker-pool size and a warm store can only ever serve the bytes
//! a cold run would have computed.
//!
//! ```
//! use phi_serve::{CampaignService, CampaignSpec};
//!
//! let service = CampaignService::in_memory(2);
//! let spec = CampaignSpec::single_node(20_000, 1200);
//! let first = service.get(&spec).unwrap();
//! let second = service.get(&spec).unwrap();
//! assert_eq!(first.fingerprint, second.fingerprint);
//! let stats = service.stats();
//! assert_eq!(stats.executed, 1, "identical requests simulate once");
//! assert_eq!(stats.mem_hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod campaign;
mod error;
mod service;
mod spec;
pub mod store;
mod table;

pub use campaign::{run_campaign, CampaignOutcome};
pub use error::ServeError;
pub use service::{CampaignService, ServiceStats};
pub use spec::{CampaignSpec, FaultSpec};
pub use store::ResultStore;
pub use table::{Agg, Column, Filter, FilterOp, ResultTable};

/// FNV-1a, the workspace's one fingerprint hash (spec keys and store
/// trailers here; defined once in `phi-faults`).
pub use phi_faults::Fnv;
