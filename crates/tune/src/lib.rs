//! `phi-tune` — deterministic, seeded autotuning for the simulated
//! Linpack stack.
//!
//! The paper's headline numbers are not one algorithm but a *tuned
//! configuration*: panel width `NB`, look-ahead depth, the host/card
//! work-division (§IV-B), the broadcast scheme (Fig. 8) and the P × Q
//! process grid were all hand-searched per machine, and §VI notes the
//! multi-node runs settle on a different `NB` than a single node. This
//! crate performs that search against the calibrated simulators:
//!
//! * [`TuneSpace`] enumerates the configuration space;
//! * [`tune`] runs the two-phase search — a **coarse grid** over the
//!   full space on the fast analytic cluster path, then **coordinate
//!   descent with successive halving** around the leaders, and finally a
//!   re-score of the surviving finalists on the slower DES-calibrated
//!   path ([`phi_hpl::hybrid::simulate_cluster_calibrated`]);
//! * candidate evaluations run in parallel on `std::thread` with a
//!   deterministic by-index merge, so the result is independent of
//!   thread count;
//! * [`TuneCache`] is a content-addressed cache keyed by an FNV-1a
//!   fingerprint of the machine, the search space and the seed (the
//!   same fingerprint scheme `phi-faults` uses for replay identity) —
//!   a second run with the same key is a pure cache hit. The framing
//!   lives in `phi-serve`'s shared [`phi_serve::ResultStore`]; the
//!   on-disk bytes are unchanged from the pre-migration v2 format.
//!
//! Selection applies an ε-rule: among finalists within 1% of the best
//! calibrated score *and no slower than the paper's hand-set baseline*,
//! the smallest `NB` wins (the §V-B `Kt`-bound argument: a smaller
//! panel costs nothing measurable but eases memory and PCIe pressure).
//! The baseline is always in the population, so the tuner never
//! regresses below the hand-tuned configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cache;
mod search;
mod space;
pub mod workload;

pub use cache::TuneCache;
pub use search::{striped_map, tune, tune_cached, TuneOptions, TuneOutcome};
pub use space::{MachineConfig, TuneSpace};
pub use workload::{tune_spmv_blocking, tune_stencil_decomposition};

/// The workspace's standard LCG (same multiplier/increment as the
/// `phi-faults` plan generator): deterministic, seedable, no external
/// dependency.
#[derive(Clone, Copy, Debug)]
struct TuneRng(u64);

impl TuneRng {
    fn new(seed: u64) -> Self {
        TuneRng(seed.wrapping_add(0x9e3779b97f4a7c15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // xorshift the top bits down: the LCG's low bits are weak.
        let x = self.0;
        (x ^ (x >> 33)).wrapping_mul(0xff51afd7ed558ccd)
    }

    /// Uniform value in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let mut a = TuneRng::new(7);
        let mut b = TuneRng::new(7);
        let mut c = TuneRng::new(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        for _ in 0..100 {
            assert!(a.below(10) < 10);
        }
    }
}
