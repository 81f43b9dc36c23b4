//! PCIe parameters and memory-mapped offload queues (paper Fig. 10b).
//!
//! Offload DGEMM moves data in three ways; this module holds the link
//! parameters ([`PcieConfig`]) and the queue ([`MmQueue`]), and the
//! offload model in `phi-hpl` books the DMAs on `phi_des::Link`s built
//! from them:
//!
//! 1. the host DMAs packed input tiles to GDDR (steps 2–3 of Fig. 10b);
//! 2. requests travel through a **memory-mapped request queue** that the
//!    card polls (steps 4–5), and results return via a response queue
//!    (steps 7–8);
//! 3. output `C` tiles DMA back to host memory (step 9).
//!
//! The tile-size rule of Section V-B falls out of these numbers: to hide
//! the transfer of an `Mt × Nt` output tile behind its own compute,
//! `Kt > 4 · P_dgemm / BW_pcie` — with `P ≈ 950` GFLOPS and `BW ≈ 4` GB/s
//! that gives `Kt ≥ 950`, and the paper uses `Kt = 1200`.

use std::collections::VecDeque;

/// PCIe link parameters.
#[derive(Clone, Copy, Debug)]
pub struct PcieConfig {
    /// Nominal unidirectional bandwidth, bytes/s (6 GB/s in Table I).
    pub nominal_bw: f64,
    /// Effective bandwidth under contention with host swapping / DGEMM
    /// (footnote 4: "~4 GB/s ... PCIe transfers compete for memory
    /// bandwidth"), bytes/s.
    pub effective_bw: f64,
    /// Per-DMA latency, seconds.
    pub latency: f64,
    /// One-way latency of a queue slot becoming visible to the poller
    /// (host write → card poll hit), seconds.
    pub queue_poll_latency: f64,
}

impl Default for PcieConfig {
    fn default() -> Self {
        Self {
            nominal_bw: 6.0e9,
            effective_bw: 4.0e9,
            latency: 10e-6,
            queue_poll_latency: 2e-6,
        }
    }
}

impl PcieConfig {
    /// The paper's lower bound on the offload tile depth:
    /// `Kt > 4 · P_dgemm / BW_pcie` (Section V-B), with `P` in FLOP/s and
    /// the effective PCIe bandwidth.
    pub fn min_kt(&self, dgemm_flops: f64) -> f64 {
        4.0 * dgemm_flops / self.effective_bw
    }

    /// The link during a CRC-retry storm: each replayed TLP window adds
    /// `stall_s` of recovery time per DMA (the LTSSM replays the packet
    /// after a receiver NAK), and the replays consume a matching slice of
    /// the wire, derating both bandwidths by `1 / (1 + retry_fraction)`.
    /// With `stall_s = 0` the returned config is bit-identical to `self`.
    pub fn with_crc_stall(&self, stall_s: f64, retry_fraction: f64) -> PcieConfig {
        assert!(stall_s >= 0.0 && (0.0..1.0).contains(&retry_fraction));
        PcieConfig {
            nominal_bw: self.nominal_bw / (1.0 + retry_fraction),
            effective_bw: self.effective_bw / (1.0 + retry_fraction),
            latency: self.latency + stall_s,
            queue_poll_latency: self.queue_poll_latency,
        }
    }
}

/// A memory-mapped FIFO queue between host and card (Fig. 10b).
///
/// Functionally a `VecDeque`; temporally, an entry enqueued at time `t`
/// becomes visible to the polling side at `t + queue_poll_latency`.
#[derive(Clone, Debug)]
pub struct MmQueue<T> {
    entries: VecDeque<(f64, T)>,
    poll_latency: f64,
}

impl<T> MmQueue<T> {
    /// A queue whose entries become visible `poll_latency` seconds after
    /// enqueue.
    pub fn new(poll_latency: f64) -> Self {
        Self {
            entries: VecDeque::new(),
            poll_latency,
        }
    }

    /// Host side: enqueue `item` at time `now`.
    pub fn enqueue(&mut self, now: f64, item: T) {
        self.entries.push_back((now + self.poll_latency, item));
    }

    /// Poller side: dequeue the head entry if it is visible at `now`.
    pub fn poll(&mut self, now: f64) -> Option<T> {
        match self.entries.front() {
            Some(&(visible_at, _)) if visible_at <= now => {
                self.entries.pop_front().map(|(_, item)| item)
            }
            _ => None,
        }
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_kt_matches_paper() {
        // "BWpcie is ≈4 GB/s and Pdgm is ≈950 GFLOPS. As a result, the
        // panel width Kt should at least be 950."
        let cfg = PcieConfig::default();
        let kt = cfg.min_kt(950e9);
        assert!((kt - 950.0).abs() < 1.0, "Kt bound = {kt}");
        // And the paper's choice of 1200 exceeds the bound.
        assert!(1200.0 > kt);
    }

    #[test]
    fn crc_stall_identity_is_bit_exact() {
        let cfg = PcieConfig::default();
        let same = cfg.with_crc_stall(0.0, 0.0);
        assert_eq!(same.effective_bw.to_bits(), cfg.effective_bw.to_bits());
        assert_eq!(same.nominal_bw.to_bits(), cfg.nominal_bw.to_bits());
        assert_eq!(same.latency.to_bits(), cfg.latency.to_bits());
        let storm = cfg.with_crc_stall(100e-6, 0.2);
        assert!(storm.latency > cfg.latency);
        assert!(storm.effective_bw < cfg.effective_bw);
        // A storm tightens the Kt bound: slower wire needs deeper tiles.
        assert!(storm.min_kt(950e9) > cfg.min_kt(950e9));
    }

    #[test]
    fn queue_visibility_delay() {
        let mut q = MmQueue::new(2e-6);
        q.enqueue(1.0, "dgemm-tile-0");
        assert_eq!(q.poll(1.0), None, "not visible yet");
        assert_eq!(q.poll(1.0 + 2e-6), Some("dgemm-tile-0"));
        assert_eq!(q.poll(2.0), None, "drained");
    }

    #[test]
    fn queue_is_fifo() {
        let mut q = MmQueue::new(0.0);
        q.enqueue(0.0, 1);
        q.enqueue(0.0, 2);
        q.enqueue(0.0, 3);
        assert!(!q.is_empty());
        assert_eq!(q.poll(0.0), Some(1));
        assert_eq!(q.poll(0.0), Some(2));
        assert_eq!(q.poll(0.0), Some(3));
        assert!(q.is_empty());
    }
}
