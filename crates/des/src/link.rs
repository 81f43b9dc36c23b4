//! Serialized bandwidth × latency channels.
//!
//! Models the communication resources of the paper's test-bed: the
//! 6 GB/s PCIe link to each coprocessor (≈4 GB/s effective when copying
//! and swapping compete for host memory bandwidth — footnote 4) and the
//! FDR InfiniBand rail between nodes. Transfers on one link serialize:
//! each begins when the link frees up and occupies it for
//! `latency + bytes/bandwidth` seconds — the standard postal model.

/// A serialized, full-duplex-unaware point-to-point channel.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// Sustained bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Per-message latency in seconds.
    pub latency: f64,
    busy_until: f64,
    bytes_moved: f64,
}

impl Link {
    /// A link with the given bandwidth (bytes/s) and latency (s).
    pub fn new(bandwidth: f64, latency: f64) -> Self {
        assert!(bandwidth > 0.0 && latency >= 0.0);
        Self {
            bandwidth,
            latency,
            busy_until: 0.0,
            bytes_moved: 0.0,
        }
    }

    /// Books a transfer of `bytes` starting no earlier than `now`.
    /// Returns `(start, end)`: the transfer occupies the link on
    /// `[start, end)`.
    ///
    /// # Panics
    /// Panics on a negative byte count; use `Link::try_transfer` when
    /// the size comes from untrusted input (e.g. a fault plan).
    pub fn transfer(&mut self, now: f64, bytes: f64) -> (f64, f64) {
        self.try_transfer(now, bytes)
            .expect("negative transfer size")
    }

    /// Fallible [`Link::transfer`]: rejects negative sizes as a typed
    /// error instead of panicking.
    fn try_transfer(&mut self, now: f64, bytes: f64) -> Result<(f64, f64), crate::ModelError> {
        if bytes < 0.0 {
            return Err(crate::ModelError::NegativeBytes { bytes });
        }
        let start = now.max(self.busy_until);
        let end = start + self.latency + bytes / self.bandwidth;
        self.busy_until = end;
        self.bytes_moved += bytes;
        Ok((start, end))
    }

    /// Time at which the link becomes free.
    pub fn busy_until(&self) -> f64 {
        self.busy_until
    }

    /// Total payload bytes moved over the link so far.
    pub fn bytes_moved(&self) -> f64 {
        self.bytes_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_transfer_time() {
        let mut l = Link::new(4e9, 10e-6);
        let (s, e) = l.transfer(0.0, 4e9); // 1 GB... 4e9 bytes at 4 GB/s
        assert_eq!(s, 0.0);
        assert!((e - (1.0 + 10e-6)).abs() < 1e-12);
    }

    #[test]
    fn transfers_serialize() {
        let mut l = Link::new(1e9, 0.0);
        let (_, e1) = l.transfer(0.0, 1e9); // busy until 1.0
        let (s2, e2) = l.transfer(0.5, 1e9); // must wait
        assert_eq!(e1, 1.0);
        assert_eq!(s2, 1.0);
        assert_eq!(e2, 2.0);
    }

    #[test]
    fn idle_gap_respected() {
        let mut l = Link::new(1e9, 0.0);
        l.transfer(0.0, 1e9);
        let (s, _) = l.transfer(5.0, 1e9); // link idle since t=1
        assert_eq!(s, 5.0);
    }

    #[test]
    fn accounting() {
        let mut l = Link::new(2e9, 0.0);
        l.transfer(0.0, 1e9);
        l.transfer(0.0, 3e9);
        assert_eq!(l.bytes_moved(), 4e9);
    }

    #[test]
    fn negative_bytes_surface_as_typed_error() {
        let mut l = Link::new(1e9, 0.0);
        let err = l.try_transfer(0.0, -1.0).unwrap_err();
        assert_eq!(err, crate::ModelError::NegativeBytes { bytes: -1.0 });
        // The failed call books nothing.
        assert_eq!(l.busy_until(), 0.0);
        assert_eq!(l.bytes_moved(), 0.0);
    }

    #[test]
    fn zero_byte_message_costs_latency_only() {
        let mut l = Link::new(1e9, 7e-6);
        let (s, e) = l.transfer(1.0, 0.0);
        assert_eq!(s, 1.0);
        assert!((e - 1.0 - 7e-6).abs() < 1e-15);
    }
}
