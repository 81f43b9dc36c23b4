//! Roofline placement of a kernel on the simulated KNC chip.
//!
//! The roofline model bounds attainable throughput by
//! `min(peak, AI × stream_bw)` where AI is the kernel's arithmetic
//! intensity in flops per byte of memory traffic. The ridge point of the
//! Table-I chip sits at `1056 GF / 150 GB/s ≈ 7 flops/byte`: DGEMM
//! (AI ≈ k/16 per packed element, far right of the ridge) is
//! compute-bound, while CSR SpMV (≈ 0.12 flops/byte) and low-order
//! stencils (≈ 0.2 flops/byte) live on the bandwidth slope — the side of
//! the chart the paper's HPL pipeline never exercises.

use crate::chip::{KncChip, Precision};

/// Which roofline slope a kernel's operating point sits on.
///
/// The class is a *property of the listing*, not a measured outcome: a
/// bandwidth-bound body streams fresh cache lines through every vector
/// slot (no register reuse), so its L1 ports are busy on every cycle and
/// prefetch fills can only land in forced stalls — the Fig. 1c deficit is
/// its steady operating point rather than a scheduling defect. Static
/// analyses (see `phi-lint`) use the class to decide whether a fill
/// deficit is a diagnostic or simply priced into the cycle bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RooflineClass {
    /// Left of the ridge is for memory: attainable ≈ AI × bandwidth.
    BandwidthBound,
    /// Right of the ridge: attainable ≈ peak flops.
    #[default]
    ComputeBound,
}

impl RooflineClass {
    /// Stable lowercase name (used in reports and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            RooflineClass::BandwidthBound => "bandwidth-bound",
            RooflineClass::ComputeBound => "compute-bound",
        }
    }
}

/// One kernel's placement on the chip's roofline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RooflinePoint {
    /// Arithmetic intensity: useful flops per byte of DRAM traffic.
    pub flops_per_byte: f64,
    /// `min(peak, AI × stream_bw)` in GFLOPS (native 60-core peak).
    pub attainable_gflops: f64,
    /// Which slope the point sits on.
    pub class: RooflineClass,
}

/// Places an arithmetic intensity on the chip's double-precision roofline.
pub fn place(chip: &KncChip, flops_per_byte: f64) -> RooflinePoint {
    let peak = chip.native_peak_gflops(Precision::F64);
    let bw_roof = flops_per_byte * chip.stream_bw_gbs;
    let class = if bw_roof < peak {
        RooflineClass::BandwidthBound
    } else {
        RooflineClass::ComputeBound
    };
    RooflinePoint {
        flops_per_byte,
        attainable_gflops: bw_roof.min(peak),
        class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ridge_sits_near_seven_flops_per_byte() {
        let chip = KncChip::default();
        let ridge = chip.native_peak_gflops(Precision::F64) / chip.stream_bw_gbs;
        assert!((6.0..8.0).contains(&ridge), "{ridge}");
    }

    #[test]
    fn dgemm_side_is_compute_bound() {
        let chip = KncChip::default();
        // A k=256 packed DGEMM moves ~16 bytes per 2*k flops per element.
        let p = place(&chip, 256.0 / 16.0);
        assert_eq!(p.class, RooflineClass::ComputeBound);
        assert!((p.attainable_gflops - chip.native_peak_gflops(Precision::F64)).abs() < 1e-9);
    }

    #[test]
    fn spmv_side_is_bandwidth_bound() {
        let chip = KncChip::default();
        let p = place(&chip, 0.125);
        assert_eq!(p.class, RooflineClass::BandwidthBound);
        assert!((p.attainable_gflops - 0.125 * chip.stream_bw_gbs).abs() < 1e-9);
        assert!(p.attainable_gflops < 0.05 * chip.native_peak_gflops(Precision::F64));
    }

    #[test]
    fn class_names_are_stable() {
        assert_eq!(RooflineClass::BandwidthBound.name(), "bandwidth-bound");
        assert_eq!(RooflineClass::ComputeBound.name(), "compute-bound");
        assert_eq!(RooflineClass::default(), RooflineClass::ComputeBound);
    }
}
