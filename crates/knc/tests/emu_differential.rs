//! Differential-equivalence harness: the block-trace fast path versus
//! the per-instruction interpreter.
//!
//! Every test runs the *same* workload twice — once with tracing off,
//! once with tracing on — and demands bit-identical outcomes: the full
//! architectural + micro-architectural state digest (registers, memory,
//! cycle, stalls, cache/TLB tag state, pending fills) plus every public
//! counter. The sweeps cover both paper kernels across blocking depths
//! and pipeline-latency variants, and fault-perturbed schedules (TLB
//! shootdowns, data edits, self-modifying program edits, mid-block
//! marks) at seeded points, so a divergence anywhere in the record /
//! replay / deopt machinery fails loudly.

use phi_blas::gemm::MicroKernelKind;
use phi_knc::emu::{CoreSim, StreamBases};
use phi_knc::isa::{Addr, Instr, Operand, Program, StreamId};
use phi_knc::kernels::{run_tile_product, run_tile_product_traced};
use phi_knc::PipelineConfig;
use phi_matrix::HplRng;

const MEM_ELEMS: usize = 4096;

/// Deterministic tile inputs shared by every kernel sweep.
fn tile_inputs(kind: MicroKernelKind, depth: usize) -> (Vec<f64>, [Vec<f64>; 4]) {
    let mr = match kind {
        MicroKernelKind::Kernel1 => 31,
        MicroKernelKind::Kernel2 => 30,
    };
    let a: Vec<f64> = (0..mr * depth)
        .map(|i| ((i * 7 + 3) % 23) as f64 - 11.0)
        .collect();
    let bs: [Vec<f64>; 4] = std::array::from_fn(|t| {
        (0..depth * 8)
            .map(|i| ((i * 5 + t) % 17) as f64 - 8.0)
            .collect()
    });
    (a, bs)
}

/// Pipeline variants for the sweep: the KNC defaults, a low-latency
/// part, and a hostile part (slow memory, touchy fill threshold).
fn pipeline_variants() -> [PipelineConfig; 3] {
    let base = PipelineConfig::default();
    [
        base,
        PipelineConfig {
            l2_hit_latency: 6,
            mem_latency: 110,
            demand_l2_penalty: 6,
            demand_mem_penalty: 110,
            ..base
        },
        PipelineConfig {
            mem_latency: 340,
            demand_mem_penalty: 340,
            fill_defer_threshold: 4,
            fill_stall_cycles: 3,
            ..base
        },
    ]
}

/// Kernel 1 and Kernel 2, five blocking depths, three pipeline
/// variants: the traced run reproduces the interpreter bit-for-bit —
/// cycles, all counters, steady-state measurement, and the C tiles.
#[test]
fn kernel_sweep_fast_equals_slow() {
    let mut replayed_total = 0u64;
    for kind in [MicroKernelKind::Kernel1, MicroKernelKind::Kernel2] {
        for depth in [48usize, 64, 112, 192, 256] {
            for (ci, cfg) in pipeline_variants().into_iter().enumerate() {
                let (a, bs) = tile_inputs(kind, depth);
                let slow = run_tile_product(kind, depth, &a, &bs, cfg);
                let (fast, ts, speedup) = run_tile_product_traced(kind, depth, &a, &bs, cfg);
                let tag = format!("{kind:?} depth={depth} cfg#{ci}");
                assert_eq!(fast.cycles_total, slow.cycles_total, "{tag}: cycles");
                assert_eq!(fast.stats, slow.stats, "{tag}: counters");
                assert_eq!(
                    fast.steady_cycles_per_iter.to_bits(),
                    slow.steady_cycles_per_iter.to_bits(),
                    "{tag}: steady-state measurement"
                );
                assert_eq!(
                    fast.steady_efficiency.to_bits(),
                    slow.steady_efficiency.to_bits(),
                    "{tag}: efficiency"
                );
                for t in 0..4 {
                    let fb: Vec<u64> = fast.c_tiles[t].iter().map(|v| v.to_bits()).collect();
                    let sb: Vec<u64> = slow.c_tiles[t].iter().map(|v| v.to_bits()).collect();
                    assert_eq!(fb, sb, "{tag}: C tile of thread {t}");
                }
                assert!(speedup >= 1.0, "{tag}: speedup {speedup}");
                replayed_total += ts.replayed_segments;
            }
        }
    }
    assert!(
        replayed_total > 0,
        "the fast path never engaged across the whole sweep"
    );
}

/// A steady FMA/prefetch stream long enough for the template detector
/// to settle; the anchor workload of the perturbation tests below.
fn steady_body() -> Program {
    Program {
        body: vec![
            Instr::Fmadd {
                acc: 0,
                src: Operand::Mem(Addr::new(StreamId::A, 8, 0)),
                b: 1,
            },
            Instr::PrefetchL1(Addr::new(StreamId::A, 8, 64)),
            Instr::Load {
                dst: 2,
                addr: Addr::new(StreamId::B, 8, 0),
            },
            Instr::ScalarOp,
        ],
    }
}

fn fresh_pair(init: &[f64]) -> (CoreSim, CoreSim) {
    let slow = CoreSim::new(PipelineConfig::default(), init.to_vec());
    let mut fast = CoreSim::new(PipelineConfig::default(), init.to_vec());
    fast.enable_trace();
    (slow, fast)
}

fn four_threads() -> [StreamBases; 4] {
    std::array::from_fn(|t| StreamBases {
        a: t * 8,
        b: 2048 + t * 8,
        c: 3584 + t * 64,
    })
}

/// Seeded fault-perturbed schedules: random-length run chunks broken up
/// by TLB shootdowns and direct memory edits at seeded points. Both
/// perturbations invalidate trace state; the fast path must fall back
/// and stay bit-identical to the interpreter after every chunk.
#[test]
fn fault_perturbed_schedules_stay_bit_identical() {
    let body = steady_body();
    let epi = Program::new();
    let threads = four_threads();
    for seed in [0x0D1F_u64, 0x0D2F, 0x0D3F, 0x0D4F] {
        let mut rng = HplRng::new(seed);
        let init: Vec<f64> = (0..MEM_ELEMS).map(|_| rng.next_value()).collect();
        let (mut slow, mut fast) = fresh_pair(&init);
        for chunk in 0..8 {
            let iters = 8 + (rng.next_u64() % 56) as usize;
            slow.run(&body, &epi, iters, &threads);
            fast.run(&body, &epi, iters, &threads);
            match rng.next_u64() % 3 {
                0 => {
                    slow.tlb_shootdown();
                    fast.tlb_shootdown();
                }
                1 => {
                    let idx = (rng.next_u64() as usize) % MEM_ELEMS;
                    let val = rng.next_value();
                    slow.mem_mut()[idx] = val;
                    fast.mem_mut()[idx] = val;
                }
                _ => {}
            }
            assert_eq!(
                fast.state_digest(),
                slow.state_digest(),
                "seed {seed:#x}, chunk {chunk}: state diverged"
            );
        }
        let ts = fast.trace_stats().expect("tracing enabled");
        assert!(
            ts.replayed_segments > 0,
            "seed {seed:#x}: fast path never engaged"
        );
    }
}

/// Regression lock for a template-formation soundness hole: chunked
/// `run()` calls used to leave stale segments in the period-detection
/// ring, so recordings from *different* runs could pattern-match as
/// "periodic" and form a template whose phases never executed
/// back-to-back. Replaying it teleported thread PCs to the wrong
/// phase's entry and silently re-executed instructions (every per-event
/// cache check still passed). This chunk sequence reproduced the
/// divergence deterministically before the fix.
#[test]
fn chunked_runs_cannot_fuse_stale_ring_segments() {
    let body = steady_body();
    let epi = Program::new();
    let threads = four_threads();
    let init: Vec<f64> = (0..MEM_ELEMS).map(|i| i as f64).collect();
    let (mut slow, mut fast) = fresh_pair(&init);
    for (i, &iters) in [61usize, 57, 27, 53, 25].iter().enumerate() {
        let cs = slow.run(&body, &epi, iters, &threads);
        let cf = fast.run(&body, &epi, iters, &threads);
        assert_eq!(cf, cs, "chunk {i} cycle count");
        assert_eq!(fast.state_digest(), slow.state_digest(), "chunk {i} state");
    }
    let ts = fast.trace_stats().expect("tracing enabled");
    assert!(ts.replayed_segments > 0, "fast path never engaged: {ts:?}");
}

/// Self-modifying listing: between chunks the program body is edited at
/// seeded points (an address offset nudged, keeping accesses in
/// bounds). The fingerprint change must invalidate templates and the
/// edited program must execute bit-identically on both paths.
#[test]
fn self_modifying_program_edits_deoptimize_cleanly() {
    let epi = Program::new();
    let threads = four_threads();
    for seed in [0x5E1F_u64, 0x5E2F, 0x5E3F] {
        let mut rng = HplRng::new(seed);
        let init: Vec<f64> = (0..MEM_ELEMS).map(|_| rng.next_value()).collect();
        let (mut slow, mut fast) = fresh_pair(&init);
        let mut body = steady_body();
        for _ in 0..5 {
            let iters = 32 + (rng.next_u64() % 32) as usize;
            slow.run(&body, &epi, iters, &threads);
            fast.run(&body, &epi, iters, &threads);
            assert_eq!(fast.state_digest(), slow.state_digest(), "seed {seed:#x}");
            // Edit the prefetch target — a new program fingerprint.
            let off = 8 * (1 + (rng.next_u64() % 16) as usize);
            body.body[1] = Instr::PrefetchL1(Addr::new(StreamId::A, 8, off));
        }
        let ts = fast.trace_stats().expect("tracing enabled");
        assert!(ts.replayed_segments > 0, "seed {seed:#x}: never engaged");
        assert!(
            ts.invalidations > 0,
            "seed {seed:#x}: program edits never invalidated templates"
        );
    }
}

/// Mid-block marks: `run_with_marks` checkpoints placed at seeded
/// in-loop iterations must not perturb the simulation on either path,
/// and the two paths must agree on the reported mark cycles (replay
/// reconstructs mark crossings from segment reach records).
#[test]
fn mid_block_marks_agree_and_do_not_perturb() {
    let body = steady_body();
    let epi = Program::new();
    let threads = four_threads();
    let iters = 96usize;
    for seed in [0x3A11_u64, 0x3A22, 0x3A33] {
        let mut rng = HplRng::new(seed);
        let init: Vec<f64> = (0..MEM_ELEMS).map(|_| rng.next_value()).collect();
        let m1 = 1 + (rng.next_u64() % 40) as usize;
        let m2 = m1 + 1 + (rng.next_u64() % (iters as u64 - m1 as u64 - 1)) as usize;

        let (mut slow, mut fast) = fresh_pair(&init);
        let s = slow.run_with_marks(&body, &epi, iters, &threads, m1, m2);
        let f = fast.run_with_marks(&body, &epi, iters, &threads, m1, m2);
        assert_eq!(f, s, "seed {seed:#x}: (total, mark1, mark2) cycles");
        assert_eq!(fast.state_digest(), slow.state_digest(), "seed {seed:#x}");

        // Marks are observers only: an unmarked traced run of the same
        // workload lands in the same final state.
        let mut unmarked = CoreSim::new(PipelineConfig::default(), init.clone());
        unmarked.enable_trace();
        unmarked.run(&body, &epi, iters, &threads);
        assert_eq!(
            unmarked.state_digest(),
            fast.state_digest(),
            "seed {seed:#x}: marks perturbed the run"
        );
    }
}

/// The ISSUE acceptance bar: at a production blocking depth the fast
/// path covers enough of the run for a deterministic >= 5x coverage
/// speedup (total cycles over interpreter-executed cycles), on both
/// kernels, while staying bit-identical (checked by the sweep above).
#[test]
fn steady_state_replay_speedup_exceeds_five_x() {
    for kind in [MicroKernelKind::Kernel1, MicroKernelKind::Kernel2] {
        let depth = 1024;
        let (a, bs) = tile_inputs(kind, depth);
        let (_, ts, speedup) =
            run_tile_product_traced(kind, depth, &a, &bs, PipelineConfig::default());
        assert!(
            speedup >= 5.0,
            "{kind:?}: replay speedup {speedup:.2} < 5x (stats: {ts:?})"
        );
    }
}

/// Long-horizon soak: a single traced core interleaving kernel-shaped
/// chunks with every perturbation class, digest-checked against the
/// interpreter at each step.
#[test]
fn interleaved_perturbation_soak() {
    let epi = Program::new();
    let threads = four_threads();
    let mut rng = HplRng::new(0x50AC);
    let init: Vec<f64> = (0..MEM_ELEMS).map(|_| rng.next_value()).collect();
    let (mut slow, mut fast) = fresh_pair(&init);
    let mut body = steady_body();
    for step in 0..24 {
        let iters = 4 + (rng.next_u64() % 48) as usize;
        let m1 = 1.min(iters);
        let m2 = (iters / 2).max(m1);
        let s = slow.run_with_marks(&body, &epi, iters, &threads, m1, m2);
        let f = fast.run_with_marks(&body, &epi, iters, &threads, m1, m2);
        assert_eq!(f, s, "step {step}: mark cycles");
        match rng.next_u64() % 4 {
            0 => {
                slow.tlb_shootdown();
                fast.tlb_shootdown();
            }
            1 => {
                let idx = (rng.next_u64() as usize) % MEM_ELEMS;
                slow.mem_mut()[idx] = 1.25;
                fast.mem_mut()[idx] = 1.25;
            }
            2 => {
                let off = 8 * (rng.next_u64() % 24) as usize;
                body.body[2] = Instr::Load {
                    dst: 2,
                    addr: Addr::new(StreamId::B, 8, off),
                };
            }
            _ => {}
        }
        assert_eq!(
            fast.state_digest(),
            slow.state_digest(),
            "step {step}: state diverged"
        );
    }
    let ts = fast.trace_stats().expect("tracing enabled");
    assert!(ts.replayed_segments > 0, "soak never hit the fast path");
}
