//! `emu_dgemm`: the cycle-level emulator on the compute-bound, L1-hit
//! steady state of Fig. 1–2 — both paper kernels at two depths — plus
//! `KernelCalibration::measure`, the production consumer of the emulator
//! (it goes through block-trace replay today, and through whatever
//! ROADMAP item 2 leaves).

use super::{below, fold_f64s, Env, Layers, Pass, Workload};
use crate::stats::summarize;
use crate::timing::{timed, Tracer};
use crate::trial;
use phi_blas::gemm::MicroKernelKind;
use phi_faults::FaultRng;
use phi_knc::cache::{Cache, CacheConfig};
use phi_knc::chip::KernelCalibration;
use phi_knc::kernels::{build_basic_kernel, kernel_mr, run_tile_product, NR};
use phi_knc::tlb::Tlb;
use phi_knc::{KernelReport, PipelineConfig};
use phi_matrix::HplRng;
use phi_serve::Fnv;

/// One emulated tile product of the basket: operands, the bit-exact
/// expected C tiles, and the span its calls are recorded under.
struct Item {
    kind: MicroKernelKind,
    depth: usize,
    span: &'static str,
    a: Vec<f64>,
    bs: [Vec<f64>; 4],
    expect: Vec<Vec<f64>>,
}

/// The built workload.
pub struct EmuDgemm {
    env: Env,
    reps: usize,
    deep: usize,
    items: Vec<Item>,
    /// Last report per item, for the exact simulated statistics.
    last: Vec<Option<KernelReport>>,
}

/// A plain `mul_add`-in-`k`-order product: what the emulated kernel must
/// reproduce bit for bit.
fn reference_c(mr: usize, depth: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut c = vec![0.0; mr * NR];
    for p in 0..depth {
        for r in 0..mr {
            let av = a[p * mr + r];
            for j in 0..NR {
                c[r * NR + j] = av.mul_add(b[p * NR + j], c[r * NR + j]);
            }
        }
    }
    c
}

/// Generates the operand tiles from the seed.
pub fn build(env: &Env) -> EmuDgemm {
    let deep = env.scale.pick(1024, 128);
    let shallow = env.scale.pick(300, 64);
    let mut rng = HplRng::new(env.seed);
    let items: Vec<Item> = [
        (MicroKernelKind::Kernel1, shallow, "knc.interp.k1_shallow"),
        (MicroKernelKind::Kernel2, shallow, "knc.interp.k2_shallow"),
        (MicroKernelKind::Kernel1, deep, "knc.interp.k1_deep"),
        (MicroKernelKind::Kernel2, deep, "knc.interp.k2_deep"),
    ]
    .into_iter()
    .map(|(kind, depth, span)| {
        let mr = kernel_mr(kind);
        let a: Vec<f64> = (0..mr * depth).map(|_| rng.next_value()).collect();
        let bs: [Vec<f64>; 4] =
            std::array::from_fn(|_| (0..depth * NR).map(|_| rng.next_value()).collect());
        let expect = bs.iter().map(|b| reference_c(mr, depth, &a, b)).collect();
        Item {
            kind,
            depth,
            span,
            a,
            bs,
            expect,
        }
    })
    .collect();
    EmuDgemm {
        env: env.clone(),
        reps: env.scale.reps(6),
        deep,
        last: vec![None; items.len()],
        items,
    }
}

impl Workload for EmuDgemm {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let cfg = PipelineConfig::default();
        let mut pass = Pass::default();
        let mut h = Fnv::new();
        let mut cycles = 0u64;
        for rep in 0..self.reps {
            let basket = tr.begin("basket");
            let mut deep_cycles = 0u64;
            for (i, it) in self.items.iter().enumerate() {
                let (mut r, s) = timed(|| {
                    tr.time(it.span, || {
                        run_tile_product(it.kind, it.depth, &it.a, &it.bs, cfg)
                    })
                });
                pass.seconds += s;
                cycles += r.stats.cycles;
                if it.depth == self.deep {
                    deep_cycles += r.stats.cycles;
                }
                if self.env.inject && rep == 0 && i == 0 {
                    r.c_tiles[0][0] = f64::from_bits(r.c_tiles[0][0].to_bits() ^ 1);
                }
                pass.check((r.c_tiles != it.expect).then(|| {
                    format!(
                        "{:?} depth {}: emulated C differs from the mul_add reference",
                        it.kind, it.depth
                    )
                }));
                if it.kind == MicroKernelKind::Kernel2 {
                    pass.check((r.steady_efficiency != 30.0 / 32.0).then(|| {
                        format!(
                            "Kernel2 depth {}: steady efficiency {} is not 30/32",
                            it.depth, r.steady_efficiency
                        )
                    }));
                }
                if rep == 0 {
                    h.write_u64(r.cycles_total);
                    h.write_u64(r.stats.cycles);
                    h.write_u64(r.stats.fill_stall_cycles);
                    h.write_u64(r.stats.fills_in_holes);
                    h.write_u64(r.steady_cycles_per_iter.to_bits());
                    for t in &r.c_tiles {
                        fold_f64s(&mut h, t);
                    }
                    self.last[i] = Some(r);
                }
            }
            let (cal, s) = timed(|| {
                tr.time("knc.chip.calibrate", || {
                    KernelCalibration::measure(self.deep)
                })
            });
            pass.seconds += s;
            // The calibration emulates both kernels at the deep depth.
            cycles += deep_cycles;
            if rep == 0 {
                fold_f64s(
                    &mut h,
                    &[cal.kernel1_cycles_per_iter, cal.kernel2_cycles_per_iter],
                );
            }
            tr.end(basket);
        }
        pass.work = cycles as f64 / 1e6;
        pass.sim_digest = h.finish();
        pass
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let sc = self.env.scale;
        let cycles = |i: usize| {
            self.last[i]
                .as_ref()
                .expect("layers run after a pass")
                .stats
                .cycles as f64
        };
        let rate =
            |span: &str, mcycles: f64| summarize(&tr.pass_seconds(span)).map(|s| mcycles / s);
        out.put(
            "knc.interp.k1_mcycles_per_s",
            rate("knc.interp.k1_deep", cycles(2) / 1e6),
        );
        let k2_deep = summarize(&tr.pass_seconds("knc.interp.k2_deep"));
        out.put(
            "knc.interp.k2_mcycles_per_s",
            k2_deep.map(|s| cycles(3) / 1e6 / s),
        );
        // Both kernels at the shallow depth, where the cold start (cache
        // warming, first-touch TLB misses) is a larger share.
        let shallow: Vec<f64> = tr
            .pass_seconds("knc.interp.k1_shallow")
            .iter()
            .zip(tr.pass_seconds("knc.interp.k2_shallow"))
            .map(|(a, b)| a + b)
            .collect();
        out.put(
            "knc.interp.d300_mcycles_per_s",
            summarize(&shallow).map(|s| (cycles(0) + cycles(1)) / 1e6 / s),
        );
        out.from_spans("knc.chip.calibrate_ms", tr, "knc.chip.calibrate", 1e3);

        let k1 = self.last[2].as_ref().expect("layers run after a pass");
        let k2 = self.last[3].as_ref().expect("layers run after a pass");
        let holes = |r: &KernelReport| {
            r.stats.fills_in_holes as f64 / (r.stats.fills_completed as f64).max(1.0)
        };
        out.exact("knc.sim.k1_cycles_per_iter", k1.steady_cycles_per_iter);
        out.exact("knc.sim.k2_cycles_per_iter", k2.steady_cycles_per_iter);
        out.exact(
            "knc.sim.k1_fill_stall_cycles",
            k1.stats.fill_stall_cycles as f64,
        );
        out.exact("knc.sim.k1_fills_in_holes_ratio", holes(k1));
        out.exact("knc.sim.k2_fills_in_holes_ratio", holes(k2));

        let (body, epi) = build_basic_kernel(MicroKernelKind::Kernel1);
        let lint = tr.bench("lint.kernel.analyze", sc.budget(0.1), 5, || {
            phi_lint::analyze(&body, &epi)
        });
        out.put("lint.kernel.analyze_us", lint.map(|s| s * 1e6));
        let bound = phi_lint::analyze(&body, &epi)
            .model
            .cycles_per_iter_lower_bound();
        out.exact(
            "lint.kernel.k1_static_gap_pct",
            100.0 * (k1.steady_cycles_per_iter - bound).abs() / k1.steady_cycles_per_iter,
        );

        // A seeded, hit-heavy element stream: 15 of 16 accesses fall in
        // a 16 KB window (half of L1), the rest anywhere in 4 MB.
        let n = sc.pick(1 << 20, 1 << 14);
        let mut rng = FaultRng::new(self.env.seed);
        let stream: Vec<usize> = (0..n)
            .map(|_| {
                if below(&mut rng, 16) == 0 {
                    below(&mut rng, 1 << 19)
                } else {
                    below(&mut rng, 1 << 11)
                }
            })
            .collect();
        let s = tr.bench("knc.cache.stream", sc.budget(0.15), 3, || {
            let mut l1 = Cache::new(CacheConfig::knc_l1());
            for &e in &stream {
                if !l1.access(e) {
                    l1.fill(e);
                }
            }
            l1.stats()
        });
        out.put("knc.cache.accesses_per_s", s.map(|sec| n as f64 / sec));
        let s = tr.bench("knc.tlb.stream", sc.budget(0.15), 3, || {
            let mut tlb = Tlb::knc_dtlb();
            for &e in &stream {
                tlb.access(e * 8);
            }
            tlb.stats()
        });
        out.put("knc.tlb.accesses_per_s", s.map(|sec| n as f64 / sec));

        let it = &self.items[3];
        trial::replay_kernel2(tr, out, sc, it.depth, &it.a, &it.bs, k2_deep);
    }
}
