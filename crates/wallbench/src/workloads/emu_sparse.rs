//! `emu_sparse`: the same emulator used differently — SpMV on a banded
//! and a deep rectangular matrix and a seven-point stencil sweep, where
//! demand misses, fill stalls and the TLB decide the cycle count. An
//! interpreter change that speeds L1 hits and slows misses shows here
//! and not on `emu_dgemm`.

use super::{fold_f64s, Env, Layers, Pass, Workload};
use crate::stats::summarize;
use crate::timing::{timed, Tracer};
use crate::trial;
use phi_bench::workloads::reference_star;
use phi_faults::FaultRng;
use phi_knc::cache::{Cache, CacheConfig};
use phi_knc::spmv::{banded_csr, reference_spmv, uniform_rect_csr};
use phi_knc::stencil::{reference_stencil, seeded_grid};
use phi_knc::{run_spmv, run_stencil, Csr, PipelineConfig, SpmvReport, StarStencil, StencilReport};
use phi_serve::Fnv;

struct Spmv {
    span: &'static str,
    a: Csr,
    x: Vec<f64>,
    expect: Vec<f64>,
}

/// The built workload.
pub struct EmuSparse {
    env: Env,
    reps: usize,
    spmv: [Spmv; 2],
    star: StarStencil,
    dims: (usize, usize, usize),
    grid: Vec<f64>,
    expect_grid: Vec<f64>,
    last_spmv: [Option<SpmvReport>; 2],
    last_stencil: Option<StencilReport>,
}

fn spmv_case(span: &'static str, a: Csr, seed: u64) -> Spmv {
    let mut rng = FaultRng::new(seed);
    let x: Vec<f64> = (0..a.cols).map(|_| rng.unit() - 0.5).collect();
    let expect = reference_spmv(&a, &x);
    Spmv { span, a, x, expect }
}

/// Matrix shapes: `(band rows, band width, rect rows, rect per-row)`.
fn shapes(env: &Env) -> (usize, usize, usize, usize) {
    env.scale.pick((1024, 24, 256, 512), (256, 24, 64, 128))
}

/// Generates matrices, vectors and the grid from the seed.
pub fn build(env: &Env) -> EmuSparse {
    let (rows, band, rrows, per_row) = shapes(env);
    let dims = env.scale.pick((24, 24, 3), (8, 8, 1));
    let star = reference_star();
    let grid = seeded_grid(dims, env.seed);
    EmuSparse {
        env: env.clone(),
        reps: env.scale.reps(25),
        spmv: [
            spmv_case(
                "knc.interp.spmv_band",
                banded_csr(rows, band, env.seed),
                env.seed ^ 1,
            ),
            spmv_case(
                "knc.interp.spmv_rect",
                uniform_rect_csr(rrows, per_row, env.seed),
                env.seed ^ 2,
            ),
        ],
        expect_grid: reference_stencil(&star, dims, &grid),
        star,
        dims,
        grid,
        last_spmv: [None, None],
        last_stencil: None,
    }
}

impl Workload for EmuSparse {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let cfg = PipelineConfig::default();
        let mut pass = Pass::default();
        let mut h = Fnv::new();
        let mut cycles = 0u64;
        for rep in 0..self.reps {
            let basket = tr.begin("basket");
            for (i, case) in self.spmv.iter().enumerate() {
                let (r, s) = timed(|| tr.time(case.span, || run_spmv(&case.a, &case.x, cfg)));
                pass.seconds += s;
                cycles += r.cycles_total;
                pass.check(
                    (r.y != case.expect)
                        .then(|| format!("{}: y differs from reference_spmv", case.span)),
                );
                if rep == 0 {
                    h.write_u64(r.cycles_total);
                    h.write_u64(r.stats.demand_stall_cycles);
                    fold_f64s(&mut h, &r.y);
                    self.last_spmv[i] = Some(r);
                }
            }
            let (r, s) = timed(|| {
                tr.time("knc.interp.stencil", || {
                    run_stencil(&self.star, self.dims, &self.grid, cfg)
                })
            });
            pass.seconds += s;
            cycles += r.cycles_total;
            pass.check(
                (r.out != self.expect_grid)
                    .then(|| "stencil sweep differs from reference_stencil".to_string()),
            );
            if rep == 0 {
                h.write_u64(r.cycles_total);
                fold_f64s(&mut h, &r.out);
                self.last_stencil = Some(r);
            }
            tr.end(basket);
        }
        pass.work = cycles as f64 / 1e6;
        pass.sim_digest = h.finish();
        pass
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let sc = self.env.scale;
        let seed = self.env.seed;
        let band = self.last_spmv[0].as_ref().expect("layers run after a pass");
        let rect = self.last_spmv[1].as_ref().expect("layers run after a pass");
        let sten = self.last_stencil.as_ref().expect("layers run after a pass");
        let rate = |span: &str, cycles: u64| {
            summarize(&tr.pass_seconds(span)).map(|s| cycles as f64 / 1e6 / s)
        };
        out.put(
            "knc.interp.spmv_band_mcycles_per_s",
            rate("knc.interp.spmv_band", band.cycles_total),
        );
        out.put(
            "knc.interp.spmv_rect_mcycles_per_s",
            rate("knc.interp.spmv_rect", rect.cycles_total),
        );
        out.put(
            "knc.interp.stencil_mcycles_per_s",
            rate("knc.interp.stencil", sten.cycles_total),
        );
        out.exact(
            "knc.sim.spmv_demand_stall_share",
            band.stats.demand_stall_cycles as f64 / band.cycles_total as f64,
        );
        out.exact("knc.sim.spmv_flops_per_cycle", band.flops_per_cycle());
        out.exact("knc.sim.stencil_flops_per_cycle", sten.flops_per_cycle());
        let rect_interp = summarize(&tr.pass_seconds("knc.interp.spmv_rect"));

        let (rows, bw, rrows, per_row) = shapes(&self.env);
        let s = tr.bench("knc.spmv.build", sc.budget(0.1), 3, || {
            (
                banded_csr(rows, bw, seed),
                uniform_rect_csr(rrows, per_row, seed),
            )
        });
        out.put("knc.spmv.build_ms", s.map(|sec| sec * 1e3));
        let s = tr.bench("knc.ref.check", sc.budget(0.1), 3, || {
            (
                reference_spmv(&self.spmv[0].a, &self.spmv[0].x),
                reference_spmv(&self.spmv[1].a, &self.spmv[1].x),
                reference_stencil(&self.star, self.dims, &self.grid),
            )
        });
        out.put("knc.ref.check_ms", s.map(|sec| sec * 1e3));

        // A pure streaming walk over 8 MB: every eighth element opens a
        // new line, misses L1 and L2 and is filled into both.
        let n = sc.pick(1usize << 20, 1 << 14);
        let s = tr.bench("knc.cache.miss_stream", sc.budget(0.15), 3, || {
            let mut l1 = Cache::new(CacheConfig::knc_l1());
            let mut l2 = Cache::new(CacheConfig::knc_l2());
            for e in 0..n {
                if !l1.access(e) {
                    if !l2.access(e) {
                        l2.fill(e);
                    }
                    l1.fill(e);
                }
            }
            (l1.stats(), l2.stats())
        });
        out.put(
            "knc.cache.miss_stream_accesses_per_s",
            s.map(|sec| n as f64 / sec),
        );

        let case = &self.spmv[1];
        trial::replay_spmv(tr, out, sc, &case.a, &case.x, rect_interp);
    }
}
