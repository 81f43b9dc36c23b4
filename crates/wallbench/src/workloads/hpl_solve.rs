//! `hpl_solve`: the paper's own figure of merit on real arithmetic — a
//! seeded `N × N` system solved by the DAG-scheduled parallel LU and
//! accepted by the HPL residual. The only workload where `phi-blas`
//! kernels, packing and the `phi-sched` DAG do the work; the emulator,
//! the DES and the service do nothing.

use super::{fold_f64s, Env, Layers, Pass, Workload};
use crate::stats::Summary;
use crate::timing::{Stopwatch, Tracer};
use phi_blas::gemm::{gemm_with, micro_kernel_into, pack_a, pack_b, BlockSizes, MicroKernelKind};
use phi_blas::lu::{getf2, LuFactors};
use phi_blas::{laswp_forward, trsm_left_lower_unit};
use phi_hpl::native::{factorize_parallel, solve_parallel};
use phi_hpl::{factorize_distributed, hpl_flops};
use phi_matrix::{hpl_residual, MatGen, Matrix, ResidualReport};
use phi_sched::{DagScheduler, GroupPlan, TileDeque};
use phi_serve::Fnv;

/// Panel width of the native solver.
const NB: usize = 64;
/// Inner depth of the microkernel and packing microbenchmarks (the
/// paper's best `k`).
const DEPTH: usize = 300;

/// The built workload.
pub struct HplSolve {
    env: Env,
    n: usize,
    a: Matrix<f64>,
    b: Vec<f64>,
    /// The factorization's working copy, allocated once: an 8 MB buffer
    /// allocated and freed per pass makes the allocator's high-water mark
    /// — and with it `peak_rss_mb` — depend on how many passes ran.
    lu: Matrix<f64>,
    plan: GroupPlan,
    last: Option<ResidualReport>,
}

/// Generates the system from the seed.
pub fn build(env: &Env) -> HplSolve {
    let n = env.scale.pick(1024, 256);
    HplSolve {
        env: env.clone(),
        n,
        a: MatGen::new(env.seed).matrix::<f64>(n, n),
        b: MatGen::new(env.seed.wrapping_add(1)).rhs::<f64>(n),
        lu: Matrix::zeros(n, n),
        plan: GroupPlan::new(env.threads, 1),
        last: None,
    }
}

fn gflops(flops: f64, s: Summary) -> Summary {
    s.map(|sec| flops / sec / 1e9)
}

impl Workload for HplSolve {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass {
            work: hpl_flops(self.n) / 1e9,
            ..Pass::default()
        };
        // Timed: what `solve_parallel` does (copy, factorize, two
        // triangular solves), split so each step gets its span.
        let sw = Stopwatch::start();
        let mut lu = std::mem::replace(&mut self.lu, Matrix::zeros(0, 0));
        lu.as_mut_slice().copy_from_slice(self.a.as_slice());
        let ipiv = tr.time("hpl.numeric.factorize", || {
            factorize_parallel(&mut lu, NB, &self.plan)
        });
        let solved = ipiv.map(|ipiv| {
            let f = LuFactors { lu, ipiv };
            let x = tr.time("hpl.numeric.backsolve", || f.solve(&self.b));
            (x, f.lu)
        });
        pass.seconds = sw.elapsed_s();

        let mut h = Fnv::new();
        match solved {
            Err(e) => {
                pass.check(Some(format!("factorization failed: {e}")));
                self.lu = Matrix::zeros(self.n, self.n);
            }
            Ok((mut x, lu)) => {
                self.lu = lu;
                if self.env.inject {
                    // The top mantissa bit: off by up to a half, yet finite.
                    // (An exponent bit would overflow the residual's own
                    // scaling term to infinity and read as a pass.)
                    x[0] = f64::from_bits(x[0].to_bits() ^ (1 << 51));
                }
                let rep = tr.time("matrix.residual", || {
                    hpl_residual(&self.a.view(), &x, &self.b)
                });
                pass.check((!rep.passed).then(|| {
                    format!(
                        "scaled residual {:e} fails the HPL criterion",
                        rep.scaled_residual
                    )
                }));
                fold_f64s(&mut h, &x);
                h.write_u64(rep.scaled_residual.to_bits());
                self.last = Some(rep);
            }
        }
        pass.sim_digest = h.finish();
        pass
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let (n, sc, t) = (self.n, self.env.scale, self.env.threads);
        let seed = self.env.seed;
        out.from_spans("hpl.numeric.factorize_ms", tr, "hpl.numeric.factorize", 1e3);
        out.from_spans("hpl.numeric.backsolve_ms", tr, "hpl.numeric.backsolve", 1e3);
        out.from_spans("matrix.residual.ms", tr, "matrix.residual", 1e3);
        if let Some(rep) = self.last {
            out.exact("matrix.residual.scaled", rep.scaled_residual);
        }
        let gen = tr.bench("matrix.gen", sc.budget(0.2), 3, || {
            MatGen::new(seed).matrix::<f64>(n, n)
        });
        out.put("matrix.gen.ms", gen.map(|s| s * 1e3));

        // The plain single-thread run of the same problem, and what the
        // T-thread DAG makes of it.
        let one = GroupPlan::new(1, 1);
        let t1 = tr.bench("hpl.numeric.t1", 0.0, 2, || {
            solve_parallel(&self.a, &self.b, NB, &one)
        });
        let tt = tr.bench("hpl.numeric.tT", 0.0, 2, || {
            solve_parallel(&self.a, &self.b, NB, &self.plan)
        });
        out.put("hpl.numeric.t1_gflops", gflops(hpl_flops(n), t1));
        out.exact(
            "sched.groups.parallel_eff",
            t1.median / (t as f64 * tt.median),
        );

        // The first trailing update of the factorization.
        let m = n - NB;
        let a = MatGen::new(seed ^ 1).matrix::<f64>(m, NB);
        let b = MatGen::new(seed ^ 2).matrix::<f64>(NB, m);
        let mut c = Matrix::<f64>::zeros(m, m);
        let bs = BlockSizes::default();
        let upd = tr.bench("blas.gemm.update", sc.budget(0.3), 3, || {
            gemm_with(-1.0, &a.view(), &b.view(), 1.0, &mut c.view_mut(), &bs)
        });
        out.put(
            "blas.gemm.update_gflops",
            gflops(2.0 * (m * m * NB) as f64, upd),
        );
        let s = sc.pick(512, 96);
        let a = MatGen::new(seed ^ 3).matrix::<f64>(s, s);
        let b = MatGen::new(seed ^ 4).matrix::<f64>(s, s);
        let mut c = Matrix::<f64>::zeros(s, s);
        let sq = tr.bench("blas.gemm.square", sc.budget(0.4), 3, || {
            gemm_with(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &bs)
        });
        out.put(
            "blas.gemm.square_gflops",
            gflops(2.0 * (s * s * s) as f64, sq),
        );

        for (name, span, kind, mr) in [
            (
                "blas.micro.k1_gflops",
                "blas.micro.k1",
                MicroKernelKind::Kernel1,
                31,
            ),
            (
                "blas.micro.k2_gflops",
                "blas.micro.k2",
                MicroKernelKind::Kernel2,
                30,
            ),
        ] {
            let a = MatGen::new(seed ^ 5).matrix::<f64>(mr, DEPTH);
            let b = MatGen::new(seed ^ 6).matrix::<f64>(DEPTH, 8);
            let (pa, pb) = (pack_a(&a.view(), mr), pack_b(&b.view(), 8));
            let mut c = Matrix::<f64>::zeros(mr, 8);
            let s = tr.bench(span, sc.budget(0.1), 10, || {
                for _ in 0..64 {
                    micro_kernel_into(
                        kind,
                        mr,
                        8,
                        DEPTH,
                        pa.tile(0),
                        pb.tile(0),
                        1.0,
                        1.0,
                        &mut c.view_mut(),
                    );
                }
            });
            out.put(name, gflops(64.0 * 2.0 * (mr * 8 * DEPTH) as f64, s));
        }

        // Packing: computed bytes (read + write of the operand), not
        // measured traffic.
        let rows = sc.pick(1024, 128);
        let a = MatGen::new(seed ^ 7).matrix::<f64>(rows, DEPTH);
        let bytes = 2.0 * 8.0 * (rows * DEPTH) as f64;
        let s = tr.bench("blas.pack.a", sc.budget(0.1), 5, || pack_a(&a.view(), 30));
        out.put("blas.pack.a_gb_per_s", s.map(|sec| bytes / sec / 1e9));
        let b = MatGen::new(seed ^ 8).matrix::<f64>(DEPTH, rows);
        let s = tr.bench("blas.pack.b", sc.budget(0.1), 5, || pack_b(&b.view(), 8));
        out.put("blas.pack.b_gb_per_s", s.map(|sec| bytes / sec / 1e9));

        let panel = MatGen::new(seed ^ 9).matrix::<f64>(n, NB);
        let s = tr.bench("blas.getf2.panel", sc.budget(0.2), 3, || {
            let mut p = panel.clone();
            let mut piv = Vec::new();
            getf2(&mut p.view_mut(), &mut piv, 0).expect("a random panel is nonsingular");
            piv
        });
        out.put("blas.getf2.panel_ms", s.map(|sec| sec * 1e3));

        let l = MatGen::new(seed ^ 10).matrix::<f64>(NB, NB);
        let rhs = MatGen::new(seed ^ 11).matrix::<f64>(NB, m);
        let s = tr.bench("blas.trsm", sc.budget(0.1), 5, || {
            let mut x = rhs.clone();
            trsm_left_lower_unit(&l.view(), &mut x.view_mut());
            x
        });
        out.put("blas.trsm.gflops", gflops((NB * NB * m) as f64, s));

        // NB row swaps across the full width: two rows read and written.
        let mut full = MatGen::new(seed ^ 12).matrix::<f64>(n, n);
        let piv: Vec<usize> = (0..NB).map(|i| (i * 37 + 11) % n).collect();
        let bytes = 4.0 * 8.0 * (NB * n) as f64;
        let s = tr.bench("blas.laswp", sc.budget(0.05), 10, || {
            laswp_forward(&mut full.view_mut(), &piv)
        });
        out.put("blas.laswp.gb_per_s", s.map(|sec| bytes / sec / 1e9));

        let npanels = sc.pick(128, 24);
        let tasks = DagScheduler::new(npanels).total_tasks() as f64;
        let s = tr.bench("sched.dag.drain", sc.budget(0.1), 3, || {
            let dag = DagScheduler::new(npanels);
            let mut count = 0usize;
            while let Some(task) = dag.available_task() {
                dag.commit(task);
                count += 1;
            }
            count
        });
        out.put("sched.dag.tasks_per_s", s.map(|sec| tasks / sec));

        let tiles = sc.pick(10_000, 500);
        let s = tr.bench("sched.steal.drain", sc.budget(0.05), 5, || {
            let d = TileDeque::new(tiles);
            let mut taken = 0usize;
            while !d.is_empty() {
                taken += usize::from(d.steal_front().is_some());
                taken += usize::from(d.steal_back().is_some());
            }
            taken
        });
        out.put("sched.steal.ops_per_s", s.map(|sec| tiles as f64 / sec));

        let nd = sc.pick(768, 128);
        let ad = MatGen::new(seed ^ 13).matrix::<f64>(nd, nd);
        let s = tr.bench("hpl.distributed.q2", 0.0, 3, || {
            factorize_distributed(&ad, NB, 2).expect("a random matrix is nonsingular")
        });
        out.put("hpl.distributed.q2_ms", s.map(|sec| sec * 1e3));
    }
}
