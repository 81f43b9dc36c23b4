//! `des_models`: everything that drives `phi_des::Sim` (a heap of boxed
//! closures) and the `phi-fabric` links — the native dynamic and static
//! schedules, the offload DGEMM engine, the DES-calibrated hybrid runs of
//! Table III and the stencil cluster. The closed-form stage loop is a
//! small part of it; `tune_cold` is the workload where it is the whole.

use super::{shuffle, Env, Layers, Pass, Workload};
use crate::timing::{timed, Tracer};
use crate::trial;
use phi_bench::workloads::reference_star;
use phi_des::Sim;
use phi_fabric::{BcastScheme, HaloSpec, NetModel, ProcessGrid};
use phi_faults::FaultRng;
use phi_hpl::hybrid::{simulate_cluster, simulate_cluster_calibrated};
use phi_hpl::native::simulate_dynamic;
use phi_hpl::offload::OffloadModel;
use phi_hpl::{
    simulate_stencil_cluster, HybridConfig, NativeConfig, NativeScheme, StencilClusterConfig,
    StencilWorkload,
};
use phi_knc::{KncChip, Precision};
use phi_serve::Fnv;
use std::cell::Cell;
use std::rc::Rc;

/// One simulator run of the basket.
#[derive(Clone, Copy, Debug)]
enum Model {
    NativeDynamic(usize),
    NativeStatic(usize),
    Offload { m: usize, cards: usize },
    Calibrated { n: usize, p: usize },
    Stencil,
}

/// The simulated outputs of one run that the checks and the digest use.
struct Sample {
    values: [f64; 2],
    /// Efficiency against the modelled peak, where the model has one.
    efficiency: Option<f64>,
}

/// Stage-sampling cadence of the calibrated hybrid runs.
const SAMPLE_EVERY: usize = 16;

fn stencil_config(scale: super::Scale) -> StencilClusterConfig {
    let edge = scale.pick(96, 32);
    StencilClusterConfig {
        workload: StencilWorkload::new(
            reference_star(),
            HaloSpec::new((edge, edge, edge), (2, 2, 1), 1),
        ),
        sweeps: 8,
        net: NetModel::default(),
        chip: KncChip::default(),
    }
}

fn table3_pipelined(n: usize, p: usize) -> HybridConfig {
    HybridConfig::new(n, ProcessGrid::new(p, p), 1)
}

impl Model {
    fn run(self, env: &Env) -> Sample {
        match self {
            Model::NativeDynamic(n) => {
                let r = simulate_dynamic(&NativeConfig::new(n), false);
                Sample {
                    values: [r.time_s, r.gflops],
                    efficiency: Some(r.efficiency()),
                }
            }
            Model::NativeStatic(n) => {
                let r = NativeConfig::new(n).simulate(NativeScheme::StaticLookahead);
                Sample {
                    values: [r.time_s, r.gflops],
                    efficiency: Some(r.efficiency()),
                }
            }
            Model::Offload { m, cards } => {
                let model = OffloadModel::default();
                let r = model.simulate(m, m, cards, 0.0);
                let peak = model.card.chip.full_peak_gflops(Precision::F64) * cards as f64;
                Sample {
                    values: [r.time_s, r.gflops],
                    efficiency: Some(r.gflops / peak),
                }
            }
            Model::Calibrated { n, p } => {
                let r = simulate_cluster_calibrated(&table3_pipelined(n, p), SAMPLE_EVERY);
                Sample {
                    values: [r.report.time_s, r.card_idle_fraction],
                    efficiency: Some(r.report.efficiency()),
                }
            }
            Model::Stencil => {
                let r = simulate_stencil_cluster(&stencil_config(env.scale));
                Sample {
                    values: [r.total_s, r.halo_s],
                    efficiency: None,
                }
            }
        }
    }
}

/// The built workload.
pub struct DesModels {
    env: Env,
    reps: usize,
    /// `(span, model)` in canonical order; `order` is the seeded order
    /// the basket runs them in.
    basket: Vec<(&'static str, Model)>,
    order: Vec<usize>,
    last: Vec<[f64; 3]>,
}

/// Lays out the basket; the seed decides the order its runs execute in.
pub fn build(env: &Env) -> DesModels {
    let sc = env.scale;
    let big = sc.pick(30_720, 4096);
    let wide = sc.pick(82_000, 12_000);
    let basket = vec![
        (
            "hpl.native.dyn_8192",
            Model::NativeDynamic(sc.pick(8192, 2048)),
        ),
        (
            "hpl.native.dyn_16384",
            Model::NativeDynamic(sc.pick(16_384, 3072)),
        ),
        ("hpl.native.dyn_30720", Model::NativeDynamic(big)),
        ("hpl.native.static_30720", Model::NativeStatic(big)),
        (
            "hpl.offload.sim_20k_c1",
            Model::Offload {
                m: sc.pick(20_000, 6000),
                cards: 1,
            },
        ),
        (
            "hpl.offload.sim_20k_c2",
            Model::Offload {
                m: sc.pick(20_000, 6000),
                cards: 2,
            },
        ),
        (
            "hpl.offload.sim_40k_c1",
            Model::Offload {
                m: sc.pick(40_000, 8000),
                cards: 1,
            },
        ),
        (
            "hpl.offload.sim_40k_c2",
            Model::Offload {
                m: sc.pick(40_000, 8000),
                cards: 2,
            },
        ),
        (
            "hpl.offload.sim_82k_c1",
            Model::Offload { m: wide, cards: 1 },
        ),
        (
            "hpl.offload.sim_82k_c2",
            Model::Offload { m: wide, cards: 2 },
        ),
        (
            "hpl.hybrid.calibrated_1x1",
            Model::Calibrated {
                n: sc.pick(84_000, 24_000),
                p: 1,
            },
        ),
        (
            "hpl.hybrid.calibrated_2x2",
            Model::Calibrated {
                n: sc.pick(168_000, 36_000),
                p: 2,
            },
        ),
        (
            "hpl.hybrid.calibrated_10x10",
            Model::Calibrated {
                n: sc.pick(825_000, 120_000),
                p: sc.pick(10, 4),
            },
        ),
        ("hpl.stencil.cluster", Model::Stencil),
    ];
    let mut order: Vec<usize> = (0..basket.len()).collect();
    shuffle(&mut FaultRng::new(env.seed), &mut order);
    DesModels {
        env: env.clone(),
        reps: sc.reps(25),
        last: vec![[0.0; 3]; basket.len()],
        basket,
        order,
    }
}

/// A benchmark-driven `Sim`: `timers` self-rescheduling timers fire until
/// `events` events have run. Returns the events fired.
fn timer_storm(timers: u64, events: u64) -> u64 {
    fn tick(sim: &mut Sim, left: Rc<Cell<u64>>, period: f64) {
        if left.get() == 0 {
            return;
        }
        left.set(left.get() - 1);
        sim.schedule(period, move |s| tick(s, left, period));
    }
    let left = Rc::new(Cell::new(events));
    let mut sim = Sim::new();
    for t in 0..timers {
        // Co-prime periods keep the heap order changing.
        tick(&mut sim, left.clone(), 1.0 + t as f64 / 64.0);
    }
    sim.run();
    sim.events_fired()
}

impl Workload for DesModels {
    fn pass(&mut self, tr: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        for rep in 0..self.reps {
            let basket = tr.begin("basket");
            for &i in &self.order {
                let (span, model) = self.basket[i];
                let (s, secs) = timed(|| tr.time(span, || model.run(&self.env)));
                pass.seconds += secs;
                pass.work += 1.0;
                let eff = s.efficiency.unwrap_or(0.5);
                let now = [s.values[0], s.values[1], eff];
                let sane =
                    s.values.iter().all(|v| v.is_finite() && *v >= 0.0) && eff > 0.0 && eff <= 1.0;
                let repeats = rep == 0 || now.map(f64::to_bits) == self.last[i].map(f64::to_bits);
                pass.check((!sane || !repeats).then(|| {
                    format!(
                        "{span}: report {:?} / efficiency {eff} is out of range or differs \
                         from the previous repetition",
                        s.values
                    )
                }));
                self.last[i] = now;
            }
            tr.end(basket);
        }
        let mut h = Fnv::new();
        for v in self.last.iter().flatten() {
            h.write_u64(v.to_bits());
        }
        pass.sim_digest = h.finish();
        pass
    }

    fn layers(&mut self, tr: &mut Tracer, out: &mut Layers) {
        let sc = self.env.scale;
        let index = |span: &str| {
            self.basket
                .iter()
                .position(|(s, _)| *s == span)
                .expect("span names a basket item")
        };
        out.from_spans("hpl.native.dyn_30720_ms", tr, "hpl.native.dyn_30720", 1e3);
        out.from_spans("hpl.native.dyn_8192_ms", tr, "hpl.native.dyn_8192", 1e3);
        out.from_spans(
            "hpl.native.static_30720_ms",
            tr,
            "hpl.native.static_30720",
            1e3,
        );
        out.from_spans("hpl.offload.sim_82k_ms", tr, "hpl.offload.sim_82k_c1", 1e3);
        out.from_spans(
            "hpl.hybrid.calibrated_10x10_ms",
            tr,
            "hpl.hybrid.calibrated_10x10",
            1e3,
        );
        out.from_spans("hpl.stencil.cluster_ms", tr, "hpl.stencil.cluster", 1e3);
        // GFLOPS of the dynamic run and efficiency of the one-card 82K
        // offload, as the last pass reported them.
        out.exact(
            "hpl.native.sim_gflops_30720",
            self.last[index("hpl.native.dyn_30720")][1],
        );
        out.exact(
            "hpl.offload.sim_eff_82k",
            self.last[index("hpl.offload.sim_82k_c1")][2],
        );

        let (_, Model::Offload { m, .. }) = self.basket[index("hpl.offload.sim_82k_c1")] else {
            unreachable!("the 82K item is an offload run");
        };
        let model = OffloadModel::default();
        let s = tr.bench("hpl.offload.analytic", sc.budget(0.05), 10, || {
            model.analytic(m, m, 1, 0.0)
        });
        out.put("hpl.offload.analytic_82k_us", s.map(|sec| sec * 1e6));

        let (_, Model::Calibrated { n, p }) = self.basket[index("hpl.hybrid.calibrated_10x10")]
        else {
            unreachable!("the 10x10 item is a calibrated run");
        };
        let cfg = table3_pipelined(n, p);
        let analytic = tr.bench("hpl.hybrid.analytic", sc.budget(0.1), 10, || {
            simulate_cluster(&cfg, false)
        });
        let calibrated = crate::stats::summarize(&tr.pass_seconds("hpl.hybrid.calibrated_10x10"));
        out.exact(
            "hpl.hybrid.calibrated_over_analytic",
            calibrated.median / analytic.median,
        );

        let events = sc.pick(1_000_000, 20_000);
        let s = tr.bench("des.sim.timer_storm", 0.0, 3, || timer_storm(64, events));
        out.put("des.sim.events_per_s", s.map(|sec| events as f64 / sec));
        let pushes = sc.pick(200_000u32, 4000);
        let s = tr.bench("des.sim.schedule", 0.0, 3, || {
            let mut sim = Sim::new();
            for i in 0..pushes {
                sim.schedule(f64::from(i % 977), |_| {});
            }
            sim
        });
        out.put(
            "des.sim.schedule_ns",
            s.map(|sec| sec * 1e9 / f64::from(pushes)),
        );

        let net = NetModel::default();
        let s = tr.bench("fabric.net.bcast", sc.budget(0.05), 10, || {
            let mut t = 0.0;
            for scheme in BcastScheme::ALL {
                for q in [2usize, 4, 10] {
                    t += net.bcast(scheme, 1200.0 * 1200.0 * 8.0, q);
                }
            }
            t
        });
        out.put("fabric.net.bcast_ns", s.map(|sec| sec * 1e9 / 9.0));
        let spec = stencil_config(sc).workload.spec;
        let s = tr.bench("fabric.net.halo_exchange", sc.budget(0.05), 10, || {
            net.halo_exchange(&spec)
        });
        out.put("fabric.net.halo_exchange_us", s.map(|sec| sec * 1e6));

        trial::parallel_des(tr, out, sc);
    }
}
