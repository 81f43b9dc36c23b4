//! The command table and one body per subcommand. Each body returns its
//! report text and whether the process exits 0; printing and `--out`
//! stay with the caller.

use super::{failed, flag, report, verdict, Args, CliError, Command, Flag, Kind, Report};
use crate::experiments::*;
use crate::faults::{
    experiments_fault_section_md, fault_campaign_cluster_render, fault_campaign_render,
};
use crate::fleet::{fleet_render, fleet_render_stored, FleetOptions};
use crate::serve::{serve_load_render, ServeLoadOptions};
use crate::{ablations, lintgate, schedlint, tune, workloads, FIXTURE_SEED};
use phi_blas::gemm::{pack_a, pack_b, MicroKernelKind};
use phi_fabric::{ProcessGrid, RemapStrategy};
use phi_faults::CampaignScope;
use phi_hpl::energy::{compare_designs, PowerModel};
use phi_hpl::hpldat::{paper_table3_dat, HplDat};
use phi_hpl::hybrid::stage_gantt::fig8_render;
use phi_hpl::hybrid::{simulate_cluster, HybridConfig, Lookahead};
use phi_hpl::native::cluster::simulate_native_cluster;
use phi_hpl::native::{solve_parallel, NativeClusterConfig, NativeConfig, NativeScheme};
use phi_hpl::offload::OffloadModel;
use phi_hpl::refine::solve_mixed_precision;
use phi_hpl::WorkloadKind;
use phi_knc::disasm::disassemble;
use phi_knc::kernels::build_basic_kernel;
use phi_knc::Precision;
use phi_matrix::{hpl_residual, MatGen};
use phi_sched::GroupPlan;
use phi_serve::ResultStore;
use std::path::PathBuf;

const OUT: Flag = flag("out", Kind::Out);
const GRID: Flag = flag("grid", Kind::Grid);
const SCOPE: Flag = flag("scope", Kind::Choice(&["mixed", "rack", "storm"]));
const JSON: Flag = flag("json", Kind::Switch);
const fn int(name: &'static str, default: usize, min: usize) -> Flag {
    flag(name, Kind::Int { default, min })
}

const fn command(
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<Report, CliError>,
) -> Command {
    Command {
        name,
        about,
        flags,
        run,
    }
}

/// Every subcommand, in the order `phi` lists them. The names are the
/// former binary names.
pub(super) static COMMANDS: &[Command] = &[
    command(
        "solve",
        "LU-solve a random system with real arithmetic; HPL residual check",
        &[
            int("n", 512, 1),
            int("nb", 32, 1),
            int("threads", 4, 1),
            int("tpg", 2, 1),
            flag("seed", Kind::Seed(42)),
        ],
        solve,
    ),
    command(
        "native",
        "native Linpack on one card (DES)",
        &[
            int("n", 30_720, 1),
            int("nb", 256, 1),
            flag("scheme", Kind::Choice(&["dynamic", "static"])),
        ],
        native,
    ),
    command(
        "hybrid",
        "hybrid host + card HPL on a cluster",
        &[
            int("n", 84_000, 1),
            GRID,
            int("cards", 1, 0),
            flag("mem", Kind::Real(64.0)),
            flag("lookahead", Kind::Choice(&["pipelined", "none", "basic"])),
        ],
        hybrid,
    ),
    command(
        "offload",
        "offload DGEMM on one node",
        &[
            int("n", 82_000, 1),
            int("cards", 1, 1),
            flag("host-cores", Kind::Real(0.0)),
        ],
        offload,
    ),
    command(
        "cluster",
        "native multi-node Linpack, hosts asleep (future work)",
        &[int("n", 60_000, 1), GRID],
        cluster,
    ),
    command(
        "refine",
        "mixed-precision LU + iterative refinement",
        &[
            int("n", 512, 1),
            int("nb", 32, 1),
            flag("seed", Kind::Seed(42)),
        ],
        refine,
    ),
    command(
        "dat",
        "run an HPL.dat plan (default: the Table III plan)",
        &[
            flag("file", Kind::Path(None)),
            int("cards", 1, 0),
            flag("mem", Kind::Real(64.0)),
        ],
        dat,
    ),
    command("table1", "Table I: system configurations", &[], figure),
    command("table2", "Table II: GEMM efficiency vs k", &[], figure),
    command("table3", "Table III: node and cluster HPL", &[], figure),
    command(
        "fig2_kernels",
        "Fig. 2: Basic Kernel 1 vs 2 on the emulator",
        &[],
        fig2_kernels,
    ),
    command("fig3_packing", "Fig. 3: packing layouts", &[], fig3_packing),
    command("fig4_dgemm", "Fig. 4: DGEMM vs matrix size", &[], figure),
    command("fig6_native", "Fig. 6: native Linpack vs size", &[], figure),
    command("fig7_gantt", "Fig. 7: 5K LU Gantt charts", &[], figure),
    command("fig8_schemes", "Fig. 8: look-ahead schemes", &[], figure),
    command(
        "fig9_profile",
        "Fig. 9: 2x2-node iteration profiles",
        &[],
        figure,
    ),
    command(
        "fig11_offload",
        "Fig. 11: offload DGEMM vs size",
        &[],
        figure,
    ),
    command("repro", "every table and figure in one run", &[], repro),
    command(
        "experiments_md",
        "EXPERIMENTS.md's measured columns as markdown",
        &[],
        experiments_md,
    ),
    command(
        "ablations",
        "the four design-choice ablations",
        &[],
        ablations,
    ),
    command(
        "future_native_cluster",
        "Section VII: native cluster + energy",
        &[],
        future_native_cluster,
    ),
    command(
        "faults",
        "fault campaigns, single node and Table III cluster",
        &[
            flag("seed", Kind::SeedArg(FIXTURE_SEED)),
            flag("single", Kind::Switch),
            flag("cluster", Kind::Switch),
            flag("remap", Kind::Choice(&["patch", "wholesale"])),
            int("fleet-seeds", 0, 1),
            SCOPE,
            OUT,
        ],
        faults,
    ),
    command(
        "fleet",
        "Monte Carlo fleet availability campaign",
        &[
            int("seeds", 10_000, 1),
            flag("seed0", Kind::Seed(0xF1EE7)),
            int("threads", 0, 0),
            SCOPE,
            int("events", 3, 1),
            OUT,
            flag("store", Kind::Path(None)),
        ],
        fleet,
    ),
    command(
        "serve",
        "campaign-service load generator",
        &[
            int("requests", 2_000, 1),
            int("space", 48, 1),
            int("workers", 0, 0),
            int("clients", 8, 1),
            flag("seed0", Kind::Seed(0x5E12E)),
            flag("store", Kind::Path(None)),
            OUT,
        ],
        serve,
    ),
    command(
        "tune",
        "autotune both paper machines; writes BENCH_tune.json",
        &[
            flag("smoke", Kind::Switch),
            flag("out", Kind::Path(Some("BENCH_tune.json"))),
            flag("cache-dir", Kind::Path(Some("target/tune-cache"))),
        ],
        tune,
    ),
    command(
        "workloads",
        "performance-lab table, one row per workload",
        &[
            flag("workload", Kind::Choices(&["dgemm", "spmv", "stencil"])),
            OUT,
        ],
        workloads,
    ),
    command("lint", "kernel static/dynamic lint (gate)", &[JSON], lint),
    command(
        "schedule-lint",
        "schedule, ownership and determinism proofs (gate)",
        &[JSON, flag("root", Kind::Path(None))],
        schedule_lint,
    ),
    command(
        "workload-diff",
        "SpMV/stencil conformance (gate)",
        &[],
        workload_diff,
    ),
];

fn hpl_verdict(passed: bool) -> &'static str {
    if passed {
        "HPL PASS"
    } else {
        "HPL FAIL"
    }
}

fn solve(a: &Args) -> Result<Report, CliError> {
    let (n, nb) = (a.int("n")?, a.int("nb")?);
    let (threads, seed) = (a.int("threads")?, a.seed("seed")?);
    let m = MatGen::new(seed).matrix::<f64>(n, n);
    let b = MatGen::new(seed.wrapping_add(1)).rhs::<f64>(n);
    let plan = GroupPlan::new(threads, a.int("tpg")?.min(threads));
    let x = solve_parallel(&m, &b, nb, &plan).map_err(failed)?;
    let rep = hpl_residual(&m.view(), &x, &b);
    report(format!(
        "solved N={n} (NB={nb}, {threads} threads): scaled residual {:.3e} -> {}\n",
        rep.scaled_residual,
        hpl_verdict(rep.passed)
    ))
}

fn native(a: &Args) -> Result<Report, CliError> {
    let (n, nb) = (a.int("n")?, a.int("nb")?);
    let scheme = match a.choice("scheme")? {
        "static" => NativeScheme::StaticLookahead,
        _ => NativeScheme::DynamicScheduling,
    };
    let mut cfg = NativeConfig::new(n);
    cfg.nb = nb;
    let r = cfg.simulate(scheme);
    report(format!(
        "native {scheme:?}: N={n} NB={nb} -> {:.1} GFLOPS ({:.1}% of 60-core peak) in {:.2}s\n",
        r.gflops,
        100.0 * r.efficiency(),
        r.time_s
    ))
}

fn hybrid(a: &Args) -> Result<Report, CliError> {
    let (n, (p, q)) = (a.int("n")?, a.grid("grid")?);
    let (cards, mem) = (a.int("cards")?, a.real("mem")?);
    let la = match a.choice("lookahead")? {
        "none" => Lookahead::None,
        "basic" => Lookahead::Basic,
        _ => Lookahead::Pipelined,
    };
    let mut cfg = HybridConfig::new(n, ProcessGrid::new(p, q), cards);
    cfg.lookahead = la;
    cfg.host_mem_gib = mem;
    // The gate `simulate_cluster` asserts, checked first so that no
    // flag reaches the assertion.
    cfg.fits_host_memory().map_err(failed)?;
    let r = simulate_cluster(&cfg, false);
    report(format!(
        "hybrid {la:?}: N={n} on {p}x{q} nodes, {cards} card(s), {mem:.0} GB -> \
         {:.2} TFLOPS ({:.1}%), card idle {:.1}%\n",
        r.report.gflops / 1e3,
        100.0 * r.report.efficiency(),
        100.0 * r.card_idle_fraction
    ))
}

fn offload(a: &Args) -> Result<Report, CliError> {
    let (n, cards, host_cores) = (a.int("n")?, a.int("cards")?, a.real("host-cores")?);
    let model = OffloadModel::default();
    let out = model.simulate(n, n, cards, host_cores);
    let peak = model.card.chip.full_peak_gflops(Precision::F64) * cards as f64;
    report(format!(
        "offload DGEMM: M=N={n}, Kt=1200, {cards} card(s), {host_cores} host cores -> \
         {:.0} GFLOPS ({:.1}% of card peak), grid {}x{}, tiles card/host {}/{}\n",
        out.gflops,
        100.0 * out.gflops / peak,
        out.grid.0,
        out.grid.1,
        out.card_tiles,
        out.host_tiles
    ))
}

fn cluster(a: &Args) -> Result<Report, CliError> {
    let (n, (p, q)) = (a.int("n")?, a.grid("grid")?);
    let cfg = NativeClusterConfig::new(n, p, q);
    // The GDDR gate `simulate_native_cluster` asserts, checked first so
    // that no flag reaches the assertion.
    cfg.fits_gddr().map_err(failed)?;
    let r = simulate_native_cluster(&cfg);
    report(format!(
        "native cluster: N={n} on {p}x{q} cards (hosts asleep) -> {:.1} GFLOPS ({:.1}%)\n",
        r.gflops,
        100.0 * r.efficiency()
    ))
}

fn refine(a: &Args) -> Result<Report, CliError> {
    let (n, nb, seed) = (a.int("n")?, a.int("nb")?, a.seed("seed")?);
    let m = MatGen::new(seed).matrix::<f64>(n, n);
    let b = MatGen::new(seed.wrapping_add(1)).rhs::<f64>(n);
    let res = solve_mixed_precision(&m, &b, nb, 12).map_err(failed)?;
    report(format!(
        "mixed precision N={n}: {} sweeps, scaled residual {:.3e} -> {}\n",
        res.iterations,
        res.residual.scaled_residual,
        hpl_verdict(res.residual.passed)
    ))
}

fn dat(a: &Args) -> Result<Report, CliError> {
    let (cards, mem) = (a.int("cards")?, a.real("mem")?);
    let text = match a.path("file")? {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| failed(format!("cannot read {path}: {e}")))?
        }
        None => paper_table3_dat().to_string(),
    };
    let dat = HplDat::parse(&text).map_err(failed)?;
    let mut out = String::from("T/V                N    NB     P     Q          TFLOPS      eff\n");
    for cfg in dat.expand(cards, mem) {
        if cfg.fits_host_memory().is_err() {
            out.push_str(&format!(
                "-- skipped N={} on {}x{}: exceeds {:.0} GiB/node\n",
                cfg.n, cfg.grid.p, cfg.grid.q, cfg.host_mem_gib
            ));
            continue;
        }
        let r = simulate_cluster(&cfg, false);
        out.push_str(&format!(
            "W{:}{:>17} {:>5} {:>5} {:>5} {:>15.3} {:>7.1}%\n",
            match cfg.lookahead {
                Lookahead::None => "00",
                Lookahead::Basic => "01",
                Lookahead::Pipelined => "02",
            },
            cfg.n,
            cfg.nb,
            cfg.grid.p,
            cfg.grid.q,
            r.report.gflops / 1e3,
            100.0 * r.report.efficiency()
        ));
    }
    out.push('\n');
    report(out)
}

/// The subcommands that print one table or figure under its title.
fn figure(a: &Args) -> Result<Report, CliError> {
    let (title, body) = match a.cmd.name {
        "table1" => ("Table I — system configurations", table1_render()),
        "table2" => ("Table II — GEMM efficiency vs k", table2_render()),
        "table3" => ("Table III — HPL performance", table3_render()),
        "fig4_dgemm" => ("Fig. 4 — DGEMM performance comparison", fig4_render()),
        "fig6_native" => ("Fig. 6 — native Linpack performance", fig6_render()),
        "fig7_gantt" => {
            let (st, dy) = fig7_gantt(100);
            (
                "Fig. 7 — LU execution profiles (N = 5120)\n",
                format!("{st}\n{dy}"),
            )
        }
        "fig8_schemes" => (
            "Fig. 8 — hybrid HPL look-ahead schemes (single node, 1 card, N = 84K, stage 5)\n",
            fig8(110),
        ),
        "fig9_profile" => (
            "Fig. 9 — hybrid HPL profile, 2x2 nodes, 2 cards, N = 84K",
            fig9_render(),
        ),
        "fig11_offload" => ("Fig. 11 — offload DGEMM (Kt = 1200)", fig11_render()),
        other => return Err(failed(format!("`{other}` is not a figure"))),
    };
    report(format!("{title}\n{body}\n"))
}

fn fig2_kernels(_: &Args) -> Result<Report, CliError> {
    let mut s = format!(
        "Fig. 2 — Basic Kernel 1 vs Basic Kernel 2 (emulated)\n{}\n",
        fig2_render()
    );
    for (kind, label) in [
        (MicroKernelKind::Kernel1, "Basic Kernel 1 (Fig. 2b)"),
        (MicroKernelKind::Kernel2, "Basic Kernel 2 (Fig. 2c)"),
    ] {
        let (body, _) = build_basic_kernel(kind);
        s += &format!(
            "{label} inner loop (U = vector pipe, V = co-issued):\n{}\n",
            disassemble(&body)
        );
    }
    report(s)
}

fn fig3_packing(_: &Args) -> Result<Report, CliError> {
    let a = MatGen::new(1).matrix::<f64>(64, 6);
    let pa = pack_a(&a.view(), 30);
    let b = MatGen::new(2).matrix::<f64>(6, 20);
    let pb = pack_b(&b.view(), 8);
    report(format!(
        "Fig. 3 — packing into the Knights Corner-friendly format\n\n\
         A (64x6) -> {} tiles of 30x6, column-major inside each tile\n\
         \x20 tile 0, column 0 starts: {:?}\n\
         \x20 tile 2 has {} live rows (zero-padded to 30)\n\
         B (6x20) -> {} tiles of 6x8, row-major inside each tile\n\
         \x20 tile 0, row 0 starts: {:?}\n\
         \x20 tile 2 has {} live cols (zero-padded to 8)\n",
        pa.tile_count(),
        &pa.tile(0)[..4],
        pa.tile_rows(2),
        pb.tile_count(),
        &pb.tile(0)[..4],
        pb.tile_cols(2)
    ))
}

/// Fig. 8 on its reference system (single node, 1 card, N = 84K,
/// stage 5), `width` columns wide.
fn fig8(width: usize) -> String {
    fig8_render(
        &HybridConfig::new(84_000, ProcessGrid::new(1, 1), 1),
        5,
        width,
    )
}

fn repro(_: &Args) -> Result<Report, CliError> {
    let (st, dy) = fig7_gantt(100);
    report(format!(
        "== Table I ==\n{}\n== Table II ==\n{}\n== Fig. 2 ==\n{}\n== Fig. 4 ==\n{}\n\
         == Fig. 6 ==\n{}\n== Fig. 7 ==\n{st}\n{dy}\n== Fig. 8 ==\n{}\n== Fig. 9 ==\n{}\n\
         == Fig. 11 ==\n{}\n== Table III ==\n{}\n",
        table1_render(),
        table2_render(),
        fig2_render(),
        fig4_render(),
        fig6_render(),
        fig8(100),
        fig9_render(),
        fig11_render(),
        table3_render()
    ))
}

fn experiments_md(_: &Args) -> Result<Report, CliError> {
    let mut s = String::from(
        "# Measured results (auto-generated)\n\n\
         Regenerate with `cargo run --release --bin phi -- experiments_md`.\n\n\
         ## Table II\n\n\
         | k | DP measured | DP paper | SP measured | SP paper |\n|---|---|---|---|---|\n",
    );
    for r in table2_rows() {
        s += &format!(
            "| {} | {:.1}% | {:.1}% | {:.1}% | {:.1}% |\n",
            r.k,
            100.0 * r.dp_eff,
            100.0 * r.paper_dp_eff,
            100.0 * r.sp_eff,
            100.0 * r.paper_sp_eff
        );
    }
    s += "\n## Fig. 2 (emulated kernels)\n\n\
          | kernel | theoretical | achieved | fill stalls |\n|---|---|---|---|\n";
    for r in fig2_rows() {
        s += &format!(
            "| {:?} | {:.1}% | {:.1}% | {} |\n",
            r.kind,
            100.0 * r.theoretical,
            100.0 * r.steady,
            r.fill_stalls
        );
    }
    s += "\n## Fig. 4 (selected sizes)\n\n\
          | N | SNB GF | KNC kernel GF | KNC DGEMM GF | pack ovh |\n|---|---|---|---|---|\n";
    for p in fig4_series(&[1000, 5000, 17_000, 28_000]) {
        s += &format!(
            "| {} | {:.0} | {:.0} | {:.0} | {:.1}% |\n",
            p.n,
            p.snb_gflops,
            p.knc_kernel_gflops,
            p.knc_dgemm_gflops,
            100.0 * p.pack_overhead
        );
    }
    s += "\n## Fig. 6 (selected sizes)\n\n\
          | N | SNB HPL GF | static GF | dynamic GF |\n|---|---|---|---|\n";
    for p in fig6_series(&[2048, 4096, 8192, 16_384, 30_720]) {
        s += &format!(
            "| {} | {:.0} | {:.0} | {:.0} |\n",
            p.n, p.snb_gflops, p.static_gflops, p.dynamic_gflops
        );
    }
    let f9 = fig9_summary();
    s += &format!(
        "\n## Fig. 9\n\n\
         - basic-look-ahead exposure (early third): {:.1}%\n\
         - pipelined exposure: {:.1}%\n\
         - max per-iteration saving: {:.1}%\n",
        100.0 * f9.basic_exposure,
        100.0 * f9.pipelined_exposure,
        100.0 * f9.max_iteration_saving
    );
    s += "\n## Fig. 11\n\n| M=N | 1 card eff | 2 cards eff |\n|---|---|---|\n";
    for p in fig11_series(&[10_000, 40_000, 82_000]) {
        s += &format!(
            "| {} | {:.1}% | {:.1}% |\n",
            p.n,
            100.0 * p.one_card_eff,
            100.0 * p.two_card_eff
        );
    }
    s += &format!("\n{}", experiments_fault_section_md(FIXTURE_SEED));
    s += "\n## Table III\n\n| system | N | P×Q | measured | paper |\n|---|---|---|---|---|\n";
    for r in table3_rows() {
        s += &format!(
            "| {} | {} | {}×{} | {:.2} TF / {:.1}% | {:.2} TF / {:.1}% |\n",
            r.system,
            r.n,
            r.p,
            r.q,
            r.tflops,
            100.0 * r.eff,
            r.paper_tflops,
            100.0 * r.paper_eff
        );
    }
    report(s)
}

fn ablations(_: &Args) -> Result<Report, CliError> {
    report(format!(
        "== Super-stages + regrouping vs fixed partitions ==\n{}\n\
         == Dynamic work stealing vs static split (M=N=40K, 12 host cores) ==\n{}\n\
         == Run-time tile-size selection vs fixed grids ==\n{}\n\
         == Prefetch-fill defer threshold (Fig. 1c) ==\n{}\n",
        ablations::superstage_render(),
        ablations::stealing_render(),
        ablations::tiles_render(),
        ablations::prefetch_render()
    ))
}

fn future_native_cluster(_: &Args) -> Result<Report, CliError> {
    let mut s = format!(
        "Fully-native multi-node Linpack (future work, Section VII)\n\n{:>8} {:>6} {:>10} {:>8}\n",
        "N", "cards", "GFLOPS", "eff"
    );
    for (n, side) in [(30_000, 1), (60_000, 2), (120_000, 4), (300_000, 10)] {
        let r = simulate_native_cluster(&NativeClusterConfig::new(n, side, side));
        s += &format!(
            "{:>8} {:>6} {:>10.0} {:>7.1}%\n",
            n,
            side * side,
            r.gflops,
            100.0 * r.efficiency()
        );
    }
    s += "\nEnergy efficiency on 4 nodes (2x2):\n";
    let power = PowerModel::default();
    let (cpu, hybrid, native) = compare_designs(4, &power);
    for (label, p, watts) in [
        ("CPU-only ", &cpu, power.cpu_node_w()),
        ("hybrid   ", &hybrid, power.hybrid_node_w(1)),
        ("native   ", &native, power.native_node_w()),
    ] {
        s += &format!(
            "  {label}: {:>8.0} GFLOPS at {:>4.0} W/node -> {:.2} GFLOPS/W\n",
            p.gflops,
            watts,
            p.gflops_per_watt()
        );
    }
    s += "\nThe native design wins GFLOPS/W (the conclusion's argument) but is\n\
          capped by 8 GB GDDR per card; the hybrid design trades watts for N.\n";
    report(s)
}

fn scope(a: &Args) -> Result<CampaignScope, CliError> {
    Ok(CampaignScope::parse(a.choice("scope")?).unwrap_or_default())
}

/// Without `--single`/`--cluster` both tables print; `--fleet-seeds N`
/// appends an `N`-seed fleet summary rooted at the same seed.
fn faults(a: &Args) -> Result<Report, CliError> {
    let seed = a.seed("seed")?;
    let (single, cluster) = (a.switch("single")?, a.switch("cluster")?);
    let (single, cluster) = (single || !cluster, cluster || !single);
    let remap = match a.choice("remap")? {
        "wholesale" => RemapStrategy::Wholesale,
        _ => RemapStrategy::Patch,
    };
    let mut s = String::new();
    if single {
        s += &format!(
            "== Fault campaign (single node) ==\n{}",
            fault_campaign_render(seed)
        );
    }
    if cluster {
        if single {
            s.push('\n');
        }
        s += &format!(
            "== Fault campaign (Table III, N = 825K on 10x10) ==\n{}",
            fault_campaign_cluster_render(seed, remap)
        );
    }
    let seeds = a.int("fleet-seeds")?;
    if seeds > 0 {
        s.push('\n');
        s += &fleet_render(&FleetOptions {
            seeds,
            seed0: seed,
            scope: scope(a)?,
            ..FleetOptions::default()
        });
    }
    report(s)
}

fn fleet_options(a: &Args) -> Result<FleetOptions, CliError> {
    Ok(FleetOptions {
        seeds: a.int("seeds")?,
        seed0: a.seed("seed0")?,
        threads: a.int("threads")?,
        scope: scope(a)?,
        events: a.int("events")?,
        ..FleetOptions::default()
    })
}

/// With `--store DIR` every seed's outcome streams through the result
/// store; its hit/miss tally goes to stderr so the report stays
/// byte-equal to an unstored run.
fn fleet(a: &Args) -> Result<Report, CliError> {
    let opts = fleet_options(a)?;
    let Some(dir) = a.path("store")? else {
        return report(fleet_render(&opts));
    };
    let store =
        ResultStore::open(dir).map_err(|e| failed(format!("cannot open store {dir}: {e}")))?;
    let (text, stats) = fleet_render_stored(&opts, &store);
    eprintln!(
        "fleet: store {dir}: {} hits, {} misses",
        stats.hits, stats.misses
    );
    report(text)
}

fn serve_options(a: &Args) -> Result<ServeLoadOptions, CliError> {
    Ok(ServeLoadOptions {
        requests: a.int("requests")?,
        space: a.int("space")?,
        workers: a.int("workers")?,
        clients: a.int("clients")?,
        seed0: a.seed("seed0")?,
        store_dir: a.path("store")?.map(PathBuf::from),
    })
}

/// Fails unless the report ends in `serve-load invariants: PASS`.
fn serve(a: &Args) -> Result<Report, CliError> {
    let text = serve_load_render(&serve_options(a)?);
    let pass = text.contains("serve-load invariants: PASS");
    verdict(text, pass)
}

fn tune(a: &Args) -> Result<Report, CliError> {
    let (smoke, out) = (a.switch("smoke")?, a.file("out")?);
    let mode = if smoke {
        "smoke (coarse grid)"
    } else {
        "full (coarse + refine + calibrated)"
    };
    let runs = tune::run_tuner(smoke, &a.file("cache-dir")?).map_err(failed)?;
    tune::write_bench_json(&out, &runs).map_err(failed)?;
    report(format!(
        "== phi-tune: {mode} ==\n\n{}\n\nwrote {}\n",
        tune::render(&runs),
        out.display()
    ))
}

fn workloads(a: &Args) -> Result<Report, CliError> {
    let mut kinds: Vec<WorkloadKind> = a
        .choices("workload")?
        .iter()
        .filter_map(|w| WorkloadKind::parse(w))
        .collect();
    if kinds.is_empty() {
        kinds = WorkloadKind::ALL.to_vec();
    }
    report(workloads::lab_render(&workloads::lab_rows(&kinds)))
}

fn lint(a: &Args) -> Result<Report, CliError> {
    let gate = lintgate::run();
    let text = if a.switch("json")? {
        gate.render_json()
    } else {
        gate.render()
    };
    verdict(text, gate.passed())
}

/// `--root DIR` overrides the workspace root the determinism scan walks.
fn schedule_lint(a: &Args) -> Result<Report, CliError> {
    let root = a
        .path("root")?
        .map_or_else(schedlint::workspace_root, PathBuf::from);
    let scan_failed = |e| {
        failed(format!(
            "determinism scan failed under {}: {e}",
            root.display()
        ))
    };
    let gate = schedlint::run(&root).map_err(scan_failed)?;
    let text = if a.switch("json")? {
        gate.render_json()
    } else {
        gate.render()
    };
    verdict(text, gate.passed())
}

/// Passes iff every conformance check holds; each failure goes to
/// stderr.
fn workload_diff(_: &Args) -> Result<Report, CliError> {
    let fails = workloads::workload_diff(false);
    for f in &fails {
        eprintln!("workload-diff: FAIL — {f}");
    }
    let text = if fails.is_empty() {
        "workload-diff: PASS — spmv/stencil bit-identical on both paths, \
         listings lint clean, halo volumes conserved\n"
    } else {
        ""
    };
    verdict(text.to_string(), fails.is_empty())
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;
    use std::ffi::OsString;

    fn run(argv: &[&str]) -> Result<Report, CliError> {
        let args = parse(argv.iter().map(OsString::from)).unwrap();
        (args.cmd.run)(&args)
    }

    #[test]
    fn solve_command_end_to_end() {
        let out = run(&[
            "solve",
            "--n",
            "96",
            "--nb",
            "16",
            "--threads",
            "2",
            "--tpg",
            "1",
        ])
        .unwrap()
        .text;
        assert!(out.contains("HPL PASS"), "{out}");
    }

    #[test]
    fn native_command_reports_efficiency() {
        let out = run(&["native", "--n", "4096"]).unwrap().text;
        assert!(out.contains("GFLOPS"), "{out}");
        assert!(run(&["native", "--n", "4096", "--scheme", "static"]).is_ok());
    }

    #[test]
    fn dat_command_runs_builtin_plan() {
        let out = run(&["dat", "--cards", "1"]).unwrap().text;
        assert!(out.contains("84000"), "{out}");
        assert!(out.lines().count() >= 10, "{out}");
    }

    #[test]
    fn memory_gates_are_errors_not_panics() {
        // `cluster` at its defaults (N = 60K on one card) overflows GDDR.
        assert!(matches!(run(&["cluster"]), Err(CliError::Failed(_))));
        assert!(run(&["cluster", "--grid", "2x2"]).is_ok());
        let tiny = run(&["hybrid", "--mem", "1"]);
        assert!(matches!(tiny, Err(CliError::Failed(_))));
        let negative = run(&["hybrid", "--mem", "-5"]);
        assert!(matches!(negative, Err(CliError::Failed(_))));
    }

    #[test]
    fn table_defaults_are_the_library_defaults() {
        let fleet = fleet_options(&parse([OsString::from("fleet")]).unwrap()).unwrap();
        assert_eq!(
            format!("{fleet:?}"),
            format!("{:?}", FleetOptions::default())
        );
        let serve = serve_options(&parse([OsString::from("serve")]).unwrap()).unwrap();
        assert_eq!(
            format!("{serve:?}"),
            format!("{:?}", ServeLoadOptions::default())
        );
    }
}
