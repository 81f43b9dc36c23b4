//! `phi`: every table, figure, gate and campaign driver of the workspace
//! as one subcommand. `phi` alone lists them.

fn main() -> std::process::ExitCode {
    phi_bench::run_cli(std::env::args_os().skip(1))
}
