//! `phi-wallbench` binary: see `cli` for the commands.

fn main() -> std::process::ExitCode {
    phi_wallbench::cli::main(std::env::args().skip(1).collect())
}
