//! `bench-e2e`: see `bench_e2e::cli` for the commands.

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    bench_e2e::cli::main(&args)
}
