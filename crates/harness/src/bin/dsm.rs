//! `dsm` — the harness front end. Every experiment, gate and analysis
//! is a subcommand: `dsm <command> [scale] [nprocs] [flags]`; run
//! `dsm --help` for the list. See [`harness::cli`].

use std::process::ExitCode;

fn main() -> ExitCode {
    match harness::cli::run(std::env::args().skip(1), &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(e.exit_code())
        }
    }
}
