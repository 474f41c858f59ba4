//! `quickdrop-cli`: train and serve QuickDrop federated-unlearning
//! deployments from the command line. Run `quickdrop-cli help` for usage.

use qd_cli::{run, Args};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", qd_cli::commands_usage());
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(report) => {
            // `dump … | head` closes the pipe early; that is the reader's
            // choice, not an error (`print!` would panic on it).
            match std::io::stdout().write_all(report.as_bytes()) {
                Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                    eprintln!("error: writing the report: {e}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
