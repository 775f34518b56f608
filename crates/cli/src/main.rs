//! `lslpc` entry point: I/O and exit codes around [`lslp_cli::driver`].
//!
//! Exit codes: 0 success, 1 internal compiler failure, 2 bad invocation,
//! 3 input (parse/verify) error — so scripts and the compile service can
//! tell user error from compiler bug.

use std::io::Read as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match lslp_cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.fuzz.is_some() {
        return fuzz(&args);
    }
    let src = if args.input == "-" {
        let mut s = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut s) {
            eprintln!("lslpc: cannot read stdin: {e}");
            return ExitCode::FAILURE;
        }
        s
    } else {
        match std::fs::read_to_string(&args.input) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("lslpc: cannot read {}: {e}", args.input);
                return ExitCode::FAILURE;
            }
        }
    };
    match lslp_cli::run_on_source(&args, &src) {
        Ok(out) => {
            if let Some(path) = &args.output {
                if let Err(e) = std::fs::write(path, out) {
                    eprintln!("lslpc: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            } else {
                print!("{out}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lslpc: {e}");
            // LslpError's exit-code mapping is stable: Usage → 2,
            // Input → 3, Internal → 1.
            ExitCode::from(e.exit_code() as u8)
        }
    }
}

/// `lslpc --fuzz N`: run a fuzzing campaign; any oracle violation is a
/// compiler bug, reported via exit code 1.
fn fuzz(args: &lslp_cli::Args) -> ExitCode {
    match lslp_cli::run_fuzz(args) {
        Ok((summary, failures)) => {
            if let Some(path) = &args.output {
                if let Err(e) = std::fs::write(path, &summary) {
                    eprintln!("lslpc: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            } else {
                print!("{summary}");
            }
            if failures == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
