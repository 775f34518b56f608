//! A tiny `opt`-style driver: read an SLC file (or `-` for stdin), run the
//! configured vectorizer over every kernel, and print the resulting IR.
//!
//! Usage: `cargo run -p lslp --example vectorize_file -- <file.slc> [CONFIG]`
//! where CONFIG is one of O3, SLP-NR, SLP, LSLP, LSLP-LA{n}, LSLP-Multi{n}
//! (default LSLP).

use std::io::Read as _;
use std::process::ExitCode;

use lslp::{CompileOptions, Session};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        eprintln!(
            "usage: vectorize_file <file.slc|-> [O3|SLP-NR|SLP|LSLP|LSLP-LA<n>|LSLP-Multi<n>]"
        );
        return ExitCode::from(2);
    };
    let cfg_name = args.get(1).map(String::as_str).unwrap_or("LSLP");
    let opts = match CompileOptions::preset(cfg_name).vectorize_only().build() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let src = if path == "-" {
        let mut s = String::new();
        if let Err(e) = std::io::stdin().read_to_string(&mut s) {
            eprintln!("cannot read stdin: {e}");
            return ExitCode::FAILURE;
        }
        s
    } else {
        match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let artifact = match Session::new(opts).compile(&src) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(e.exit_code() as u8);
        }
    };
    for (f, pr) in artifact.module.functions.iter().zip(&artifact.reports) {
        let report = &pr.vectorize;
        eprintln!(
            "; @{}: {} seed group(s) tried, {} vectorized, applied cost {}, pass time {:?}",
            f.name(),
            report.attempts.len(),
            report.trees_vectorized,
            report.applied_cost,
            report.elapsed
        );
    }
    print!("{}", artifact.ir());
    ExitCode::SUCCESS
}
