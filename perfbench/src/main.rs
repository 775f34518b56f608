//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <suite|gen_large|serve> --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one line per metric, then the JSON result as the last line of
//! standard output. Exits 0 when the run completed (wrong outputs are
//! reported in the result, not by the exit code), 2 on bad arguments and
//! 1 when the run could not start.

use std::process::ExitCode;

use lslp::Sabotage;
use lslp_perfbench::{run, Config, Workload};

const USAGE: &str =
    "usage: perfbench --workload <suite|gen_large|serve> --seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (0 or 1)")),
                })
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    // The daemon is built next to this binary.
    let lslpd = std::env::current_exe()
        .map_err(|e| format!("cannot locate the running executable: {e}"))?
        .with_file_name("lslpd");
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sabotage: Sabotage::None,
        lslpd,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(report) => {
            print!("{}", report.render(cfg.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}
