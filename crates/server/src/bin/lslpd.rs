//! `lslpd` — the LSLP compile daemon.
//!
//! ```text
//! lslpd [--addr HOST:PORT] [--workers N] [--queue-cap N] [--cache-cap N]
//!       [--cache-shards N] [--time-budget-ms N] [--cache-dir DIR]
//!       [--chaos SPEC] [--max-conns N] [--pipeline-depth N]
//! ```
//!
//! Serves the line-delimited protocol of `docs/SERVER.md` until a client
//! sends `SHUTDOWN`, then drains queued work and exits 0.

use std::process::ExitCode;

use lslp_server::{Server, ServerConfig};

const USAGE: &str = "\
lslpd — the LSLP compile daemon

USAGE:
    lslpd [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>     bind address (default: 127.0.0.1:7979; port 0
                           picks a free port and prints it)
    --workers <N>          compile worker threads (default: CPU count)
    --queue-cap <N>        bounded queue capacity; beyond it requests are
                           rejected with ERR kind=overload (default: 64)
    --cache-cap <N>        result-cache entries across shards (default: 1024)
    --cache-shards <N>     result-cache shard count (default: 16)
    --time-budget-ms <N>   default per-request compile budget (default: 500)
    --cache-dir <DIR>      persist the result cache under DIR (journal +
                           checksummed entries); a restarted daemon starts
                           warm, corrupt entries are quarantined, and disk
                           failures degrade to memory-only (default: off)
    --chaos <SPEC>         seeded fault injection, e.g.
                           seed=7,panic=0.1,read-drop=0.05,delay=10:0.2
                           (keys: seed, accept-drop, read-drop, write-drop,
                           delay=MS:P, panic, corrupt; see docs/SERVER.md)
    --max-conns <N>        connection limit; accepts beyond it get one
                           ERR kind=overload line and are closed
                           (default: 1024)
    --pipeline-depth <N>   per-connection in-flight compile budget; a
                           connection at the limit stops being read until
                           completions drain (default: 32)
    -h, --help             show this help
";

fn parse_args(argv: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig { addr: "127.0.0.1:7979".into(), ..ServerConfig::default() };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value_of =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        match a.as_str() {
            "-h" | "--help" => return Err(USAGE.to_string()),
            "--addr" => cfg.addr = value_of("--addr")?,
            "--workers" => {
                cfg.workers =
                    value_of("--workers")?.parse().map_err(|e| format!("bad --workers: {e}"))?
            }
            "--queue-cap" => {
                cfg.queue_capacity =
                    value_of("--queue-cap")?.parse().map_err(|e| format!("bad --queue-cap: {e}"))?
            }
            "--cache-cap" => {
                cfg.cache_capacity =
                    value_of("--cache-cap")?.parse().map_err(|e| format!("bad --cache-cap: {e}"))?
            }
            "--cache-shards" => {
                cfg.cache_shards = value_of("--cache-shards")?
                    .parse()
                    .map_err(|e| format!("bad --cache-shards: {e}"))?
            }
            "--time-budget-ms" => {
                cfg.default_time_budget_ms = value_of("--time-budget-ms")?
                    .parse()
                    .map_err(|e| format!("bad --time-budget-ms: {e}"))?
            }
            "--cache-dir" => cfg.cache_dir = Some(value_of("--cache-dir")?),
            "--max-conns" => {
                cfg.max_conns = value_of("--max-conns")?
                    .parse()
                    .map_err(|e| format!("bad --max-conns: {e}"))?;
                if cfg.max_conns == 0 {
                    return Err("bad --max-conns: must be at least 1".into());
                }
            }
            "--pipeline-depth" => {
                cfg.pipeline_depth = value_of("--pipeline-depth")?
                    .parse()
                    .map_err(|e| format!("bad --pipeline-depth: {e}"))?;
                if cfg.pipeline_depth == 0 {
                    return Err("bad --pipeline-depth: must be at least 1".into());
                }
            }
            "--chaos" => {
                cfg.chaos = Some(
                    lslp_server::chaos::ChaosConfig::parse(&value_of("--chaos")?)
                        .map_err(|e| format!("bad --chaos: {e}"))?,
                )
            }
            other => return Err(format!("unknown option `{other}`\n\n{USAGE}")),
        }
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&argv) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let chaos_active = cfg.chaos.as_ref().is_some_and(|c| c.is_active());
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lslpd: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    if chaos_active {
        eprintln!("lslpd: CHAOS ACTIVE — injecting faults on purpose");
    }
    eprintln!("lslpd: serving on {}", server.local_addr());
    match server.run() {
        Ok(()) => {
            eprintln!("lslpd: drained, bye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lslpd: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lslp_server::chaos::ChaosConfig;

    fn parse(args: &[&str]) -> Result<ServerConfig, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn zero_limits_are_rejected() {
        for flag in ["--max-conns", "--pipeline-depth"] {
            let err = parse(&[flag, "0"]).unwrap_err();
            assert_eq!(err, format!("bad {flag}: must be at least 1"));
        }
    }

    #[test]
    fn missing_value_is_rejected() {
        assert_eq!(parse(&["--workers"]).unwrap_err(), "--workers requires a value");
        assert_eq!(
            parse(&["--addr", "127.0.0.1:0", "--chaos"]).unwrap_err(),
            "--chaos requires a value"
        );
    }

    #[test]
    fn unknown_option_is_rejected_with_usage() {
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.starts_with("unknown option `--frobnicate`"), "{err}");
        assert!(err.ends_with(USAGE), "{err}");
    }

    #[test]
    fn bad_chaos_spec_is_rejected() {
        let err = parse(&["--chaos", "panic=2"]).unwrap_err();
        assert!(err.starts_with("bad --chaos: "), "{err}");
        assert!(err.contains("outside [0, 1]"), "{err}");
    }

    #[test]
    fn full_argv_round_trips_into_the_config() {
        let cfg = parse(&[
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "3",
            "--queue-cap",
            "17",
            "--cache-cap",
            "99",
            "--cache-shards",
            "5",
            "--time-budget-ms",
            "250",
            "--cache-dir",
            "/var/cache/lslpd",
            "--chaos",
            "seed=7,panic=0.1,read-drop=0.05,write-drop=0.05,delay=5:0.1,corrupt=0.25",
            "--max-conns",
            "12",
            "--pipeline-depth",
            "8",
        ])
        .unwrap();
        assert_eq!(cfg.addr, "0.0.0.0:9000");
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_capacity, 17);
        assert_eq!(cfg.cache_capacity, 99);
        assert_eq!(cfg.cache_shards, 5);
        assert_eq!(cfg.default_time_budget_ms, 250);
        assert_eq!(cfg.cache_dir.as_deref(), Some("/var/cache/lslpd"));
        let chaos = ChaosConfig {
            seed: 7,
            worker_panic: 0.1,
            read_drop: 0.05,
            write_drop: 0.05,
            delay_ms: 5,
            delay_prob: 0.1,
            corrupt_entry: 0.25,
            ..ChaosConfig::default()
        };
        assert_eq!(cfg.chaos, Some(chaos));
        assert_eq!(cfg.max_conns, 12);
        assert_eq!(cfg.pipeline_depth, 8);
        // Flags not given keep the library defaults.
        assert_eq!(cfg.stall_after_ms, ServerConfig::default().stall_after_ms);
        // With no flags the daemon binds its documented default address.
        assert_eq!(parse(&[]).unwrap().addr, "127.0.0.1:7979");
    }
}
