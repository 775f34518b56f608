//! The benchmark's output oracle fires on a miscompile and stays quiet on
//! clean output, and every workload runs end to end.

use lslp::Sabotage;
use lslp_perfbench::{run, Config, Workload};

fn config(workload: Workload, sabotage: Sabotage) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.5,
        trace: false,
        sabotage,
        lslpd: env!("CARGO_BIN_EXE_lslpd").into(),
    }
}

#[test]
fn a_swapped_shuffle_mask_is_caught() {
    let report = run(&config(Workload::Suite, Sabotage::SwapShuffleMask)).unwrap();
    assert!(report.failed > 0, "the oracle must see the lane swap");
    assert!(!report.correct());
    let ok_frac = report.values["ok_frac"];
    assert!(ok_frac < 1.0, "failed_frac > 0 shows as ok_frac < 1: {ok_frac}");
}

#[test]
fn clean_workloads_pass_the_oracle() {
    for workload in [Workload::Suite, Workload::GenLarge, Workload::Serve] {
        let report = run(&config(workload, Sabotage::None)).unwrap();
        assert!(report.correct(), "{workload:?}: {:?}", report.failures);
        assert_eq!(report.values["ok_frac"], 1.0);
        assert!(report.values["throughput_per_s"] > 0.0);
        assert!(report.values["sim_speedup"] > 1.0, "{workload:?} vectorizes");
    }
}

#[test]
fn a_traced_run_reports_every_layer() {
    let cfg = Config { trace: true, ..config(Workload::Suite, Sabotage::None) };
    let report = run(&cfg).unwrap();
    for name in ["frontend.compile_us", "core.pass.vectorize_us", "vec.graph_us", "ir.print_us"] {
        assert!(report.values[name] > 0.0, "{name}");
    }
    let last = report.render(true).lines().last().unwrap().to_string();
    assert!(last.contains("\"server.cache_get_us\""), "{last}");
}
