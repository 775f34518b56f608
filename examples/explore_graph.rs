//! Inspect the SLP graphs that SLP and LSLP build for the motivating
//! examples — the node-by-node view of Figures 2(c/d), 3(c/d) and 4(c/d).
//!
//! Run with: `cargo run -p lslp --example explore_graph [kernel-name]`

use std::collections::HashMap;

use lslp::{graph_cost, GraphBuilder, VectorizerConfig};
use lslp_analysis::AddrInfo;
use lslp_ir::{Opcode, ValueId};
use lslp_target::CostModel;

fn main() {
    let filter = std::env::args().nth(1);
    let tm = CostModel::skylake_avx2();
    for k in lslp_kernels::motivation_kernels() {
        if filter.as_deref().is_some_and(|f| f != k.name) {
            continue;
        }
        println!("################ {} ({} / {})", k.name, k.benchmark, k.file_line);
        let f = k.compile();
        println!("--- scalar IR ---\n{}", lslp_ir::print_function(&f));
        for cfg_name in ["SLP", "LSLP"] {
            let cfg = VectorizerConfig::preset(cfg_name).unwrap();
            let addr = AddrInfo::analyze(&f);
            let positions: HashMap<ValueId, usize> = f.position_map();
            let use_map = f.use_map();
            // Seed with the function's store chain, as the pass would.
            let seeds: Vec<ValueId> = f
                .iter_body()
                .filter(|(_, _, i)| i.op == Opcode::Store)
                .map(|(_, id, _)| id)
                .collect();
            let graph = GraphBuilder::new(&f, &cfg, &tm, &addr, &positions, &use_map).build(&seeds);
            let cost = graph_cost(&f, &graph, &tm, &use_map);
            println!("--- {cfg_name} graph ---");
            print!("{}", graph.dump(&f));
            for (id, c) in cost.per_node.iter().enumerate() {
                println!("  n{id}: cost {c:+}");
            }
            println!(
                "  extract cost {:+}, TOTAL {} -> {}",
                cost.extract_cost,
                cost.total,
                if cost.total < 0 { "VECTORIZE" } else { "keep scalar" }
            );
        }
        println!();
    }
}
