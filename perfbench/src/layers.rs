//! Traced drives of single layers, run after a workload's timed window.
//!
//! * [`replay_vectorizer`] calls the vectorizer's phase functions one by
//!   one on a function's O3-pipeline output (the vectorizer's input) in
//!   the order the greedy packer uses them: seed collection, graph build
//!   (reordering, look-ahead, multi-nodes) and costing for every legal
//!   vector factor, then code generation of the cheapest profitable graph
//!   inside a transaction, verification, and rollback. Nothing commits,
//!   so every chain position is costed against the scalar function.
//! * [`drive_wire`] feeds a workload's request and response lines through
//!   the protocol parsers and its key and payload stream through a
//!   `ResultCache` with the daemon's default capacity.

use std::collections::BTreeMap;

use lslp::{cost::graph_cost, seeds::collect_store_chains, GraphBuilder, VectorizerConfig};
use lslp_analysis::AnalysisManager;
use lslp_ir::Function;
use lslp_server::cache::{content_key, CachedResult, ResultCache};
use lslp_server::protocol::{parse_request, Response};
use lslp_target::CostModel;

use crate::trace::{SelfTime, Tracer};

/// Replay the vectorizer's phases over `f` (left unchanged), recording
/// `vec.*` spans under operation `op`.
pub fn replay_vectorizer(
    f: &Function,
    cfg: &VectorizerConfig,
    tm: &CostModel,
    tr: &mut Tracer,
    op: u64,
) {
    let mut f = f.clone();
    let mut am = AnalysisManager::new();
    let root = tr.begin("vec.replay", op);
    let s = tr.begin("vec.analysis", op);
    let addr = am.addr_info(&f);
    let positions = am.positions(&f);
    let use_map = am.use_map(&f);
    tr.end(s);
    let s = tr.begin("vec.seeds", op);
    let chains = collect_store_chains(&f, &addr);
    tr.end(s);
    for chain in &chains {
        let Some(elem) = f.ty(f.args_of(chain.stores[0])[0]).elem() else { continue };
        let max_vf = (tm.max_vf(elem) as usize).min(cfg.max_vf as usize);
        let mut i = 0;
        while i < chain.len() {
            let mut best = None;
            let mut vf = pow2_floor((chain.len() - i).min(max_vf));
            while vf >= 2 {
                let bundle = &chain.stores[i..i + vf];
                let s = tr.begin("vec.graph", op);
                let graph =
                    GraphBuilder::new(&f, cfg, tm, &addr, &positions, &use_map).build(bundle);
                tr.end(s);
                let s = tr.begin("vec.cost", op);
                let cost = graph_cost(&f, &graph, tm, &use_map).total;
                tr.end(s);
                // Cheapest per-lane cost wins; ties keep the wider factor.
                let better = match &best {
                    Some((best_cost, best_vf, _)) => {
                        cost * (*best_vf as i64) < best_cost * (vf as i64)
                    }
                    None => true,
                };
                if cost < cfg.cost_threshold && better {
                    best = Some((cost, vf, graph));
                }
                vf /= 2;
            }
            let Some((_, vf, graph)) = best else {
                i += 1;
                continue;
            };
            let mark = f.begin_txn();
            let s = tr.begin("vec.codegen", op);
            lslp::codegen::generate(&mut f, &graph, tm);
            tr.end(s);
            let s = tr.begin("vec.verify", op);
            let verified = lslp_ir::verify_function(&f);
            tr.end(s);
            std::hint::black_box(verified.is_ok());
            let s = tr.begin("vec.rollback", op);
            f.rollback_txn(mark);
            tr.end(s);
            i += vf;
        }
    }
    tr.end(root);
}

fn pow2_floor(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - n.leading_zeros())
    }
}

/// One distinct item on the wire: the request line that carries it, the
/// response line that answers it, and its result-cache identity.
pub struct WireItem {
    /// A `COMPILE` request line.
    pub request: String,
    /// The `OK` response line carrying the artifact.
    pub response: String,
    /// The cache key material, in the daemon's segment order.
    pub key_parts: Vec<String>,
    /// The artifact text.
    pub payload: String,
}

impl WireItem {
    /// The item for compiling `source` with the daemon's default options
    /// plus `timeout_ms`, answered with `payload`.
    pub fn new(source: &str, payload: &str, timeout_ms: u64) -> WireItem {
        let req = lslp_server::protocol::CompileRequest {
            target: Some(crate::TARGET.into()),
            timeout_ms: Some(timeout_ms),
            ..lslp_server::protocol::CompileRequest::new(source)
        };
        let key_parts = [
            source,
            req.config.as_str(),
            crate::TARGET,
            "1",
            "ir",
            "-",
            "-",
            &timeout_ms.to_string(),
        ]
        .map(String::from)
        .to_vec();
        WireItem {
            request: req.to_line(),
            response: Response::ok_line(&[("cached", "miss".into())], payload),
            key_parts,
            payload: payload.to_string(),
        }
    }
}

/// Parse every request and response line of `sequence` (indices into
/// `items`) and drive a daemon-sized `ResultCache` with its keys:
/// a probe per item, an insert on every miss. Records
/// `server.protocol_parse`, `server.response_parse`, `server.cache_get`
/// and `server.cache_insert` spans.
pub fn drive_wire(items: &[WireItem], sequence: &[usize], tr: &mut Tracer) {
    let defaults = lslp_server::ServerConfig::default();
    let cache = ResultCache::new(defaults.cache_capacity, defaults.cache_shards);
    for (op, &idx) in sequence.iter().enumerate() {
        let item = &items[idx];
        let op = op as u64;
        let s = tr.begin("server.protocol_parse", op);
        let parsed = parse_request(&item.request);
        tr.end(s);
        std::hint::black_box(parsed.is_ok());
        let s = tr.begin("server.response_parse", op);
        let parsed = Response::parse(&item.response);
        tr.end(s);
        std::hint::black_box(parsed.is_ok());
        let parts: Vec<&str> = item.key_parts.iter().map(String::as_str).collect();
        let s = tr.begin("server.cache_get", op);
        let key = content_key(&parts);
        let hit = cache.get_parts(key, &parts);
        tr.end(s);
        if hit.is_none() {
            let material = parts.join("\0");
            let s = tr.begin("server.cache_insert", op);
            let result =
                CachedResult { output: item.payload.clone(), trees: 0, cost: 0, incidents: 0 };
            cache.insert(key, &material, result);
            tr.end(s);
        }
    }
}

/// Summed self time of the spans named `name` in microseconds, divided
/// by `per` operations (0 when there are none).
pub fn mean_us(self_times: &BTreeMap<&'static str, SelfTime>, name: &str, per: usize) -> f64 {
    match self_times.get(name) {
        Some(s) if per > 0 => s.total_ns as f64 / 1e3 / per as f64,
        _ => 0.0,
    }
}
