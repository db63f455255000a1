//! Differential suite pinning the flat-memory hot loop bit-identical to
//! from-scratch rebuilds.
//!
//! The hot-loop refactor moved the SP-DAG storage to flat CSR slabs and the
//! evaluator to dynamic repair. The contract is unchanged from every other
//! differential suite in this repo: **`f64::to_bits` equality, no epsilon**.
//! This file checks, over the paper's TE-Instances 1/3/5, seeded random
//! strongly-connected topologies and Germany50:
//!
//! * dynamic-repair paths (`update_shortest_path_dag`) against from-scratch
//!   rebuilds over random single-edge weight-change sequences;
//! * the whole evaluator stack (`Router` + `IncrementalEvaluator`) at 1 and
//!   4 worker threads.

use segrout_core::rng::StdRng;
use segrout_core::{
    fortz_phi, DemandList, EdgeId, IncrementalEvaluator, Network, NodeId, Router, WaypointSetting,
    WeightSetting,
};
use segrout_graph::{shortest_path_dag, update_shortest_path_dag, SpDag, SpDagUpdate};
use segrout_instances::{instance1, instance3, instance5};
use segrout_topo::{by_name, random_connected};
use std::sync::{Mutex, MutexGuard};

/// The thread-count override is process-global; serialize the tests of this
/// binary.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the thread default even on panic.
struct Restore;
impl Drop for Restore {
    fn drop(&mut self) {
        segrout_par::set_threads(0);
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Full structural bit-equality of two DAGs.
fn assert_same_dag(a: &SpDag, b: &SpDag, ctx: &str) {
    assert_eq!(bits(&a.dist), bits(&b.dist), "{ctx}: dist diverged");
    assert_eq!(a.edge_on_dag, b.edge_on_dag, "{ctx}: edge set diverged");
    assert_eq!(a.dag_start, b.dag_start, "{ctx}: CSR offsets diverged");
    assert_eq!(a.dag_edges, b.dag_edges, "{ctx}: CSR edge slab diverged");
    assert_eq!(a.order, b.order, "{ctx}: topological order diverged");
}

/// The covered networks (instances, seeded random, one SNDLib backbone).
fn cases() -> Vec<(String, Network)> {
    let mut out: Vec<(String, Network)> = vec![
        ("instance1(m=8)".into(), instance1(8).network),
        ("instance3(m=5)".into(), instance3(5).network),
        ("instance5(m=3)".into(), instance5(3).network),
        ("Germany50".into(), by_name("Germany50").expect("embedded")),
    ];
    for seed in [23u64, 37, 53] {
        out.push((
            format!("random(seed={seed})"),
            random_connected(12, 26, seed),
        ));
    }
    out
}

/// Seeded integral weight vector in `[1, 20]` — the optimizer regime.
fn integral_weights(m: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| f64::from(rng.gen_range(1..=20u32)))
        .collect()
}

#[test]
fn update_paths_match_forced_heap_scratch() {
    let _guard = global_lock();
    for (label, net) in cases() {
        let g = net.graph();
        let m = net.edge_count();
        let mut rng = StdRng::seed_from_u64(0x0d1a + m as u64);
        let mut w = integral_weights(m, 0x5eed + m as u64);
        // A handful of fixed targets tracked through a weight-change walk.
        let targets: Vec<NodeId> = (0..net.node_count().min(6))
            .map(|i| NodeId(i as u32))
            .collect();
        let mut dags: Vec<SpDag> = targets
            .iter()
            .map(|&t| shortest_path_dag(g, &w, t))
            .collect();
        for step in 0..20 {
            let e = EdgeId(rng.gen_range(0..m as u32));
            let old_w = w[e.index()];
            w[e.index()] = f64::from(rng.gen_range(1..=20u32));
            for (dag, &t) in dags.iter_mut().zip(&targets) {
                let repaired = match update_shortest_path_dag(g, &w, dag, e, old_w, 8) {
                    SpDagUpdate::Unchanged => dag.clone(),
                    SpDagUpdate::Repaired(d, _) | SpDagUpdate::Rebuilt(d) => d,
                };
                // Oracle: from-scratch rebuild of the same state.
                let scratch = shortest_path_dag(g, &w, t);
                assert_same_dag(
                    &repaired,
                    &scratch,
                    &format!("{label} step {step} target {t:?}"),
                );
                *dag = repaired;
            }
        }
    }
}

/// One probe/commit walk through the incremental evaluator; returns the
/// per-step `(loads, phi, mlu)` bit trace.
fn evaluator_trace(net: &Network, demands: &DemandList, seed: u64) -> Vec<(Vec<u64>, u64, u64)> {
    let m = net.edge_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<f64> = (0..m)
        .map(|_| f64::from(rng.gen_range(1..=20u32)))
        .collect();
    let ws = WeightSetting::new(net, weights).expect("weights in range");
    let wp = WaypointSetting::none(demands.len());
    let mut ev = IncrementalEvaluator::new(net, &ws, demands, &wp).expect("routable");
    let mut trace = Vec::new();
    for _ in 0..16 {
        let e = EdgeId(rng.gen_range(0..m as u32));
        let new_w = f64::from(rng.gen_range(1..=20u32));
        let probe = ev.probe(e, new_w).expect("probe routable");
        trace.push((bits(&probe.loads), probe.phi.to_bits(), probe.mlu.to_bits()));
        ev.commit(probe);
    }
    // Close the loop against the plain Router as well.
    let w_now = WeightSetting::new(net, ev.weights().to_vec()).expect("in range");
    let report = Router::new(net, &w_now)
        .evaluate(demands, &wp)
        .expect("routable");
    let phi = fortz_phi(&report.loads, net.capacities());
    assert_eq!(
        bits(&report.loads),
        bits(ev.loads()),
        "router/evaluator split"
    );
    trace.push((bits(&report.loads), phi.to_bits(), report.mlu.to_bits()));
    trace
}

#[test]
fn evaluator_stack_identical_at_1_and_4_threads() {
    let _guard = global_lock();
    let _restore = Restore;
    let net = by_name("Germany50").expect("embedded");
    let mut rng = StdRng::seed_from_u64(0x9e44);
    let n = net.node_count() as u32;
    let mut demands = DemandList::new();
    for _ in 0..40 {
        let s = rng.gen_range(0..n);
        let t = rng.gen_range(0..n);
        if s != t {
            demands.push(NodeId(s), NodeId(t), f64::from(rng.gen_range(1..=10u32)));
        }
    }
    let mut traces = Vec::new();
    for threads in [1usize, 4] {
        segrout_par::set_threads(threads);
        traces.push(evaluator_trace(&net, &demands, 0xfacade));
    }
    segrout_par::set_threads(0);
    for (i, t) in traces.iter().enumerate().skip(1) {
        assert_eq!(
            &traces[0], t,
            "trace {i} diverged (thread counts must be bit-identical)"
        );
    }
}
