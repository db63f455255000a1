//! Incremental vs from-scratch candidate evaluation on Germany50.
//!
//! The local-search hot loop asks one question per candidate move: *what are
//! Φ and MLU if edge `e`'s weight becomes `w`?* This bench answers a fixed
//! random candidate stream two ways — a full from-scratch ECMP evaluation
//! per candidate ([`Router`]) and a read-only probe of the
//! [`IncrementalEvaluator`] — verifies the answers are bit-identical, and
//! reports candidate-evaluations/second for both, serial and at the
//! parallel thread count — the record that the incremental engine pays.
//!
//! Results land in `BENCH_incremental.json`. `SEGROUT_FAST=1` shrinks the
//! candidate stream for smoke runs. Wall-clock numbers are whatever the
//! host gives; the dirty-destination ratio is the portable signal.

use segrout_bench::{banner, fast_mode};
use segrout_core::rng::StdRng;
use segrout_core::{
    fortz_phi, DemandList, EdgeId, IncrementalEvaluator, Network, Router, WaypointSetting,
    WeightSetting,
};
use segrout_obs::json;
use segrout_topo::by_name;
use segrout_traffic::{mcf_synthetic, TrafficConfig};
use std::time::Instant;

/// A fixed stream of single-edge integer weight-change candidates, the
/// shape the HeurOSPF neighbourhood produces.
fn candidate_stream(edges: usize, count: usize, seed: u64) -> Vec<(EdgeId, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (
                EdgeId(rng.gen_range(0..edges as u32)),
                f64::from(rng.gen_range(1..=20u32)),
            )
        })
        .collect()
}

/// Evaluates every candidate from scratch; returns `(Φ, MLU)` bit pairs.
fn scratch_sweep(
    net: &Network,
    demands: &DemandList,
    base: &[f64],
    stream: &[(EdgeId, f64)],
) -> Vec<(u64, u64)> {
    let wp = WaypointSetting::none(demands.len());
    segrout_par::par_map_slice(stream, |_, &(e, w)| {
        let mut weights = base.to_vec();
        weights[e.index()] = w;
        let ws = WeightSetting::new(net, weights).expect("weights in range");
        let report = Router::new(net, &ws)
            .evaluate(demands, &wp)
            .expect("routes");
        let phi = fortz_phi(&report.loads, net.capacities());
        (phi.to_bits(), report.mlu.to_bits())
    })
}

/// Probes every candidate against the shared base state; returns the same
/// `(Φ, MLU)` bit pairs.
fn probe_sweep(ev: &IncrementalEvaluator, stream: &[(EdgeId, f64)]) -> Vec<(u64, u64)> {
    segrout_par::par_map_slice(stream, |_, &(e, w)| {
        let p = ev.probe(e, w).expect("routes");
        (p.phi.to_bits(), p.mlu.to_bits())
    })
}

fn main() {
    banner("BENCH_incremental — incremental vs from-scratch candidate evaluation (Germany50)");
    let parallel = segrout_par::threads().max(2);
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!("host cores: {host_cpus}; parallel leg runs with {parallel} threads\n");

    let net = by_name("Germany50").expect("embedded");
    let demands = mcf_synthetic(
        &net,
        &TrafficConfig {
            seed: 2024,
            pair_fraction: 0.2,
            ..Default::default()
        },
    )
    .expect("feasible demands");
    let candidates = if fast_mode() { 64 } else { 512 };
    println!(
        "topology: Germany50 ({} nodes, {} links), {} demands, {} candidates",
        net.node_count(),
        net.edge_count(),
        demands.len(),
        candidates
    );

    let mut rng = StdRng::seed_from_u64(0xbe9c);
    let base: Vec<f64> = (0..net.edge_count())
        .map(|_| f64::from(rng.gen_range(1..=20u32)))
        .collect();
    let ws = WeightSetting::new(&net, base.clone()).expect("weights in range");
    let wp = WaypointSetting::none(demands.len());
    let ev = IncrementalEvaluator::new(&net, &ws, &demands, &wp).expect("routes");
    let stream = candidate_stream(net.edge_count(), candidates, 0x5eed5);

    let probes_ctr = segrout_obs::counter("incr.probes");
    let dirty_ctr = segrout_obs::counter("incr.dirty_dests");
    let clean_ctr = segrout_obs::counter("incr.clean_dests");

    // --- candidate-evaluation throughput, serial and parallel legs -------
    let mut rows = Vec::new();
    println!(
        "\n{:<8} {:>14} {:>14} {:>9} {:>12} {:>10}",
        "threads", "scratch(c/s)", "probe(c/s)", "speedup", "dirty-ratio", "identical"
    );
    for threads in [1usize, parallel] {
        segrout_par::set_threads(threads);

        let t0 = Instant::now();
        let scratch = scratch_sweep(&net, &demands, &base, &stream);
        let scratch_s = t0.elapsed().as_secs_f64();

        let (d0, c0) = (dirty_ctr.get(), clean_ctr.get());
        let t0 = Instant::now();
        let probed = probe_sweep(&ev, &stream);
        let probe_s = t0.elapsed().as_secs_f64();
        let dirty = dirty_ctr.get() - d0;
        let clean = clean_ctr.get() - c0;

        let identical = scratch == probed;
        let scratch_cps = candidates as f64 / scratch_s;
        let probe_cps = candidates as f64 / probe_s;
        let dirty_ratio = dirty as f64 / (dirty + clean).max(1) as f64;
        println!(
            "{:<8} {:>14.1} {:>14.1} {:>8.2}x {:>12.4} {:>10}",
            threads,
            scratch_cps,
            probe_cps,
            probe_cps / scratch_cps,
            dirty_ratio,
            identical
        );
        assert!(identical, "probe answers diverged from scratch answers");
        rows.push(json!({
            "threads": threads,
            "scratch_candidates_per_sec": scratch_cps,
            "probe_candidates_per_sec": probe_cps,
            "speedup": probe_cps / scratch_cps,
            "dirty_destination_ratio": dirty_ratio,
            "identical": identical,
        }));
    }
    segrout_par::set_threads(0);

    let record = json!({
        "topology": "Germany50",
        "demands": demands.len(),
        "candidates": candidates,
        "host_cpus": host_cpus,
        "parallel_threads": parallel,
        "fast_mode": fast_mode(),
        "probes_total": probes_ctr.get(),
        "sweeps": rows,
    });
    segrout_bench::write_record("BENCH_incremental.json", &record);
    segrout_bench::finish_obs();
}
