//! Flat-memory hot-loop throughput and scaling on Germany50.
//!
//! `bench_incremental` pinned the incremental evaluator's serial
//! probe throughput; this bench measures what the flat-memory refactor —
//! CSR SP-DAG arenas and the prefix-fold load arena — adds on top, and how
//! the tuned `segrout-par` pool scales it across threads. Three questions,
//! answered on the *same* topology, demand matrix, base weights and
//! candidate stream as `bench_incremental` (so the numbers are directly
//! comparable):
//!
//! 1. serial probe candidate-evals/sec, against a from-scratch `Router`
//!    evaluation of every candidate;
//! 2. speedup over the committed incremental baseline (`BENCH_incremental.json`,
//!    threads=1 `probe_candidates_per_sec`), reported only when a full
//!    committed record exists;
//! 3. scaling: probe sweep at 1/2/4/8 threads, speedup and efficiency per
//!    leg (honest about `host_cpus` — on a 1-core container every parallel
//!    leg measures scheduling overhead, not speedup).
//!
//! Every sweep is verified bit-identical to the from-scratch answers and
//! across thread counts before any number is reported. Results land in
//! `BENCH_hotloop.json` (+ `.run.json` provenance); `SEGROUT_FAST=1` shrinks
//! the stream and writes `BENCH_hotloop_fast.json` so CI smoke runs never
//! clobber the committed full record.

use segrout_bench::{banner, fast_mode};
use segrout_core::rng::StdRng;
use segrout_core::{
    fortz_phi, DemandList, EdgeId, IncrementalEvaluator, Network, Router, WaypointSetting,
    WeightSetting,
};
use segrout_obs::{json, Json};
use segrout_topo::by_name;
use segrout_traffic::{mcf_synthetic, TrafficConfig};
use std::time::Instant;

/// The same candidate stream generator as `bench_incremental` (same seed,
/// same shape), so the two records describe the same workload.
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

/// One `(phi, mlu)` bit pair per candidate.
type SweepBits = Vec<(u64, u64)>;

fn probe_sweep(ev: &IncrementalEvaluator, stream: &[(EdgeId, f64)]) -> SweepBits {
    segrout_par::par_map_slice(stream, |_, &(e, w)| {
        let p = ev.probe(e, w).expect("routes");
        (p.phi.to_bits(), p.mlu.to_bits())
    })
}

/// Times `reps` repetitions of the probe sweep and returns the answers plus
/// the best observed candidates/sec. Best-of-N with a warmup pass is the
/// honest protocol on a shared 1-core host: the slower repetitions measure
/// neighbour load, not this code.
fn timed_probe_sweep(
    ev: &IncrementalEvaluator,
    stream: &[(EdgeId, f64)],
    reps: usize,
) -> (SweepBits, f64) {
    let answers = probe_sweep(ev, stream); // warmup (also the reference bits)
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let again = probe_sweep(ev, stream);
        let cps = stream.len() as f64 / t0.elapsed().as_secs_f64();
        assert_eq!(again, answers, "probe sweep is not deterministic");
        best = best.max(cps);
    }
    (answers, best)
}

fn scratch_sweep(
    net: &Network,
    demands: &DemandList,
    base: &[f64],
    stream: &[(EdgeId, f64)],
) -> SweepBits {
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

/// The serial probe throughput of the committed incremental record, if a
/// full-stream (non-fast) `BENCH_incremental.json` sits in the working
/// directory.
fn pr3_baseline() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_incremental.json").ok()?;
    let record = Json::parse(&text).ok()?;
    if record.get("fast_mode")?.as_str() == Some("true") {
        return None;
    }
    record
        .get("sweeps")?
        .as_arr()?
        .iter()
        .find(|row| row.get("threads").and_then(Json::as_i64) == Some(1))?
        .get("probe_candidates_per_sec")?
        .as_f64()
}

fn main() {
    banner(
        "BENCH_hotloop — CSR arenas + prefix-fold load arena: throughput and scaling (Germany50)",
    );
    let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    println!("host cores: {host_cpus}\n");

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

    let arena_reuses = segrout_obs::counter("arena.reuses");
    let arena_rebuilds = segrout_obs::counter("arena.rebuilds");

    // --- serial probe vs from-scratch evaluation ------------------------
    let reps = if fast_mode() { 1 } else { 3 };
    segrout_par::set_threads(1);
    let (probe_answers, probe_cps) = timed_probe_sweep(&ev, &stream, reps);
    let t0 = Instant::now();
    let scratch = scratch_sweep(&net, &demands, &base, &stream);
    let scratch_cps = candidates as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(
        probe_answers, scratch,
        "probe answers diverged from scratch answers"
    );
    println!("\nserial candidate evals/sec (bit-identical verified):");
    println!(
        "  probe {probe_cps:>10.1}  scratch {scratch_cps:>10.1}  ({:.1}x)",
        probe_cps / scratch_cps
    );

    // --- speedup vs the committed incremental baseline -----------------
    let pr3 = match pr3_baseline() {
        Some(pr3_cps) if !fast_mode() => {
            let speedup_vs_pr3 = probe_cps / pr3_cps;
            println!(
                "\nserial probe speedup vs the incremental baseline: {speedup_vs_pr3:.2}x \
                 ({probe_cps:.1} vs {pr3_cps:.1} c/s; BENCH_incremental.json)"
            );
            json!({
                "probe_candidates_per_sec": pr3_cps,
                "source": "BENCH_incremental.json (committed record)",
                "speedup_vs_pr3": speedup_vs_pr3,
            })
        }
        _ => Json::Null,
    };

    // --- scaling legs ----------------------------------------------------
    let mut legs = Vec::new();
    let mut cps_at_1 = probe_cps;
    println!(
        "\n{:<8} {:>14} {:>9} {:>11} {:>10}",
        "threads", "probe(c/s)", "speedup", "efficiency", "identical"
    );
    for threads in [1usize, 2, 4, 8] {
        segrout_par::set_threads(threads);
        let (answers, cps) = timed_probe_sweep(&ev, &stream, reps);
        let identical = answers == probe_answers;
        assert!(identical, "{threads}-thread sweep diverged bitwise");
        if threads == 1 {
            cps_at_1 = cps;
        }
        let speedup = cps / cps_at_1;
        println!(
            "{:<8} {:>14.1} {:>8.2}x {:>11.2} {:>10}",
            threads,
            cps,
            speedup,
            speedup / threads as f64,
            identical
        );
        legs.push(json!({
            "threads": threads,
            "probe_candidates_per_sec": cps,
            "speedup_vs_1_thread": speedup,
            "efficiency": speedup / threads as f64,
            "identical": identical,
        }));
    }
    segrout_par::set_threads(0);
    if host_cpus == 1 {
        println!(
            "  (host has 1 core: parallel legs measure scheduling overhead, not speedup; \
             the >1x acceptance criterion applies only when host_cpus > 1)"
        );
    }
    println!(
        "hotloop counters: arena.reuses={} arena.rebuilds={}",
        arena_reuses.get(),
        arena_rebuilds.get()
    );

    let record = json!({
        "topology": "Germany50",
        "demands": demands.len(),
        "candidates": candidates,
        "host_cpus": host_cpus,
        "fast_mode": fast_mode(),
        "serial": json!({
            "probe_cps": probe_cps,
            "scratch_cps": scratch_cps,
            "probe_scratch_identical": true,
        }),
        "pr3_baseline": pr3,
        "scaling": legs,
        "counters": json!({
            "arena_reuses": arena_reuses.get(),
            "arena_rebuilds": arena_rebuilds.get(),
        }),
    });
    // Fast (CI smoke) runs must not clobber the committed full record.
    let path = if fast_mode() {
        "BENCH_hotloop_fast.json"
    } else {
        "BENCH_hotloop.json"
    };
    segrout_bench::write_record(path, &record);
    segrout_bench::finish_obs();
}
