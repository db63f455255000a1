//! `optimize`: JOINT-Heur on Germany50, the call `segrout optimize
//! --algorithm joint --restarts 0 --passes 10` makes, over a few seeded
//! MCF-synthetic matrices (pair fraction 0.2, |E|/4 sub-flows): the
//! workload seed's and four from the fixed panel. Closed loop: one solve
//! after another, cycling through the matrices, on `nproc` pool threads.

use crate::layers::{self, Inputs};
use crate::trace::Tracer;
use crate::{peak_rss_mb, repeated_setup, stats, Args, Report};
use segrout_algos::{joint_heur, HeurOspfConfig, JointHeurConfig, JointHeurResult};
use segrout_core::{DemandList, Router, WeightSetting};
use segrout_obs::Json;
use segrout_topo::by_name;
use segrout_traffic::{mcf_synthetic, TrafficConfig};
use std::time::Instant;

/// Fixed-panel matrices solved per run, next to the workload seed's.
const PANEL: usize = 4;

/// MLU JOINT-Heur reached on each fixed-panel matrix when the benchmark
/// was written. A solve that ends more than [`QUALITY_TOL`] above its
/// panel value counts as failed, so a speed-up that costs quality fails
/// the run instead of passing as a gain.
const PANEL_MLU: [f64; PANEL] = [
    0.9972494935383805,
    0.9981504578290097,
    0.9999151050893512,
    0.9986342696491983,
];
/// Relative MLU loss on a panel matrix tolerated before a solve fails.
const QUALITY_TOL: f64 = 0.01;

/// The optimizer configuration of one matrix: the CLI's, with the matrix
/// seed as both traffic and search seed.
fn config(seed: u64) -> JointHeurConfig {
    JointHeurConfig {
        ospf: HeurOspfConfig {
            seed,
            restarts: 0,
            max_passes: 10,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Bit pattern of a solve's result, for exact comparisons.
fn bits(r: &JointHeurResult) -> (Vec<u64>, Vec<Vec<u32>>, u64) {
    let w = r.weights.as_slice().iter().map(|x| x.to_bits()).collect();
    let wp = (0..r.waypoints.len())
        .map(|i| r.waypoints.get(i).iter().map(|v| v.0).collect())
        .collect();
    (w, wp, r.mlu.to_bits())
}

/// Runs the workload.
pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    // One set-up per matrix: topology plus MCF-synthetic demands, each from
    // its own input seed, which also seeds that matrix's weight search.
    let mut gen_ms = Vec::new();
    let mut setup = |seed| {
        let net = by_name("Germany50").ok_or("Germany50 is not embedded")?;
        let t = Instant::now();
        let cfg = TrafficConfig {
            seed,
            pair_fraction: 0.2,
            ..Default::default()
        };
        let demands = mcf_synthetic(&net, &cfg).map_err(|e| e.to_string())?;
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        Ok((seed, net, demands))
    };
    let (setups, mut setup_times) = repeated_setup(rep, args.seed, PANEL, &mut setup)?;
    let net = &setups[0].1;
    let seeds: Vec<u64> = setups.iter().map(|s| s.0).collect();
    let matrices: Vec<&DemandList> = setups.iter().map(|s| &s.2).collect();
    rep.detail("demands", segrout_obs::Json::from(matrices[0].len() as u64));
    let solve =
        |k: usize| joint_heur(net, matrices[k], &config(seeds[k])).map_err(|e| e.to_string());

    // The first solve of each matrix is the reference every later solve
    // (repeat, 1-thread, traced) must reproduce bit for bit; its MLU must
    // match a from-scratch Router evaluation bit for bit.
    let mut reference = Vec::new();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); matrices.len()];
    let mut failed = 0u64;
    let mut repeat_mismatches = 0u64;
    let mut attempted = 0u64;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    while i < matrices.len() || (!args.trace && Instant::now() < deadline) {
        let k = i % matrices.len();
        let t = Instant::now();
        let r = solve(k)?;
        times[k].push(t.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        if k == i {
            let scratch = Router::new(net, &r.weights)
                .evaluate(matrices[k], &r.waypoints)
                .map_err(|e| e.to_string())?;
            let ok = scratch.mlu.to_bits() == r.mlu.to_bits();
            rep.check(&format!("matrix{k}.router_mlu_bit_identical"), ok);
            failed += u64::from(!ok);
            if k > 0 {
                let ok = r.mlu <= PANEL_MLU[k - 1] * (1.0 + QUALITY_TOL);
                rep.check(&format!("matrix{k}.mlu_within_panel_record"), ok);
                failed += u64::from(!ok);
            }
            reference.push(r);
        } else if bits(&r) != bits(&reference[k]) {
            repeat_mismatches += 1;
        }
        if !args.trace {
            drop(setup_times.round(&mut setup)?);
        }
        i += 1;
    }
    let scale = setup_times.report(rep);
    rep.check("repeats_bit_identical", repeat_mismatches == 0);
    failed += repeat_mismatches;

    // The median over every solve of the run: four of the five matrices
    // come from the fixed set-up panel, so the mix barely moves between
    // seeds, and the median shrugs off the slow solves a busy host causes.
    let all: Vec<f64> = times.concat();
    let (optimize_ms, _) = rep.timing("optimize_ms", &all, "ms");
    rep.metric_n("op_ms", optimize_ms * scale, "ms", Some(all.len()));
    // The demands are normalised so the fluid optimum is 1.
    let mlu = stats::mean(&reference.iter().map(|r| r.mlu).collect::<Vec<_>>());
    rep.metric("optimize_mlu", mlu, "ratio");
    let panel_mlu: Vec<f64> = reference[1..].iter().map(|r| r.mlu).collect();
    rep.detail("panel_mlu", Json::from(panel_mlu));
    rep.metric("peak_rss_mb", peak_rss_mb("self"), "MiB");
    rep.detail(
        "op_ms_samples",
        Json::arr(times.iter().map(|t| Json::from(t.clone()))),
    );

    if args.trace {
        // 1-thread solve of matrix 0: determinism across thread counts, and
        // the serial leg of `par.speedup`.
        segrout_par::set_threads(1);
        let t = Instant::now();
        let serial = solve(0)?;
        let serial_ms = t.elapsed().as_secs_f64() * 1e3;
        segrout_par::set_threads(args.threads);
        let ok = bits(&serial) == bits(&reference[0]);
        rep.check("one_thread_bit_identical", ok);
        attempted += 1;
        failed += u64::from(!ok);

        let mut tr = Tracer::new();
        let op = layers::traced_pairs(&mut tr, "algos.joint_heur", |_| solve(0));
        let ok = bits(&op.result?) == bits(&reference[0]);
        rep.check("traced_bit_identical", ok);
        attempted += 1;
        failed += u64::from(!ok);
        layers::op_counters(&op.delta, rep);
        layers::probe_pool(&mut tr, op.delta.ratio("par.tasks", "par.batches"), rep);

        let invcap = WeightSetting::inverse_capacity(net);
        let inp = Inputs {
            net,
            demands: matrices[0],
            weights: &invcap,
            seed: args.seed,
        };
        let (staged, stage_ms) = layers::probe_stages(&mut tr, &inp, &config(seeds[0]), rep)?;
        let ok = bits(&staged) == bits(&reference[0]);
        rep.check("stage1_weights_bit_identical", ok);
        attempted += 1;
        failed += u64::from(!ok);
        layers::probe_core_graph(&mut tr, &inp, rep)?;
        rep.metric("traffic.gen_ms", stats::median(&gen_ms), "ms");
        rep.metric("par.speedup", serial_ms / op.untraced_ms, "ratio");
        // HeurOSPF + GreedyWPO against the untraced solve they make up.
        layers::overhead_and_residual(rep, op.untraced_ms, op.traced_ms, op.untraced_ms, stage_ms);
        rep.detail("profile", Json::from(segrout_obs::profile_table()));
        rep.spans(tr.to_json());
    }
    rep.ops(attempted, failed);
    Ok(())
}
