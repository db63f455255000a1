//! `exact`: `joint_milp` to proven optimum on TE-Instance 1 with
//! m in {4, 5, 6}, plus the OPT-MLU LP on Abilene with seeded
//! MCF-synthetic demands. Closed loop, serial: one exact set after another.
//! The only workload that uses the `lp`/`milp` layers; the incremental
//! engine and the pool idle here.

use crate::layers::{self, Inputs};
use crate::trace::Tracer;
use crate::{peak_rss_mb, repeated_setup, stats, Args, Report};
use segrout_algos::{HeurOspfConfig, JointHeurConfig};
use segrout_core::{DemandList, Network, Router, WaypointSetting, WeightSetting};
use segrout_instances::{instance1, PaperInstance};
use segrout_milp::{joint_milp, opt_mlu_lp, JointMilpOptions};
use segrout_obs::Json;
use segrout_topo::by_name;
use segrout_traffic::{mcf_synthetic, TrafficConfig};
use std::time::Instant;

/// TE-Instance 1 sizes solved to optimality.
const SIZES: [usize; 3] = [4, 5, 6];

/// Inputs of the exact set.
struct Set {
    instances: Vec<PaperInstance>,
    abilene: Network,
    demands: DemandList,
    /// MLU of inverse-capacity routing on Abilene: an upper bound the LP
    /// optimum may not exceed.
    heuristic_mlu: f64,
}

/// Outcome of one exact solve: MLU bits, B&B nodes, time.
struct Solve {
    mlu: f64,
    nodes: usize,
    ms: f64,
    ok: bool,
}

/// Solves the whole set once, each solve inside its own span.
fn solve_set(set: &Set, tr: &mut Tracer) -> Result<Vec<Solve>, String> {
    let mut out = Vec::new();
    for inst in &set.instances {
        let (r, ms) = tr.span("milp.joint_milp", |_| {
            joint_milp(&inst.network, &inst.demands, &JointMilpOptions::default())
        });
        let r = r.map_err(|e| e.to_string())?;
        let ok =
            r.status == segrout_lp::MilpStatus::Optimal && (r.mlu - inst.joint_mlu).abs() <= 1e-6;
        out.push(Solve {
            mlu: r.mlu,
            nodes: r.nodes,
            ms,
            ok,
        });
    }
    let (lp, ms) = tr.span("milp.opt_mlu_lp", |_| {
        opt_mlu_lp(&set.abilene, &set.demands)
    });
    let lp = lp.map_err(|e| e.to_string())?;
    out.push(Solve {
        mlu: lp.objective,
        nodes: 0,
        ms,
        ok: lp.objective.is_finite() && lp.objective <= set.heuristic_mlu + 1e-9,
    });
    Ok(out)
}

/// Whether each solve of a repeated set agrees with the first set: the
/// MILP optima bit for bit, the LP optimum to 1e-9 relative. The second
/// value is whether the LP optimum differed in its bits: the OPT LP is
/// assembled through hash maps whose order changes between solves, so
/// its last bits may too.
fn repeat_agrees(solves: &[Solve], reference: &[f64]) -> (Vec<bool>, bool) {
    let (milp, lp) = (&solves[..SIZES.len()], &solves[SIZES.len()]);
    let mut ok: Vec<bool> = milp
        .iter()
        .zip(reference)
        .map(|(s, &r)| s.mlu.to_bits() == r.to_bits())
        .collect();
    let r = reference[SIZES.len()];
    ok.push((lp.mlu - r).abs() <= 1e-9 * r.abs());
    (ok, lp.mlu.to_bits() != r.to_bits())
}

/// Runs the workload.
pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let mut gen_ms = Vec::new();
    let mut setup = |seed| {
        let instances = SIZES.iter().map(|&m| instance1(m)).collect();
        let abilene = by_name("Abilene").ok_or("Abilene is not embedded")?;
        let t = Instant::now();
        let cfg = TrafficConfig {
            seed,
            ..Default::default()
        };
        let demands = mcf_synthetic(&abilene, &cfg).map_err(|e| e.to_string())?;
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let invcap = WeightSetting::inverse_capacity(&abilene);
        let heuristic_mlu = Router::new(&abilene, &invcap)
            .evaluate(&demands, &WaypointSetting::none(demands.len()))
            .map_err(|e| e.to_string())?
            .mlu;
        Ok(Set {
            instances,
            abilene,
            demands,
            heuristic_mlu,
        })
    };
    let (mut setups, mut setup_times) = repeated_setup(rep, args.seed, 0, &mut setup)?;
    let set = setups.swap_remove(0);

    let mut untraced = Tracer::new();
    let mut times = Vec::new();
    let mut solve_ms: Vec<Vec<f64>> = Vec::new();
    let mut reference: Option<Vec<f64>> = None;
    let mut lp_bit_mismatches = 0u64;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut last = Vec::new();
    while times.is_empty() || (!args.trace && Instant::now() < deadline) {
        let t = Instant::now();
        let solves = solve_set(&set, &mut untraced)?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        solve_ms.resize(solves.len(), Vec::new());
        for (acc, s) in solve_ms.iter_mut().zip(&solves) {
            acc.push(s.ms);
        }
        let reference = reference.get_or_insert_with(|| solves.iter().map(|s| s.mlu).collect());
        let (ok, lp_ulps) = repeat_agrees(&solves, reference);
        lp_bit_mismatches += u64::from(lp_ulps);
        attempted += solves.len() as u64;
        failed += solves
            .iter()
            .zip(&ok)
            .filter(|(s, &same)| !s.ok || !same)
            .count() as u64;
        last = solves;
        if !args.trace {
            drop(setup_times.round(&mut setup)?);
        }
    }
    let scale = setup_times.report(rep);
    let proven = last.iter().take(SIZES.len()).all(|s| s.ok);
    rep.check("milp_proven_optimal_at_known_optimum", proven);
    rep.check("opt_lp_at_most_heuristic_mlu", last[SIZES.len()].ok);

    // The set's time as the sum of each solve's median: a slow stretch of
    // the host during one solve does not move the others.
    let exact_ms: f64 = solve_ms.iter().map(|t| stats::median(t)).sum();
    rep.metric_n("exact_ms", exact_ms, "ms", Some(times.len()));
    rep.metric_n("op_ms", exact_ms * scale, "ms", Some(times.len()));
    rep.timing("exact_set_ms", &times, "ms");
    rep.metric("peak_rss_mb", peak_rss_mb("self"), "MiB");
    rep.detail(
        "milp_nodes",
        Json::arr(last.iter().take(SIZES.len()).map(|s| s.nodes as u64)),
    );
    rep.detail("opt_lp_mlu", Json::from(last[SIZES.len()].mlu));
    rep.detail("heuristic_mlu", Json::from(set.heuristic_mlu));
    rep.detail("op_ms_samples", Json::from(times.clone()));

    if args.trace {
        let mut tr = Tracer::new();
        let op = layers::traced_pairs(&mut tr, "exact.set", |tr| solve_set(&set, tr));
        let d = op.delta;
        let solves = op.result?;
        let reference = reference.expect("one set solved");
        let (ok, lp_ulps) = repeat_agrees(&solves, &reference);
        lp_bit_mismatches += u64::from(lp_ulps);
        rep.check("traced_agrees", ok.iter().all(|&x| x));
        attempted += solves.len() as u64;
        failed += solves
            .iter()
            .zip(&ok)
            .filter(|(s, &same)| !s.ok || !same)
            .count() as u64;
        layers::op_counters(&d, rep);
        layers::probe_pool(&mut tr, d.ratio("par.tasks", "par.batches").max(1.0), rep);
        let (milp, lp) = solves.split_at(SIZES.len());
        let milp_ms: f64 = milp.iter().map(|s| s.ms).sum();
        let nodes: usize = milp.iter().map(|s| s.nodes).sum();
        rep.metric("milp.node_us", milp_ms * 1e3 / nodes.max(1) as f64, "us");
        rep.metric("lp.solve_ms", lp[0].ms, "ms");

        segrout_par::set_threads(1);
        let t = Instant::now();
        let serial = solve_set(&set, &mut Tracer::new())?;
        let serial_ms = t.elapsed().as_secs_f64() * 1e3;
        segrout_par::set_threads(args.threads);
        let (ok, lp_ulps) = repeat_agrees(&serial, &reference);
        lp_bit_mismatches += u64::from(lp_ulps);
        rep.check("one_thread_agrees", ok.iter().all(|&x| x));
        rep.metric("par.speedup", serial_ms / op.untraced_ms, "ratio");

        let invcap = WeightSetting::inverse_capacity(&set.abilene);
        let inp = Inputs {
            net: &set.abilene,
            demands: &set.demands,
            weights: &invcap,
            seed: args.seed,
        };
        let cfg = JointHeurConfig {
            ospf: HeurOspfConfig {
                seed: args.seed,
                restarts: 0,
                max_passes: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        layers::probe_stages(&mut tr, &inp, &cfg, rep)?;
        layers::probe_core_graph(&mut tr, &inp, rep)?;
        rep.metric("traffic.gen_ms", stats::median(&gen_ms), "ms");
        // The traced set's solve spans against the set span holding them.
        let layer_sum: f64 = solves.iter().map(|s| s.ms).sum();
        layers::overhead_and_residual(
            rep,
            op.untraced_ms,
            op.traced_ms,
            op.last_traced_ms,
            layer_sum,
        );
        rep.detail("profile", Json::from(segrout_obs::profile_table()));
        rep.spans(tr.to_json());
    }
    rep.detail("lp_repeat_bit_mismatches", Json::from(lp_bit_mismatches));
    rep.ops(attempted, failed);
    Ok(())
}
