//! `sweep`: every single and double link failure of Germany50 times a
//! ladder of demand scalings, answered by read-only edge-disable probes —
//! what `segrout sweep --doubles --scalings 0.8,1.0,1.2` runs. Gravity
//! demands, inverse-capacity weights. Closed loop: one sweep after another.

use crate::layers::{self, Inputs};
use crate::trace::Tracer;
use crate::{peak_rss_mb, repeated_setup, stats, Args, Report};
use segrout_algos::{HeurOspfConfig, JointHeurConfig};
use segrout_core::{
    sweep_failures, DemandList, EdgeId, FailureSet, Network, Router, ScenarioOutcome, SweepReport,
    WaypointSetting, WeightSetting,
};
use segrout_obs::Json;
use segrout_topo::by_name;
use segrout_traffic::{gravity, TrafficConfig};
use std::time::Instant;

/// Demand scalings crossed with every failure pattern.
const SCALINGS: [f64; 3] = [0.8, 1.0, 1.2];

/// Fixed-panel gravity matrices swept per run, next to the workload seed's.
const PANEL: usize = 4;

/// Worst-case MLU of each fixed-panel matrix's sweep when the benchmark was
/// written. The sweep is an exact computation, so a certificate that moves
/// by more than rounding from its panel value fails the run.
const PANEL_WORST_MLU: [f64; PANEL] = [
    11.504674040624717,
    30.660083024529936,
    8.214448971273374,
    29.916604456136305,
];
/// Relative difference from [`PANEL_WORST_MLU`] treated as rounding.
const PANEL_TOL: f64 = 1e-9;

/// Bit signature of a sweep: every scenario's MLU (disconnects as NaN
/// bits) plus the certificate.
fn signature(r: &SweepReport) -> Vec<u64> {
    let mut v: Vec<u64> = r.mlu_distribution().iter().map(|x| x.to_bits()).collect();
    v.push(r.scenarios as u64);
    v.push(r.worst.as_ref().map_or(0, |w| w.mlu.to_bits()));
    v
}

/// Re-routes the certificate's scenario from scratch on a copy of the
/// network with the dead edges physically deleted, and compares MLU bits.
fn certificate_matches(
    net: &Network,
    w: &WeightSetting,
    demands: &DemandList,
    r: &SweepReport,
) -> bool {
    let Some(cert) = &r.worst else {
        return false;
    };
    let mut b = Network::builder(net.node_count());
    let mut kept: Vec<EdgeId> = Vec::new();
    for (e, u, v) in net.graph().edges() {
        if !cert.dead.contains(&e) {
            b.link(u, v, net.capacity(e));
            kept.push(e);
        }
    }
    let Ok(net2) = b.build() else {
        return false;
    };
    let Ok(w2) = WeightSetting::new(&net2, kept.iter().map(|&e| w.get(e)).collect()) else {
        return false;
    };
    let mut scaled = DemandList::new();
    for d in demands.iter() {
        scaled.push(d.src, d.dst, d.size * cert.scale);
    }
    Router::new(&net2, &w2)
        .evaluate(&scaled, &WaypointSetting::none(scaled.len()))
        .is_ok_and(|rep| rep.mlu.to_bits() == cert.mlu.to_bits())
}

/// Runs the workload.
pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    // One set-up per gravity matrix, each from its own input seed; sweeps
    // cycle through them.
    let mut gen_ms = Vec::new();
    let mut setup = |seed| {
        let net = by_name("Germany50").ok_or("Germany50 is not embedded")?;
        let t = Instant::now();
        let cfg = TrafficConfig {
            seed,
            ..Default::default()
        };
        let demands = gravity(&net, &cfg).map_err(|e| e.to_string())?;
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let set = FailureSet::enumerate(&net, true);
        Ok((net, demands, set))
    };
    let (setups, mut setup_times) = repeated_setup(rep, args.seed, PANEL, &mut setup)?;
    let (net, set) = (&setups[0].0, &setups[0].2);
    let weights = WeightSetting::inverse_capacity(net);
    let none = WaypointSetting::none(setups[0].1.len());
    let sweep = |k: usize| {
        sweep_failures(net, &weights, &setups[k].1, &none, set, &SCALINGS)
            .map_err(|e| e.to_string())
    };
    let expected = set.len() * SCALINGS.len();

    // The first sweep of each matrix is checked against a from-scratch
    // route of its certificate; later sweeps must reproduce it bit for bit.
    let mut times = Vec::new();
    let mut first: Vec<SweepReport> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut cert_ok = true;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut i = 0usize;
    while i < setups.len() || (!args.trace && Instant::now() < deadline) {
        let k = i % setups.len();
        let t = Instant::now();
        let r = sweep(k)?;
        times.push(t.elapsed().as_secs_f64() * 1e3);
        let count_ok = r.scenarios == expected
            && r.results.len() == expected
            && r.evaluated + r.disconnects == expected;
        let ok = count_ok
            && if k == i {
                let cert = certificate_matches(net, &weights, &setups[k].1, &r);
                cert_ok &= cert;
                let worst = r.worst.as_ref().map_or(f64::NAN, |w| w.mlu);
                let recorded = k == 0 || {
                    let want = PANEL_WORST_MLU[k - 1];
                    (worst - want).abs() <= PANEL_TOL * want
                };
                rep.check(
                    &format!("matrix{k}.worst_mlu_matches_panel_record"),
                    recorded,
                );
                cert && recorded
            } else {
                signature(&first[k]) == signature(&r)
            };
        attempted += r.scenarios as u64;
        failed += if ok { 0 } else { r.scenarios as u64 };
        if k == i {
            first.push(r);
        }
        if !args.trace {
            drop(setup_times.round(&mut setup)?);
        }
        i += 1;
    }
    let scale = setup_times.report(rep);
    rep.check("worst_certificate_matches_deleted_topology", cert_ok);
    rep.check(
        "scenario_count_is_patterns_x_scalings",
        first.iter().all(|r| r.scenarios == expected),
    );

    let (sweep_ms, _) = rep.timing("sweep_ms", &times, "ms");
    rep.metric_n("op_ms", sweep_ms * scale, "ms", Some(times.len()));
    rep.metric_n(
        "sweep_scen_per_s",
        expected as f64 / (sweep_ms / 1e3),
        "1/s",
        Some(times.len()),
    );
    let r0 = &first[0];
    // Failure degradation: each routable scenario's MLU against the intact
    // network's at the same demand scaling, averaged over the scenarios.
    let degradation: Vec<f64> = r0
        .results
        .iter()
        .filter_map(|s| match s.outcome {
            ScenarioOutcome::Evaluated { mlu, .. } => Some(mlu / r0.base_mlu[s.scaling]),
            _ => None,
        })
        .collect();
    rep.metric_n(
        "sweep_degradation",
        stats::mean(&degradation),
        "ratio",
        Some(degradation.len()),
    );
    let worst = r0.worst.as_ref().expect("certificate checked");
    rep.metric("sweep_worst_mlu", worst.mlu, "ratio");
    rep.metric("peak_rss_mb", peak_rss_mb("self"), "MiB");
    rep.detail("scenarios", Json::from(expected as u64));
    rep.detail("op_ms_samples", Json::from(times.clone()));
    rep.detail("patterns", Json::from(set.len() as u64));
    let panel_worst: Vec<f64> = first[1..]
        .iter()
        .map(|r| r.worst.as_ref().map_or(f64::NAN, |w| w.mlu))
        .collect();
    rep.detail("panel_worst_mlu", Json::from(panel_worst));
    rep.detail("disconnects", Json::from(r0.disconnects as u64));
    rep.detail(
        "worst_pattern",
        Json::from(set.pattern_label(net, worst.pattern)),
    );

    if args.trace {
        segrout_par::set_threads(1);
        let t = Instant::now();
        let serial = sweep(0)?;
        let serial_ms = t.elapsed().as_secs_f64() * 1e3;
        segrout_par::set_threads(args.threads);
        let ok = signature(&serial) == signature(r0);
        rep.check("one_thread_bit_identical", ok);
        attempted += expected as u64;
        failed += if ok { 0 } else { expected as u64 };

        let mut tr = Tracer::new();
        let op = layers::traced_pairs(&mut tr, "core.sweep_failures", |_| sweep(0));
        let ok = signature(&op.result?) == signature(r0);
        rep.check("traced_bit_identical", ok);
        attempted += expected as u64;
        failed += if ok { 0 } else { expected as u64 };
        layers::op_counters(&op.delta, rep);
        layers::probe_pool(&mut tr, op.delta.ratio("par.tasks", "par.batches"), rep);
        let inp = Inputs {
            net,
            demands: &setups[0].1,
            weights: &weights,
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
        rep.metric("par.speedup", serial_ms / op.untraced_ms, "ratio");
        // Serial layer work of one sweep: an evaluator build per scaling
        // plus one disable probe per scenario, against the 1-thread sweep.
        let layer_sum = SCALINGS.len() as f64 * rep.get("incr.build_ms")
            + expected as f64 * rep.get("incr.probe_disable_us") / 1e3;
        layers::overhead_and_residual(rep, op.untraced_ms, op.traced_ms, serial_ms, layer_sum);
        rep.detail("profile", Json::from(segrout_obs::profile_table()));
        rep.spans(tr.to_json());
    }
    rep.ops(attempted, failed);
    Ok(())
}
