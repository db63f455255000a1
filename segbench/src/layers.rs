//! Per-layer probes shared by every workload's traced run. Each probe calls
//! one layer's public functions on the workload's own inputs (topology,
//! demands and start weights), times the calls inside the benchmark's
//! spans, and reads the counter deltas the program already records.

use crate::gen::{sub_seed, weight_candidates};
use crate::trace::{counted, Delta, Tracer};
use crate::{stats, Report};
use segrout_algos::{
    greedy_wpo, heur_ospf, joint_heur, max_concurrent_flow, JointHeurConfig, JointHeurResult,
};
use segrout_core::rng::StdRng;
use segrout_core::{
    DemandList, EdgeId, FailureSet, IncrementalEvaluator, Network, Router, WaypointSetting,
    WeightSetting,
};
use segrout_graph::{
    disable_edge_update, edge_change_affects_dag, shortest_path_dag, update_shortest_path_dag,
};
use std::hint::black_box;
use std::time::Instant;

/// Candidate weight changes probed per workload.
const CANDIDATES: usize = 300;
/// Candidates also committed (probe, then commit).
const COMMITS: usize = 40;
/// Demands rescaled one at a time for `set_workload`.
const RESCALES: usize = 20;

/// The inputs a workload hands to the layer probes.
pub struct Inputs<'a> {
    /// Topology.
    pub net: &'a Network,
    /// Demands.
    pub demands: &'a DemandList,
    /// The workload's start weights.
    pub weights: &'a WeightSetting,
    /// Workload seed (candidate lists derive from it).
    pub seed: u64,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Probes the `core` (incremental, ecmp), `graph` and `algos.mcf` layers
/// on `inp` and records their metrics.
pub fn probe_core_graph(tr: &mut Tracer, inp: &Inputs, rep: &mut Report) -> Result<(), String> {
    let (net, demands, weights) = (inp.net, inp.demands, inp.weights);
    let none = WaypointSetting::none(demands.len());
    let err = |e: segrout_core::TeError| e.to_string();

    // core.incremental: build, probe, commit, probe_disable, set_workload.
    let mut builds = Vec::new();
    let mut ev = None;
    for _ in 0..3 {
        let (r, ms) = tr.span("core.incremental.new", |_| {
            IncrementalEvaluator::new(net, weights, demands, &none)
        });
        builds.push(ms);
        ev = Some(r.map_err(err)?);
    }
    let mut ev = ev.expect("built");
    rep.metric_n(
        "incr.build_ms",
        stats::median(&builds),
        "ms",
        Some(builds.len()),
    );

    let cands = weight_candidates(weights.as_slice(), 20, CANDIDATES, sub_seed(inp.seed, 10));
    let (probe_us, d) = counted(|| {
        tr.span("core.incremental.probe", |_| {
            let mut total = 0.0;
            for &(e, w) in &cands {
                let t = Instant::now();
                black_box(ev.probe(e, w).map(|p| p.mlu).ok());
                total += us(t);
            }
            total / cands.len() as f64
        })
        .0
    });
    rep.metric_n("incr.probe_us", probe_us, "us", Some(cands.len()));
    let dirty = d.get("incr.dirty_dests");
    let clean = d.get("incr.clean_dests");
    rep.metric(
        "incr.dirty_frac",
        dirty as f64 / (dirty + clean).max(1) as f64,
        "fraction",
    );
    let reuses = d.get("arena.reuses");
    rep.metric(
        "arena.reuse_frac",
        reuses as f64 / (reuses + d.get("arena.rebuilds")).max(1) as f64,
        "fraction",
    );

    let commit_us = tr
        .span("core.incremental.commit", |_| -> Result<f64, String> {
            let mut total = 0.0;
            for &(e, w) in &cands[..COMMITS] {
                let p = ev.probe(e, w).map_err(err)?;
                let t = Instant::now();
                ev.commit(p);
                total += us(t);
            }
            Ok(total / COMMITS as f64)
        })
        .0?;
    rep.metric_n("incr.commit_us", commit_us, "us", Some(COMMITS));

    let singles = FailureSet::enumerate(net, false);
    let base = IncrementalEvaluator::new(net, weights, demands, &none).map_err(err)?;
    let (disable_us, _) = tr.span("core.incremental.probe_disable", |_| {
        let mut total = 0.0;
        for p in singles.patterns() {
            let t = Instant::now();
            black_box(base.probe_disable(&p.dead).map(|p| p.mlu).ok());
            total += us(t);
        }
        total / singles.len().max(1) as f64
    });
    rep.metric_n(
        "incr.probe_disable_us",
        disable_us,
        "us",
        Some(singles.len()),
    );

    let mut rng = StdRng::seed_from_u64(sub_seed(inp.seed, 11));
    let rescaled: Vec<usize> = (0..RESCALES)
        .map(|_| rng.gen_range(0..demands.len() as u64) as usize)
        .collect();
    let mut ev = base;
    let set_us = tr
        .span(
            "core.incremental.set_workload",
            |_| -> Result<f64, String> {
                let mut total = 0.0;
                let mut calls = 0;
                for &idx in &rescaled {
                    let mut scaled = demands.as_slice().to_vec();
                    scaled[idx].size *= 1.5;
                    let scaled = DemandList::from_vec(scaled).map_err(err)?;
                    for list in [&scaled, demands] {
                        let t = Instant::now();
                        ev.set_workload(list, &none).map_err(err)?;
                        total += us(t);
                        calls += 1;
                    }
                }
                Ok(total / f64::from(calls))
            },
        )
        .0?;
    rep.metric_n("incr.set_workload_us", set_us, "us", Some(2 * RESCALES));

    // core.ecmp: one-shot Router build + evaluate.
    let mut evals = Vec::new();
    for _ in 0..3 {
        let (r, ms) = tr.span("core.ecmp.evaluate", |_| {
            Router::new(net, weights)
                .evaluate(demands, &none)
                .map(|r| r.mlu)
        });
        black_box(r.map_err(err)?);
        evals.push(ms);
    }
    rep.metric_n(
        "ecmp.evaluate_ms",
        stats::median(&evals),
        "ms",
        Some(evals.len()),
    );

    // graph: SP-DAG build, repair, affected-destination test, masked repair.
    let g = net.graph();
    let w = weights.as_slice();
    let cap = (net.node_count() / 2).max(8);
    let (dags, _) = tr.span("graph.spdag_build", |_| {
        g.nodes()
            .map(|t| shortest_path_dag(g, w, t))
            .collect::<Vec<_>>()
    });
    let t = Instant::now();
    for target in g.nodes() {
        black_box(shortest_path_dag(g, w, target));
    }
    rep.metric_n(
        "graph.spdag_build_us",
        us(t) / dags.len() as f64,
        "us",
        Some(dags.len()),
    );

    let (affects_ns, _) = tr.span("graph.affects", |_| {
        let t = Instant::now();
        let mut hits = 0usize;
        for &(e, nw) in &cands {
            let (u, v) = g.endpoints(e);
            for dag in &dags {
                hits += usize::from(black_box(edge_change_affects_dag(dag, e, u, v, nw)));
            }
        }
        black_box(hits);
        us(t) * 1e3 / (cands.len() * dags.len()) as f64
    });
    rep.metric_n(
        "graph.affects_ns",
        affects_ns,
        "ns",
        Some(cands.len() * dags.len()),
    );

    let (repair, _) = tr.span("graph.spdag_repair", |_| {
        let mut total = 0.0;
        let mut calls = 0usize;
        let mut w2 = w.to_vec();
        for &(e, nw) in &cands {
            let (u, v) = g.endpoints(e);
            let old = w2[e.index()];
            w2[e.index()] = nw;
            for dag in dags
                .iter()
                .filter(|d| edge_change_affects_dag(d, e, u, v, nw))
            {
                let t = Instant::now();
                black_box(update_shortest_path_dag(g, &w2, dag, e, old, cap));
                total += us(t);
                calls += 1;
            }
            w2[e.index()] = old;
        }
        (total / calls.max(1) as f64, calls)
    });
    rep.metric_n("graph.spdag_repair_us", repair.0, "us", Some(repair.1));

    let (masked, _) = tr.span("graph.masked_repair", |_| {
        let mut total = 0.0;
        let mut calls = 0usize;
        let mut mask = vec![false; g.edge_count()];
        for p in singles.patterns() {
            let e: EdgeId = p.dead[0];
            mask[e.index()] = true;
            for dag in dags.iter().filter(|d| d.edge_on_dag[e.index()]) {
                let t = Instant::now();
                black_box(disable_edge_update(g, w, dag, e, cap, &mask));
                total += us(t);
                calls += 1;
            }
            mask[e.index()] = false;
        }
        (total / calls.max(1) as f64, calls)
    });
    rep.metric_n("graph.masked_repair_us", masked.0, "us", Some(masked.1));

    // algos.mcf: the Garg–Könemann bound on the same demands.
    let (mcf, ms) = tr.span("algos.mcf", |_| max_concurrent_flow(net, demands, 0.08));
    black_box(mcf.map_err(err)?);
    rep.metric("mcf.ms", ms, "ms");
    Ok(())
}

/// Times the stages of JOINT-Heur one public call at a time on `inp`:
/// HeurOSPF (stage 1), GreedyWPO under its weights (stage 2) and, when the
/// configuration asks for it, HeurOSPF again on the segment-expanded
/// demands (stage 3). Records `heurospf.ms` (stages 1 + 3), `greedywpo.ms`,
/// the HeurOSPF iteration count and the GreedyWPO acceptance ratio, then
/// runs `joint_heur` with the stage-1 weights supplied and returns its
/// result (bit-identical to a plain solve) with the summed stage time.
pub fn probe_stages(
    tr: &mut Tracer,
    inp: &Inputs,
    cfg: &JointHeurConfig,
    rep: &mut Report,
) -> Result<(JointHeurResult, f64), String> {
    let err = |e: segrout_core::TeError| e.to_string();
    let (net, demands) = (inp.net, inp.demands);
    let (stages, d) = counted(|| -> Result<_, String> {
        let (omega, stage1_ms) = tr.span("algos.heur_ospf", |_| heur_ospf(net, demands, &cfg.ospf));
        let (wp, wpo_ms) = tr.span("algos.greedy_wpo", |_| {
            greedy_wpo(net, demands, &omega, &cfg.wpo)
        });
        let wp = wp.map_err(err)?;
        let mut ho_ms = stage1_ms;
        if cfg.second_weight_pass {
            let mut expanded = DemandList::new();
            for (i, d) in demands.iter().enumerate() {
                for (s, t, size) in wp.segments_of(i, d) {
                    expanded.push(s, t, size);
                }
            }
            let (_, ms) = tr.span("algos.heur_ospf", |_| heur_ospf(net, &expanded, &cfg.ospf));
            ho_ms += ms;
        }
        Ok((omega, ho_ms, wpo_ms))
    });
    let (omega, ho_ms, wpo_ms) = stages?;
    let staged = JointHeurConfig {
        stage1_weights: Some(omega),
        ..cfg.clone()
    };
    let (r, _) = tr.span("algos.joint_heur", |_| joint_heur(net, demands, &staged));
    rep.metric("heurospf.ms", ho_ms, "ms");
    rep.metric("greedywpo.ms", wpo_ms, "ms");
    rep.metric(
        "heurospf.iterations",
        d.get("heurospf.iterations") as f64,
        "count",
    );
    rep.metric(
        "greedywpo.accept_frac",
        d.ratio("greedywpo.waypoints_set", "greedywpo.candidates_evaluated"),
        "fraction",
    );
    Ok((r.map_err(err)?, ho_ms + wpo_ms))
}

/// Records the per-operation counter metrics of one traced operation:
/// Dijkstra and ECMP work, pool batches and worker wait, LP/MILP work.
pub fn op_counters(d: &Delta, rep: &mut Report) {
    rep.metric("ecmp.recomputes", d.get("ecmp.recomputes") as f64, "count");
    rep.metric("dijkstra.runs", d.get("dijkstra.runs") as f64, "count");
    rep.metric(
        "dijkstra.relaxations",
        d.get("dijkstra.relaxations") as f64,
        "count",
    );
    rep.metric(
        "par.tasks_per_batch",
        d.ratio("par.tasks", "par.batches"),
        "count",
    );
    // The pool's wait histogram times how long workers park between jobs.
    // Its buckets are too coarse for a p50 that moves between runs, so the
    // mean comes from its count and sum.
    let wait_ms = d.hist_mean("par.steal_or_queue_wait");
    rep.metric("par.worker_wait_mean_us", wait_ms * 1e3, "us");
    rep.metric("simplex.pivots", d.get("simplex.pivots") as f64, "count");
    rep.metric(
        "simplex.refactorizations",
        d.get("simplex.refactorizations") as f64,
        "count",
    );
    rep.metric(
        "simplex.warm_start_frac",
        d.ratio("simplex.warm_starts", "simplex.solves"),
        "fraction",
    );
    rep.metric("milp.nodes", d.get("milp.nodes") as f64, "count");
    rep.detail("op_counters", d.to_json());
}

/// Times one pool dispatch of `tasks` no-op tasks (the operation's mean
/// batch size), recording `par.batch_us`.
pub fn probe_pool(tr: &mut Tracer, tasks: f64, rep: &mut Report) {
    let n = (tasks.round() as usize).max(1);
    const REPS: usize = 200;
    let (per, _) = tr.span("par.par_map", |_| {
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(segrout_par::par_map(n, black_box::<usize>));
        }
        us(t) / REPS as f64
    });
    rep.metric_n("par.batch_us", per, "us", Some(REPS));
}

/// Untraced/traced repetitions of an operation in a traced run.
const TRACE_PAIRS: usize = 2;

/// One operation timed without and with tracing.
pub struct TracedOp<R> {
    /// Result of the last traced repetition.
    pub result: R,
    /// Counter deltas of the last traced repetition.
    pub delta: Delta,
    /// Median untraced wall time, ms.
    pub untraced_ms: f64,
    /// Median traced wall time, ms.
    pub traced_ms: f64,
    /// Wall time of the last traced repetition (the one `result` and
    /// `delta` come from), ms.
    pub last_traced_ms: f64,
}

/// Runs `op` [`TRACE_PAIRS`] times untraced and as often traced (inside a
/// benchmark span named `name`, with the program's span profiler on),
/// alternating, so a slow stretch of the host does not land on one side.
pub fn traced_pairs<R>(
    tr: &mut Tracer,
    name: &'static str,
    mut op: impl FnMut(&mut Tracer) -> R,
) -> TracedOp<R> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..TRACE_PAIRS {
        let t = Instant::now();
        black_box(op(&mut Tracer::new()));
        plain.push(t.elapsed().as_secs_f64() * 1e3);
        segrout_obs::set_profiling(true);
        let ((r, ms), d) = counted(|| tr.span(name, &mut op));
        segrout_obs::set_profiling(false);
        traced.push(ms);
        last = Some((r, d));
    }
    let (result, delta) = last.expect("at least one pair");
    TracedOp {
        result,
        delta,
        untraced_ms: stats::median(&plain),
        traced_ms: stats::median(&traced),
        last_traced_ms: traced[traced.len() - 1],
    }
}

/// Records the traced-versus-untraced comparison and the layer-sum
/// residual of one workload.
pub fn overhead_and_residual(
    rep: &mut Report,
    untraced_ms: f64,
    traced_ms: f64,
    e2e_ms: f64,
    layer_sum_ms: f64,
) {
    rep.metric("trace.op_ms", traced_ms, "ms");
    rep.metric("trace.overhead_ms", traced_ms - untraced_ms, "ms");
    rep.metric(
        "trace.overhead_frac",
        (traced_ms - untraced_ms) / untraced_ms,
        "fraction",
    );
    rep.metric("layer_sum_ms", layer_sum_ms, "ms");
    rep.metric("residual.layer_sum_ms", e2e_ms - layer_sum_ms, "ms");
    rep.metric(
        "residual.layer_sum_frac",
        (e2e_ms - layer_sum_ms) / e2e_ms,
        "fraction",
    );
}
