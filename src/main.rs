//! The `segrout` command-line tool: optimize embedded or parsed topologies,
//! inspect the paper's worst-case instances, and evaluate weight settings.
//!
//! ```text
//! segrout topo list
//! segrout topo show Abilene
//! segrout optimize --topology Abilene --traffic mcf --seed 3 --algorithm joint
//! segrout gaps --instance 1 --m 16
//! segrout parse --sndlib network.xml
//! ```

use segrout::algos::{
    greedy_wpo, greedy_wpo_robust, heur_ospf, heur_ospf_failure_robust, heur_ospf_robust,
    joint_heur, joint_heur_robust, GreedyWpoConfig, HeurOspfConfig, JointHeurConfig, ServeConfig,
    ServeEvent, ServeResponse, ServeSession, MAX_EVENT_LINE_BYTES,
};
use segrout::core::{
    evaluate_robust, sweep_failures, EdgeId, FailureSet, Network, NodeId, RobustObjective, Router,
    UtilizationReport, WaypointSetting, WeightSetting,
};
use segrout::instances::{instance1, instance2, instance3, instance4, instance5, PaperInstance};
use segrout::topo::{by_name, parse_graphml, parse_sndlib_xml, TOPOLOGY_NAMES};
use segrout::traffic::{
    diurnal_set, drifting_set, gravity, gravity_perturbation_set, mcf_synthetic, TrafficConfig,
};
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let flags = parse_flags(&args[1..]);
    if let Err(e) = init_observability(&flags) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if cmd == "report" {
        // Comparison verdicts get their own exit code (2 = regression) and
        // never print the usage banner.
        return match cmd_report(&args[1..], &flags) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(2),
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match cmd.as_str() {
        "topo" => cmd_topo(&args[1..]),
        "optimize" => cmd_optimize(&flags),
        "serve" => cmd_serve(&flags),
        "sweep" => cmd_sweep(&flags),
        "gaps" => cmd_gaps(&flags),
        "parse" => cmd_parse(&flags),
        "fuzz" => cmd_fuzz(&flags),
        "catalog" => cmd_catalog(&flags),
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    // Flight-recorder artifacts (trace, collapsed-stack profile, run.json)
    // are written for successful runs only — a failed command has nothing
    // worth archiving and its artifact would shadow the previous good one.
    let result = result.and_then(|()| finish_flight_recorder(cmd, &flags));
    // Final telemetry: metric records go to the JSONL sink (the stderr
    // pretty-printer ignores records), then everything is flushed.
    segrout::obs::dump_metrics();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "segrout — traffic engineering with joint link weight and segment optimization

USAGE:
  segrout topo list
  segrout topo show <name>
  segrout optimize --topology <name> [--traffic mcf|gravity] [--seed N]
                   [--algorithm unit|invcap|heurospf|greedywpo|joint] [--pairs F] [--top K]
                   [--restarts N] [--passes N]
                   [--demand-set diurnal[:K]|perturb[:K]|drift[:K]] [--robust worst|q<value>]
                   robust multi-matrix mode: optimize one configuration
                   against a set of K traffic matrices (default 4) under the
                   worst-case or quantile objective (default worst)
                   [--save <config-file>] [--load <config-file>]
  segrout serve --topology <name> [--traffic mcf|gravity] [--seed N] [--pairs F]
                [--algorithm unit|invcap|heurospf|greedywpo|joint] [--load <config-file>]
                [--restarts N] [--passes N] [--budget K] [--slo-ms MS]
                [--reopt-ratio R] [--escalate-ratio R]
                [--events <file.jsonl> | --listen <addr:port>]
                online reoptimization daemon: optimize an initial configuration,
                then read JSONL events (stdin by default) — demand scaling,
                matrix replacement, link up/down, capacity changes — and answer
                each with a tiered policy (probe / budgeted local search /
                full-budget escalation), emitting one JSON response per event
                on stdout with the minimal-churn weight diff; --budget caps
                weight changes per local reopt (default 3), --slo-ms sets the
                per-event latency SLO (default 50, 0 disables); an
                {{\"event\":\"shutdown\"}} line stops the daemon
  segrout sweep --topology <name> [--traffic mcf|gravity] [--seed N] [--pairs F]
                [--algorithm unit|invcap|heurospf|greedywpo|joint|failrobust]
                [--doubles] [--scalings 0.8,1.0,1.2] [--robust worst|q<value>]
                [--restarts N] [--passes N] [--sweep-out <file.json>]
                enumerate all single-link (with --doubles also double-link)
                failure scenarios x demand scalings, evaluate each via the
                edge-disable probe engine, and print the MLU distribution
                plus the worst-case certificate; 'failrobust' optimizes the
                weights for the worst surviving scenario before sweeping
  segrout gaps --instance 1|2|3|4|5 [--m N]
  segrout parse (--sndlib <file> | --graphml <file>)
  segrout fuzz [--seed N] [--cases N] [--no-shrink] [--corpus <dir>] [--fast]
               differential fuzzing of the whole optimizer stack; failing
               cases are shrunk to minimal reproducers (default seed 42,
               500 cases; --fast skips the MCF lower-bound check)
  segrout report <old> <new> [--mlu-tol F] [--time-tol F] [--count-tol F]
               compare two run.json artifacts (or JSONL trace/metric files)
               and print a regression verdict table; exit 2 on regression
               (default tolerances: 0.01 / 0.25 / 0.10 relative)
  segrout catalog [--check <file.jsonl>]
               print the metric catalog; with --check, fail when the JSONL
               telemetry contains a metric the catalog does not document

OBSERVABILITY (any command):
  --log-level error|warn|info|debug|trace   stderr event verbosity (default warn)
  --metrics-out <file.jsonl>                write events + final metrics as JSON lines
  --trace-out <file.jsonl>                  record the optimizer convergence trace
                                            (one point per accepted move / B&B
                                            milestone) and write it as JSON lines
  --profile-out <file.txt>                  aggregate spans into a call-tree profile;
                                            write collapsed stacks (flamegraph input)
                                            and print the profile table
  --run-out <file.json>                     write a self-describing run artifact
                                            (provenance + metrics + trace); optimize
                                            defaults to run.json, 'none' disables
  --threads <N>                             worker threads for the parallel optimizer
                                            paths (default: SEGROUT_THREADS, else all
                                            cores; results are identical at any N)"
    );
}

/// Applies the global `--log-level`, `--metrics-out` and `--threads` flags.
fn init_observability(flags: &HashMap<String, String>) -> Result<(), String> {
    // Pin the telemetry epoch now: `elapsed_us` starts its clock at the
    // first observability call, and with the recorder off that could
    // otherwise be as late as artifact-write time (wall_ms ~ 0).
    let _ = segrout::obs::elapsed_us();
    if let Some(level) = flags.get("log-level") {
        let parsed = level
            .parse::<segrout::obs::Level>()
            .map_err(|e| format!("--log-level: {e}"))?;
        segrout::obs::set_level(parsed);
    }
    if let Some(path) = flags.get("metrics-out") {
        segrout::obs::init_jsonl(std::path::Path::new(path))
            .map_err(|e| format!("--metrics-out {path}: {e}"))?;
    }
    if let Some(n) = flags.get("threads") {
        let n: usize = n
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("--threads: expected a positive integer")?;
        segrout::par::set_threads(n);
    }
    // Flight recorder: requesting an output file turns the recorder on; the
    // files themselves are written by `finish_flight_recorder`.
    if flags.contains_key("trace-out") {
        segrout::obs::set_trace_enabled(true);
    }
    if flags.contains_key("profile-out") {
        segrout::obs::set_profiling(true);
    }
    // Record the effective thread count in the run-summary table and in the
    // JSONL telemetry, whichever knob set it.
    segrout::obs::gauge("par.threads").set(segrout::par::threads() as f64);
    Ok(())
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args
                .get(i + 1)
                .filter(|v| !v.starts_with("--"))
                .cloned()
                .unwrap_or_else(|| "true".to_string());
            let consumed = if value == "true" && args.get(i + 1).is_none_or(|v| v.starts_with("--"))
            {
                1
            } else {
                2
            };
            flags.insert(name.to_string(), value);
            i += consumed;
        } else {
            i += 1;
        }
    }
    flags
}

/// Tokens that are not `--flag` names or their values, in order. Mirrors the
/// consumption rule of `parse_flags` (every flag that is followed by a
/// non-`--` token consumes it as its value).
fn positionals(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += if args.get(i + 1).is_some_and(|v| !v.starts_with("--")) {
                2
            } else {
                1
            };
        } else {
            out.push(args[i].clone());
            i += 1;
        }
    }
    out
}

/// Writes the requested flight-recorder outputs: the convergence trace, the
/// collapsed-stack profile (plus its table on stdout), and the run artifact.
fn finish_flight_recorder(cmd: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = flags.get("trace-out") {
        let n = segrout::obs::write_trace_jsonl(Path::new(path))
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
        eprintln!("trace: {n} points written to {path}");
    }
    if let Some(path) = flags.get("profile-out") {
        segrout::obs::write_collapsed_stacks(Path::new(path))
            .map_err(|e| format!("--profile-out {path}: {e}"))?;
        println!("\ncall-tree profile:\n{}", segrout::obs::profile_table());
        eprintln!("profile: collapsed stacks written to {path}");
    }
    // Every optimize run leaves a run.json behind unless told not to; other
    // commands write an artifact only on request.
    let run_out = flags
        .get("run-out")
        .cloned()
        .or_else(|| (cmd == "optimize").then(|| "run.json".to_string()));
    if let Some(path) = run_out.filter(|p| p != "none") {
        let seed = flags.get("seed").and_then(|s| s.parse::<u64>().ok());
        let mut extra: Vec<(&str, segrout::obs::Json)> = Vec::new();
        for key in ["topology", "algorithm", "traffic"] {
            if cmd == "optimize" || cmd == "serve" {
                let default = match key {
                    "topology" => "Abilene",
                    // The daemon's default initial configuration comes from
                    // the weight search alone (waypoints arrive later).
                    "algorithm" if cmd == "serve" => "heurospf",
                    "algorithm" => "joint",
                    _ => "mcf",
                };
                let value = flags.get(key).map(String::as_str).unwrap_or(default);
                extra.push((key, segrout::obs::Json::from(value)));
            }
        }
        segrout::obs::write_run_artifact(Path::new(&path), cmd, seed, &extra)
            .map_err(|e| format!("--run-out {path}: {e}"))?;
        eprintln!("run artifact written to {path}");
    }
    Ok(())
}

/// `segrout report <old> <new>`: compares two run artifacts or JSONL
/// telemetry files. Returns whether any statistic regressed.
fn cmd_report(args: &[String], flags: &HashMap<String, String>) -> Result<bool, String> {
    let pos = positionals(args);
    let [old_path, new_path] = pos.as_slice() else {
        return Err(format!(
            "report needs exactly two files (run.json artifacts or JSONL traces), got {}",
            pos.len()
        ));
    };
    let mut t = segrout::obs::Thresholds::default();
    for (key, slot) in [
        ("mlu-tol", &mut t.mlu_tol as &mut f64),
        ("time-tol", &mut t.time_tol),
        ("count-tol", &mut t.count_tol),
    ] {
        if let Some(v) = flags.get(key) {
            *slot = v
                .parse()
                .ok()
                .filter(|x: &f64| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("--{key}: expected a non-negative number"))?;
        }
    }
    let old = segrout::obs::load_run_stats(Path::new(old_path))?;
    let new = segrout::obs::load_run_stats(Path::new(new_path))?;
    let rows = segrout::obs::compare(&old, &new, t);
    print!("{}", segrout::obs::render_table(&old, &new, &rows));
    let regressed = segrout::obs::any_regressed(&rows);
    if regressed {
        eprintln!("verdict: REGRESSED");
    } else {
        println!("verdict: OK");
    }
    Ok(regressed)
}

/// Every metric the workspace registers, with kind and meaning. `segrout
/// catalog --check` fails when telemetry contains an undocumented name —
/// the drift check that keeps this table honest.
const METRIC_CATALOG: &[(&str, &str, &str)] = &[
    (
        "arena.rebuilds",
        "counter",
        "load-arena prefix-slab (re)folds: construction + dirty commits",
    ),
    (
        "arena.reuses",
        "counter",
        "probes whose load fold started from a cached prefix row",
    ),
    ("check.cases", "counter", "fuzz cases executed"),
    (
        "check.shrink_steps",
        "counter",
        "shrinking steps on failing fuzz cases",
    ),
    (
        "check.violations",
        "counter",
        "invariant violations found by the fuzzer",
    ),
    (
        "dijkstra.relaxations",
        "counter",
        "edge relaxations across all SP computations",
    ),
    (
        "dijkstra.runs",
        "counter",
        "single-source shortest-path computations",
    ),
    ("ecmp.recomputes", "counter", "full ECMP load evaluations"),
    (
        "greedywpo.candidates_evaluated",
        "counter",
        "waypoint candidates probed (demands the bottleneck bound prunes are not probed)",
    ),
    (
        "greedywpo.demands_pruned",
        "counter",
        "demand visits skipped by GreedyWPO's bottleneck bound (no candidate could lower the MLU)",
    ),
    (
        "greedywpo.final_mlu",
        "gauge",
        "MLU after the waypoint stage",
    ),
    (
        "greedywpo.waypoints_set",
        "counter",
        "waypoints accepted by GreedyWPO",
    ),
    (
        "heurospf.best_mlu",
        "gauge",
        "best MLU found by the weight search",
    ),
    (
        "heurospf.iterations",
        "counter",
        "candidate weight evaluations",
    ),
    (
        "heurospf.mlu_trajectory",
        "series",
        "incumbent MLU at every accepted move",
    ),
    (
        "incr.clean_dests",
        "counter",
        "destinations skipped by the incremental engine",
    ),
    (
        "incr.dirty_dests",
        "counter",
        "destinations repaired by the incremental engine",
    ),
    (
        "incr.disable_probes",
        "counter",
        "incremental edge-disable (failure-scenario) probes",
    ),
    ("incr.probes", "counter", "incremental single-edge probes"),
    ("incr.repairs", "counter", "incremental commit repairs"),
    (
        "joint.final_mlu",
        "gauge",
        "MLU of the returned joint configuration",
    ),
    (
        "joint.stage1_mlu",
        "gauge",
        "MLU after the weight stage of JOINT-Heur",
    ),
    (
        "joint.stage2_mlu",
        "gauge",
        "MLU after the waypoint stage of JOINT-Heur",
    ),
    ("lwoapx.runs", "counter", "LWO-APX invocations"),
    ("mcf.augmentations", "counter", "MCF augmenting paths"),
    ("mcf.phases", "counter", "MCF scaling phases"),
    ("milp.nodes", "counter", "branch-and-bound nodes explored"),
    (
        "milp.nodes_warm_started",
        "counter",
        "B&B nodes solved from a parent basis",
    ),
    ("par.batches", "counter", "parallel batch dispatches"),
    (
        "par.steal_or_queue_wait",
        "histogram",
        "worker wait time per batch (ms)",
    ),
    ("par.tasks", "counter", "parallel tasks executed"),
    ("par.threads", "gauge", "effective worker-pool width"),
    (
        "reopt.evaluations",
        "counter",
        "candidate evaluations during re-optimization",
    ),
    (
        "robust.matrices",
        "gauge",
        "traffic matrices in the robust demand set",
    ),
    (
        "robust.matrix_evals",
        "counter",
        "per-matrix probe evaluations in the robust searches",
    ),
    (
        "robust.matrix_mlu",
        "series",
        "per-matrix MLU of the final robust configuration",
    ),
    (
        "robust.objective_mlu",
        "gauge",
        "robust-objective (worst-case/quantile) MLU of the final configuration",
    ),
    (
        "robust.worst_mlu",
        "gauge",
        "worst-case MLU of the final configuration over the demand set",
    ),
    (
        "run.mlu",
        "gauge",
        "final MLU of the evaluated configuration",
    ),
    (
        "serve.errors",
        "counter",
        "serve events rejected with an error reply",
    ),
    (
        "serve.escalations",
        "counter",
        "serve events escalated to the full-budget re-solve",
    ),
    (
        "serve.events",
        "counter",
        "events consumed by the serving loop",
    ),
    (
        "serve.latency_ms",
        "histogram",
        "per-event serving latency (ms)",
    ),
    (
        "serve.local_reopts",
        "counter",
        "serve events answered by the budgeted local search",
    ),
    (
        "serve.mlu",
        "gauge",
        "post-event MLU of the serving session",
    ),
    (
        "serve.probe_only",
        "counter",
        "serve events answered by the probe tier alone",
    ),
    (
        "serve.slo_violations",
        "counter",
        "serve events answered slower than the --slo-ms budget",
    ),
    (
        "serve.weight_churn",
        "counter",
        "link-weight changes deployed across all serve events",
    ),
    ("simplex.pivots", "counter", "simplex pivot operations"),
    (
        "sweep.disconnects",
        "counter",
        "failure scenarios classified as disconnecting",
    ),
    (
        "sweep.scenarios",
        "counter",
        "failure scenarios evaluated by the sweep engine",
    ),
    (
        "sweep.worst_mlu",
        "gauge",
        "worst-case MLU over all evaluated failure scenarios",
    ),
    (
        "simplex.refactorizations",
        "counter",
        "basis refactorizations",
    ),
    ("simplex.solves", "counter", "LP solves"),
    (
        "simplex.warm_starts",
        "counter",
        "LP solves warm-started from a basis",
    ),
];

/// Span names whose `time.<name>` histograms telemetry may contain.
const SPAN_CATALOG: &[&str] = &[
    "check.fuzz",
    "greedywpo",
    "heurospf",
    "joint_heur",
    "lwo_apx",
    "mcf",
    "heurospf_fail",
    "optimize",
    "par.batch",
    "reopt.joint",
    "reopt.weights",
    "serve.event",
    "simplex",
    "sweep",
];

fn cmd_catalog(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = flags.get("check") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut unknown: Vec<String> = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec = segrout::obs::Json::parse(line)
                .map_err(|e| format!("{path}:{}: not valid JSON ({e})", i + 1))?;
            // Only metric records carry a name; events and trace points are
            // schema-checked elsewhere.
            let is_metric = matches!(
                rec["type"].as_str(),
                Some("counter" | "gauge" | "histogram" | "series")
            );
            let Some(name) = rec["name"].as_str().filter(|_| is_metric) else {
                continue;
            };
            let documented = METRIC_CATALOG.iter().any(|(n, _, _)| *n == name)
                || name
                    .strip_prefix("time.")
                    .is_some_and(|span| SPAN_CATALOG.contains(&span));
            if !documented && !unknown.iter().any(|u| u == name) {
                unknown.push(name.to_string());
            }
        }
        if !unknown.is_empty() {
            return Err(format!(
                "metrics-catalog drift: {} undocumented metric(s): {}",
                unknown.len(),
                unknown.join(", ")
            ));
        }
        println!("catalog check passed: every metric in {path} is documented");
        return Ok(());
    }
    println!("{:<34} {:<10} description", "metric", "kind");
    for (name, kind, desc) in METRIC_CATALOG {
        println!("{name:<34} {kind:<10} {desc}");
    }
    for span in SPAN_CATALOG {
        println!("time.{span:<29} histogram  wall-time of the '{span}' span (ms)");
    }
    Ok(())
}

fn cmd_topo(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("list") => {
            for name in TOPOLOGY_NAMES {
                let net = by_name(name).ok_or("embedded topology missing")?;
                println!(
                    "{name:<14} {:>3} nodes, {:>3} directed links",
                    net.node_count(),
                    net.edge_count()
                );
            }
            Ok(())
        }
        Some("show") => {
            let name = args.get(1).ok_or("topo show needs a name")?;
            let net = by_name(name).ok_or_else(|| format!("unknown topology '{name}'"))?;
            println!("{name}:");
            print!("{}", segrout::topo::topology_stats(&net));
            for (e, u, v) in net.graph().edges() {
                println!(
                    "  {} -> {}  {:.0} Mbit/s",
                    net.node_name(u),
                    net.node_name(v),
                    net.capacity(e)
                );
            }
            Ok(())
        }
        _ => Err("topo subcommands: list, show <name>".into()),
    }
}

fn cmd_optimize(flags: &HashMap<String, String>) -> Result<(), String> {
    // Pre-register the core metric catalog so every run reports the same
    // names (zero-valued when a stage did not execute).
    for name in [
        "simplex.pivots",
        "simplex.solves",
        "simplex.refactorizations",
        "simplex.warm_starts",
        "milp.nodes",
        "milp.nodes_warm_started",
        "heurospf.iterations",
        "greedywpo.candidates_evaluated",
        "greedywpo.demands_pruned",
        "greedywpo.waypoints_set",
        "ecmp.recomputes",
        "incr.probes",
        "incr.dirty_dests",
        "incr.clean_dests",
        "incr.repairs",
        "arena.reuses",
        "arena.rebuilds",
        "dijkstra.relaxations",
        "dijkstra.runs",
        "mcf.phases",
        "par.tasks",
        "par.batches",
    ] {
        segrout::obs::counter(name);
    }
    segrout::obs::series("heurospf.mlu_trajectory");

    let topo_name = flags
        .get("topology")
        .map(String::as_str)
        .unwrap_or("Abilene");
    let net = by_name(topo_name).ok_or_else(|| format!("unknown topology '{topo_name}'"))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(1);
    let pairs: f64 = flags
        .get("pairs")
        .map(|s| s.parse().map_err(|_| "bad --pairs"))
        .transpose()?
        .unwrap_or(0.2);
    let cfg = TrafficConfig {
        seed,
        pair_fraction: pairs,
        ..Default::default()
    };
    if let Some(spec) = flags.get("demand-set") {
        return cmd_optimize_robust(flags, &net, topo_name, &cfg, spec);
    }
    let demands = match flags.get("traffic").map(String::as_str).unwrap_or("mcf") {
        "mcf" => mcf_synthetic(&net, &cfg),
        "gravity" => gravity(&net, &cfg),
        other => return Err(format!("unknown traffic model '{other}'")),
    }
    .map_err(|e| e.to_string())?;
    println!(
        "{topo_name}: {} nodes, {} links; {} demands totalling {:.1}",
        net.node_count(),
        net.edge_count(),
        demands.len(),
        demands.total_size()
    );

    let algorithm = flags
        .get("algorithm")
        .map(String::as_str)
        .unwrap_or("joint");
    let ospf = ospf_config(flags, seed)?;
    let (weights, waypoints) = if let Some(path) = flags.get("load") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        segrout::core::read_config(&net, &demands, &text).map_err(|e| e.to_string())?
    } else {
        let _span = segrout::obs::span("optimize");
        run_algorithm(&net, &demands, algorithm, &ospf)?
    };
    if let Some(path) = flags.get("save") {
        let text = segrout::core::write_config(&net, &weights, &waypoints);
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("configuration saved to {path}");
    }
    let router = Router::new(&net, &weights);
    let report = router
        .evaluate(&demands, &waypoints)
        .map_err(|e| e.to_string())?;
    println!("algorithm: {algorithm}");
    println!("MLU: {:.4}", report.mlu);
    let with_wp = (0..demands.len())
        .filter(|&i| !waypoints.get(i).is_empty())
        .count();
    if with_wp > 0 {
        println!("waypointed demands: {with_wp}/{}", demands.len());
    }
    let top: usize = flags
        .get("top")
        .map(|s| s.parse().map_err(|_| "bad --top"))
        .transpose()?
        .unwrap_or(5);
    let util = UtilizationReport::new(&net, &report.loads);
    println!("\nhottest links:\n{}", util.format_top(&net, top));
    segrout::obs::gauge("run.mlu").set(report.mlu);
    println!("\nrun summary:\n{}", segrout::obs::summary_table());
    Ok(())
}

/// `segrout sweep`: enumerates link-failure scenarios, evaluates each one
/// through the edge-disable probe engine, and prints the MLU distribution
/// plus the worst-case certificate. `--sweep-out` writes the full
/// per-scenario record as a schema'd JSON artifact.
fn cmd_sweep(flags: &HashMap<String, String>) -> Result<(), String> {
    // Pre-register the sweep metric catalog so every run reports the same
    // names (zero-valued when nothing fired).
    for name in [
        "sweep.scenarios",
        "sweep.disconnects",
        "incr.disable_probes",
        "incr.probes",
        "ecmp.recomputes",
        "dijkstra.runs",
    ] {
        segrout::obs::counter(name);
    }
    let topo_name = flags
        .get("topology")
        .map(String::as_str)
        .unwrap_or("Abilene");
    let net = by_name(topo_name).ok_or_else(|| format!("unknown topology '{topo_name}'"))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(1);
    let pairs: f64 = flags
        .get("pairs")
        .map(|s| s.parse().map_err(|_| "bad --pairs"))
        .transpose()?
        .unwrap_or(0.2);
    let cfg = TrafficConfig {
        seed,
        pair_fraction: pairs,
        ..Default::default()
    };
    let demands = match flags.get("traffic").map(String::as_str).unwrap_or("mcf") {
        "mcf" => mcf_synthetic(&net, &cfg),
        "gravity" => gravity(&net, &cfg),
        other => return Err(format!("unknown traffic model '{other}'")),
    }
    .map_err(|e| e.to_string())?;

    let doubles = flags.contains_key("doubles");
    let scalings: Vec<f64> = match flags.get("scalings") {
        Some(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x > 0.0)
                    .ok_or_else(|| format!("--scalings: '{s}' is not a positive number"))
            })
            .collect::<Result<_, _>>()?,
        None => vec![1.0],
    };
    let robust = flags
        .get("robust")
        .map(|s| RobustObjective::parse(s))
        .transpose()?
        .unwrap_or(RobustObjective::WorstCase);
    let set = FailureSet::enumerate(&net, doubles);
    println!(
        "{topo_name}: {} nodes, {} directed links ({} undirected); {} demands totalling {:.1}",
        net.node_count(),
        net.edge_count(),
        set.link_count(),
        demands.len(),
        demands.total_size()
    );
    println!(
        "failure set: {} patterns ({}) x {} scaling(s) = {} scenarios",
        set.len(),
        if doubles {
            "singles + doubles"
        } else {
            "singles"
        },
        scalings.len(),
        set.len() * scalings.len()
    );

    let algorithm = flags
        .get("algorithm")
        .map(String::as_str)
        .unwrap_or("heurospf");
    let ospf = ospf_config(flags, seed)?;
    let (weights, waypoints) = {
        let _span = segrout::obs::span("optimize");
        if algorithm == "failrobust" {
            let w = heur_ospf_failure_robust(&net, &demands, &set, robust, &ospf);
            (w, WaypointSetting::none(demands.len()))
        } else {
            run_algorithm(&net, &demands, algorithm, &ospf)?
        }
    };
    println!("algorithm: {algorithm}");

    let rep = {
        let _span = segrout::obs::span("sweep");
        sweep_failures(&net, &weights, &demands, &waypoints, &set, &scalings)
            .map_err(|e| e.to_string())?
    };
    for (i, &s) in rep.scalings.iter().enumerate() {
        println!("intact MLU @ x{s:<5.2} = {:.4}", rep.base_mlu[i]);
    }
    println!(
        "\n{} scenarios: {} evaluated, {} disconnecting",
        rep.scenarios, rep.evaluated, rep.disconnects
    );
    let dist = rep.mlu_distribution();
    if !dist.is_empty() {
        let q = |p: f64| RobustObjective::Quantile(p).aggregate(&dist);
        println!(
            "failure MLU distribution: min {:.4}  p50 {:.4}  p90 {:.4}  p99 {:.4}  max {:.4}",
            dist[0],
            q(0.5),
            q(0.9),
            q(0.99),
            dist[dist.len() - 1]
        );
        println!(
            "objective ({robust:?}) MLU: {:.4}",
            rep.aggregate_mlu(robust).expect("non-empty distribution")
        );
    }
    if let Some(w) = &rep.worst {
        let (u, v) = net.graph().endpoints(w.bottleneck);
        println!(
            "\nworst case: fail {{{}}} @ x{:.2} -> MLU {:.4}",
            set.pattern_label(&net, w.pattern),
            w.scale,
            w.mlu
        );
        println!(
            "  bottleneck {} -> {}: load {:.1} / capacity {:.1}",
            net.node_name(u),
            net.node_name(v),
            w.bottleneck_load,
            net.capacity(w.bottleneck)
        );
        segrout::obs::gauge("run.mlu").set(w.mlu);
    }
    if let Some(path) = flags.get("sweep-out") {
        let artifact = sweep_artifact(&net, topo_name, algorithm, &set, &rep);
        std::fs::write(path, artifact.render()).map_err(|e| format!("{path}: {e}"))?;
        println!("\nsweep artifact written to {path}");
    }
    println!("\nrun summary:\n{}", segrout::obs::summary_table());
    Ok(())
}

/// Renders a [`segrout::core::SweepReport`] as the schema'd sweep artifact
/// (`segrout.sweep/1`): sweep-level aggregates plus one row per scenario.
fn sweep_artifact(
    net: &Network,
    topology: &str,
    algorithm: &str,
    set: &FailureSet,
    rep: &segrout::core::SweepReport,
) -> segrout::obs::Json {
    use segrout::core::ScenarioOutcome;
    use segrout::obs::Json;
    let rows: Vec<Json> = rep
        .results
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("pattern", Json::from(set.pattern_label(net, r.pattern))),
                ("scaling", Json::from(rep.scalings[r.scaling])),
            ];
            match r.outcome {
                ScenarioOutcome::Evaluated {
                    mlu,
                    phi,
                    dirty_dests,
                } => {
                    fields.push(("outcome", Json::from("evaluated")));
                    fields.push(("mlu", Json::from(mlu)));
                    fields.push(("phi", Json::from(phi)));
                    fields.push(("dirty_dests", Json::from(dirty_dests as f64)));
                }
                ScenarioOutcome::Disconnected { src, dst } => {
                    fields.push(("outcome", Json::from("disconnected")));
                    fields.push(("severed_src", Json::from(net.node_name(src))));
                    fields.push(("severed_dst", Json::from(net.node_name(dst))));
                }
            }
            Json::obj(fields)
        })
        .collect();
    let worst = rep.worst.as_ref().map_or(Json::Null, |w| {
        let (u, v) = net.graph().endpoints(w.bottleneck);
        Json::obj([
            ("pattern", Json::from(set.pattern_label(net, w.pattern))),
            ("scaling", Json::from(w.scale)),
            ("mlu", Json::from(w.mlu)),
            (
                "bottleneck",
                Json::from(format!("{} -> {}", net.node_name(u), net.node_name(v))),
            ),
            ("bottleneck_load", Json::from(w.bottleneck_load)),
            (
                "bottleneck_capacity",
                Json::from(net.capacity(w.bottleneck)),
            ),
        ])
    });
    segrout::obs::attach_provenance(Json::obj([
        ("schema", Json::from("segrout.sweep/1")),
        ("topology", Json::from(topology)),
        ("algorithm", Json::from(algorithm)),
        ("links", Json::from(rep.link_count as f64)),
        ("patterns", Json::from(rep.patterns as f64)),
        (
            "scalings",
            Json::arr(rep.scalings.iter().map(|&s| Json::from(s))),
        ),
        ("scenarios", Json::from(rep.scenarios as f64)),
        ("evaluated", Json::from(rep.evaluated as f64)),
        ("disconnects", Json::from(rep.disconnects as f64)),
        (
            "base_mlu",
            Json::arr(rep.base_mlu.iter().map(|&m| Json::from(m))),
        ),
        ("worst", worst),
        ("results", Json::arr(rows)),
    ]))
}

/// Shared `--restarts`/`--passes` parsing for the weight-search stages.
fn ospf_config(flags: &HashMap<String, String>, seed: u64) -> Result<HeurOspfConfig, String> {
    let mut ospf = HeurOspfConfig {
        seed,
        ..Default::default()
    };
    if let Some(r) = flags.get("restarts") {
        ospf.restarts = r.parse().map_err(|_| "bad --restarts")?;
    }
    if let Some(p) = flags.get("passes") {
        ospf.max_passes = p
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("--passes: expected a positive integer")?;
    }
    Ok(ospf)
}

/// `segrout optimize --demand-set <kind>[:K]`: robust multi-matrix mode.
/// Builds a demand set from one of the `segrout-traffic` set generators,
/// optimizes one configuration for the `--robust` objective over every
/// matrix, and reports per-matrix and aggregate results.
fn cmd_optimize_robust(
    flags: &HashMap<String, String>,
    net: &Network,
    topo_name: &str,
    cfg: &TrafficConfig,
    spec: &str,
) -> Result<(), String> {
    segrout::obs::counter("robust.matrix_evals");
    let (kind, count) = match spec.split_once(':') {
        Some((k, c)) => (
            k,
            c.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("--demand-set {spec}: matrix count must be >= 1"))?,
        ),
        None => (spec, 4),
    };
    let set = match kind {
        "diurnal" => diurnal_set(net, cfg, count, 0.6),
        "perturb" => gravity_perturbation_set(net, cfg, count, 0.4),
        "drift" => drifting_set(net, cfg, count, 0.3),
        other => {
            return Err(format!(
                "unknown demand-set kind '{other}' (expected diurnal, perturb or drift)"
            ))
        }
    }
    .map_err(|e| e.to_string())?;
    let robust = flags
        .get("robust")
        .map(|s| RobustObjective::parse(s))
        .transpose()?
        .unwrap_or(RobustObjective::WorstCase);
    segrout::obs::gauge("robust.matrices").set(set.len() as f64);
    println!(
        "{topo_name}: {} nodes, {} links; {} '{kind}' matrices x {} pairs \
         (objective: {robust:?})",
        net.node_count(),
        net.edge_count(),
        set.len(),
        set.pair_count()
    );

    let algorithm = flags
        .get("algorithm")
        .map(String::as_str)
        .unwrap_or("joint");
    let seed = cfg.seed;
    let ospf = ospf_config(flags, seed)?;
    let none = WaypointSetting::none(set.pair_count());
    let (weights, waypoints) = if let Some(path) = flags.get("load") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        segrout::core::read_config(net, set.matrix(0), &text).map_err(|e| e.to_string())?
    } else {
        let _span = segrout::obs::span("optimize");
        match algorithm {
            "unit" => (WeightSetting::unit(net), none),
            "invcap" => (WeightSetting::inverse_capacity(net), none),
            "heurospf" => (heur_ospf_robust(net, &set, robust, &ospf), none),
            "greedywpo" => {
                let w = WeightSetting::inverse_capacity(net);
                let wp = greedy_wpo_robust(net, &set, &w, robust, &GreedyWpoConfig::default())
                    .map_err(|e| e.to_string())?;
                (w, wp)
            }
            "joint" => {
                let r = joint_heur_robust(
                    net,
                    &set,
                    robust,
                    &JointHeurConfig {
                        ospf: ospf.clone(),
                        ..Default::default()
                    },
                )
                .map_err(|e| e.to_string())?;
                (r.weights, r.waypoints)
            }
            other => return Err(format!("unknown algorithm '{other}'")),
        }
    };
    if let Some(path) = flags.get("save") {
        let text = segrout::core::write_config(net, &weights, &waypoints);
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        println!("configuration saved to {path}");
    }

    let rep = evaluate_robust(net, &weights, &set, &waypoints).map_err(|e| e.to_string())?;
    let objective_mlu = rep.aggregate_mlu(robust);
    println!("algorithm: {algorithm}");
    println!("\nper-matrix evaluation:");
    let mlu_series = segrout::obs::series("robust.matrix_mlu");
    for (k, (name, _)) in set.iter().enumerate() {
        println!(
            "  {name:<8} MLU {:>8.4}   Phi {:>12.4}",
            rep.mlus[k], rep.phis[k]
        );
        mlu_series.push(rep.mlus[k]);
        segrout::obs::trace_point("robust.matrix", k as u64, rep.phis[k], rep.mlus[k]);
    }
    println!("objective MLU: {objective_mlu:.4}");
    println!("worst-case MLU: {:.4}", rep.worst_mlu());
    let with_wp = (0..set.pair_count())
        .filter(|&i| !waypoints.get(i).is_empty())
        .count();
    if with_wp > 0 {
        println!("waypointed demands: {with_wp}/{}", set.pair_count());
    }
    segrout::obs::gauge("robust.worst_mlu").set(rep.worst_mlu());
    segrout::obs::gauge("robust.objective_mlu").set(objective_mlu);
    segrout::obs::gauge("run.mlu").set(objective_mlu);
    println!("\nrun summary:\n{}", segrout::obs::summary_table());
    Ok(())
}

fn run_algorithm(
    net: &Network,
    demands: &segrout::core::DemandList,
    algorithm: &str,
    ospf: &HeurOspfConfig,
) -> Result<(WeightSetting, WaypointSetting), String> {
    let none = WaypointSetting::none(demands.len());
    match algorithm {
        "unit" => Ok((WeightSetting::unit(net), none)),
        "invcap" => Ok((WeightSetting::inverse_capacity(net), none)),
        "heurospf" => Ok((heur_ospf(net, demands, ospf), none)),
        "greedywpo" => {
            let w = WeightSetting::inverse_capacity(net);
            let wp = greedy_wpo(net, demands, &w, &GreedyWpoConfig::default())
                .map_err(|e| e.to_string())?;
            Ok((w, wp))
        }
        "joint" => {
            let r = joint_heur(
                net,
                demands,
                &JointHeurConfig {
                    ospf: ospf.clone(),
                    ..Default::default()
                },
            )
            .map_err(|e| e.to_string())?;
            Ok((r.weights, r.waypoints))
        }
        other => Err(format!("unknown algorithm '{other}'")),
    }
}

/// `segrout serve`: the online reoptimization daemon. Optimizes an initial
/// configuration, opens a [`ServeSession`] (one live incremental evaluator,
/// never rebuilt), and answers a JSONL event stream — stdin by default,
/// `--events <file>` for replay, `--listen <addr>` for TCP. stdout carries
/// exactly one JSON response per input line (the protocol); all human
/// output goes to stderr, so replaying the same event log twice produces
/// byte-identical response streams.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    // Pre-register the serving metric catalog so every run reports the same
    // names (zero-valued when a tier never fired).
    for name in [
        "serve.events",
        "serve.errors",
        "serve.probe_only",
        "serve.local_reopts",
        "serve.escalations",
        "serve.slo_violations",
        "serve.weight_churn",
        "reopt.evaluations",
        "incr.probes",
        "incr.dirty_dests",
        "incr.clean_dests",
        "incr.repairs",
        "incr.disable_probes",
        "arena.reuses",
        "arena.rebuilds",
        "ecmp.recomputes",
        "dijkstra.runs",
    ] {
        segrout::obs::counter(name);
    }
    let latency = segrout::obs::histogram("serve.latency_ms", segrout::obs::latency_bounds_ms());
    segrout::obs::gauge("serve.mlu");

    let topo_name = flags
        .get("topology")
        .map(String::as_str)
        .unwrap_or("Abilene");
    let net = by_name(topo_name).ok_or_else(|| format!("unknown topology '{topo_name}'"))?;
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(1);
    let pairs: f64 = flags
        .get("pairs")
        .map(|s| s.parse().map_err(|_| "bad --pairs"))
        .transpose()?
        .unwrap_or(0.2);
    let cfg = TrafficConfig {
        seed,
        pair_fraction: pairs,
        ..Default::default()
    };
    let demands = match flags.get("traffic").map(String::as_str).unwrap_or("mcf") {
        "mcf" => mcf_synthetic(&net, &cfg),
        "gravity" => gravity(&net, &cfg),
        other => return Err(format!("unknown traffic model '{other}'")),
    }
    .map_err(|e| e.to_string())?;

    let algorithm = flags
        .get("algorithm")
        .map(String::as_str)
        .unwrap_or("heurospf");
    let ospf = ospf_config(flags, seed)?;
    let (weights, waypoints) = if let Some(path) = flags.get("load") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        segrout::core::read_config(&net, &demands, &text).map_err(|e| e.to_string())?
    } else {
        let _span = segrout::obs::span("optimize");
        run_algorithm(&net, &demands, algorithm, &ospf)?
    };

    let mut scfg = ServeConfig::default();
    scfg.reopt.ospf = ospf;
    if let Some(b) = flags.get("budget") {
        scfg.reopt.max_weight_changes = b
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or("--budget: expected a positive integer")?;
    }
    if let Some(s) = flags.get("slo-ms") {
        scfg.slo_ms = s
            .parse()
            .ok()
            .filter(|x: &f64| x.is_finite())
            .ok_or("--slo-ms: expected a number (0 disables)")?;
    }
    for (key, slot) in [
        ("reopt-ratio", &mut scfg.reopt_ratio as &mut f64),
        ("escalate-ratio", &mut scfg.escalate_ratio),
    ] {
        if let Some(v) = flags.get(key) {
            *slot = v
                .parse()
                .ok()
                .filter(|x: &f64| x.is_finite() && *x >= 1.0)
                .ok_or_else(|| format!("--{key}: expected a number >= 1"))?;
        }
    }

    let n_demands = demands.len();
    let mut session = ServeSession::new(&net, &weights, demands, waypoints, scfg)
        .map_err(|e| format!("cannot open serving session: {e}"))?;
    eprintln!(
        "serve: {topo_name} ({} nodes, {} links), {n_demands} demands; \
         initial {algorithm} MLU {:.4}; budget {} weight change(s)/reopt, SLO {} ms",
        net.node_count(),
        net.edge_count(),
        session.evaluator().mlu(),
        session.config().reopt.max_weight_changes,
        session.config().slo_ms,
    );

    if let Some(addr) = flags.get("listen") {
        serve_tcp(addr, &mut session)?;
    } else if let Some(path) = flags.get("events") {
        let file = std::fs::File::open(path).map_err(|e| format!("--events {path}: {e}"))?;
        let mut out = std::io::stdout().lock();
        serve_stream(&mut session, std::io::BufReader::new(file), &mut out)?;
    } else {
        let stdin = std::io::stdin().lock();
        let mut out = std::io::stdout().lock();
        serve_stream(&mut session, stdin, &mut out)?;
    }

    let st = *session.stats();
    eprintln!(
        "serve: {} event(s): {} probe-only, {} local reopt(s), {} escalation(s), {} error(s)",
        st.events, st.probe_only, st.local_reopts, st.escalations, st.errors
    );
    eprintln!(
        "serve: total churn {} weight change(s); latency p50 {:.3} ms, p99 {:.3} ms; \
         {} SLO violation(s)",
        st.weight_churn,
        latency.quantile(0.5),
        latency.quantile(0.99),
        st.slo_violations
    );
    segrout::obs::gauge("run.mlu").set(session.evaluator().mlu());
    eprintln!("\nrun summary:\n{}", segrout::obs::summary_table());
    Ok(())
}

/// Feeds one JSONL event stream through the session, writing one response
/// line per input line. Returns `true` when a shutdown event arrived.
///
/// Lines are read as bytes: a line that is not UTF-8, or longer than
/// [`MAX_EVENT_LINE_BYTES`], gets an error reply like any other malformed
/// event, and the session state is left untouched.
fn serve_stream<R: std::io::BufRead, W: std::io::Write>(
    session: &mut ServeSession<'_>,
    mut input: R,
    out: &mut W,
) -> Result<bool, String> {
    let mut buf = Vec::new();
    while let Some(fits) =
        read_event_line(&mut input, &mut buf).map_err(|e| format!("event stream: {e}"))?
    {
        let line = if fits {
            std::str::from_utf8(&buf).map_err(|_| "event line is not valid UTF-8".to_string())
        } else {
            Err(format!("event line exceeds {MAX_EVENT_LINE_BYTES} bytes"))
        };
        let line = match line.map(str::trim) {
            Ok("") => continue,
            line => line,
        };
        let response = match line.and_then(parse_event) {
            Ok(None) => {
                // Shutdown is a control line, not an event: it gets an ack,
                // consumes no sequence number, and stops the daemon.
                let bye = segrout::obs::Json::obj([
                    ("type", segrout::obs::Json::from("bye")),
                    ("events", segrout::obs::Json::from(session.stats().events)),
                ]);
                writeln!(out, "{}", bye.render()).map_err(|e| format!("response stream: {e}"))?;
                out.flush().map_err(|e| format!("response stream: {e}"))?;
                return Ok(true);
            }
            Ok(Some(event)) => session.apply(&event),
            Err(reason) => session.reject(&reason),
        };
        writeln!(out, "{}", render_response(&response))
            .map_err(|e| format!("response stream: {e}"))?;
        // The daemon is interactive: every answer must reach the peer now,
        // not at buffer-boundary time.
        out.flush().map_err(|e| format!("response stream: {e}"))?;
    }
    Ok(false)
}

/// Reads the next line of `input` into `buf`, without its newline, keeping
/// at most [`MAX_EVENT_LINE_BYTES`]. Returns `None` at end of stream,
/// `Some(true)` for a line that fits, and `Some(false)` for an over-long
/// line, whose remainder is skipped without being buffered.
fn read_event_line<R: std::io::BufRead>(
    input: &mut R,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<bool>> {
    use std::io::BufRead;
    buf.clear();
    let limit = MAX_EVENT_LINE_BYTES as u64 + 1; // room for the newline
    let n = std::io::Read::take(&mut *input, limit).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if n as u64 == limit {
        input.skip_until(b'\n')?;
        return Ok(Some(false));
    }
    Ok(Some(true))
}

/// Accepts TCP connections one at a time, serving each until it closes;
/// session state persists across connections. A shutdown event terminates
/// the daemon; an I/O error closes only the connection it happened on.
fn serve_tcp(addr: &str, session: &mut ServeSession<'_>) -> Result<(), String> {
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("--listen {addr}: {e}"))?;
    match listener.local_addr() {
        Ok(a) => eprintln!("serve: listening on {a}"),
        Err(_) => eprintln!("serve: listening on {addr}"),
    }
    for conn in listener.incoming() {
        let served = conn.map_err(|e| format!("accept: {e}")).and_then(|stream| {
            let reader =
                std::io::BufReader::new(stream.try_clone().map_err(|e| format!("socket: {e}"))?);
            let mut writer = stream;
            serve_stream(session, reader, &mut writer)
        });
        match served {
            Ok(true) => return Ok(()),
            Ok(false) => {}
            Err(e) => eprintln!("serve: connection closed: {e}"),
        }
    }
    Ok(())
}

/// Parses one JSONL input line into a [`ServeEvent`]. `Ok(None)` is the
/// shutdown control line; `Err` is a malformed line the session will
/// reject (with the reason echoed in the error reply).
fn parse_event(line: &str) -> Result<Option<ServeEvent>, String> {
    let rec = segrout::obs::Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let kind = rec["event"]
        .as_str()
        .ok_or("missing or non-string 'event' field")?;
    let uint_field = |name: &str| -> Result<u32, String> {
        rec[name]
            .as_i64()
            .and_then(|i| u32::try_from(i).ok())
            .ok_or_else(|| format!("'{name}' must be a non-negative integer"))
    };
    let float_field = |name: &str| -> Result<f64, String> {
        rec[name]
            .as_f64()
            .ok_or_else(|| format!("'{name}' must be a number"))
    };
    match kind {
        "noop" => Ok(Some(ServeEvent::Noop)),
        "shutdown" => Ok(None),
        "demand" => Ok(Some(ServeEvent::DemandScale {
            index: uint_field("index")? as usize,
            factor: float_field("factor")?,
        })),
        "matrix" => {
            let entries = rec["demands"]
                .as_arr()
                .ok_or("'demands' must be an array of [src, dst, size] triples")?;
            let mut demands = Vec::with_capacity(entries.len());
            for (i, entry) in entries.iter().enumerate() {
                let triple = entry
                    .as_arr()
                    .filter(|t| t.len() == 3)
                    .ok_or_else(|| format!("demands[{i}] must be [src, dst, size]"))?;
                let node = |j: usize| {
                    triple[j]
                        .as_i64()
                        .and_then(|x| u32::try_from(x).ok())
                        .ok_or_else(|| format!("demands[{i}][{j}] must be a node id"))
                };
                let size = triple[2]
                    .as_f64()
                    .ok_or_else(|| format!("demands[{i}][2] must be a number"))?;
                demands.push((NodeId(node(0)?), NodeId(node(1)?), size));
            }
            Ok(Some(ServeEvent::DemandMatrix { demands }))
        }
        "link_down" => Ok(Some(ServeEvent::LinkDown {
            edge: EdgeId(uint_field("edge")?),
        })),
        "link_up" => Ok(Some(ServeEvent::LinkUp {
            edge: EdgeId(uint_field("edge")?),
        })),
        "capacity" => Ok(Some(ServeEvent::Capacity {
            edge: EdgeId(uint_field("edge")?),
            capacity: float_field("capacity")?,
        })),
        other => Err(format!("unknown event type '{other}'")),
    }
}

/// Renders a [`ServeResponse`] as one protocol line. Latency is excluded:
/// it is the one nondeterministic field, and the protocol stream must be
/// byte-identical across replays of the same event log.
fn render_response(r: &ServeResponse) -> String {
    use segrout::obs::Json;
    let diffs = Json::arr(
        r.weight_diffs
            .iter()
            .map(|&(e, old, new)| Json::arr([Json::from(e.0), Json::from(old), Json::from(new)])),
    );
    let mut fields = vec![
        ("type", Json::from("serve")),
        ("seq", Json::from(r.seq)),
        ("tier", Json::from(r.tier.as_str())),
        ("mlu", Json::from(r.mlu)),
        ("phi", Json::from(r.phi)),
        ("churn", Json::from(r.churn)),
        ("evaluations", Json::from(r.evaluations)),
        ("weight_diffs", diffs),
    ];
    if let Some(e) = &r.error {
        fields.push(("error", Json::from(e.as_str())));
    }
    Json::obj(fields).render()
}

fn cmd_gaps(flags: &HashMap<String, String>) -> Result<(), String> {
    let which: u32 = flags
        .get("instance")
        .ok_or("gaps needs --instance")?
        .parse()
        .map_err(|_| "bad --instance")?;
    let m: usize = flags
        .get("m")
        .map(|s| s.parse().map_err(|_| "bad --m"))
        .transpose()?
        .unwrap_or(8);
    // The smallest `m` each construction is defined for.
    let (build, min_m): (fn(usize) -> PaperInstance, usize) = match which {
        1 => (instance1, 2),
        2 => (instance2, 1),
        3 => (instance3, 2),
        4 => (instance4, 2),
        5 => (instance5, 2),
        other => return Err(format!("no TE-Instance {other}")),
    };
    if m < min_m {
        return Err(format!("TE-Instance {which} needs --m >= {min_m}, got {m}"));
    }
    let inst = build(m);
    let router = Router::new(&inst.network, &inst.joint_weights);
    let joint = router
        .evaluate(&inst.demands, &inst.joint_waypoints)
        .map_err(|e| e.to_string())?
        .mlu;
    println!(
        "TE-Instance {which} (m = {m}): {} nodes, {} links, {} demands (D = {:.3})",
        inst.network.node_count(),
        inst.network.edge_count(),
        inst.demands.len(),
        inst.demands.total_size()
    );
    println!("Joint (constructive lemma setting): MLU = {joint:.4}");
    // A quick LWO reference point via the unit setting and LWO-APX.
    let unit = Router::new(&inst.network, &WeightSetting::unit(&inst.network))
        .mlu(&inst.demands)
        .map_err(|e| e.to_string())?;
    println!("unit weights (no waypoints):        MLU = {unit:.4}");
    let apx = segrout::algos::lwo_apx(&inst.network, inst.source, inst.target)
        .map_err(|e| e.to_string())?;
    println!(
        "LWO-APX: |f*| = {:.4}, ES-flow = {:.4} (ratio {:.3})",
        apx.max_flow_value,
        apx.es_flow_value,
        apx.achieved_ratio()
    );
    Ok(())
}

fn cmd_fuzz(flags: &HashMap<String, String>) -> Result<(), String> {
    // The fuzzer's own metric catalog, pre-registered so every campaign
    // reports the same names.
    for name in ["check.cases", "check.violations", "check.shrink_steps"] {
        segrout::obs::counter(name);
    }
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(42);
    let cases: usize = flags
        .get("cases")
        .map(|s| s.parse().map_err(|_| "bad --cases"))
        .transpose()?
        .unwrap_or(500);
    let mut validator = segrout::check::ValidatorConfig::default();
    if flags.contains_key("fast") {
        validator.mcf_lower_bound = false;
    }
    let cfg = segrout::check::FuzzConfig {
        seed,
        cases,
        shrink: !flags.contains_key("no-shrink"),
        corpus_dir: flags.get("corpus").map(std::path::PathBuf::from),
        validator,
    };

    println!("fuzzing: {cases} cases from seed {seed} ...");
    let start = std::time::Instant::now();
    let report = segrout::check::fuzz_campaign(&cfg);
    let secs = start.elapsed().as_secs_f64();
    println!(
        "{} cases in {secs:.1}s ({:.1} cases/s): {} checks, {} benign errors, {} failures",
        report.cases,
        report.cases as f64 / secs.max(1e-9),
        report.checks,
        report.benign_errors,
        report.failures.len()
    );
    for f in &report.failures {
        println!(
            "\ncase {} (shrunk in {} steps): {}",
            f.index, f.shrink_steps, f.outcome
        );
        match &f.corpus_path {
            Some(p) => println!("reproducer written to {}", p.display()),
            None => println!("reproducer:\n{}", f.case.to_text()),
        }
    }
    println!("\nrun summary:\n{}", segrout::obs::summary_table());
    if report.failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} failing case(s)", report.failures.len()))
    }
}

fn cmd_parse(flags: &HashMap<String, String>) -> Result<(), String> {
    let (net, demands) = if let Some(path) = flags.get("sndlib") {
        let xml = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let (n, d) = parse_sndlib_xml(&xml).map_err(|e| e.to_string())?;
        (n, d)
    } else if let Some(path) = flags.get("graphml") {
        let xml = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        (
            parse_graphml(&xml, 1000.0).map_err(|e| e.to_string())?,
            None,
        )
    } else {
        return Err("parse needs --sndlib <file> or --graphml <file>".into());
    };
    println!(
        "parsed: {} nodes, {} directed links",
        net.node_count(),
        net.edge_count()
    );
    if let Some(d) = demands {
        println!(
            "demand matrix: {} entries totalling {:.1}",
            d.len(),
            d.total_size()
        );
    }
    Ok(())
}
