//! Self-contained fuzz scenarios with a replayable text format.
//!
//! A [`Case`] bundles everything one differential check needs — topology,
//! demands, configuration, and execution knobs — in a line-oriented format
//! that extends the `segrout-config v1` grammar with topology directives:
//!
//! ```text
//! # segrout-case v1
//! seed 42
//! threads 4
//! engine revised
//! pipeline 1
//! nodes 4
//! link 0 1 100
//! demand 0 3 2.5
//! matrix 1.25          # extra traffic matrix: one size per demand
//! event scale 0 1.5    # serve-event stream: demand scaling, ...
//! event down 2         # ... link flaps, ...
//! event cap 1 50       # ... capacity changes, ...
//! event noop           # ... keep-alives, and
//! event matrix 0 3 2.5 # full matrix swaps (src dst size triples)
//! # segrout-config v1
//! weight 0 2
//! waypoint 0 2
//! ```
//!
//! The `weight`/`waypoint` section is parsed by the canonical
//! `segrout_core::read_config` so corpus files stay hand-editable with the
//! same rules as deployed configurations.

use crate::validator::{validate_robust, validate_sweep, Validator, ValidatorConfig, Violation};
use segrout_algos::{ServeConfig, ServeEvent, ServeSession, ServeTier};
use segrout_core::rng::StdRng;
use segrout_core::{
    evaluate_robust, read_config, DemandList, DemandSet, IncrementalEvaluator, Network,
    RobustObjective, Router, TeError, WaypointSetting, WeightSetting,
};
use segrout_graph::{EdgeId, NodeId};
use segrout_lp::{LpEngine, MilpOptions, MilpStatus};
use segrout_milp::{joint_milp, joint_milp_robust, JointMilpOptions};
use std::fmt;
use std::time::Duration;

/// LP engine selector for the differential dimension of a case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineChoice {
    /// Bounded-variable revised simplex (production path).
    Revised,
    /// Dense two-phase tableau (reference oracle).
    Tableau,
}

impl EngineChoice {
    /// The corresponding `segrout_lp` engine.
    pub fn lp_engine(self) -> LpEngine {
        match self {
            Self::Revised => LpEngine::Revised,
            Self::Tableau => LpEngine::Tableau,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Self::Revised => "revised",
            Self::Tableau => "tableau",
        }
    }
}

/// Result of running one case.
#[derive(Clone, Debug)]
pub enum CaseOutcome {
    /// Every enabled check passed.
    Pass {
        /// Number of individual checks performed.
        checks: usize,
    },
    /// The state is not evaluable (unroutable, invalid weights, solver
    /// limit, ...) — a property of the input, **not** a failure.
    Error(String),
    /// At least one invariant or differential check failed.
    Violations(Vec<Violation>),
    /// The pipeline panicked (recorded by the fuzzer's catch-unwind shim).
    Panic(String),
}

impl CaseOutcome {
    /// `true` for the outcomes that indicate a genuine bug.
    pub fn is_failure(&self) -> bool {
        matches!(self, Self::Violations(_) | Self::Panic(_))
    }
}

impl fmt::Display for CaseOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Pass { checks } => write!(f, "pass ({checks} checks)"),
            Self::Error(e) => write!(f, "benign error: {e}"),
            Self::Violations(vs) => {
                writeln!(f, "{} violation(s):", vs.len())?;
                for v in vs {
                    writeln!(f, "  {v}")?;
                }
                Ok(())
            }
            Self::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

/// One self-contained differential scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Case {
    /// Node count of the topology.
    pub nodes: usize,
    /// Directed links `(src, dst, capacity)` in edge-index order.
    pub links: Vec<(u32, u32, f64)>,
    /// Demands `(src, dst, size)` — the base traffic matrix.
    pub demands: Vec<(u32, u32, f64)>,
    /// Additional traffic matrices for the robust multi-matrix stage, each a
    /// size row over the **same pairs** as `demands` (aligned by
    /// construction). Empty for classic single-matrix cases.
    pub extra_matrices: Vec<Vec<f64>>,
    /// Serve-event stream for the online-reoptimization stage: each event is
    /// fed to a [`ServeSession`] and the post-event state is checked against
    /// a from-scratch rebuild. Out-of-range indices and disconnecting
    /// failures are **legal** inputs here — the daemon must answer them with
    /// an error reply and untouched state, not die.
    pub events: Vec<ServeEvent>,
    /// Link weights, one per link.
    pub weights: Vec<f64>,
    /// Waypoint rows, one per demand (possibly empty).
    pub waypoints: Vec<Vec<u32>>,
    /// Worker-thread count the case runs under.
    pub threads: usize,
    /// LP engine used for the MILP-oracle stage.
    pub engine: EngineChoice,
    /// Whether the full heuristic pipeline (HeurOSPF + GreedyWPO, plus the
    /// MILP oracle on tiny instances) runs on top of the state validation.
    pub pipeline: bool,
    /// Seed driving the probe/commit differential and the pipeline search.
    pub seed: u64,
}

/// Restores the ambient worker-thread override on scope exit, including
/// panic unwinds out of the pipeline stage.
struct ThreadGuard(usize);

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        segrout_par::set_threads(self.0);
    }
}

const TOL: f64 = 1e-6;

impl Case {
    /// Builds the network described by the topology section.
    ///
    /// # Errors
    /// Rejects out-of-range endpoints and invalid capacities.
    pub fn network(&self) -> Result<Network, TeError> {
        let mut b = Network::builder(self.nodes);
        for &(u, v, cap) in &self.links {
            if u as usize >= self.nodes || v as usize >= self.nodes {
                return Err(TeError::InvalidWaypoints(format!(
                    "link {u} -> {v} out of range for {} nodes",
                    self.nodes
                )));
            }
            b.link(NodeId(u), NodeId(v), cap);
        }
        b.build()
    }

    /// Builds the demand list described by the demand section.
    ///
    /// # Errors
    /// Rejects out-of-range endpoints.
    pub fn demand_list(&self) -> Result<DemandList, TeError> {
        let mut d = DemandList::new();
        for &(s, t, size) in &self.demands {
            if s as usize >= self.nodes || t as usize >= self.nodes {
                return Err(TeError::InvalidWaypoints(format!(
                    "demand {s} -> {t} out of range for {} nodes",
                    self.nodes
                )));
            }
            d.push(NodeId(s), NodeId(t), size);
        }
        Ok(d)
    }

    /// Builds the full multi-matrix [`DemandSet`]: the base matrix (`m0`)
    /// plus one matrix per `matrix` row (`m1`, `m2`, ...), all sharing the
    /// base's pair list.
    ///
    /// # Errors
    /// Rejects size-count mismatches and non-positive or non-finite sizes.
    pub fn demand_set(&self) -> Result<DemandSet, TeError> {
        let base = self.demand_list()?;
        let mut set = DemandSet::new();
        set.push("m0", base);
        for (j, row) in self.extra_matrices.iter().enumerate() {
            if row.len() != self.demands.len() {
                return Err(TeError::InvalidWaypoints(format!(
                    "matrix {j} has {} sizes for {} demands",
                    row.len(),
                    self.demands.len()
                )));
            }
            let mut d = DemandList::new();
            for (i, (&(s, t, _), &size)) in self.demands.iter().zip(row).enumerate() {
                if !(size.is_finite() && size > 0.0) {
                    return Err(TeError::InvalidDemand {
                        index: i,
                        value: size,
                    });
                }
                d.push(NodeId(s), NodeId(t), size);
            }
            set.push(format!("m{}", j + 1), d);
        }
        Ok(set)
    }

    fn weight_setting(&self, net: &Network) -> Result<WeightSetting, TeError> {
        WeightSetting::new(net, self.weights.clone())
    }

    fn waypoint_setting(&self) -> Result<WaypointSetting, TeError> {
        if self.waypoints.len() != self.demands.len() {
            return Err(TeError::InvalidWaypoints(format!(
                "{} waypoint rows for {} demands",
                self.waypoints.len(),
                self.demands.len()
            )));
        }
        let mut wp = WaypointSetting::none(self.demands.len());
        for (i, row) in self.waypoints.iter().enumerate() {
            if !row.is_empty() {
                wp.set(i, row.iter().map(|&v| NodeId(v)).collect());
            }
        }
        Ok(wp)
    }

    /// Serializes the case to its text format. The output round-trips
    /// bit-exactly through [`Case::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::from("# segrout-case v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("threads {}\n", self.threads));
        out.push_str(&format!("engine {}\n", self.engine.as_str()));
        out.push_str(&format!("pipeline {}\n", u8::from(self.pipeline)));
        out.push_str(&format!("nodes {}\n", self.nodes));
        for &(u, v, cap) in &self.links {
            out.push_str(&format!("link {u} {v} {cap}\n"));
        }
        for &(s, t, size) in &self.demands {
            out.push_str(&format!("demand {s} {t} {size}\n"));
        }
        for row in &self.extra_matrices {
            out.push_str("matrix");
            for s in row {
                out.push_str(&format!(" {s}"));
            }
            out.push('\n');
        }
        for event in &self.events {
            match event {
                ServeEvent::Noop => out.push_str("event noop\n"),
                ServeEvent::DemandScale { index, factor } => {
                    out.push_str(&format!("event scale {index} {factor}\n"));
                }
                ServeEvent::LinkDown { edge } => {
                    out.push_str(&format!("event down {}\n", edge.0));
                }
                ServeEvent::LinkUp { edge } => {
                    out.push_str(&format!("event up {}\n", edge.0));
                }
                ServeEvent::Capacity { edge, capacity } => {
                    out.push_str(&format!("event cap {} {capacity}\n", edge.0));
                }
                ServeEvent::DemandMatrix { demands } => {
                    out.push_str("event matrix");
                    for (s, t, size) in demands {
                        out.push_str(&format!(" {} {} {size}", s.0, t.0));
                    }
                    out.push('\n');
                }
            }
        }
        out.push_str("# segrout-config v1\n");
        for (e, w) in self.weights.iter().enumerate() {
            out.push_str(&format!("weight {e} {w}\n"));
        }
        for (i, row) in self.waypoints.iter().enumerate() {
            if !row.is_empty() {
                out.push_str(&format!(
                    "waypoint {i}{}\n",
                    row.iter().map(|v| format!(" {v}")).collect::<String>()
                ));
            }
        }
        out
    }

    /// Parses a case from its text format. `weight` and `waypoint` lines are
    /// handed to the canonical `segrout_core::read_config` parser.
    ///
    /// # Errors
    /// Reports malformed lines with their line numbers.
    pub fn from_text(text: &str) -> Result<Self, TeError> {
        let mut case = Case {
            nodes: 0,
            links: Vec::new(),
            demands: Vec::new(),
            extra_matrices: Vec::new(),
            events: Vec::new(),
            weights: Vec::new(),
            waypoints: Vec::new(),
            threads: 1,
            engine: EngineChoice::Revised,
            pipeline: true,
            seed: 0,
        };
        let mut config_lines = String::new();

        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = |msg: &str| TeError::InvalidWaypoints(format!("line {}: {msg}", lineno + 1));
            fn num(
                parts: &mut std::str::SplitWhitespace<'_>,
                lineno: usize,
                what: &str,
            ) -> Result<f64, TeError> {
                parts
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .ok_or_else(|| {
                        TeError::InvalidWaypoints(format!("line {}: needs {what}", lineno + 1))
                    })
            }
            let mut parts = line.split_whitespace();
            let directive = parts.next().expect("non-empty line has a first token");
            let p = &mut parts;
            match directive {
                "seed" => {
                    case.seed = p
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("seed needs an integer"))?
                }
                "threads" => case.threads = num(p, lineno, "a thread count")? as usize,
                "pipeline" => case.pipeline = num(p, lineno, "0 or 1")? != 0.0,
                "engine" => {
                    case.engine = match p.next() {
                        Some("revised") => EngineChoice::Revised,
                        Some("tableau") => EngineChoice::Tableau,
                        _ => return Err(bad("engine needs 'revised' or 'tableau'")),
                    }
                }
                "nodes" => case.nodes = num(p, lineno, "a node count")? as usize,
                "link" => {
                    let u = num(p, lineno, "a source")? as u32;
                    let v = num(p, lineno, "a destination")? as u32;
                    let cap = num(p, lineno, "a capacity")?;
                    case.links.push((u, v, cap));
                }
                "demand" => {
                    let s = num(p, lineno, "a source")? as u32;
                    let t = num(p, lineno, "a destination")? as u32;
                    let size = num(p, lineno, "a size")?;
                    case.demands.push((s, t, size));
                }
                "matrix" => {
                    let mut row = Vec::new();
                    for tok in p.by_ref() {
                        row.push(tok.parse::<f64>().map_err(|_| bad("matrix needs sizes"))?);
                    }
                    if row.is_empty() {
                        return Err(bad("matrix needs at least one size"));
                    }
                    case.extra_matrices.push(row);
                }
                "event" => {
                    let kind = p.next().ok_or_else(|| bad("event needs a kind"))?;
                    let event = match kind {
                        "noop" => ServeEvent::Noop,
                        "scale" => ServeEvent::DemandScale {
                            index: num(p, lineno, "a demand index")? as usize,
                            factor: num(p, lineno, "a factor")?,
                        },
                        "down" => ServeEvent::LinkDown {
                            edge: EdgeId(num(p, lineno, "an edge id")? as u32),
                        },
                        "up" => ServeEvent::LinkUp {
                            edge: EdgeId(num(p, lineno, "an edge id")? as u32),
                        },
                        "cap" => ServeEvent::Capacity {
                            edge: EdgeId(num(p, lineno, "an edge id")? as u32),
                            capacity: num(p, lineno, "a capacity")?,
                        },
                        "matrix" => {
                            let nums: Vec<f64> = p
                                .by_ref()
                                .map(str::parse::<f64>)
                                .collect::<Result<_, _>>()
                                .map_err(|_| bad("event matrix needs numbers"))?;
                            if nums.is_empty() || !nums.len().is_multiple_of(3) {
                                return Err(bad("event matrix needs src dst size triples"));
                            }
                            ServeEvent::DemandMatrix {
                                demands: nums
                                    .chunks_exact(3)
                                    .map(|c| (NodeId(c[0] as u32), NodeId(c[1] as u32), c[2]))
                                    .collect(),
                            }
                        }
                        other => return Err(bad(&format!("unknown event kind '{other}'"))),
                    };
                    case.events.push(event);
                }
                "weight" | "waypoint" => {
                    config_lines.push_str(line);
                    config_lines.push('\n');
                }
                other => return Err(bad(&format!("unknown directive '{other}'"))),
            }
        }

        for (j, row) in case.extra_matrices.iter().enumerate() {
            if row.len() != case.demands.len() {
                return Err(TeError::InvalidWaypoints(format!(
                    "matrix {j} has {} sizes for {} demands",
                    row.len(),
                    case.demands.len()
                )));
            }
        }
        let net = case.network()?;
        let demands = case.demand_list()?;
        let (weights, waypoints) = read_config(&net, &demands, &config_lines)?;
        case.weights = weights.as_slice().to_vec();
        case.waypoints = (0..waypoints.len())
            .map(|i| waypoints.get(i).iter().map(|n| n.0).collect())
            .collect();
        Ok(case)
    }

    /// Runs every differential stage of the case and reports the outcome.
    ///
    /// Stages: (1) the full invariant [`Validator`] on the given state, (2)
    /// a seeded probe/commit differential between the incremental engine and
    /// from-scratch routing, (3) the heuristic pipeline (HeurOSPF +
    /// GreedyWPO) with validation of its output, (4) on tiny instances,
    /// the MILP oracle — optimality sandwich plus a Revised-vs-Tableau LP
    /// engine differential, (5) the robust multi-matrix differential on
    /// cases with extra matrices, (6) the failure-sweep differential
    /// pinning the edge-disable probe against deleted-topology re-routing,
    /// and (7) the online-serving differential on cases with an event
    /// stream — every post-event session state must match a from-scratch
    /// rebuild bitwise, with churn and SLO accounting checked per event.
    pub fn run(&self, vcfg: &ValidatorConfig) -> CaseOutcome {
        let _threads = ThreadGuard(segrout_par::threads());
        segrout_par::set_threads(self.threads);

        let built = (|| {
            let net = self.network()?;
            let demands = self.demand_list()?;
            let weights = self.weight_setting(&net)?;
            let waypoints = self.waypoint_setting()?;
            Ok::<_, TeError>((net, demands, weights, waypoints))
        })();
        let (net, demands, weights, waypoints) = match built {
            Ok(x) => x,
            Err(e) => return CaseOutcome::Error(e.to_string()),
        };

        let mut violations = Vec::new();
        let mut checks = 0usize;

        // Stage 1: full invariant suite on the given state.
        match Validator::new(&net, &demands, &weights, &waypoints)
            .with_config(vcfg.clone())
            .validate()
        {
            Ok(rep) => {
                checks += rep.checks;
                violations.extend(rep.violations);
            }
            Err(e) => return CaseOutcome::Error(e.to_string()),
        }

        // Stage 2: incremental probe/commit differential.
        if !self.demands.is_empty() {
            match self.run_incremental_differential(&net, &demands, &weights, &waypoints) {
                Ok((c, vs)) => {
                    checks += c;
                    violations.extend(vs);
                }
                Err(e) => return CaseOutcome::Error(e.to_string()),
            }
        }

        // Stages 3 + 4: heuristic pipeline, then the MILP oracle on tiny
        // instances.
        if self.pipeline && !self.demands.is_empty() {
            match self.run_pipeline(&net, &demands, vcfg) {
                Ok((c, vs)) => {
                    checks += c;
                    violations.extend(vs);
                }
                Err(e) => return CaseOutcome::Error(e.to_string()),
            }
        }

        // Stage 5: robust multi-matrix differential (invariants on the given
        // state, single-matrix reduction, robust pipeline + MILP oracle).
        if !self.extra_matrices.is_empty() && !self.demands.is_empty() {
            match self.run_robust(&net, &demands, &weights, &waypoints) {
                Ok((c, vs)) => {
                    checks += c;
                    violations.extend(vs);
                }
                Err(e) => return CaseOutcome::Error(e.to_string()),
            }
        }

        // Stage 6: failure-sweep differential — every (pattern, scaling)
        // scenario answered by the edge-disable probe is reproduced from
        // scratch on the edge-deleted topology. Doubles only on small
        // topologies; patterns grow quadratically in the link count.
        if !self.demands.is_empty() {
            let doubles = self.links.len() <= 10;
            match validate_sweep(&net, &demands, &weights, &waypoints, doubles, &[1.0, 1.25]) {
                Ok(rep) => {
                    checks += rep.checks;
                    violations.extend(rep.violations.into_iter().map(|mut v| {
                        v.detail = format!("sweep: {}", v.detail);
                        v
                    }));
                }
                Err(e) => return CaseOutcome::Error(e.to_string()),
            }
        }

        // Stage 7: online-serving differential over the event stream.
        if !self.events.is_empty() && !self.demands.is_empty() {
            match self.run_serve_events(&net, &demands, &weights, &waypoints) {
                Ok((c, vs)) => {
                    checks += c;
                    violations.extend(vs);
                }
                Err(e) => return CaseOutcome::Error(e.to_string()),
            }
        }

        if violations.is_empty() {
            CaseOutcome::Pass { checks }
        } else {
            CaseOutcome::Violations(violations)
        }
    }

    /// Online-serving differential: feeds the event stream to a
    /// [`ServeSession`] and checks, per event, that (a) the response's
    /// churn equals its weight-diff count and the diff replays the pre-event
    /// weights onto the post-event weights bit-exactly, (b) error replies
    /// leave every observable bit untouched, and (c) the session's in-place
    /// state equals a from-scratch evaluator rebuilt from the session's
    /// effective capacities, weights, workload, and failure mask. Afterwards
    /// the session tallies (tier partition, churn total, SLO violations)
    /// must agree with what the responses reported.
    fn run_serve_events(
        &self,
        net: &Network,
        demands: &DemandList,
        weights: &WeightSetting,
        waypoints: &WaypointSetting,
    ) -> Result<(usize, Vec<Violation>), TeError> {
        let cfg = ServeConfig {
            reopt: segrout_algos::ReoptimizeConfig {
                ospf: segrout_algos::HeurOspfConfig {
                    max_weight: 8,
                    max_passes: 2,
                    seed: self.seed,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..ServeConfig::default()
        };
        let slo_ms = cfg.slo_ms;
        let mut session = ServeSession::new(net, weights, demands.clone(), waypoints.clone(), cfg)?;
        let mut checks = 0usize;
        let mut violations = Vec::new();
        let fail = |step: usize, detail: String| Violation {
            invariant: "serve-differential",
            detail: format!("event {step}: {detail}"),
        };
        let mut observed_errors = 0u64;
        let mut observed_slow = 0u64;
        let mut churn_total = 0u64;
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();

        for (step, event) in self.events.iter().enumerate() {
            let pre_weights = bits(session.evaluator().weights());
            let pre_loads = bits(session.evaluator().loads());
            let pre_mlu = session.evaluator().mlu().to_bits();
            let r = session.apply(event);
            let post_weights = bits(session.evaluator().weights());

            checks += 1;
            if r.seq != step as u64 + 1 {
                violations.push(fail(step, format!("seq {} != {}", r.seq, step + 1)));
            }
            checks += 1;
            if r.churn != r.weight_diffs.len() {
                violations.push(fail(
                    step,
                    format!("churn {} != {} diffs", r.churn, r.weight_diffs.len()),
                ));
            }
            churn_total += r.churn as u64;

            // The diff must replay pre -> post exactly, and every entry must
            // be a genuine change (minimal churn, no padding).
            checks += 1;
            let mut replayed = pre_weights.clone();
            let mut diff_ok = true;
            for &(e, old, new) in &r.weight_diffs {
                if e.index() >= replayed.len()
                    || old.to_bits() != pre_weights[e.index()]
                    || old.to_bits() == new.to_bits()
                {
                    diff_ok = false;
                    break;
                }
                replayed[e.index()] = new.to_bits();
            }
            if !diff_ok || replayed != post_weights {
                violations.push(fail(
                    step,
                    format!(
                        "weight diff does not replay the deployed change: {:?}",
                        r.weight_diffs
                    ),
                ));
            }

            if r.tier == ServeTier::Error {
                observed_errors += 1;
                checks += 1;
                if post_weights != pre_weights
                    || bits(session.evaluator().loads()) != pre_loads
                    || session.evaluator().mlu().to_bits() != pre_mlu
                {
                    violations.push(fail(
                        step,
                        format!("error reply ({:?}) must leave state untouched", r.error),
                    ));
                }
            }
            checks += 1;
            if r.mlu.to_bits() != session.evaluator().mlu().to_bits() {
                violations.push(fail(step, "response mlu != session mlu".to_string()));
            }

            // From-scratch oracle: a fresh evaluator on the session's
            // effective capacities/weights/workload/failure mask.
            let ev = session.evaluator();
            let mut b = Network::builder(net.node_count());
            for (e, u, v) in net.graph().edges() {
                b.link(u, v, ev.capacities()[e.index()]);
            }
            let scratch_net = b.build()?;
            let cur = WeightSetting::new(&scratch_net, ev.weights().to_vec())?;
            let failed: Vec<EdgeId> = ev
                .disabled()
                .iter()
                .enumerate()
                .filter(|(_, &d)| d)
                .map(|(i, _)| EdgeId(i as u32))
                .collect();
            let fresh = IncrementalEvaluator::new_with_failures(
                &scratch_net,
                &cur,
                session.demands(),
                session.waypoints(),
                &failed,
            )?;
            checks += 1;
            if bits(ev.loads()) != bits(fresh.loads())
                || ev.phi().to_bits() != fresh.phi().to_bits()
                || ev.mlu().to_bits() != fresh.mlu().to_bits()
            {
                violations.push(fail(
                    step,
                    format!(
                        "in-place state diverged from scratch rebuild after {event:?}: \
                         mlu {} vs {}",
                        ev.mlu(),
                        fresh.mlu()
                    ),
                ));
            }

            if slo_ms > 0.0 && r.latency_ms > slo_ms {
                observed_slow += 1;
            }
        }

        // Session bookkeeping must agree with the responses.
        let st = *session.stats();
        checks += 1;
        if st.events != self.events.len() as u64 {
            violations.push(fail(
                self.events.len(),
                format!("stats.events {} != {}", st.events, self.events.len()),
            ));
        }
        checks += 1;
        if st.probe_only + st.local_reopts + st.escalations + st.errors != st.events {
            violations.push(fail(
                self.events.len(),
                format!("tier tallies do not partition the event count: {st:?}"),
            ));
        }
        checks += 1;
        if st.errors != observed_errors {
            violations.push(fail(
                self.events.len(),
                format!(
                    "stats.errors {} != {observed_errors} error replies",
                    st.errors
                ),
            ));
        }
        checks += 1;
        if st.weight_churn != churn_total {
            violations.push(fail(
                self.events.len(),
                format!("stats.weight_churn {} != {churn_total}", st.weight_churn),
            ));
        }
        checks += 1;
        if st.slo_violations != observed_slow {
            violations.push(fail(
                self.events.len(),
                format!(
                    "stats.slo_violations {} != {observed_slow} responses over {slo_ms} ms",
                    st.slo_violations
                ),
            ));
        }
        Ok((checks, violations))
    }

    /// Random walk of weight probes; every committed step must leave the
    /// incremental engine bit-identical (integral weights) or within
    /// tolerance (fractional) of a from-scratch evaluation.
    fn run_incremental_differential(
        &self,
        net: &Network,
        demands: &DemandList,
        weights: &WeightSetting,
        waypoints: &WaypointSetting,
    ) -> Result<(usize, Vec<Violation>), TeError> {
        let mut ev = IncrementalEvaluator::new(net, weights, demands, waypoints)?;
        let mut cur = weights.clone();
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(1));
        let mut checks = 0usize;
        let mut violations = Vec::new();
        let m = net.edge_count() as u32;

        for step in 0..12usize {
            let e = EdgeId(rng.gen_range(0..m));
            let w = f64::from(rng.gen_range(1..=8u32));
            let probe = ev.probe(e, w)?;
            if !rng.gen::<bool>() {
                continue; // discarded probes must not perturb state
            }
            ev.commit(probe);
            cur.set(e, w);
            let fresh = Router::new(net, &cur).evaluate(demands, waypoints)?;
            let integral = cur.as_slice().iter().all(|x| x.fract() == 0.0);
            let scale = 1.0 + fresh.loads.iter().cloned().fold(0.0f64, f64::max);
            for (idx, (&got, &want)) in ev.loads().iter().zip(&fresh.loads).enumerate() {
                checks += 1;
                let ok = if integral {
                    got.to_bits() == want.to_bits()
                } else {
                    (got - want).abs() <= TOL * scale
                };
                if !ok {
                    violations.push(Violation {
                        invariant: "incremental-differential",
                        detail: format!(
                            "step {step}: edge {idx} load {got} != fresh {want} \
                             after committing w[{}] = {w}",
                            e.index()
                        ),
                    });
                }
            }
            checks += 1;
            if (ev.mlu() - fresh.mlu).abs() > TOL * (1.0 + fresh.mlu) {
                violations.push(Violation {
                    invariant: "incremental-differential",
                    detail: format!("step {step}: MLU {} != fresh {}", ev.mlu(), fresh.mlu),
                });
            }
        }
        Ok((checks, violations))
    }

    /// Robust multi-matrix differential: (a) the full [`validate_robust`]
    /// invariant suite on the given state, (b) the single-matrix reduction —
    /// `heur_ospf_robust` on a one-element set must be **bit-identical** to
    /// the classic `heur_ospf` — and (c) when the pipeline stage is on, the
    /// robust heuristic pipeline with its output state re-validated, plus on
    /// tiny instances the robust MILP oracle (optimality sandwich against
    /// the robust heuristic's worst-case MLU).
    fn run_robust(
        &self,
        net: &Network,
        demands: &DemandList,
        weights: &WeightSetting,
        waypoints: &WaypointSetting,
    ) -> Result<(usize, Vec<Violation>), TeError> {
        const MAX_WEIGHT: u32 = 4;
        let set = self.demand_set()?;
        let mut checks = 0usize;
        let mut violations = Vec::new();

        // (a) Invariants on the given state.
        let rep = validate_robust(net, &set, weights, waypoints)?;
        checks += rep.checks;
        violations.extend(rep.violations.into_iter().map(|mut v| {
            v.detail = format!("robust input: {}", v.detail);
            v
        }));

        let ospf = segrout_algos::HeurOspfConfig {
            max_weight: MAX_WEIGHT,
            restarts: 1,
            max_passes: 2,
            seed: self.seed,
            ..Default::default()
        };

        // (b) Single-matrix reduction is bit-identical.
        let classic = segrout_algos::heur_ospf(net, demands, &ospf);
        let single = segrout_algos::heur_ospf_robust(
            net,
            &DemandSet::single(demands.clone()),
            RobustObjective::Quantile(1.0),
            &ospf,
        );
        checks += 1;
        if classic.as_slice() != single.as_slice() {
            violations.push(Violation {
                invariant: "robust-reduction",
                detail: format!(
                    "heur_ospf_robust on a single-matrix set diverges from \
                     heur_ospf: {:?} vs {:?}",
                    single.as_slice(),
                    classic.as_slice()
                ),
            });
        }

        if !self.pipeline {
            return Ok((checks, violations));
        }

        // (c) Robust pipeline; its output state must satisfy the same
        // invariants.
        let hw = segrout_algos::heur_ospf_robust(net, &set, RobustObjective::WorstCase, &ospf);
        let wp = segrout_algos::greedy_wpo_robust(
            net,
            &set,
            &hw,
            RobustObjective::WorstCase,
            &segrout_algos::GreedyWpoConfig::default(),
        )?;
        let out = evaluate_robust(net, &hw, &set, &wp)?;
        let rep = validate_robust(net, &set, &hw, &wp)?;
        checks += rep.checks;
        violations.extend(rep.violations.into_iter().map(|mut v| {
            v.detail = format!("robust pipeline output: {}", v.detail);
            v
        }));

        let tiny =
            net.node_count() <= 5 && net.edge_count() <= 12 && (1..=3).contains(&demands.len());
        if !tiny || set.len() > 4 {
            return Ok((checks, violations));
        }
        let opts = JointMilpOptions {
            max_weight: MAX_WEIGHT,
            waypoints: 1,
            milp: MilpOptions {
                node_limit: 2000,
                time_limit: Duration::from_secs(10),
                engine: self.engine.lp_engine(),
                ..Default::default()
            },
            warm_start: Some((hw.clone(), wp.clone())),
            ..Default::default()
        };
        let milp = match joint_milp_robust(net, &set, RobustObjective::WorstCase, &opts) {
            Ok(o) => o,
            Err(TeError::SolverLimit { .. }) => return Ok((checks, violations)),
            Err(e) => return Err(e),
        };
        // Optimality sandwich on the worst-case MLU: a proven-optimal robust
        // MILP can never lose to the heuristic, and the heuristic can never
        // beat the dual bound.
        if milp.status == MilpStatus::Optimal {
            checks += 1;
            if milp.mlu > out.worst_mlu() + TOL * (1.0 + out.worst_mlu()) {
                violations.push(Violation {
                    invariant: "robust-milp-oracle",
                    detail: format!(
                        "optimal robust MILP worst-case MLU {} exceeds robust \
                         heuristic worst-case MLU {}",
                        milp.mlu,
                        out.worst_mlu()
                    ),
                });
            }
        }
        checks += 1;
        if out.worst_mlu() < milp.bound - TOL * (1.0 + milp.bound) {
            violations.push(Violation {
                invariant: "robust-milp-oracle",
                detail: format!(
                    "robust heuristic worst-case MLU {} beats the robust MILP \
                     dual bound {}",
                    out.worst_mlu(),
                    milp.bound
                ),
            });
        }
        Ok((checks, violations))
    }

    /// Runs HeurOSPF + GreedyWPO, validates the result state, and on tiny
    /// instances sandwiches the heuristic MLU between the MILP incumbent and
    /// its dual bound, cross-checking both LP engines.
    fn run_pipeline(
        &self,
        net: &Network,
        demands: &DemandList,
        vcfg: &ValidatorConfig,
    ) -> Result<(usize, Vec<Violation>), TeError> {
        const MAX_WEIGHT: u32 = 4;
        let mut checks = 0usize;
        let mut violations = Vec::new();

        let ospf = segrout_algos::HeurOspfConfig {
            max_weight: MAX_WEIGHT,
            restarts: 1,
            max_passes: 3,
            seed: self.seed,
            ..Default::default()
        };
        let hw = segrout_algos::heur_ospf(net, demands, &ospf);
        let wp = segrout_algos::greedy_wpo(
            net,
            demands,
            &hw,
            &segrout_algos::GreedyWpoConfig::default(),
        )?;
        let report = Router::new(net, &hw).evaluate(demands, &wp)?;

        let mut cfg = vcfg.clone();
        cfg.mcf_lower_bound = false; // already checked on the input state
        let rep = Validator::new(net, demands, &hw, &wp)
            .with_config(cfg)
            .validate()?;
        checks += rep.checks;
        violations.extend(rep.violations.into_iter().map(|mut v| {
            v.detail = format!("pipeline output: {}", v.detail);
            v
        }));

        let tiny =
            net.node_count() <= 5 && net.edge_count() <= 12 && (1..=3).contains(&demands.len());
        if !tiny {
            return Ok((checks, violations));
        }

        let milp_opts = |engine: LpEngine| JointMilpOptions {
            max_weight: MAX_WEIGHT,
            waypoints: 1,
            milp: MilpOptions {
                node_limit: 2000,
                time_limit: Duration::from_secs(10),
                engine,
                ..Default::default()
            },
            warm_start: Some((hw.clone(), wp.clone())),
            ..Default::default()
        };
        let primary = match joint_milp(net, demands, &milp_opts(self.engine.lp_engine())) {
            Ok(o) => o,
            Err(TeError::SolverLimit { .. }) => return Ok((checks, violations)),
            Err(e) => return Err(e),
        };

        // The heuristic searches a subset of the MILP's space (integer
        // weights ≤ MAX_WEIGHT, ≤ 1 waypoint), so a proven-optimal MILP can
        // never lose to it, and the dual bound holds unconditionally.
        if primary.status == MilpStatus::Optimal {
            checks += 1;
            if primary.mlu > report.mlu + TOL * (1.0 + report.mlu) {
                violations.push(Violation {
                    invariant: "milp-oracle",
                    detail: format!(
                        "optimal MILP MLU {} exceeds heuristic MLU {}",
                        primary.mlu, report.mlu
                    ),
                });
            }
        }
        checks += 1;
        if report.mlu < primary.bound - TOL * (1.0 + primary.bound) {
            violations.push(Violation {
                invariant: "milp-oracle",
                detail: format!(
                    "heuristic MLU {} beats the MILP dual bound {}",
                    report.mlu, primary.bound
                ),
            });
        }

        let other_engine = match self.engine {
            EngineChoice::Revised => LpEngine::Tableau,
            EngineChoice::Tableau => LpEngine::Revised,
        };
        let secondary = match joint_milp(net, demands, &milp_opts(other_engine)) {
            Ok(o) => o,
            Err(TeError::SolverLimit { .. }) => return Ok((checks, violations)),
            Err(e) => return Err(e),
        };
        if primary.status == MilpStatus::Optimal && secondary.status == MilpStatus::Optimal {
            checks += 1;
            if (primary.mlu - secondary.mlu).abs() > TOL * (1.0 + primary.mlu) {
                violations.push(Violation {
                    invariant: "engine-differential",
                    detail: format!(
                        "optimal MLU differs across LP engines: {} ({:?}) vs {} ({other_engine:?})",
                        primary.mlu,
                        self.engine.lp_engine(),
                        secondary.mlu
                    ),
                });
            }
        }
        Ok((checks, violations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond_case() -> Case {
        Case {
            nodes: 4,
            links: vec![
                (0, 1, 10.0),
                (1, 0, 10.0),
                (1, 3, 10.0),
                (3, 1, 10.0),
                (0, 2, 10.0),
                (2, 0, 10.0),
                (2, 3, 10.0),
                (3, 2, 10.0),
            ],
            demands: vec![(0, 3, 4.0), (1, 2, 1.5)],
            extra_matrices: vec![vec![2.0, 3.0], vec![5.5, 0.75]],
            events: vec![
                ServeEvent::Noop,
                ServeEvent::DemandScale {
                    index: 0,
                    factor: 2.5,
                },
                ServeEvent::LinkDown { edge: EdgeId(0) },
                // Legal garbage: out-of-range index answered with an error.
                ServeEvent::DemandScale {
                    index: 99,
                    factor: 2.0,
                },
                ServeEvent::LinkUp { edge: EdgeId(0) },
                ServeEvent::Capacity {
                    edge: EdgeId(2),
                    capacity: 4.0,
                },
                ServeEvent::DemandMatrix {
                    demands: vec![(NodeId(0), NodeId(3), 3.0), (NodeId(2), NodeId(1), 1.0)],
                },
            ],
            weights: vec![1.0; 8],
            waypoints: vec![vec![2], vec![]],
            threads: 2,
            engine: EngineChoice::Revised,
            pipeline: true,
            seed: 7,
        }
    }

    #[test]
    fn text_round_trip_is_exact() {
        let case = diamond_case();
        let text = case.to_text();
        let back = Case::from_text(&text).unwrap();
        assert_eq!(case, back);
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn malformed_text_is_rejected_with_line_numbers() {
        for (text, needle) in [
            ("frobnicate 1", "unknown directive"),
            ("nodes", "node count"),
            ("engine simplex", "revised"),
            ("link 0 9 1\nnodes 2", "out of range"),
            ("nodes 2\nlink 0 1 5\nweight 3 1", "out of range"),
            ("matrix", "at least one size"),
            ("matrix 1 bad", "matrix needs sizes"),
            (
                "nodes 2\nlink 0 1 5\nlink 1 0 5\ndemand 0 1 1\nmatrix 1 2\nweight 0 1\nweight 1 1",
                "2 sizes for 1 demands",
            ),
        ] {
            let err = Case::from_text(text).unwrap_err().to_string();
            assert!(
                err.contains(needle),
                "'{text}' -> '{err}' missing '{needle}'"
            );
        }
    }

    #[test]
    fn diamond_case_passes_end_to_end() {
        let outcome = diamond_case().run(&ValidatorConfig::default());
        match outcome {
            CaseOutcome::Pass { checks } => assert!(checks > 50, "only {checks} checks"),
            other => panic!("expected pass, got {other}"),
        }
    }

    #[test]
    fn bad_extra_matrix_size_is_benign() {
        let mut case = diamond_case();
        case.extra_matrices[0][1] = -3.0;
        let outcome = case.run(&ValidatorConfig::default());
        assert!(matches!(outcome, CaseOutcome::Error(_)), "got {outcome}");
        assert!(!outcome.is_failure());
    }

    #[test]
    fn unroutable_case_is_benign() {
        let case = Case {
            nodes: 3,
            links: vec![(0, 1, 1.0), (1, 2, 1.0)],
            demands: vec![(2, 0, 1.0)],
            extra_matrices: Vec::new(),
            events: Vec::new(),
            weights: vec![1.0, 1.0],
            waypoints: vec![vec![]],
            threads: 1,
            engine: EngineChoice::Revised,
            pipeline: false,
            seed: 1,
        };
        assert!(matches!(
            case.run(&ValidatorConfig::default()),
            CaseOutcome::Error(_)
        ));
        assert!(!case.run(&ValidatorConfig::default()).is_failure());
    }
}
