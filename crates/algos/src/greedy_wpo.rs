//! Algorithm 3 (GreedyWPO): greedy waypoint selection under fixed weights.
//!
//! Demands are visited in descending size order. For each demand `ψ = (s, t,
//! d)` every node `w` is probed as a single waypoint — the demand is replaced
//! by the two segments `(s, w, d)` and `(w, t, d)` — and the waypoint that
//! lowers the current MLU the most is kept (none if no node improves it).
//!
//! The implementation maintains the running load vector of the *current*
//! routing (earlier demands keep their chosen waypoints), which both matches
//! the greedy "improve the MLU of the whole configuration" reading of the
//! pseudo-code and avoids quadratic re-evaluation: probing a waypoint is a
//! sparse delta on the load vector.
//!
//! Per-demand waypoint probes are independent, so they run on the
//! `segrout-par` pool against one shared (now `Sync`) router. The candidate
//! chains are generated in fixed (position, waypoint) order and the
//! acceptance fold replays that order serially, so the selected waypoints
//! are bit-identical at any thread count.
//!
//! **Bottleneck bound.** Before probing a demand, the sweep takes the
//! demand's current chain out of the running loads and computes the MLU of
//! what remains. Every candidate only adds the demand back:
//! `segment_loads_sparse` emits shares `f / outs.len()` with `f > EPS`,
//! and IEEE addition of a non-negative value and division by a positive
//! capacity are monotone, so each candidate's patched MLU is at least the
//! remaining loads' MLU on every matrix. [`RobustObjective::aggregate`] is a
//! quantile, monotone in each matrix's MLU, so the aggregated remaining MLU
//! is a lower bound on every candidate's aggregated MLU. When that bound
//! already misses the acceptance test (`≥ u_min · (1 − min_improvement)`,
//! the same expression), no candidate can be kept: the demand takes the
//! reject path without probing, and the result is bit-identical to probing
//! it. Only demands that cross every maximally loaded edge pass the bound,
//! which on large matrices is a small fraction of them. Pruned visits are
//! counted in `greedywpo.demands_pruned`; debug builds still probe them
//! and assert that nothing would have been accepted.
//!
//! **Robust multi-matrix selection** ([`greedy_wpo_robust`]): the same
//! greedy sweep against an aligned [`DemandSet`] of `K` matrices. One
//! running load vector is maintained *per matrix*, every candidate chain is
//! probed against every matrix (the `(candidate × matrix)` grid fans out on
//! the `segrout-par` pool), and the per-matrix patched MLUs fold through a
//! [`RobustObjective`] before the acceptance test. [`greedy_wpo`] is the
//! `K = 1` special case and delegates here — a one-matrix set reproduces
//! the classic sweep bit for bit.

use segrout_core::{
    max_link_utilization, DemandList, DemandSet, EdgeId, Network, NodeId, RobustObjective, Router,
    TeError, WaypointSetting, WeightSetting,
};
use segrout_obs::{event, Level};

/// Work threshold for the per-demand probe grid: below this many cells the
/// grid runs serially on the caller. A cell is one sparse `chain_loads` +
/// `patched_mlu` probe — far cheaper than the Dijkstra-sized work
/// `par_map`'s default threshold assumes.
const GRID_SERIAL_CUTOFF: usize = 128;

/// Sparse per-edge load delta of one candidate routing.
type SparseLoads = Vec<(EdgeId, f64)>;

/// MLU of `loads` patched by the sparse `delta`, without materializing the
/// patched vector.
///
/// `base_util_desc` holds the *unpatched* per-edge utilizations sorted in
/// descending order: the maximum over edges the delta does not touch is the
/// first untouched entry in that order, so a probe costs `O(|δ|²
/// + |δ| · scan)` instead of an `O(|E|)` clone-and-fold.
///
/// Bit-identity with the dense path: each touched edge's patched load
/// replays the exact accumulation sequence `loads[e] += l` would perform on
/// a full copy (first occurrence reads the base load, later duplicates add
/// onto the running sum, in delta order), and a maximum over the same value
/// multiset is order-independent, so the result equals
/// `max_link_utilization(&patched, caps)` bit for bit.
fn patched_mlu(
    loads: &[f64],
    caps: &[f64],
    base_util_desc: &[(f64, usize)],
    delta: &SparseLoads,
) -> f64 {
    let mut touched: Vec<(usize, f64)> = Vec::with_capacity(delta.len());
    for &(e, l) in delta {
        let idx = e.index();
        match touched.iter_mut().find(|(te, _)| *te == idx) {
            Some((_, v)) => *v += l,
            None => touched.push((idx, loads[idx] + l)),
        }
    }
    let mut mlu = 0.0f64;
    for &(u, idx) in base_util_desc {
        if !touched.iter().any(|&(te, _)| te == idx) {
            mlu = mlu.max(u);
            break; // descending order: the first untouched edge is the max
        }
    }
    for &(idx, v) in &touched {
        mlu = mlu.max(v / caps[idx]);
    }
    mlu
}

/// Configuration of GreedyWPO.
#[derive(Clone, Debug)]
pub struct GreedyWpoConfig {
    /// Candidate waypoints to consider for each demand. `None` probes every
    /// node (the paper's algorithm); a subset makes sweeps cheaper.
    pub candidates: Option<Vec<NodeId>>,
    /// Minimum relative MLU improvement for a waypoint to be accepted
    /// (guards against floating-point churn).
    pub min_improvement: f64,
    /// Waypoint budget `W` per demand. The paper's Algorithm 3 uses 1;
    /// larger budgets run additional greedy passes that insert one more
    /// waypoint into each demand's current segment chain.
    pub max_waypoints: usize,
}

impl Default for GreedyWpoConfig {
    fn default() -> Self {
        Self {
            candidates: None,
            min_improvement: 1e-9,
            max_waypoints: 1,
        }
    }
}

/// Runs GreedyWPO, returning the waypoint setting (at most one waypoint per
/// demand, the paper's `W = 1` regime of Algorithm 3).
///
/// # Errors
/// Fails when the initial ECMP routing of some demand is impossible.
pub fn greedy_wpo(
    net: &Network,
    demands: &DemandList,
    weights: &WeightSetting,
    cfg: &GreedyWpoConfig,
) -> Result<WaypointSetting, TeError> {
    greedy_wpo_robust(
        net,
        &DemandSet::single(demands.clone()),
        weights,
        RobustObjective::WorstCase,
        cfg,
    )
}

/// Runs GreedyWPO against an aligned set of traffic matrices: one waypoint
/// setting, accepted only when it improves the `robust`-aggregated
/// per-matrix MLU.
///
/// Each matrix keeps its own running load vector; a candidate chain's
/// per-matrix patched MLUs are computed on the `segrout-par` pool over the
/// `(candidate × matrix)` grid and folded through `robust` serially, in
/// candidate order — bit-identical at any thread count. A single-matrix
/// set is bit-identical to [`greedy_wpo`].
///
/// # Errors
/// Fails when the set is misaligned (waypoints are per demand index) or
/// the initial ECMP routing of some demand is impossible.
///
/// # Panics
/// Panics on an empty demand set.
pub fn greedy_wpo_robust(
    net: &Network,
    set: &DemandSet,
    weights: &WeightSetting,
    robust: RobustObjective,
    cfg: &GreedyWpoConfig,
) -> Result<WaypointSetting, TeError> {
    greedy_sweep(net, set, weights, robust, cfg).map(|(setting, _)| setting)
}

/// The sweep behind [`greedy_wpo_robust`]. Also returns how many demand
/// visits the bottleneck bound pruned, so tests can see the bound act
/// without reading the process-wide `greedywpo.demands_pruned` counter.
fn greedy_sweep(
    net: &Network,
    set: &DemandSet,
    weights: &WeightSetting,
    robust: RobustObjective,
    cfg: &GreedyWpoConfig,
) -> Result<(WaypointSetting, u64), TeError> {
    assert!(!set.is_empty(), "demand set must hold at least one matrix");
    set.require_aligned()?;
    let _span = segrout_obs::span("greedywpo");
    let k = set.len();
    let candidates_evaluated = segrout_obs::counter("greedywpo.candidates_evaluated");
    let demands_pruned = segrout_obs::counter("greedywpo.demands_pruned");
    let waypoints_set = segrout_obs::counter("greedywpo.waypoints_set");
    let matrix_evals = (k > 1).then(|| segrout_obs::counter("robust.matrix_evals"));
    let router = Router::new(net, weights);
    let caps = net.capacities();
    let n_demands = set.pair_count();
    let mut setting = WaypointSetting::none(n_demands);

    // Per-matrix loads of the all-direct routing.
    let mut loads: Vec<Vec<f64>> = Vec::with_capacity(k);
    for demands in set.matrices() {
        loads.push(router.evaluate(demands, &setting).map(|r| r.loads)?);
    }
    let mlu_of = |loads: &[Vec<f64>]| -> f64 {
        let mlus: Vec<f64> = loads
            .iter()
            .map(|l| max_link_utilization(l, caps))
            .collect();
        robust.aggregate(&mlus)
    };
    let mut u_min = mlu_of(&loads);
    // Local probe count for the flight recorder; GreedyWPO tracks no Φ, so
    // trace points carry `NaN` there (rendered as JSON null).
    let mut total_probes: u64 = 0;
    let mut pruned_visits: u64 = 0;
    segrout_obs::trace_point("greedywpo.start", 0, f64::NAN, u_min);
    event!(
        Level::Debug,
        "greedywpo.start",
        demands = n_demands,
        matrices = k,
        initial_mlu = u_min,
    );

    let all_nodes: Vec<NodeId> = net.graph().nodes().collect();
    let candidates: &[NodeId] = cfg.candidates.as_deref().unwrap_or(&all_nodes);

    // Sparse loads of routing `amount` along the segment chain
    // src -> chain[0] -> ... -> dst (degenerate hops skipped).
    let chain_loads =
        |chain: &[NodeId], src: NodeId, dst: NodeId, amount: f64| -> Result<SparseLoads, TeError> {
            let mut out = Vec::new();
            let mut cur = src;
            for &hop in chain.iter().chain(std::iter::once(&dst)) {
                if hop != cur {
                    out.extend(router.segment_loads_sparse(cur, hop, amount)?);
                    cur = hop;
                }
            }
            Ok(out)
        };

    // Probes every candidate chain of the demand `src -> dst` — its current
    // `chain` with one more waypoint inserted — against the running
    // `loads`, which must exclude the demand's own contribution. Returns
    // the candidates in fixed (position, waypoint) order and the
    // candidate-major `(candidate × matrix)` grid of patched MLUs and
    // deltas: candidate `ci`'s cells live at `[ci·K, ci·K+K)`.
    let probe = |chain: &[NodeId], src: NodeId, dst: NodeId, sizes: &[f64], loads: &[Vec<f64>]| {
        // Per-matrix base utilizations sorted descending, shared read-only
        // by every probe of this demand: one O(|E| log |E|) sort per matrix
        // replaces an O(|E|) load-vector clone per probe.
        let base_util: Vec<Vec<(f64, usize)>> = loads
            .iter()
            .map(|l| {
                let mut u: Vec<(f64, usize)> = l
                    .iter()
                    .zip(caps)
                    .map(|(l, c)| l / c)
                    .enumerate()
                    .map(|(idx, u)| (u, idx))
                    .collect();
                u.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
                u
            })
            .collect();
        let mut probes: Vec<Vec<NodeId>> = Vec::new();
        for pos in 0..=chain.len() {
            for &w in candidates {
                if w == src || w == dst || chain.contains(&w) {
                    continue;
                }
                let mut cand = chain.to_vec();
                cand.insert(pos, w);
                probes.push(cand);
            }
        }
        let tasks: Vec<(usize, usize)> = (0..probes.len())
            .flat_map(|ci| (0..k).map(move |mi| (ci, mi)))
            .collect();
        // Each cell is a sparse single-segment probe — microseconds of
        // work — so small grids (one matrix × a few dozen waypoints, the
        // k=1 common case) run serially: pool dispatch used to cost more
        // than the probes themselves (0.69× "speedup" at 2 threads in the
        // pre-threshold BENCH_parallel record). Robust multi-matrix grids
        // clear the threshold and still fan out.
        let evals = segrout_par::par_map_slice_min(&tasks, GRID_SERIAL_CUTOFF, |_, &(ci, mi)| {
            let delta = chain_loads(&probes[ci], src, dst, sizes[mi]).ok()?;
            Some((patched_mlu(&loads[mi], caps, &base_util[mi], &delta), delta))
        });
        (probes, evals)
    };

    // One greedy pass per waypoint of budget: each pass may insert one more
    // waypoint into every demand's chain (pass 1 with an empty chain is
    // exactly the paper's Algorithm 3).
    for _pass in 0..cfg.max_waypoints.max(1) {
        let mut inserted_any = false;
        for i in set.indices_by_descending_total_size() {
            let d = set.matrix(0)[i];
            let sizes: Vec<f64> = (0..k).map(|mi| set.matrix(mi)[i].size).collect();
            let chain = setting.get(i).to_vec();
            if chain.len() >= cfg.max_waypoints {
                continue;
            }
            // Remove this demand's current contribution from every matrix.
            let current: Vec<SparseLoads> = sizes
                .iter()
                .map(|&size| chain_loads(&chain, d.src, d.dst, size))
                .collect::<Result<_, _>>()?;
            for (l, cur) in loads.iter_mut().zip(&current) {
                for &(e, load) in cur {
                    l[e.index()] -= load;
                }
            }
            // Bottleneck bound (see the module docs): every candidate only
            // adds load back, so none can beat the MLU of the remaining
            // loads. When that already misses the acceptance threshold the
            // probe grid is skipped — exactly the rejection probing would
            // reach.
            let base_mlus: Vec<f64> = loads
                .iter()
                .map(|l| max_link_utilization(l, caps))
                .collect();
            let bound = robust.aggregate(&base_mlus);
            let pruned = bound >= u_min * (1.0 - cfg.min_improvement);
            let (picked, probed) = if pruned {
                pruned_visits += 1;
                demands_pruned.inc();
                // Prune hook: probing the pruned demand anyway must accept
                // nothing (debug builds only).
                #[cfg(debug_assertions)]
                {
                    let (_, evals) = probe(&chain, d.src, d.dst, &sizes, &loads);
                    let (best, _) = select_best(&evals, k, robust, u_min, cfg.min_improvement);
                    assert!(
                        best.is_none(),
                        "prune hook: demand {i} pruned at bound {bound} (MLU {u_min}) \
                         but candidate {best:?} passes the acceptance test"
                    );
                }
                (None, 0)
            } else {
                let (mut probes, mut evals) = probe(&chain, d.src, d.dst, &sizes, &loads);
                let (best, probed) = select_best(&evals, k, robust, u_min, cfg.min_improvement);
                candidates_evaluated.add(probed);
                if let Some(ctr) = &matrix_evals {
                    ctr.add(probed * k as u64);
                }
                total_probes += probed;
                let picked = best.map(|(ci, u)| {
                    let per_matrix: Vec<(f64, SparseLoads)> = evals
                        .drain(ci * k..(ci + 1) * k)
                        .map(|cell| cell.expect("accepted candidates evaluated on every matrix"))
                        .collect();
                    (probes.swap_remove(ci), u, per_matrix)
                });
                (picked, probed)
            };

            match picked {
                Some((cand, u, per_matrix)) => {
                    segrout_obs::trace_point("greedywpo.accept", total_probes, f64::NAN, u);
                    event!(
                        Level::Debug,
                        "greedywpo.pick",
                        demand = i,
                        waypoints = cand.len(),
                        mlu = u,
                    );
                    setting.set(i, cand);
                    for (mi, (l, (u_mi, delta))) in loads.iter_mut().zip(per_matrix).enumerate() {
                        for (e, load) in delta {
                            l[e.index()] += load;
                        }
                        if k > 1 && segrout_obs::trace_enabled() {
                            // Robust runs record the accepted move's
                            // per-matrix MLU (`iter` is the matrix index).
                            segrout_obs::trace_point("robust.matrix", mi as u64, f64::NAN, u_mi);
                        }
                        // Commit-point hook: each matrix's sparsely patched
                        // load vector and patched MLU must equal a
                        // from-scratch evaluation of the accepted waypoint
                        // setting (debug builds only).
                        #[cfg(debug_assertions)]
                        segrout_core::hooks::assert_commit_consistent(
                            net,
                            weights,
                            set.matrix(mi),
                            &setting,
                            l,
                            u_mi,
                        );
                        #[cfg(not(debug_assertions))]
                        let _ = u_mi;
                    }
                    u_min = u;
                    waypoints_set.inc();
                    inserted_any = true;
                }
                None => {
                    event!(
                        Level::Trace,
                        "greedywpo.reject",
                        demand = i,
                        probed = probed,
                        pruned = pruned,
                    );
                    // Keep the current chain: restore each matrix's
                    // contribution.
                    for (l, cur) in loads.iter_mut().zip(current) {
                        for (e, load) in cur {
                            l[e.index()] += load;
                        }
                    }
                }
            }
        }
        if !inserted_any {
            break;
        }
    }
    segrout_obs::gauge("greedywpo.final_mlu").set(u_min);
    segrout_obs::trace_point("greedywpo.done", total_probes, f64::NAN, u_min);
    event!(
        Level::Info,
        "greedywpo.done",
        candidates_evaluated = candidates_evaluated.get(),
        demands_pruned = demands_pruned.get(),
        waypoints = waypoints_set.get(),
        mlu = u_min,
    );
    Ok((setting, pruned_visits))
}

/// The acceptance fold over one demand's probe grid, replayed serially in
/// candidate order: a candidate is kept when its `robust`-aggregated MLU
/// beats the best so far (initially `u_min`) by the relative
/// `min_improvement`. Candidates unroutable on some matrix are skipped.
/// Returns the kept candidate with its MLU, and the number of candidates
/// evaluated on every matrix.
fn select_best(
    evals: &[Option<(f64, SparseLoads)>],
    k: usize,
    robust: RobustObjective,
    u_min: f64,
    min_improvement: f64,
) -> (Option<(usize, f64)>, u64) {
    let mut best: Option<(usize, f64)> = None;
    let mut probed: u64 = 0;
    for (ci, group) in evals.chunks(k).enumerate() {
        if group.iter().any(Option::is_none) {
            continue;
        }
        probed += 1;
        let mlus: Vec<f64> = group.iter().flatten().map(|(u, _)| *u).collect();
        let u = robust.aggregate(&mlus);
        let current_best = best.map(|(_, u)| u).unwrap_or(u_min);
        if u < current_best * (1.0 - min_improvement) {
            best = Some((ci, u));
        }
    }
    (best, probed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sparse probe evaluation must equal the dense clone-and-fold it
    /// replaced, bit for bit — including duplicate edges inside one delta
    /// (two segments of a chain sharing a link) and deltas that demote the
    /// current maximum edge.
    #[test]
    fn patched_mlu_matches_dense_evaluation() {
        let loads = vec![0.3, 1.5, 0.0, 2.25, 0.7];
        let caps = vec![1.0, 2.0, 1.0, 3.0, 0.5];
        let mut base_util: Vec<(f64, usize)> = loads
            .iter()
            .zip(&caps)
            .map(|(l, c)| l / c)
            .enumerate()
            .map(|(idx, u)| (u, idx))
            .collect();
        base_util.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));

        let deltas: Vec<SparseLoads> = vec![
            vec![],
            vec![(EdgeId(2), 0.125)],
            vec![(EdgeId(4), 0.1), (EdgeId(4), 0.2)], // duplicate edge
            vec![(EdgeId(4), -0.7)],                  // demote the max edge
            (0..5).map(|e| (EdgeId(e), 0.01 * e as f64)).collect(), // all touched
            vec![(EdgeId(1), 0.3), (EdgeId(3), 0.41), (EdgeId(1), 0.3)],
        ];
        for delta in &deltas {
            let mut dense = loads.clone();
            for &(e, l) in delta {
                dense[e.index()] += l;
            }
            let want = max_link_utilization(&dense, &caps);
            let got = patched_mlu(&loads, &caps, &base_util, delta);
            assert_eq!(got.to_bits(), want.to_bits(), "delta {delta:?}");
        }
    }

    /// TE-Instance-1 shape with m = 3: chain s=0 -> 1 -> 2 with thick links
    /// (cap 3), thin links (cap 1) from each chain node to t=3.
    fn instance1_like() -> (Network, DemandList) {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 3.0); // e0
        b.link(NodeId(1), NodeId(2), 3.0); // e1
        b.link(NodeId(0), NodeId(3), 1.0); // e2 (s,t)
        b.link(NodeId(1), NodeId(3), 1.0); // e3
        b.link(NodeId(2), NodeId(3), 1.0); // e4
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        for _ in 0..3 {
            d.push(NodeId(0), NodeId(3), 1.0);
        }
        (net, d)
    }

    /// Weights under which the direct (s,t) link is the unique shortest
    /// path, so all three unit demands pile onto the capacity-1 link.
    fn direct_heavy_weights(net: &Network) -> WeightSetting {
        // chain links weight 1, (v_i, t) links weight 10 except (s,t) = 2.
        WeightSetting::new(net, vec![1.0, 1.0, 2.0, 10.0, 10.0]).unwrap()
    }

    #[test]
    fn waypoints_spread_the_load() {
        let (net, d) = instance1_like();
        let w = direct_heavy_weights(&net);
        let router = Router::new(&net, &w);
        let before = router.mlu(&d).unwrap();
        assert!((before - 3.0).abs() < 1e-9); // all 3 units on the (s,t) link

        let wp = greedy_wpo(&net, &d, &w, &GreedyWpoConfig::default()).unwrap();
        let after = router.evaluate(&d, &wp).unwrap().mlu;
        assert!(
            after < before - 0.5,
            "greedy waypoints should reduce MLU: {before} -> {after}"
        );
    }

    #[test]
    fn no_waypoint_when_nothing_improves() {
        // Single demand over a single path: no waypoint can help.
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 1.0);
        b.link(NodeId(1), NodeId(2), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(2), 1.0);
        let w = WeightSetting::unit(&net);
        let wp = greedy_wpo(&net, &d, &w, &GreedyWpoConfig::default()).unwrap();
        assert!(wp.get(0).is_empty());
    }

    #[test]
    fn mlu_never_increases() {
        let (net, d) = instance1_like();
        for weights in [
            WeightSetting::unit(&net),
            WeightSetting::inverse_capacity(&net),
            direct_heavy_weights(&net),
        ] {
            let router = Router::new(&net, &weights);
            let before = router.mlu(&d).unwrap();
            let wp = greedy_wpo(&net, &d, &weights, &GreedyWpoConfig::default()).unwrap();
            let after = router.evaluate(&d, &wp).unwrap().mlu;
            assert!(after <= before + 1e-9, "{before} -> {after}");
        }
    }

    #[test]
    fn candidate_restriction_is_respected() {
        let (net, d) = instance1_like();
        let w = direct_heavy_weights(&net);
        let cfg = GreedyWpoConfig {
            candidates: Some(vec![NodeId(1)]),
            ..Default::default()
        };
        let wp = greedy_wpo(&net, &d, &w, &cfg).unwrap();
        for i in 0..d.len() {
            for &x in wp.get(i) {
                assert_eq!(x, NodeId(1));
            }
        }
    }

    #[test]
    fn descending_order_assigns_biggest_first() {
        // Two demands of different size; only one useful waypoint slot
        // (capacities make a single reroute beneficial). The big demand gets
        // first pick.
        let (net, _) = instance1_like();
        let w = direct_heavy_weights(&net);
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 0.4);
        d.push(NodeId(0), NodeId(3), 2.0);
        let wp = greedy_wpo(&net, &d, &w, &GreedyWpoConfig::default()).unwrap();
        // The larger demand (index 1) must have been rerouted.
        assert!(!wp.get(1).is_empty());
    }
    #[test]
    fn two_waypoint_budget_runs_extra_passes() {
        // TE-Instance 3 needs two waypoints for its optimal routing; with
        // W = 2 greedy must do at least as well as with W = 1.
        let (net, d) = instance1_like();
        let w = direct_heavy_weights(&net);
        let router = Router::new(&net, &w);
        let one = greedy_wpo(&net, &d, &w, &GreedyWpoConfig::default()).unwrap();
        let two = greedy_wpo(
            &net,
            &d,
            &w,
            &GreedyWpoConfig {
                max_waypoints: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let u1 = router.evaluate(&d, &one).unwrap().mlu;
        let u2 = router.evaluate(&d, &two).unwrap().mlu;
        assert!(u2 <= u1 + 1e-9, "W=2 never worse: {u2} vs {u1}");
        assert!(two.max_used() <= 2);
    }

    /// A one-matrix `DemandSet` must reproduce the classic single-matrix
    /// sweep bit for bit (the module-level reduction contract).
    #[test]
    fn single_matrix_set_reduces_bit_identically() {
        let (net, d) = instance1_like();
        let w = direct_heavy_weights(&net);
        let classic = greedy_wpo(&net, &d, &w, &GreedyWpoConfig::default()).unwrap();
        let robust = greedy_wpo_robust(
            &net,
            &DemandSet::single(d.clone()),
            &w,
            RobustObjective::Quantile(1.0),
            &GreedyWpoConfig::default(),
        )
        .unwrap();
        for i in 0..d.len() {
            assert_eq!(classic.get(i), robust.get(i));
        }
    }

    /// The robust sweep must never increase the worst-case MLU of the set,
    /// and a misaligned set must be rejected.
    #[test]
    fn robust_sweep_improves_worst_case_and_checks_alignment() {
        let (net, d) = instance1_like();
        let w = direct_heavy_weights(&net);
        // Second matrix: same pairs, scaled sizes (a diurnal-style peak).
        let scaled: DemandList = d
            .iter()
            .map(|x| segrout_core::Demand::new(x.src, x.dst, x.size * 1.5))
            .collect();
        let mut set = DemandSet::single(d.clone());
        set.push("peak", scaled);

        let before =
            segrout_core::evaluate_robust(&net, &w, &set, &WaypointSetting::none(set.pair_count()))
                .unwrap()
                .worst_mlu();
        let wp = greedy_wpo_robust(
            &net,
            &set,
            &w,
            RobustObjective::WorstCase,
            &GreedyWpoConfig::default(),
        )
        .unwrap();
        let after = segrout_core::evaluate_robust(&net, &w, &set, &wp)
            .unwrap()
            .worst_mlu();
        assert!(after <= before + 1e-9, "{before} -> {after}");

        let mut skewed = DemandList::new();
        skewed.push(NodeId(1), NodeId(3), 1.0);
        let mut bad = DemandSet::single(d);
        bad.push("skewed", skewed);
        assert!(greedy_wpo_robust(
            &net,
            &bad,
            &w,
            RobustObjective::WorstCase,
            &GreedyWpoConfig::default()
        )
        .is_err());
    }

    /// Two disconnected copies of [`instance1_like`]: nodes 0–3 (s = 0,
    /// t = 3) and 4–7 (s = 4, t = 7), weighted as
    /// [`direct_heavy_weights`], so each half's direct link `(s, t)` is a
    /// bottleneck of its own and the two share no edge.
    fn two_bottlenecks() -> (Network, WeightSetting) {
        let mut b = Network::builder(8);
        for base in [0, 4] {
            let n = |i: u32| NodeId(base + i);
            b.link(n(0), n(1), 3.0);
            b.link(n(1), n(2), 3.0);
            b.link(n(0), n(3), 1.0);
            b.link(n(1), n(3), 1.0);
            b.link(n(2), n(3), 1.0);
        }
        let net = b.build().unwrap();
        let half = [1.0, 1.0, 2.0, 10.0, 10.0];
        let w = WeightSetting::new(&net, half.iter().chain(&half).copied().collect()).unwrap();
        (net, w)
    }

    fn chains(wp: &WaypointSetting) -> Vec<Vec<usize>> {
        (0..wp.len())
            .map(|i| wp.get(i).iter().map(|w| w.index()).collect())
            .collect()
    }

    /// Left bottleneck at utilization 3, right at 1.5. Demands 0 and 1
    /// (left) and 3 (right) each cross the maximal link and get a
    /// waypoint; demand 2 is visited when the right link (1.5) is the
    /// maximum and demand 4 when no maximal link carries it, so the
    /// bound prunes both — and the debug prune hook probes them anyway.
    #[test]
    fn bound_prunes_demands_off_the_bottleneck() {
        let (net, w) = two_bottlenecks();
        let mut d = DemandList::new();
        for _ in 0..3 {
            d.push(NodeId(0), NodeId(3), 1.0);
        }
        d.push(NodeId(4), NodeId(7), 1.0);
        d.push(NodeId(4), NodeId(7), 0.5);
        let set = DemandSet::single(d.clone());
        let cfg = GreedyWpoConfig::default();
        let (wp, pruned) = greedy_sweep(&net, &set, &w, RobustObjective::WorstCase, &cfg).unwrap();
        assert_eq!(chains(&wp), vec![vec![1], vec![2], vec![], vec![5], vec![]]);
        assert_eq!(pruned, 2);
        assert_eq!(Router::new(&net, &w).evaluate(&d, &wp).unwrap().mlu, 1.0);
    }

    /// With both bottlenecks at the same utilization, every demand crosses
    /// only one of the two maximal links, so none can lower the MLU: every
    /// visit is pruned and no waypoint is set, although each demand alone
    /// would relieve its own half.
    #[test]
    fn equal_bottlenecks_prune_every_demand() {
        let (net, w) = two_bottlenecks();
        let mut d = DemandList::new();
        for (s, t) in [(0, 3), (4, 7)] {
            for _ in 0..3 {
                d.push(NodeId(s), NodeId(t), 1.0);
            }
        }
        let (wp, pruned) = greedy_sweep(
            &net,
            &DemandSet::single(d),
            &w,
            RobustObjective::WorstCase,
            &GreedyWpoConfig::default(),
        )
        .unwrap();
        assert_eq!(chains(&wp), vec![Vec::<usize>::new(); 6]);
        assert_eq!(pruned, 6);
    }

    /// `K = 2` under `Quantile(0.5)`, which with two matrices aggregates
    /// to the lower per-matrix MLU. Matrix A loads the left bottleneck to
    /// 3, matrix B the right one to 3. Demand 3 (visited first, largest
    /// total) relieves B's link and drops the aggregate to 1.5. Every
    /// remaining demand is pruned: the left demands would lower A's MLU
    /// from 3 to 2, but B stays at 1.5 whatever they do, so the aggregate
    /// cannot fall.
    #[test]
    fn bound_is_exact_for_robust_quantile_sets() {
        let (net, w) = two_bottlenecks();
        let pairs = [(0, 3), (0, 3), (0, 3), (4, 7), (4, 7)];
        let matrix = |sizes: [f64; 5]| -> DemandList {
            let mut d = DemandList::new();
            for (&(s, t), size) in pairs.iter().zip(sizes) {
                d.push(NodeId(s), NodeId(t), size);
            }
            d
        };
        let mut set = DemandSet::single(matrix([1.0, 1.0, 1.0, 1.0, 0.5]));
        set.push("b", matrix([0.25, 0.25, 0.25, 1.5, 1.5]));
        let (wp, pruned) = greedy_sweep(
            &net,
            &set,
            &w,
            RobustObjective::Quantile(0.5),
            &GreedyWpoConfig::default(),
        )
        .unwrap();
        assert_eq!(chains(&wp), vec![vec![], vec![], vec![], vec![5], vec![]]);
        assert_eq!(pruned, 4);
        let report = segrout_core::evaluate_robust(&net, &w, &set, &wp).unwrap();
        assert_eq!(report.aggregate_mlu(RobustObjective::Quantile(0.5)), 1.5);
    }

    /// `max_waypoints = 2` on a gadget where demand 0 (0 → 3) needs two
    /// waypoints: via 1 alone ECMP still sends half over the bottleneck
    /// `(0, 3)`, via 2 alone all of it, and only the chain `[1, 2]`
    /// avoids it. A second, unreroutable demand (4 → 5) sits below the
    /// maximum, so the bound prunes it in both passes while demand 0 is
    /// probed in both and gains its second waypoint in pass 2.
    #[test]
    fn bound_is_exact_with_two_waypoint_budget() {
        let mut b = Network::builder(6);
        b.link(NodeId(0), NodeId(3), 1.0); // the bottleneck
        b.link(NodeId(0), NodeId(1), 10.0);
        b.link(NodeId(1), NodeId(0), 10.0);
        b.link(NodeId(1), NodeId(2), 10.0);
        b.link(NodeId(2), NodeId(3), 10.0);
        b.link(NodeId(3), NodeId(2), 10.0);
        b.link(NodeId(4), NodeId(5), 1.0);
        let net = b.build().unwrap();
        // 1 -> 3 ties between 1-0-3 and 1-2-3; 0 -> 2 runs 0-3-2.
        let w = WeightSetting::new(&net, vec![1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 1.0]).unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 1.0);
        d.push(NodeId(4), NodeId(5), 0.05);
        let cfg = GreedyWpoConfig {
            max_waypoints: 2,
            ..Default::default()
        };
        let (one, _) = greedy_sweep(
            &net,
            &DemandSet::single(d.clone()),
            &w,
            RobustObjective::WorstCase,
            &GreedyWpoConfig::default(),
        )
        .unwrap();
        assert_eq!(chains(&one), vec![vec![1], vec![]]);
        let (two, pruned) = greedy_sweep(
            &net,
            &DemandSet::single(d.clone()),
            &w,
            RobustObjective::WorstCase,
            &cfg,
        )
        .unwrap();
        assert_eq!(chains(&two), vec![vec![1, 2], vec![]]);
        assert_eq!(pruned, 2);
        assert_eq!(Router::new(&net, &w).evaluate(&d, &two).unwrap().mlu, 0.1);
    }
}
