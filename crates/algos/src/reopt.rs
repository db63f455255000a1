//! Reconfiguration-aware re-optimization — the extension the paper's
//! conclusion calls for: *"It would be interesting to explore TE algorithms
//! that react to shifts in the traffic demand and account for
//! reconfiguration costs."*
//!
//! When the traffic matrix drifts, re-running HeurOSPF from scratch may
//! rewrite most link weights; every changed weight triggers an IGP
//! re-convergence with transient loops and packet loss, so operators want
//! *few* changes. [`reoptimize_weights`] runs the same local search but
//! constrains the result to differ from the currently deployed setting on
//! at most `max_weight_changes` links. Because segment-routing waypoints
//! are per-demand header state (no IGP flooding), waypoint churn is free by
//! comparison — so [`reoptimize_joint`] first spends the cheap knob
//! (waypoints on the *old* weights) and only then the constrained weight
//! changes, quantifying the papers' intuition that the joint approach also
//! helps operationally.

use crate::greedy_wpo::{greedy_wpo, GreedyWpoConfig};
use crate::heur_ospf::{heur_ospf, HeurOspfConfig, Objective};
use segrout_core::rng::{SliceRandom, StdRng};
use segrout_core::{
    DemandList, EdgeId, IncrementalEvaluator, Network, Router, TeError, WaypointSetting,
    WeightSetting,
};
use segrout_obs::{event, Level};

/// Configuration for reconfiguration-aware re-optimization.
#[derive(Clone, Debug)]
pub struct ReoptimizeConfig {
    /// Maximum number of links whose weight may differ from the deployed
    /// setting (the reconfiguration budget).
    pub max_weight_changes: usize,
    /// Local-search parameters (weight range, passes, seed, objective).
    pub ospf: HeurOspfConfig,
    /// Waypoint stage parameters for [`reoptimize_joint`].
    pub wpo: GreedyWpoConfig,
}

impl Default for ReoptimizeConfig {
    fn default() -> Self {
        Self {
            max_weight_changes: 3,
            ospf: HeurOspfConfig::default(),
            wpo: GreedyWpoConfig::default(),
        }
    }
}

/// Result of a re-optimization step.
#[derive(Clone, Debug)]
pub struct ReoptimizeResult {
    /// The new weight setting (within the change budget of the deployed
    /// one for the constrained entry points).
    pub weights: WeightSetting,
    /// New waypoint setting (empty rows for [`reoptimize_weights`]).
    pub waypoints: WaypointSetting,
    /// MLU under the new configuration.
    pub mlu: f64,
    /// Number of links whose weight changed vs the deployed setting.
    pub weight_changes: usize,
}

/// Counts links where two settings differ.
pub fn weight_distance(a: &WeightSetting, b: &WeightSetting) -> usize {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .filter(|(x, y)| (*x - *y).abs() > 1e-9)
        .count()
}

/// Rounds a deployed weight setting into the integer range `[1,
/// max_weight]` — re-optimization assumes the deployed setting came from the
/// same toolchain, which emits integral weights.
pub fn round_deployed(net: &Network, deployed: &WeightSetting, max_weight: u32) -> WeightSetting {
    WeightSetting::new(
        net,
        deployed
            .as_slice()
            .iter()
            .map(|&w| (w.round() as u32).clamp(1, max_weight) as f64)
            .collect(),
    )
    .expect("rounded integer weights are valid")
}

/// Outcome of [`reoptimize_weights_on`]: the accepted weight setting plus
/// the search's bookkeeping (the evaluator itself is left committed on
/// exactly these weights).
#[derive(Clone, Debug)]
pub struct EvaluatorReopt {
    /// The new weight setting (within the change budget of the base).
    pub weights: WeightSetting,
    /// MLU under the new setting (bit-identical to the evaluator's).
    pub mlu: f64,
    /// Fortz–Thorup Φ under the new setting.
    pub phi: f64,
    /// Number of links whose weight changed vs the base setting.
    pub weight_changes: usize,
    /// Candidate evaluations (probes) the search spent.
    pub evaluations: u64,
}

/// The budgeted Fortz–Thorup descent on a **caller-provided** evaluator
/// ([`reoptimize_weights`] builds one from the deployed setting and calls
/// this). Every candidate is scored with an incremental probe against
/// `ev`'s live state — the daemon path must not rebuild `|D|` SP-DAGs per
/// event, let alone per candidate. Accepted moves are committed in place,
/// so on return the evaluator sits exactly on the returned weights.
///
/// The evaluator's committed weights are the deployed base and must already
/// be integral in `[1, cfg.ospf.max_weight]` (see [`round_deployed`]);
/// probes are bit-identical to scratch evaluation, so the search walks the
/// acceptance trajectory a full evaluation per candidate would.
///
/// The objective is scored on whatever workload (demands, waypoints,
/// failure mask, capacity overrides) the evaluator holds — which is what
/// lets the serving loop re-optimize under link failures and capacity
/// changes that a plain `(net, demands)` signature cannot express.
pub fn reoptimize_weights_on(
    ev: &mut IncrementalEvaluator<'_>,
    cfg: &ReoptimizeConfig,
) -> Result<EvaluatorReopt, TeError> {
    let _span = segrout_obs::span("reopt.weights");
    let evals = segrout_obs::counter("reopt.evaluations");
    let m = ev.network().edge_count();
    let base: Vec<u32> = ev
        .weights()
        .iter()
        .map(|&w| (w.round() as u32).clamp(1, cfg.ospf.max_weight))
        .collect();
    debug_assert!(
        ev.weights().iter().zip(&base).all(|(&w, &b)| w == b as f64),
        "reoptimize_weights_on requires integral deployed weights in range"
    );
    let objective = cfg.ospf.objective;
    let pack = |phi: f64, mlu: f64| match objective {
        Objective::PhiThenMlu => (phi, mlu),
        Objective::MluThenPhi => (mlu, phi),
    };

    let mut rng = StdRng::seed_from_u64(cfg.ospf.seed);
    let mut cur = base.clone();
    let mut cur_score = pack(ev.phi(), ev.mlu());
    let mut changed: Vec<usize> = Vec::new();

    // Flight recorder: (phi, mlu) per accepted move, evals counted locally.
    let unpack = |s: (f64, f64)| match objective {
        Objective::PhiThenMlu => (s.0, s.1),
        Objective::MluThenPhi => (s.1, s.0),
    };
    let mut total_evals: u64 = 1;
    let (phi0, mlu0) = unpack(cur_score);
    segrout_obs::trace_point("reopt.start", total_evals, phi0, mlu0);

    let mut edge_order: Vec<usize> = (0..m).collect();
    for _pass in 0..cfg.ospf.max_passes {
        let mut improved = false;
        edge_order.shuffle(&mut rng);
        for &e in &edge_order {
            // Budget: may modify an already-changed link freely, or a fresh
            // one only while budget remains.
            let is_changed = changed.contains(&e);
            if !is_changed && changed.len() >= cfg.max_weight_changes {
                continue;
            }
            let old = cur[e];
            let candidates = [
                old.saturating_sub(1).max(1),
                (old + 1).min(cfg.ospf.max_weight),
                1,
                cfg.ospf.max_weight,
                rng.gen_range(1..=cfg.ospf.max_weight),
            ];
            for &cand in &candidates {
                if cand == old {
                    continue;
                }
                let probe = ev.probe(EdgeId(e as u32), cand as f64)?;
                evals.inc();
                total_evals += 1;
                let s = pack(probe.phi, probe.mlu);
                if s.0 < cur_score.0 - 1e-12
                    || (s.0 <= cur_score.0 + 1e-12 && s.1 < cur_score.1 - 1e-12)
                {
                    cur[e] = cand;
                    ev.commit(probe);
                    cur_score = s;
                    improved = true;
                    let (phi, mlu) = unpack(cur_score);
                    segrout_obs::trace_point("reopt.accept", total_evals, phi, mlu);
                    if !is_changed && cur[e] != base[e] {
                        changed.push(e);
                    }
                    break;
                }
            }
            // Reverting a changed link back to base frees budget.
            if changed.contains(&e) && cur[e] == base[e] {
                changed.retain(|&x| x != e);
            }
            // Commit-point hook: the changed-set bookkeeping must track the
            // actual divergence from the deployed setting exactly — it is
            // what enforces the reconfiguration budget (debug builds only).
            #[cfg(debug_assertions)]
            {
                let diverged: Vec<usize> = (0..m).filter(|&i| cur[i] != base[i]).collect();
                debug_assert!(
                    diverged.len() <= cfg.max_weight_changes,
                    "reopt commit: {} links diverged, budget {}",
                    diverged.len(),
                    cfg.max_weight_changes
                );
                for &i in &diverged {
                    debug_assert!(
                        changed.contains(&i),
                        "reopt commit: link {i} diverged but is not tracked as changed"
                    );
                }
            }
        }
        if !improved {
            break;
        }
    }

    let weights = WeightSetting::new(ev.network(), cur.iter().map(|&x| x as f64).collect())
        .expect("integer weights are valid");
    debug_assert!(
        weights
            .as_slice()
            .iter()
            .zip(ev.weights())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "evaluator must sit on the accepted weights after the search"
    );
    let mlu = ev.mlu();
    let weight_changes = cur.iter().zip(&base).filter(|(a, b)| a != b).count();
    debug_assert!(weight_changes <= cfg.max_weight_changes);
    let (phi_fin, _) = unpack(cur_score);
    segrout_obs::trace_point("reopt.done", total_evals, phi_fin, mlu);
    event!(
        Level::Info,
        "reopt.weights_done",
        mlu = mlu,
        weight_changes = weight_changes,
        budget = cfg.max_weight_changes,
    );
    Ok(EvaluatorReopt {
        weights,
        mlu,
        phi: ev.phi(),
        weight_changes,
        evaluations: total_evals,
    })
}

/// Re-optimizes link weights for `demands` starting from the deployed
/// setting, changing at most `cfg.max_weight_changes` link weights.
///
/// The deployed weights are rounded into the integer range `[1,
/// cfg.ospf.max_weight]` first (re-optimization assumes the deployed
/// setting came from the same toolchain). One incremental evaluator is
/// built for the whole search ([`reoptimize_weights_on`] does the work) —
/// callers that already hold a live evaluator, like the serving loop,
/// should call that entry point directly and skip the build.
///
/// # Errors
/// Propagates routing errors (disconnected demands under every setting).
pub fn reoptimize_weights(
    net: &Network,
    demands: &DemandList,
    deployed: &WeightSetting,
    cfg: &ReoptimizeConfig,
) -> Result<ReoptimizeResult, TeError> {
    let rounded = round_deployed(net, deployed, cfg.ospf.max_weight);
    let mut ev = IncrementalEvaluator::new(
        net,
        &rounded,
        demands,
        &WaypointSetting::none(demands.len()),
    )?;
    let r = reoptimize_weights_on(&mut ev, cfg)?;
    Ok(ReoptimizeResult {
        weights: r.weights,
        waypoints: WaypointSetting::none(demands.len()),
        mlu: r.mlu,
        weight_changes: r.weight_changes,
    })
}

/// Joint re-optimization: first re-assign waypoints under the *deployed*
/// weights (free: no IGP churn), then spend the weight-change budget, then
/// re-assign waypoints once more under the final weights. Returns the best
/// stage.
///
/// # Errors
/// Propagates routing errors.
pub fn reoptimize_joint(
    net: &Network,
    demands: &DemandList,
    deployed: &WeightSetting,
    cfg: &ReoptimizeConfig,
) -> Result<ReoptimizeResult, TeError> {
    let _span = segrout_obs::span("reopt.joint");
    // Stage 1: waypoints on deployed weights.
    let router_old = Router::new(net, deployed);
    let wp1 = greedy_wpo(net, demands, deployed, &cfg.wpo)?;
    let mlu1 = router_old.evaluate(demands, &wp1)?.mlu;
    event!(Level::Debug, "reopt.joint_stage1", mlu = mlu1);

    // Stage 2: constrained weight changes (on the direct demands; the
    // waypoint stage is cheap to re-run afterwards).
    let rw = reoptimize_weights(net, demands, deployed, cfg)?;

    // Stage 3: waypoints on the new weights.
    let wp3 = greedy_wpo(net, demands, &rw.weights, &cfg.wpo)?;
    let router_new = Router::new(net, &rw.weights);
    let mlu3 = router_new.evaluate(demands, &wp3)?.mlu;
    event!(
        Level::Info,
        "reopt.joint_done",
        waypoints_only_mlu = mlu1,
        reweighted_mlu = mlu3,
        kept_deployed_weights = mlu1 <= mlu3,
    );

    let result = if mlu1 <= mlu3 {
        ReoptimizeResult {
            weights: deployed.clone(),
            waypoints: wp1,
            mlu: mlu1,
            weight_changes: 0,
        }
    } else {
        ReoptimizeResult {
            weights: rw.weights,
            waypoints: wp3,
            mlu: mlu3,
            weight_changes: rw.weight_changes,
        }
    };
    // Commit-point hook: the returned (weights, waypoints, mlu) triple must
    // be internally consistent — the stage-selection logic above pairs
    // values computed against different routers (debug builds only).
    #[cfg(debug_assertions)]
    {
        let report = Router::new(net, &result.weights).evaluate(demands, &result.waypoints)?;
        segrout_core::hooks::assert_commit_consistent(
            net,
            &result.weights,
            demands,
            &result.waypoints,
            &report.loads,
            result.mlu,
        );
    }
    Ok(result)
}

/// Convenience oracle: unconstrained re-optimization (full HeurOSPF from
/// scratch) for comparing against the budgeted variants.
pub fn reoptimize_unconstrained(
    net: &Network,
    demands: &DemandList,
    deployed: &WeightSetting,
    cfg: &ReoptimizeConfig,
) -> Result<ReoptimizeResult, TeError> {
    let weights = heur_ospf(net, demands, &cfg.ospf);
    let router = Router::new(net, &weights);
    let mlu = router.mlu(demands)?;
    Ok(ReoptimizeResult {
        weights: weights.clone(),
        waypoints: WaypointSetting::none(demands.len()),
        mlu,
        weight_changes: weight_distance(&weights, deployed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use segrout_core::NodeId;

    /// Deployed weights tuned for one matrix; then the traffic shifts.
    fn shifted_scenario() -> (Network, DemandList, DemandList) {
        let mut b = Network::builder(4);
        b.bilink(NodeId(0), NodeId(1), 10.0);
        b.bilink(NodeId(1), NodeId(2), 10.0);
        b.bilink(NodeId(2), NodeId(3), 10.0);
        b.bilink(NodeId(3), NodeId(0), 10.0);
        b.bilink(NodeId(0), NodeId(2), 2.0);
        let net = b.build().unwrap();
        let mut before = DemandList::new();
        before.push(NodeId(1), NodeId(3), 8.0);
        let mut after = DemandList::new();
        after.push(NodeId(0), NodeId(2), 8.0); // now the thin diagonal beckons
        (net, before, after)
    }

    #[test]
    fn budget_is_respected() {
        let (net, before, after) = shifted_scenario();
        let deployed = heur_ospf(&net, &before, &HeurOspfConfig::default());
        for budget in [0usize, 1, 3] {
            let cfg = ReoptimizeConfig {
                max_weight_changes: budget,
                ..Default::default()
            };
            let r = reoptimize_weights(&net, &after, &deployed, &cfg).unwrap();
            assert!(
                r.weight_changes <= budget,
                "budget {budget} violated: {} changes",
                r.weight_changes
            );
        }
    }

    #[test]
    fn zero_budget_keeps_deployed_weights() {
        let (net, before, after) = shifted_scenario();
        let deployed = heur_ospf(&net, &before, &HeurOspfConfig::default());
        let cfg = ReoptimizeConfig {
            max_weight_changes: 0,
            ..Default::default()
        };
        let r = reoptimize_weights(&net, &after, &deployed, &cfg).unwrap();
        assert_eq!(r.weight_changes, 0);
    }

    #[test]
    fn more_budget_never_hurts() {
        let (net, before, after) = shifted_scenario();
        let deployed = heur_ospf(&net, &before, &HeurOspfConfig::default());
        let mut last = f64::INFINITY;
        for budget in [0usize, 2, 6] {
            let cfg = ReoptimizeConfig {
                max_weight_changes: budget,
                ..Default::default()
            };
            let r = reoptimize_weights(&net, &after, &deployed, &cfg).unwrap();
            assert!(r.mlu <= last + 1e-9, "budget {budget}: {} > {last}", r.mlu);
            last = r.mlu;
        }
    }

    #[test]
    fn joint_reopt_beats_or_matches_weights_only() {
        let (net, before, after) = shifted_scenario();
        let deployed = heur_ospf(&net, &before, &HeurOspfConfig::default());
        let cfg = ReoptimizeConfig {
            max_weight_changes: 1,
            ..Default::default()
        };
        let w_only = reoptimize_weights(&net, &after, &deployed, &cfg).unwrap();
        let joint = reoptimize_joint(&net, &after, &deployed, &cfg).unwrap();
        assert!(joint.mlu <= w_only.mlu + 1e-9);
    }

    #[test]
    fn unconstrained_is_the_quality_oracle() {
        let (net, before, after) = shifted_scenario();
        let deployed = heur_ospf(&net, &before, &HeurOspfConfig::default());
        let cfg = ReoptimizeConfig {
            max_weight_changes: 2,
            ..Default::default()
        };
        let constrained = reoptimize_weights(&net, &after, &deployed, &cfg).unwrap();
        let oracle = reoptimize_unconstrained(&net, &after, &deployed, &cfg).unwrap();
        assert!(oracle.mlu <= constrained.mlu + 1e-9);
    }

    #[test]
    fn weight_distance_counts_differences() {
        let (net, _, _) = shifted_scenario();
        let a = WeightSetting::unit(&net);
        let mut b = WeightSetting::unit(&net);
        b.set(segrout_core::EdgeId(0), 5.0);
        b.set(segrout_core::EdgeId(3), 2.0);
        assert_eq!(weight_distance(&a, &b), 2);
        assert_eq!(weight_distance(&a, &a), 0);
    }
}
