//! Incremental ECMP re-evaluation for single-edge weight changes — the
//! engine behind the HeurOSPF candidate loop.
//!
//! The Fortz–Thorup local search asks one question thousands of times per
//! pass: *"what are Φ / MLU if edge `e`'s weight becomes `w`?"* Answering it
//! from scratch costs one Dijkstra plus one load propagation **per
//! destination**, even though a single-edge change leaves most shortest-path
//! DAGs untouched. [`IncrementalEvaluator`] maintains, for a base weight
//! vector, every per-destination SP-DAG *and* a per-destination decomposition
//! of the link-load vector, and answers probes in three steps:
//!
//! 1. **Affected-destination test** — destination `t` is *dirty* only if the
//!    changed edge can alter `t`'s DAG: a weight increase on an edge that is
//!    on the DAG, or a decrease that reaches the current distance at the
//!    edge's tail ([`segrout_graph::edge_change_affects_dag`]). Everything
//!    else is provably clean and is skipped entirely.
//! 2. **Bounded DAG repair** — dirty destinations are repaired with a
//!    Ramalingam–Reps-style dynamic Dijkstra update
//!    ([`segrout_graph::update_shortest_path_dag`]) whose work is
//!    proportional to the set of nodes whose distance actually changes; when
//!    that set exceeds the *fallback threshold* (`frontier_cap`, default
//!    half the node count) a full per-destination Dijkstra runs instead.
//! 3. **Load patching** — each dirty destination's load partial is
//!    re-propagated over its repaired DAG; the total load vector is then
//!    re-summed from the per-destination partials **in ascending destination
//!    order**. Clean destinations contribute their cached partials, so no
//!    propagation runs for them — but the summation order is exactly the one
//!    the from-scratch evaluator uses, which keeps every load, Φ and MLU
//!    value **bit-identical** to [`crate::Router`] at any thread count. (A
//!    subtract-stale/add-new patch would be cheaper still, but `f64`
//!    addition is not associative — re-folding cached partials is the only
//!    patch that preserves the bit pattern.)
//!
//! The partials live in a [`LoadArena`]: one flat `|D| · |E|` slab instead
//! of `|D|` separate `Vec`s, plus a *prefix slab* caching the ascending fold
//! up to every destination. A probe whose first dirty destination is `i`
//! starts from a straight copy of prefix row `i - 1` and only folds rows
//! `i..` — bit-safe, because the skipped prefix **is** the identical `f64`
//! operation sequence, just cached from the last commit (no reassociation
//! happens). A fully clean probe is a single copy of the committed totals.
//! The re-fold itself is a branch-free add over two contiguous `f64` slices
//! the compiler can autovectorize.
//!
//! Probes borrow the evaluator read-only, so a speculative candidate
//! neighbourhood can be scored in parallel on the `segrout-par` pool against
//! one shared base state; the accepted candidate is then applied in place
//! with [`IncrementalEvaluator::commit`].
//!
//! Bit-identity of the repaired DAGs additionally relies on tie-exact
//! weights — sums of weights must be exactly representable so that shortest-
//! path ties classify identically in the repaired and the from-scratch run.
//! Integral weight vectors (what every optimizer in this workspace emits)
//! satisfy this; the differential suite (`tests/incremental_differential.rs`)
//! enforces `f64::to_bits` equality across instances, thread counts and
//! random weight-change sequences.

use crate::cost::{fortz_phi, max_link_utilization};
use crate::demand::DemandList;
use crate::ecmp::{
    group_by_destination, propagate_destination, recompute_counter, spread_seeded, Segment,
};
use crate::error::TeError;
use crate::network::Network;
use crate::waypoints::WaypointSetting;
use crate::weights::WeightSetting;
use segrout_graph::{
    disable_edge_update, edge_change_affects_dag, edge_disabled, shortest_path_dag_masked,
    update_shortest_path_dag_masked, EdgeId, NodeId, SpDag, SpDagUpdate,
};
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

/// Counter handles for the incremental engine, resolved once per process
/// (probes are the hottest loop in the workspace — no registry lookups).
struct IncrCounters {
    /// Speculative probes answered.
    probes: Arc<segrout_obs::Counter>,
    /// Destination DAGs found dirty across all probes.
    dirty_dests: Arc<segrout_obs::Counter>,
    /// Destination DAGs skipped as provably clean across all probes.
    clean_dests: Arc<segrout_obs::Counter>,
    /// Bounded dynamic-Dijkstra repairs that stayed under the threshold.
    repairs: Arc<segrout_obs::Counter>,
    /// Probes whose load fold started from a cached prefix row (or from the
    /// committed totals, for fully clean probes).
    arena_reuses: Arc<segrout_obs::Counter>,
    /// Prefix-slab (re)folds: one at construction, one per commit with dirty
    /// destinations.
    arena_rebuilds: Arc<segrout_obs::Counter>,
    /// Edge-disable (failure-scenario) probes answered.
    disable_probes: Arc<segrout_obs::Counter>,
}

fn counters() -> &'static IncrCounters {
    static HANDLES: OnceLock<IncrCounters> = OnceLock::new();
    HANDLES.get_or_init(|| IncrCounters {
        probes: segrout_obs::counter("incr.probes"),
        dirty_dests: segrout_obs::counter("incr.dirty_dests"),
        clean_dests: segrout_obs::counter("incr.clean_dests"),
        repairs: segrout_obs::counter("incr.repairs"),
        arena_reuses: segrout_obs::counter("arena.reuses"),
        arena_rebuilds: segrout_obs::counter("arena.rebuilds"),
        disable_probes: segrout_obs::counter("incr.disable_probes"),
    })
}

/// Branch-free elementwise `out[j] += row[j]` over two contiguous slices —
/// the single accumulation kernel every load fold in this module uses, so
/// the operation sequence (and therefore every bit) is shared.
#[inline]
fn add_assign(out: &mut [f64], row: &[f64]) {
    debug_assert_eq!(out.len(), row.len());
    for (slot, &x) in out.iter_mut().zip(row) {
        *slot += x;
    }
}

/// Flat per-destination load storage: all `|D|` link-load partials in one
/// contiguous `|D| · stride` slab, plus a prefix slab whose row `i` caches
/// the ascending-order fold of rows `0..=i`.
///
/// Both slabs are allocated once and reused across every probe and commit —
/// no per-candidate allocation, and the prefix rows let probes skip the
/// clean head of the fold entirely (see module docs for why that preserves
/// bit-identity).
struct LoadArena {
    stride: usize,
    dests: usize,
    rows: Vec<f64>,
    prefix: Vec<f64>,
}

impl LoadArena {
    /// Takes ownership of the concatenated per-destination rows and computes
    /// the prefix slab.
    fn new(stride: usize, dests: usize, rows: Vec<f64>) -> Self {
        debug_assert_eq!(rows.len(), stride * dests);
        let mut arena = Self {
            stride,
            dests,
            rows,
            prefix: vec![0.0; stride * dests],
        };
        arena.refold_from(0);
        arena
    }

    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.rows[i * self.stride..(i + 1) * self.stride]
    }

    #[inline]
    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.rows[i * self.stride..(i + 1) * self.stride]
    }

    #[inline]
    fn prefix_row(&self, i: usize) -> &[f64] {
        &self.prefix[i * self.stride..(i + 1) * self.stride]
    }

    /// The committed totals: the fold over all rows (zeros if no rows).
    fn total(&self, out: &mut Vec<f64>) {
        out.clear();
        if self.dests == 0 {
            out.resize(self.stride, 0.0);
        } else {
            out.extend_from_slice(self.prefix_row(self.dests - 1));
        }
    }

    /// Recomputes prefix rows `first..` after rows changed. Row `i` is the
    /// copy of row `i - 1`'s prefix plus row `i` — exactly the operation
    /// sequence of a from-zero ascending fold (the copy stands in for the
    /// fold's partial sum, which it is).
    fn refold_from(&mut self, first: usize) {
        let s = self.stride;
        for i in first..self.dests {
            if i == 0 {
                self.prefix[..s].copy_from_slice(&self.rows[..s]);
            } else {
                self.prefix.copy_within((i - 1) * s..i * s, i * s);
                add_assign(
                    &mut self.prefix[i * s..(i + 1) * s],
                    &self.rows[i * s..(i + 1) * s],
                );
            }
        }
    }
}

thread_local! {
    /// Per-worker scratch reused across probes: the node-flow propagation
    /// buffer and the patched weight vector. Probes run on pool workers, so
    /// thread-locals give each worker one allocation for the whole search
    /// instead of two per candidate.
    static SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// Per-worker disabled-edge mask scratch for the edge-disable repair:
    /// failure sweeps repair once per pattern, so the mask buffer must not be
    /// reallocated per pattern either.
    static MASK_SCRATCH: RefCell<Vec<bool>> = const { RefCell::new(Vec::new()) };
}

/// The answer to one edge-disable (failure-scenario) probe: the objective
/// state the failure would produce. Unlike [`Probe`] it is not committable —
/// failure sweeps are what-if fans over a fixed base state, and an adopted
/// failure mask is expressed by constructing a masked evaluator
/// ([`IncrementalEvaluator::new_with_failures`]) instead.
#[derive(Clone, Debug)]
pub struct DisableProbe {
    /// The disabled (failed) edges, in probe order.
    pub dead: Vec<EdgeId>,
    /// Total per-link loads under the failure (bit-identical to a
    /// from-scratch evaluation on the edge-deleted topology; failed links
    /// always carry exactly `0.0`).
    pub loads: Vec<f64>,
    /// Fortz–Thorup congestion cost Φ of `loads`.
    pub phi: f64,
    /// Maximum link utilization of `loads`.
    pub mlu: f64,
    /// Number of destinations whose DAG had to be repaired or rebuilt.
    pub dirty_count: usize,
}

/// The answer to one speculative probe: the full objective state the weight
/// change would produce, plus the repaired per-destination data needed to
/// [`IncrementalEvaluator::commit`] it in place.
#[derive(Clone, Debug)]
pub struct Probe {
    /// The probed edge.
    pub edge: EdgeId,
    /// The probed weight.
    pub weight: f64,
    /// Total per-link loads under the change (bit-identical to a
    /// from-scratch evaluation).
    pub loads: Vec<f64>,
    /// Fortz–Thorup congestion cost Φ of `loads`.
    pub phi: f64,
    /// Maximum link utilization of `loads`.
    pub mlu: f64,
    /// Number of destinations whose DAG had to be touched.
    pub dirty_count: usize,
    /// Repaired `(dest index, DAG)` pairs, ascending by index.
    dirty: Vec<(usize, Arc<SpDag>)>,
    /// Repaired load partials, one `edge_count` chunk per `dirty` entry, in
    /// the same order — a single contiguous slab instead of one `Vec` per
    /// dirty destination.
    dirty_partials: Vec<f64>,
    /// Base-state generation this probe was computed against.
    generation: u64,
}

/// Incremental evaluation state for one `(network, demands, waypoints)`
/// workload under an evolving weight vector.
///
/// See the [module docs](self) for the algorithm. Construction performs one
/// full from-scratch evaluation (counted in `ecmp.recomputes` like any
/// other); afterwards [`probe`](Self::probe) answers single-edge what-ifs by
/// repairing only the affected destinations.
///
/// ```
/// use segrout_core::{DemandList, IncrementalEvaluator, Network, NodeId, EdgeId,
///                    Router, WaypointSetting, WeightSetting};
///
/// let mut b = Network::builder(4);
/// b.link(NodeId(0), NodeId(1), 1.0);
/// b.link(NodeId(1), NodeId(3), 1.0);
/// b.link(NodeId(0), NodeId(2), 1.0);
/// b.link(NodeId(2), NodeId(3), 1.0);
/// let net = b.build()?;
/// let mut demands = DemandList::new();
/// demands.push(NodeId(0), NodeId(3), 2.0);
///
/// let weights = WeightSetting::unit(&net);
/// let wp = WaypointSetting::none(1);
/// let mut eval = IncrementalEvaluator::new(&net, &weights, &demands, &wp)?;
/// assert_eq!(eval.loads(), &[1.0, 1.0, 1.0, 1.0]);
///
/// // What if edge 2 becomes longer? All flow shifts onto the upper path.
/// let probe = eval.probe(EdgeId(2), 5.0)?;
/// assert_eq!(probe.loads, vec![2.0, 2.0, 0.0, 0.0]);
///
/// // Accept the change in place; the state now matches a fresh evaluation.
/// eval.commit(probe);
/// let mut w2 = WeightSetting::unit(&net);
/// w2.set(EdgeId(2), 5.0);
/// let fresh = Router::new(&net, &w2).evaluate(&demands, &wp)?;
/// assert_eq!(eval.mlu().to_bits(), fresh.mlu.to_bits());
/// # Ok::<(), segrout_core::TeError>(())
/// ```
pub struct IncrementalEvaluator<'n> {
    net: &'n Network,
    weights: Vec<f64>,
    /// Base disabled-edge mask (failed links), empty for the intact
    /// topology. Every DAG, repair and probe honors it; weight probes on a
    /// disabled edge are provable no-ops.
    disabled: Vec<bool>,
    /// Distinct destinations, ascending (the summation order).
    dests: Vec<NodeId>,
    /// Flat `n × dests` slab of pre-folded injection seeds: row `i` is
    /// `node_flow` after seeding destination `i`'s injections. Injections
    /// and reachability are weight-independent (validated once at build), so
    /// probes seed propagation with a row copy instead of re-folding a few
    /// hundred injections per dirty destination.
    seeds: Vec<f64>,
    /// Current SP-DAG per destination.
    dags: Vec<Arc<SpDag>>,
    /// Per-destination link-load partials and their prefix folds, in flat
    /// slabs; `loads` is the fold over all rows.
    arena: LoadArena,
    /// Effective link capacities. Initialized from the network; capacity
    /// events ([`set_capacity`](Self::set_capacity)) override entries here so
    /// a long-running evaluator can track capacity changes without rebuilding
    /// the (borrowed, immutable) [`Network`]. Capacities never influence
    /// routing — only the Φ/MLU readouts — so an override is exact.
    caps: Vec<f64>,
    loads: Vec<f64>,
    phi: f64,
    mlu: f64,
    /// Repair-frontier threshold above which a dirty destination falls back
    /// to a full Dijkstra.
    frontier_cap: usize,
    /// Bumped on every commit; probes from older generations are rejected.
    generation: u64,
}

impl<'n> IncrementalEvaluator<'n> {
    /// Builds the evaluator for a demand list under a waypoint setting —
    /// the same segment decomposition as [`crate::Router::evaluate`].
    pub fn new(
        net: &'n Network,
        weights: &WeightSetting,
        demands: &DemandList,
        waypoints: &WaypointSetting,
    ) -> Result<Self, TeError> {
        if waypoints.len() != demands.len() {
            return Err(TeError::InvalidWaypoints(format!(
                "waypoint table has {} rows for {} demands",
                waypoints.len(),
                demands.len()
            )));
        }
        let mut segments = Vec::with_capacity(demands.len());
        for (i, d) in demands.iter().enumerate() {
            for (src, dst, amount) in waypoints.segments_of(i, d) {
                segments.push(Segment { src, dst, amount });
            }
        }
        Self::for_segments(net, weights, &segments)
    }

    /// Builds the evaluator with a set of failed (disabled) links baked into
    /// the base state: every DAG is built, repaired and probed as if the
    /// failed edges were deleted from the topology. Returns
    /// [`TeError::Unroutable`] when the failures cut some demand off its
    /// destination — the caller classifies that scenario as disconnected.
    pub fn new_with_failures(
        net: &'n Network,
        weights: &WeightSetting,
        demands: &DemandList,
        waypoints: &WaypointSetting,
        failed: &[EdgeId],
    ) -> Result<Self, TeError> {
        if waypoints.len() != demands.len() {
            return Err(TeError::InvalidWaypoints(format!(
                "waypoint table has {} rows for {} demands",
                waypoints.len(),
                demands.len()
            )));
        }
        let mut segments = Vec::with_capacity(demands.len());
        for (i, d) in demands.iter().enumerate() {
            for (src, dst, amount) in waypoints.segments_of(i, d) {
                segments.push(Segment { src, dst, amount });
            }
        }
        let mut disabled = vec![false; net.edge_count()];
        for &e in failed {
            disabled[e.index()] = true;
        }
        Self::for_segments_masked(net, weights, &segments, disabled)
    }

    /// Builds the evaluator for an explicit segment list.
    pub fn for_segments(
        net: &'n Network,
        weights: &WeightSetting,
        segments: &[Segment],
    ) -> Result<Self, TeError> {
        Self::for_segments_masked(net, weights, segments, Vec::new())
    }

    /// Builds the evaluator for an explicit segment list under a base
    /// disabled-edge mask (empty = intact topology).
    fn for_segments_masked(
        net: &'n Network,
        weights: &WeightSetting,
        segments: &[Segment],
        disabled: Vec<bool>,
    ) -> Result<Self, TeError> {
        let weights = weights.as_slice().to_vec();
        let grouped: Vec<(NodeId, Vec<(NodeId, f64)>)> =
            group_by_destination(segments).into_iter().collect();
        let n = net.node_count();
        let m = net.edge_count();

        // Full build: one Dijkstra + one propagation per destination, fanned
        // out on the pool (pure per-destination work, summed on the caller).
        let recomputes = recompute_counter();
        let built = segrout_par::par_map(grouped.len(), |i| {
            let (t, injections) = &grouped[i];
            recomputes.inc();
            let dag = Arc::new(shortest_path_dag_masked(
                net.graph(),
                &weights,
                *t,
                &disabled,
            ));
            let mut partial = vec![0.0; m];
            let mut node_flow = vec![0.0; n];
            propagate_destination(net, &dag, injections, &mut partial, &mut node_flow)
                .map(|()| (dag, partial))
        });

        let mut dests = Vec::with_capacity(grouped.len());
        let mut seeds = vec![0.0; grouped.len() * n];
        let mut dags = Vec::with_capacity(grouped.len());
        let mut rows = Vec::with_capacity(grouped.len() * m);
        for ((i, (t, inj)), b) in grouped.into_iter().enumerate().zip(built) {
            let (dag, partial) = b?;
            // The same fold the router's injection loop performs, cached.
            let seed_row = &mut seeds[i * n..(i + 1) * n];
            for &(s, amount) in &inj {
                seed_row[s.index()] += amount;
            }
            dests.push(t);
            dags.push(dag);
            rows.extend_from_slice(&partial);
        }

        let arena = LoadArena::new(m, dests.len(), rows);
        counters().arena_rebuilds.inc();
        let mut loads = Vec::with_capacity(m);
        arena.total(&mut loads);
        let caps = net.capacities().to_vec();
        let phi = fortz_phi(&loads, &caps);
        let mlu = max_link_utilization(&loads, &caps);
        Ok(Self {
            net,
            weights,
            disabled,
            dests,
            seeds,
            dags,
            arena,
            caps,
            loads,
            phi,
            mlu,
            frontier_cap: (n / 2).max(8),
            generation: 0,
        })
    }

    /// Overrides the repair-frontier fallback threshold (number of affected
    /// nodes above which a dirty destination is rebuilt from scratch).
    pub fn with_frontier_cap(mut self, cap: usize) -> Self {
        self.frontier_cap = cap.max(1);
        self
    }

    /// The network being evaluated.
    #[inline]
    pub fn network(&self) -> &Network {
        self.net
    }

    /// The current (committed) weight vector.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The base disabled-edge mask (empty for the intact topology).
    #[inline]
    pub fn disabled(&self) -> &[bool] {
        &self.disabled
    }

    /// The effective link capacities (network capacities plus any
    /// [`set_capacity`](Self::set_capacity) overrides).
    #[inline]
    pub fn capacities(&self) -> &[f64] {
        &self.caps
    }

    /// Current total per-link loads.
    #[inline]
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Current Fortz–Thorup congestion cost Φ.
    #[inline]
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Current maximum link utilization.
    #[inline]
    pub fn mlu(&self) -> f64 {
        self.mlu
    }

    /// Number of distinct destinations in the workload (the per-probe
    /// denominator of the dirty-destination ratio).
    #[inline]
    pub fn destination_count(&self) -> usize {
        self.dests.len()
    }

    /// Answers "what are loads/Φ/MLU if edge `e`'s weight becomes `new_w`?"
    /// without mutating the evaluator. Read-only: speculative probes for a
    /// whole candidate neighbourhood can run concurrently against one shared
    /// base state.
    ///
    /// # Panics
    /// Panics if `new_w` is not a positive finite real.
    pub fn probe(&self, e: EdgeId, new_w: f64) -> Result<Probe, TeError> {
        assert!(
            new_w.is_finite() && new_w > 0.0,
            "weight must be positive finite"
        );
        let c = counters();
        c.probes.inc();
        SCRATCH.with(|s| {
            let (node_flow, weights) = &mut *s.borrow_mut();
            node_flow.resize(self.net.node_count(), 0.0);
            weights.clear();
            weights.extend_from_slice(&self.weights);
            weights[e.index()] = new_w;
            self.probe_with(e, new_w, weights, node_flow)
        })
    }

    /// Probe body, working on borrowed scratch (`weights` already patched).
    fn probe_with(
        &self,
        e: EdgeId,
        new_w: f64,
        weights: &[f64],
        node_flow: &mut [f64],
    ) -> Result<Probe, TeError> {
        let c = counters();
        let g = self.net.graph();
        let (u, v) = g.endpoints(e);
        let old_w = self.weights[e.index()];
        let m = self.net.edge_count();
        let recomputes = recompute_counter();

        let mut dirty: Vec<(usize, Arc<SpDag>)> = Vec::new();
        let mut dirty_partials: Vec<f64> = Vec::new();
        if new_w != old_w && !edge_disabled(&self.disabled, e) {
            for (i, dag) in self.dags.iter().enumerate() {
                if !edge_change_affects_dag(dag, e, u, v, new_w) {
                    continue;
                }
                let repaired = match update_shortest_path_dag_masked(
                    g,
                    weights,
                    dag,
                    e,
                    old_w,
                    self.frontier_cap,
                    &self.disabled,
                ) {
                    SpDagUpdate::Unchanged => continue,
                    SpDagUpdate::Repaired(d, _) => {
                        c.repairs.inc();
                        d
                    }
                    SpDagUpdate::Rebuilt(d) => {
                        recomputes.inc();
                        d
                    }
                };
                let base = dirty_partials.len();
                dirty_partials.resize(base + m, 0.0);
                // Seed from the cached injection fold (bitwise the values the
                // injection loop produces; reachability was validated at
                // build time and cannot change under positive finite weights).
                let n = self.net.node_count();
                node_flow.copy_from_slice(&self.seeds[i * n..(i + 1) * n]);
                spread_seeded(self.net, &repaired, &mut dirty_partials[base..], node_flow);
                dirty.push((i, Arc::new(repaired)));
            }
        }
        c.dirty_dests.add(dirty.len() as u64);
        c.clean_dests.add((self.dests.len() - dirty.len()) as u64);

        let mut loads = Vec::with_capacity(m);
        self.fold_with_dirty(&dirty, &dirty_partials, &mut loads);
        let phi = fortz_phi(&loads, &self.caps);
        let mlu = max_link_utilization(&loads, &self.caps);
        Ok(Probe {
            edge: e,
            weight: new_w,
            dirty_count: dirty.len(),
            loads,
            phi,
            mlu,
            dirty,
            dirty_partials,
            generation: self.generation,
        })
    }

    /// Patches the totals for a probe: the fold up to the first dirty
    /// destination is exactly the cached prefix row (or the committed totals
    /// when no destination is dirty), so the probe copies it and only
    /// re-folds the tail — cached partials for clean destinations,
    /// substituted ones for dirty, in ascending destination order as always.
    /// This is the single load-fold code path for weight probes and
    /// edge-disable probes, so both stay bit-identical to scratch.
    fn fold_with_dirty<T>(
        &self,
        dirty: &[(usize, T)],
        dirty_partials: &[f64],
        loads: &mut Vec<f64>,
    ) {
        let c = counters();
        let m = self.net.edge_count();
        if dirty.is_empty() {
            loads.extend_from_slice(&self.loads);
            c.arena_reuses.inc();
            return;
        }
        let first = dirty[0].0;
        if first > 0 {
            loads.extend_from_slice(self.arena.prefix_row(first - 1));
            c.arena_reuses.inc();
        } else {
            loads.resize(m, 0.0);
        }
        let mut next_dirty = 0usize;
        for i in first..self.dests.len() {
            let row = if next_dirty < dirty.len() && dirty[next_dirty].0 == i {
                let chunk = &dirty_partials[next_dirty * m..(next_dirty + 1) * m];
                next_dirty += 1;
                chunk
            } else {
                self.arena.row(i)
            };
            add_assign(loads, row);
        }
    }

    /// Answers "what are loads/Φ/MLU if the links in `dead` fail?" without
    /// mutating the evaluator — the failure-scenario counterpart of
    /// [`probe`](Self::probe). Read-only, so a whole [`FailureSet`] sweep can
    /// fan scenarios over the `segrout-par` pool against one shared base
    /// state.
    ///
    /// The failed edges are masked out exactly as if deleted: destinations
    /// whose DAG does not use any dead edge are provably clean and skipped;
    /// dirty destinations are repaired with the bounded
    /// [`disable_edge_update`] (single dead on-DAG edge) or rebuilt under
    /// the mask, and the result is bit-identical to a from-scratch
    /// evaluation on the edge-deleted topology. A scenario that cuts some
    /// demand off its destination returns [`TeError::Unroutable`] naming a
    /// severed `(src, dst)` pair — the caller classifies it as disconnected.
    ///
    /// Edges already disabled in the base mask are ignored; an empty `dead`
    /// set reproduces the committed state.
    ///
    /// [`FailureSet`]: crate::failure::FailureSet
    pub fn probe_disable(&self, dead: &[EdgeId]) -> Result<DisableProbe, TeError> {
        let repaired = self.repair_disable(dead);
        self.fold_disable(self, dead, &repaired)
    }

    /// `true` when `other` routes over the same SP-DAGs as `self`: same
    /// network, same weights (bit for bit), same base mask and same
    /// destination list. DAGs never depend on traffic volume, so evaluators
    /// of one workload under different demand scalings share them.
    pub(crate) fn shares_dags_with(&self, other: &IncrementalEvaluator<'_>) -> bool {
        std::ptr::eq(self.net, other.net)
            && self.dests == other.dests
            && self.disabled == other.disabled
            && self
                .weights
                .iter()
                .map(|w| w.to_bits())
                .eq(other.weights.iter().map(|w| w.to_bits()))
    }

    /// The repair step of [`probe_disable`](Self::probe_disable): masks
    /// `dead` on top of the base mask and returns the `(dest index, DAG)`
    /// pairs whose SP-DAG used a newly dead edge, repaired or rebuilt under
    /// the full mask, ascending by index. It reads only weights, mask and
    /// DAGs — no traffic — so its result serves every evaluator that
    /// [shares these DAGs](Self::shares_dags_with).
    pub(crate) fn repair_disable(&self, dead: &[EdgeId]) -> Vec<(usize, SpDag)> {
        let c = counters();
        let g = self.net.graph();
        let recomputes = recompute_counter();

        MASK_SCRATCH.with(|mask_cell| {
            let mask = &mut *mask_cell.borrow_mut();
            mask.clear();
            mask.resize(self.net.edge_count(), false);
            if !self.disabled.is_empty() {
                mask.copy_from_slice(&self.disabled);
            }
            let mut new_dead = 0usize;
            for &e in dead {
                if !mask[e.index()] {
                    mask[e.index()] = true;
                    new_dead += 1;
                }
            }

            let mut repaired = Vec::new();
            if new_dead == 0 {
                return repaired;
            }
            for (i, dag) in self.dags.iter().enumerate() {
                // Removal never adds tight edges: a destination is dirty iff
                // some dead edge is on its current DAG.
                let mut on_dag = None;
                let mut on_dag_count = 0usize;
                for &e in dead {
                    if !edge_disabled(&self.disabled, e) && dag.edge_on_dag[e.index()] {
                        on_dag = Some(e);
                        on_dag_count += 1;
                    }
                }
                let dag = match (on_dag, on_dag_count) {
                    (None, _) => continue,
                    (Some(e), 1) => {
                        // Bounded dynamic repair under the full mask: the
                        // other dead edges are off this DAG, so `dag` is
                        // already correct for the mask without `e`.
                        match disable_edge_update(g, &self.weights, dag, e, self.frontier_cap, mask)
                        {
                            SpDagUpdate::Unchanged => {
                                unreachable!("on-DAG edge disable cannot be clean")
                            }
                            SpDagUpdate::Repaired(d, _) => {
                                c.repairs.inc();
                                d
                            }
                            SpDagUpdate::Rebuilt(d) => {
                                recomputes.inc();
                                d
                            }
                        }
                    }
                    _ => {
                        // Two or more dead edges on one DAG (only possible
                        // for multi-link scenarios): full masked rebuild.
                        recomputes.inc();
                        shortest_path_dag_masked(g, &self.weights, dag.target, mask)
                    }
                };
                repaired.push((i, dag));
            }
            repaired
        })
    }

    /// The fold step of [`probe_disable`](Self::probe_disable): spreads this
    /// evaluator's traffic over the DAGs `repairer` produced for `dead` with
    /// [`repair_disable`](Self::repair_disable), then folds loads, Φ and MLU.
    /// Reachability is checked against this evaluator's own seeds, since
    /// failures can sever sources.
    pub(crate) fn fold_disable(
        &self,
        repairer: &IncrementalEvaluator<'_>,
        dead: &[EdgeId],
        repaired: &[(usize, SpDag)],
    ) -> Result<DisableProbe, TeError> {
        debug_assert!(
            self.shares_dags_with(repairer),
            "disable repairs are only valid for evaluators with the same DAGs"
        );
        let c = counters();
        c.disable_probes.inc();
        let n = self.net.node_count();
        let m = self.net.edge_count();

        let mut dirty_partials = vec![0.0; repaired.len() * m];
        SCRATCH.with(|s| {
            let (node_flow, _) = &mut *s.borrow_mut();
            node_flow.resize(n, 0.0);
            for (k, (i, dag)) in repaired.iter().enumerate() {
                // Recheck every seeded injection before spreading
                // (spread_seeded drops flow at unreachable nodes silently).
                let seed_row = &self.seeds[i * n..(i + 1) * n];
                for (j, &f) in seed_row.iter().enumerate() {
                    if f > 0.0 && !dag.reaches_target(NodeId(j as u32)) {
                        return Err(TeError::Unroutable {
                            src: NodeId(j as u32),
                            dst: self.dests[*i],
                        });
                    }
                }
                node_flow.copy_from_slice(seed_row);
                spread_seeded(
                    self.net,
                    dag,
                    &mut dirty_partials[k * m..(k + 1) * m],
                    node_flow,
                );
            }
            Ok(())
        })?;
        c.dirty_dests.add(repaired.len() as u64);
        c.clean_dests
            .add((self.dests.len() - repaired.len()) as u64);

        let mut loads = Vec::with_capacity(m);
        self.fold_with_dirty(repaired, &dirty_partials, &mut loads);
        let phi = fortz_phi(&loads, &self.caps);
        let mlu = max_link_utilization(&loads, &self.caps);
        Ok(DisableProbe {
            dead: dead.to_vec(),
            loads,
            phi,
            mlu,
            dirty_count: repaired.len(),
        })
    }

    /// Applies an accepted probe in place: the probed weight becomes the base
    /// weight, repaired DAGs and partials replace the stale ones, and the
    /// cached loads/Φ/MLU move to the probe's values.
    ///
    /// # Panics
    /// Panics if the probe was computed against an older committed state
    /// (its answer would no longer be valid).
    pub fn commit(&mut self, probe: Probe) {
        assert_eq!(
            probe.generation, self.generation,
            "probe is stale: it was computed against a previous base state"
        );
        self.weights[probe.edge.index()] = probe.weight;
        let m = self.net.edge_count();
        let first_dirty = probe.dirty.first().map(|&(i, _)| i);
        for (d, (i, dag)) in probe.dirty.into_iter().enumerate() {
            self.dags[i] = dag;
            self.arena
                .row_mut(i)
                .copy_from_slice(&probe.dirty_partials[d * m..(d + 1) * m]);
        }
        if let Some(first) = first_dirty {
            self.arena.refold_from(first);
            counters().arena_rebuilds.inc();
        }
        self.loads = probe.loads;
        self.phi = probe.phi;
        self.mlu = probe.mlu;
        self.generation += 1;
    }

    /// Recomputes the cached totals from the arena (after rows changed) and
    /// bumps the generation. `first_dirty` is the lowest changed row, if any.
    fn refold_and_commit(&mut self, first_dirty: Option<usize>) {
        if let Some(first) = first_dirty {
            self.arena.refold_from(first);
            counters().arena_rebuilds.inc();
        }
        let mut loads = std::mem::take(&mut self.loads);
        self.arena.total(&mut loads);
        self.loads = loads;
        self.phi = fortz_phi(&self.loads, &self.caps);
        self.mlu = max_link_utilization(&self.loads, &self.caps);
        self.generation += 1;
    }

    /// Overrides the capacity of link `e` in place — the event-application
    /// path for capacity changes. Capacities never influence routing, so only
    /// the cached Φ/MLU are recomputed (from the unchanged loads, with the
    /// exact operation sequence a fresh build on the re-capacitated network
    /// would use — the result is bit-identical to that rebuild). Returns
    /// whether anything changed; outstanding probes are invalidated when it
    /// did.
    ///
    /// # Errors
    /// [`TeError::InvalidCapacity`] when `cap` is not positive finite — the
    /// evaluator is left untouched.
    pub fn set_capacity(&mut self, e: EdgeId, cap: f64) -> Result<bool, TeError> {
        if !cap.is_finite() || cap <= 0.0 {
            return Err(TeError::InvalidCapacity {
                edge: e.index(),
                value: cap,
            });
        }
        if self.caps[e.index()].to_bits() == cap.to_bits() {
            return Ok(false);
        }
        self.caps[e.index()] = cap;
        self.phi = fortz_phi(&self.loads, &self.caps);
        self.mlu = max_link_utilization(&self.loads, &self.caps);
        self.generation += 1;
        Ok(true)
    }

    /// Replaces the demand workload in place — the event-application path for
    /// demand updates and matrix replacement.
    ///
    /// When the new workload routes to the same destination set, only the
    /// destinations whose injection seeds actually changed are re-propagated
    /// (over their unchanged DAGs — weights did not move), and the load fold
    /// is repaired from the first changed row. When the destination set
    /// differs, the evaluator rebuilds in place with the full construction
    /// path. Either way the resulting state is bit-identical to a fresh
    /// evaluator built on the new workload.
    ///
    /// # Errors
    /// [`TeError::Unroutable`] when some new segment cannot reach its
    /// destination, and [`TeError::InvalidWaypoints`] on a row-count mismatch
    /// — the evaluator is left untouched in both cases.
    pub fn set_workload(
        &mut self,
        demands: &DemandList,
        waypoints: &WaypointSetting,
    ) -> Result<bool, TeError> {
        if waypoints.len() != demands.len() {
            return Err(TeError::InvalidWaypoints(format!(
                "waypoint table has {} rows for {} demands",
                waypoints.len(),
                demands.len()
            )));
        }
        let mut segments = Vec::with_capacity(demands.len());
        for (i, d) in demands.iter().enumerate() {
            for (src, dst, amount) in waypoints.segments_of(i, d) {
                segments.push(Segment { src, dst, amount });
            }
        }
        let grouped: Vec<(NodeId, Vec<(NodeId, f64)>)> =
            group_by_destination(&segments).into_iter().collect();
        if grouped.len() != self.dests.len()
            || grouped.iter().zip(&self.dests).any(|((t, _), d)| t != d)
        {
            // Destination set changed: full in-place rebuild (one Dijkstra +
            // one propagation per destination, like construction).
            return self.rebuild_for_segments(&segments).map(|()| true);
        }
        let n = self.net.node_count();
        let m = self.net.edge_count();
        // Same destinations: the DAGs are all still valid. Re-fold the seed
        // slab (the same injection fold construction performs) and find the
        // rows whose seeds actually moved.
        let mut new_seeds = vec![0.0; grouped.len() * n];
        for (i, (_, inj)) in grouped.iter().enumerate() {
            let seed_row = &mut new_seeds[i * n..(i + 1) * n];
            for &(s, amount) in inj {
                seed_row[s.index()] += amount;
            }
        }
        let dirty: Vec<usize> = (0..grouped.len())
            .filter(|&i| {
                let new = &new_seeds[i * n..(i + 1) * n];
                let old = &self.seeds[i * n..(i + 1) * n];
                new.iter().zip(old).any(|(a, b)| a.to_bits() != b.to_bits())
            })
            .collect();
        if dirty.is_empty() {
            return Ok(false);
        }
        let c = counters();
        c.dirty_dests.add(dirty.len() as u64);
        c.clean_dests.add((self.dests.len() - dirty.len()) as u64);
        // Re-propagate the changed destinations into temporaries first: a new
        // source may be unreachable, and an error must leave the evaluator
        // untouched. `propagate_destination` is the exact function a fresh
        // build runs per destination, reachability check included.
        let mut new_rows = vec![0.0; dirty.len() * m];
        SCRATCH.with(|s| {
            let (node_flow, _) = &mut *s.borrow_mut();
            for (k, &i) in dirty.iter().enumerate() {
                node_flow.clear();
                node_flow.resize(n, 0.0);
                propagate_destination(
                    self.net,
                    &self.dags[i],
                    &grouped[i].1,
                    &mut new_rows[k * m..(k + 1) * m],
                    node_flow,
                )?;
            }
            Ok::<(), TeError>(())
        })?;
        self.seeds = new_seeds;
        for (k, &i) in dirty.iter().enumerate() {
            self.arena
                .row_mut(i)
                .copy_from_slice(&new_rows[k * m..(k + 1) * m]);
        }
        self.refold_and_commit(dirty.first().copied());
        Ok(true)
    }

    /// Full in-place rebuild for a new segment list (destination set changed):
    /// runs the construction path and splices the result in, preserving the
    /// committed weights, the disabled mask, any capacity overrides, and the
    /// generation ordering.
    fn rebuild_for_segments(&mut self, segments: &[Segment]) -> Result<(), TeError> {
        let w = WeightSetting::new(self.net, self.weights.clone())
            .expect("committed weights are positive finite");
        let fresh = Self::for_segments_masked(self.net, &w, segments, self.disabled.clone())?;
        self.dests = fresh.dests;
        self.seeds = fresh.seeds;
        self.dags = fresh.dags;
        self.arena = fresh.arena;
        self.loads = fresh.loads;
        // Capacity overrides survive the rebuild (fresh computed Φ/MLU from
        // the network's nominal capacities).
        self.phi = fortz_phi(&self.loads, &self.caps);
        self.mlu = max_link_utilization(&self.loads, &self.caps);
        self.generation += 1;
        Ok(())
    }

    /// Takes link `e` down (`up = false`) or back up (`up = true`) in place —
    /// the event-application path for link-state changes. Returns whether the
    /// state changed (a repeated event is a no-op).
    ///
    /// Both directions repair only the destinations whose DAG is actually
    /// affected, exactly as a probe would, and the committed state is
    /// bit-identical to a fresh evaluator built with the new mask.
    ///
    /// # Errors
    /// [`TeError::Unroutable`] when taking the link down severs a demand from
    /// its destination — the evaluator is left untouched.
    pub fn set_link_state(&mut self, e: EdgeId, up: bool) -> Result<bool, TeError> {
        if up {
            self.enable_edge(e)
        } else {
            self.disable_edge(e)
        }
    }

    fn disable_edge(&mut self, e: EdgeId) -> Result<bool, TeError> {
        if edge_disabled(&self.disabled, e) {
            return Ok(false);
        }
        let g = self.net.graph();
        let n = self.net.node_count();
        let m = self.net.edge_count();
        let c = counters();
        let recomputes = recompute_counter();
        let mut mask = if self.disabled.is_empty() {
            vec![false; m]
        } else {
            self.disabled.clone()
        };
        mask[e.index()] = true;

        let mut dirty: Vec<(usize, Arc<SpDag>)> = Vec::new();
        let mut dirty_partials: Vec<f64> = Vec::new();
        SCRATCH.with(|s| {
            let (node_flow, _) = &mut *s.borrow_mut();
            node_flow.resize(n, 0.0);
            for (i, dag) in self.dags.iter().enumerate() {
                // Removal never adds tight edges: dirty iff `e` is on the DAG.
                if !dag.edge_on_dag[e.index()] {
                    continue;
                }
                let repaired =
                    match disable_edge_update(g, &self.weights, dag, e, self.frontier_cap, &mask) {
                        SpDagUpdate::Unchanged => {
                            unreachable!("on-DAG edge disable cannot be clean")
                        }
                        SpDagUpdate::Repaired(d, _) => {
                            c.repairs.inc();
                            d
                        }
                        SpDagUpdate::Rebuilt(d) => {
                            recomputes.inc();
                            d
                        }
                    };
                // The failure can sever sources — validate every seeded
                // injection before mutating anything.
                let seed_row = &self.seeds[i * n..(i + 1) * n];
                for (j, &f) in seed_row.iter().enumerate() {
                    if f > 0.0 && !repaired.reaches_target(NodeId(j as u32)) {
                        return Err(TeError::Unroutable {
                            src: NodeId(j as u32),
                            dst: self.dests[i],
                        });
                    }
                }
                let base = dirty_partials.len();
                dirty_partials.resize(base + m, 0.0);
                node_flow.copy_from_slice(seed_row);
                spread_seeded(self.net, &repaired, &mut dirty_partials[base..], node_flow);
                dirty.push((i, Arc::new(repaired)));
            }
            Ok(())
        })?;
        self.disabled = mask;
        let first = dirty.first().map(|&(i, _)| i);
        for (k, (i, dag)) in dirty.into_iter().enumerate() {
            self.dags[i] = dag;
            self.arena
                .row_mut(i)
                .copy_from_slice(&dirty_partials[k * m..(k + 1) * m]);
        }
        self.refold_and_commit(first);
        Ok(true)
    }

    fn enable_edge(&mut self, e: EdgeId) -> Result<bool, TeError> {
        if !edge_disabled(&self.disabled, e) {
            return Ok(false);
        }
        let g = self.net.graph();
        let n = self.net.node_count();
        let m = self.net.edge_count();
        let recomputes = recompute_counter();
        let mut mask = self.disabled.clone();
        mask[e.index()] = false;
        let (u, v) = g.endpoints(e);
        let w_e = self.weights[e.index()];

        let mut dirty: Vec<(usize, Arc<SpDag>)> = Vec::new();
        let mut dirty_partials: Vec<f64> = Vec::new();
        SCRATCH.with(|s| {
            let (node_flow, _) = &mut *s.borrow_mut();
            node_flow.resize(n, 0.0);
            for (i, dag) in self.dags.iter().enumerate() {
                // Re-enabling `e` is a weight drop from "unusable" to `w_e`:
                // the DAG moves only if the revived edge reaches the current
                // distance at its tail (the same affectedness test weight
                // decreases use; `e` is off the masked DAG by construction).
                if !edge_change_affects_dag(dag, e, u, v, w_e) {
                    continue;
                }
                // A fresh Dijkstra under the shrunk mask — exactly what a
                // from-scratch build runs for this destination.
                recomputes.inc();
                let rebuilt = shortest_path_dag_masked(g, &self.weights, dag.target, &mask);
                let base = dirty_partials.len();
                dirty_partials.resize(base + m, 0.0);
                // Reachability only improves when a link comes back, so the
                // build-time validation still covers every seeded source.
                node_flow.copy_from_slice(&self.seeds[i * n..(i + 1) * n]);
                spread_seeded(self.net, &rebuilt, &mut dirty_partials[base..], node_flow);
                dirty.push((i, Arc::new(rebuilt)));
            }
        });
        self.disabled = mask;
        let first = dirty.first().map(|&(i, _)| i);
        for (k, (i, dag)) in dirty.into_iter().enumerate() {
            self.dags[i] = dag;
            self.arena
                .row_mut(i)
                .copy_from_slice(&dirty_partials[k * m..(k + 1) * m]);
        }
        self.refold_and_commit(first);
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Router;

    /// Diamond with an extra direct edge — gives probes both clean and dirty
    /// destinations to chew on.
    fn net() -> Network {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 2.0); // e0
        b.link(NodeId(1), NodeId(3), 2.0); // e1
        b.link(NodeId(0), NodeId(2), 1.0); // e2
        b.link(NodeId(2), NodeId(3), 1.0); // e3
        b.link(NodeId(0), NodeId(3), 1.0); // e4
        b.build().unwrap()
    }

    fn demands() -> DemandList {
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        d.push(NodeId(1), NodeId(3), 1.0);
        d.push(NodeId(0), NodeId(2), 0.5);
        d
    }

    fn fresh_bits(net: &Network, w: &WeightSetting, d: &DemandList) -> (Vec<u64>, u64, u64) {
        let r = Router::new(net, w)
            .evaluate(d, &WaypointSetting::none(d.len()))
            .unwrap();
        let phi = fortz_phi(&r.loads, net.capacities());
        (
            r.loads.iter().map(|x| x.to_bits()).collect(),
            phi.to_bits(),
            r.mlu.to_bits(),
        )
    }

    fn eval_bits(e: &IncrementalEvaluator<'_>) -> (Vec<u64>, u64, u64) {
        (
            e.loads().iter().map(|x| x.to_bits()).collect(),
            e.phi().to_bits(),
            e.mlu().to_bits(),
        )
    }

    #[test]
    fn construction_matches_router() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        assert_eq!(eval_bits(&eval), fresh_bits(&net, &w, &d));
        assert_eq!(eval.destination_count(), 2); // dests {2, 3}
    }

    #[test]
    fn probe_and_commit_track_scratch_evaluation() {
        let net = net();
        let d = demands();
        let mut w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        // A sequence of single-edge changes, each probed then committed.
        for (e, nw) in [
            (EdgeId(4), 3.0),
            (EdgeId(0), 1.0),
            (EdgeId(3), 4.0),
            (EdgeId(4), 2.0),
            (EdgeId(2), 5.0),
        ] {
            let probe = eval.probe(e, nw).unwrap();
            w.set(e, nw);
            let fresh = fresh_bits(&net, &w, &d);
            assert_eq!(
                (
                    probe.loads.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    probe.phi.to_bits(),
                    probe.mlu.to_bits()
                ),
                fresh,
                "probe {e:?}->{nw} diverged from scratch"
            );
            eval.commit(probe);
            assert_eq!(eval_bits(&eval), fresh, "committed state diverged");
        }
    }

    #[test]
    fn clean_probe_touches_nothing() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        // e1 (1->3) is on DAGs; e0 -> increasing e0 while 0 has the direct
        // edge e4 keeps... use an edge with no effect: increase e2's weight
        // partner: probing the same weight is trivially clean.
        let probe = eval.probe(EdgeId(0), 1.0).unwrap();
        assert_eq!(probe.dirty_count, 0);
        assert_eq!(
            probe.loads.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            eval.loads().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_probe_is_rejected() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        let p1 = eval.probe(EdgeId(0), 3.0).unwrap();
        let p2 = eval.probe(EdgeId(1), 3.0).unwrap();
        eval.commit(p1);
        eval.commit(p2); // computed against the pre-p1 state
    }

    #[test]
    fn unroutable_workload_errors_at_construction() {
        let mut b = Network::builder(3);
        b.link(NodeId(0), NodeId(1), 1.0);
        let net = b.build().unwrap();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(2), 1.0);
        let w = WeightSetting::unit(&net);
        let err = IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(1))
            .err()
            .expect("must be unroutable");
        assert_eq!(
            err,
            TeError::Unroutable {
                src: NodeId(0),
                dst: NodeId(2)
            }
        );
    }

    #[test]
    fn waypointed_workloads_are_supported() {
        let net = net();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        let mut wp = WaypointSetting::none(1);
        wp.set(0, vec![NodeId(2)]);
        let w = WeightSetting::unit(&net);
        let eval = IncrementalEvaluator::new(&net, &w, &d, &wp).unwrap();
        let fresh = Router::new(&net, &w).evaluate(&d, &wp).unwrap();
        assert_eq!(
            eval.loads().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            fresh.loads.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The diamond net with the direct edge (e4) deleted — the topology an
    /// e4 failure must route on.
    fn net_without_e4() -> Network {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), 2.0); // e0
        b.link(NodeId(1), NodeId(3), 2.0); // e1
        b.link(NodeId(0), NodeId(2), 1.0); // e2
        b.link(NodeId(2), NodeId(3), 1.0); // e3
        b.build().unwrap()
    }

    #[test]
    fn disable_probe_matches_scratch_on_deleted_topology() {
        let net = net();
        let net2 = net_without_e4();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let w2 = WeightSetting::unit(&net2);
        let eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        let probe = eval.probe_disable(&[EdgeId(4)]).unwrap();
        let fresh = fresh_bits(&net2, &w2, &d);
        // e4 is the last edge, so ids 0..4 coincide between the topologies.
        assert_eq!(
            probe.loads[..4]
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            fresh.0,
            "disable probe diverged from edge-deleted scratch"
        );
        assert_eq!(probe.loads[4], 0.0, "failed link must carry no flow");
        assert_eq!(probe.mlu.to_bits(), fresh.2);
        assert!(probe.dirty_count >= 1);
    }

    #[test]
    fn disable_probe_classifies_disconnection() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        // e1 (1->3) is node 1's only route to 3.
        let err = eval.probe_disable(&[EdgeId(1)]).unwrap_err();
        assert_eq!(
            err,
            TeError::Unroutable {
                src: NodeId(1),
                dst: NodeId(3)
            }
        );
        // The evaluator is untouched: a fresh intact probe still answers.
        let intact = eval.probe_disable(&[]).unwrap();
        assert_eq!(
            intact.loads.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            eval.loads().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(intact.dirty_count, 0);
    }

    #[test]
    fn masked_base_evaluator_matches_deleted_topology() {
        let net = net();
        let net2 = net_without_e4();
        let d = demands();
        let mut w = WeightSetting::unit(&net);
        let mut w2 = WeightSetting::unit(&net2);
        let mut eval = IncrementalEvaluator::new_with_failures(
            &net,
            &w,
            &d,
            &WaypointSetting::none(d.len()),
            &[EdgeId(4)],
        )
        .unwrap();
        assert_eq!(eval.disabled(), &[false, false, false, false, true]);
        let f0 = fresh_bits(&net2, &w2, &d);
        assert_eq!(eval.phi().to_bits(), f0.1);
        assert_eq!(eval.mlu().to_bits(), f0.2);
        // Weight probes repair under the base mask and stay bit-identical to
        // scratch on the deleted topology.
        for (e, nw) in [(EdgeId(0), 5.0), (EdgeId(3), 4.0), (EdgeId(0), 1.0)] {
            let probe = eval.probe(e, nw).unwrap();
            w.set(e, nw);
            w2.set(e, nw);
            let fresh = fresh_bits(&net2, &w2, &d);
            assert_eq!(
                probe.loads[..4]
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                fresh.0,
                "masked-base probe {e:?}->{nw} diverged"
            );
            assert_eq!(probe.mlu.to_bits(), fresh.2);
            eval.commit(probe);
        }
        // Probing the failed edge itself is a provable no-op.
        let noop = eval.probe(EdgeId(4), 9.0).unwrap();
        assert_eq!(noop.dirty_count, 0);
        assert_eq!(noop.mlu.to_bits(), eval.mlu().to_bits());
    }

    #[test]
    fn masked_construction_errors_when_disconnected() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let err = IncrementalEvaluator::new_with_failures(
            &net,
            &w,
            &d,
            &WaypointSetting::none(d.len()),
            &[EdgeId(1)],
        )
        .err()
        .expect("1 -> 3 has no alternative");
        assert_eq!(
            err,
            TeError::Unroutable {
                src: NodeId(1),
                dst: NodeId(3)
            }
        );
    }

    #[test]
    fn double_failure_on_one_dag_rebuilds_correctly() {
        // Destination 3's DAG uses e0/e1 and e2/e3 and e4 under unit
        // weights; killing e1 + e4 forces everything over 0->2->3 and cuts
        // node 1 — unless node 1 has no demand, so use a 0->3 demand only.
        let net = net();
        let mut d = DemandList::new();
        d.push(NodeId(0), NodeId(3), 2.0);
        let w = WeightSetting::unit(&net);
        let eval = IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(1)).unwrap();
        let probe = eval.probe_disable(&[EdgeId(1), EdgeId(4)]).unwrap();
        assert_eq!(probe.loads[2], 2.0);
        assert_eq!(probe.loads[3], 2.0);
        assert_eq!(probe.loads[0], 0.0);
        assert_eq!(probe.loads[1], 0.0);
        assert_eq!(probe.loads[4], 0.0);
    }

    /// The diamond net with a different capacity on e0.
    fn net_with_cap(e0_cap: f64) -> Network {
        let mut b = Network::builder(4);
        b.link(NodeId(0), NodeId(1), e0_cap); // e0
        b.link(NodeId(1), NodeId(3), 2.0); // e1
        b.link(NodeId(0), NodeId(2), 1.0); // e2
        b.link(NodeId(2), NodeId(3), 1.0); // e3
        b.link(NodeId(0), NodeId(3), 1.0); // e4
        b.build().unwrap()
    }

    #[test]
    fn set_capacity_matches_recapacitated_rebuild() {
        let d = demands();
        let net = net_with_cap(2.0);
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        assert!(eval.set_capacity(EdgeId(0), 0.5).unwrap());
        let net2 = net_with_cap(0.5);
        let w2 = WeightSetting::unit(&net2);
        assert_eq!(eval_bits(&eval), fresh_bits(&net2, &w2, &d));
        assert_eq!(eval.capacities()[0], 0.5);
        // Same value again is a no-op; an invalid value errors untouched.
        assert!(!eval.set_capacity(EdgeId(0), 0.5).unwrap());
        let before = eval_bits(&eval);
        assert!(eval.set_capacity(EdgeId(0), -1.0).is_err());
        assert_eq!(eval_bits(&eval), before);
        // Probes answer against the overridden capacities.
        let probe = eval.probe(EdgeId(2), 5.0).unwrap();
        let mut w3 = WeightSetting::unit(&net2);
        w3.set(EdgeId(2), 5.0);
        let fresh = fresh_bits(&net2, &w3, &d);
        assert_eq!(probe.mlu.to_bits(), fresh.2);
        assert_eq!(probe.phi.to_bits(), fresh.1);
    }

    #[test]
    fn set_workload_in_place_matches_fresh_build() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        // Scale one demand: same destinations, one dirty seed row.
        let mut d2 = DemandList::new();
        d2.push(NodeId(0), NodeId(3), 3.5);
        d2.push(NodeId(1), NodeId(3), 1.0);
        d2.push(NodeId(0), NodeId(2), 0.5);
        assert!(eval
            .set_workload(&d2, &WaypointSetting::none(d2.len()))
            .unwrap());
        assert_eq!(eval_bits(&eval), fresh_bits(&net, &w, &d2));
        // Identical workload again: a provable no-op.
        assert!(!eval
            .set_workload(&d2, &WaypointSetting::none(d2.len()))
            .unwrap());
        // Probe/commit still track scratch after the in-place swap.
        let probe = eval.probe(EdgeId(4), 5.0).unwrap();
        let mut w2 = WeightSetting::unit(&net);
        w2.set(EdgeId(4), 5.0);
        assert_eq!(probe.mlu.to_bits(), fresh_bits(&net, &w2, &d2).2);
        eval.commit(probe);
        assert_eq!(eval_bits(&eval), fresh_bits(&net, &w2, &d2));
    }

    #[test]
    fn set_workload_new_destinations_rebuilds_in_place() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        // Destination set changes from {2, 3} to {1, 3}.
        let mut d2 = DemandList::new();
        d2.push(NodeId(0), NodeId(1), 1.5);
        d2.push(NodeId(0), NodeId(3), 2.0);
        assert!(eval
            .set_workload(&d2, &WaypointSetting::none(d2.len()))
            .unwrap());
        assert_eq!(eval.destination_count(), 2);
        assert_eq!(eval_bits(&eval), fresh_bits(&net, &w, &d2));
    }

    #[test]
    fn set_workload_unroutable_leaves_state_untouched() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        let before = eval_bits(&eval);
        // Node 3 has no out-edges: 3 -> 2 is unroutable. Same destination
        // set, so this exercises the in-place (seed-diff) path's validation.
        let mut bad = DemandList::new();
        bad.push(NodeId(0), NodeId(3), 2.0);
        bad.push(NodeId(3), NodeId(2), 1.0);
        let err = eval
            .set_workload(&bad, &WaypointSetting::none(bad.len()))
            .unwrap_err();
        assert_eq!(
            err,
            TeError::Unroutable {
                src: NodeId(3),
                dst: NodeId(2)
            }
        );
        assert_eq!(eval_bits(&eval), before);
        // The rebuild path validates too: new destination set, unroutable.
        let mut bad2 = DemandList::new();
        bad2.push(NodeId(3), NodeId(1), 1.0);
        assert!(eval.set_workload(&bad2, &WaypointSetting::none(1)).is_err());
        assert_eq!(eval_bits(&eval), before);
    }

    #[test]
    fn set_link_state_down_matches_deleted_topology() {
        let net = net();
        let net2 = net_without_e4();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let w2 = WeightSetting::unit(&net2);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        let original = eval_bits(&eval);
        assert!(eval.set_link_state(EdgeId(4), false).unwrap());
        let fresh = fresh_bits(&net2, &w2, &d);
        assert_eq!(
            eval.loads()[..4]
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            fresh.0
        );
        assert_eq!(eval.loads()[4], 0.0, "downed link must carry no flow");
        assert_eq!(eval.mlu().to_bits(), fresh.2);
        // Repeated down is a no-op; bringing it back restores every bit.
        assert!(!eval.set_link_state(EdgeId(4), false).unwrap());
        assert!(eval.set_link_state(EdgeId(4), true).unwrap());
        assert!(!eval.set_link_state(EdgeId(4), true).unwrap());
        assert_eq!(eval_bits(&eval), original);
        assert_eq!(
            eval_bits(&eval),
            fresh_bits(&net, &w, &d),
            "down + up must round-trip to the intact state"
        );
    }

    #[test]
    fn disconnecting_link_down_leaves_state_untouched() {
        let net = net();
        let d = demands();
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        let before = eval_bits(&eval);
        // e1 (1->3) is node 1's only route to 3.
        let err = eval.set_link_state(EdgeId(1), false).unwrap_err();
        assert_eq!(
            err,
            TeError::Unroutable {
                src: NodeId(1),
                dst: NodeId(3)
            }
        );
        assert_eq!(eval_bits(&eval), before);
        assert!(eval.disabled().is_empty() || !eval.disabled()[1]);
    }

    #[test]
    fn event_sequence_matches_fresh_masked_build() {
        // Interleave all three event kinds and pin the state to a fresh
        // evaluator built on the mutated inputs after every step.
        let net = net_with_cap(2.0);
        let d = demands();
        let w = WeightSetting::unit(&net);
        let mut eval =
            IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len())).unwrap();
        eval.set_link_state(EdgeId(4), false).unwrap();
        let mut d2 = DemandList::new();
        d2.push(NodeId(0), NodeId(3), 1.25);
        d2.push(NodeId(1), NodeId(3), 1.0);
        d2.push(NodeId(0), NodeId(2), 0.5);
        eval.set_workload(&d2, &WaypointSetting::none(d2.len()))
            .unwrap();
        eval.set_capacity(EdgeId(3), 4.0).unwrap();
        let net2 = {
            let mut b = Network::builder(4);
            b.link(NodeId(0), NodeId(1), 2.0);
            b.link(NodeId(1), NodeId(3), 2.0);
            b.link(NodeId(0), NodeId(2), 1.0);
            b.link(NodeId(2), NodeId(3), 4.0);
            b.link(NodeId(0), NodeId(3), 1.0);
            b.build().unwrap()
        };
        let fresh = IncrementalEvaluator::new_with_failures(
            &net2,
            &WeightSetting::unit(&net2),
            &d2,
            &WaypointSetting::none(d2.len()),
            &[EdgeId(4)],
        )
        .unwrap();
        assert_eq!(eval_bits(&eval), eval_bits(&fresh));
    }

    #[test]
    fn tiny_frontier_cap_still_bit_identical() {
        let net = net();
        let d = demands();
        let mut w = WeightSetting::unit(&net);
        let mut eval = IncrementalEvaluator::new(&net, &w, &d, &WaypointSetting::none(d.len()))
            .unwrap()
            .with_frontier_cap(1);
        for (e, nw) in [(EdgeId(4), 5.0), (EdgeId(1), 1.0), (EdgeId(2), 3.0)] {
            let probe = eval.probe(e, nw).unwrap();
            w.set(e, nw);
            assert_eq!(
                (probe.phi.to_bits(), probe.mlu.to_bits()),
                {
                    let f = fresh_bits(&net, &w, &d);
                    (f.1, f.2)
                },
                "fallback path diverged"
            );
            eval.commit(probe);
        }
    }
}
