//! Single-target shortest paths and the induced shortest-path DAG.
//!
//! ECMP routing is destination-driven: a router forwards a packet destined to
//! `t` over *all* outgoing links that lie on some shortest path to `t`
//! (paper §1.1). The natural primitive is therefore a Dijkstra run *towards* a
//! target over the reversed adjacency, yielding `dist(v, t)` for every `v`,
//! plus the subgraph of links `(u, v)` with `dist(u) = w(u,v) + dist(v)` —
//! the *shortest-path DAG* to `t`.
//!
//! [`single_target_distances`] runs the classic `BinaryHeap` Dijkstra: one
//! engine for every weight setting, integral or not. Integral weights make
//! every finite distance an exact integer far below 2^53, so the `f64`
//! distances and — through the shared [`dag_from_dist`] builder — the DAGs
//! are exact, and the dynamic-repair path below reproduces them bit for bit.
//!
//! The distance runs, the DAG builder and the dynamic-repair path honor an
//! optional **disabled-edge mask** (`_masked` entry points): a
//! disabled edge is skipped during relaxation and excluded from the
//! tight-edge scan, which is *exactly* the arithmetic of deleting the edge
//! and re-running from scratch — the remaining edges relax in the same order
//! with the same `f64` operations, so masked results are bit-identical to
//! the edge-deleted graph. This is how link failures are modelled: weights
//! stay finite and a failure is a mask bit, not a weight perturbation. Nodes
//! cut off by a failure end at [`INFINITY`], a classified outcome rather
//! than an error.

use crate::digraph::{Digraph, EdgeId, NodeId};
use crate::{approx_eq, EPS};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Distance value for unreachable nodes.
pub const INFINITY: f64 = f64::INFINITY;

/// The `dijkstra.*` counter handles, resolved once: Dijkstra runs are
/// frequent and short, so they must not pay a registry lookup each time.
/// Order: (relaxations, runs).
fn counters() -> &'static (
    std::sync::Arc<segrout_obs::Counter>,
    std::sync::Arc<segrout_obs::Counter>,
) {
    static HANDLES: std::sync::OnceLock<(
        std::sync::Arc<segrout_obs::Counter>,
        std::sync::Arc<segrout_obs::Counter>,
    )> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        (
            segrout_obs::counter("dijkstra.relaxations"),
            segrout_obs::counter("dijkstra.runs"),
        )
    })
}

/// Min-heap entry: (distance, node), ordered by smallest distance first.
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest distance.
        // Distances are never NaN (weights are validated positive finite).
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

/// `true` iff the mask marks edge `e` disabled. An empty mask (the common
/// intact-topology case) disables nothing and costs one length check.
#[inline]
pub fn edge_disabled(disabled: &[bool], e: EdgeId) -> bool {
    !disabled.is_empty() && disabled[e.index()]
}

/// A disabled-edge mask is either empty (nothing disabled) or one flag per
/// edge — any other length is a construction bug upstream.
fn check_mask(g: &Digraph, disabled: &[bool]) {
    assert!(
        disabled.is_empty() || disabled.len() == g.edge_count(),
        "disabled mask length {} must be empty or match edge count {}",
        disabled.len(),
        g.edge_count()
    );
}

/// The `BinaryHeap` Dijkstra behind both public entry points. The `MASKED`
/// instantiation skips disabled edges during relaxation (monomorphized so
/// the intact-topology loop carries no mask branch).
fn heap_run<const MASKED: bool>(
    g: &Digraph,
    weights: &[f64],
    target: NodeId,
    disabled: &[bool],
) -> Vec<f64> {
    let n = g.node_count();
    let mut dist = vec![INFINITY; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(n);
    dist[target.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: target,
    });

    // Relaxations are tallied locally and flushed with one atomic add per
    // run, so the inner loop stays free of shared-memory traffic.
    let mut relaxations: u64 = 0;
    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if done[v.index()] {
            continue;
        }
        done[v.index()] = true;
        // Relax incoming edges: a path u -> v -> ... -> target.
        for &e in g.in_edges(v) {
            if MASKED && disabled[e.index()] {
                continue;
            }
            let u = g.src(e);
            let nd = d + weights[e.index()];
            relaxations += 1;
            if nd + EPS < dist[u.index()] {
                dist[u.index()] = nd;
                heap.push(HeapEntry { dist: nd, node: u });
            }
        }
    }
    let (relax_counter, runs_counter) = counters();
    relax_counter.add(relaxations);
    runs_counter.inc();
    dist
}

fn check_weights(g: &Digraph, weights: &[f64]) {
    assert_eq!(
        weights.len(),
        g.edge_count(),
        "weight vector length must match edge count"
    );
    debug_assert!(
        weights.iter().all(|w| w.is_finite() && *w > 0.0),
        "link weights must be positive finite reals"
    );
}

/// Computes `dist(v, target)` for every node `v`, i.e. the cost of the
/// cheapest directed path from `v` to `target` under `weights`.
///
/// Unreachable nodes get [`INFINITY`].
///
/// # Panics
/// Panics if `weights.len() != g.edge_count()` or any weight is not a
/// strictly positive finite number (the paper's weight settings map every
/// link to a positive real).
pub fn single_target_distances(g: &Digraph, weights: &[f64], target: NodeId) -> Vec<f64> {
    check_weights(g, weights);
    heap_run::<false>(g, weights, target, &[])
}

/// [`single_target_distances`] under a disabled-edge mask: disabled edges
/// are skipped exactly as if deleted (bit-identical distances — see module
/// docs). An empty mask is the intact topology. Weights of disabled edges
/// must still be valid positive reals, although they never enter a path sum.
pub fn single_target_distances_masked(
    g: &Digraph,
    weights: &[f64],
    target: NodeId,
    disabled: &[bool],
) -> Vec<f64> {
    check_weights(g, weights);
    check_mask(g, disabled);
    if disabled.is_empty() {
        heap_run::<false>(g, weights, target, disabled)
    } else {
        heap_run::<true>(g, weights, target, disabled)
    }
}

/// The shortest-path DAG towards a fixed target node, stored in flat
/// CSR-style arenas (an offset slab plus an edge-id slab) instead of
/// per-node `Vec`s — one contiguous allocation the evaluator hot loop can
/// walk without pointer chasing.
///
/// Produced by [`shortest_path_dag`]; consumed by the ECMP flow engine and by
/// the waypoint optimizer, which both propagate flow along `order`.
#[derive(Clone, Debug)]
pub struct SpDag {
    /// The destination all distances refer to.
    pub target: NodeId,
    /// `dist[v]` = cost of the cheapest `v -> target` path ([`INFINITY`] if
    /// none exists).
    pub dist: Vec<f64>,
    /// `edge_on_dag[e]` is `true` iff edge `e = (u, v)` satisfies
    /// `dist(u) = w(e) + dist(v)`, i.e. lies on some shortest path to the
    /// target.
    pub edge_on_dag: Vec<bool>,
    /// CSR row offsets into `dag_edges`, length `n + 1`: node `v`'s ECMP
    /// next-hop edges are `dag_edges[dag_start[v] .. dag_start[v + 1]]`.
    pub dag_start: Vec<u32>,
    /// Flat slab of on-DAG edges grouped by tail node, ascending edge id
    /// within each group.
    pub dag_edges: Vec<EdgeId>,
    /// Nodes with a finite distance, sorted by *decreasing* distance. Since
    /// weights are strictly positive this is a topological order of the DAG:
    /// every DAG edge goes from an earlier to a later element.
    pub order: Vec<NodeId>,
}

impl SpDag {
    /// The ECMP next-hop edge set of `v` towards the target.
    #[inline]
    pub fn dag_out(&self, v: NodeId) -> &[EdgeId] {
        let lo = self.dag_start[v.index()] as usize;
        let hi = self.dag_start[v.index() + 1] as usize;
        &self.dag_edges[lo..hi]
    }

    /// ECMP split degree of `v` towards the target (number of shortest-path
    /// next hops).
    #[inline]
    pub fn split_degree(&self, v: NodeId) -> usize {
        (self.dag_start[v.index() + 1] - self.dag_start[v.index()]) as usize
    }

    /// `true` if a shortest path from `v` to the target exists.
    #[inline]
    pub fn reaches_target(&self, v: NodeId) -> bool {
        self.dist[v.index()].is_finite()
    }
}

/// Exclusive prefix sum of per-row counts into `u32` CSR offsets (length
/// `counts.len() + 1`).
///
/// Guards the flat-arena representation: the running total must fit `u32`,
/// so a graph whose edge count would overflow the offset type is rejected
/// loudly instead of silently wrapping slab indices.
pub fn csr_offsets(counts: &[u32]) -> Vec<u32> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut total: u64 = 0;
    offsets.push(0u32);
    for &c in counts {
        total += c as u64;
        assert!(
            total <= u32::MAX as u64,
            "CSR arena overflow: {total} edges exceed the u32 offset range"
        );
        offsets.push(total as u32);
    }
    offsets
}

/// Builds the shortest-path DAG towards `target` under `weights`.
///
/// Edge membership uses the scaled tolerance of [`approx_eq`], so weight
/// settings produced from exact integer arithmetic (all optimizers in this
/// workspace emit integral weights) classify ties exactly.
pub fn shortest_path_dag(g: &Digraph, weights: &[f64], target: NodeId) -> SpDag {
    let dist = single_target_distances(g, weights, target);
    dag_from_dist(g, weights, target, dist, &[])
}

/// [`shortest_path_dag`] under a disabled-edge mask: disabled edges are
/// excluded both from the distance computation and from the tight-edge scan
/// (a disabled edge can be numerically tight — e.g. one of two parallel
/// equal-weight links — but never carries flow). Bit-identical to building
/// the DAG on a copy of the graph with the masked edges deleted.
pub fn shortest_path_dag_masked(
    g: &Digraph,
    weights: &[f64],
    target: NodeId,
    disabled: &[bool],
) -> SpDag {
    let dist = single_target_distances_masked(g, weights, target, disabled);
    dag_from_dist(g, weights, target, dist, disabled)
}

/// Per-thread scratch for [`dag_from_dist`]: the tight-edge list and the
/// per-node counters are pure build intermediates, so they live in reusable
/// slabs instead of being reallocated on every probe repair.
struct DagScratch {
    /// `(tail, edge)` pairs of tight edges, in ascending edge-id order.
    tight: Vec<(u32, EdgeId)>,
    /// Out-degree counts, then reused as the CSR fill cursor.
    counts: Vec<u32>,
}

thread_local! {
    static DAG_SCRATCH: RefCell<DagScratch> = const {
        RefCell::new(DagScratch {
            tight: Vec::new(),
            counts: Vec::new(),
        })
    };
}

/// Materializes the DAG structure (`edge_on_dag`, the CSR slabs, `order`)
/// from an already-correct distance vector. Shared by the from-scratch
/// builder and the incremental repair path, so both produce byte-identical
/// `SpDag`s from equal distances.
///
/// One pass over `g.edges()` in ascending edge-id order collects the tight
/// edges; counting and CSR placement then walk that (much shorter) list in
/// the same order, which reproduces exactly the per-node edge order the old
/// `Vec<Vec<EdgeId>>` push loop produced. `prev_order` short-circuits the
/// topological sort when the caller knows the distance vector is unchanged
/// (structure-only repairs): equal keys sort to the same unique permutation,
/// so reusing the old order is exact, not an approximation.
fn dag_from_dist_cached(
    g: &Digraph,
    weights: &[f64],
    target: NodeId,
    dist: Vec<f64>,
    prev_order: Option<Vec<NodeId>>,
    disabled: &[bool],
) -> SpDag {
    let n = g.node_count();
    let mut edge_on_dag = vec![false; g.edge_count()];

    DAG_SCRATCH.with(|s| {
        let DagScratch { tight, counts } = &mut *s.borrow_mut();
        tight.clear();
        counts.clear();
        counts.resize(n, 0);
        for (e, u, v) in g.edges() {
            if edge_disabled(disabled, e) {
                continue;
            }
            let du = dist[u.index()];
            let dv = dist[v.index()];
            if du.is_finite() && dv.is_finite() && approx_eq(du, weights[e.index()] + dv) {
                edge_on_dag[e.index()] = true;
                tight.push((u.0, e));
                counts[u.index()] += 1;
            }
        }

        let dag_start = csr_offsets(counts);
        // Reuse `counts` as the fill cursor (the counts are consumed).
        counts.copy_from_slice(&dag_start[..n]);
        let mut dag_edges = vec![EdgeId(0); *dag_start.last().unwrap() as usize];
        for &(u, e) in tight.iter() {
            dag_edges[counts[u as usize] as usize] = e;
            counts[u as usize] += 1;
        }

        // The order is the unique permutation sorted by (dist desc, id asc) —
        // a strict total order over finite non-negative distances, where
        // `total_cmp` agrees bit-for-bit with the IEEE `partial_cmp`, so the
        // allocation-free unstable sort is exact.
        let order: Vec<NodeId> = match prev_order {
            Some(order) => order,
            None => {
                let mut order: Vec<NodeId> =
                    g.nodes().filter(|v| dist[v.index()].is_finite()).collect();
                order.sort_unstable_by(|a, b| {
                    dist[b.index()]
                        .total_cmp(&dist[a.index()])
                        .then_with(|| a.0.cmp(&b.0))
                });
                order
            }
        };

        SpDag {
            target,
            dist,
            edge_on_dag,
            dag_start,
            dag_edges,
            order,
        }
    })
}

fn dag_from_dist(
    g: &Digraph,
    weights: &[f64],
    target: NodeId,
    dist: Vec<f64>,
    disabled: &[bool],
) -> SpDag {
    dag_from_dist_cached(g, weights, target, dist, None, disabled)
}

/// Result of [`update_shortest_path_dag`]: how a single-edge weight change
/// was absorbed for one destination.
#[derive(Clone, Debug)]
pub enum SpDagUpdate {
    /// The change cannot alter this destination's DAG (clean destination).
    Unchanged,
    /// The DAG was repaired by a bounded dynamic-Dijkstra update touching
    /// the given number of nodes.
    Repaired(SpDag, usize),
    /// The repair frontier exceeded the threshold (or the change was too
    /// structural); a full per-destination Dijkstra rebuilt the DAG.
    Rebuilt(SpDag),
}

impl SpDagUpdate {
    /// The updated DAG, if the destination was dirty.
    pub fn into_dag(self) -> Option<SpDag> {
        match self {
            SpDagUpdate::Unchanged => None,
            SpDagUpdate::Repaired(d, _) | SpDagUpdate::Rebuilt(d) => Some(d),
        }
    }
}

/// Cheap dirty test: can changing edge `e` from `old_w` to `new_w` alter
/// `dag`'s shortest-path structure at all?
///
/// * Weight **increase**: only if `e` currently lies on the DAG — paths that
///   avoid `e` are untouched, and no path gets *shorter* when a weight grows.
/// * Weight **decrease**: only if the cheapened edge now matches or beats the
///   current distance at its tail, `new_w + dist(v) ≲ dist(u)` — otherwise
///   every shortest path keeps ignoring `e`.
///
/// A `false` answer is exact (the DAG provably cannot change); `true` means
/// "possibly dirty" and callers run the repair.
pub fn edge_change_affects_dag(dag: &SpDag, e: EdgeId, u: NodeId, v: NodeId, new_w: f64) -> bool {
    let dv = dag.dist[v.index()];
    if !dv.is_finite() {
        // `e` can never be on a shortest path towards this target.
        return false;
    }
    if dag.edge_on_dag[e.index()] {
        // Any change of an on-DAG edge weight moves dist(u) or drops a tie.
        return true;
    }
    // Off-DAG edge: only a decrease that reaches the current distance at `u`
    // can pull `e` (and possibly cheaper paths through it) onto the DAG.
    let cand = new_w + dv;
    let du = dag.dist[u.index()];
    cand + EPS < du || approx_eq(cand, du)
}

/// Repairs `prev` (the shortest-path DAG towards `prev.target` under the
/// *old* weights) after edge `e`'s weight changed from `old_w` to
/// `weights[e]`, where `weights` is the **new** full weight vector.
///
/// The repair follows Ramalingam–Reps: identify the affected node set (nodes
/// whose distance to the target changes), re-run Dijkstra restricted to that
/// set seeded from its unaffected fringe, then rebuild the DAG structure from
/// the patched distances. When the affected set exceeds `frontier_cap` nodes
/// the bounded repair is abandoned and a full per-destination Dijkstra runs
/// instead ([`SpDagUpdate::Rebuilt`]).
///
/// With tie-exact weights (e.g. the integral vectors every optimizer in this
/// workspace emits) the repaired DAG is **bit-identical** to
/// [`shortest_path_dag`] on the new weights: both paths compute the exact
/// distance minima and share [`dag_from_dist`].
pub fn update_shortest_path_dag(
    g: &Digraph,
    weights: &[f64],
    prev: &SpDag,
    e: EdgeId,
    old_w: f64,
    frontier_cap: usize,
) -> SpDagUpdate {
    update_shortest_path_dag_masked(g, weights, prev, e, old_w, frontier_cap, &[])
}

/// [`update_shortest_path_dag`] under a disabled-edge mask: `prev` must have
/// been built under the same mask, and the repair keeps honoring it (skipped
/// relaxations, masked tight-edge scan, masked fallback rebuild). A weight
/// change on a *disabled* edge is a provable no-op and returns
/// [`SpDagUpdate::Unchanged`].
pub fn update_shortest_path_dag_masked(
    g: &Digraph,
    weights: &[f64],
    prev: &SpDag,
    e: EdgeId,
    old_w: f64,
    frontier_cap: usize,
    disabled: &[bool],
) -> SpDagUpdate {
    check_mask(g, disabled);
    if edge_disabled(disabled, e) {
        // A failed link's weight is never read; the DAG cannot change.
        return SpDagUpdate::Unchanged;
    }
    let (u, v) = g.endpoints(e);
    let new_w = weights[e.index()];
    if new_w == old_w || !edge_change_affects_dag(prev, e, u, v, new_w) {
        return SpDagUpdate::Unchanged;
    }
    if new_w > old_w {
        repair_increase(g, weights, prev, u, frontier_cap, disabled)
    } else {
        repair_decrease(g, weights, prev, e, u, v, frontier_cap, disabled)
    }
}

/// Repairs `prev` (built with edge `e` still enabled) after `e` is disabled.
///
/// Removing an edge can only lengthen paths, so this is the weight-increase
/// repair pushed to its limit: if `e` is off the DAG the structure provably
/// cannot change ([`SpDagUpdate::Unchanged`]); if the tail keeps its old
/// distance through another tight edge only the structure is rebuilt
/// (distances and topological order carry over verbatim); otherwise the
/// affected set re-runs restricted Dijkstra under the mask. Nodes whose
/// every path to the target used `e` end at [`INFINITY`] — a disconnection
/// is a classified outcome, not an error.
///
/// `disabled` is the **new** mask and must have `disabled[e]` set; `prev`
/// must have been built under the mask *without* `e`. With tie-exact
/// weights the result is bit-identical to
/// [`shortest_path_dag_masked`] under the new mask.
pub fn disable_edge_update(
    g: &Digraph,
    weights: &[f64],
    prev: &SpDag,
    e: EdgeId,
    frontier_cap: usize,
    disabled: &[bool],
) -> SpDagUpdate {
    check_mask(g, disabled);
    assert!(
        edge_disabled(disabled, e),
        "mask must cover the newly disabled edge {e:?}"
    );
    if !prev.edge_on_dag[e.index()] {
        // Off-DAG removal: no path gets shorter, no tight edge appears.
        return SpDagUpdate::Unchanged;
    }
    repair_increase(g, weights, prev, g.src(e), frontier_cap, disabled)
}

/// Weight increase on an on-DAG edge `e = (u, v)`.
///
/// Phase 1 finds the affected set `A` — nodes *all* of whose shortest paths
/// used `e` — by support counting over the old DAG: `u` loses `e`'s support;
/// a node joins `A` when every one of its DAG out-edges leads into `A`.
/// Phase 2 re-runs Dijkstra restricted to `A`, seeded with the best detour
/// through unaffected neighbours. Nodes outside `A` keep their exact old
/// distances, so work is proportional to the damage, not the graph.
fn repair_increase(
    g: &Digraph,
    weights: &[f64],
    prev: &SpDag,
    u: NodeId,
    frontier_cap: usize,
    disabled: &[bool],
) -> SpDagUpdate {
    let n = g.node_count();
    // Remaining old-distance support per node: DAG out-edges still justified.
    // Read straight off the CSR offsets — row width = out-degree on the DAG.
    let mut support: Vec<usize> = prev
        .dag_start
        .windows(2)
        .map(|w| (w[1] - w[0]) as usize)
        .collect();
    let mut affected = vec![false; n];
    let mut queue = std::collections::VecDeque::new();

    // `e` no longer provides u's old distance (its weight strictly grew).
    support[u.index()] -= 1;
    if support[u.index()] == 0 {
        affected[u.index()] = true;
        queue.push_back(u);
    } else {
        // u keeps its distance through another tight edge; the DAG only
        // loses edge `e` — distances are unchanged, rebuild structure only
        // (and the topological order carries over verbatim).
        let repaired = dag_from_dist_cached(
            g,
            weights,
            prev.target,
            prev.dist.clone(),
            Some(prev.order.clone()),
            disabled,
        );
        return SpDagUpdate::Repaired(repaired, 0);
    }

    let mut affected_nodes: Vec<NodeId> = Vec::new();
    while let Some(x) = queue.pop_front() {
        affected_nodes.push(x);
        if affected_nodes.len() > frontier_cap {
            return SpDagUpdate::Rebuilt(shortest_path_dag_masked(
                g,
                weights,
                prev.target,
                disabled,
            ));
        }
        for &ein in g.in_edges(x) {
            if !prev.edge_on_dag[ein.index()] {
                continue;
            }
            let p = g.src(ein);
            if affected[p.index()] {
                continue;
            }
            support[p.index()] -= 1;
            if support[p.index()] == 0 {
                affected[p.index()] = true;
                queue.push_back(p);
            }
        }
    }

    // Phase 2: Dijkstra restricted to the affected set. Seeds are the best
    // candidates through *unaffected* out-neighbours (including `e` itself
    // at its new weight); edges between affected nodes relax as their heads
    // settle, exactly like the full algorithm.
    let mut dist = prev.dist.clone();
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(affected_nodes.len());
    for &a in &affected_nodes {
        dist[a.index()] = INFINITY;
    }
    for &a in &affected_nodes {
        let mut best = INFINITY;
        for &eo in g.out_edges(a) {
            if edge_disabled(disabled, eo) {
                continue;
            }
            let h = g.dst(eo);
            if affected[h.index()] || !dist[h.index()].is_finite() {
                continue;
            }
            let cand = weights[eo.index()] + dist[h.index()];
            if cand + EPS < best {
                best = cand;
            }
        }
        if best.is_finite() {
            dist[a.index()] = best;
            heap.push(HeapEntry {
                dist: best,
                node: a,
            });
        }
    }
    while let Some(HeapEntry { dist: d, node: x }) = heap.pop() {
        if done[x.index()] || !affected[x.index()] {
            continue;
        }
        if d > dist[x.index()] {
            continue; // stale entry
        }
        done[x.index()] = true;
        for &ein in g.in_edges(x) {
            if edge_disabled(disabled, ein) {
                continue;
            }
            let p = g.src(ein);
            if !affected[p.index()] || done[p.index()] {
                continue;
            }
            let nd = d + weights[ein.index()];
            if nd + EPS < dist[p.index()] {
                dist[p.index()] = nd;
                heap.push(HeapEntry { dist: nd, node: p });
            }
        }
    }

    let touched = affected_nodes.len();
    SpDagUpdate::Repaired(
        dag_from_dist(g, weights, prev.target, dist, disabled),
        touched,
    )
}

/// Weight decrease on `e = (u, v)` that reaches the current distance at `u`.
///
/// If the cheaper edge exactly ties `dist(u)` the distances are unchanged and
/// only the DAG structure is rebuilt. Otherwise the improvement propagates
/// backwards from `u` with a Dijkstra-like frontier over strictly improving
/// nodes — the classical decrease-only dynamic SSSP, whose work is bounded by
/// the set of nodes that actually get closer.
#[allow(clippy::too_many_arguments)] // internal repair kernel: one flat argument list keeps the hot path alloc-free
fn repair_decrease(
    g: &Digraph,
    weights: &[f64],
    prev: &SpDag,
    e: EdgeId,
    u: NodeId,
    v: NodeId,
    frontier_cap: usize,
    disabled: &[bool],
) -> SpDagUpdate {
    let cand = weights[e.index()] + prev.dist[v.index()];
    let du = prev.dist[u.index()];
    if cand + EPS >= du {
        // New tie at u: distances hold (so the order carries over), edge e
        // joins the DAG.
        let repaired = dag_from_dist_cached(
            g,
            weights,
            prev.target,
            prev.dist.clone(),
            Some(prev.order.clone()),
            disabled,
        );
        return SpDagUpdate::Repaired(repaired, 0);
    }

    let mut dist = prev.dist.clone();
    let mut improved = vec![false; g.node_count()];
    let mut touched = 0usize;
    let mut heap = BinaryHeap::new();
    dist[u.index()] = cand;
    improved[u.index()] = true;
    touched += 1;
    heap.push(HeapEntry {
        dist: cand,
        node: u,
    });
    while let Some(HeapEntry { dist: d, node: x }) = heap.pop() {
        if d > dist[x.index()] {
            continue; // superseded by a better improvement
        }
        for &ein in g.in_edges(x) {
            if edge_disabled(disabled, ein) {
                continue;
            }
            let p = g.src(ein);
            let nd = d + weights[ein.index()];
            if nd + EPS < dist[p.index()] {
                dist[p.index()] = nd;
                if !improved[p.index()] {
                    improved[p.index()] = true;
                    touched += 1;
                    if touched > frontier_cap {
                        return SpDagUpdate::Rebuilt(shortest_path_dag_masked(
                            g,
                            weights,
                            prev.target,
                            disabled,
                        ));
                    }
                }
                heap.push(HeapEntry { dist: nd, node: p });
            }
        }
    }
    SpDagUpdate::Repaired(
        dag_from_dist(g, weights, prev.target, dist, disabled),
        touched,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The diamond with asymmetric weights:
    /// 0 -> 1 (1), 1 -> 3 (1), 0 -> 2 (1), 2 -> 3 (2), 0 -> 3 (2)
    fn weighted_diamond() -> (Digraph, Vec<f64>) {
        let mut g = Digraph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        g.add_edge(NodeId(0), NodeId(3));
        (g, vec![1.0, 1.0, 1.0, 2.0, 2.0])
    }

    #[test]
    fn distances_to_target() {
        let (g, w) = weighted_diamond();
        let d = single_target_distances(&g, &w, NodeId(3));
        assert_eq!(d[3], 0.0);
        assert_eq!(d[1], 1.0);
        assert_eq!(d[2], 2.0);
        assert_eq!(d[0], 2.0); // via 1 or the direct edge
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let mut g = Digraph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        // node 2 cannot reach node 1
        let d = single_target_distances(&g, &[1.0], NodeId(1));
        assert!(d[2].is_infinite());
        assert_eq!(d[0], 1.0);
    }

    #[test]
    fn dag_contains_exactly_tight_edges() {
        let (g, w) = weighted_diamond();
        let dag = shortest_path_dag(&g, &w, NodeId(3));
        // shortest paths from 0: 0-1-3 (cost 2) and 0-3 (cost 2); 0-2-3 costs 3.
        assert!(dag.edge_on_dag[0]); // 0->1
        assert!(dag.edge_on_dag[1]); // 1->3
        assert!(!dag.edge_on_dag[2]); // 0->2 (not tight for node 0)
        assert!(dag.edge_on_dag[3]); // 2->3 is node 2's own shortest path
        assert!(dag.edge_on_dag[4]); // 0->3 direct
        assert_eq!(dag.split_degree(NodeId(0)), 2);
        assert_eq!(dag.split_degree(NodeId(1)), 1);
        assert_eq!(dag.dag_out(NodeId(0)), &[EdgeId(0), EdgeId(4)]);
    }

    #[test]
    fn order_is_topological() {
        let (g, w) = weighted_diamond();
        let dag = shortest_path_dag(&g, &w, NodeId(3));
        let pos: Vec<usize> = {
            let mut p = vec![usize::MAX; g.node_count()];
            for (i, v) in dag.order.iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        for (e, u, v) in g.edges() {
            if dag.edge_on_dag[e.index()] {
                assert!(pos[u.index()] < pos[v.index()], "edge {e:?} violates order");
            }
        }
        assert_eq!(*dag.order.last().unwrap(), NodeId(3));
    }

    #[test]
    fn parallel_shortest_edges_both_on_dag() {
        let mut g = Digraph::new(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        let dag = shortest_path_dag(&g, &[1.0, 1.0], NodeId(1));
        assert_eq!(dag.split_degree(NodeId(0)), 2);
    }

    #[test]
    fn tie_detection_with_integer_weights() {
        // Two equal-cost two-hop paths.
        let mut g = Digraph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let dag = shortest_path_dag(&g, &[5.0, 7.0, 4.0, 8.0], NodeId(3));
        assert_eq!(dag.dist[0], 12.0);
        assert_eq!(dag.split_degree(NodeId(0)), 2);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn wrong_weight_length_panics() {
        let (g, _) = weighted_diamond();
        single_target_distances(&g, &[1.0], NodeId(0));
    }

    #[test]
    fn reaches_target_reports_reachability() {
        let mut g = Digraph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        let dag = shortest_path_dag(&g, &[1.0], NodeId(1));
        assert!(dag.reaches_target(NodeId(0)));
        assert!(!dag.reaches_target(NodeId(2)));
    }

    /// Deterministic xorshift generator shared by the randomized tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Ring-plus-chords random graph: always connected along the ring.
    fn random_graph(state: &mut u64, n: usize) -> Digraph {
        let mut g = Digraph::new(n);
        for i in 0..n {
            g.add_edge(NodeId(i as u32), NodeId(((i + 1) % n) as u32));
        }
        for _ in 0..n {
            let a = (xorshift(state) % n as u64) as u32;
            let b = (xorshift(state) % n as u64) as u32;
            if a != b {
                g.add_edge(NodeId(a), NodeId(b));
            }
        }
        g
    }

    #[test]
    fn csr_offsets_prefix_sums() {
        assert_eq!(csr_offsets(&[2, 0, 3]), vec![0, 2, 2, 5]);
        assert_eq!(csr_offsets(&[]), vec![0]);
    }

    #[test]
    #[should_panic(expected = "CSR arena overflow")]
    fn csr_offsets_reject_u32_overflow() {
        // Two rows whose total (2^32) exceeds the u32 offset range. The
        // counts themselves fit u32; only the running sum overflows.
        csr_offsets(&[u32::MAX, 1]);
    }

    /// Bitwise structural equality of two DAGs (dist via `to_bits`).
    fn assert_same_dag(a: &SpDag, b: &SpDag, ctx: &str) {
        let bits = |d: &SpDag| d.dist.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{ctx}: dist diverged");
        assert_eq!(a.edge_on_dag, b.edge_on_dag, "{ctx}: edge set diverged");
        assert_eq!(a.dag_start, b.dag_start, "{ctx}: CSR offsets diverged");
        assert_eq!(a.dag_edges, b.dag_edges, "{ctx}: CSR edge slab diverged");
        assert_eq!(a.order, b.order, "{ctx}: order diverged");
    }

    /// Applies one weight change both incrementally and from scratch and
    /// checks the results match bit-for-bit.
    fn check_update(g: &Digraph, w_old: &[f64], e: EdgeId, new_w: f64, target: NodeId, cap: usize) {
        let prev = shortest_path_dag(g, w_old, target);
        let mut w_new = w_old.to_vec();
        w_new[e.index()] = new_w;
        let scratch = shortest_path_dag(g, &w_new, target);
        let upd = update_shortest_path_dag(g, &w_new, &prev, e, w_old[e.index()], cap);
        let got = match upd {
            SpDagUpdate::Unchanged => prev,
            SpDagUpdate::Repaired(d, _) | SpDagUpdate::Rebuilt(d) => d,
        };
        assert_same_dag(
            &got,
            &scratch,
            &format!("e={e:?} {}->{} target={target:?}", w_old[e.index()], new_w),
        );
    }

    #[test]
    fn increase_on_dag_edge_matches_scratch() {
        let (g, w) = weighted_diamond();
        // 1->3 is on the DAG towards 3; pushing it to 5 reroutes node 0.
        check_update(&g, &w, EdgeId(1), 5.0, NodeId(3), usize::MAX);
    }

    #[test]
    fn decrease_pulls_edge_onto_dag() {
        let (g, w) = weighted_diamond();
        // 2->3 at weight 2 is off node 0's shortest paths; dropping it to 1
        // creates a new tie through node 2.
        check_update(&g, &w, EdgeId(3), 1.0, NodeId(3), usize::MAX);
        // Dropping further makes the path through 2 strictly shortest.
        check_update(&g, &w, EdgeId(2), 0.5, NodeId(3), usize::MAX);
    }

    #[test]
    fn off_dag_increase_is_clean() {
        let (g, w) = weighted_diamond();
        // 0->2 is not on the DAG towards 3; making it longer changes nothing.
        let prev = shortest_path_dag(&g, &w, NodeId(3));
        let mut w_new = w.clone();
        w_new[2] = 9.0;
        assert!(matches!(
            update_shortest_path_dag(&g, &w_new, &prev, EdgeId(2), w[2], usize::MAX),
            SpDagUpdate::Unchanged
        ));
    }

    #[test]
    fn tiny_frontier_cap_falls_back_to_rebuild() {
        // Chain 0 -> 1 -> 2 -> 3: increasing the last hop moves every node,
        // so the affected set (3 nodes) exceeds a cap of 1.
        let mut g = Digraph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let w = vec![1.0, 1.0, 1.0];
        let prev = shortest_path_dag(&g, &w, NodeId(3));
        let mut w_new = w.clone();
        w_new[2] = 5.0;
        let upd = update_shortest_path_dag(&g, &w_new, &prev, EdgeId(2), w[2], 1);
        assert!(matches!(upd, SpDagUpdate::Rebuilt(_)));
        let scratch = shortest_path_dag(&g, &w_new, NodeId(3));
        assert_same_dag(&upd.into_dag().unwrap(), &scratch, "fallback rebuild");
    }

    /// A copy of `g` with the masked edges actually deleted, plus the map
    /// from old edge ids to the ids in the copy (`None` for deleted edges).
    fn delete_masked(g: &Digraph, disabled: &[bool]) -> (Digraph, Vec<Option<EdgeId>>) {
        let mut h = Digraph::new(g.node_count());
        let mut map = vec![None; g.edge_count()];
        for (e, u, v) in g.edges() {
            if !disabled[e.index()] {
                map[e.index()] = Some(h.add_edge(u, v));
            }
        }
        (h, map)
    }

    /// Masked DAG on `g` vs scratch DAG on the edge-deleted copy: dist,
    /// order and CSR offsets compare directly (node ids are stable), edge
    /// structures compare through the id map.
    fn assert_masked_matches_deleted(
        g: &Digraph,
        w: &[f64],
        disabled: &[bool],
        target: NodeId,
        ctx: &str,
    ) {
        let (h, map) = delete_masked(g, disabled);
        let wh: Vec<f64> = (0..g.edge_count())
            .filter(|&i| map[i].is_some())
            .map(|i| w[i])
            .collect();
        let masked = shortest_path_dag_masked(g, w, target, disabled);
        let deleted = shortest_path_dag(&h, &wh, target);
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&masked.dist), bits(&deleted.dist), "{ctx}: dist");
        assert_eq!(masked.order, deleted.order, "{ctx}: order");
        assert_eq!(masked.dag_start, deleted.dag_start, "{ctx}: CSR offsets");
        let mapped: Vec<EdgeId> = masked
            .dag_edges
            .iter()
            .map(|&e| map[e.index()].expect("disabled edge on masked DAG"))
            .collect();
        assert_eq!(mapped, deleted.dag_edges, "{ctx}: CSR edge slab");
        for (e, on) in masked.edge_on_dag.iter().enumerate() {
            match map[e] {
                Some(ne) => assert_eq!(*on, deleted.edge_on_dag[ne.index()], "{ctx}: edge {e}"),
                None => assert!(!on, "{ctx}: disabled edge {e} flagged on-DAG"),
            }
        }
    }

    #[test]
    fn masked_matches_deleted_graph_randomized() {
        let mut state = 0x5eed_f00d_dead_beefu64;
        for _ in 0..25 {
            let n = 5 + (xorshift(&mut state) % 10) as usize;
            let g = random_graph(&mut state, n);
            let m = g.edge_count();
            let w: Vec<f64> = (0..m)
                .map(|_| (1 + xorshift(&mut state) % 10) as f64)
                .collect();
            // Single and double failures, including disconnecting ones.
            let mut disabled = vec![false; m];
            disabled[(xorshift(&mut state) % m as u64) as usize] = true;
            let target = NodeId((xorshift(&mut state) % n as u64) as u32);
            assert_masked_matches_deleted(&g, &w, &disabled, target, "single");
            disabled[(xorshift(&mut state) % m as u64) as usize] = true;
            assert_masked_matches_deleted(&g, &w, &disabled, target, "double");
        }
    }

    #[test]
    fn masked_disconnection_is_infinity_not_error() {
        // Chain 0 -> 1 -> 2: disabling the middle edge cuts 0 and 1 off.
        let mut g = Digraph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let w = vec![1.0, 1.0];
        let dag = shortest_path_dag_masked(&g, &w, NodeId(2), &[false, true]);
        assert!(!dag.reaches_target(NodeId(0)));
        assert!(!dag.reaches_target(NodeId(1)));
        assert!(dag.reaches_target(NodeId(2)));
        assert_eq!(dag.order, vec![NodeId(2)]);
    }

    /// Disables one edge both via [`disable_edge_update`] and from scratch
    /// under the mask and checks the repaired DAG matches bit-for-bit.
    fn check_disable(g: &Digraph, w: &[f64], e: EdgeId, target: NodeId, cap: usize) {
        let prev = shortest_path_dag(g, w, target);
        let mut disabled = vec![false; g.edge_count()];
        disabled[e.index()] = true;
        let scratch = shortest_path_dag_masked(g, w, target, &disabled);
        let got = match disable_edge_update(g, w, &prev, e, cap, &disabled) {
            SpDagUpdate::Unchanged => prev,
            SpDagUpdate::Repaired(d, _) | SpDagUpdate::Rebuilt(d) => d,
        };
        assert_same_dag(
            &got,
            &scratch,
            &format!("disable e={e:?} target={target:?}"),
        );
    }

    #[test]
    fn disable_update_matches_scratch_randomized() {
        let mut state = 0x000f_aded_cafe_1234_u64;
        for _ in 0..25 {
            let n = 5 + (xorshift(&mut state) % 10) as usize;
            let g = random_graph(&mut state, n);
            let m = g.edge_count();
            let w: Vec<f64> = (0..m)
                .map(|_| (1 + xorshift(&mut state) % 10) as f64)
                .collect();
            let target = NodeId((xorshift(&mut state) % n as u64) as u32);
            for _ in 0..6 {
                let e = EdgeId((xorshift(&mut state) % m as u64) as u32);
                check_disable(&g, &w, e, target, usize::MAX);
                check_disable(&g, &w, e, target, 2); // bounded-cap fallback
            }
        }
    }

    #[test]
    fn disable_disconnecting_edge_repairs_to_infinity() {
        // Chain 0 -> 1 -> 2 -> 3 plus a chord 1 -> 3: killing 2 -> 3 leaves
        // node 2 disconnected while 0 and 1 reroute over the chord.
        let mut g = Digraph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        g.add_edge(NodeId(1), NodeId(3));
        let w = vec![1.0, 1.0, 1.0, 5.0];
        check_disable(&g, &w, EdgeId(2), NodeId(3), usize::MAX);
        let prev = shortest_path_dag(&g, &w, NodeId(3));
        let disabled = vec![false, false, true, false];
        let upd = disable_edge_update(&g, &w, &prev, EdgeId(2), usize::MAX, &disabled);
        let dag = upd.into_dag().expect("on-DAG edge must dirty the DAG");
        assert!(!dag.reaches_target(NodeId(2)));
        assert_eq!(dag.dist[1], 5.0); // rerouted over the chord
    }

    #[test]
    fn masked_weight_update_matches_masked_scratch() {
        // A weight change under a base failure mask must repair to the same
        // DAG a masked scratch build produces.
        let mut state = 0xabcd_ef01_2345u64;
        for _ in 0..20 {
            let n = 6 + (xorshift(&mut state) % 6) as usize;
            let g = random_graph(&mut state, n);
            let m = g.edge_count();
            let mut w: Vec<f64> = (0..m)
                .map(|_| (1 + xorshift(&mut state) % 10) as f64)
                .collect();
            let mut disabled = vec![false; m];
            disabled[(xorshift(&mut state) % m as u64) as usize] = true;
            let target = NodeId((xorshift(&mut state) % n as u64) as u32);
            for _ in 0..5 {
                let e = EdgeId((xorshift(&mut state) % m as u64) as u32);
                let new_w = (1 + xorshift(&mut state) % 10) as f64;
                let prev = shortest_path_dag_masked(&g, &w, target, &disabled);
                let old_w = w[e.index()];
                w[e.index()] = new_w;
                let scratch = shortest_path_dag_masked(&g, &w, target, &disabled);
                let upd =
                    update_shortest_path_dag_masked(&g, &w, &prev, e, old_w, usize::MAX, &disabled);
                let got = match upd {
                    SpDagUpdate::Unchanged => prev,
                    SpDagUpdate::Repaired(d, _) | SpDagUpdate::Rebuilt(d) => d,
                };
                assert_same_dag(&got, &scratch, &format!("masked update e={e:?}"));
            }
        }
    }

    #[test]
    fn randomized_single_edge_changes_match_scratch() {
        // Deterministic xorshift; integral weights in [1, 10] so tie
        // classification is exact — the regime every optimizer works in.
        let mut state = 0x9e3779b97f4a7c15u64;
        for trial in 0..30 {
            let n = 6 + (xorshift(&mut state) % 5) as usize;
            let g = random_graph(&mut state, n);
            let m = g.edge_count();
            let mut w: Vec<f64> = (0..m)
                .map(|_| (1 + xorshift(&mut state) % 10) as f64)
                .collect();
            let target = NodeId((xorshift(&mut state) % n as u64) as u32);
            for _ in 0..8 {
                let e = EdgeId((xorshift(&mut state) % m as u64) as u32);
                let new_w = (1 + xorshift(&mut state) % 10) as f64;
                check_update(&g, &w, e, new_w, target, usize::MAX);
                // Also exercise the bounded-cap path on every other step.
                check_update(&g, &w, e, new_w, target, 2);
                w[e.index()] = new_w;
                let _ = trial;
            }
        }
    }
}
