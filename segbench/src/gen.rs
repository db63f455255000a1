//! Seeded input generators. The benchmark takes one workload seed; every
//! input a workload needs (demand-matrix seeds, layer-probe candidates,
//! the serve event trace) is derived from it here, so the same seed always
//! gives the same inputs.

use segrout_algos::ServeEvent;
use segrout_core::rng::StdRng;
use segrout_core::{DemandList, EdgeId, Network, NodeId};

/// Derives an independent seed for input stream `stream` of workload seed
/// `seed` (splitmix64 finalizer).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(0x94d0_49bb_1331_11eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A HeurOSPF-style candidate list: `count` single-link weight changes
/// `(edge, new integer weight in 1..=max_weight)`, each differing from the
/// edge's weight in `weights`.
pub fn weight_candidates(
    weights: &[f64],
    max_weight: u32,
    count: usize,
    seed: u64,
) -> Vec<(EdgeId, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = weights.len() as u32;
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let e = EdgeId(rng.gen_range(0..m));
        let w = f64::from(rng.gen_range(1..=max_weight));
        if w != weights[e.index()] {
            out.push((e, w));
        }
    }
    out
}

/// Lower edge of the band every serve demand stays in, as a multiple of
/// its nominal size: the range of `bench_serve`'s demand factors.
pub const BAND_LO: f64 = 0.5;
/// Upper edge of the serve demand band.
pub const BAND_HI: f64 = 2.0;
/// Most directed links the serve trace keeps down at once (as in
/// `bench_serve`).
pub const MAX_DOWN: usize = 3;
/// Random links tried before a `link_down` gives up on finding one whose
/// loss keeps every pair routable.
const DOWN_TRIES: usize = 64;

/// Event kinds of the serve trace, in the order their shares are reported.
pub const KINDS: [&str; 6] = [
    "demand",
    "matrix",
    "link_down",
    "link_up",
    "capacity",
    "noop",
];

/// A generated serve trace.
pub struct Trace {
    /// The events, in send order.
    pub events: Vec<ServeEvent>,
    /// Events of each kind of [`KINDS`].
    pub kind_counts: [usize; 6],
}

impl Trace {
    /// Share of each event kind, in [`KINDS`] order.
    pub fn kind_shares(&self) -> Vec<(&'static str, f64)> {
        let n = self.events.len().max(1) as f64;
        KINDS
            .iter()
            .zip(self.kind_counts)
            .map(|(&k, c)| (k, c as f64 / n))
            .collect()
    }
}

/// Draws a size factor log-uniformly from the band, so `ln` of the factor
/// has mean zero and the demand level does not drift.
fn band_draw(rng: &mut StdRng) -> f64 {
    let (lo, hi) = (BAND_LO.ln(), BAND_HI.ln());
    (lo + (hi - lo) * rng.gen_f64()).exp()
}

/// Whether `g` minus the `down` edges is still strongly connected (every
/// ordered pair stays routable, as all-pairs gravity demands need).
fn strongly_connected(net: &Network, down: &[EdgeId]) -> bool {
    let g = net.graph();
    let n = g.node_count();
    let reach = |forward: bool| {
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            let edges = if forward {
                g.out_edges(v)
            } else {
                g.in_edges(v)
            };
            for &e in edges {
                if down.contains(&e) {
                    continue;
                }
                let (a, b) = g.endpoints(e);
                let w = if forward { b } else { a };
                if !seen[w.index()] {
                    seen[w.index()] = true;
                    stack.push(w);
                }
            }
        }
        seen.into_iter().all(|s| s)
    };
    reach(true) && reach(false)
}

/// Generates a bounded serve trace of `count` events over `nominal`.
///
/// The mix and ranges are `bench_serve`'s: 60% demand changes, 15% link
/// flaps (at most [`MAX_DOWN`] directed links down), 15% capacity changes
/// (0.5–1.5 x nominal) and 10% `noop` keep-alives. Two changes keep the
/// load from drifting: a `demand` event moves one demand to a fresh
/// log-uniform point of its band `[BAND_LO, BAND_HI]` x nominal, issued as
/// a factor relative to its *current* size, and 2 of the 60 demand points
/// are whole-`matrix` swaps that redraw every demand in its band. A link
/// goes down only if every pair stays routable, so no event is expected to
/// be refused (`bench_serve` sends disconnecting downs and counts the
/// error replies).
pub fn serve_trace(net: &Network, nominal: &DemandList, count: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<f64> = nominal.iter().map(|d| d.size).collect();
    let mut cur = base.clone();
    let mut down: Vec<EdgeId> = Vec::new();
    let m = net.edge_count() as u32;
    let mut events = Vec::with_capacity(count);
    let mut kind_counts = [0usize; 6];
    while events.len() < count {
        let roll = rng.gen_range(0u32..100);
        let (kind, event) = if roll < 58 {
            let i = rng.gen_range(0..base.len() as u64) as usize;
            let factor = base[i] * band_draw(&mut rng) / cur[i];
            // The daemon applies `size *= factor`; mirror it bit for bit.
            cur[i] *= factor;
            (0, ServeEvent::DemandScale { index: i, factor })
        } else if roll < 60 {
            for (c, &b) in cur.iter_mut().zip(&base) {
                *c = b * band_draw(&mut rng);
            }
            let demands = nominal
                .iter()
                .zip(&cur)
                .map(|(d, &size)| (d.src, d.dst, size))
                .collect();
            (1, ServeEvent::DemandMatrix { demands })
        } else if roll < 75 {
            // Prefer repairing when links are already down, so the failure
            // mask stays small and both directions get exercised.
            let repair =
                !down.is_empty() && (down.len() >= MAX_DOWN || rng.gen_range(0u32..2) == 0);
            let fail = if repair {
                None
            } else {
                (0..DOWN_TRIES).find_map(|_| {
                    let e = EdgeId(rng.gen_range(0..m));
                    let mut trial = down.clone();
                    trial.push(e);
                    (!down.contains(&e) && strongly_connected(net, &trial)).then_some(e)
                })
            };
            match fail {
                Some(e) => {
                    down.push(e);
                    (2, ServeEvent::LinkDown { edge: e })
                }
                None if !down.is_empty() => {
                    let e = down.swap_remove(rng.gen_range(0..down.len() as u64) as usize);
                    (3, ServeEvent::LinkUp { edge: e })
                }
                None => (5, ServeEvent::Noop),
            }
        } else if roll < 90 {
            let e = EdgeId(rng.gen_range(0..m));
            let capacity = net.capacity(e) * (0.5 + rng.gen_f64());
            (4, ServeEvent::Capacity { edge: e, capacity })
        } else {
            (5, ServeEvent::Noop)
        };
        kind_counts[kind] += 1;
        events.push(event);
    }
    Trace {
        events,
        kind_counts,
    }
}

/// Renders one event as a `segrout serve` JSONL input line. Floats use
/// Rust's shortest round-trip form, so the daemon parses the exact value
/// the in-process replay applies.
pub fn event_line(event: &ServeEvent) -> String {
    match event {
        ServeEvent::Noop => r#"{"event":"noop"}"#.to_string(),
        ServeEvent::DemandScale { index, factor } => {
            format!(r#"{{"event":"demand","index":{index},"factor":{factor:?}}}"#)
        }
        ServeEvent::DemandMatrix { demands } => {
            let mut s = String::with_capacity(32 * demands.len() + 32);
            s.push_str(r#"{"event":"matrix","demands":["#);
            for (i, (src, dst, size)) in demands.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("[{},{},{size:?}]", src.0, dst.0));
            }
            s.push_str("]}");
            s
        }
        ServeEvent::LinkDown { edge } => format!(r#"{{"event":"link_down","edge":{}}}"#, edge.0),
        ServeEvent::LinkUp { edge } => format!(r#"{{"event":"link_up","edge":{}}}"#, edge.0),
        ServeEvent::Capacity { edge, capacity } => format!(
            r#"{{"event":"capacity","edge":{},"capacity":{capacity:?}}}"#,
            edge.0
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use segrout_traffic::{gravity, TrafficConfig};

    fn abilene() -> (Network, DemandList) {
        let net = segrout_topo::by_name("Abilene").expect("embedded");
        let d = gravity(
            &net,
            &TrafficConfig {
                seed: 7,
                ..Default::default()
            },
        )
        .expect("connected");
        (net, d)
    }

    #[test]
    fn serve_trace_is_deterministic_per_seed() {
        let (net, d) = abilene();
        let a = serve_trace(&net, &d, 600, 11);
        let b = serve_trace(&net, &d, 600, 11);
        assert_eq!(a.events, b.events);
        assert_eq!(a.kind_counts, b.kind_counts);
        let c = serve_trace(&net, &d, 600, 12);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn serve_demands_stay_in_band() {
        let (net, d) = abilene();
        let trace = serve_trace(&net, &d, 5000, 3);
        let base: Vec<f64> = d.iter().map(|x| x.size).collect();
        let mut cur = base.clone();
        let tol = 1e-12;
        for ev in &trace.events {
            match ev {
                ServeEvent::DemandScale { index, factor } => cur[*index] *= factor,
                ServeEvent::DemandMatrix { demands } => {
                    for (c, &(_, _, s)) in cur.iter_mut().zip(demands) {
                        *c = s;
                    }
                }
                _ => {}
            }
            for (&c, &b) in cur.iter().zip(&base) {
                assert!(c >= b * BAND_LO * (1.0 - tol) && c <= b * BAND_HI * (1.0 + tol));
            }
        }
        // The band is centred in log space: the mean log-size stays near 0.
        let drift = cur
            .iter()
            .zip(&base)
            .map(|(&c, &b)| (c / b).ln())
            .sum::<f64>()
            / cur.len() as f64;
        assert!(drift.abs() < 0.2, "log-size drift {drift}");
    }

    #[test]
    fn serve_trace_keeps_every_pair_connected_and_mixes_kinds() {
        let (net, d) = abilene();
        let trace = serve_trace(&net, &d, 3000, 5);
        let mut down = Vec::new();
        for ev in &trace.events {
            match ev {
                ServeEvent::LinkDown { edge } => down.push(*edge),
                ServeEvent::LinkUp { edge } => down.retain(|e| e != edge),
                _ => {}
            }
            assert!(down.len() <= MAX_DOWN);
            assert!(strongly_connected(&net, &down));
        }
        assert!(trace.kind_counts.iter().all(|&c| c > 0));
        assert_eq!(trace.kind_counts.iter().sum::<usize>(), 3000);
    }

    #[test]
    fn event_lines_round_trip_floats() {
        let ev = ServeEvent::DemandScale {
            index: 3,
            factor: 0.1 + 0.2,
        };
        let rec = segrout_obs::Json::parse(&event_line(&ev)).expect("valid JSON");
        assert_eq!(rec["factor"].as_f64(), Some(0.1 + 0.2));
        assert_eq!(rec["index"].as_i64(), Some(3));
    }

    #[test]
    fn candidates_are_deterministic_and_change_the_weight() {
        let w = vec![1.0; 30];
        let a = weight_candidates(&w, 20, 100, 9);
        assert_eq!(a, weight_candidates(&w, 20, 100, 9));
        assert!(a
            .iter()
            .all(|&(e, nw)| nw != w[e.index()] && (1.0..=20.0).contains(&nw)));
    }

    #[test]
    fn sub_seeds_differ_per_stream() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(5, 3), sub_seed(5, 3));
    }
}
