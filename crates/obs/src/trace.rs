//! Convergence traces: the optimizer flight recorder.
//!
//! A *trace point* is one `(seq, t_us, iteration, event, phi, mlu)` tuple
//! recorded at a milestone of an anytime optimizer — every accepted move of
//! the local searches, every incumbent/node milestone of the branch-and-bound.
//! The sequence of points is the quality-vs-time curve the paper's heuristics
//! are evaluated by (MLU over wall-time), which flat counters and final
//! gauges cannot reconstruct.
//!
//! Recording is off by default and gated by one relaxed atomic load:
//! [`trace_point`] returns immediately when no trace has been requested, so
//! instrumented hot loops stay inside the disabled-path overhead envelope.
//! When enabled ([`set_trace_enabled`]), points are appended to a global
//! in-memory buffer under a mutex — trace points are emitted on the serial
//! commit path of every optimizer (never inside parallel probe closures), so
//! the buffer sees a deterministic, totally ordered stream at any thread
//! count.
//!
//! The buffer can be drained ([`take_trace`]), snapshotted
//! ([`trace_points`]), or written as JSON-lines ([`write_trace_jsonl`]) with
//! one record per point:
//!
//! ```json
//! {"type":"trace","seq":3,"t_us":15210,"iter":41,"event":"heurospf.accept",
//!  "phi":12.25,"mlu":1.5312}
//! ```
//!
//! `phi` is `null` for optimizers that do not track the Fortz–Thorup cost
//! (GreedyWPO probes only MLU); for the MILP the pair is reinterpreted as
//! `(dual bound, incumbent objective)` — see the event names.

use crate::json::Json;
use crate::log::elapsed_us;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// One recorded milestone of an optimizer run.
#[derive(Clone, Debug)]
pub struct TracePoint {
    /// Position in the recorded stream (0-based, strictly increasing).
    pub seq: u64,
    /// Microseconds since the first observability call of the process.
    pub t_us: u64,
    /// Optimizer-local iteration counter (candidate evaluations, B&B nodes —
    /// whatever the emitting loop counts).
    pub iter: u64,
    /// Dotted event name (`heurospf.accept`, `milp.incumbent`).
    pub event: &'static str,
    /// Best Φ (Fortz–Thorup congestion cost) at this point; `NaN` when the
    /// optimizer does not track Φ (rendered as JSON `null`). For
    /// `milp.*` events this carries the global dual bound instead.
    pub phi: f64,
    /// Best MLU at this point. For `milp.*` events this carries the
    /// incumbent objective (`NaN` before the first incumbent).
    pub mlu: f64,
}

impl TracePoint {
    /// The point as one JSON record (`{"type":"trace",...}`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("type", Json::from("trace")),
            ("seq", Json::from(self.seq)),
            ("t_us", Json::from(self.t_us)),
            ("iter", Json::from(self.iter)),
            ("event", Json::from(self.event)),
            ("phi", Json::from(self.phi)),
            ("mlu", Json::from(self.mlu)),
        ])
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn buffer() -> &'static Mutex<Vec<TracePoint>> {
    static BUF: OnceLock<Mutex<Vec<TracePoint>>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(Vec::new()))
}

/// Turns the trace recorder on or off. The buffer is kept across toggles;
/// use [`reset_trace`] to clear it.
pub fn set_trace_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `true` when trace points are currently recorded. This is the cheap guard
/// the disabled path reduces to.
#[inline]
pub fn trace_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records one milestone. A no-op (one relaxed atomic load) when tracing is
/// disabled.
#[inline]
pub fn trace_point(event: &'static str, iter: u64, phi: f64, mlu: f64) {
    if !trace_enabled() {
        return;
    }
    let mut buf = buffer().lock().expect("trace buffer poisoned");
    // Timestamp under the lock, so `seq` and `t_us` are ordered together
    // across threads.
    let t_us = elapsed_us();
    let seq = buf.len() as u64;
    buf.push(TracePoint {
        seq,
        t_us,
        iter,
        event,
        phi,
        mlu,
    });
}

/// Snapshot of all recorded points, in recording order.
pub fn trace_points() -> Vec<TracePoint> {
    buffer().lock().expect("trace buffer poisoned").clone()
}

/// Drains the buffer, returning all recorded points.
pub fn take_trace() -> Vec<TracePoint> {
    std::mem::take(&mut *buffer().lock().expect("trace buffer poisoned"))
}

/// Clears the buffer (between benchmark repetitions or tests).
pub fn reset_trace() {
    buffer().lock().expect("trace buffer poisoned").clear();
}

/// Number of recorded points.
pub fn trace_len() -> usize {
    buffer().lock().expect("trace buffer poisoned").len()
}

/// Writes every recorded point to `path` as JSON-lines, returning the number
/// of points written. The buffer is left intact.
///
/// # Errors
/// Propagates file-creation and write errors.
pub fn write_trace_jsonl(path: &Path) -> std::io::Result<usize> {
    let points = trace_points();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for p in &points {
        writeln!(out, "{}", p.to_json().render())?;
    }
    out.flush()?;
    Ok(points.len())
}

/// The trace as JSON records (for embedding into a run artifact).
pub fn trace_json_records() -> Vec<Json> {
    trace_points().iter().map(TracePoint::to_json).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trace buffer is process-global; unit tests in this module run in
    // one binary, so they serialize on a local lock and reset around use.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().expect("test lock")
    }

    #[test]
    fn disabled_recorder_drops_points() {
        let _g = locked();
        set_trace_enabled(false);
        reset_trace();
        trace_point("unit.test", 1, 0.5, 1.5);
        assert_eq!(trace_len(), 0);
    }

    #[test]
    fn points_are_sequenced_and_timestamped() {
        let _g = locked();
        reset_trace();
        set_trace_enabled(true);
        trace_point("unit.a", 1, 2.0, 3.0);
        trace_point("unit.b", 2, f64::NAN, 2.5);
        set_trace_enabled(false);
        let pts = take_trace();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].seq, 0);
        assert_eq!(pts[1].seq, 1);
        assert!(pts[0].t_us <= pts[1].t_us);
        assert_eq!(pts[1].event, "unit.b");
        assert!(pts[1].phi.is_nan());
        // NaN phi renders as JSON null; the record round-trips.
        let rendered = pts[1].to_json().render();
        let j = Json::parse(&rendered).expect("record parses");
        assert_eq!(j["phi"], Json::Null);
        assert_eq!(j["type"].as_str(), Some("trace"));
        assert_eq!(j["mlu"].as_f64(), Some(2.5));
    }
}
