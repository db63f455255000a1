//! The benchmark's own tracing: spans recorded around its calls into each
//! layer's public functions, and deltas of the program's `segrout-obs`
//! counters and histograms across those calls. Spans are kept in memory
//! and written once, when the run ends.

use segrout_obs::{Json, Metric};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span: a named interval and the span that caused it.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Layer call name (`algos.heur_ospf`, `graph.spdag_build`, ...).
    pub name: &'static str,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder. Spans nest by call order on the calling
/// thread; the benchmark only opens spans from its main thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's duration in milliseconds.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let idx = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(SpanRec {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[idx].end_us = end_us;
        (r, (end_us - start_us) / 1e3)
    }

    /// Spans as JSON records (`name`, `start_us`, `end_us`, `parent`,
    /// `self_us`), where self time is the duration minus the time covered
    /// by direct children.
    pub fn to_json(&self) -> Json {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        Json::arr(self.spans.iter().enumerate().map(|(i, s)| {
            Json::obj([
                ("id", Json::from(i as u64)),
                ("name", Json::from(s.name)),
                ("start_us", Json::from(s.start_us)),
                ("end_us", Json::from(s.end_us)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("self_us", Json::from(s.end_us - s.start_us - child_us[i])),
            ])
        }))
    }
}

/// A snapshot of every registered counter, and of each histogram's
/// observation count and sum.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, f64)>,
}

impl Counters {
    /// Reads the program's metric registry now.
    pub fn snapshot() -> Self {
        let mut out = Self::default();
        for (name, metric) in segrout_obs::registry().snapshot() {
            match metric {
                Metric::Counter(c) => {
                    out.counters.insert(name, c.get());
                }
                Metric::Histogram(h) => {
                    out.histograms.insert(name, (h.count(), h.sum()));
                }
                _ => {}
            }
        }
        out
    }

    /// Increments since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Delta {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v - earlier.counters.get(k).copied().unwrap_or(0)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, &(n, sum))| {
                let (n0, sum0) = earlier.histograms.get(k).copied().unwrap_or((0, 0.0));
                (k.clone(), (n - n0, sum - sum0))
            })
            .collect();
        Delta {
            counters,
            histograms,
        }
    }
}

/// Counter and histogram increments over an interval.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, f64)>,
}

impl Delta {
    /// Increments of counter `name` (0 when it never registered).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `get(num) / get(den)`, 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        match self.get(den) {
            0 => 0.0,
            d => self.get(num) as f64 / d as f64,
        }
    }

    /// Mean of the observations histogram `name` received over the
    /// interval (0 when it received none).
    pub fn hist_mean(&self, name: &str) -> f64 {
        match self.histograms.get(name) {
            Some(&(n, sum)) if n > 0 => sum / n as f64,
            _ => 0.0,
        }
    }

    /// Non-zero counter increments as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(
            self.counters
                .iter()
                .filter(|(_, &v)| v > 0)
                .map(|(k, &v)| (k.as_str(), Json::from(v))),
        )
    }
}

/// Snapshots the registry around `f` and returns its result with the
/// counter deltas it caused.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Delta) {
    let before = Counters::snapshot();
    let r = f();
    (r, Counters::snapshot().since(&before))
}
