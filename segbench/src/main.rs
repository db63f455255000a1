//! `segbench`: the single benchmark of segrout.
//!
//! ```text
//! segbench --workload optimize|sweep|serve|exact --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from the seed, sets up several times
//! (reporting the median set-up time), runs its operation for `S` seconds,
//! checks every output, prints every metric by name with its unit, and
//! ends with one JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` times the
//! benchmark's own calls into each layer, reads the program's counter
//! deltas, and reports the per-layer metrics. A full record (provenance,
//! every metric, checks, spans) is written to `.bench_out/`.
//! `segbench/run.sh` builds the benchmark and the `segrout` binary and runs
//! this program from the repository root.

mod exact;
mod gen;
mod layers;
mod optimize;
mod serve;
mod stats;
mod sweep;
mod trace;

use segrout_obs::Json;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics every workload reports with `--trace 0`, with units.
/// Kept equal to `BENCHMARK.json` by a test.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_ms", "ms"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics every workload reports with `--trace 1`, with units.
/// Kept equal to `BENCHMARK.json` by a test. Layers only one workload
/// runs (the serve session and wire, the LP/MILP timings, the open-loop
/// generator) are printed and recorded by that workload's traced run.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("heurospf.ms", "ms"),
    ("greedywpo.ms", "ms"),
    ("heurospf.iterations", "count"),
    ("greedywpo.accept_frac", "fraction"),
    ("mcf.ms", "ms"),
    ("traffic.gen_ms", "ms"),
    ("incr.probe_us", "us"),
    ("incr.dirty_frac", "fraction"),
    ("incr.commit_us", "us"),
    ("arena.reuse_frac", "fraction"),
    ("incr.probe_disable_us", "us"),
    ("incr.build_ms", "ms"),
    ("incr.set_workload_us", "us"),
    ("ecmp.evaluate_ms", "ms"),
    ("ecmp.recomputes", "count"),
    ("graph.spdag_build_us", "us"),
    ("graph.spdag_repair_us", "us"),
    ("graph.affects_ns", "ns"),
    ("graph.masked_repair_us", "us"),
    ("dijkstra.runs", "count"),
    ("dijkstra.relaxations", "count"),
    ("par.batch_us", "us"),
    ("par.tasks_per_batch", "count"),
    ("par.worker_wait_mean_us", "us"),
    ("par.speedup", "ratio"),
    ("simplex.pivots", "count"),
    ("simplex.refactorizations", "count"),
    ("simplex.warm_start_frac", "fraction"),
    ("milp.nodes", "count"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("residual.layer_sum_ms", "ms"),
    ("residual.layer_sum_frac", "fraction"),
    ("layer_sum_ms", "ms"),
];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Measured duration of the run.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Worker threads of the parallel paths (the host's core count).
    pub threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag}: missing value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed: expected an integer")?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: expected a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: expected 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    })
}

/// One reported number.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

/// Everything one run measured and checked.
pub struct Report {
    metrics: Vec<Metric>,
    checks: Vec<(String, bool)>,
    attempted: u64,
    failed: u64,
    details: Vec<(String, Json)>,
    spans: Option<Json>,
}

impl Report {
    fn new() -> Self {
        Self {
            metrics: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            details: Vec::new(),
            spans: None,
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metric_n(name, value, unit, None);
    }

    /// Records a metric with the sample count behind it.
    pub fn metric_n(&mut self, name: &str, value: f64, unit: &'static str, n: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples: n,
        });
    }

    /// Records a timing sample as its median plus its tail (the highest
    /// percentile with at least ten samples beyond it), each with the
    /// sample count, under `<name>` and `<name>.p<pct>`.
    pub fn timing(
        &mut self,
        name: &str,
        xs: &[f64],
        unit: &'static str,
    ) -> (f64, Option<stats::Tail>) {
        let med = stats::median(xs);
        self.metric_n(name, med, unit, Some(xs.len()));
        let tail = stats::tail(xs);
        if let Some(t) = tail {
            let label = format!("{name}.p{}", t.pct);
            self.metric_n(&label, t.value, unit, Some(xs.len()));
            self.detail(&format!("{label}.beyond"), Json::from(t.beyond));
        }
        (med, tail)
    }

    /// Records the outcome of a named output check.
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("segbench: CHECK FAILED: {name}");
        }
        self.checks.push((name.to_string(), ok));
    }

    /// Counts operations attempted and how many of them failed a check.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a detail that goes only into the written record.
    pub fn detail(&mut self, key: &str, value: Json) {
        self.details.push((key.to_string(), value));
    }

    /// Attaches the traced run's spans.
    pub fn spans(&mut self, spans: Json) {
        self.spans = Some(spans);
    }

    fn value(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().rev().find(|m| m.name == name)
    }

    /// The latest value recorded under `name` (0 when none was).
    pub fn get(&self, name: &str) -> f64 {
        self.value(name).map_or(0.0, |m| m.value)
    }
}

/// Base of the fixed panel of input seeds.
const PANEL_SEED: u64 = 0x5e7b_e9c4;
/// Rounds of set-up timing before the first operation.
pub const SETUP_ROUNDS: usize = 3;
/// A round of set-up timing repeats the set-up until the round has lasted
/// this long, so a set-up of a few milliseconds is timed many times.
const SETUP_ROUND_S: f64 = 0.05;

/// Input seed `k` of the fixed panel: the same inputs in every run.
pub fn panel_seed(k: usize) -> u64 {
    gen::sub_seed(PANEL_SEED, k as u64)
}

/// Kernel time at the reference host speed, ms: a time `t` measured while
/// [`host_kernel_ms`] took `k` is reported as `t * HOST_REF_MS / k`.
const HOST_REF_MS: f64 = 5.0;
/// Kernel runs per timing round.
const HOST_REPS: usize = 3;
/// Integers the kernel sorts.
const HOST_KERNEL_LEN: usize = 200_000;

/// Times a fixed single-threaded kernel built from the standard library
/// alone: filling `buf` with pseudo-random integers and sorting them. No
/// program change can move it; it measures how fast the shared host runs
/// at that moment.
fn host_kernel_ms(buf: &mut Vec<u64>) -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    buf.clear();
    buf.extend((0..HOST_KERNEL_LEN).map(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }));
    buf.sort_unstable();
    std::hint::black_box(&buf);
    t.elapsed().as_secs_f64() * 1e3
}

/// Set-up times and host-speed samples of one run.
///
/// Every set-up sample is a set-up of panel input 0, the same work in every
/// run: generated inputs differ up to fourfold in how long they take to
/// build (the MCF normalisation runs a data-dependent number of phases),
/// so a median over different inputs, or one that included the seed's own,
/// would follow the draw. Samples are taken in rounds spread over the whole
/// run (before the first operation and between operations), each round
/// starting with [`HOST_REPS`] runs of [`host_kernel_ms`].
///
/// The 2-core shared host this benchmark was written on changes speed by
/// a third within seconds and between runs (a fixed loop took 22–43 ms;
/// CPU time equalled wall time, so there is no steal time to subtract), and
/// every time of a run moves with it. Over ten runs the raw JOINT-Heur
/// solve time spread 0.32 (IQR / median), beyond any allowed bound; over
/// six others it spread 0.35 raw and 0.14 scaled by the kernel's median in
/// the same run. So the gated times are reported at the reference host
/// speed [`HOST_REF_MS`], with the raw times printed beside them.
pub struct SetupTimes {
    setup: Vec<f64>,
    host: Vec<f64>,
    buf: Vec<u64>,
}

impl SetupTimes {
    /// Runs one round: the host kernel, then set-ups of panel input 0, one
    /// after another, until the set-ups have lasted [`SETUP_ROUND_S`]. Each
    /// result is dropped before the next set-up starts (a `serve` set-up's
    /// daemon is stopped); the first is returned.
    pub fn round<T>(
        &mut self,
        setup: &mut impl FnMut(u64) -> Result<T, String>,
    ) -> Result<T, String> {
        for _ in 0..HOST_REPS {
            let k = host_kernel_ms(&mut self.buf);
            self.host.push(k);
        }
        let start = Instant::now();
        let t0 = Instant::now();
        let first = setup(panel_seed(0))?;
        self.setup.push(t0.elapsed().as_secs_f64());
        while start.elapsed().as_secs_f64() < SETUP_ROUND_S {
            let t0 = Instant::now();
            drop(setup(panel_seed(0))?);
            self.setup.push(t0.elapsed().as_secs_f64());
        }
        Ok(first)
    }

    /// Records `host_kernel_ms`, `setup_raw_s` (the median set-up) and
    /// `setup_s` (the same at the reference host speed), and returns the
    /// factor that takes this run's times to the reference host speed.
    pub fn report(self, rep: &mut Report) -> f64 {
        let host_ms = stats::median(&self.host);
        let scale = HOST_REF_MS / host_ms;
        rep.metric_n("host_kernel_ms", host_ms, "ms", Some(self.host.len()));
        let raw = stats::median(&self.setup);
        let n = Some(self.setup.len());
        rep.metric_n("setup_raw_s", raw, "s", n);
        rep.metric_n("setup_s", raw * scale, "s", n);
        rep.detail("setup_s_samples", Json::from(self.setup));
        rep.detail("host_kernel_samples", Json::from(self.host));
        scale
    }
}

/// Sets up the workload. Returns `1 + panel` results in order: the
/// workload seed's input, then panel inputs `0..panel`, and the set-up
/// times of [`SETUP_ROUNDS`] timing rounds, to which the workload adds
/// rounds between its operations. Panel inputs `1..panel` are set up once,
/// untimed. The seed's input is set up last, so nothing runs between its
/// set-up and the first timed operation; its time is reported as
/// `setup_seed_s`.
pub fn repeated_setup<T>(
    rep: &mut Report,
    seed: u64,
    panel: usize,
    setup: &mut impl FnMut(u64) -> Result<T, String>,
) -> Result<(Vec<T>, SetupTimes), String> {
    let mut times = SetupTimes {
        setup: Vec::new(),
        host: Vec::new(),
        buf: Vec::with_capacity(HOST_KERNEL_LEN),
    };
    let mut rest = Vec::with_capacity(panel);
    for _ in 0..SETUP_ROUNDS {
        let v = times.round(setup)?;
        if panel > 0 && rest.is_empty() {
            rest.push(v);
        }
    }
    for k in 1..panel {
        rest.push(setup(panel_seed(k))?);
    }
    let t0 = Instant::now();
    let mut out = vec![setup(seed)?];
    rep.metric("setup_seed_s", t0.elapsed().as_secs_f64(), "s");
    out.extend(rest);
    Ok((out, times))
}

/// Peak resident set of process `pid` (`self` for this process), in MiB,
/// from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Directory the run records go to, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("segbench: {e}");
            eprintln!("usage: segbench --workload optimize|sweep|serve|exact --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    segrout_par::set_threads(args.threads);
    let mut rep = Report::new();
    let result = match args.workload.as_str() {
        "optimize" => optimize::run(&args, &mut rep),
        "sweep" => sweep::run(&args, &mut rep),
        "serve" => serve::run(&args, &mut rep),
        "exact" => exact::run(&args, &mut rep),
        other => Err(format!("unknown workload '{other}'")),
    };
    if let Err(e) = result {
        eprintln!("segbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    finish(&args, &rep)
}

/// Prints every metric, writes the record, and prints the result line.
fn finish(args: &Args, rep: &Report) -> ExitCode {
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for m in &rep.metrics {
        let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("{:<28} {:>16.6} {}{n}", m.name, m.value, m.unit);
    }
    for (name, ok) in &rep.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    let error_frac = rep.failed as f64 / rep.attempted.max(1) as f64;
    println!(
        "error_frac {error_frac} fraction  ({} failed of {} attempted)",
        rep.failed, rep.attempted
    );

    let mut out = Vec::new();
    for &(name, unit) in wanted {
        let Some(m) = rep.value(name) else {
            eprintln!("segbench: metric '{name}' was not measured");
            return ExitCode::FAILURE;
        };
        if !m.value.is_finite() {
            eprintln!("segbench: metric '{name}' is not finite");
            return ExitCode::FAILURE;
        }
        debug_assert_eq!(unit, m.unit, "unit of {name}");
        out.push((
            name,
            Json::obj([("value", Json::from(m.value)), ("unit", Json::from(unit))]),
        ));
    }
    let correct = rep.attempted > 0 && rep.failed == 0 && rep.checks.iter().all(|(_, ok)| *ok);
    write_record(args, rep, correct);
    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(rep.attempted.max(1))),
        ("failed", Json::from(rep.failed)),
        ("metrics", Json::obj(out)),
    ]);
    println!("{}", line.render());
    ExitCode::SUCCESS
}

/// Writes the full record of the run to `.bench_out/`: provenance, every
/// metric with its sample count, the checks, details and spans.
fn write_record(args: &Args, rep: &Report, correct: bool) {
    let metrics = Json::obj(rep.metrics.iter().map(|m| {
        (
            m.name.as_str(),
            Json::obj([
                ("value", Json::from(m.value)),
                ("unit", Json::from(m.unit)),
                (
                    "samples",
                    m.samples.map_or(Json::Null, |n| Json::from(n as u64)),
                ),
            ]),
        )
    }));
    let checks = Json::obj(
        rep.checks
            .iter()
            .map(|(k, ok)| (k.as_str(), Json::from(*ok))),
    );
    let record = Json::obj([
        ("schema", Json::from("segbench/1")),
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        (
            "git_rev",
            Json::from(segrout_obs::git_rev().unwrap_or_else(|| "unknown".into())),
        ),
        ("host_cpus", Json::from(args.threads as u64)),
        ("threads", Json::from(segrout_par::threads() as u64)),
        ("correct", Json::from(correct)),
        ("attempted", Json::from(rep.attempted)),
        ("failed", Json::from(rep.failed)),
        ("metrics", metrics),
        ("checks", checks),
        (
            "details",
            Json::obj(rep.details.iter().map(|(k, v)| (k.as_str(), v.clone()))),
        ),
        ("spans", rep.spans.clone().unwrap_or(Json::Null)),
    ]);
    let path = format!(
        "{OUT_DIR}/{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, record.render()))
    {
        eprintln!("segbench: cannot write {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the binary emits must be exactly BENCHMARK.json's.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_arr()
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().expect("unit").to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }
}
