//! `serve`: the real `segrout serve` daemon on Germany50 gravity demands,
//! fed a seeded bounded event trace over stdin at one fixed offered rate
//! (open loop). Every event is timed from when it was due until its
//! response line is read. The response stream is then checked against an
//! in-process replay of the same trace through `ServeSession::apply`.

use crate::gen::{event_line, serve_trace, sub_seed, Trace};
use crate::layers::{self, Inputs};
use crate::trace::{counted, Delta, Tracer};
use crate::{peak_rss_mb, repeated_setup, stats, Args, Report};
use segrout_algos::{
    heur_ospf, HeurOspfConfig, JointHeurConfig, ServeConfig, ServeResponse, ServeSession, ServeTier,
};
use segrout_core::{write_config, DemandList, Network, WaypointSetting, WeightSetting};
use segrout_obs::Json;
use segrout_topo::by_name;
use segrout_traffic::{gravity, TrafficConfig};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Offered event rate, events per second: well below the daemon's
/// closed-loop capacity, so queueing comes from slow events, not overload.
/// A median trace escalates 11 times in 1,500 events at about 180 ms each,
/// which keeps the daemon busy an eighth of the time at this rate.
const RATE: f64 = 100.0;
/// Fewest events a run sends, so the p99 has at least ten samples beyond it.
const MIN_EVENTS: usize = 1000;
/// The daemon's latency SLO, ms (its `--slo-ms` default).
const SLO_MS: f64 = 50.0;
/// Environment variable naming the `segrout` binary (set by `run.sh`).
const BIN_ENV: &str = "SEGROUT_BIN";
/// Longest wait for the daemon to come up.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// HeurOSPF passes of the initial weight search (run by the benchmark;
/// the daemon loads its result).
const INITIAL_PASSES: usize = 2;
/// HeurOSPF passes of every per-event reopt: the daemon's `--passes`,
/// bounding the online search as an operator would.
const REOPT_PASSES: usize = 3;

/// HeurOSPF configuration with `passes` passes, as `segrout serve --seed S
/// --restarts 0 --passes P` builds it.
fn ospf(seed: u64, passes: usize) -> HeurOspfConfig {
    HeurOspfConfig {
        seed,
        restarts: 0,
        max_passes: passes,
        ..Default::default()
    }
}

fn serve_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.reopt.ospf = ospf(seed, REOPT_PASSES);
    cfg
}

/// A running `segrout serve` child. Dropping it kills and reaps it.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: Option<BufReader<ChildStdout>>,
    stderr: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Starts the daemon on `cfg_path` and waits until it has opened its
    /// session (its `serve: <topology> ...` line on stderr).
    fn start(bin: &str, seed: u64, cfg_path: &str) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--topology", "Germany50", "--traffic", "gravity"])
            .args(["--seed", &seed.to_string(), "--load", cfg_path])
            .args(["--restarts", "0", "--passes", &REOPT_PASSES.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut all = String::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.starts_with("serve: Germany50") {
                    let _ = tx.send(());
                }
                all.push_str(&line);
                all.push('\n');
            }
            all
        });
        let mut d = Self {
            stdin: child.stdin.take(),
            stdout: child.stdout.take().map(BufReader::new),
            child,
            stderr: Some(drain),
        };
        if rx.recv_timeout(START_TIMEOUT).is_err() {
            let log = d.stop().unwrap_or_default();
            return Err(format!("daemon did not come up:\n{log}"));
        }
        Ok(d)
    }

    /// Closes stdin, waits for exit, and returns the daemon's stderr.
    fn stop(&mut self) -> Result<String, String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let log = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if status.success() {
            Ok(log)
        } else {
            Err(format!("daemon exited with {status}:\n{log}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stderr.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(h) = self.stderr.take() {
                let _ = h.join();
            }
        }
    }
}

/// What the open-loop run observed per event.
struct Observed {
    due: Vec<Instant>,
    sent: Vec<Instant>,
    answered: Vec<Instant>,
    lines: Vec<String>,
    daemon_rss_mb: f64,
}

impl Observed {
    /// Per event: due time to response read, ms.
    fn sojourn_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.answered)
            .map(|(&d, &a)| ms(d, a))
            .collect()
    }

    /// Per event: due time to send, ms (how late the generator ran).
    fn lag_ms(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.sent)
            .map(|(&d, &s)| ms(d, s))
            .collect()
    }
}

/// Sends `trace` to the daemon on a fixed schedule of `RATE` events per
/// second while a reader thread timestamps each response line.
fn drive(d: &mut Daemon, trace: &Trace) -> Result<Observed, String> {
    let n = trace.events.len();
    let lines: Vec<String> = trace.events.iter().map(event_line).collect();
    let mut stdout = d.stdout.take().ok_or("daemon stdout already taken")?;
    let reader = std::thread::spawn(move || {
        let mut got = Vec::with_capacity(n);
        let mut buf = String::new();
        while got.len() < n {
            buf.clear();
            match stdout.read_line(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => got.push((Instant::now(), buf.trim_end().to_string())),
            }
        }
        (got, stdout)
    });
    let stdin = d.stdin.as_mut().ok_or("daemon stdin closed")?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut due = Vec::with_capacity(n);
    let mut sent = Vec::with_capacity(n);
    let mut write_err = None;
    for (i, line) in lines.iter().enumerate() {
        let at = t0 + Duration::from_secs_f64(i as f64 / RATE);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        due.push(at);
        sent.push(Instant::now());
        if let Err(e) = writeln!(stdin, "{line}").and_then(|()| stdin.flush()) {
            write_err = Some(e.to_string());
            break;
        }
    }
    let (got, stdout) = reader.join().map_err(|_| "response reader panicked")?;
    if let Some(e) = write_err {
        return Err(format!("event stream: {e}"));
    }
    let daemon_rss_mb = peak_rss_mb(&d.child.id().to_string());
    let stdin = d.stdin.as_mut().ok_or("daemon stdin closed")?;
    writeln!(stdin, r#"{{"event":"shutdown"}}"#)
        .and_then(|()| stdin.flush())
        .map_err(|e| format!("shutdown: {e}"))?;
    let mut stdout = stdout;
    let mut bye = String::new();
    stdout.read_line(&mut bye).map_err(|e| e.to_string())?;
    if !bye.contains("\"bye\"") {
        return Err(format!("expected a bye line, got {bye:?}"));
    }
    let (answered, lines) = got.into_iter().unzip();
    Ok(Observed {
        due,
        sent,
        answered,
        lines,
        daemon_rss_mb,
    })
}

/// Replays the trace in process, timing each `apply`.
fn replay(
    net: &Network,
    weights: &WeightSetting,
    demands: &DemandList,
    seed: u64,
    trace: &Trace,
) -> Result<(Vec<ServeResponse>, Vec<f64>, f64), String> {
    let mut s = ServeSession::new(
        net,
        weights,
        demands.clone(),
        WaypointSetting::none(demands.len()),
        serve_config(seed),
    )
    .map_err(|e| e.to_string())?;
    let initial_mlu = s.evaluator().mlu();
    let mut out = Vec::with_capacity(trace.events.len());
    let mut apply_ms = Vec::with_capacity(trace.events.len());
    for ev in &trace.events {
        let t = Instant::now();
        out.push(s.apply(ev));
        apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((out, apply_ms, initial_mlu))
}

/// Mean post-event MLU of the trace under the initial weights, through a
/// session whose thresholds never trigger a re-optimization.
fn static_mean_mlu(
    net: &Network,
    weights: &WeightSetting,
    demands: &DemandList,
    trace: &Trace,
) -> Result<f64, String> {
    let cfg = ServeConfig {
        reopt_ratio: f64::INFINITY,
        escalate_ratio: f64::INFINITY,
        ..ServeConfig::default()
    };
    let none = WaypointSetting::none(demands.len());
    let mut s =
        ServeSession::new(net, weights, demands.clone(), none, cfg).map_err(|e| e.to_string())?;
    let mlus: Vec<f64> = trace.events.iter().map(|ev| s.apply(ev).mlu).collect();
    Ok(stats::mean(&mlus))
}

/// Whether a daemon response line agrees with the replay on seq, tier,
/// MLU (bitwise) and churn, and is not an error reply.
fn agrees(line: &str, r: &ServeResponse) -> bool {
    let Ok(j) = Json::parse(line) else {
        return false;
    };
    j["seq"].as_i64() == i64::try_from(r.seq).ok()
        && j["tier"].as_str() == Some(r.tier.as_str())
        && j["mlu"].as_f64().map(f64::to_bits) == Some(r.mlu.to_bits())
        && j["churn"].as_i64() == i64::try_from(r.churn).ok()
        && r.tier != ServeTier::Error
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Runs the workload.
pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let bin =
        std::env::var(BIN_ENV).map_err(|_| format!("{BIN_ENV} must name the segrout binary"))?;
    std::fs::create_dir_all(crate::OUT_DIR).map_err(|e| e.to_string())?;
    let seed = args.seed;
    let mut gen_ms = Vec::new();
    // Each set-up generates its demands, searches initial weights, writes
    // them as a config file and starts a daemon on it. The timed panel
    // set-ups stop their daemon before the next starts; the run serves
    // with the daemon of the workload seed's set-up, the last one.
    let mut setup = |input_seed| {
        let net = by_name("Germany50").ok_or("Germany50 is not embedded")?;
        let t = Instant::now();
        let traffic = TrafficConfig {
            seed: input_seed,
            ..Default::default()
        };
        let demands = gravity(&net, &traffic).map_err(|e| e.to_string())?;
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let weights = heur_ospf(&net, &demands, &ospf(input_seed, INITIAL_PASSES));
        let none = WaypointSetting::none(demands.len());
        let cfg_path = format!("{}/serve-seed{input_seed}.cfg", crate::OUT_DIR);
        std::fs::write(&cfg_path, write_config(&net, &weights, &none))
            .map_err(|e| e.to_string())?;
        let daemon = Daemon::start(&bin, input_seed, &cfg_path)?;
        Ok((net, demands, weights, daemon))
    };
    let (setups, mut setup_times) = repeated_setup(rep, seed, 0, &mut setup)?;
    let (net, demands, weights, mut daemon) = setups.into_iter().next().ok_or("no set-up")?;

    let n = MIN_EVENTS.max((RATE * args.seconds).round() as usize);
    let trace = serve_trace(&net, &demands, n, sub_seed(seed, 1));
    let obs = drive(&mut daemon, &trace)?;
    daemon.stop()?;
    // As many timing rounds after the stream as before it, so the set-up
    // samples span the run; none runs during the stream.
    for _ in 0..crate::SETUP_ROUNDS {
        drop(setup_times.round(&mut setup)?);
    }
    // The p50 sojourn is reported as measured: it is mostly pipe and
    // wake-up latency, which the host kernel does not track (scaled by it,
    // five runs spread 0.24 instead of 0.17, ten others 0.22 either way).
    setup_times.report(rep);
    let gen_ms = stats::median(&gen_ms);

    let (replayed, replay_delta) = counted(|| replay(&net, &weights, &demands, seed, &trace));
    let (responses, apply_ms, initial_mlu) = replayed?;

    let (sojourn, lag) = (obs.sojourn_ms(), obs.lag_ms());
    let mismatched = obs
        .lines
        .iter()
        .zip(&responses)
        .filter(|(l, r)| !agrees(l, r))
        .count()
        + (n - obs.lines.len());
    rep.check("responses_match_in_process_replay", mismatched == 0);
    rep.check("every_event_answered", obs.lines.len() == n);
    let errors = responses
        .iter()
        .filter(|r| r.tier == ServeTier::Error)
        .count();
    rep.check("no_unexpected_error_replies", errors == 0);
    rep.ops(n as u64, mismatched as u64);

    let (p50, tail) = rep.timing("serve_sojourn_ms", &sojourn, "ms");
    rep.metric_n("op_ms", p50, "ms", Some(n));
    rep.metric_n("serve_p50_ms", p50, "ms", Some(n));
    let tail = tail.ok_or("too few events for a tail")?;
    rep.metric_n(
        &format!("serve_p{}_ms", tail.pct),
        tail.value,
        "ms",
        Some(n),
    );
    let missed = sojourn
        .iter()
        .zip(&responses)
        .filter(|(&s, r)| s > SLO_MS || r.tier == ServeTier::Error)
        .count()
        + (n - obs.lines.len());
    rep.metric_n(
        "serve_slo_miss_frac",
        missed as f64 / n as f64,
        "fraction",
        Some(n),
    );
    let mlus: Vec<f64> = responses.iter().map(|r| r.mlu).collect();
    let mean_mlu = stats::mean(&mlus);
    rep.metric_n("serve_mean_mlu", mean_mlu, "ratio", Some(n));
    rep.metric("serve_initial_mlu", initial_mlu, "ratio");
    // Served quality against leaving the initial weights in place: the same
    // trace through a session that never re-optimizes.
    let static_mlu = static_mean_mlu(&net, &weights, &demands, &trace)?;
    rep.metric_n("serve_static_mean_mlu", static_mlu, "ratio", Some(n));
    rep.metric_n(
        "serve_mlu_vs_static",
        mean_mlu / static_mlu,
        "ratio",
        Some(n),
    );
    let churn: usize = responses.iter().map(|r| r.churn).sum();
    rep.metric_n(
        "serve_churn_per_event",
        churn as f64 / n as f64,
        "changes/event",
        Some(n),
    );
    rep.metric("peak_rss_mb", obs.daemon_rss_mb, "MiB");
    rep.timing("gen_lag_ms", &lag, "ms");
    for (kind, share) in trace.kind_shares() {
        rep.metric(&format!("serve_share.{kind}"), share, "fraction");
    }
    rep.detail("rate_per_s", Json::from(RATE));
    rep.detail("events", Json::from(n as u64));
    for tier in [
        ServeTier::Probe,
        ServeTier::Local,
        ServeTier::Escalate,
        ServeTier::Error,
    ] {
        let t: Vec<f64> = (0..n)
            .filter(|&i| responses[i].tier == tier)
            .map(|i| apply_ms[i])
            .collect();
        rep.metric_n(
            &format!("serve_tier.{}", tier.as_str()),
            t.len() as f64,
            "count",
            None,
        );
        rep.metric_n(
            &format!("serve_apply_ms.{}", tier.as_str()),
            stats::mean(&t),
            "ms",
            Some(t.len()),
        );
    }

    if args.trace {
        traced(
            args,
            rep,
            &net,
            &demands,
            &weights,
            &trace,
            &responses,
            &apply_ms,
            &replay_delta,
            &obs,
            gen_ms,
        )?;
    }
    Ok(())
}

/// The per-layer part of the run.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    rep: &mut Report,
    net: &Network,
    demands: &DemandList,
    weights: &WeightSetting,
    trace: &Trace,
    responses: &[ServeResponse],
    apply_ms: &[f64],
    replay_delta: &Delta,
    obs: &Observed,
    gen_ms: f64,
) -> Result<(), String> {
    // Only answered events have a response time; an unanswered one already
    // failed the run's checks.
    let n = responses.len().min(obs.answered.len()).min(obs.sent.len());
    let is_probe = |i: usize| responses[i].tier == ServeTier::Probe;
    let is_reopt = |i: usize| matches!(responses[i].tier, ServeTier::Local | ServeTier::Escalate);
    let probe_us: Vec<f64> = (0..n)
        .filter(|&i| is_probe(i))
        .map(|i| apply_ms[i] * 1e3)
        .collect();
    rep.metric_n(
        "serve.apply_probe_us",
        stats::median(&probe_us),
        "us",
        Some(probe_us.len()),
    );
    let reopt_ms: Vec<f64> = (0..n)
        .filter(|&i| is_reopt(i))
        .map(|i| apply_ms[i])
        .collect();
    rep.metric_n(
        "serve.apply_reopt_ms",
        stats::mean(&reopt_ms),
        "ms",
        Some(reopt_ms.len()),
    );
    rep.metric(
        "reopt.evaluations",
        replay_delta.get("reopt.evaluations") as f64 / reopt_ms.len().max(1) as f64,
        "count",
    );

    // The daemon starts on event i once it has answered event i-1 and
    // event i has been sent; anything before that is queue wait.
    let queue: Vec<f64> = (0..n)
        .map(|i| {
            if i == 0 {
                0.0
            } else {
                ms(obs.sent[i], obs.answered[i - 1])
            }
        })
        .collect();
    let wire: Vec<f64> = (0..n)
        .filter(|&i| is_probe(i) && queue[i] == 0.0)
        .map(|i| (ms(obs.sent[i], obs.answered[i]) - apply_ms[i]) * 1e3)
        .collect();
    let wire_us = stats::median(&wire);
    rep.metric_n("cli.wire_us", wire_us, "us", Some(wire.len()));
    let q_tail = stats::tail(&queue).ok_or("too few events for a tail")?;
    rep.metric_n("serve.queue_wait_p99_ms", q_tail.value, "ms", Some(n));
    rep.detail("queue_wait_pct", Json::from(q_tail.pct));
    let lag = obs.lag_ms();
    let lag_tail = stats::tail(&lag).ok_or("too few events for a tail")?;
    rep.metric_n("gen.lag_p99_ms", lag_tail.value, "ms", Some(n));

    // Tracing overhead: the same replay with the program's profiler on.
    let mut tr = Tracer::new();
    let op = layers::traced_pairs(&mut tr, "algos.serve.replay", |_| {
        replay(net, weights, demands, args.seed, trace)
    });
    let (traced, _, _) = op.result?;
    let same = traced
        .iter()
        .zip(responses)
        .all(|(a, b)| a.mlu.to_bits() == b.mlu.to_bits() && a.tier == b.tier);
    rep.check("traced_bit_identical", same);
    layers::op_counters(&op.delta, rep);
    layers::probe_pool(&mut tr, op.delta.ratio("par.tasks", "par.batches"), rep);

    segrout_par::set_threads(1);
    let t = Instant::now();
    let (serial, _, _) = replay(net, weights, demands, args.seed, trace)?;
    let serial_ms = t.elapsed().as_secs_f64() * 1e3;
    segrout_par::set_threads(args.threads);
    let same = serial
        .iter()
        .zip(responses)
        .all(|(a, b)| a.mlu.to_bits() == b.mlu.to_bits() && a.tier == b.tier);
    rep.check("one_thread_bit_identical", same);
    rep.metric("par.speedup", serial_ms / op.untraced_ms, "ratio");

    let inp = Inputs {
        net,
        demands,
        weights,
        seed: args.seed,
    };
    let cfg = JointHeurConfig {
        ospf: ospf(args.seed, INITIAL_PASSES),
        ..Default::default()
    };
    layers::probe_stages(&mut tr, &inp, &cfg, rep)?;
    layers::probe_core_graph(&mut tr, &inp, rep)?;
    rep.metric("traffic.gen_ms", gen_ms, "ms");

    // Layer sum per event: generator lag + queue wait + in-process apply +
    // wire, against the measured sojourn (means over the trace).
    let layer_sum = stats::mean(&lag) + stats::mean(&queue) + stats::mean(apply_ms) + wire_us / 1e3;
    layers::overhead_and_residual(
        rep,
        op.untraced_ms,
        op.traced_ms,
        stats::mean(&obs.sojourn_ms()),
        layer_sum,
    );
    rep.detail("profile", Json::from(segrout_obs::profile_table()));
    rep.spans(tr.to_json());
    Ok(())
}
