//! The two training workloads, driven through `Deployment::run`.
//!
//! A run is several cold starts that end after the learner's first session
//! (for `setup_s`), then several back-to-back deployments of the same
//! configuration (the repeats); each end-to-end metric is the median over
//! them. Each repeat skips a warm-up after the learner's first session
//! before counting steps.

use std::time::{Duration, Instant};

use netsim::ClusterSpec;
use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::deployment::{build_algorithm, Deployment};
use xingtian::RunReport;
use xt_telemetry::Telemetry;

use crate::stats::{percentile, Dist};
use crate::Check;

/// Observation floats per step on both training workloads.
pub const OBS_DIM: usize = 512;
/// Steps per rollout on `impala-2m`.
pub const IMPALA_ROLLOUT: usize = 500;
/// Steps per rollout on `dqn-replay`.
pub const DQN_ROLLOUT: usize = 4;
/// Simulated NIC bandwidth between the two `impala-2m` machines, bytes/s.
pub const NIC_BYTES_PER_S: f64 = 118.04e6;
/// Time skipped after the learner's first session before counting
/// throughput, per repeat (a quarter of the repeat on short smoke runs).
const WARMUP: Duration = Duration::from_millis(500);
/// Width of the timeline buckets the window is cut from.
const BUCKET_S: f64 = 1e-4;

/// `impala-2m`: IMPALA on synthetic-Atari BeamRider, 4 unpaced explorers
/// split 2+2 over two machines, learner on machine 0.
pub fn impala_config(seed: u64, seconds: f64) -> DeploymentConfig {
    let mut config = DeploymentConfig::atari("BeamRider", AlgorithmSpec::impala(), 4)
        .with_obs_dim(OBS_DIM)
        .with_rollout_len(IMPALA_ROLLOUT)
        .with_step_latency_us(0)
        .with_goal_steps(u64::MAX)
        .with_max_seconds(seconds)
        .with_seed(seed)
        .spread_across(2);
    config.cluster = ClusterSpec::default()
        .machines(2)
        .nic_bandwidth(NIC_BYTES_PER_S);
    config
}

/// `dqn-replay`: DQN on the same environment, one unpaced explorer with
/// 4-step rollouts, replay resident in the communication layer.
pub fn dqn_config(seed: u64, seconds: f64) -> DeploymentConfig {
    DeploymentConfig::atari("BeamRider", AlgorithmSpec::dqn(), 1)
        .with_obs_dim(OBS_DIM)
        .with_rollout_len(DQN_ROLLOUT)
        .with_step_latency_us(0)
        .with_goal_steps(u64::MAX)
        .with_max_seconds(seconds)
        .with_seed(seed)
        .with_store_resident_replay()
}

/// One deployment of a training workload, timed from its entry call.
pub struct Repeat {
    /// Entry call until the learner's first session completed, plus the
    /// teardown after the run, seconds.
    pub setup_s: f64,
    /// Learner thread start until its first session completed, seconds.
    pub first_session_s: f64,
    /// The `BUCKET_S` timeline bucket the first session completed in.
    first_bucket: usize,
    pub report: RunReport,
}

/// Runs one deployment.
pub fn run_once(config: DeploymentConfig, telemetry: Option<Telemetry>) -> Result<Repeat, String> {
    let entry = Instant::now();
    let report = match telemetry {
        Some(t) => Deployment::run_with_telemetry(config, t),
        None => Deployment::run(config),
    }
    .map_err(|e| e.to_string())?;
    let call_s = entry.elapsed().as_secs_f64();

    let series = report.timeline.series(BUCKET_S);
    let first = series
        .iter()
        .position(|&(_, rate)| rate > 0.0)
        .ok_or("learner never trained")?;
    let first_session_s = series[first].0 + BUCKET_S;
    // The learner timeline starts when the learner thread does; everything
    // between the entry call and that point (fabric build, spawn) and the
    // teardown after the run are `call_s - wall_time`. `Deployment::run`
    // reports no boundary between the two, so `setup_s` holds both.
    let outside_s = (call_s - report.wall_time.as_secs_f64()).max(0.0);
    Ok(Repeat {
        setup_s: outside_s + first_session_s,
        first_session_s,
        first_bucket: first,
        report,
    })
}

/// Learner steps/s over a repeat's measured window (after the warm-up that
/// follows its first session), and the window's length in seconds.
pub fn throughput(r: &Repeat) -> Result<(f64, f64), String> {
    let series = r.report.timeline.series(BUCKET_S);
    let warmup = WARMUP
        .as_secs_f64()
        .min(series.len() as f64 * BUCKET_S / 4.0);
    let from = r.first_bucket + (warmup / BUCKET_S).round() as usize;
    if from >= series.len() {
        return Err("run too short for its warm-up".into());
    }
    let window_s = (series.len() - from) as f64 * BUCKET_S;
    let steps: f64 = series[from..]
        .iter()
        .map(|&(_, rate)| rate * BUCKET_S)
        .sum();
    Ok((steps / window_s, window_s))
}

/// Correctness checks every training repeat must pass.
pub fn check(config: &DeploymentConfig, report: &RunReport, checks: &mut Vec<Check>) {
    checks.push(Check::new(
        "training: no dropped messages",
        report.dropped_messages == 0,
        format!("{} dropped", report.dropped_messages),
    ));
    checks.push(Check::new(
        "training: learner trained",
        report.train_sessions > 0 && report.steps_consumed > 0,
        format!(
            "{} sessions, {} steps",
            report.train_sessions, report.steps_consumed
        ),
    ));
    let finite = report.final_params.iter().all(|p| p.is_finite());
    checks.push(Check::new(
        "training: final params finite",
        finite && !report.final_params.is_empty(),
        format!("{} params", report.final_params.len()),
    ));
    // The learner's version advanced iff its parameters moved off the ones
    // the same seed initializes.
    let initial = build_algorithm(
        &config.algorithm,
        OBS_DIM,
        gymlite::AtariGame::BeamRider.config().num_actions,
        config.total_explorers(),
        config.rollout_len,
        config.seed,
    )
    .param_blob()
    .params;
    checks.push(Check::new(
        "training: learner version advanced",
        initial.len() == report.final_params.len() && initial != report.final_params,
        "final params differ from the seed's initial params".to_string(),
    ));
    if let Some(replay) = &report.replay {
        checks.push(Check::new(
            "training: replay ingested without torn slots",
            replay.batches_ingested > 0 && replay.dangling_slots == 0,
            format!(
                "{} batches, {} dangling",
                replay.batches_ingested, replay.dangling_slots
            ),
        ));
    }
}

/// The two training workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Impala,
    Dqn,
}

/// Deployments per run; each end-to-end metric but `setup_s` is their
/// median.
const REPEATS: usize = 5;
/// Cold starts per run; `setup_s` is their median. Each ends when the
/// learner reports its first session.
const SETUP_REPEATS: usize = 11;
/// Deadline of a cold start, far above its usual length; only a learner
/// that never trains reaches it.
const SETUP_CAP_S: f64 = 30.0;
/// Bucket width for the learner update-interval distribution.
const INTERVAL_BUCKET_S: f64 = 0.2;

/// p50 and p90 latency of one repeat, ms: rollout delivery on `impala-2m`;
/// on `dqn-replay`, whose rollout backlog is bounded only by store
/// capacity, the learner's update interval (window buckets over the
/// sessions they hold). The update interval is read off the same session
/// timeline as `throughput_per_s`, so on `dqn-replay` the two move
/// together.
fn latencies(w: Workload, r: &Repeat) -> (f64, f64) {
    match w {
        Workload::Impala => {
            let ms = |q: f64| r.report.rollout_latency.quantile(q).as_secs_f64() * 1e3;
            (ms(0.5), ms(0.9))
        }
        Workload::Dqn => {
            let steps_per_session =
                r.report.steps_consumed as f64 / r.report.train_sessions.max(1) as f64;
            let series = r.report.timeline.series(INTERVAL_BUCKET_S);
            let skip =
                ((r.first_session_s + WARMUP.as_secs_f64()) / INTERVAL_BUCKET_S).ceil() as usize;
            // The last bucket is partial.
            let end = series.len().saturating_sub(1);
            let mut intervals: Vec<f64> = series[skip.min(end)..end]
                .iter()
                .map(|&(_, rate)| {
                    let sessions = rate * INTERVAL_BUCKET_S / steps_per_session;
                    if sessions > 0.0 {
                        INTERVAL_BUCKET_S * 1e3 / sessions
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            (
                percentile(&mut intervals, 50.0),
                percentile(&mut intervals, 90.0),
            )
        }
    }
}

/// Runs a training workload: `SETUP_REPEATS` cold starts for `setup_s`,
/// then `REPEATS` untraced deployments for the other end-to-end metrics.
/// With `--trace 1` each repeat is followed by the same deployment with
/// telemetry on; the pairs' throughput ratios give
/// `telemetry.overhead_frac`, and the last traced deployment the per-layer
/// metrics.
pub fn run(w: Workload, args: &crate::Args, out: &mut crate::Outcome) -> Result<(), String> {
    let make = match w {
        Workload::Impala => impala_config,
        Workload::Dqn => dqn_config,
    };
    let seed = |i: usize| args.seed.wrapping_mul(7919).wrapping_add(i as u64);
    let mut setups = Vec::new();
    for i in 0..SETUP_REPEATS {
        let config = make(seed(REPEATS + i), SETUP_CAP_S).with_goal_steps(1);
        let r = run_once(config.clone(), None)?;
        check(&config, &r.report, &mut out.checks);
        out.notes.push(format!(
            "cold start {i}: setup {:.4}s (first session {:.4}s after the learner started)",
            r.setup_s, r.first_session_s
        ));
        setups.push(r.setup_s);
    }
    out.measured.put("setup_s", Dist::of(&setups));

    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let each = untraced_s / REPEATS as f64;
    let mut runs = Vec::new();
    let mut overheads = Vec::new();
    let mut last_traced = None;
    for i in 0..REPEATS {
        let config = make(seed(i), each);
        let r = run_once(config.clone(), None)?;
        check(&config, &r.report, &mut out.checks);
        let (sps, window_s) = throughput(&r)?;
        let (p50, p90) = latencies(w, &r);
        out.notes.push(format!(
            "repeat {i}: {sps:.0} steps/s over {window_s:.2}s, latency p50 {p50:.3}ms p90 {p90:.3}ms, \
             {} sessions, {} rollouts, {} dropped",
            r.report.train_sessions,
            r.report.rollout_latency.len(),
            r.report.dropped_messages
        ));
        if args.trace {
            // The same deployment again with telemetry on: the pair's
            // throughput ratio is what tracing costs.
            let telemetry = Telemetry::with_capacity(1 << 20);
            let t = run_once(config.clone(), Some(telemetry.clone()))?;
            check(&config, &t.report, &mut out.checks);
            let (traced_sps, traced_window_s) = throughput(&t)?;
            overheads.push(1.0 - traced_sps / sps);
            out.notes.push(format!(
                "traced {i}: {traced_sps:.0} steps/s over {traced_window_s:.2}s \
                 ({} events, {} dropped from the ring)",
                telemetry.total_events(),
                telemetry.dropped_events()
            ));
            last_traced = Some((config, t, telemetry));
        }
        runs.push((r, sps, p50, p90));
    }
    let m = &mut out.measured;
    let col = |f: &dyn Fn(&(Repeat, f64, f64, f64)) -> f64| {
        Dist::of(&runs.iter().map(f).collect::<Vec<_>>())
    };
    m.put("throughput_per_s", col(&|r| r.1));
    m.put("latency_p50_ms", col(&|r| r.2));
    let p90 = col(&|r| r.3);
    out.notes.push(format!(
        "latency p90 {:.4}ms (q1 {:.4}, q3 {:.4}, n={})",
        p90.median, p90.q1, p90.q3, p90.n
    ));
    let m = &mut out.measured;
    // Attempted: rollout messages delivered to their consumer plus those
    // the fabric dropped.
    m.failed = runs.iter().map(|r| r.0.report.dropped_messages).sum();
    m.attempted = m.failed
        + runs
            .iter()
            .map(|r| r.0.report.rollout_latency.len() as u64)
            .sum::<u64>();
    if let Some((config, r, telemetry)) = last_traced {
        out.layers
            .put("telemetry.overhead_frac", Dist::of(&overheads).median);
        traced(&config, &r, &telemetry, out);
    }
    Ok(())
}

/// A traced deployment's telemetry read into per-layer metrics, then the
/// bench-side spans.
fn traced(config: &DeploymentConfig, r: &Repeat, telemetry: &Telemetry, out: &mut crate::Outcome) {
    let report = &r.report;
    let window = report.wall_time.as_secs_f64();
    let steps = report.steps_consumed.max(1) as f64;
    let l = &mut out.layers;
    let reg = telemetry.registry().expect("telemetry enabled");
    let hist = |name: &str| reg.histogram(name);
    let busy = |name: &str| hist(name).sum() as f64 / 1e9 / window;
    let p50_99 = [("p50", 0.5), ("p99", 0.99)];

    let act = hist("learn.infer_ns");
    l.hist("algos.act_ns", &act, &p50_99, 1.0);
    l.put_n("algos.act_count", act.count() as f64, act.count());
    l.put("algos.act_share", busy("learn.infer_ns"));
    let decode = hist("learn.decode_ns");
    l.hist("algos.decode_ns", &decode, &[("p50", 0.5)], 1.0);
    l.put_n("algos.decode_count", decode.count() as f64, decode.count());
    l.put("algos.decode_share", busy("learn.decode_ns"));
    let train = hist("learn.train_ns");
    l.hist("algos.train_ns", &train, &p50_99, 1.0);
    l.put_n("algos.train_count", train.count() as f64, train.count());
    l.put("algos.train_share", busy("learn.train_ns"));

    let compress = hist("comm.compress_ns");
    l.hist("message.compress_ns", &compress, &[("p50", 0.5)], 1.0);
    l.put_n(
        "message.compress_count",
        compress.count() as f64,
        compress.count(),
    );
    l.put("message.compress_share", busy("comm.compress_ns"));
    let ratio = hist("comm.compress_ratio");
    l.put_n(
        "message.compress_ratio",
        if ratio.count() > 0 {
            ratio.quantile(0.5) as f64 / 100.0
        } else {
            0.0
        },
        ratio.count(),
    );

    let stages = telemetry.stage_breakdown();
    for (name, h) in [
        ("serialize", &stages.serialize),
        ("store", &stages.store),
        ("route", &stages.route),
        ("wait", &stages.wait),
    ] {
        l.hist(&format!("comm.{name}_ns"), h, &p50_99, 1.0);
    }
    l.hist("netsim.nic_ns", &stages.nic, &[("p50", 0.5)], 1.0);
    l.put(
        "netsim.nic_busy_frac",
        stages.nic.sum() as f64 / 1e9 / window,
    );
    let events = telemetry.events();
    let sent_bytes: u64 = events
        .iter()
        .filter(|e| e.kind == xt_telemetry::EventKind::SendEnqueued)
        .map(|e| e.aux)
        .sum();
    l.put_n(
        "comm.spans",
        telemetry.spans().len() as f64,
        telemetry.spans().len() as u64,
    );
    l.put(
        "comm.messages_per_s",
        reg.counter("comm.routed_messages").get() as f64 / window,
    );
    l.put("comm.wire_bytes_per_step", sent_bytes as f64 / steps);
    l.put(
        "comm.backpressure_waits",
        reg.counter("explorer.backpressure_waits").get() as f64,
    );
    l.put("comm.dropped", report.dropped_messages as f64);
    l.put(
        "netsim.uplink_bytes_per_step",
        reg.counter("comm.uplink_bytes").get() as f64 / steps,
    );

    let ingest = hist("replay.ingest_ns");
    l.hist("replay.ingest_ns", &ingest, &[("p50", 0.5)], 1.0);
    l.put_n("replay.ingest_count", ingest.count() as f64, ingest.count());
    l.put("replay.ingest_share", busy("replay.ingest_ns"));
    let sample = hist("replay.sample_ns");
    l.hist("replay.sample_ns", &sample, &[("p50", 0.5)], 1.0);
    l.put_n("replay.sample_count", sample.count() as f64, sample.count());
    l.put("replay.sample_share", busy("replay.sample_ns"));
    let capacity = match &config.algorithm {
        AlgorithmSpec::Dqn(c) => c.buffer_capacity as f64,
        _ => 0.0,
    };
    let occupancy = reg.gauge("replay.occupancy").get() as f64;
    l.put(
        "replay.occupancy",
        if capacity > 0.0 {
            occupancy / capacity
        } else {
            0.0
        },
    );

    let wait = hist("learner.wait_ns");
    l.hist(
        "core.learner_wait_ns",
        &wait,
        &[("p50", 0.5), ("p90", 0.9)],
        1.0,
    );
    l.put("core.learner_wait_share", busy("learner.wait_ns"));
    l.put(
        "core.param_full_sends",
        reg.counter("param.full_sends").get() as f64,
    );
    l.put(
        "core.param_delta_sends",
        reg.counter("param.delta_sends").get() as f64,
    );

    crate::layers::training(config, l, &mut out.checks);
    let step_ns = l.values["envs.step_ns"].0;
    l.put(
        "envs.step_share",
        act.count() as f64 * step_ns / 1e9 / window,
    );
    l.put(
        "telemetry.dropped_events",
        telemetry.dropped_events() as f64,
    );
}
