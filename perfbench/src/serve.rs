//! `serve-swap`: a 2-replica `ServeFleet` driven open-loop while a
//! `ParamPublisher` hot-swaps it with `DeltaQuantizedI8` frames.
//!
//! The load generator keeps a schedule: request `k` of a client is due at
//! `start + k / rate`, is sent as soon as the thread gets to it, and its
//! latency counts from when it was due, so a stall in the generator or the
//! fleet is charged to every request it delays. `gen_lag` is how late the
//! send was. The generator uses at most `nproc` threads.
//!
//! A run measures the base rate (today's ci offered load) for latency, then
//! climbs a fixed rate ladder for the knee: the highest rung that keeps e2e
//! p50 within the limit, sheds nothing, leaves no growing backlog and keeps
//! the generator on schedule.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsim::Cluster;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinynn::{Activation, Mlp};
use xingtian_algos::ParamBlob;
use xingtian_comm::{Broker, CommConfig, ParamCompression};
use xingtian_message::ProcessId;
use xt_serve::{ParamPublisher, ServeClient, ServeConfig, ServeFleet};
use xt_telemetry::Telemetry;

use crate::stats::{percentile, Dist};
use crate::Check;

pub const REPLICAS: usize = 2;
pub const OBS_DIM: usize = 4;
pub const ACTIONS: usize = 2;
pub const HIDDEN: [usize; 2] = [64, 64];
/// Rows per request.
pub const ROWS: u32 = 64;
/// Base rate: 820 requests/s of 64 rows.
pub const BASE_REQ_PER_S: f64 = 820.0;
/// The latency limit a ladder rung must meet at its median. The p99 is
/// printed per rung; as a limit it measured the shared host's scheduling
/// stalls (a whole run's rungs could miss it at the base rate).
pub const P50_LIMIT: Duration = Duration::from_millis(2);
/// A rung whose generator ran later than this at its median is off
/// schedule.
pub const LAG_LIMIT: Duration = Duration::from_millis(1);
/// Period of the hot swaps.
pub const SWAP_EVERY: Duration = Duration::from_millis(250);
/// Distinct seeded observation batches each client cycles through.
const OBS_POOL: usize = 16;

/// Parameters of version `version`, seeded by the workload seed.
pub fn blob(version: u64, seed: u64) -> ParamBlob {
    let sizes = [OBS_DIM, HIDDEN[0], HIDDEN[1], ACTIONS];
    let mlp = Mlp::new(
        &sizes,
        Activation::Relu,
        seed ^ version.wrapping_mul(0x9E37_79B9),
    );
    ParamBlob {
        version,
        params: mlp.params().to_vec(),
    }
}

/// Seeded observation batches (`OBS_POOL` of them, `ROWS` rows each).
pub fn observation_pool(seed: u64, client: u32) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x5E12_0000 + u64::from(client)));
    (0..OBS_POOL)
        .map(|_| {
            (0..ROWS as usize * OBS_DIM)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect()
        })
        .collect()
}

/// One client's traffic over one phase.
#[derive(Default)]
struct Traffic {
    sent: u64,
    answered: u64,
    shed: u64,
    unanswered: u64,
    rows: u64,
    /// e2e latency from due time, ns.
    latency_ns: Vec<f64>,
    /// Send time minus due time, ns.
    lag_ns: Vec<f64>,
    /// Duration of `ServeClient::send`, ns.
    send_ns: Vec<f64>,
    /// Requests outstanding at the half-way point and at the end of sending.
    backlog_mid: usize,
    backlog_end: usize,
}

impl Traffic {
    fn merge(&mut self, o: Traffic) {
        self.sent += o.sent;
        self.answered += o.answered;
        self.shed += o.shed;
        self.unanswered += o.unanswered;
        self.rows += o.rows;
        self.latency_ns.extend(o.latency_ns);
        self.lag_ns.extend(o.lag_ns);
        self.send_ns.extend(o.send_ns);
        self.backlog_mid += o.backlog_mid;
        self.backlog_end += o.backlog_end;
    }
}

/// A load client: one `ServeClient` that addresses the replicas in turn,
/// its seeded observations, and the due time of each request in flight.
struct Loader {
    client: ServeClient,
    index: u32,
    pool: Vec<Vec<f32>>,
    next_obs: usize,
    due: std::collections::HashMap<u64, Instant>,
}

impl Loader {
    fn admit(&mut self, replies: &[xingtian_message::InferReply], t: &mut Traffic) {
        let now = Instant::now();
        for r in replies {
            let Some(due) = self.due.remove(&r.request_id) else {
                continue;
            };
            t.latency_ns.push(now.duration_since(due).as_nanos() as f64);
            if r.shed {
                t.shed += 1;
            } else {
                t.answered += 1;
                t.rows += r.actions.len() as u64;
            }
        }
    }

    /// Sends at `rate` requests/s from `start` (offset by `phase` of one
    /// interval) until `until`, then drains replies up to `drain`.
    fn drive(
        &mut self,
        rate: f64,
        start: Instant,
        phase: f64,
        until: Instant,
        drain: Duration,
    ) -> Traffic {
        let mut t = Traffic::default();
        let interval = Duration::from_secs_f64(1.0 / rate);
        let mut next = start + interval.mul_f64(phase);
        let mid = start + (until - start) / 2;
        let mut mid_taken = false;
        let mut replies = Vec::new();
        loop {
            let now = Instant::now();
            if !mid_taken && now >= mid {
                t.backlog_mid = self.due.len();
                mid_taken = true;
            }
            if next >= until {
                break;
            }
            if now >= next {
                let obs = &self.pool[self.next_obs % self.pool.len()];
                let replica = (self.index as usize + self.next_obs) % REPLICAS;
                self.client.set_target(ProcessId::server(replica as u32));
                self.next_obs += 1;
                let t_send = Instant::now();
                let id = self.client.send(obs, ROWS);
                t.send_ns.push(t_send.elapsed().as_nanos() as f64);
                t.lag_ns.push(t_send.duration_since(next).as_nanos() as f64);
                self.due.insert(id, next);
                t.sent += 1;
                next += interval;
                replies.clear();
                self.client.poll(&mut replies);
                self.admit(&replies, &mut t);
                continue;
            }
            replies.clear();
            self.client.poll_timeout(next - now, &mut replies);
            self.admit(&replies, &mut t);
        }
        // Sleep out the rest of the phase while collecting replies.
        while Instant::now() < until {
            replies.clear();
            self.client
                .poll_timeout(until - Instant::now(), &mut replies);
            self.admit(&replies, &mut t);
        }
        t.backlog_end = self.due.len();
        if !mid_taken {
            t.backlog_mid = t.backlog_end;
        }
        let deadline = Instant::now() + drain;
        while !self.due.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            replies.clear();
            self.client.poll_timeout(deadline - now, &mut replies);
            self.admit(&replies, &mut t);
        }
        t.unanswered = self.due.len() as u64;
        // Requests that never came back count as missing the limit.
        for _ in 0..t.unanswered {
            t.latency_ns.push(f64::INFINITY);
        }
        self.due.clear();
        t
    }
}

/// Runs every loader, each on its own thread, for one phase at `rate`
/// requests/s aggregate.
fn phase(loaders: &mut [Loader], rate: f64, seconds: f64, drain: Duration) -> Traffic {
    let n = loaders.len();
    let per_client = rate / n as f64;
    let start = Instant::now() + Duration::from_millis(2);
    let until = start + Duration::from_secs_f64(seconds);
    let mut total = Traffic::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = loaders
            .iter_mut()
            .enumerate()
            .map(|(i, l)| {
                s.spawn(move || l.drive(per_client, start, i as f64 / n as f64, until, drain))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("load thread panicked"));
        }
    });
    total
}

/// One ladder rung's outcome.
struct Rung {
    rows_per_s: f64,
    achieved_rows_per_s: f64,
    p50_ns: f64,
    p99_ns: f64,
    lag_p99_ns: f64,
    sheds: u64,
    backlog_mid: usize,
    backlog_end: usize,
    passed: bool,
}

fn judge(rows_per_s: f64, seconds: f64, t: &Traffic) -> Rung {
    let p50_ns = percentile(&mut t.latency_ns.clone(), 50.0);
    let p99_ns = percentile(&mut t.latency_ns.clone(), 99.0);
    let lag_p50_ns = percentile(&mut t.lag_ns.clone(), 50.0);
    let lag_p99_ns = percentile(&mut t.lag_ns.clone(), 99.0);
    // A backlog grows when more is outstanding at the end of the rung than
    // at its midpoint plus what the rate sends within the latency limit.
    let in_limit = (rows_per_s / f64::from(ROWS) * P50_LIMIT.as_secs_f64()).ceil() as usize;
    let growing = t.backlog_end > t.backlog_mid + in_limit;
    let passed = p50_ns <= P50_LIMIT.as_nanos() as f64
        && t.shed == 0
        && t.unanswered == 0
        && !growing
        && lag_p50_ns <= LAG_LIMIT.as_nanos() as f64;
    Rung {
        rows_per_s,
        achieved_rows_per_s: t.rows as f64 / seconds,
        p50_ns,
        p99_ns,
        lag_p99_ns,
        sheds: t.shed,
        backlog_mid: t.backlog_mid,
        backlog_end: t.backlog_end,
        passed,
    }
}

/// Cold starts per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Phases the base-rate measurement is split into.
const BASE_REPEATS: usize = 5;
/// The rate ladder: rung `k` offers `BASE_REQ_PER_S * ROWS * RATIO^k`
/// rows/s.
const LADDER_RATIO: f64 = 1.1;
/// First rung of the first climb (about 17x the base rate, below every
/// knee seen on a 2-core host; a climb steps down from it if it misses).
const FIRST_RUNG: i32 = 30;
/// Tries a rung gets; it passes when most of them do. A shared host's
/// scheduling hiccups miss a single 0.3 s window now and then at any rate,
/// so one window decides nothing either way.
const TRIES: usize = 3;
/// Seconds each rung sends for.
const RUNG_S: f64 = 0.3;
/// Longest a phase waits for its last replies.
const DRAIN: Duration = Duration::from_millis(500);

fn rung_rows_per_s(k: i32) -> f64 {
    BASE_REQ_PER_S * f64::from(ROWS) * LADDER_RATIO.powi(k)
}

fn fleet_config() -> ServeConfig {
    ServeConfig::new(REPLICAS, OBS_DIM, ACTIONS)
        .with_hidden(HIDDEN.to_vec())
        .with_batching(256, 200)
}

/// One cold start: fleet start until the first reply is answered.
fn setup_once(seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let fleet = ServeFleet::start(&broker, fleet_config(), &blob(1, seed));
    let mut client = ServeClient::new(&broker, 0, REPLICAS);
    let reply = client.infer_blocking(&observation_pool(seed, 0)[0], ROWS, Duration::from_secs(10));
    let setup = t.elapsed().as_secs_f64();
    client.close();
    fleet.shutdown();
    broker.shutdown();
    match reply {
        Some(r) if !r.shed && r.actions.len() == ROWS as usize => Ok(setup),
        _ => Err("first request of a cold fleet was not answered".into()),
    }
}

/// A fleet under load: broker, replicas, loaders and the publisher thread
/// hot-swapping it.
struct Rig {
    broker: Broker,
    fleet: ServeFleet,
    loaders: Vec<Loader>,
    stop: Arc<AtomicBool>,
    publisher: std::thread::JoinHandle<(u64, u64)>,
}

impl Rig {
    fn start(seed: u64, telemetry: Telemetry) -> Rig {
        let broker = Broker::with_telemetry(0, Cluster::single(), CommConfig::default(), telemetry);
        let fleet = ServeFleet::start(&broker, fleet_config(), &blob(1, seed));
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(REPLICAS);
        let loaders = (0..threads as u32)
            .map(|i| Loader {
                client: ServeClient::new(&broker, i, REPLICAS),
                index: i,
                pool: observation_pool(seed, i),
                next_obs: 0,
                due: Default::default(),
            })
            .collect();
        let stop = Arc::new(AtomicBool::new(false));
        let publisher = {
            let (broker, stop) = (broker.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut p =
                    ParamPublisher::new(&broker, REPLICAS, ParamCompression::DeltaQuantizedI8);
                let mut version = 1;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(SWAP_EVERY);
                    version += 1;
                    // A rolling swap: one replica at a time.
                    p.publish_staggered(&blob(version, seed), Duration::from_millis(2));
                }
                p.pump_acks();
                let acked = p.acked();
                p.close();
                (version, acked)
            })
        };
        Rig {
            broker,
            fleet,
            loaders,
            stop,
            publisher,
        }
    }

    /// Stops the publisher, waits for the fleet to converge, checks the
    /// serving contract and tears everything down.
    fn finish(mut self, checks: &mut Vec<Check>) {
        self.stop.store(true, Ordering::Relaxed);
        let (last, acked) = self.publisher.join().expect("publisher thread panicked");
        let settle = Instant::now() + Duration::from_secs(5);
        while self.fleet.versions().iter().any(|&v| v < last) && Instant::now() < settle {
            std::thread::sleep(Duration::from_millis(2));
        }
        let versions = self.fleet.versions();
        let (mut sent, mut answered, mut shed) = (0, 0, 0);
        for l in &mut self.loaders {
            l.client.drain(Duration::from_secs(5));
            sent += l.client.sent;
            answered += l.client.answered;
            shed += l.client.shed;
        }
        checks.push(Check::new(
            "serving: sent = answered + shed",
            sent == answered + shed,
            format!("sent {sent}, answered {answered}, shed {shed}"),
        ));
        checks.push(Check::new(
            "serving: a hot swap landed under load",
            acked > 0,
            format!("{acked} swaps acked"),
        ));
        checks.push(Check::new(
            "serving: fleet converged to the last version",
            versions.iter().all(|&v| v == last),
            format!("versions {versions:?}, last published v{last}"),
        ));
        for l in self.loaders {
            l.client.close();
        }
        self.fleet.shutdown();
        self.broker.shutdown();
        let live = self.broker.store().len();
        checks.push(Check::new(
            "serving: object store empty at exit",
            live == 0,
            format!("{live} objects live"),
        ));
    }
}

fn quantile_ms(t: &Traffic, p: f64) -> f64 {
    percentile(&mut t.latency_ns.clone(), p) / 1e6
}

/// One climb of the ladder from rung `from`: down until a rung passes,
/// then up until two rungs in a row miss. Returns the highest
/// rung that passed and its achieved rows/s.
fn climb(rig: &mut Rig, from: i32, notes: &mut Vec<String>) -> (i32, f64) {
    let mut attempt = |k: i32, notes: &mut Vec<String>| {
        let (mut passes, mut misses) = (0, 0);
        let mut achieved = Vec::new();
        while 2 * passes <= TRIES && 2 * misses <= TRIES {
            let t = phase(
                &mut rig.loaders,
                rung_rows_per_s(k) / f64::from(ROWS),
                RUNG_S,
                DRAIN,
            );
            let r = judge(rung_rows_per_s(k), RUNG_S, &t);
            notes.push(format!(
                "rung {k:>2} {:>9.0} rows/s: achieved {:>9.0}, p50 {:.3}ms p99 {:.3}ms, gen lag p99 {:.3}ms, shed {}, backlog {}->{}: {}",
                r.rows_per_s,
                r.achieved_rows_per_s,
                r.p50_ns / 1e6,
                r.p99_ns / 1e6,
                r.lag_p99_ns / 1e6,
                r.sheds,
                r.backlog_mid,
                r.backlog_end,
                if r.passed { "pass" } else { "miss" }
            ));
            if r.passed {
                passes += 1;
                achieved.push(r.achieved_rows_per_s);
            } else {
                misses += 1;
            }
        }
        (2 * passes > TRIES).then(|| Dist::of(&achieved).median)
    };
    let mut k = from;
    let mut best = attempt(k, notes).map(|a| (k, a));
    while best.is_none() && k > 0 {
        k -= 1;
        best = attempt(k, notes).map(|a| (k, a));
    }
    let Some(mut best) = best else {
        return (0, 0.0);
    };
    let mut misses = 0;
    while misses < 2 {
        k += 1;
        match attempt(k, notes) {
            Some(a) => {
                best = (k, a);
                misses = 0;
            }
            None => misses += 1,
        }
    }
    best
}

/// The base-rate phases of a run and their e2e latency quantiles, ms.
#[derive(Default)]
struct Base {
    p50s: Vec<f64>,
    p90s: Vec<f64>,
}

impl Base {
    fn phase(&mut self, rig: &mut Rig, seconds: f64, out: &mut crate::Outcome) {
        let t = phase(&mut rig.loaders, BASE_REQ_PER_S, seconds, DRAIN);
        let (p50, p90, p99) = (
            quantile_ms(&t, 50.0),
            quantile_ms(&t, 90.0),
            quantile_ms(&t, 99.0),
        );
        out.notes.push(format!(
            "base {}: {:.0} rows/s, e2e p50 {p50:.4}ms p90 {p90:.4}ms p99 {p99:.4}ms over {} requests, gen lag p99 {:.4}ms",
            self.p50s.len(),
            BASE_REQ_PER_S * f64::from(ROWS),
            t.latency_ns.len(),
            percentile(&mut t.lag_ns.clone(), 99.0) / 1e6
        ));
        self.p50s.push(p50);
        self.p90s.push(p90);
        // The base rate is the load every request must survive; ladder
        // rungs past the knee shed by design and are not counted here.
        out.measured.attempted += t.sent;
        out.measured.failed += t.shed + t.unanswered;
    }
}

/// Runs `serve-swap`.
pub fn run(args: &crate::Args, out: &mut crate::Outcome) -> Result<(), String> {
    let seed = args.seed;
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| setup_once(seed))
        .collect::<Result<_, _>>()?;
    out.measured.put("setup_s", Dist::of(&setups));

    let budget = args.seconds;
    let warm_rig = || {
        let mut rig = Rig::start(seed, Telemetry::disabled());
        // Warm-up: first swaps and allocations, discarded.
        phase(&mut rig.loaders, BASE_REQ_PER_S, 0.2, DRAIN);
        rig
    };
    let mut rig = warm_rig();
    // The base rate runs as `BASE_REPEATS` phases spread over the run, one
    // before the ladder and one after each climb, so that each latency
    // metric, the median over them, samples the host across the whole run.
    let base_s = if args.trace {
        budget / 4.0
    } else {
        budget * 0.3
    };
    let slice = base_s / BASE_REPEATS as f64;
    let mut base = Base::default();
    base.phase(&mut rig, slice, out);
    if !args.trace {
        let t0 = Instant::now();
        let mut knees = Vec::new();
        let mut from = FIRST_RUNG;
        while knees.is_empty() || t0.elapsed().as_secs_f64() < budget - base_s {
            if !knees.is_empty() {
                // Each climb gets a fleet of its own: the knee moves with
                // where a fleet's threads happen to run, so the median
                // over climbs samples that too.
                rig.finish(&mut out.checks);
                rig = warm_rig();
            }
            let (k, achieved) = climb(&mut rig, from, &mut out.notes);
            out.notes.push(format!(
                "climb {}: knee at rung {k}, {achieved:.0} rows/s",
                knees.len()
            ));
            knees.push(achieved);
            from = (k - 3).max(0);
            if base.p50s.len() < BASE_REPEATS - 1 {
                base.phase(&mut rig, slice, out);
            }
        }
        out.measured.put("throughput_per_s", Dist::of(&knees));
    }
    while base.p50s.len() < BASE_REPEATS {
        base.phase(&mut rig, slice, out);
    }
    let p50 = Dist::of(&base.p50s);
    out.measured.put("latency_p50_ms", p50);
    let p90 = Dist::of(&base.p90s);
    out.notes.push(format!(
        "base e2e p90 {:.4}ms (q1 {:.4}, q3 {:.4}, n={})",
        p90.median, p90.q1, p90.q3, p90.n
    ));
    let p50 = p50.median;
    rig.finish(&mut out.checks);

    if args.trace {
        traced(seed, budget / 4.0, p50, out);
        crate::layers::serving(seed, &mut out.layers, &mut out.checks);
    }
    Ok(())
}

/// The traced half of a `--trace 1` run: base rate, then four times it,
/// on a fleet whose broker records telemetry.
fn traced(seed: u64, seconds: f64, untraced_p50_ms: f64, out: &mut crate::Outcome) {
    let telemetry = Telemetry::enabled();
    let mut rig = Rig::start(seed, telemetry.clone());
    phase(&mut rig.loaders, BASE_REQ_PER_S, 0.2, DRAIN);
    let t0 = Instant::now();
    let base = phase(&mut rig.loaders, BASE_REQ_PER_S, seconds, DRAIN);
    let mut traffic = phase(&mut rig.loaders, 4.0 * BASE_REQ_PER_S, seconds, DRAIN);
    let window = t0.elapsed().as_secs_f64();
    let traced_p50 = quantile_ms(&base, 50.0);
    traffic.merge(base);
    rig.finish(&mut out.checks);
    out.measured.attempted += traffic.sent;
    out.measured.failed += traffic.shed + traffic.unanswered;

    let reg = telemetry.registry().expect("telemetry enabled");
    let l = &mut out.layers;
    let p50_99 = [("p50", 0.5), ("p99", 0.99)];
    // The replica records both histograms in nanoseconds.
    l.hist(
        "serve.queue_us",
        &reg.histogram("serve.queue_us"),
        &p50_99,
        1e-3,
    );
    let infer = reg.histogram("serve.infer_us");
    l.hist("serve.infer_us", &infer, &p50_99, 1e-3);
    l.put("serve.infer_share", infer.sum() as f64 / 1e9 / window);
    l.hist(
        "serve.batch_rows",
        &reg.histogram("serve.batch_size"),
        &[("p50", 0.5)],
        1.0,
    );
    l.put("serve.requests", reg.counter("serve.requests").get() as f64);
    l.put("serve.sheds", reg.counter("serve.sheds").get() as f64);
    l.put("serve.swaps", reg.counter("serve.swaps").get() as f64);
    l.put_n(
        "serve.client_send_ns_p50",
        percentile(&mut traffic.send_ns, 50.0),
        traffic.send_ns.len() as u64,
    );
    let n = traffic.lag_ns.len() as u64;
    l.put_n(
        "serve.gen_lag_us_p50",
        percentile(&mut traffic.lag_ns, 50.0) / 1e3,
        n,
    );
    l.put_n(
        "serve.gen_lag_us_p99",
        percentile(&mut traffic.lag_ns, 99.0) / 1e3,
        n,
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
    let spans = telemetry.spans().len() as u64;
    l.put_n("comm.spans", spans as f64, spans);
    l.put(
        "comm.messages_per_s",
        reg.counter("comm.routed_messages").get() as f64 / window,
    );
    l.put(
        "telemetry.overhead_frac",
        traced_p50 / untraced_p50_ms - 1.0,
    );
    l.put(
        "telemetry.dropped_events",
        telemetry.dropped_events() as f64,
    );
}
