//! Consumer-credit flow control over a real channel: a learner-bound IMPALA
//! deployment (real explorers, real learner loop, real IMPALA) whose learner
//! is wrapped in a probe that watches rollouts arrive.
//!
//! An explorer may send rollout n+1 only once the learner has credited
//! rollout n, and the learner credits a rollout only after training on it.
//! So if every explorer holds at most one uncredited rollout, no explorer's
//! next rollout can reach the learner while its previous one is still
//! untrained, short of a lapsed credit lease. The probe checks exactly that
//! on every arrival. The learner is
//! then crashed mid-run by its fault probe, right after a training session
//! and before that session's credit goes out, and a fresh learner takes its
//! place. Everything here waits on events (arrivals, the crash) with
//! generous deadlines; nothing sleeps.

use bytes::Bytes;
use netsim::Cluster;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xingtian::config::{AlgorithmSpec, DeploymentConfig};
use xingtian::deployment::{build_agent, build_algorithm, build_env};
use xingtian::explorer::{ExplorerOutcome, ExplorerProcess, RolloutRoute};
use xingtian::learner::{LearnerOutcome, LearnerProcess};
use xingtian::messages::ControlCommand;
use xingtian_algos::api::{Algorithm, SyncMode, TrainReport};
use xingtian_algos::payload::{ParamBlob, RolloutBatch};
use xingtian_comm::{Broker, CommConfig, Endpoint};
use xingtian_message::codec::Encode;
use xingtian_message::{MessageKind, ProcessId};
use xt_fault::{KillTrigger, ProcessProbe};
use xt_telemetry::Telemetry;

const EXPLORERS: u32 = 4;
const ROLLOUT_LEN: usize = 8;
const DEADLINE: Duration = Duration::from_secs(60);
/// Rollouts each explorer delivers before the learner-bound checks.
const STEADY: usize = 25;
/// Training session the first learner crashes after.
const CRASH_AFTER: u64 = 3 * STEADY as u64 * EXPLORERS as u64;

/// Delegates to a real algorithm while checking, per arriving rollout, that
/// the same explorer's previous rollout has already been trained on.
struct Probe {
    inner: Box<dyn Algorithm>,
    untrained: Vec<usize>,
    arrivals: Sender<u32>,
    violations: Arc<AtomicUsize>,
    max_body: Arc<AtomicUsize>,
}

impl Algorithm for Probe {
    fn on_rollout(&mut self, batch: RolloutBatch) {
        let e = batch.explorer;
        if self.untrained[e as usize] > 0 {
            self.violations.fetch_add(1, Ordering::Relaxed);
        }
        self.untrained[e as usize] += 1;
        // The explorer's message body is exactly this encoding (the channel
        // runs uncompressed here).
        self.max_body.fetch_max(batch.to_bytes().len(), Ordering::Relaxed);
        self.inner.on_rollout(batch);
        let _ = self.arrivals.send(e);
    }

    fn try_train(&mut self) -> Option<TrainReport> {
        let report = self.inner.try_train()?;
        // IMPALA trains one batch per session and notifies its explorer.
        for &e in &report.notify {
            self.untrained[e as usize] -= 1;
        }
        Some(report)
    }

    fn take_spent(&mut self) -> Option<RolloutBatch> {
        self.inner.take_spent()
    }

    fn param_blob(&self) -> ParamBlob {
        self.inner.param_blob()
    }

    fn load_params(&mut self, params: &[f32]) {
        self.inner.load_params(params);
    }

    fn version(&self) -> u64 {
        self.inner.version()
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.inner.attach_telemetry(telemetry);
    }

    fn sync_mode(&self) -> SyncMode {
        self.inner.sync_mode()
    }

    fn name(&self) -> &str {
        "probe"
    }
}

struct Rig {
    config: DeploymentConfig,
    broker: Broker,
    /// Stands in for the controller: soaks up stats, sends shutdowns.
    control: Endpoint,
    violations: Arc<AtomicUsize>,
    max_body: Arc<AtomicUsize>,
}

impl Rig {
    fn new() -> Self {
        let config = DeploymentConfig::cartpole(AlgorithmSpec::impala(), EXPLORERS)
            .with_rollout_len(ROLLOUT_LEN)
            .with_seed(5);
        let telemetry = Telemetry::with_capacity(1 << 10);
        let broker = Broker::with_telemetry(0, Cluster::single(), CommConfig::uncompressed(), telemetry);
        let control = broker.endpoint(ProcessId::controller(0));
        Rig {
            config,
            broker,
            control,
            violations: Arc::new(AtomicUsize::new(0)),
            max_body: Arc::new(AtomicUsize::new(0)),
        }
    }

    fn spawn_learner(&self, probe: Option<ProcessProbe>) -> (JoinHandle<LearnerOutcome>, Receiver<u32>) {
        let (tx, rx) = channel();
        let c = &self.config;
        let algorithm = Probe {
            inner: build_algorithm(&c.algorithm, 4, 2, EXPLORERS, c.rollout_len, c.seed),
            untrained: vec![0; EXPLORERS as usize],
            arrivals: tx,
            violations: Arc::clone(&self.violations),
            max_body: Arc::clone(&self.max_body),
        };
        let learner = LearnerProcess {
            endpoint: self.broker.endpoint(ProcessId::learner(0)),
            algorithm: Box::new(algorithm),
            checkpointer: None,
            probe,
            param_compression: c.comm.param_compression,
        };
        (std::thread::spawn(move || learner.run()), rx)
    }

    fn spawn_explorer(&self, i: u32) -> JoinHandle<ExplorerOutcome> {
        let c = &self.config;
        let explorer = ExplorerProcess {
            index: i,
            endpoint: self.broker.endpoint(ProcessId::explorer(i)),
            env: build_env(&c.env, u64::from(i), None, None).expect("cartpole builds"),
            agent: build_agent(&c.algorithm, 4, 2, EXPLORERS, c.rollout_len, c.seed, i),
            rollout_len: c.rollout_len,
            route: RolloutRoute::Fixed(ProcessId::learner(0)),
            sync: SyncMode::OffPolicy,
            probe: None,
        };
        std::thread::spawn(move || explorer.run())
    }

    fn shutdown(&self, dst: Vec<ProcessId>) {
        self.control.send_to(dst, MessageKind::Control, Bytes::from(ControlCommand::Shutdown.to_bytes()));
    }

    fn counter(&self, name: &str) -> u64 {
        self.broker.telemetry().counter(name).get()
    }
}

/// Waits until every explorer has delivered at least `per_explorer`
/// rollouts to the learner behind `arrivals`.
fn await_arrivals(arrivals: &Receiver<u32>, per_explorer: usize) {
    let mut seen = vec![0usize; EXPLORERS as usize];
    let deadline = Instant::now() + DEADLINE;
    while seen.iter().any(|&n| n < per_explorer) {
        let left = deadline.saturating_duration_since(Instant::now());
        let e = arrivals
            .recv_timeout(left)
            .unwrap_or_else(|_| panic!("explorers stalled: arrivals so far {seen:?}"));
        seen[e as usize] += 1;
    }
}

#[test]
fn explorers_hold_one_uncredited_rollout_and_resume_after_learner_respawn() {
    let rig = Rig::new();
    let crash = ProcessProbe::armed(ProcessId::learner(0), KillTrigger::AfterSteps(CRASH_AFTER), None);
    let (learner, arrivals) = rig.spawn_learner(Some(crash));
    let explorers: Vec<_> = (0..EXPLORERS).map(|i| rig.spawn_explorer(i)).collect();

    // Learner-bound steady state: four unpaced explorers feed one learner.
    await_arrivals(&arrivals, STEADY);
    // A lease may lapse if the learner thread stalls past it on a loaded
    // host; each lapse lets exactly one rollout out early. Read violations
    // first: every lapse behind them has been counted by then.
    let violations = rig.violations.load(Ordering::Relaxed);
    let lapsed = rig.counter("explorer.credit_leases_lapsed");
    assert!(
        violations <= lapsed as usize,
        "{violations} rollouts arrived while their explorer's previous one was still untrained, \
         but only {lapsed} credit leases lapsed"
    );
    assert!(
        rig.counter("explorer.backpressure_waits") > 0,
        "the explorers never waited on a credit: the run was not learner-bound"
    );
    // At most one rollout body per explorer was ever resident in the store.
    let body = rig.max_body.load(Ordering::Relaxed);
    let peak = rig.broker.store().peak_data_bytes();
    assert!(
        peak <= EXPLORERS as usize * body,
        "peak rollout residency {peak} B exceeds {EXPLORERS} x {body} B bodies"
    );

    // The learner crashes after a session, before that session's credit is
    // sent, and its endpoint drops whatever else it held: those credits
    // never come. The explorers must not stay parked on them.
    assert!(learner.join().is_err(), "the fault probe crashes the learner");
    let (respawned, arrivals) = rig.spawn_learner(None);
    await_arrivals(&arrivals, 3);
    assert!(rig.counter("explorer.credit_leases_lapsed") > 0, "recovery went through a lapsed lease");

    rig.shutdown((0..EXPLORERS).map(ProcessId::explorer).chain([ProcessId::learner(0)]).collect());
    for e in explorers {
        assert!(e.join().expect("explorer exits cleanly").batches_sent > STEADY as u64);
    }
    assert!(respawned.join().expect("respawned learner exits cleanly").train_sessions > 0);
    drop(rig.control);
    rig.broker.shutdown();
}
