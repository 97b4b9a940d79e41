//! Unit-level tests of the explorer and learner process loops, driven with
//! scripted agents/algorithms over a real channel.

use bytes::Bytes;
use netsim::Cluster;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;
use xingtian::assignment::AssignmentTable;
use xingtian::config::AllreduceMode;
use xingtian::controller::ControllerProcess;
use xingtian::explorer::{ExplorerProcess, RolloutRoute};
use xingtian::learner::LearnerProcess;
use xingtian::messages::ControlCommand;
use xingtian::shard::LearnerShardProcess;
use xingtian_algos::api::{ActionSelection, Agent, Algorithm, SyncMode, TrainReport};
use xingtian_algos::payload::{ParamBlob, RolloutBatch};
use xingtian_comm::credit::LEASE;
use xingtian_comm::{Broker, CommConfig, CreditLedger};
use xingtian_message::codec::Encode;
use xingtian_message::{MessageKind, ProcessId};

/// An agent that always picks action 0 and tracks applied parameter versions.
struct ScriptedAgent {
    version: u64,
}

impl Agent for ScriptedAgent {
    fn act(&mut self, _observation: &[f32]) -> ActionSelection {
        ActionSelection { action: 0, logits: vec![0.0, 0.0], value: 0.0 }
    }

    fn apply_params(&mut self, blob: &ParamBlob) {
        if blob.version > self.version {
            self.version = blob.version;
        }
    }

    fn param_version(&self) -> u64 {
        self.version
    }
}

/// An algorithm that counts consumed batches and replies to the source.
struct CountingAlgorithm {
    queued: Vec<RolloutBatch>,
    version: u64,
    consumed: Arc<AtomicUsize>,
    sync: SyncMode,
}

impl Algorithm for CountingAlgorithm {
    fn on_rollout(&mut self, batch: RolloutBatch) {
        self.queued.push(batch);
    }

    fn try_train(&mut self) -> Option<TrainReport> {
        let batch = self.queued.pop()?;
        self.version += 1;
        self.consumed.fetch_add(batch.len(), Ordering::Relaxed);
        Some(TrainReport {
            steps_consumed: batch.len(),
            loss: 0.0,
            version: self.version,
            notify: vec![batch.explorer],
        })
    }

    fn param_blob(&self) -> ParamBlob {
        ParamBlob { version: self.version, params: vec![0.5; 4] }
    }

    fn load_params(&mut self, _params: &[f32]) {}

    fn version(&self) -> u64 {
        self.version
    }

    fn sync_mode(&self) -> SyncMode {
        self.sync
    }

    fn name(&self) -> &str {
        "counting"
    }
}

#[test]
fn explorer_learner_pair_round_trips_until_shutdown() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner_ep = broker.endpoint(ProcessId::learner(0));
    let explorer_ep = broker.endpoint(ProcessId::explorer(0));
    let controller_ep = broker.endpoint(ProcessId::controller(0));
    let consumed = Arc::new(AtomicUsize::new(0));

    let learner = LearnerProcess {
        endpoint: learner_ep,
        algorithm: Box::new(CountingAlgorithm {
            queued: Vec::new(),
            version: 0,
            consumed: Arc::clone(&consumed),
            sync: SyncMode::OffPolicy,
        }),
        checkpointer: None,
        probe: None,
        param_compression: xingtian_comm::ParamCompression::default(),
    };
    let learner_thread = std::thread::spawn(move || learner.run());

    let explorer = ExplorerProcess {
        index: 0,
        endpoint: explorer_ep,
        env: Box::new(gymlite::CartPole::new(0)),
        agent: Box::new(ScriptedAgent { version: 0 }),
        rollout_len: 25,
        route: RolloutRoute::Fixed(ProcessId::learner(0)),
        sync: SyncMode::OffPolicy,
        probe: None,
    };
    let explorer_thread = std::thread::spawn(move || explorer.run());

    // The controller stops the run once the learner reports 500 steps.
    let outcome = ControllerProcess {
        endpoint: controller_ep,
        goal_steps: 500,
        max_duration: Duration::from_secs(30),
        num_explorers: 1,
        num_learner_shards: 1,
    }
    .run();
    assert!(outcome.goal_reached, "goal should be reached well before the deadline");

    let learner_outcome = learner_thread.join().unwrap();
    let explorer_outcome = explorer_thread.join().unwrap();
    assert!(learner_outcome.steps_consumed >= 500);
    assert_eq!(learner_outcome.steps_consumed as usize, consumed.load(Ordering::Relaxed));
    assert!(explorer_outcome.batches_sent >= 20, "25-step batches toward a 500-step goal");
    assert!(explorer_outcome.tracker.total_steps() >= 500);
    broker.shutdown();
}

#[test]
fn on_policy_explorer_waits_for_fresh_parameters() {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner_ep = broker.endpoint(ProcessId::learner(0));
    let explorer_ep = broker.endpoint(ProcessId::explorer(0));

    let explorer = ExplorerProcess {
        index: 0,
        endpoint: explorer_ep,
        env: Box::new(gymlite::CartPole::new(1)),
        agent: Box::new(ScriptedAgent { version: 0 }),
        rollout_len: 10,
        route: RolloutRoute::Fixed(ProcessId::learner(0)),
        sync: SyncMode::OnPolicy,
        probe: None,
    };
    let explorer_thread = std::thread::spawn(move || explorer.run());

    // Exactly one batch arrives, then the explorer blocks on parameters.
    // The batch is credited at once, so only the on-policy gate, not the
    // credit window, can hold the next one back.
    let first = learner_ep.recv_timeout(Duration::from_secs(10)).expect("first batch");
    assert_eq!(first.header.kind, MessageKind::Rollout);
    let mut credits = CreditLedger::new();
    credits.on_rollout(&first.header);
    credits.flush(&learner_ep);
    assert!(
        learner_ep.recv_timeout(Duration::from_millis(300)).is_none(),
        "on-policy gate must hold without new parameters"
    );

    // Fresh parameters release the gate for exactly one more batch.
    let blob = ParamBlob { version: 1, params: vec![0.0; 4] };
    learner_ep.send_to(vec![ProcessId::explorer(0)], MessageKind::Parameters, Bytes::from(blob.to_bytes()));
    let released = std::iter::from_fn(|| learner_ep.recv_timeout(Duration::from_secs(10)))
        .find(|m| m.header.kind == MessageKind::Rollout);
    assert!(released.is_some(), "gate released by the broadcast");

    // Shutdown ends the explorer even while it is gated.
    learner_ep.send_to(
        vec![ProcessId::explorer(0)],
        MessageKind::Control,
        Bytes::from(ControlCommand::Shutdown.to_bytes()),
    );
    let outcome = explorer_thread.join().unwrap();
    assert!(outcome.batches_sent >= 2);
    drop(learner_ep);
    broker.shutdown();
}

#[test]
fn explorer_flow_control_caps_the_send_backlog() {
    // No learner consumes, so no credit ever comes back: the explorer must
    // hold instead of running ahead into the store.
    let broker = Broker::new(0, Cluster::single(), CommConfig::uncompressed());
    // A learner endpoint exists (so routing works) but never receives.
    let learner_ep = broker.endpoint(ProcessId::learner(0));
    let explorer_ep = broker.endpoint(ProcessId::explorer(0));

    // Atari observations make batches big enough to fill the 128 MiB store.
    let env = gymlite::SynthAtari::with_config(
        gymlite::AtariGame::Qbert.config().with_obs_dim(84 * 84).with_step_latency_us(0),
        0,
    );
    let explorer = ExplorerProcess {
        index: 0,
        endpoint: explorer_ep,
        env: Box::new(env),
        agent: Box::new(ScriptedAgent { version: 0 }),
        rollout_len: 500,
        route: RolloutRoute::Fixed(ProcessId::learner(0)),
        sync: SyncMode::OffPolicy,
        probe: None,
    };
    let explorer_thread = std::thread::spawn(move || explorer.run());

    // Give it time to run far ahead if flow control were broken (an
    // unbounded pipeline generates roughly 10 batches/s here).
    std::thread::sleep(Duration::from_secs(8));
    learner_ep.send_to(
        vec![ProcessId::explorer(0)],
        MessageKind::Control,
        Bytes::from(ControlCommand::Shutdown.to_bytes()),
    );
    // "Kill" the wedged learner: closing its endpoint drains the credits it
    // was sitting on, releasing any sender blocked on the full store so the
    // explorer can shut down cleanly.
    drop(learner_ep);
    let outcome = explorer_thread.join().unwrap();
    // One uncredited rollout, plus at most one more per lapsed lease; allow
    // slack for the rollout in hand at shutdown.
    let ceiling = 1 + (8.0 / LEASE.as_secs_f64()) as u64 + 2;
    assert!(
        outcome.batches_sent <= ceiling,
        "explorer ran ahead: {} batches (ceiling {ceiling})",
        outcome.batches_sent
    );
    broker.shutdown();
}

/// An algorithm that owes `debt` sessions from the start, as a DQN learner
/// does once its explorers outrun it. Its first session reports that it
/// started and then holds until the test releases it.
struct IndebtedAlgorithm {
    debt: usize,
    version: u64,
    started: Sender<()>,
    release: Receiver<()>,
}

impl Algorithm for IndebtedAlgorithm {
    fn on_rollout(&mut self, _batch: RolloutBatch) {}

    fn try_train(&mut self) -> Option<TrainReport> {
        if self.debt == 0 {
            return None;
        }
        if self.version == 0 {
            self.started.send(()).unwrap();
            self.release.recv().unwrap();
        }
        self.debt -= 1;
        self.version += 1;
        Some(TrainReport { steps_consumed: 1, loss: 0.0, version: self.version, notify: vec![] })
    }

    fn param_blob(&self) -> ParamBlob {
        ParamBlob { version: self.version, params: vec![0.5; 4] }
    }

    fn load_params(&mut self, _params: &[f32]) {}

    fn version(&self) -> u64 {
        self.version
    }

    fn sync_mode(&self) -> SyncMode {
        SyncMode::OffPolicy
    }

    fn name(&self) -> &str {
        "indebted"
    }
}

#[test]
fn relaxed_shard_sees_shutdown_while_it_owes_sessions() {
    const DEBT: usize = 10_000;
    // One router shard (the default) routes in submission order.
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let shard_ep = broker.endpoint(ProcessId::learner(0));
    let controller_ep = broker.endpoint(ProcessId::controller(0));
    let marker_ep = broker.endpoint(ProcessId::explorer(0));
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let shard = LearnerShardProcess {
        shard: 0,
        endpoint: shard_ep,
        algorithm: Box::new(IndebtedAlgorithm {
            debt: DEBT,
            version: 0,
            started: started_tx,
            release: release_rx,
        }),
        table: Arc::new(AssignmentTable::contiguous(1, 1)),
        mode: AllreduceMode::Relaxed,
        checkpointer: None,
        probe: None,
        param_compression: xingtian_comm::ParamCompression::default(),
    };
    let shard_thread = std::thread::spawn(move || shard.run());
    let shutdown = || Bytes::from(ControlCommand::Shutdown.to_bytes());

    // Any message wakes a loop that blocks for its first one.
    controller_ep.send_to(vec![ProcessId::learner(0)], MessageKind::Stats, Bytes::from_static(b"wake"));
    started_rx.recv().unwrap();
    // Shutdown goes out while the first session runs, followed by a marker to
    // another endpoint: once the marker arrives, Shutdown is queued at the
    // shard.
    controller_ep.send_to(vec![ProcessId::learner(0)], MessageKind::Control, shutdown());
    controller_ep.send_to(vec![ProcessId::explorer(0)], MessageKind::Control, shutdown());
    marker_ep.recv().expect("marker delivered");
    release_tx.send(()).unwrap();

    let outcome = shard_thread.join().unwrap();
    assert_eq!(
        outcome.train_sessions, 1,
        "the shard must read the queued Shutdown before its next session, not after its whole debt"
    );
    broker.shutdown();
}
