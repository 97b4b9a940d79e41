//! Supervised deployments: failure detection and process recovery.
//!
//! [`Deployment::run`] assumes every process survives to shutdown; a single
//! explorer panic aborts the whole run. This module adds the fault-tolerance
//! layer the paper attributes to the framework (§4.2): a supervisor thread
//! owns every workhorse `JoinHandle`, a broker-level heartbeat stream feeds
//! an [`xt_fault::FailureDetector`], and dead processes are respawned onto
//! fresh endpoints whose routes propagate live through the broker fabric.
//!
//! Division of authority, deliberately split:
//!
//! * the **detector** is advisory — it watches heartbeat silence and publishes
//!   liveness transitions to telemetry. Silence can mean a dead process *or* a
//!   severed link; the two are indistinguishable from the monitor's chair.
//! * the **supervisor** respawns only on proof of death: a `JoinHandle` that
//!   joins with `Err` (the thread panicked and fully unwound, so its endpoint
//!   is deregistered). Respawning a merely-partitioned process would register
//!   a duplicate endpoint and corrupt routing. The respawn itself additionally
//!   waits for the detector to confirm the death, so recovery provably flows
//!   injection → detection → recovery and telemetry always shows the
//!   `ProcessDown` before the respawned process's `ProcessUp`.
//!
//! Recovery paths:
//!
//! * **Explorer death** — respawn with a fresh endpoint (same `ProcessId`,
//!   new generation seed). Registration re-propagates the route to every
//!   peer broker, so cross-machine senders recover automatically. Budget
//!   exhausted → degrade: training continues on the survivors.
//! * **Learner death** — rebuild the algorithm, restore parameters from the
//!   newest restorable checkpoint ([`crate::checkpoint::load_latest`] falls
//!   back through versioned files), respawn. Rollouts buffered for the dead
//!   incarnation are consumed by the new one; batches staler than the
//!   restored parameters are ordinary off-policy data, and spent batches are
//!   shed through `Algorithm::take_spent` recycling as usual.

use crate::assignment::AssignmentTable;
use crate::checkpoint::load_latest;
use crate::config::DeploymentConfig;
use crate::controller::{ControllerOutcome, ControllerProcess};
use crate::deployment::{
    build_agent, build_algorithm, build_algorithm_with_replay, build_env, build_replay_plane,
    spawn_process, DeployError,
};
use crate::elastic::{ElasticConfig, ElasticController, ElasticDecision};
use crate::explorer::{ExplorerOutcome, ExplorerProcess, RolloutRoute};
use crate::learner::{LearnerOutcome, LearnerProcess};
use crate::shard::LearnerShardProcess;
use crate::stats::{ReplayReport, RunReport};
use crate::Deployment;
use bytes::Bytes;
use netsim::Cluster;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xingtian_comm::{connect_brokers, Broker, Endpoint};
use xingtian_message::codec::Encode;
use xingtian_message::{MessageKind, ProcessId, ProcessRole};
use xt_fault::{DetectorConfig, FailureDetector, FaultPlan, LivenessTransition};

/// The failure detector's inbox. Broker-role endpoints do not beacon, so the
/// monitor watches everyone without watching itself; the index keeps it clear
/// of real broker-facing ids.
pub const MONITOR: ProcessId = ProcessId { role: ProcessRole::Broker, index: u32::MAX };

/// Supervision policy for [`Deployment::run_supervised`].
#[derive(Debug, Clone)]
pub struct SupervisionConfig {
    /// Heartbeat beacon period for every endpoint (milliseconds).
    pub heartbeat_interval_ms: u64,
    /// Failure-detector tuning. Defaults match `heartbeat_interval_ms`.
    pub detector: DetectorConfig,
    /// How many times one explorer may be respawned before the deployment
    /// degrades to running without it.
    pub max_respawns_per_explorer: u32,
    /// How many times the learner may be restored from checkpoint.
    pub max_learner_restores: u32,
    /// Supervisor poll period (milliseconds): heartbeat drain, detector
    /// sweep, and join-handle reaping happen once per tick.
    pub poll_interval_ms: u64,
    /// Monitor heartbeat-sink shards. Every beacon hashes onto one of this
    /// many monitor endpoints (stable per sender, so inter-arrival stays
    /// meaningful), letting the heartbeat fan-in scale past one inbox at
    /// 1K+ explorers.
    pub monitor_shards: u32,
    /// Elastic explorer-pool policy (`None` = the pool stays at the
    /// configured size).
    pub elastic: Option<ElasticConfig>,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig::with_heartbeat_interval_ms(20)
    }
}

impl SupervisionConfig {
    /// A policy built around a heartbeat period, with the detector timeout
    /// derived from it.
    pub fn with_heartbeat_interval_ms(interval_ms: u64) -> Self {
        SupervisionConfig {
            heartbeat_interval_ms: interval_ms,
            detector: DetectorConfig::for_interval_ms(interval_ms),
            max_respawns_per_explorer: 2,
            max_learner_restores: 2,
            poll_interval_ms: (interval_ms / 4).max(1),
            monitor_shards: 1,
            elastic: None,
        }
    }

    /// Shards the monitor heartbeat sink (builder style; clamped to ≥ 1).
    pub fn with_monitor_shards(mut self, shards: u32) -> Self {
        self.monitor_shards = shards.max(1);
        self
    }

    /// Enables the elastic explorer pool (builder style).
    pub fn with_elastic(mut self, elastic: ElasticConfig) -> Self {
        self.elastic = Some(elastic);
        self
    }
}

/// What the supervisor did over one run, alongside the usual [`RunReport`].
#[derive(Debug)]
pub struct RecoveryReport {
    /// Indices of explorers that were respawned, in respawn order (an index
    /// appears once per respawn).
    pub explorer_respawns: Vec<u32>,
    /// How many times a learner (any shard) was restored from checkpoint.
    pub learner_restores: u32,
    /// Restore count per learner shard, in shard order (length 1 for the
    /// classic single-learner deployment).
    pub learner_shard_restores: Vec<u32>,
    /// Parameter version of the last checkpoint a learner restore loaded.
    pub restored_param_version: Option<u64>,
    /// Liveness transitions the failure detector published, in order.
    pub transitions: Vec<LivenessTransition>,
    /// Processes still considered down when the run ended (degraded
    /// explorers, or partitioned processes whose beats never resumed).
    pub down_at_exit: Vec<ProcessId>,
    /// Objects left in the brokers' stores after every process exited —
    /// anything nonzero is a leak.
    pub leaked_objects: usize,
    /// Replay-arena slots whose write never completed when the run ended
    /// (always 0 for in-learner replay) — anything nonzero is a torn ingest
    /// left behind by a crash.
    pub dangling_replay_slots: usize,
    /// Explorers the elastic mode spawned beyond the configured pool (0 when
    /// elastic supervision is off).
    pub elastic_spawns: u32,
    /// Elastic explorers retired after the backpressure signal cleared.
    pub elastic_retires: u32,
    /// Largest explorer-pool size reached (the configured count when elastic
    /// supervision is off).
    pub peak_explorer_pool: u32,
}

impl RecoveryReport {
    /// The liveness transitions of learner shards only.
    pub fn learner_transitions(&self) -> Vec<LivenessTransition> {
        self.transitions.iter().filter(|t| t.pid.role == ProcessRole::Learner).copied().collect()
    }

    /// The liveness transitions of explorers only.
    pub fn explorer_transitions(&self) -> Vec<LivenessTransition> {
        self.transitions.iter().filter(|t| t.pid.role == ProcessRole::Explorer).copied().collect()
    }
}

/// Handles and bookkeeping for one supervised explorer slot.
struct ExplorerSlot {
    handle: Option<JoinHandle<ExplorerOutcome>>,
    respawns: u32,
    /// Outcomes of every finished incarnation (episode stats accumulate
    /// across respawns).
    outcomes: Vec<ExplorerOutcome>,
    /// Death is proven (joined `Err`) but the respawn waits for the failure
    /// detector to publish the matching `ProcessDown` first.
    awaiting_detection: bool,
    /// The elastic controller retired this explorer: a targeted shutdown is
    /// in flight and the slot must not be respawned.
    retired: bool,
}

/// Handles and bookkeeping for one supervised learner shard (the classic
/// deployment is the one-shard case).
struct LearnerSlot {
    handle: Option<JoinHandle<LearnerOutcome>>,
    restores: u32,
    awaiting_detection: bool,
    /// Outcome of the most recent finished incarnation (final parameters and
    /// timeline come from here).
    last_outcome: Option<LearnerOutcome>,
}

impl Deployment {
    /// Runs `config` under supervision: heartbeat-driven failure detection,
    /// panic recovery with respawn, and fault injection from `plan`.
    ///
    /// Pass [`FaultPlan::seeded`] with no faults for plain supervised
    /// operation, or a populated plan for a chaos run — the plan's link
    /// schedule runs on the cluster's virtual clock, its route rules are
    /// installed on every broker, and its kill switches are armed inside the
    /// matching processes.
    ///
    /// # Errors
    ///
    /// Returns [`DeployError`] if the configuration is invalid, a process
    /// cannot be (re)spawned, or the controller itself dies.
    pub fn run_supervised(
        config: DeploymentConfig,
        supervision: SupervisionConfig,
        plan: FaultPlan,
        telemetry: xt_telemetry::Telemetry,
    ) -> Result<(RunReport, RecoveryReport), DeployError> {
        config.validate().map_err(DeployError::new)?;
        let dims = build_env(&config.env, 0, config.obs_dim_override, config.step_latency_us)
            .map_err(DeployError::new)?;
        let obs_dim = dims.observation_dim();
        let num_actions = dims.num_actions();
        drop(dims);
        let num_explorers = config.total_explorers();

        let cluster = Cluster::new(config.cluster.clone());
        let comm = config
            .comm
            .clone()
            .with_heartbeat(supervision.heartbeat_interval_ms, MONITOR)
            .with_monitor_shards(supervision.monitor_shards);
        let brokers: Vec<Broker> = (0..cluster.len())
            .map(|m| Broker::with_telemetry(m, cluster.clone(), comm.clone(), telemetry.clone()))
            .collect();
        connect_brokers(&brokers);

        // Every monitor-shard endpoint must exist before any beaconing
        // endpoint: the very first heartbeat fires at endpoint spawn and
        // needs a route. Beacons hash onto shards per sender pid.
        let monitor_eps: Vec<Endpoint> = comm
            .heartbeat
            .expect("heartbeat configured above")
            .monitor_pids()
            .into_iter()
            .map(|pid| brokers[config.learner_machine].endpoint(pid))
            .collect();
        let drain_monitors = |detector: &FailureDetector| {
            for ep in &monitor_eps {
                while let Some(msg) = ep.try_recv() {
                    detector.observe_message(&msg.header);
                }
            }
        };
        plan.install(&cluster, &brokers);

        let shards = config.learner_shards as u32;
        let detector = FailureDetector::new(supervision.detector, telemetry.clone());
        detector.watch_many(
            (0..shards.max(1))
                .map(ProcessId::learner)
                .chain((0..num_explorers).map(ProcessId::explorer)),
        );

        // Store-resident replay: the shard service lives beside the learner's
        // broker and outlives learner incarnations — experience survives a
        // learner crash. Its endpoint beacons like every other, so the
        // detector auto-registers it on the first heartbeat.
        let plane = build_replay_plane(&config, obs_dim, &telemetry);
        let replay_service = match &plane {
            Some(plane) => {
                let ep = brokers[config.learner_machine].endpoint(ProcessId::replay(0));
                let stop = Arc::new(AtomicBool::new(false));
                let (plane, stop2) = (plane.clone(), stop.clone());
                let handle = spawn_process("xt-replay-0".into(), move || {
                    xt_replay::run_replay_service(ep, plane, ProcessId::learner(0), stop2)
                })?;
                Some((stop, handle))
            }
            None => None,
        };
        // Rollouts follow the live assignment table when learners are
        // sharded: the destination is resolved per batch, so a rebalance or
        // a shard respawn redirects traffic without restarting explorers.
        let table = Arc::new(AssignmentTable::contiguous(num_explorers, shards.max(1)));
        let route = if plane.is_some() {
            RolloutRoute::Fixed(ProcessId::replay(0))
        } else if shards > 1 {
            RolloutRoute::Assigned(table.clone())
        } else {
            RolloutRoute::Fixed(ProcessId::learner(0))
        };

        // Algorithm replica for one learner shard. Sharded replicas are all
        // seeded identically (the sync allreduce requires identical initial
        // parameters) and sized to the explorer slice they own.
        let build_shard_algorithm = |shard: u32| -> Box<dyn xingtian_algos::api::Algorithm> {
            let mut algorithm = if shards > 1 {
                build_algorithm(
                    &config.algorithm,
                    obs_dim,
                    num_actions,
                    table.owned(shard).len() as u32,
                    config.rollout_len,
                    config.seed,
                )
            } else {
                build_algorithm_with_replay(
                    &config.algorithm,
                    obs_dim,
                    num_actions,
                    num_explorers,
                    config.rollout_len,
                    config.seed,
                    plane.as_ref(),
                )
            };
            if let Some(params) = &config.initial_params {
                algorithm.load_params(params);
            }
            algorithm
        };
        let mut initial_algorithms: Vec<Box<dyn xingtian_algos::api::Algorithm>> =
            (0..shards.max(1)).map(build_shard_algorithm).collect();
        let sync = initial_algorithms[0].sync_mode();
        let algo_name = initial_algorithms[0].name().to_string();
        let start = Instant::now();

        let spawn_learner = |shard: u32,
                             algorithm: Box<dyn xingtian_algos::api::Algorithm>,
                             endpoint: Endpoint,
                             probe: Option<xt_fault::ProcessProbe>|
         -> Result<JoinHandle<LearnerOutcome>, DeployError> {
            let ckpt_config = config.checkpoint.clone().map(|mut c| {
                if shards > 1 {
                    c.dir = c.dir.join(format!("shard{shard}"));
                }
                c
            });
            let checkpointer = match ckpt_config {
                Some(c) => Some(
                    crate::checkpoint::Checkpointer::new(c)
                        .map_err(|e| DeployError::new(format!("cannot set up checkpoints: {e}")))?,
                ),
                None => None,
            };
            let param_compression = config.comm.param_compression;
            if shards > 1 {
                let (table, mode) = (table.clone(), config.allreduce);
                spawn_process(format!("xt-learner-{shard}"), move || {
                    LearnerShardProcess {
                        shard,
                        endpoint,
                        algorithm,
                        table,
                        mode,
                        checkpointer,
                        probe,
                        param_compression,
                    }
                    .run()
                })
            } else {
                spawn_process("xt-learner".into(), move || {
                    LearnerProcess { endpoint, algorithm, checkpointer, probe, param_compression }
                        .run()
                })
            }
        };
        let spawn_explorer = |i: u32,
                              generation: u32,
                              endpoint: Endpoint,
                              probe: Option<xt_fault::ProcessProbe>|
         -> Result<JoinHandle<ExplorerOutcome>, DeployError> {
            // Each incarnation explores from a distinct seed so a respawned
            // explorer does not re-walk its predecessor's exact trajectory.
            let seed = config
                .seed
                .wrapping_mul(1000)
                .wrapping_add(u64::from(i))
                .wrapping_add(u64::from(generation).wrapping_mul(0x9E37_79B9));
            let env = build_env(&config.env, seed, config.obs_dim_override, config.step_latency_us)
                .map_err(DeployError::new)?;
            let agent = build_agent(
                &config.algorithm,
                obs_dim,
                num_actions,
                num_explorers,
                config.rollout_len,
                config.seed,
                i,
            );
            let rollout_len = config.rollout_len;
            let route = route.clone();
            spawn_process(format!("xt-explorer-{i}"), move || {
                ExplorerProcess {
                    index: i,
                    endpoint,
                    env,
                    agent,
                    rollout_len,
                    route,
                    sync,
                    probe,
                }
                .run()
            })
        };

        let mut learner_slots: Vec<LearnerSlot> = Vec::with_capacity(shards.max(1) as usize);
        let mut rollout_latency_src = None;
        for (s, algorithm) in initial_algorithms.drain(..).enumerate() {
            let s = s as u32;
            let endpoint = brokers[config.learner_machine].endpoint(ProcessId::learner(s));
            if s == 0 {
                rollout_latency_src = Some(endpoint.delivery_stats_arc());
            }
            let probe = Some(plan.probe_for(ProcessId::learner(s), Some(cluster.time_source())));
            learner_slots.push(LearnerSlot {
                handle: Some(spawn_learner(s, algorithm, endpoint, probe)?),
                restores: 0,
                awaiting_detection: false,
                last_outcome: None,
            });
        }
        let mut rollout_latency_src = rollout_latency_src.expect("at least one learner shard");

        // Elastic explorers have indices beyond the configured placement
        // table; they round-robin over the cluster's machines instead.
        let machine_of = |i: u32| -> usize {
            if i < num_explorers {
                config.explorer_machine(i)
            } else {
                i as usize % cluster.len()
            }
        };

        let mut slots: Vec<ExplorerSlot> = Vec::with_capacity(num_explorers as usize);
        for i in 0..num_explorers {
            let endpoint = brokers[machine_of(i)].endpoint(ProcessId::explorer(i));
            let probe = Some(plan.probe_for(ProcessId::explorer(i), Some(cluster.time_source())));
            slots.push(ExplorerSlot {
                handle: Some(spawn_explorer(i, 0, endpoint, probe)?),
                respawns: 0,
                outcomes: Vec::new(),
                awaiting_detection: false,
                retired: false,
            });
        }

        let controller_ep = brokers[config.learner_machine].endpoint(ProcessId::controller(0));
        let controller_handle = spawn_process("xt-controller".into(), move || {
            ControllerProcess {
                endpoint: controller_ep,
                goal_steps: config.goal_steps,
                max_duration: Duration::from_secs_f64(config.max_seconds),
                num_explorers,
                num_learner_shards: shards.max(1),
            }
            .run()
        })?;

        // Learner-incarnation accumulators (summed across shards and
        // restores; the timeline and final parameters come from each slot's
        // last incarnation).
        let mut steps_consumed = 0u64;
        let mut train_sessions = 0u64;
        let mut train_time = Duration::ZERO;
        let mut explorer_respawns: Vec<u32> = Vec::new();
        let mut learner_restores = 0u32;
        let mut restored_param_version: Option<u64> = None;

        // Elastic pool state: the controller tracks intent; `slots` beyond
        // `num_explorers` are the elastic incarnations it materialized.
        let mut elastic =
            supervision.elastic.clone().map(|cfg| ElasticController::new(cfg, num_explorers));
        let mut elastic_spawns = 0u32;
        let mut elastic_retires = 0u32;
        let mut peak_explorer_pool = num_explorers;
        // Retired explorers keep beaconing until their targeted shutdown
        // lands, and `observe` auto-registers unknown pids — so a retiree's
        // trailing beats would re-enter the detector after the reap's
        // `forget` and later sweep to a spurious Down. Re-forgetting every
        // tick keeps them out for good.
        let mut retired_pids: Vec<ProcessId> = Vec::new();

        // ---- Supervision loop -------------------------------------------
        let poll = Duration::from_millis(supervision.poll_interval_ms.max(1));
        // Set once the controller has ended the run: supervision then only
        // finishes recoveries already under way, until this deadline.
        let mut winding_down: Option<Instant> = None;
        loop {
            // 1. Feed the detector: drain every monitor shard, sweep for
            // silence.
            drain_monitors(&detector);
            for &pid in &retired_pids {
                detector.forget(pid);
            }
            detector.sweep();

            // 2. Reap dead explorers. `Err` from join proves the thread
            // panicked and unwound — its endpoint is deregistered, so the
            // same ProcessId can re-register safely. The respawn itself is
            // deferred until the detector publishes the death.
            for (i, slot) in slots.iter_mut().enumerate() {
                let i_u32 = i as u32;
                let pid = ProcessId::explorer(i_u32);
                if slot.handle.as_ref().is_some_and(std::thread::JoinHandle::is_finished) {
                    let handle = slot.handle.take().expect("finished handle present");
                    match handle.join() {
                        Ok(outcome) => {
                            // Normal exit (shutdown reached it): keep the stats.
                            detector.forget(pid);
                            slot.outcomes.push(outcome);
                        }
                        Err(_) if winding_down.is_some() => {
                            eprintln!("supervisor: explorer {i_u32} panicked during shutdown");
                        }
                        Err(_)
                            if !slot.retired
                                && slot.respawns < supervision.max_respawns_per_explorer =>
                        {
                            slot.awaiting_detection = true;
                        }
                        Err(_) => {
                            eprintln!(
                                "supervisor: explorer {i_u32} out of respawn budget, degrading"
                            );
                        }
                    }
                }
                if slot.awaiting_detection
                    && detector.liveness(pid) == Some(xt_fault::Liveness::Down)
                {
                    slot.awaiting_detection = false;
                    slot.respawns += 1;
                    let generation = slot.respawns;
                    let endpoint = brokers[machine_of(i_u32)].endpoint(pid);
                    match spawn_explorer(i_u32, generation, endpoint, None) {
                        Ok(h) => {
                            explorer_respawns.push(i_u32);
                            slot.handle = Some(h);
                        }
                        Err(e) => {
                            eprintln!(
                                "supervisor: cannot respawn explorer {i_u32} (degrading): {e}"
                            );
                        }
                    }
                }
            }

            // 3. Reap dead learner shards: once the detector confirms a
            // death, restore that shard from its own checkpoint directory
            // and respawn it. Surviving shards keep training meanwhile; the
            // rejoiner re-enters the gradient exchange on its first send
            // (sync mode adopts a peer snapshot, relaxed mode just resumes
            // gossip within the skew bound).
            for (s, slot) in learner_slots.iter_mut().enumerate() {
                let s_u32 = s as u32;
                let pid = ProcessId::learner(s_u32);
                if slot.handle.as_ref().is_some_and(JoinHandle::is_finished) {
                    let handle = slot.handle.take().expect("finished handle present");
                    match handle.join() {
                        Ok(outcome) => {
                            detector.forget(pid);
                            steps_consumed += outcome.steps_consumed;
                            train_sessions += outcome.train_sessions;
                            train_time += outcome.train_time;
                            slot.last_outcome = Some(outcome);
                        }
                        Err(_) if winding_down.is_some() => {
                            return Err(DeployError::new(format!(
                                "learner shard {s_u32} panicked during shutdown"
                            )));
                        }
                        Err(_) if slot.restores < supervision.max_learner_restores => {
                            slot.awaiting_detection = true;
                        }
                        Err(_) => {
                            return Err(DeployError::new(format!(
                                "learner shard {s_u32} died and is out of restore budget"
                            )));
                        }
                    }
                }
                if slot.awaiting_detection
                    && detector.liveness(pid) == Some(xt_fault::Liveness::Down)
                {
                    slot.awaiting_detection = false;
                    slot.restores += 1;
                    learner_restores += 1;
                    // The rebuilt learner re-attaches to the surviving replay
                    // plane (classic path): everything ingested before the
                    // crash is still sampleable the moment the restore
                    // completes.
                    let mut algorithm = build_shard_algorithm(s_u32);
                    let ckpt_dir = config.checkpoint.as_ref().map(|c| {
                        if shards > 1 {
                            c.dir.join(format!("shard{s_u32}"))
                        } else {
                            c.dir.clone()
                        }
                    });
                    match ckpt_dir.map(|d| load_latest(&d)) {
                        Some(Ok(blob)) => {
                            restored_param_version = Some(blob.version);
                            algorithm.adopt_params(&blob.params, blob.version);
                        }
                        Some(Err(e)) => {
                            eprintln!(
                                "supervisor: learner shard {s_u32} restarting from scratch \
                                 (no restorable checkpoint: {e})"
                            );
                        }
                        None => {
                            eprintln!(
                                "supervisor: learner shard {s_u32} restarting from scratch \
                                 (checkpointing disabled)"
                            );
                        }
                    }
                    let endpoint = brokers[config.learner_machine].endpoint(pid);
                    if s_u32 == 0 {
                        rollout_latency_src = endpoint.delivery_stats_arc();
                    }
                    slot.handle = Some(spawn_learner(s_u32, algorithm, endpoint, None)?);
                }
            }

            // 4. Elastic pool control: fold the brokers' *data-plane* store
            // occupancy — the channel's in-flight backpressure signal — into
            // the watermark policy and execute its decision. Control-plane
            // traffic (parameter broadcasts, stats) bypasses the capacity
            // gate and is excluded, so a chatty learner cannot pin the
            // signal above the low watermark and stall the drain.
            if let Some(ctl) = elastic.as_mut().filter(|_| winding_down.is_none()) {
                let occupancy =
                    brokers.iter().map(|b| b.store().data_occupancy()).fold(0.0f64, f64::max);
                match ctl.decide(occupancy) {
                    ElasticDecision::Grow(n) => {
                        for _ in 0..n {
                            let i = slots.len() as u32;
                            let pid = ProcessId::explorer(i);
                            // Owner first, then endpoint, then spawn: the new
                            // explorer's first rollout must resolve an owner
                            // and its first heartbeat must find the detector
                            // already watching.
                            table.register(i);
                            detector.watch(pid);
                            let endpoint = brokers[machine_of(i)].endpoint(pid);
                            match spawn_explorer(i, 0, endpoint, None) {
                                Ok(h) => {
                                    elastic_spawns += 1;
                                    slots.push(ExplorerSlot {
                                        handle: Some(h),
                                        respawns: 0,
                                        outcomes: Vec::new(),
                                        awaiting_detection: false,
                                        retired: false,
                                    });
                                }
                                Err(e) => {
                                    detector.forget(pid);
                                    eprintln!("supervisor: cannot grow explorer pool: {e}");
                                }
                            }
                        }
                        peak_explorer_pool = peak_explorer_pool.max(slots.len() as u32);
                    }
                    ElasticDecision::Shrink(n) => {
                        // Retire the highest-index live elastic explorers
                        // with a targeted shutdown; the ordinary reap path
                        // joins them and forgets their pids.
                        let mut remaining = n;
                        for i in (num_explorers as usize..slots.len()).rev() {
                            if remaining == 0 {
                                break;
                            }
                            let slot = &mut slots[i];
                            if slot.retired || slot.handle.is_none() {
                                continue;
                            }
                            slot.retired = true;
                            elastic_retires += 1;
                            remaining -= 1;
                            retired_pids.push(ProcessId::explorer(i as u32));
                            monitor_eps[0].send_to(
                                vec![ProcessId::explorer(i as u32)],
                                MessageKind::Control,
                                Bytes::from(crate::messages::ControlCommand::Shutdown.to_bytes()),
                            );
                        }
                    }
                    ElasticDecision::Hold => {}
                }
            }

            // 5. The controller ending the run ends supervision, once the
            // recoveries already under way are through: a death proven during
            // the run is seen through to detection and respawn (the final
            // shutdown broadcast below reaches the respawned process), so the
            // report accounts for it even when the goal came first. A death
            // after that point is a shutdown panic and is not recovered.
            if controller_handle.is_finished() {
                let recovering = slots.iter().any(|s| s.awaiting_detection)
                    || learner_slots.iter().any(|s| s.awaiting_detection);
                let deadline = *winding_down.get_or_insert_with(|| {
                    Instant::now() + Duration::from_millis(4 * supervision.detector.base_timeout_ms)
                });
                if !recovering || Instant::now() >= deadline {
                    break;
                }
            }
            std::thread::sleep(poll);
        }

        let controller_outcome: ControllerOutcome = controller_handle
            .join()
            .map_err(|_| DeployError::new("controller thread panicked"))?;
        detector.forget(ProcessId::controller(0));

        // A process respawned *after* the controller broadcast shutdown never
        // saw the command; one more broadcast from the monitor endpoint
        // guarantees every live process gets it (shutdown is idempotent).
        // The broadcast covers the *peak* pool: elastic explorers have
        // indices beyond the count the controller knew about.
        let mut dst: Vec<ProcessId> = (0..slots.len() as u32).map(ProcessId::explorer).collect();
        dst.extend((0..shards.max(1)).map(ProcessId::learner));
        monitor_eps[0].send_to(
            dst,
            MessageKind::Control,
            Bytes::from(crate::messages::ControlCommand::Shutdown.to_bytes()),
        );

        // Final joins. Post-shutdown panics are possible (a probe can fire on
        // the last pulse before the command is handled) — they degrade, never
        // respawn.
        for (s, slot) in learner_slots.iter_mut().enumerate() {
            if let Some(handle) = slot.handle.take() {
                match handle.join() {
                    Ok(outcome) => {
                        steps_consumed += outcome.steps_consumed;
                        train_sessions += outcome.train_sessions;
                        train_time += outcome.train_time;
                        slot.last_outcome = Some(outcome);
                    }
                    Err(_) => {
                        return Err(DeployError::new(format!(
                            "learner shard {s} panicked during shutdown"
                        )));
                    }
                }
            }
        }
        for (i, slot) in slots.iter_mut().enumerate() {
            if let Some(handle) = slot.handle.take() {
                match handle.join() {
                    Ok(outcome) => slot.outcomes.push(outcome),
                    Err(_) => {
                        eprintln!("supervisor: explorer {i} panicked during shutdown");
                    }
                }
            }
        }

        // The replay service stops only after every producer and consumer has
        // joined: rollouts still in the channel get ingested, and the plane's
        // torn-write audit runs on the final state.
        let replay_summary = match replay_service {
            Some((stop, handle)) => {
                stop.store(true, Ordering::Release);
                let outcome = handle
                    .join()
                    .map_err(|_| DeployError::new("replay service thread panicked"))?;
                detector.forget(ProcessId::replay(0));
                let integrity =
                    plane.as_ref().expect("replay service implies a plane").integrity();
                Some((outcome, integrity))
            }
            None => None,
        };

        // Everything has exited; the stores should drain to empty as routers
        // finish in-flight work. Give them a bounded moment before declaring
        // leftovers a leak.
        let drain_deadline = Instant::now() + Duration::from_secs(2);
        let leaked_objects = loop {
            drain_monitors(&detector);
            let remaining: usize = brokers.iter().map(|b| b.store().len()).sum();
            if remaining == 0 || Instant::now() >= drain_deadline {
                break remaining;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        for &pid in &retired_pids {
            detector.forget(pid);
        }
        let down_at_exit = detector.down();
        let transitions = detector.transitions();
        for ep in &monitor_eps {
            ep.close();
        }
        let wall_time = start.elapsed();
        for b in &brokers {
            b.shutdown();
        }
        let dropped_messages: u64 = brokers.iter().map(Broker::dropped).sum();

        let mut episode_returns = Vec::new();
        for slot in &slots {
            for o in &slot.outcomes {
                episode_returns.extend_from_slice(o.tracker.returns());
            }
        }
        // A crashed learner incarnation takes its outcome down with it, but
        // every session it completed reported its steps to the controller:
        // the controller's tally then bounds the steps consumed from below
        // better than the surviving incarnations' outcomes do.
        let steps_consumed = steps_consumed.max(controller_outcome.learner_steps);

        let dangling_replay_slots =
            replay_summary.as_ref().map_or(0, |(_, integrity)| integrity.dangling_slots);
        let replay = replay_summary.map(|(outcome, integrity)| ReplayReport {
            batches_ingested: outcome.batches_ingested,
            steps_ingested: outcome.steps_ingested,
            sample_requests: outcome.sample_requests,
            resident: integrity.resident,
            dangling_slots: integrity.dangling_slots,
        });

        let learner_shard_params: Vec<Vec<f32>> = if shards > 1 {
            learner_slots
                .iter()
                .map(|s| {
                    s.last_outcome.as_ref().map(|o| o.final_params.clone()).unwrap_or_default()
                })
                .collect()
        } else {
            Vec::new()
        };
        let learner_shard_restores: Vec<u32> = learner_slots.iter().map(|s| s.restores).collect();
        let last = learner_slots[0]
            .last_outcome
            .take()
            .ok_or_else(|| DeployError::new("no learner incarnation completed"))?;
        let mean_train_time = if train_sessions > 0 {
            train_time / train_sessions as u32
        } else {
            Duration::ZERO
        };
        let report = RunReport {
            algorithm: algo_name,
            env: config.env.clone(),
            steps_consumed,
            wall_time,
            timeline: last.timeline,
            learner_wait: last.wait_stats,
            rollout_latency: rollout_latency_src,
            episode_returns,
            train_sessions,
            mean_train_time,
            final_params: last.final_params,
            learner_shard_params,
            replay,
            dropped_messages,
        };
        let recovery = RecoveryReport {
            explorer_respawns,
            learner_restores,
            learner_shard_restores,
            restored_param_version,
            transitions,
            down_at_exit,
            leaked_objects,
            dangling_replay_slots,
            elastic_spawns,
            elastic_retires,
            peak_explorer_pool,
        };
        Ok((report, recovery))
    }
}
