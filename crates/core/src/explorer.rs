//! The explorer process: environment interaction and rollout generation.
//!
//! An explorer owns one environment instance and one agent (the paper's
//! `Agent` class holding DNN copies). Its workhorse loop is fully
//! decentralized: it reacts to parameter messages whenever they arrive, steps
//! the environment otherwise, and pushes a rollout batch into its send buffer
//! the instant `rollout_len` steps have accumulated — the sender thread of the
//! endpoint takes it from there, so transmission overlaps the very next
//! environment step.
//!
//! Flow control is the consumer-credit window of
//! [`xingtian_comm::credit`]: the explorer builds rollout n+1 while rollout n
//! is in flight, and sends n+1 once n's consumer has credited it.

use crate::assignment::AssignmentTable;
use crate::messages::{ControlCommand, ParamAck, StatsMsg};
use crate::parameters::{IngestOutcome, ParamReceiver};
use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};
use gymlite::{Environment, EpisodeTracker};
use xingtian_algos::api::{Agent, SyncMode};
use xingtian_algos::payload::{RolloutBatch, RolloutStep};
use xingtian_comm::{CreditWindow, Endpoint};
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{CreditFrame, Header, Message, MessageKind, ProcessId};

/// How often a lapsed lease whose rollout is still in the send buffer is
/// looked at again.
const LEASE_RECHECK: Duration = Duration::from_millis(10);

/// Where an explorer's rollout batches go.
///
/// The classic deployments froze one [`ProcessId`] at build time; with
/// sharded learners the destination is re-read from the live
/// [`AssignmentTable`] before *every* send, so a rebalance (or a learner
/// shard respawning under supervision) redirects the very next batch without
/// restarting the explorer.
#[derive(Clone)]
pub enum RolloutRoute {
    /// Destination resolved once at deployment build (single learner, or the
    /// store-resident replay shard).
    Fixed(ProcessId),
    /// Destination looked up per batch in the shared assignment table.
    Assigned(Arc<AssignmentTable>),
}

impl RolloutRoute {
    /// The destination for `explorer`'s next batch.
    pub fn resolve(&self, explorer: u32) -> ProcessId {
        match self {
            RolloutRoute::Fixed(dst) => *dst,
            RolloutRoute::Assigned(table) => table.rollout_dst(explorer),
        }
    }
}

/// Configuration of one explorer process.
pub struct ExplorerProcess {
    /// Explorer index within the deployment.
    pub index: u32,
    /// Communication endpoint (`ProcessId::explorer(index)`).
    pub endpoint: Endpoint,
    /// The environment to interact with.
    pub env: Box<dyn Environment>,
    /// The agent choosing actions.
    pub agent: Box<dyn Agent>,
    /// Steps per rollout message.
    pub rollout_len: usize,
    /// Where rollout batches go: a fixed destination (classic), or the live
    /// assignment table (sharded learners).
    pub route: RolloutRoute,
    /// The deployment's synchronization discipline.
    pub sync: SyncMode,
    /// Fault-injection kill switch, pulsed once per environment step
    /// (`None` = not under chaos).
    pub probe: Option<xt_fault::ProcessProbe>,
}

/// What an explorer reports when it shuts down.
#[derive(Debug)]
pub struct ExplorerOutcome {
    /// Episode statistics gathered over the explorer's lifetime.
    pub tracker: EpisodeTracker,
    /// Rollout batches sent.
    pub batches_sent: u64,
}

impl ExplorerProcess {
    /// Runs the explorer until the controller broadcasts shutdown.
    pub fn run(mut self) -> ExplorerOutcome {
        let controller = ProcessId::controller(0);
        let mut tracker = EpisodeTracker::new(100);
        // Parameter-plane decoder: the current reconstruction, updated in
        // place from delta/quantized frames (or plain blobs).
        let mut params = ParamReceiver::new();
        let mut steps: Vec<RolloutStep> = Vec::with_capacity(self.rollout_len);
        let batches_counter = self.endpoint.telemetry().counter("explorer.batches_sent");
        let backpressure_counter = self.endpoint.telemetry().counter("explorer.backpressure_waits");
        let lease_counter = self.endpoint.telemetry().counter("explorer.credit_leases_lapsed");
        let infer_hist = self.endpoint.telemetry().histogram("learn.infer_ns");
        let mut window = CreditWindow::new();
        let mut batches_sent = 0u64;
        let mut steps_since_stats = 0u64;
        let mut returns_since_stats: Vec<f32> = Vec::new();
        let mut episodes_before = 0usize;
        let mut obs = self.env.reset();

        loop {
            // React to everything that has already arrived (parameters,
            // control commands) without blocking.
            while let Some(msg) = self.endpoint.try_recv() {
                if self.handle_message(&msg.header, &msg.body, &mut params, &mut window) {
                    return ExplorerOutcome { tracker, batches_sent };
                }
            }

            // Chaos hook: an armed probe panics here, mid-loop, exactly like
            // an organic crash would — the endpoint drops during unwind and
            // heartbeats stop.
            if let Some(probe) = &self.probe {
                probe.pulse();
            }

            let t_act = Instant::now();
            let selection = self.agent.act(&obs);
            infer_hist.record_duration(t_act.elapsed());
            let step = self.env.step(selection.action);
            tracker.record_step(step.reward, step.done);
            steps_since_stats += 1;
            if tracker.episodes() > episodes_before {
                returns_since_stats.extend_from_slice(&tracker.returns()[episodes_before..]);
                episodes_before = tracker.episodes();
            }
            steps.push(RolloutStep {
                observation: std::mem::take(&mut obs),
                action: selection.action as u32,
                reward: step.reward,
                done: step.done,
                behavior_logits: selection.logits,
                value: selection.value,
                next_observation: self
                    .agent
                    .records_next_observation()
                    .then(|| step.observation.clone()),
            });
            obs = if step.done { self.env.reset() } else { step.observation };

            if steps.len() >= self.rollout_len {
                // Flow control: the previous rollout must be credited before
                // this one goes out. Waiting is idle (paper Fig. 11:
                // throughput *plateaus* at saturation), and parameters and
                // control stay live meanwhile.
                if !window.is_open() {
                    // One count per stalled rollout, not per wake-up: the
                    // gauge the elastic supervisor and the scale sweeps read
                    // is "how often did generation outpace consumption".
                    backpressure_counter.inc();
                    if self.await_credit(&mut window, &mut params, &lease_counter) {
                        return ExplorerOutcome { tracker, batches_sent };
                    }
                }
                let sent_version = self.agent.param_version();
                let batch = RolloutBatch {
                    explorer: self.index,
                    param_version: sent_version,
                    steps: std::mem::take(&mut steps),
                    bootstrap_observation: obs.clone(),
                };
                // Aggressive push: the message is staged and the workhorse
                // keeps going; the sender thread transmits concurrently. The
                // destination is resolved now, not at build time.
                let header = Header::new(
                    self.endpoint.pid(),
                    vec![self.route.resolve(self.index)],
                    MessageKind::Rollout,
                );
                window.on_send(header.id);
                self.endpoint.send(Message::new(header, Bytes::from(batch.to_bytes())));
                batches_sent += 1;
                batches_counter.inc();
                steps.reserve(self.rollout_len);

                let stats = StatsMsg {
                    source: self.index,
                    steps: steps_since_stats,
                    episode_returns: std::mem::take(&mut returns_since_stats),
                };
                self.endpoint.send_to(vec![controller], MessageKind::Stats, Bytes::from(stats.to_bytes()));
                steps_since_stats = 0;

                if self.sync == SyncMode::OnPolicy {
                    // On-policy gate: wait for parameters newer than the ones
                    // that produced the batch just sent.
                    loop {
                        let Some(msg) = self.endpoint.recv() else {
                            return ExplorerOutcome { tracker, batches_sent };
                        };
                        if self.handle_message(&msg.header, &msg.body, &mut params, &mut window) {
                            return ExplorerOutcome { tracker, batches_sent };
                        }
                        if self.agent.param_version() > sent_version {
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Blocks until the outstanding rollout is credited or its lease lapses,
    /// handling whatever arrives meanwhile. Returns `true` on shutdown.
    fn await_credit(
        &mut self,
        window: &mut CreditWindow,
        params: &mut ParamReceiver,
        lease_counter: &xt_telemetry::CounterHandle,
    ) -> bool {
        while let Some(deadline) = window.lease_deadline() {
            let now = Instant::now();
            if now >= deadline {
                // A rollout still in this process's send buffer cannot have
                // been lost: its lease runs on until it has left.
                if self.endpoint.send_backlog() == 0 {
                    lease_counter.inc();
                    window.expire();
                    return false;
                }
            }
            let wait = deadline.saturating_duration_since(now).max(LEASE_RECHECK);
            match self.endpoint.recv_timeout(wait) {
                Some(msg) if self.handle_message(&msg.header, &msg.body, params, window) => return true,
                None if self.endpoint.is_closed() => return true,
                _ => {}
            }
        }
        false
    }

    /// Processes one incoming message. Returns `true` on shutdown.
    fn handle_message(
        &mut self,
        header: &Header,
        body: &Bytes,
        params: &mut ParamReceiver,
        window: &mut CreditWindow,
    ) -> bool {
        if let Some(frame) = &header.credit {
            window.on_frame(self.index, frame);
        }
        match header.kind {
            MessageKind::Credit => {
                if let Ok(frame) = CreditFrame::from_bytes(body) {
                    window.on_frame(self.index, &frame);
                }
                false
            }
            MessageKind::Parameters => {
                match params.ingest(header.compression, body) {
                    IngestOutcome::Applied(version) => {
                        self.agent.apply_params(params.blob());
                        self.ack(header.src, version, true);
                    }
                    IngestOutcome::Stale => {}
                    // Undecodable against what we hold (respawn lost the
                    // base, corrupt frame): report our actual version so the
                    // learner rebases and resends full.
                    IngestOutcome::Rejected { held } => self.ack(header.src, held, false),
                }
                false
            }
            MessageKind::Control => {
                matches!(ControlCommand::from_bytes(body), Ok(ControlCommand::Shutdown))
            }
            _ => false,
        }
    }

    fn ack(&self, to: ProcessId, version: u64, applied: bool) {
        let ack = ParamAck { explorer: self.index, version, applied };
        self.endpoint.send_to(vec![to], MessageKind::ParamAck, Bytes::from(ack.to_bytes()));
    }
}
