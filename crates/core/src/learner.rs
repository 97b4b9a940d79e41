//! The learner process: DNN training driven by rollout arrival.
//!
//! The trainer thread pops complete messages from its local receive buffer —
//! by the time it looks, the asynchronous channel has already moved rollouts
//! across processes and machines and staged them locally. The only waiting
//! the learner ever does is for data that has not been *produced* yet; that
//! wait is measured and reported as the paper's "actual wait" (Figs. 8–10).

use crate::checkpoint::Checkpointer;
use crate::messages::{ControlCommand, ParamAck, StatsMsg};
use crate::parameters::ParamBroadcaster;
use crate::stats::ThroughputTimeline;
use bytes::Bytes;
use std::time::{Duration, Instant};
use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::BatchDecoder;
use xingtian_comm::{CreditLedger, Endpoint, ParamCompression, TransmissionStats};
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{Header, Message, MessageKind, ProcessId};

/// Messages a learner loop reads per pass beyond the first, before it trains
/// its next session. The drain is bounded: at saturation every decoded
/// rollout releases a store credit that un-blocks a backpressured explorer,
/// whose next rollout lands before the buffer empties — an unbounded drain
/// then decodes forever and never trains (a livelock that reads as
/// multi-second zero-throughput stalls at 64+ explorers). Sixteen messages
/// per pass keeps the batch queue fed without starving training.
pub(crate) const MAX_DRAIN_PER_PASS: usize = 16;

/// Configuration of the learner process.
pub struct LearnerProcess {
    /// Communication endpoint (`ProcessId::learner(0)`).
    pub endpoint: Endpoint,
    /// The algorithm being trained.
    pub algorithm: Box<dyn Algorithm>,
    /// Optional periodic checkpointing (paper §4.2).
    pub checkpointer: Option<Checkpointer>,
    /// Fault-injection kill switch, pulsed once per completed training
    /// session (`None` = not under chaos).
    pub probe: Option<xt_fault::ProcessProbe>,
    /// Parameter-broadcast encoding (delta/quantized frames with full-f32
    /// fallback; `FullF32` reproduces the plain-blob behavior).
    pub param_compression: ParamCompression,
}

/// What the learner reports when it shuts down.
#[derive(Debug)]
pub struct LearnerOutcome {
    /// Rollout steps consumed for training.
    pub steps_consumed: u64,
    /// Consumption timeline (steps/s series).
    pub timeline: ThroughputTimeline,
    /// Time blocked waiting for rollouts before each training session.
    pub wait_stats: TransmissionStats,
    /// Training sessions completed.
    pub train_sessions: u64,
    /// Total compute time spent inside `train`.
    pub train_time: Duration,
    /// Final trained parameters (flat), for PBT weight inheritance.
    pub final_params: Vec<f32>,
}

impl LearnerProcess {
    /// Runs the learner until the controller broadcasts shutdown.
    pub fn run(mut self) -> LearnerOutcome {
        let controller = ProcessId::controller(0);
        let mut timeline = ThroughputTimeline::new();
        let wait_stats = TransmissionStats::new();
        let wait_hist = self.endpoint.telemetry().histogram("learner.wait_ns");
        let train_hist = self.endpoint.telemetry().histogram("learn.train_ns");
        // The classic fetch→decode→re-insert stage. Store-resident replay
        // deletes it: the learner then receives only ReplayNotice wakeups and
        // this histogram stays empty.
        let decode_hist = self.endpoint.telemetry().histogram("learn.decode_ns");
        let sessions_counter = self.endpoint.telemetry().counter("learner.train_sessions");
        // Rollout messages decode into recycled step storage: batches the
        // algorithm has fully consumed flow back through `take_spent` and
        // serve the next decode without reallocating.
        let mut decoder = BatchDecoder::new();
        // Parameter-plane encoder: ring of delta bases, per-explorer sent
        // versions, error feedback for the quantized modes.
        let mut broadcaster = ParamBroadcaster::new(self.param_compression, self.endpoint.telemetry());
        // Rollout credits owed to explorers: returned on the post-session
        // broadcast to the same explorer, or standalone once the learner is
        // idle.
        let mut credits = CreditLedger::new();
        // Give the algorithm the endpoint's telemetry so it can publish its
        // internal stage timings (e.g. DQN's `learn.sample_ns`).
        self.algorithm.attach_telemetry(self.endpoint.telemetry());
        let mut steps_consumed = 0u64;
        let mut train_sessions = 0u64;
        let mut train_time = Duration::ZERO;
        // Wait accumulated since the last completed training session.
        let mut waited = Duration::ZERO;

        // Set while training may be owed: the next pass then only looks for
        // messages instead of blocking. A pass that trained sets it, and so
        // does a fresh start — a respawned learner may inherit work (a
        // store-resident replay plane) whose wake-up notice went to its
        // predecessor.
        let mut owes_sessions = true;

        'outer: loop {
            // Block for the next message, accounting the blocked time as wait;
            // with sessions still owed, only look.
            let t0 = Instant::now();
            let first = if owes_sessions {
                self.endpoint.try_recv()
            } else {
                let Some(msg) = self.endpoint.recv() else { break };
                Some(msg)
            };
            waited += t0.elapsed();
            if let Some(msg) = first {
                if self.handle_message(&msg, &mut decoder, &decode_hist, &mut broadcaster, &mut credits) {
                    break;
                }
            }
            // Drain whatever else has already arrived — data already staged
            // locally costs no wait — up to `MAX_DRAIN_PER_PASS` messages.
            let mut drained = 0;
            while drained < MAX_DRAIN_PER_PASS {
                let Some(extra) = self.endpoint.try_recv() else { break };
                drained += 1;
                if self.handle_message(&extra, &mut decoder, &decode_hist, &mut broadcaster, &mut credits) {
                    break 'outer;
                }
            }
            // One training session per pass, then back to the channel: a
            // learner slower than its explorers (DQN owes a session per
            // `train_every_inserts` new steps, however fast they arrive) keeps
            // reading its messages, Shutdown included, while it trains.
            let trained = {
                let t = Instant::now();
                let r = self.algorithm.try_train();
                if r.is_some() {
                    let dt = t.elapsed();
                    train_time += dt;
                    train_hist.record_duration(dt);
                }
                r
            };
            owes_sessions = trained.is_some();
            if let Some(report) = trained {
                train_sessions += 1;
                steps_consumed += report.steps_consumed as u64;
                timeline.record(report.steps_consumed as u64);
                wait_stats.record(waited);
                wait_hist.record_duration(waited);
                sessions_counter.inc();
                waited = Duration::ZERO;
                if let Some(ckpt) = &mut self.checkpointer {
                    ckpt.on_session(&self.algorithm.param_blob());
                }
                // Chaos hook, deliberately *after* the checkpoint hook: a
                // learner killed on session N has persisted everything the
                // checkpoint policy says it should, so recovery measures the
                // policy, not the kill's timing luck.
                if let Some(probe) = &self.probe {
                    probe.pulse();
                }
                if !report.notify.is_empty() {
                    let blob = self.algorithm.param_blob();
                    let enc = broadcaster.encode(&blob, &report.notify);
                    let dst: Vec<ProcessId> =
                        report.notify.iter().map(|&e| ProcessId::explorer(e)).collect();
                    let mut header =
                        Header::new(self.endpoint.pid(), dst, MessageKind::Parameters)
                            .with_param_version(enc.version);
                    header.compression = enc.compression;
                    credits.attach(&mut header);
                    self.endpoint.send(Message::new(header, enc.body));
                }
                let stats = StatsMsg {
                    source: StatsMsg::LEARNER,
                    steps: report.steps_consumed as u64,
                    episode_returns: Vec::new(),
                };
                self.endpoint.send_to(
                    vec![controller],
                    MessageKind::Stats,
                    Bytes::from(stats.to_bytes()),
                );
            } else {
                // Idle: everything received has been trained on, so credits
                // no broadcast carried go out on their own.
                credits.flush(&self.endpoint);
            }
            // Recycle the step storage of batches the algorithm is done with.
            while let Some(spent) = self.algorithm.take_spent() {
                decoder.recycle(spent);
            }
        }

        let final_params = self.algorithm.param_blob().params;
        LearnerOutcome {
            steps_consumed,
            timeline,
            wait_stats,
            train_sessions,
            train_time,
            final_params,
        }
    }

    /// Processes one incoming message. Returns `true` on shutdown.
    fn handle_message(
        &mut self,
        msg: &Message,
        decoder: &mut BatchDecoder,
        decode_hist: &xt_telemetry::HistogramHandle,
        broadcaster: &mut ParamBroadcaster,
        credits: &mut CreditLedger,
    ) -> bool {
        let body = &msg.body;
        match msg.header.kind {
            MessageKind::ParamAck => {
                if let Ok(ack) = ParamAck::from_bytes(body) {
                    broadcaster.on_ack(&ack);
                }
                false
            }
            MessageKind::Rollout => {
                let t0 = Instant::now();
                if let Ok(batch) = decoder.decode(body) {
                    self.algorithm.on_rollout(batch);
                }
                decode_hist.record_duration(t0.elapsed());
                credits.on_rollout(&msg.header);
                false
            }
            // Store-resident replay: the shard ingested a batch on our
            // behalf (and credited its explorer). Nothing to decode — falling
            // through wakes the training loop, which samples straight from
            // the shared plane.
            MessageKind::ReplayNotice => false,
            MessageKind::Control => {
                matches!(ControlCommand::from_bytes(body), Ok(ControlCommand::Shutdown))
            }
            _ => false,
        }
    }
}
