//! The sharded learner process: one of N learner shards cooperating on a
//! single model.
//!
//! Each shard owns a slice of the explorer population through the relaxed
//! [`AssignmentTable`] (rollouts follow the table, not a destination frozen
//! at deployment build), trains on its locally received data, and exchanges
//! gradients with its peer shards over the ordinary comm channel
//! (`MessageKind::Gradient`). Two exchange disciplines exist, selected by
//! [`AllreduceMode`]:
//!
//! * **Sync** — lockstep rounds through [`GradExchange`]: the round's global
//!   batch is split into [`GRAD_SLOTS`] fixed slots, every shard computes raw
//!   gradients for its owned slots (scaled by the *global* row count, with
//!   the loss contribution carried as one trailing element), the slot blobs
//!   are allgathered, folded flat in slot order, and exactly one optimizer
//!   step applies the fold. The same float additions happen in the same
//!   order on every shard and for every legal shard count, so the same seed
//!   yields bit-identical parameters for 1, 2, and 4 shards. A shard that
//!   rejoins after a crash announces itself by sending slot blobs for an old
//!   round; any peer answers with a full parameter snapshot
//!   (`MessageKind::Parameters`, shard→shard) that the rejoiner adopts via
//!   [`GradExchange::fast_forward`].
//!
//! * **Relaxed** — each shard trains independently with
//!   [`Algorithm::try_train`] and gossips parameter *deltas* to its peers
//!   through the LAPG [`LazyGradGate`] (uploads only when the compensated
//!   delta beats the adaptive threshold — `comm.grad_skips` counts the
//!   saved sends). A receiving shard applies a delta only while the sender's
//!   version is within [`MAX_SKEW`] of its own; anything staler is shed
//!   (`learn.grad_shed`), trading determinism for never stalling the ring.
//!
//! In both modes the shard broadcasts fresh parameters to the explorers it
//! *currently* owns per the assignment table — a rebalanced or re-owned
//! explorer simply starts receiving from its new shard (the broadcaster's
//! per-explorer delta bookkeeping falls back to full-f32 for first contact).

use crate::allreduce::{within_skew, GradExchange, GRAD_SLOTS};
use crate::assignment::AssignmentTable;
use crate::checkpoint::Checkpointer;
use crate::config::AllreduceMode;
use crate::learner::{LearnerOutcome, MAX_DRAIN_PER_PASS};
use crate::messages::{ControlCommand, ParamAck, StatsMsg};
use crate::parameters::ParamBroadcaster;
use crate::stats::ThroughputTimeline;
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xingtian_algos::api::Algorithm;
use xingtian_algos::payload::{BatchDecoder, ParamBlob, RolloutStep};
use xingtian_algos::{GradBlob, LazyGradConfig, LazyGradGate};
use xingtian_comm::{CreditLedger, Endpoint, ParamCompression, TransmissionStats};
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{Header, Message, MessageKind, ProcessId, ProcessRole};

/// Maximum parameter-version distance a relaxed-mode delta may carry before
/// the receiving shard sheds it instead of applying it.
pub const MAX_SKEW: u64 = 8;

/// How long a sync-mode shard blocks per wait slice while its peers finish
/// their slots. Short enough that round completion is checked promptly,
/// long enough not to spin.
const SYNC_POLL: Duration = Duration::from_millis(2);

/// One learner shard (`ProcessId::learner(shard)`).
pub struct LearnerShardProcess {
    /// This shard's index in the learner group.
    pub shard: u32,
    /// Communication endpoint (`ProcessId::learner(shard)`).
    pub endpoint: Endpoint,
    /// The algorithm replica this shard trains.
    pub algorithm: Box<dyn Algorithm>,
    /// Live explorer→shard ownership, shared with the explorers' routing.
    pub table: Arc<AssignmentTable>,
    /// Gradient-exchange discipline.
    pub mode: AllreduceMode,
    /// Optional periodic checkpointing (pointed at this shard's own
    /// subdirectory by the deployment).
    pub checkpointer: Option<Checkpointer>,
    /// Fault-injection kill switch, pulsed once per completed session.
    pub probe: Option<xt_fault::ProcessProbe>,
    /// Parameter-broadcast encoding toward owned explorers.
    pub param_compression: ParamCompression,
}

/// Per-run mutable state shared by both exchange disciplines.
struct ShardRun {
    timeline: ThroughputTimeline,
    wait_stats: TransmissionStats,
    steps_consumed: u64,
    train_sessions: u64,
    train_time: Duration,
    waited: Duration,
    /// Rollout credits owed to explorers (see [`xingtian_comm::credit`]).
    credits: CreditLedger,
}

impl LearnerShardProcess {
    /// Runs the shard until the controller broadcasts shutdown.
    pub fn run(mut self) -> LearnerOutcome {
        self.algorithm.attach_telemetry(self.endpoint.telemetry());
        let run = ShardRun {
            timeline: ThroughputTimeline::new(),
            wait_stats: TransmissionStats::new(),
            steps_consumed: 0,
            train_sessions: 0,
            train_time: Duration::ZERO,
            waited: Duration::ZERO,
            credits: CreditLedger::new(),
        };
        let run = match self.mode {
            AllreduceMode::Sync => self.run_sync(run),
            AllreduceMode::Relaxed => self.run_relaxed(run),
        };
        let final_params = self.algorithm.param_blob().params;
        LearnerOutcome {
            steps_consumed: run.steps_consumed,
            timeline: run.timeline,
            wait_stats: run.wait_stats,
            train_sessions: run.train_sessions,
            train_time: run.train_time,
            final_params,
        }
    }

    /// Post-session bookkeeping shared by both modes: timeline, wait, the
    /// checkpoint→probe ordering, the parameter broadcast to currently owned
    /// explorers, and the stats report to the controller.
    fn finish_session(
        &mut self,
        run: &mut ShardRun,
        broadcaster: &mut ParamBroadcaster,
        steps_consumed: usize,
        notify: bool,
    ) {
        run.train_sessions += 1;
        run.steps_consumed += steps_consumed as u64;
        run.timeline.record(steps_consumed as u64);
        run.wait_stats.record(run.waited);
        run.waited = Duration::ZERO;
        if let Some(ckpt) = &mut self.checkpointer {
            ckpt.on_session(&self.algorithm.param_blob());
        }
        // Chaos hook after the checkpoint hook, as in the classic learner: a
        // shard killed on session N has persisted what the policy promised.
        if let Some(probe) = &self.probe {
            probe.pulse();
        }
        if notify {
            // Broadcast to whatever the table says we own *right now* — the
            // algorithm's notify indices reflect the deployment-wide explorer
            // count, not this shard's live slice.
            let owned = self.table.owned(self.shard);
            if !owned.is_empty() {
                let blob = self.algorithm.param_blob();
                let enc = broadcaster.encode(&blob, &owned);
                let dst: Vec<ProcessId> = owned.iter().map(|&e| ProcessId::explorer(e)).collect();
                let mut header = Header::new(self.endpoint.pid(), dst, MessageKind::Parameters)
                    .with_param_version(enc.version);
                header.compression = enc.compression;
                run.credits.attach(&mut header);
                self.endpoint.send(Message::new(header, enc.body));
            }
        }
        let stats = StatsMsg {
            source: StatsMsg::LEARNER,
            steps: steps_consumed as u64,
            episode_returns: Vec::new(),
        };
        self.endpoint.send_to(
            vec![ProcessId::controller(0)],
            MessageKind::Stats,
            Bytes::from(stats.to_bytes()),
        );
    }

    // ---------------------------------------------------------------- sync

    fn run_sync(&mut self, mut run: ShardRun) -> ShardRun {
        let shards = self.table.shards();
        let peers: Vec<ProcessId> =
            (0..shards).filter(|&p| p != self.shard).map(ProcessId::learner).collect();
        let telemetry = self.endpoint.telemetry();
        let wait_hist = telemetry.histogram("learner.wait_ns");
        let train_hist = telemetry.histogram("learn.train_ns");
        let decode_hist = telemetry.histogram("learn.decode_ns");
        let allreduce_hist = telemetry.histogram("learn.allreduce_ns");
        let sessions_counter = telemetry.counter("learner.train_sessions");
        let rounds_counter = telemetry.counter(&format!("learn.shard{}.rounds", self.shard));
        let mut decoder = BatchDecoder::new();
        let mut broadcaster = ParamBroadcaster::new(self.param_compression, telemetry);

        let mut exchange = GradExchange::new(self.shard, shards);
        exchange.fast_forward(self.algorithm.version());
        // Announce ourselves to the ring. On a fresh start every shard is at
        // round 0 and the answers are no-ops; a shard respawned by the
        // supervisor instead learns the ring's real position — the peers
        // answer with a parameter snapshot to adopt plus a retransmission of
        // their current round's slot blobs (the originals died with our old
        // endpoint). The sentinel slot index keeps `ingest` from mistaking
        // the hello for a gradient.
        if !peers.is_empty() {
            let hello =
                GradBlob { worker: u32::MAX, version: exchange.round(), grad: Vec::new() };
            self.endpoint.send_to(
                peers.clone(),
                MessageKind::Gradient,
                Bytes::from(hello.to_bytes()),
            );
        }
        let global_rows = {
            let sync = self.algorithm.sharded_sync().expect(
                "sync allreduce requires a ShardedSync algorithm (checked by config validation)",
            );
            sync.slot_rows() * GRAD_SLOTS
        };
        // This shard's share of each round's global batch (for step
        // accounting: the shards together consume `global_rows` per round).
        let local_rows = global_rows / shards as usize;
        // Round at which we last answered a given rejoining peer — one
        // resync answer per (peer, round) is plenty.
        let mut snapshot_sent: HashMap<u32, u64> = HashMap::new();
        let mut steps: Vec<RolloutStep> = Vec::new();
        let mut grad: Vec<f32> = Vec::new();
        // Set while this shard has contributed its slots for the current
        // round and is waiting on peers; holds the round number and the
        // collect-phase start.
        let mut round_open: Option<(u64, Instant)> = None;
        // When the previous iteration made local progress, drain without
        // blocking; otherwise block one poll slice for peer traffic.
        let mut progressed = true;

        'outer: loop {
            if !progressed {
                let t0 = Instant::now();
                let msg = self.endpoint.recv_timeout(SYNC_POLL);
                run.waited += t0.elapsed();
                if let Some(msg) = msg {
                    if self.on_sync_message(
                        msg,
                        &mut exchange,
                        &mut decoder,
                        &decode_hist,
                        &mut broadcaster,
                        &mut snapshot_sent,
                        &mut run.credits,
                    ) {
                        break 'outer;
                    }
                }
            }
            while let Some(msg) = self.endpoint.try_recv() {
                if self.on_sync_message(
                    msg,
                    &mut exchange,
                    &mut decoder,
                    &decode_hist,
                    &mut broadcaster,
                    &mut snapshot_sent,
                    &mut run.credits,
                ) {
                    break 'outer;
                }
            }
            progressed = false;

            // A snapshot adoption fast-forwarded the exchange past a round we
            // had opened: that round's local slots are gone, so re-arm the
            // gate instead of waiting on a round that can never close.
            if let Some((r, _)) = round_open {
                if r != exchange.round() {
                    round_open = None;
                }
            }

            // Open the next round once the local gate has enough data.
            if round_open.is_none() {
                let sync = self.algorithm.sharded_sync().expect("checked above");
                if sync.take_round_credit() {
                    let t_compute = Instant::now();
                    for slot in exchange.local_slots() {
                        sync.sample_slot(&mut steps);
                        let loss = sync.grad_on_steps(&steps, global_rows, &mut grad);
                        // The loss rides as one trailing element, so the flat
                        // fold reduces it bit-identically alongside the
                        // gradient.
                        grad.push(loss);
                        if !peers.is_empty() {
                            let blob = exchange.blob_for(slot, grad.clone());
                            self.endpoint.send_to(
                                peers.clone(),
                                MessageKind::Gradient,
                                Bytes::from(blob.to_bytes()),
                            );
                        }
                        exchange.offer_local(slot, std::mem::take(&mut grad));
                    }
                    let dt = t_compute.elapsed();
                    run.train_time += dt;
                    train_hist.record_duration(dt);
                    round_open = Some((exchange.round(), Instant::now()));
                    progressed = true;
                }
            }

            // Close the round once every slot (local and peer) is present.
            if let Some((_, t_open)) = round_open {
                if exchange.ready() {
                    let mut folded = exchange.reduce().expect("ready round reduces");
                    let loss = folded.pop().expect("trailing loss element");
                    allreduce_hist.record_duration(t_open.elapsed());
                    let t_apply = Instant::now();
                    let report = self
                        .algorithm
                        .sharded_sync()
                        .expect("checked above")
                        .apply_reduced_grad(&folded, global_rows, loss);
                    let dt = t_apply.elapsed();
                    run.train_time += dt;
                    train_hist.record_duration(dt);
                    wait_hist.record_duration(run.waited);
                    sessions_counter.inc();
                    rounds_counter.inc();
                    let notify = !report.notify.is_empty();
                    // Report only this shard's share of the round: every
                    // shard applies the same global batch, so reporting the
                    // full count S times would make goal semantics (and the
                    // controller's step sum) depend on the shard count.
                    self.finish_session(&mut run, &mut broadcaster, local_rows, notify);
                    round_open = None;
                    progressed = true;
                }
            }
            run.credits.flush(&self.endpoint);
        }
        // Symmetric shutdown: a round this shard has announced (blobs sent)
        // must close on every shard or on none, or final parameters would
        // differ by one optimizer step depending on who saw the shutdown
        // first. A shard never announces after shutdown, so the peers' slot
        // blobs for our open round are either already in flight (drain and
        // close) or will never come (grace expires and nobody closes it).
        if let Some((r, _)) = round_open {
            let deadline = Instant::now() + Duration::from_millis(300);
            while exchange.round() == r && !exchange.ready() && Instant::now() < deadline {
                if let Some(msg) = self.endpoint.recv_timeout(SYNC_POLL) {
                    if msg.header.kind == MessageKind::Gradient {
                        if let Ok(blob) = GradBlob::from_bytes(&msg.body) {
                            exchange.ingest(blob);
                        }
                    }
                }
            }
            if exchange.ready() {
                let mut folded = exchange.reduce().expect("ready round reduces");
                let loss = folded.pop().expect("trailing loss element");
                let report = self
                    .algorithm
                    .sharded_sync()
                    .expect("checked above")
                    .apply_reduced_grad(&folded, global_rows, loss);
                // Bookkeeping only: the controller and the explorers are
                // already shutting down, so no broadcast and no stats send.
                let _ = report;
                run.train_sessions += 1;
                run.steps_consumed += local_rows as u64;
                run.timeline.record(local_rows as u64);
                if let Some(ckpt) = &mut self.checkpointer {
                    ckpt.on_session(&self.algorithm.param_blob());
                }
            }
        }
        exchange.abandon();
        run
    }

    /// Processes one sync-mode message. Returns `true` on shutdown.
    #[allow(clippy::too_many_arguments)]
    fn on_sync_message(
        &mut self,
        msg: Message,
        exchange: &mut GradExchange,
        decoder: &mut BatchDecoder,
        decode_hist: &xt_telemetry::HistogramHandle,
        broadcaster: &mut ParamBroadcaster,
        snapshot_sent: &mut HashMap<u32, u64>,
        credits: &mut CreditLedger,
    ) -> bool {
        match msg.header.kind {
            MessageKind::Rollout => {
                let t0 = Instant::now();
                if let Ok(batch) = decoder.decode(&msg.body) {
                    self.algorithm.on_rollout(batch);
                }
                decode_hist.record_duration(t0.elapsed());
                credits.on_rollout(&msg.header);
                false
            }
            MessageKind::Gradient => {
                if let Ok(blob) = GradBlob::from_bytes(&msg.body) {
                    let src = msg.header.src;
                    // A startup hello (sentinel slot) or a blob for a round
                    // the ring already finished identifies a (re)joining peer
                    // — in steady state every blob is needed to close its
                    // round, so nothing arrives late. Answer with a full
                    // parameter snapshot so it can adopt the ring's position,
                    // plus a retransmission of our current round's slot blobs
                    // (the originals may have died with its old endpoint).
                    let resync = blob.worker as usize >= GRAD_SLOTS
                        || blob.version < exchange.round();
                    if resync && src.role == ProcessRole::Learner {
                        let round = exchange.round();
                        if snapshot_sent.get(&src.index) != Some(&round) {
                            snapshot_sent.insert(src.index, round);
                            let snap = self.algorithm.param_blob();
                            self.endpoint.send_to(
                                vec![src],
                                MessageKind::Parameters,
                                Bytes::from(snap.to_bytes()),
                            );
                            for local in exchange.local_blobs() {
                                self.endpoint.send_to(
                                    vec![src],
                                    MessageKind::Gradient,
                                    Bytes::from(local.to_bytes()),
                                );
                            }
                        }
                    }
                    exchange.ingest(blob);
                }
                false
            }
            MessageKind::Parameters => {
                // A peer's snapshot answering our stale slot blobs: adopt it
                // and jump to the ring's round. (Explorer-bound broadcasts
                // never target a learner, so any Parameters here is
                // shard→shard.)
                if msg.header.src.role == ProcessRole::Learner {
                    if let Ok(blob) = ParamBlob::from_bytes(&msg.body) {
                        if blob.version > exchange.round() {
                            self.algorithm.adopt_params(&blob.params, blob.version);
                            exchange.fast_forward(blob.version);
                        }
                    }
                }
                false
            }
            MessageKind::ParamAck => {
                if let Ok(ack) = ParamAck::from_bytes(&msg.body) {
                    broadcaster.on_ack(&ack);
                }
                false
            }
            MessageKind::Control => {
                matches!(ControlCommand::from_bytes(&msg.body), Ok(ControlCommand::Shutdown))
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------- relaxed

    fn run_relaxed(&mut self, mut run: ShardRun) -> ShardRun {
        let shards = self.table.shards();
        let peers: Vec<ProcessId> =
            (0..shards).filter(|&p| p != self.shard).map(ProcessId::learner).collect();
        let telemetry = self.endpoint.telemetry();
        let wait_hist = telemetry.histogram("learner.wait_ns");
        let train_hist = telemetry.histogram("learn.train_ns");
        let decode_hist = telemetry.histogram("learn.decode_ns");
        let sessions_counter = telemetry.counter("learner.train_sessions");
        let shed_counter = telemetry.counter("learn.grad_shed");
        let applied_counter = telemetry.counter("learn.grad_applied");
        let mut decoder = BatchDecoder::new();
        let mut broadcaster = ParamBroadcaster::new(self.param_compression, telemetry);
        let mut gate = LazyGradGate::with_telemetry(LazyGradConfig::default(), telemetry);
        // Parameters at the previous offer, the baseline the next delta is
        // measured against. Peer deltas are folded into it on apply so the
        // gossip does not echo back what a peer just sent us.
        let mut prev = self.algorithm.param_blob().params;
        gate.observe_params(&prev);

        // Set while training may be owed, as in `LearnerProcess::run`: the
        // next pass then only looks for messages instead of blocking.
        let mut owes_sessions = true;

        'outer: loop {
            let t0 = Instant::now();
            let mut first = if owes_sessions {
                self.endpoint.try_recv()
            } else {
                let Some(msg) = self.endpoint.recv() else { break };
                Some(msg)
            };
            run.waited += t0.elapsed();
            // Handle it and a bounded drain of what else has arrived (see
            // `MAX_DRAIN_PER_PASS`).
            for _ in 0..=MAX_DRAIN_PER_PASS {
                let Some(msg) = first.take().or_else(|| self.endpoint.try_recv()) else { break };
                if self.on_relaxed_message(
                    msg,
                    &mut decoder,
                    &decode_hist,
                    &mut broadcaster,
                    &mut prev,
                    &shed_counter,
                    &applied_counter,
                    &mut run.credits,
                ) {
                    break 'outer;
                }
            }
            // One training session per pass, then back to the channel: a
            // shard its explorers outrun keeps reading its messages, Shutdown
            // included, while it owes sessions.
            let trained = {
                let t = Instant::now();
                let r = self.algorithm.try_train();
                if r.is_some() {
                    let dt = t.elapsed();
                    run.train_time += dt;
                    train_hist.record_duration(dt);
                }
                r
            };
            owes_sessions = trained.is_some();
            if let Some(report) = trained {
                wait_hist.record_duration(run.waited);
                sessions_counter.inc();
                // Offer this session's parameter movement to the LAPG gate;
                // accepted deltas gossip to every peer shard.
                let blob = self.algorithm.param_blob();
                gate.observe_params(&blob.params);
                if prev.len() == blob.params.len() {
                    let delta: Vec<f32> =
                        blob.params.iter().zip(&prev).map(|(n, p)| n - p).collect();
                    if let Some(up) = gate.offer(&delta) {
                        if !peers.is_empty() {
                            let gb =
                                GradBlob { worker: self.shard, version: blob.version, grad: up };
                            self.endpoint.send_to(
                                peers.clone(),
                                MessageKind::Gradient,
                                Bytes::from(gb.to_bytes()),
                            );
                        }
                    }
                }
                prev = blob.params;
                let notify = !report.notify.is_empty();
                self.finish_session(&mut run, &mut broadcaster, report.steps_consumed, notify);
            } else {
                // Idle: credits no broadcast carried go out on their own.
                run.credits.flush(&self.endpoint);
            }
            while let Some(spent) = self.algorithm.take_spent() {
                decoder.recycle(spent);
            }
        }
        run
    }

    /// Processes one relaxed-mode message. Returns `true` on shutdown.
    #[allow(clippy::too_many_arguments)]
    fn on_relaxed_message(
        &mut self,
        msg: Message,
        decoder: &mut BatchDecoder,
        decode_hist: &xt_telemetry::HistogramHandle,
        broadcaster: &mut ParamBroadcaster,
        prev: &mut [f32],
        shed_counter: &xt_telemetry::CounterHandle,
        applied_counter: &xt_telemetry::CounterHandle,
        credits: &mut CreditLedger,
    ) -> bool {
        match msg.header.kind {
            MessageKind::Rollout => {
                let t0 = Instant::now();
                if let Ok(batch) = decoder.decode(&msg.body) {
                    self.algorithm.on_rollout(batch);
                }
                decode_hist.record_duration(t0.elapsed());
                credits.on_rollout(&msg.header);
                false
            }
            MessageKind::Gradient => {
                if let Ok(blob) = GradBlob::from_bytes(&msg.body) {
                    if !within_skew(self.algorithm.version(), blob.version, MAX_SKEW) {
                        // Too stale (or too far ahead): shed. The sender's
                        // gate residual keeps the mass for its next offer.
                        shed_counter.inc();
                    } else {
                        let mut params = self.algorithm.param_blob().params;
                        if params.len() == blob.grad.len() {
                            for (p, d) in params.iter_mut().zip(&blob.grad) {
                                *p += d;
                            }
                            self.algorithm.load_params(&params);
                            // Fold the peer delta into the offer baseline so
                            // our next delta is our own movement only.
                            if prev.len() == blob.grad.len() {
                                for (p, d) in prev.iter_mut().zip(&blob.grad) {
                                    *p += d;
                                }
                            }
                            applied_counter.inc();
                        }
                    }
                }
                false
            }
            MessageKind::ParamAck => {
                if let Ok(ack) = ParamAck::from_bytes(&msg.body) {
                    broadcaster.on_ack(&ack);
                }
                false
            }
            MessageKind::Control => {
                matches!(ControlCommand::from_bytes(&msg.body), Ok(ControlCommand::Shutdown))
            }
            _ => false,
        }
    }
}
