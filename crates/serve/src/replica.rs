//! The serving replica: adaptive micro-batcher + parameter sink.
//!
//! A replica runs two threads on two endpoints:
//!
//! * the **serve loop** (`ProcessId::server(i)`) — blocks on the inference
//!   endpoint, and on the first [`InferRequest`] opens a batching window:
//!   it keeps pulling requests until it holds `max_batch` rows or
//!   `max_wait_us` elapses, then answers the whole window with one fused
//!   `Mlp::forward_ws` pass. After each pass it checks the queue depth
//!   against `shed_watermark` and answers the overflow with explicit `Shed`
//!   replies — bounded latency instead of an unbounded queue.
//! * the **parameter sink** (`ProcessId::server(PARAM_SINK_OFFSET + i)`) —
//!   a [`ParamReceiver`] ingesting live learner broadcasts (full, delta, or
//!   quantized frames). Every applied version is rebuilt into a fresh
//!   [`Policy`] and published through the replica's [`PolicyCell`], so the
//!   serve loop picks up new weights at its next batch without ever
//!   blocking on the swap. Acks/nacks flow back so the broadcaster's
//!   delta-base bookkeeping self-heals (a sink joining mid-chain converges
//!   after one full send).
//!
//! [`InferRequest`]: xingtian_message::InferRequest

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use tinynn::ops::argmax;
use tinynn::Workspace;
use xingtian::messages::{ControlCommand, ParamAck};
use xingtian::{IngestOutcome, ParamReceiver};
use xingtian_algos::ParamBlob;
use xingtian_comm::Endpoint;
use xingtian_message::codec::{Decode, Encode};
use xingtian_message::{InferReply, InferRequest, Message, MessageKind, ProcessId};

use crate::policy::{Policy, PolicyCell};
use crate::ServeConfig;

/// What a serve loop did before it stopped.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplicaOutcome {
    /// `true` for an orderly `Shutdown` exit; `false` means the endpoint
    /// died underneath the loop and the fleet should respawn it.
    pub clean: bool,
    /// Requests answered with actions.
    pub served_requests: u64,
    /// Observation rows inferred (the QPS numerator).
    pub served_rows: u64,
    /// Requests answered with explicit `Shed` replies.
    pub sheds: u64,
}

/// One serving replica's inference loop. Constructed by the fleet; `run`
/// consumes it on its own thread.
pub struct ServeReplica {
    /// Replica index (== the inference endpoint's `ProcessId::server` index).
    pub index: u32,
    /// The inference endpoint.
    pub endpoint: Endpoint,
    /// The hot-swappable policy shared with this replica's parameter sink.
    pub cell: Arc<PolicyCell>,
    /// Fleet configuration (batching bounds, shed watermark, debug hooks).
    pub config: ServeConfig,
}

/// A request staged in the current batching window.
struct Staged {
    reply_to: ProcessId,
    request: InferRequest,
    enqueued: Instant,
}

impl ServeReplica {
    /// Runs the serve loop until shutdown or endpoint death.
    pub fn run(self) -> ReplicaOutcome {
        let tel = self.endpoint.telemetry().clone();
        let requests = tel.counter("serve.requests");
        let served = tel.counter("serve.served");
        let sheds = tel.counter("serve.sheds");
        let malformed = tel.counter("serve.malformed");
        let batch_size = tel.histogram("serve.batch_size");
        let queue_us = tel.histogram("serve.queue_us");
        let infer_us = tel.histogram("serve.infer_us");

        let mut ws = Workspace::new();
        let mut staged: Vec<Staged> = Vec::with_capacity(self.config.max_batch);
        let mut batch_obs: Vec<f32> = Vec::with_capacity(self.config.max_batch * self.config.obs_dim);
        let mut out = ReplicaOutcome::default();

        loop {
            let Some(first) = self.endpoint.recv() else {
                return out; // endpoint closed: dirty death, fleet respawns
            };
            let mut shutdown = false;
            match first.header.kind {
                MessageKind::Control => shutdown = is_shutdown(&first),
                MessageKind::InferRequest => {
                    requests.add(1);
                    match InferRequest::from_bytes(&first.body) {
                        Ok(req) => staged.push(Staged {
                            reply_to: first.header.src,
                            request: req,
                            enqueued: first.header.created_at,
                        }),
                        // A malformed body carries no id to answer; count it
                        // loudly instead of pretending it was served.
                        Err(_) => malformed.add(1),
                    }
                }
                _ => {}
            }

            // Batching window: wait up to max_wait_us for the batch to fill.
            if !staged.is_empty() {
                let deadline = Instant::now() + Duration::from_micros(self.config.max_wait_us);
                let mut rows: usize = staged.iter().map(|s| s.request.rows as usize).sum();
                while rows < self.config.max_batch && !shutdown {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let Some(msg) = self.endpoint.recv_timeout(deadline - now) else {
                        break; // window elapsed (or endpoint closed; recv picks that up)
                    };
                    match msg.header.kind {
                        MessageKind::Control => shutdown = is_shutdown(&msg),
                        MessageKind::InferRequest => {
                            requests.add(1);
                            match InferRequest::from_bytes(&msg.body) {
                                Ok(req) => {
                                    rows += req.rows as usize;
                                    staged.push(Staged {
                                        reply_to: msg.header.src,
                                        request: req,
                                        enqueued: msg.header.created_at,
                                    });
                                }
                                Err(_) => malformed.add(1),
                            }
                        }
                        _ => {}
                    }
                }

                self.flush(&mut staged, &mut batch_obs, &mut ws, &mut out, &served, &queue_us, &infer_us, &batch_size);

                // Graceful degradation: a backlog deeper than the watermark
                // after a full-speed batch means we are past capacity —
                // answer the overflow now with explicit sheds so queue time
                // stays bounded.
                while self.endpoint.pending() > self.config.shed_watermark {
                    let Some(msg) = self.endpoint.try_recv() else { break };
                    match msg.header.kind {
                        MessageKind::Control => shutdown = is_shutdown(&msg),
                        MessageKind::InferRequest => {
                            requests.add(1);
                            match InferRequest::from_bytes(&msg.body) {
                                Ok(req) => {
                                    self.shed(msg.header.src, &req);
                                    sheds.add(1);
                                    out.sheds += 1;
                                }
                                Err(_) => malformed.add(1),
                            }
                        }
                        _ => {}
                    }
                }
            }

            if shutdown {
                // Drain: everything already accepted gets served, in
                // max_batch-sized passes, before the replica leaves.
                while let Some(msg) = self.endpoint.try_recv() {
                    if msg.header.kind == MessageKind::InferRequest {
                        requests.add(1);
                        match InferRequest::from_bytes(&msg.body) {
                            Ok(req) => staged.push(Staged {
                                reply_to: msg.header.src,
                                request: req,
                                enqueued: msg.header.created_at,
                            }),
                            Err(_) => malformed.add(1),
                        }
                    }
                    let rows: usize = staged.iter().map(|s| s.request.rows as usize).sum();
                    if rows >= self.config.max_batch {
                        self.flush(&mut staged, &mut batch_obs, &mut ws, &mut out, &served, &queue_us, &infer_us, &batch_size);
                    }
                }
                self.flush(&mut staged, &mut batch_obs, &mut ws, &mut out, &served, &queue_us, &infer_us, &batch_size);
                out.clean = true;
                return out;
            }
        }
    }

    /// Answers every staged request with one fused forward pass.
    #[allow(clippy::too_many_arguments)]
    fn flush(
        &self,
        staged: &mut Vec<Staged>,
        batch_obs: &mut Vec<f32>,
        ws: &mut Workspace,
        out: &mut ReplicaOutcome,
        served: &xt_telemetry::CounterHandle,
        queue_us: &xt_telemetry::HistogramHandle,
        infer_us: &xt_telemetry::HistogramHandle,
        batch_size: &xt_telemetry::HistogramHandle,
    ) {
        if staged.is_empty() {
            return;
        }
        let obs_dim = self.config.obs_dim;
        batch_obs.clear();
        let mut rows = 0usize;
        // Geometry check up front: a request whose body disagrees with its
        // row count (or the fleet's obs_dim) cannot be inferred — it gets an
        // explicit shed reply so nothing goes silently unanswered.
        staged.retain(|s| {
            let want = s.request.rows as usize * obs_dim;
            if s.request.rows == 0 || s.request.observations.len() != want {
                self.shed(s.reply_to, &s.request);
                out.sheds += 1;
                return false;
            }
            rows += s.request.rows as usize;
            batch_obs.extend_from_slice(&s.request.observations);
            true
        });
        if rows == 0 {
            staged.clear();
            return;
        }
        batch_size.record(rows as u64);

        let t0 = Instant::now();
        let (version, actions) = self.cell.with(|policy| {
            let q = policy.mlp.forward_ws(batch_obs, rows, ws);
            let num_actions = self.config.num_actions;
            let mut actions = Vec::with_capacity(rows);
            for r in 0..rows {
                actions.push(argmax(&q[r * num_actions..(r + 1) * num_actions]) as u32);
            }
            (policy.version, actions)
        });
        if self.config.debug_infer_delay_us > 0 {
            std::thread::sleep(Duration::from_micros(self.config.debug_infer_delay_us));
        }
        infer_us.record_duration(t0.elapsed());

        let mut offset = 0usize;
        for s in staged.drain(..) {
            let n = s.request.rows as usize;
            queue_us.record_duration(s.enqueued.elapsed());
            let reply = InferReply {
                request_id: s.request.request_id,
                param_version: version,
                shed: false,
                actions: actions[offset..offset + n].to_vec(),
            };
            offset += n;
            self.endpoint.send_to(
                vec![s.reply_to],
                MessageKind::InferReply,
                Bytes::from(reply.to_bytes()),
            );
            out.served_requests += 1;
            out.served_rows += n as u64;
            served.add(1);
        }
    }

    /// Sends an explicit `Shed` reply for `req`.
    fn shed(&self, to: ProcessId, req: &InferRequest) {
        let reply = InferReply {
            request_id: req.request_id,
            param_version: 0,
            shed: true,
            actions: Vec::new(),
        };
        self.endpoint.send_to(vec![to], MessageKind::InferReply, Bytes::from(reply.to_bytes()));
    }
}

fn is_shutdown(msg: &Message) -> bool {
    matches!(ControlCommand::from_bytes(&msg.body), Ok(ControlCommand::Shutdown))
}

/// The parameter-sink loop: ingest learner broadcasts, rebuild the policy,
/// publish it through the cell, ack/nack so the sender's delta bookkeeping
/// converges. Runs until shutdown or endpoint death.
pub(crate) fn run_param_sink(
    endpoint: Endpoint,
    cell: Arc<PolicyCell>,
    sizes: Vec<usize>,
    sink_index: u32,
    seed: ParamBlob,
) {
    let swaps = endpoint.telemetry().counter("serve.swaps");
    let mut receiver = ParamReceiver::new();
    // Pre-load the boot blob so a broadcaster that knows this base (e.g. the
    // learner whose checkpoint booted the fleet) can start with deltas.
    if !seed.params.is_empty() {
        receiver.ingest(xingtian_message::CompressionKind::None, &seed.to_bytes());
    }
    while let Some(msg) = endpoint.recv() {
        match msg.header.kind {
            MessageKind::Parameters => match receiver.ingest(msg.header.compression, &msg.body) {
                IngestOutcome::Applied(version) => {
                    // Rebuild off the hot path; the serve loop sees the new
                    // weights at its next batch via the lock-free cell.
                    cell.publish(Arc::new(Policy::from_blob(&sizes, receiver.blob())));
                    swaps.add(1);
                    send_ack(&endpoint, msg.header.src, sink_index, version, true);
                }
                IngestOutcome::Rejected { held } => {
                    send_ack(&endpoint, msg.header.src, sink_index, held, false);
                }
                IngestOutcome::Stale => {}
            },
            MessageKind::Control if is_shutdown(&msg) => return,
            _ => {}
        }
    }
}

fn send_ack(endpoint: &Endpoint, to: ProcessId, sink: u32, version: u64, applied: bool) {
    let ack = ParamAck { explorer: sink, version, applied };
    endpoint.send_to(vec![to], MessageKind::ParamAck, Bytes::from(ack.to_bytes()));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Greedy serving shares `DqnAgent::act`'s argmax, whose first-maximum
    /// tie-break keeps serving identical to training-side greedy.
    #[test]
    fn argmax_breaks_ties_toward_the_first_maximum() {
        assert_eq!(argmax(&[0.0, 1.0, 1.0]), 1);
        assert_eq!(argmax(&[3.0]), 0);
        assert_eq!(argmax(&[-2.0, -1.0, -3.0]), 1);
    }
}
