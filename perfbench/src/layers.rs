//! Bench-side spans: direct calls into each layer's public functions, fed
//! with the workload's own generated inputs, each timed with `Instant`.
//! The medians land in the per-layer metrics of a traced run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use gymlite::{AtariGame, Environment, SynthAtari};
use netsim::Cluster;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinynn::{Activation, Mlp, Workspace};
use xingtian::config::DeploymentConfig;
use xingtian::deployment::{build_agent, build_algorithm};
use xingtian::ParamBroadcaster;
use xingtian_algos::{RolloutBatch, RolloutStep};
use xingtian_comm::{Broker, CommConfig};
use xingtian_message::codec::Encode;
use xingtian_message::{InferRequest, MessageKind, ProcessId};
use xt_telemetry::Telemetry;

use crate::stats::percentile;
use crate::{Check, Layers};

/// Calls per timed function.
const CALLS: usize = 400;

/// Median nanoseconds of `CALLS` timed calls of `f`.
fn time_ns(mut f: impl FnMut(usize)) -> f64 {
    let mut ns: Vec<f64> = (0..CALLS)
        .map(|i| {
            let t = Instant::now();
            f(i);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    percentile(&mut ns, 50.0)
}

/// Rollouts produced the way an explorer produces them: the workload's
/// environment and agent, seeded like explorer 0.
pub fn generate_rollouts(config: &DeploymentConfig, count: usize) -> Vec<RolloutBatch> {
    let mut cfg = AtariGame::BeamRider.config().with_step_latency_us(0);
    if let Some(dim) = config.obs_dim_override {
        cfg = cfg.with_obs_dim(dim);
    }
    let mut env = SynthAtari::with_config(cfg, config.seed.wrapping_mul(1000));
    let (obs_dim, actions) = (env.observation_dim(), env.num_actions());
    let mut agent = build_agent(
        &config.algorithm,
        obs_dim,
        actions,
        1,
        config.rollout_len,
        config.seed,
        0,
    );
    let mut obs = env.reset();
    (0..count)
        .map(|_| {
            let steps = (0..config.rollout_len)
                .map(|_| {
                    let sel = agent.act(&obs);
                    let step = env.step(sel.action);
                    let next = agent
                        .records_next_observation()
                        .then(|| step.observation.clone());
                    let prev = std::mem::replace(
                        &mut obs,
                        if step.done {
                            env.reset()
                        } else {
                            step.observation
                        },
                    );
                    RolloutStep {
                        observation: prev,
                        action: sel.action as u32,
                        reward: step.reward,
                        done: step.done,
                        behavior_logits: sel.logits,
                        value: sel.value,
                        next_observation: next,
                    }
                })
                .collect();
            RolloutBatch {
                explorer: 0,
                param_version: 0,
                steps,
                bootstrap_observation: obs.clone(),
            }
        })
        .collect()
}

/// Times `Endpoint::send` of `body` on a single-machine broker with a
/// draining receiver, and checks the object store is empty afterwards.
fn time_send(body: Bytes, kind: MessageKind, checks: &mut Vec<Check>) -> f64 {
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let src = broker.endpoint(ProcessId::controller(900));
    let dst = broker.endpoint(ProcessId::controller(901));
    let ns = std::thread::scope(|s| {
        let drain = s.spawn(|| {
            let mut got = 0;
            while got < CALLS {
                if dst.recv_timeout(Duration::from_secs(10)).is_none() {
                    break;
                }
                got += 1;
            }
            got
        });
        let ns = time_ns(|_| {
            src.send_to(vec![ProcessId::controller(901)], kind, body.clone());
        });
        let got = drain.join().expect("drain thread panicked");
        checks.push(Check::new(
            "comm: every bench-side send delivered",
            got == CALLS,
            format!("{got} of {CALLS} delivered"),
        ));
        ns
    });
    src.close();
    dst.close();
    broker.shutdown();
    let live = broker.store().len();
    checks.push(Check::new(
        "comm: object store empty at exit",
        live == 0,
        format!("{live} objects live"),
    ));
    ns
}

/// Bench-side layer timings for a training workload.
pub fn training(config: &DeploymentConfig, layers: &mut Layers, checks: &mut Vec<Check>) {
    let mut cfg = AtariGame::BeamRider.config().with_step_latency_us(0);
    if let Some(dim) = config.obs_dim_override {
        cfg = cfg.with_obs_dim(dim);
    }
    let mut env = SynthAtari::with_config(cfg, config.seed);
    let (obs_dim, actions) = (env.observation_dim(), env.num_actions());
    let mut rng = StdRng::seed_from_u64(config.seed);
    env.reset();
    let step_ns = time_ns(|_| {
        let r = env.step(rng.gen_range(0..actions));
        if r.done {
            env.reset();
        }
        black_box(r);
    });
    layers.put("envs.step_ns", step_ns);

    // The explorer's policy forward: one 512-float row through the net the
    // algorithm acts with.
    let net = Mlp::new(&[obs_dim, 64, 64, actions], Activation::Relu, config.seed);
    let rows: Vec<Vec<f32>> = (0..16).map(|_| env.reset()).collect();
    let mut ws = Workspace::new();
    layers.put(
        "nn.act_forward_ns",
        time_ns(|i| {
            black_box(net.forward_ws(&rows[i % rows.len()], 1, &mut ws));
        }),
    );

    // Rollout bodies as the explorer encodes them; how many would the LZ4
    // offload shrink?
    let bodies: Vec<Bytes> = generate_rollouts(config, 4)
        .iter()
        .map(|b| Bytes::from(b.to_bytes()))
        .collect();
    let threshold = match config.comm.compression {
        xingtian_comm::Compression::Threshold(t) => t,
        xingtian_comm::Compression::Off => usize::MAX,
    };
    let attempts = bodies.iter().filter(|b| b.len() > threshold).count();
    let useful = bodies
        .iter()
        .filter(|b| b.len() > threshold)
        .filter(|b| {
            xingtian_message::compress_body_with_threshold((*b).clone(), threshold)
                .0
                .len()
                < b.len()
        })
        .count();
    layers.put(
        "message.compress_useful_frac",
        if attempts == 0 {
            0.0
        } else {
            useful as f64 / attempts as f64
        },
    );

    // The learner's parameter broadcast in the workload's encoding.
    let algo = build_algorithm(
        &config.algorithm,
        obs_dim,
        actions,
        config.total_explorers(),
        config.rollout_len,
        config.seed,
    );
    let blob = algo.param_blob();
    let dst: Vec<u32> = (0..config.total_explorers()).collect();
    let mut bc = ParamBroadcaster::new(config.comm.param_compression, &Telemetry::disabled());
    let mut bytes = 0;
    layers.put(
        "message.param_encode_ns",
        time_ns(|_| {
            bytes = bc.encode(&blob, &dst).body.len();
        }),
    );
    layers.put("message.param_bytes", bytes as f64);

    layers.put(
        "comm.send_ns",
        time_send(bodies[0].clone(), MessageKind::Rollout, checks),
    );
}

/// Bench-side layer timings for `serve-swap`.
pub fn serving(seed: u64, layers: &mut Layers, checks: &mut Vec<Check>) {
    use crate::serve::{blob, observation_pool, ACTIONS, HIDDEN, OBS_DIM, ROWS};
    let sizes = [OBS_DIM, HIDDEN[0], HIDDEN[1], ACTIONS];
    let mut net = Mlp::new(&sizes, Activation::Relu, 0);
    net.set_params(&blob(1, seed).params);
    let pool = observation_pool(seed, 0);
    let mut ws = Workspace::new();
    for rows in [64usize, 128, 256] {
        let x: Vec<f32> = pool
            .iter()
            .flatten()
            .copied()
            .cycle()
            .take(rows * OBS_DIM)
            .collect();
        layers.put(
            &format!("nn.serve_forward_{rows}_ns"),
            time_ns(|_| {
                black_box(net.forward_ws(&x, rows, &mut ws));
            }),
        );
    }

    // One hot swap's frame: the v1 -> v2 delta, int8-quantized.
    let (v1, v2) = (blob(1, seed).params, blob(2, seed).params);
    let deltas: Vec<f32> = v2.iter().zip(&v1).map(|(a, b)| a - b).collect();
    let mut recon = Vec::new();
    let mut bytes = 0;
    layers.put(
        "message.param_encode_ns",
        time_ns(|_| {
            bytes =
                xingtian_message::param::encode_delta_quantized_i8(2, 1, &deltas, &mut recon).len();
        }),
    );
    layers.put("message.param_bytes", bytes as f64);

    let req = InferRequest {
        request_id: 1,
        rows: ROWS,
        observations: pool[0].clone(),
    };
    layers.put(
        "comm.send_ns",
        time_send(
            Bytes::from(req.to_bytes()),
            MessageKind::InferRequest,
            checks,
        ),
    );
}
