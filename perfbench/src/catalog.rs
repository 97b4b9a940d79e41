//! Every metric the benchmark prints, with its unit. `BENCHMARK.json`
//! declares the same two lists; the contract test keeps them equal.

/// End-to-end metrics, printed by every workload with `--trace 0`.
///
/// What each one measures on each workload:
///
/// | metric             | impala-2m               | dqn-replay                   | serve-swap                       |
/// |--------------------|-------------------------|------------------------------|----------------------------------|
/// | `setup_s`          | entry → first session   | entry → first session        | fleet start → first reply        |
/// | `throughput_per_s` | learner steps/s         | learner steps/s              | knee rows/s                      |
/// | `latency_p50_ms`   | rollout delivery p50    | learner update interval p50  | request e2e p50 at the base rate |
/// | `peak_rss_mb`      | peak resident memory    | peak resident memory         | peak resident memory             |
///
/// `setup_s` is the median over cold starts. On the training workloads it
/// also holds the deployment's teardown: `Deployment::run` reports the
/// learner's window but nothing that splits the time outside it. The dqn
/// update interval is read off the learner's session timeline, the same
/// one `throughput_per_s` counts, so there the two move together.
///
/// The matching p90 is printed beside each p50 but not declared: on a
/// shared 2-core host it spread by more than any bound a gate could use.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer
/// the workload leaves idle reads 0. Names start with the crate the layer
/// lives in; `_share` metrics are the layer's busy time over the window.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("envs.step_ns", "ns"),
    ("envs.step_share", "ratio"),
    ("nn.act_forward_ns", "ns"),
    ("nn.serve_forward_64_ns", "ns"),
    ("nn.serve_forward_128_ns", "ns"),
    ("nn.serve_forward_256_ns", "ns"),
    ("algos.act_ns_p50", "ns"),
    ("algos.act_ns_p99", "ns"),
    ("algos.act_count", "count"),
    ("algos.act_share", "ratio"),
    ("algos.decode_ns_p50", "ns"),
    ("algos.decode_count", "count"),
    ("algos.decode_share", "ratio"),
    ("algos.train_ns_p50", "ns"),
    ("algos.train_ns_p99", "ns"),
    ("algos.train_count", "count"),
    ("algos.train_share", "ratio"),
    ("message.compress_ns_p50", "ns"),
    ("message.compress_count", "count"),
    ("message.compress_ratio", "ratio"),
    ("message.compress_useful_frac", "ratio"),
    ("message.compress_share", "ratio"),
    ("message.param_encode_ns", "ns"),
    ("message.param_bytes", "bytes"),
    ("comm.send_ns", "ns"),
    ("comm.serialize_ns_p50", "ns"),
    ("comm.serialize_ns_p99", "ns"),
    ("comm.store_ns_p50", "ns"),
    ("comm.store_ns_p99", "ns"),
    ("comm.route_ns_p50", "ns"),
    ("comm.route_ns_p99", "ns"),
    ("comm.wait_ns_p50", "ns"),
    ("comm.wait_ns_p99", "ns"),
    ("comm.spans", "count"),
    ("comm.messages_per_s", "1/s"),
    ("comm.wire_bytes_per_step", "bytes"),
    ("comm.backpressure_waits", "count"),
    ("comm.dropped", "count"),
    ("netsim.nic_ns_p50", "ns"),
    ("netsim.nic_busy_frac", "ratio"),
    ("netsim.uplink_bytes_per_step", "bytes"),
    ("replay.ingest_ns_p50", "ns"),
    ("replay.ingest_count", "count"),
    ("replay.ingest_share", "ratio"),
    ("replay.sample_ns_p50", "ns"),
    ("replay.sample_count", "count"),
    ("replay.sample_share", "ratio"),
    ("replay.occupancy", "ratio"),
    ("core.learner_wait_ns_p50", "ns"),
    ("core.learner_wait_ns_p90", "ns"),
    ("core.learner_wait_share", "ratio"),
    ("core.param_full_sends", "count"),
    ("core.param_delta_sends", "count"),
    ("serve.queue_us_p50", "us"),
    ("serve.queue_us_p99", "us"),
    ("serve.infer_us_p50", "us"),
    ("serve.infer_us_p99", "us"),
    ("serve.infer_share", "ratio"),
    ("serve.batch_rows_p50", "rows"),
    ("serve.requests", "count"),
    ("serve.sheds", "count"),
    ("serve.swaps", "count"),
    ("serve.client_send_ns_p50", "ns"),
    ("serve.gen_lag_us_p50", "us"),
    ("serve.gen_lag_us_p99", "us"),
    ("telemetry.overhead_frac", "ratio"),
    ("telemetry.dropped_events", "count"),
];

/// The workloads, in the order `BENCHMARK.json` declares them; why each
/// was chosen is written there.
pub const WORKLOADS: &[&str] = &["impala-2m", "dqn-replay", "serve-swap"];

/// True when `name` is a well-formed metric name: starts with a letter or
/// digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}
