//! Channel integration tests: compression over the simulated NIC, fabric
//! reconfiguration, and memory accounting under broadcast fan-out.

use bytes::Bytes;
use netsim::{Cluster, ClusterSpec};
use std::time::Duration;
use xingtian_comm::{connect_brokers, Broker, CommConfig, Compression};
use xingtian_message::{MessageKind, ProcessId};

fn compressible_payload(len: usize) -> Bytes {
    // Small dynamic range of f32-like words: LZ4 compresses this heavily.
    let mut v = Vec::with_capacity(len);
    for i in 0..len / 4 {
        v.extend_from_slice(&((i % 7) as f32).to_le_bytes());
    }
    v.resize(len, 0);
    Bytes::from(v)
}

#[test]
fn compression_reduces_nic_traffic() {
    let spec = ClusterSpec::default().machines(2).nic_bandwidth(1e9).latency_secs(0.0);
    let payload = compressible_payload(4 * 1024 * 1024);

    let mut wire_bytes = Vec::new();
    for compression in [Compression::Off, Compression::Threshold(1 << 20)] {
        let cluster = Cluster::new(spec.clone());
        let b0 = Broker::new(0, cluster.clone(), CommConfig { compression, ..CommConfig::default() });
        let b1 = Broker::new(1, cluster, CommConfig { compression, ..CommConfig::default() });
        let learner = b0.endpoint(ProcessId::learner(0));
        let explorer = b1.endpoint(ProcessId::explorer(0));
        connect_brokers(&[b0.clone(), b1.clone()]);

        explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, payload.clone());
        let got = learner.recv_timeout(Duration::from_secs(10)).expect("delivered");
        assert_eq!(got.body, payload, "payload survives compression round trip");
        wire_bytes.push(b1.cluster().machine(1).tx().stats().bytes());
        drop(explorer);
        drop(learner);
        b0.shutdown();
        b1.shutdown();
    }
    assert_eq!(wire_bytes[0], payload.len() as u64, "uncompressed sends raw bytes");
    assert!(
        wire_bytes[1] < wire_bytes[0] / 4,
        "LZ4 should shrink the wire traffic 4x+: {} vs {}",
        wire_bytes[1],
        wire_bytes[0]
    );
}

#[test]
fn endpoints_added_after_connection_become_routable() {
    let cluster = Cluster::new(ClusterSpec::default().machines(2).nic_bandwidth(1e9).latency_secs(0.0));
    let b0 = Broker::new(0, cluster.clone(), CommConfig::default());
    let b1 = Broker::new(1, cluster, CommConfig::default());
    connect_brokers(&[b0.clone(), b1.clone()]);

    // New processes join after the fabric exists; re-running connect_brokers
    // merges the fresh routes without duplicating uplinks.
    let learner = b0.endpoint(ProcessId::learner(0));
    let explorer = b1.endpoint(ProcessId::explorer(0));
    connect_brokers(&[b0.clone(), b1.clone()]);

    explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from_static(b"late"));
    let got = learner.recv_timeout(Duration::from_secs(10)).expect("late route works");
    assert_eq!(&got.body[..], b"late");
    drop(explorer);
    drop(learner);
    b0.shutdown();
    b1.shutdown();
}

#[test]
fn broadcast_keeps_one_resident_copy() {
    // Fan-out to many explorers must not multiply resident memory: one body
    // in the store regardless of destination count, freed after the last
    // fetch (the paper's "no significant extra memory overheads").
    let broker = Broker::new(0, Cluster::single(), CommConfig::uncompressed());
    let learner = broker.endpoint(ProcessId::learner(0));
    let explorers: Vec<_> = (0..8).map(|i| broker.endpoint(ProcessId::explorer(i))).collect();
    let body = Bytes::from(vec![1u8; 1024 * 1024]);
    learner.send_to((0..8).map(ProcessId::explorer).collect(), MessageKind::Parameters, body.clone());

    // While in flight, the store never holds more than one copy.
    let mut peak = 0;
    for e in &explorers {
        let m = e.recv_timeout(Duration::from_secs(10)).expect("broadcast arrives");
        assert_eq!(m.body.len(), body.len());
        peak = peak.max(broker.store().peak_bytes());
    }
    assert!(
        peak <= 2 * body.len(),
        "store held {} bytes for an 8-way broadcast of {}",
        peak,
        body.len()
    );
    drop(explorers);
    drop(learner);
    broker.shutdown();
}

#[test]
fn large_blob_compression_does_not_stall_small_messages() {
    // A >1 MiB body used to be LZ4-compressed inline by the sender thread,
    // head-of-line blocking every message queued behind it. With the
    // compression offload thread, the large body detours through the broker's
    // offload queue while small messages flow straight to the store — so the
    // 100 small messages sent *after* the blob must overtake it.
    //
    // The order is pinned by events, not by how long compression takes: the
    // blob queues in the offload behind a plug (a compressible rollout, so it
    // takes the offload too) that cannot enter the store until the test
    // releases it. A parked body fills the store meanwhile: it is addressed to
    // a sink whose bounded receive buffer is kept full, so the sink's receiver
    // thread never fetches it.
    const PARKED: usize = 64 * 1024;
    let config = CommConfig::default().with_store_capacity(PARKED + 256);
    let sink_capacity = config.endpoint_recv_capacity.expect("bounded workhorse receive buffers");
    let broker = Broker::new(0, Cluster::single(), config);
    let explorer = broker.endpoint(ProcessId::explorer(0));
    let learner = broker.endpoint(ProcessId::learner(0));
    let sink = broker.endpoint(ProcessId::explorer(1));

    let to_sink = |body: Bytes| explorer.send_to(vec![ProcessId::explorer(1)], MessageKind::Rollout, body);
    // One more than the sink buffers: its receiver thread holds the last.
    for i in 0..=sink_capacity {
        to_sink(Bytes::from(vec![i as u8]));
    }
    to_sink(Bytes::from(vec![0u8; PARKED]));
    to_sink(compressible_payload(2 * 1024 * 1024));
    let sunk = sink_capacity + 3;

    let blob = compressible_payload(32 * 1024 * 1024);
    explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Parameters, blob.clone());
    for i in 0..100u8 {
        explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from(vec![i]));
    }

    let mut blob_rank = None;
    let mut smalls = 0usize;
    for rank in 0..101usize {
        if smalls == 100 {
            // Every small message is in: release the plug, and the blob.
            for _ in 0..sunk {
                sink.recv_timeout(Duration::from_secs(60)).expect("sink drains");
            }
        }
        let m = learner.recv_timeout(Duration::from_secs(60)).expect("all messages delivered");
        match m.header.kind {
            MessageKind::Parameters => {
                assert_eq!(m.body, blob, "blob survives the offload round trip");
                blob_rank = Some(rank);
            }
            _ => smalls += 1,
        }
    }
    assert_eq!(smalls, 100);
    let blob_rank = blob_rank.expect("blob delivered");
    // Pre-offload, the blob was always delivered at rank 0, and the small
    // messages never got past it while the plug held the sender.
    assert!(
        blob_rank >= 50,
        "large blob delivered at rank {blob_rank}; small messages were stalled behind its compression"
    );
    drop(explorer);
    drop(learner);
    drop(sink);
    broker.shutdown();
}

#[test]
fn chunk_parallel_channel_matches_serial_decode() {
    // Differential check at the channel level: a body large enough for many
    // chunks arrives byte-identical whether decompressed by the receiver's
    // pool-parallel path (in the channel) or decoded serially here from the
    // same container.
    let payload = compressible_payload(8 * 1024 * 1024);
    let container = xingtian_comm::pool::compress_chunked_parallel(
        xingtian_comm::pool::shared_pool(),
        &payload,
    );
    let serial = xingtian_message::chunk::decompress_chunked(&container).expect("serial decode");
    assert_eq!(Bytes::from(serial), payload);

    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let explorer = broker.endpoint(ProcessId::explorer(0));
    let learner = broker.endpoint(ProcessId::learner(0));
    explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, payload.clone());
    let got = learner.recv_timeout(Duration::from_secs(30)).expect("delivered");
    assert_eq!(got.body, payload, "channel (parallel) decode matches original");
    drop(explorer);
    drop(learner);
    broker.shutdown();
}

#[test]
fn bidirectional_traffic_flows_concurrently() {
    // Rollouts up, parameters down, both directions live at once.
    let broker = Broker::new(0, Cluster::single(), CommConfig::default());
    let learner = broker.endpoint(ProcessId::learner(0));
    let explorer = broker.endpoint(ProcessId::explorer(0));
    for i in 0..20u8 {
        explorer.send_to(vec![ProcessId::learner(0)], MessageKind::Rollout, Bytes::from(vec![i]));
        learner.send_to(vec![ProcessId::explorer(0)], MessageKind::Parameters, Bytes::from(vec![100 + i]));
    }
    for i in 0..20u8 {
        assert_eq!(learner.recv_timeout(Duration::from_secs(5)).unwrap().body[0], i);
        assert_eq!(explorer.recv_timeout(Duration::from_secs(5)).unwrap().body[0], 100 + i);
    }
    drop(explorer);
    drop(learner);
    broker.shutdown();
}

#[test]
fn broadcast_to_256_explorers_across_two_machines_drops_nothing() {
    // The control-plane stress case the fast path is built for: a learner on
    // machine 0 broadcasts parameters to 256 explorers split across two
    // machines, several rounds. Every explorer sees every round exactly once
    // and in order, nothing is dropped, and both object stores are empty once
    // all credits are consumed (128 local fetches + one uplink fetch on the
    // source; 128 fetches per envelope on the peer).
    const EXPLORERS: u32 = 256;
    const ROUNDS: u8 = 4;
    let cluster = Cluster::new(
        ClusterSpec::default().machines(2).nic_bandwidth(1e12).latency_secs(0.0),
    );
    let b0 = Broker::new(0, cluster.clone(), CommConfig::uncompressed());
    let b1 = Broker::new(1, cluster, CommConfig::uncompressed());
    let learner = b0.endpoint(ProcessId::learner(0));
    let explorers: Vec<_> = (0..EXPLORERS)
        .map(|i| {
            let broker = if i % 2 == 0 { &b0 } else { &b1 };
            broker.endpoint(ProcessId::explorer(i))
        })
        .collect();
    connect_brokers(&[b0.clone(), b1.clone()]);

    let dst: Vec<ProcessId> = (0..EXPLORERS).map(ProcessId::explorer).collect();
    for round in 0..ROUNDS {
        assert!(learner.send_to(
            dst.clone(),
            MessageKind::Parameters,
            Bytes::from(vec![round; 1024]),
        ));
    }
    for e in &explorers {
        for round in 0..ROUNDS {
            let m = e
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|| panic!("{} missed round {round}", e.pid()));
            assert_eq!(m.body[0], round, "rounds arrive in order at {}", e.pid());
            assert_eq!(m.body.len(), 1024);
        }
        assert!(e.try_recv().is_none(), "exactly one copy per round at {}", e.pid());
    }
    assert_eq!(b0.dropped(), 0, "source broker dropped nothing");
    assert_eq!(b1.dropped(), 0, "peer broker dropped nothing");
    assert!(b0.store().is_empty(), "every source-store credit was consumed");
    assert!(b1.store().is_empty(), "every peer-store credit was consumed");

    drop(learner);
    drop(explorers);
    b0.shutdown();
    b1.shutdown();
}
