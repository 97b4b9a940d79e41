//! The replay plane: sharded transition storage plus sampling indices.
//!
//! A [`ReplayPlane`] is the store-resident twin of the in-learner replay
//! buffers. Transition number `t` lands in global ring slot `g = t mod
//! capacity`, which maps to shard `g mod S`, arena slot `g div S` — for `S`
//! dividing the capacity this is exactly a re-indexing of the single
//! in-learner ring, which is what makes uniform sampling here *bit-identical*
//! to [`xingtian_algos::ReplayBuffer`] under the same RNG: one
//! `gen_range(0..len)` per pick, addressing the same transition the legacy
//! ring would have returned. The prioritized index is a single plane-global
//! sum tree keyed by global slot, running the exact draw/weight arithmetic of
//! [`xingtian_algos::PrioritizedReplay`] with the same wraparound-stale
//! sequence guard.

use crate::arena::TransitionArena;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;
use xingtian_algos::payload::RolloutBatch;
use xingtian_algos::sumtree::SumTree;
use xingtian_algos::SampleSink;
use xt_telemetry::{GaugeHandle, HistogramHandle, Telemetry};

/// Construction parameters of a [`ReplayPlane`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Maximum resident transitions across all shards.
    pub capacity: usize,
    /// Observation dimension (fixed per deployment).
    pub obs_dim: usize,
    /// Shard count; `0` picks the largest power of two ≤ 8 dividing
    /// `capacity`. Must divide `capacity` when non-zero.
    pub shards: usize,
    /// Priority exponent α for prioritized sampling; `None` = uniform only.
    pub prioritized: Option<f64>,
}

impl ReplayConfig {
    /// Uniform-sampling plane of `capacity` transitions.
    pub fn uniform(capacity: usize, obs_dim: usize) -> Self {
        ReplayConfig { capacity, obs_dim, shards: 0, prioritized: None }
    }

    /// Prioritized plane with exponent `alpha`.
    pub fn prioritized(capacity: usize, obs_dim: usize, alpha: f64) -> Self {
        ReplayConfig { capacity, obs_dim, shards: 0, prioritized: Some(alpha) }
    }
}

/// One prioritized sample's identity: global slot plus the insert sequence
/// number of its occupant at sample time (the wraparound guard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanePick {
    /// Global ring slot.
    pub slot: usize,
    /// Insert sequence number of the sampled occupant.
    pub seq: u64,
}

/// Occupancy report used by leak accounting (chaos tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayIntegrity {
    /// Transitions currently resident and sampleable.
    pub resident: usize,
    /// Transitions ingested over the plane's lifetime.
    pub total_inserted: u64,
    /// Arena slots whose write began but never completed. Must be zero after
    /// any run — a non-zero count means an ingest was torn.
    pub dangling_slots: usize,
}

/// Prioritized sampling index: one sum tree over global slots.
#[derive(Debug)]
struct PrioIndex {
    tree: SumTree,
    /// Insert sequence number of each global slot's occupant.
    seq: Vec<u64>,
    max_priority: f64,
    alpha: f64,
}

/// Store-resident replay storage shared between the ingest service and the
/// learner's sampling backend.
#[derive(Debug)]
pub struct ReplayPlane {
    capacity: usize,
    obs_dim: usize,
    shard_count: usize,
    shards: Vec<Mutex<TransitionArena>>,
    /// Transitions fully ingested (insert sequence numbers `0..committed`
    /// are readable).
    committed: AtomicU64,
    /// Set while a wake-up notice is on its way to the learner; cleared when
    /// the learner reads the insert count (see [`ReplayPlane::claim_notice`]).
    notice_in_flight: AtomicBool,
    batches: AtomicU64,
    prio: Option<Mutex<PrioIndex>>,
    ingest_hist: HistogramHandle,
    sample_hist: HistogramHandle,
    occupancy: GaugeHandle,
}

/// Largest power of two ≤ 8 that divides `capacity`.
fn auto_shards(capacity: usize) -> usize {
    [8, 4, 2].into_iter().find(|s| capacity.is_multiple_of(*s)).unwrap_or(1)
}

impl ReplayPlane {
    /// Builds a plane, registering its `replay.*` instruments on `telemetry`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `obs_dim` is zero, or `shards` does not divide
    /// `capacity`.
    pub fn new(config: ReplayConfig, telemetry: &Telemetry) -> Self {
        assert!(config.capacity > 0, "capacity must be positive");
        let shard_count = if config.shards == 0 { auto_shards(config.capacity) } else { config.shards };
        assert!(
            config.capacity.is_multiple_of(shard_count),
            "shard count {shard_count} must divide capacity {}",
            config.capacity
        );
        let slots = config.capacity / shard_count;
        ReplayPlane {
            capacity: config.capacity,
            obs_dim: config.obs_dim,
            shard_count,
            shards: (0..shard_count).map(|_| Mutex::new(TransitionArena::new(slots, config.obs_dim))).collect(),
            committed: AtomicU64::new(0),
            notice_in_flight: AtomicBool::new(false),
            batches: AtomicU64::new(0),
            prio: config.prioritized.map(|alpha| {
                assert!(alpha >= 0.0, "alpha must be non-negative");
                Mutex::new(PrioIndex {
                    tree: SumTree::new(config.capacity),
                    seq: vec![u64::MAX; config.capacity],
                    max_priority: 1.0,
                    alpha,
                })
            }),
            ingest_hist: telemetry.histogram("replay.ingest_ns"),
            sample_hist: telemetry.histogram("replay.sample_ns"),
            occupancy: telemetry.gauge("replay.occupancy"),
        }
    }

    /// Maximum resident transitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Observation dimension every transition must match.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Number of storage shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// True when the plane samples proportional to priority.
    pub fn prioritized(&self) -> bool {
        self.prio.is_some()
    }

    /// Resident, sampleable transitions.
    pub fn len(&self) -> usize {
        (self.committed.load(Ordering::Acquire).min(self.capacity as u64)) as usize
    }

    /// True when nothing has been ingested yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Transitions ingested over the plane's lifetime.
    pub fn total_inserted(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// The learner's read of [`ReplayPlane::total_inserted`]: having looked,
    /// the learner needs a fresh wake-up notice for later inserts only.
    pub fn observe_inserted(&self) -> u64 {
        self.notice_in_flight.swap(false, Ordering::AcqRel);
        self.committed.load(Ordering::Acquire)
    }

    /// Called by the ingest service after an ingest: true if it should send
    /// the learner a wake-up notice, false if one sent earlier has not been
    /// looked at yet. At most one notice is in flight, so a learner slower
    /// than its explorers is not buried under wake-ups.
    ///
    /// No insert goes unnoticed: a `false` here means an earlier notice is
    /// still undelivered or unread, and the learner's next
    /// [`ReplayPlane::observe_inserted`] swap comes after this one and sees
    /// this ingest's count.
    pub fn claim_notice(&self) -> bool {
        !self.notice_in_flight.swap(true, Ordering::AcqRel)
    }

    /// Rollout batches ingested over the plane's lifetime.
    pub fn batches_ingested(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Ingests every usable transition of `batch` (same eligibility rule as
    /// the in-learner backends: a step needs a successor state or a terminal
    /// flag). Returns the number of transitions inserted.
    pub fn ingest_batch(&self, batch: &RolloutBatch) -> usize {
        let t0 = Instant::now();
        let mut t = self.committed.load(Ordering::Acquire);
        let mut inserted = 0usize;
        let mut prio = self.prio.as_ref().map(Mutex::lock);
        for step in &batch.steps {
            if step.next_observation.is_none() && !step.done {
                continue;
            }
            let g = (t % self.capacity as u64) as usize;
            self.shards[g % self.shard_count].lock().write(
                g / self.shard_count,
                &step.observation,
                step.next_observation.as_deref(),
                step.action,
                step.reward,
                step.done,
                t,
            );
            if let Some(prio) = prio.as_mut() {
                prio.seq[g] = t;
                let p = prio.max_priority.powf(prio.alpha);
                prio.tree.set(g, p);
            }
            t += 1;
            inserted += 1;
        }
        drop(prio);
        self.committed.store(t, Ordering::Release);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.occupancy.set(self.len() as i64);
        self.ingest_hist.record_duration(t0.elapsed());
        inserted
    }

    /// Gathers global slot `g` into `sink`.
    fn read_slot(&self, g: usize, sink: &mut dyn SampleSink) {
        self.shards[g % self.shard_count].lock().read_into(g / self.shard_count, sink);
    }

    /// Gathers `n` uniformly sampled transitions into `sink`, consuming
    /// exactly one `gen_range(0..len)` per transition (the trajectory-identity
    /// contract of [`xingtian_algos::ReplayBackend`]).
    ///
    /// # Panics
    ///
    /// Panics if the plane is empty.
    pub fn sample_uniform(&self, n: usize, rng: &mut StdRng, sink: &mut dyn SampleSink) {
        let t0 = Instant::now();
        let len = self.len();
        assert!(len > 0, "cannot sample from an empty replay plane");
        for _ in 0..n {
            let g = rng.gen_range(0..len);
            self.read_slot(g, sink);
        }
        self.sample_hist.record_duration(t0.elapsed());
    }

    /// Gathers `n` priority-sampled transitions (weights first, then the
    /// transition, per pick — the sink order of the in-learner backend) into
    /// `sink`, appending each pick's identity to `picks` for a following
    /// [`ReplayPlane::update_priorities`].
    ///
    /// # Panics
    ///
    /// Panics if the plane is empty or was not built prioritized.
    pub fn sample_prioritized(
        &self,
        n: usize,
        beta: f64,
        rng: &mut StdRng,
        sink: &mut dyn SampleSink,
        picks: &mut Vec<PlanePick>,
    ) {
        let t0 = Instant::now();
        let len = self.len();
        assert!(len > 0, "cannot sample from an empty replay plane");
        let prio = self.prio.as_ref().expect("plane was not built prioritized").lock();
        let total = prio.tree.total();
        let nf = len as f64;
        let mut draws = Vec::with_capacity(n);
        let mut max_w = f64::MIN_POSITIVE;
        for _ in 0..n {
            let idx = prio.tree.find(rng.gen_range(0.0..total));
            let p = prio.tree.get(idx) / total;
            let w = (nf * p).powf(-beta);
            max_w = max_w.max(w);
            draws.push((idx, w));
        }
        for (idx, w) in draws {
            picks.push(PlanePick { slot: idx, seq: prio.seq[idx] });
            sink.push_weight((w / max_w) as f32);
            self.read_slot(idx, sink);
        }
        drop(prio);
        self.sample_hist.record_duration(t0.elapsed());
    }

    /// Re-prioritizes `picks` with fresh |TD errors|, skipping picks whose
    /// slot has since been overwritten (the same stale-pick guard as
    /// [`xingtian_algos::PrioritizedReplay::update_priority`]).
    pub fn update_priorities(&self, picks: &[PlanePick], td: &[f32]) {
        let Some(prio) = &self.prio else { return };
        let mut prio = prio.lock();
        for (pick, &td) in picks.iter().zip(td) {
            if prio.seq[pick.slot] != pick.seq {
                continue;
            }
            let p = f64::from(td).abs().max(1e-6);
            prio.max_priority = prio.max_priority.max(p);
            let v = p.powf(prio.alpha);
            prio.tree.set(pick.slot, v);
        }
    }

    /// Occupancy and leak accounting across all shards.
    pub fn integrity(&self) -> ReplayIntegrity {
        let mut dangling = 0;
        for shard in &self.shards {
            dangling += shard.lock().dangling();
        }
        ReplayIntegrity {
            resident: self.len(),
            total_inserted: self.total_inserted(),
            dangling_slots: dangling,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use xingtian_algos::payload::RolloutStep;
    use xingtian_algos::{InLearnerReplay, ReplayBackend};

    #[derive(Debug, Default, PartialEq)]
    struct Flat {
        obs: Vec<f32>,
        next: Vec<f32>,
        has_next: Vec<bool>,
        actions: Vec<u32>,
        rewards: Vec<f32>,
        dones: Vec<bool>,
        weights: Vec<f32>,
    }

    impl SampleSink for Flat {
        fn push_transition(&mut self, o: &[f32], n: Option<&[f32]>, a: u32, reward: f32, d: bool) {
            self.obs.extend_from_slice(o);
            match n {
                Some(n) => {
                    self.next.extend_from_slice(n);
                    self.has_next.push(true);
                }
                None => {
                    self.next.extend(std::iter::repeat_n(0.0, o.len()));
                    self.has_next.push(false);
                }
            }
            self.actions.push(a);
            self.rewards.push(reward);
            self.dones.push(d);
        }
        fn push_weight(&mut self, w: f32) {
            self.weights.push(w);
        }
    }

    fn batch(start: usize, n: usize, dim: usize) -> RolloutBatch {
        RolloutBatch {
            explorer: 0,
            param_version: 0,
            steps: (start..start + n)
                .map(|i| RolloutStep {
                    observation: vec![i as f32; dim],
                    action: (i % 4) as u32,
                    reward: i as f32 * 0.5,
                    done: i.is_multiple_of(7),
                    behavior_logits: vec![],
                    value: 0.0,
                    next_observation: (!i.is_multiple_of(5)).then(|| vec![i as f32 + 1.0; dim]),
                })
                .collect(),
            bootstrap_observation: vec![],
        }
    }

    #[test]
    fn auto_sharding_divides_capacity() {
        for (cap, expect) in [(16, 8), (12, 4), (10, 2), (7, 1)] {
            let plane =
                ReplayPlane::new(ReplayConfig { capacity: cap, obs_dim: 1, shards: 0, prioritized: None }, &Telemetry::disabled());
            assert_eq!(plane.shard_count(), expect, "capacity {cap}");
        }
    }

    #[test]
    fn uniform_sampling_is_identical_to_in_learner_ring() {
        // Same ingest sequence (with wraparound), same seed → the plane and
        // the legacy in-learner ring must produce identical sample streams.
        let dim = 3;
        let plane = ReplayPlane::new(ReplayConfig::uniform(24, dim), &Telemetry::disabled());
        let mut legacy = InLearnerReplay::uniform(24);
        for b in 0..4 {
            let batch = batch(b * 17, 17, dim);
            plane.ingest_batch(&batch);
            legacy.ingest(batch);
        }
        assert_eq!(plane.len(), legacy.len());
        assert_eq!(plane.total_inserted(), legacy.total_inserted());

        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let (mut a, mut b) = (Flat::default(), Flat::default());
        plane.sample_uniform(256, &mut rng_a, &mut a);
        legacy.sample_uniform(256, &mut rng_b, &mut b);
        assert_eq!(a, b, "uniform trajectories diverged");
    }

    #[test]
    fn prioritized_sampling_is_identical_to_in_learner_buffer() {
        // Interleave ingest / sample / priority-update on both placements and
        // require identical streams throughout — including after wraparound.
        let dim = 2;
        let plane = ReplayPlane::new(ReplayConfig::prioritized(16, dim, 0.6), &Telemetry::disabled());
        let mut legacy = InLearnerReplay::prioritized(16, 0.6);
        let mut picks = Vec::new();
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        for round in 0..6 {
            let b = batch(round * 9, 9, dim);
            plane.ingest_batch(&b);
            legacy.ingest(b);
            let (mut a, mut l) = (Flat::default(), Flat::default());
            picks.clear();
            plane.sample_prioritized(32, 0.4, &mut rng_a, &mut a, &mut picks);
            legacy.sample_prioritized(32, 0.4, &mut rng_b, &mut l);
            assert_eq!(a, l, "round {round}: prioritized streams diverged");
            let td: Vec<f32> = a.rewards.iter().map(|r| r * 0.1 + 0.01).collect();
            plane.update_priorities(&picks, &td);
            legacy.update_priorities(&td);
        }
    }

    #[test]
    fn integrity_reports_no_dangling_slots() {
        let plane = ReplayPlane::new(ReplayConfig::uniform(8, 1), &Telemetry::disabled());
        plane.ingest_batch(&batch(1, 20, 1));
        let report = plane.integrity();
        assert_eq!(report.dangling_slots, 0);
        assert_eq!(report.resident, 8);
        assert!(report.total_inserted >= 8);
    }

    #[test]
    fn one_notice_in_flight_until_the_learner_looks() {
        let plane = ReplayPlane::new(ReplayConfig::uniform(64, 1), &Telemetry::disabled());
        plane.ingest_batch(&batch(1, 4, 1));
        assert!(plane.claim_notice(), "the first ingest wakes the learner");
        plane.ingest_batch(&batch(6, 4, 1));
        assert!(!plane.claim_notice(), "the first notice is still unread");
        assert_eq!(plane.observe_inserted(), 8, "the learner's look covers both ingests");
        plane.ingest_batch(&batch(11, 4, 1));
        assert!(plane.claim_notice(), "inserts after the look need a new notice");
    }

    #[test]
    #[should_panic(expected = "empty replay plane")]
    fn sampling_empty_plane_panics() {
        let plane = ReplayPlane::new(ReplayConfig::uniform(8, 1), &Telemetry::disabled());
        let mut sink = Flat::default();
        plane.sample_uniform(1, &mut StdRng::seed_from_u64(0), &mut sink);
    }
}
