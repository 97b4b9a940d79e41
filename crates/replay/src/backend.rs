//! The learner-side handle onto a [`ReplayPlane`].
//!
//! `StoreResidentBackend` implements [`ReplayBackend`] over a shared
//! [`ReplayPlane`], so `DqnAlgorithm` runs the exact same update math whether
//! its experience lives in-learner or in the communication layer. Sampling is
//! a direct gather from the plane's arenas into the algorithm's staging
//! buffers — the plane lives in the learner machine's address space, beside
//! the object store, so no message hop is involved.

use crate::plane::{PlanePick, ReplayPlane};
use rand::rngs::StdRng;
use std::sync::Arc;
use xingtian_algos::payload::RolloutBatch;
use xingtian_algos::{ReplayBackend, SampleSink};

/// [`ReplayBackend`] over a shared, store-resident [`ReplayPlane`].
#[derive(Debug)]
pub struct StoreResidentBackend {
    plane: Arc<ReplayPlane>,
    /// Picks of the last prioritized sample, for re-prioritization.
    picks: Vec<PlanePick>,
}

impl StoreResidentBackend {
    /// Wraps a plane (typically shared with a running replay service).
    pub fn new(plane: Arc<ReplayPlane>) -> Self {
        StoreResidentBackend { plane, picks: Vec::new() }
    }

    /// The shared plane.
    pub fn plane(&self) -> &Arc<ReplayPlane> {
        &self.plane
    }
}

impl ReplayBackend for StoreResidentBackend {
    fn ingest(&mut self, batch: RolloutBatch) -> Option<RolloutBatch> {
        // The plane copies transitions into its arenas; the batch's step
        // storage goes back to the caller for recycling.
        self.plane.ingest_batch(&batch);
        Some(batch)
    }

    fn len(&self) -> usize {
        self.plane.len()
    }

    fn total_inserted(&self) -> u64 {
        // The learner's training gate reads this; reading it is what a
        // wake-up notice asks for.
        self.plane.observe_inserted()
    }

    fn prioritized(&self) -> bool {
        self.plane.prioritized()
    }

    fn sample_uniform(&mut self, n: usize, rng: &mut StdRng, sink: &mut dyn SampleSink) {
        self.plane.sample_uniform(n, rng, sink);
    }

    fn sample_prioritized(&mut self, n: usize, beta: f64, rng: &mut StdRng, sink: &mut dyn SampleSink) {
        self.picks.clear();
        self.plane.sample_prioritized(n, beta, rng, sink, &mut self.picks);
    }

    fn update_priorities(&mut self, td: &[f32]) {
        self.plane.update_priorities(&self.picks, td);
    }

    fn placement(&self) -> &'static str {
        "store-resident"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::ReplayConfig;
    use rand::SeedableRng;
    use xingtian_algos::payload::RolloutStep;
    use xt_telemetry::Telemetry;

    struct CountSink(usize, usize);

    impl SampleSink for CountSink {
        fn push_transition(&mut self, _o: &[f32], _n: Option<&[f32]>, _a: u32, _r: f32, _d: bool) {
            self.0 += 1;
        }
        fn push_weight(&mut self, _w: f32) {
            self.1 += 1;
        }
    }

    fn batch(n: usize) -> RolloutBatch {
        RolloutBatch {
            explorer: 0,
            param_version: 0,
            steps: (0..n)
                .map(|i| RolloutStep {
                    observation: vec![i as f32],
                    action: 0,
                    reward: i as f32,
                    done: false,
                    behavior_logits: vec![],
                    value: 0.0,
                    next_observation: Some(vec![i as f32 + 1.0]),
                })
                .collect(),
            bootstrap_observation: vec![],
        }
    }

    #[test]
    fn backend_returns_batch_for_recycling() {
        let plane = Arc::new(ReplayPlane::new(ReplayConfig::uniform(64, 1), &Telemetry::disabled()));
        let mut backend = StoreResidentBackend::new(plane.clone());
        let returned = backend.ingest(batch(10)).expect("store-resident ingest copies");
        assert_eq!(returned.len(), 10, "step storage comes back intact");
        assert_eq!(backend.len(), 10);
        assert_eq!(backend.total_inserted(), 10);
        assert_eq!(backend.placement(), "store-resident");
        let mut sink = CountSink(0, 0);
        backend.sample_uniform(32, &mut StdRng::seed_from_u64(0), &mut sink);
        assert_eq!((sink.0, sink.1), (32, 0));
    }

    #[test]
    fn prioritized_roundtrip_through_backend() {
        let plane = Arc::new(ReplayPlane::new(ReplayConfig::prioritized(64, 1, 0.6), &Telemetry::disabled()));
        let mut backend = StoreResidentBackend::new(plane);
        backend.ingest(batch(16));
        assert!(backend.prioritized());
        let mut sink = CountSink(0, 0);
        backend.sample_prioritized(8, 0.4, &mut StdRng::seed_from_u64(1), &mut sink);
        assert_eq!((sink.0, sink.1), (8, 8));
        backend.update_priorities(&[0.5; 8]);
    }
}
