//! First-order optimizers operating on flat parameter/gradient slices.

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr` for `num_params` parameters.
    pub fn new(num_params: usize, lr: f32) -> Self {
        Sgd { lr, momentum: 0.0, velocity: vec![0.0; num_params] }
    }

    /// SGD with momentum.
    pub fn with_momentum(num_params: usize, lr: f32, momentum: f32) -> Self {
        Sgd { lr, momentum, velocity: vec![0.0; num_params] }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (e.g. for schedules or PBT mutation).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update: `params -= lr * (momentum-filtered grads)`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with `num_params`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.velocity.len(), "param count mismatch");
        assert_eq!(grads.len(), self.velocity.len(), "grad count mismatch");
        for i in 0..params.len() {
            self.velocity[i] = self.momentum * self.velocity[i] + grads[i];
            params[i] -= self.lr * self.velocity[i];
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
///
/// The step uses the paper's efficient form: both bias corrections fold into
/// two per-step scalars, `α_t = lr·√(1−β₂ᵗ)/(1−β₁ᵗ)` and `ε̂ = ε·√(1−β₂ᵗ)`,
/// and each element does `θ −= α_t·m/(√v + ε̂)` — one sqrt and one divide.
/// A moment that decays below `f32::MIN_POSITIVE` is stored as zero. Without
/// that flush, the first moment of a parameter whose gradient is exactly zero
/// (a dead ReLU unit) turns subnormal a few hundred steps later and stays
/// so: once it is a few multiples of the smallest subnormal, `β₁·m` rounds
/// back to `m`. Every arithmetic operation on a subnormal takes a microcode
/// assist.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Adam with default betas (0.9, 0.999) and epsilon 1e-8.
    pub fn new(num_params: usize, lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: vec![0.0; num_params], v: vec![0.0; num_params] }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one Adam update.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with `num_params`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        self.step_with(crate::kernel::fma_available(), params, grads);
    }

    /// [`Adam::step`] with the element loop's build chosen by the caller
    /// (`use_avx2` only when [`crate::kernel::fma_available`] is), so tests
    /// can drive the portable build on AVX2 hardware.
    fn step_with(&mut self, use_avx2: bool, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.m.len(), "param count mismatch");
        assert_eq!(grads.len(), self.m.len(), "grad count mismatch");
        self.t += 1;
        let c = self.step_consts();
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            // SAFETY: `use_avx2` is only true when `fma_available()`
            // reported AVX2 (and FMA) support.
            unsafe { adam_avx2(c, params, grads, &mut self.m, &mut self.v) };
            return;
        }
        let _ = use_avx2;
        adam_body(c, params, grads, &mut self.m, &mut self.v);
    }

    /// The loop constants of step `self.t`. The bias-correction scalars are
    /// formed in f64 and rounded once: `1 − β₂ᵗ` cancels badly in f32 for
    /// small `t`.
    fn step_consts(&self) -> StepConsts {
        let t = self.t.min(i32::MAX as u64) as i32;
        let b1t = 1.0 - f64::from(self.beta1).powi(t);
        let sqrt_b2t = (1.0 - f64::from(self.beta2).powi(t)).sqrt();
        StepConsts {
            beta1: self.beta1,
            one_minus_beta1: 1.0 - self.beta1,
            beta2: self.beta2,
            one_minus_beta2: 1.0 - self.beta2,
            alpha: (f64::from(self.lr) * sqrt_b2t / b1t) as f32,
            eps_hat: (f64::from(self.eps) * sqrt_b2t) as f32,
        }
    }
}

/// Per-step constants of the Adam element loop.
#[derive(Debug, Clone, Copy)]
struct StepConsts {
    beta1: f32,
    one_minus_beta1: f32,
    beta2: f32,
    one_minus_beta2: f32,
    /// `lr·√(1−β₂ᵗ)/(1−β₁ᵗ)`.
    alpha: f32,
    /// `ε·√(1−β₂ᵗ)`.
    eps_hat: f32,
}

/// The Adam element loop, written once. It is inlined into each build below,
/// so the portable and AVX2 copies run the same operations in the same order:
/// Rust never contracts to FMA, and vector div and sqrt round correctly, so
/// both give bit-identical results.
#[inline(always)]
fn adam_body(c: StepConsts, params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32]) {
    for (((p, &g), m), v) in params.iter_mut().zip(grads).zip(m.iter_mut()).zip(v.iter_mut()) {
        let mi = c.beta1 * *m + c.one_minus_beta1 * g;
        let vi = c.beta2 * *v + c.one_minus_beta2 * (g * g);
        // Flush-to-zero for optimizer state only.
        let mi = if mi.abs() < f32::MIN_POSITIVE { 0.0 } else { mi };
        let vi = if vi < f32::MIN_POSITIVE { 0.0 } else { vi };
        *m = mi;
        *v = vi;
        // Divide first: m/(√v + ε̂) is usually far larger than m, so the
        // product with α_t stays normal while m itself is.
        *p -= c.alpha * (mi / (vi.sqrt() + c.eps_hat));
    }
}

/// [`adam_body`] compiled for 256-bit vectors.
///
/// # Safety
///
/// Caller must ensure AVX2 is available (see [`crate::kernel::fma_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn adam_avx2(c: StepConsts, params: &mut [f32], grads: &[f32], m: &mut [f32], v: &mut [f32]) {
    adam_body(c, params, grads, m, v);
}

/// Clips the gradient to a maximum global L2 norm, in place. Returns the
/// pre-clip norm. Standard stabilization for IMPALA/PPO training.
pub fn clip_global_norm(grads: &mut [f32], max_norm: f32) -> f32 {
    let norm = grads.iter().map(|g| g * g).sum::<f32>().sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            *g *= scale;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn sgd_moves_against_gradient() {
        let mut opt = Sgd::new(2, 0.1);
        let mut p = vec![1.0f32, -1.0];
        opt.step(&mut p, &[1.0, -1.0]);
        assert_eq!(p, vec![0.9, -0.9]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::with_momentum(1, 0.1, 0.9);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[1.0]); // v=1, p=-0.1
        opt.step(&mut p, &[1.0]); // v=1.9, p=-0.29
        assert!((p[0] + 0.29).abs() < 1e-6);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize f(x) = (x - 3)^2 starting from 0.
        let mut opt = Adam::new(1, 0.1);
        let mut p = vec![0.0f32];
        for _ in 0..500 {
            let g = 2.0 * (p[0] - 3.0);
            opt.step(&mut p, &[g]);
        }
        assert!((p[0] - 3.0).abs() < 0.05, "got {}", p[0]);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut opt = Adam::new(1, 0.01);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[123.0]);
        // With bias correction the first step is ≈ lr regardless of grad scale.
        assert!((p[0] + 0.01).abs() < 1e-4);
    }

    /// A gradient that is nonzero for 10 steps and then exactly zero: every
    /// first moment decays by β₁ per step down to `f32::MIN_POSITIVE` within
    /// the 1,000 zero steps. The ~1e-18 magnitudes put `v` below it from the
    /// first step.
    #[test]
    fn adam_state_never_goes_subnormal() {
        // Long enough for the vector loop and its scalar remainder.
        let pattern = [1.0f32, -0.5, 1e-3, 1e-18, -3e-19, 7.0];
        let grads: Vec<f32> = pattern.iter().copied().cycle().take(67).collect();
        let mut opt = Adam::new(grads.len(), 1e-3);
        let mut p = vec![0.5f32; grads.len()];
        let zeros = vec![0.0f32; grads.len()];
        for step in 0..1010 {
            opt.step(&mut p, if step < 10 { &grads } else { &zeros });
            for (i, (m, v)) in opt.m.iter().zip(&opt.v).enumerate() {
                assert!(!m.is_subnormal(), "m[{i}] = {m:e} subnormal after step {}", step + 1);
                assert!(!v.is_subnormal(), "v[{i}] = {v:e} subnormal after step {}", step + 1);
            }
            assert!(p.iter().all(|x| x.is_finite()));
        }
        // The decayed first moments reached zero; the second moments of the
        // large gradients are still alive (β₂¹⁰⁰⁰ ≈ 0.37).
        assert!(opt.m.iter().all(|&m| m == 0.0));
        assert!(opt.v[0] > 0.0 && opt.v[65] > 0.0);
    }

    /// Random gradients with exact zeros and tiny magnitudes mixed in, so
    /// both flush branches run.
    fn rand_grads(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n)
            .map(|_| match rng.gen_range(0..8) {
                0 | 1 => 0.0,
                2 => rng.gen_range(-1.0f32..1.0) * 1e-18,
                _ => rng.gen_range(-1.0f32..1.0) * 10f32.powi(rng.gen_range(-6..2)),
            })
            .collect()
    }

    #[test]
    fn adam_avx2_and_portable_builds_are_bit_identical() {
        if !crate::kernel::fma_available() {
            return;
        }
        // Odd length: both builds also run their scalar remainder.
        let n = 1027;
        let mut rng = StdRng::seed_from_u64(17);
        let init: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let (mut pa, mut pb) = (init.clone(), init);
        let mut a = Adam::new(n, 1e-3);
        let mut b = Adam::new(n, 1e-3);
        for step in 0..200 {
            let g = rand_grads(&mut rng, n);
            a.step_with(true, &mut pa, &g);
            b.step_with(false, &mut pb, &g);
            for (name, x, y) in [("params", &pa, &pb), ("m", &a.m, &b.m), ("v", &a.v, &b.v)] {
                let same = x.iter().zip(y.iter()).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "{name} differ between builds after step {}", step + 1);
            }
        }
    }

    /// One step from random optimizer state against textbook Adam in f64
    /// (`θ −= lr·m̂/(√v̂ + ε)`, hyperparameters widened from the optimizer's
    /// f32 values). Errors in `m` and in the update are measured against the
    /// magnitude of the terms that form them, so cancellation in
    /// `β₁m + (1−β₁)g` does not masquerade as error.
    #[test]
    fn adam_step_matches_f64_reference() {
        const TOL: f64 = 1e-5;
        let n = 4096;
        let lr = 1e-3f32;
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..20 {
            let mut opt = Adam::new(n, lr);
            let t = rng.gen_range(1..5000u64);
            opt.t = t - 1;
            for (m, v) in opt.m.iter_mut().zip(opt.v.iter_mut()) {
                *m = rng.gen_range(-1.0f32..1.0) * 10f32.powi(rng.gen_range(-5..0));
                *v = rng.gen_range(0.0f32..1.0) * 10f32.powi(rng.gen_range(-10..-2)) + 1e-12;
            }
            let (m0, v0) = (opt.m.clone(), opt.v.clone());
            let g: Vec<f32> =
                (0..n).map(|_| rng.gen_range(-1.0f32..1.0) * 10f32.powi(rng.gen_range(-5..1))).collect();
            // θ = 0 makes the new parameter exactly minus the f32 update.
            let mut p = vec![0.0f32; n];
            opt.step(&mut p, &g);

            let (b1, b2) = (f64::from(opt.beta1), f64::from(opt.beta2));
            let (lr, eps) = (f64::from(lr), f64::from(opt.eps));
            let b1t = 1.0 - b1.powi(t as i32);
            let b2t = 1.0 - b2.powi(t as i32);
            for i in 0..n {
                let (m0, v0, g) = (f64::from(m0[i]), f64::from(v0[i]), f64::from(g[i]));
                let m = b1 * m0 + (1.0 - b1) * g;
                let v = b2 * v0 + (1.0 - b2) * g * g;
                let m_scale = b1 * m0.abs() + (1.0 - b1) * g.abs();
                let denom = (v / b2t).sqrt() + eps;
                let update = lr * (m / b1t) / denom;
                let update_scale = lr * (m_scale / b1t) / denom;
                let (m32, v32, u32) = (f64::from(opt.m[i]), f64::from(opt.v[i]), -f64::from(p[i]));
                assert!((m32 - m).abs() <= TOL * m_scale, "m[{i}] at t={t}: {m32:e} vs {m:e}");
                assert!((v32 - v).abs() <= TOL * v, "v[{i}] at t={t}: {v32:e} vs {v:e}");
                assert!(
                    (u32 - update).abs() <= TOL * update_scale,
                    "update[{i}] at t={t}: {u32:e} vs {update:e}"
                );
            }
        }
    }

    #[test]
    fn clip_global_norm_scales_down() {
        let mut g = vec![3.0f32, 4.0]; // norm 5
        let norm = clip_global_norm(&mut g, 1.0);
        assert!((norm - 5.0).abs() < 1e-6);
        let new_norm = g.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((new_norm - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clip_global_norm_leaves_small_grads() {
        let mut g = vec![0.1f32, 0.1];
        clip_global_norm(&mut g, 10.0);
        assert_eq!(g, vec![0.1, 0.1]);
    }

    #[test]
    #[should_panic(expected = "param count mismatch")]
    fn sgd_size_mismatch_panics() {
        let mut opt = Sgd::new(2, 0.1);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[0.0]);
    }
}
