//! Cache-blocked, register-tiled f32 matmul kernels and fused layer ops.
//!
//! All three GEMM orientations the MLP needs are covered, each shaped so the
//! innermost loop is a fixed-width multiply-accumulate over contiguous memory
//! that LLVM autovectorizes:
//!
//! * [`gemm_nn`] — `C = A × B` (forward pass). `MR × NR` output tiles are
//!   accumulated in registers while streaming rows of `B`.
//! * [`gemm_nt`] — `C = A × Bᵀ` (backward `dX = δ × Wᵀ`). Since the dot-product
//!   orientation reads `B` row-wise, `NR` rows of `B` are first packed into an
//!   interleaved column panel so the inner loop regains the broadcast-×-vector
//!   shape of `gemm_nn`.
//! * [`gemm_tn`] — `C = Aᵀ × B` (backward `dW = Xᵀ × δ`). The reduction runs
//!   over the batch dimension with the output tile held in registers.
//!
//! Fused layer ops keep the training step down to one memory pass per tensor:
//! [`gemm_bias_act`] applies bias and activation on the output tile while it
//! is still cache-hot, and [`act_grad_mul`] folds the activation derivative
//! into the backpropagated delta in place.
//!
//! # Row kernel and batch invariance
//!
//! An explorer's `act` is a one-row forward, so `m % MR` remainder rows are
//! the inference hot path, not an edge case. With AVX2+FMA, [`gemm_bias_act`]
//! sends every remainder row through a row microkernel that keeps up to 64
//! output columns in eight independent FMA accumulators, and the ragged
//! `nr < NR` columns of whole row blocks (small heads such as 9 logits or 1
//! value) through the FMA tile with its columns masked to `nr`. Both perform,
//! per output element, exactly the arithmetic of the full `MR × NR` FMA
//! tile: a fused multiply-add chain from zero over `t = 0..k` in order.
//! The portable kernels likewise share one per-element chain (unfused,
//! same order). So on either path a row's forward output is bit-identical
//! whether the row is computed alone or at any position in any batch:
//! explorers acting one row at a time and learners re-evaluating the same
//! rows in a training batch see the same numbers.
//!
//! Every kernel writes its full output (no read-modify-write), takes plain
//! slices, and allocates nothing — scratch space (the `gemm_nt` pack panel)
//! is caller-owned so steady-state training performs zero heap allocations.

use crate::mlp::Activation;

/// Register-tile height: rows of `A` (or columns of `Aᵀ`) per microkernel.
pub const MR: usize = 4;
/// Register-tile width: output columns per microkernel. Two 8-lane AVX
/// vectors; `MR × NR` f32 accumulators fit the 16 vector registers of both
/// AVX2 and NEON-class machines with room for the `B` row and broadcast.
pub const NR: usize = 16;
/// Output columns per row-kernel block: eight 8-lane FMA accumulators,
/// enough independent chains to cover the FMA latency on a single row.
const ROW_NC: usize = 64;

/// Explicit AVX2+FMA microkernels, used when the CPU supports them.
///
/// The portable microkernels below compile against the x86-64 baseline
/// (SSE2, no FMA), so autovectorization leaves most of a modern core idle.
/// These variants express the same `MR × NR` register tile directly with
/// 256-bit fused multiply-adds: 8 independent accumulators (4 rows × 2
/// vectors), one broadcast and two `B`-row loads per reduction step. The
/// choice is made once per process via CPUID (`is_x86_feature_detected!`
/// caches its answer), so every machine runs one kernel consistently and
/// training stays bitwise reproducible across runs and worker counts.
#[cfg(target_arch = "x86_64")]
mod fma {
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// Whether the AVX2+FMA microkernels may be called on this CPU.
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// FMA twin of [`super::micro_nn_full`].
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2+FMA are available (see [`available`]).
    /// Shape bounds are asserted.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn micro_nn(
        k: usize,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
        ldc: usize,
    ) {
        assert!(a.len() >= (MR - 1) * lda + k, "fma nn a slice too short");
        assert!(k == 0 || b.len() >= (k - 1) * ldb + NR, "fma nn b slice too short");
        assert!(out.len() >= (MR - 1) * ldc + NR, "fma nn out slice too short");
        unsafe {
            let ap = a.as_ptr();
            let mut bp = b.as_ptr();
            let mut acc = [[_mm256_setzero_ps(); 2]; MR];
            for t in 0..k {
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                for (r, accr) in acc.iter_mut().enumerate() {
                    let x = _mm256_set1_ps(*ap.add(r * lda + t));
                    accr[0] = _mm256_fmadd_ps(x, b0, accr[0]);
                    accr[1] = _mm256_fmadd_ps(x, b1, accr[1]);
                }
                bp = bp.add(ldb);
            }
            let op = out.as_mut_ptr();
            for (r, accr) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add(r * ldc), accr[0]);
                _mm256_storeu_ps(op.add(r * ldc + 8), accr[1]);
            }
        }
    }

    /// One output row `out[..n] = a[..k] × b` for any `n`: the row kernel
    /// behind every remainder row.
    ///
    /// Columns go in blocks of [`super::ROW_NC`], eight independent 8-lane
    /// accumulators, each running the same fused chain over `t` as
    /// [`micro_nn`].
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2+FMA are available (see [`available`]).
    /// Shape bounds are asserted.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn row_nn(k: usize, n: usize, a: &[f32], b: &[f32], ldb: usize, out: &mut [f32]) {
        assert!(a.len() >= k, "fma row a slice too short");
        assert!(k == 0 || b.len() >= (k - 1) * ldb + n, "fma row b slice too short");
        assert!(out.len() >= n, "fma row out slice too short");
        for jb in (0..n).step_by(super::ROW_NC) {
            let w = super::ROW_NC.min(n - jb);
            // SAFETY: the asserts above bound every row of `b` to `n`
            // columns and `out` to `n`; the block touches columns
            // `jb..jb + w` only.
            unsafe {
                let (ap, bp, op) = (a.as_ptr(), b.as_ptr().add(jb), out.as_mut_ptr().add(jb));
                match w.div_ceil(8) {
                    1 => block::<1, 1>(k, ap, 0, bp, ldb, w, op, 0),
                    2 => block::<1, 2>(k, ap, 0, bp, ldb, w, op, 0),
                    3 => block::<1, 3>(k, ap, 0, bp, ldb, w, op, 0),
                    4 => block::<1, 4>(k, ap, 0, bp, ldb, w, op, 0),
                    5 => block::<1, 5>(k, ap, 0, bp, ldb, w, op, 0),
                    6 => block::<1, 6>(k, ap, 0, bp, ldb, w, op, 0),
                    7 => block::<1, 7>(k, ap, 0, bp, ldb, w, op, 0),
                    _ => block::<1, 8>(k, ap, 0, bp, ldb, w, op, 0),
                }
            }
        }
    }

    /// The `MR × nr` tile for a ragged `nr < NR`: [`micro_nn`] with the
    /// columns past `nr` masked off, so every row's ragged columns run the
    /// same chains as [`row_nn`] would give them.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2+FMA are available (see [`available`]).
    /// Shape bounds are asserted.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)] // mirrors the BLAS microkernel signature
    pub unsafe fn micro_nn_ragged(
        k: usize,
        nr: usize,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
        ldc: usize,
    ) {
        assert!(nr > 0 && nr < NR, "fma ragged tile width out of range");
        assert!(a.len() >= (MR - 1) * lda + k, "fma ragged a slice too short");
        assert!(k == 0 || b.len() >= (k - 1) * ldb + nr, "fma ragged b slice too short");
        assert!(out.len() >= (MR - 1) * ldc + nr, "fma ragged out slice too short");
        // SAFETY: the asserts above bound the `MR` rows of `a`, the `nr`
        // columns of every `b` row, and the `MR × nr` output tile.
        unsafe {
            let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
            if nr <= 8 {
                block::<MR, 1>(k, ap, lda, bp, ldb, nr, op, ldc);
            } else {
                block::<MR, 2>(k, ap, lda, bp, ldb, nr, op, ldc);
            }
        }
    }

    /// `R` rows × `w` columns (`8 * (V - 1) < w <= 8 * V`) held in `R × V`
    /// accumulators; the last vector of each row is read and written
    /// through a lane mask.
    ///
    /// # Safety
    ///
    /// AVX2+FMA available; `R` rows of `k` floats at stride `lda` readable
    /// at `a`, `k` rows of `w` floats at stride `ldb` readable at `b`, and
    /// `R` rows of `w` floats at stride `ldc` writable at `out`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn block<const R: usize, const V: usize>(
        k: usize,
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        w: usize,
        out: *mut f32,
        ldc: usize,
    ) {
        let live = (w - 8 * (V - 1)) as i32; // lanes of the last vector, 1..=8
        let full = live == 8;
        let lane = |i: i32| -((live > i) as i32);
        let mask = _mm256_setr_epi32(lane(0), lane(1), lane(2), lane(3), lane(4), lane(5), lane(6), lane(7));
        // SAFETY: the caller's contract covers every read and write below;
        // masked-off lanes are neither read nor written.
        unsafe {
            let mut acc = [[_mm256_setzero_ps(); V]; R];
            let mut bp = b;
            for t in 0..k {
                let mut bv = [_mm256_setzero_ps(); V];
                for (v, x) in bv.iter_mut().enumerate().take(V - 1) {
                    *x = _mm256_loadu_ps(bp.add(8 * v));
                }
                bv[V - 1] = if full {
                    _mm256_loadu_ps(bp.add(8 * (V - 1)))
                } else {
                    _mm256_maskload_ps(bp.add(8 * (V - 1)), mask)
                };
                for (r, accr) in acc.iter_mut().enumerate() {
                    let x = _mm256_set1_ps(*a.add(r * lda + t));
                    for (accv, &bvv) in accr.iter_mut().zip(&bv) {
                        *accv = _mm256_fmadd_ps(x, bvv, *accv);
                    }
                }
                bp = bp.add(ldb);
            }
            for (r, accr) in acc.iter().enumerate() {
                let o = out.add(r * ldc);
                for (v, accv) in accr.iter().enumerate().take(V - 1) {
                    _mm256_storeu_ps(o.add(8 * v), *accv);
                }
                if full {
                    _mm256_storeu_ps(o.add(8 * (V - 1)), accr[V - 1]);
                } else {
                    _mm256_maskstore_ps(o.add(8 * (V - 1)), mask, accr[V - 1]);
                }
            }
        }
    }

    /// FMA twin of [`super::micro_tn_full`].
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2+FMA are available (see [`available`]).
    /// Shape bounds are asserted.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn micro_tn(
        m: usize,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        out: &mut [f32],
        ldc: usize,
    ) {
        assert!(m == 0 || a.len() >= (m - 1) * lda + MR, "fma tn a slice too short");
        assert!(m == 0 || b.len() >= (m - 1) * ldb + NR, "fma tn b slice too short");
        assert!(out.len() >= (MR - 1) * ldc + NR, "fma tn out slice too short");
        unsafe {
            let mut ap = a.as_ptr();
            let mut bp = b.as_ptr();
            let mut acc = [[_mm256_setzero_ps(); 2]; MR];
            for _ in 0..m {
                let b0 = _mm256_loadu_ps(bp);
                let b1 = _mm256_loadu_ps(bp.add(8));
                for (r, accr) in acc.iter_mut().enumerate() {
                    let x = _mm256_set1_ps(*ap.add(r));
                    accr[0] = _mm256_fmadd_ps(x, b0, accr[0]);
                    accr[1] = _mm256_fmadd_ps(x, b1, accr[1]);
                }
                ap = ap.add(lda);
                bp = bp.add(ldb);
            }
            let op = out.as_mut_ptr();
            for (r, accr) in acc.iter().enumerate() {
                _mm256_storeu_ps(op.add(r * ldc), accr[0]);
                _mm256_storeu_ps(op.add(r * ldc + 8), accr[1]);
            }
        }
    }
}

/// True when the explicit FMA microkernels are usable on this machine. The
/// optimizer's AVX2 build ([`crate::optim`]) sits behind the same gate.
#[inline]
pub(crate) fn fma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        fma::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Full-tile `nn` microkernel dispatch: FMA when detected, portable otherwise.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the BLAS microkernel signature
fn micro_nn_sel(
    use_fma: bool,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if use_fma {
        // SAFETY: `use_fma` is only true when `fma::available()` reported
        // AVX2+FMA support.
        unsafe { fma::micro_nn(k, a, lda, b, ldb, out, ldc) };
        return;
    }
    let _ = use_fma;
    micro_nn_full(k, a, lda, b, ldb, out, ldc);
}

/// The FMA row kernel ([`fma::row_nn`]). Only reached when
/// [`fma_available`] reported AVX2+FMA.
#[inline]
fn row_nn_fma(k: usize, n: usize, a: &[f32], b: &[f32], ldb: usize, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: every caller sits behind a `use_fma` that is only true when
    // `fma::available()` reported AVX2+FMA support.
    unsafe {
        fma::row_nn(k, n, a, b, ldb, out)
    };
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (k, n, a, b, ldb, out);
        unreachable!("the FMA row kernel is only selected on x86-64");
    }
}

/// The FMA ragged-column tile ([`fma::micro_nn_ragged`]). Only reached when
/// [`fma_available`] reported AVX2+FMA.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the BLAS microkernel signature
fn micro_nn_ragged_fma(
    k: usize,
    nr: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as for `row_nn_fma`.
    unsafe {
        fma::micro_nn_ragged(k, nr, a, lda, b, ldb, out, ldc)
    };
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (k, nr, a, lda, b, ldb, out, ldc);
        unreachable!("the FMA ragged tile is only selected on x86-64");
    }
}

/// Full-tile `tn` microkernel dispatch: FMA when detected, portable otherwise.
#[inline]
#[allow(clippy::too_many_arguments)] // mirrors the BLAS microkernel signature
fn micro_tn_sel(
    use_fma: bool,
    m: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if use_fma {
        // SAFETY: `use_fma` is only true when `fma::available()` reported
        // AVX2+FMA support.
        unsafe { fma::micro_tn(m, a, lda, b, ldb, out, ldc) };
        return;
    }
    let _ = use_fma;
    micro_tn_full(m, a, lda, b, ldb, out, ldc);
}

/// `out = a × b` where `a` is `m × k`, `b` is `k × n`, `out` is `m × n`,
/// all row-major. `out` is fully overwritten.
///
/// # Panics
///
/// Panics if a slice is shorter than its `m/k/n` shape implies.
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_bias_act(m, k, n, a, b, None, None, out);
}

/// `out = act(a × w + bias)` — the fused forward layer. `bias` (length `n`)
/// and `act` are applied to each output tile immediately after it is
/// computed, while it is still in cache; pass `None` for a plain GEMM.
///
/// Each output row is bit-identical to the same row computed alone (see the
/// module docs on batch invariance).
///
/// # Panics
///
/// Panics if a slice is shorter than its shape implies.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS layer-op signature
pub fn gemm_bias_act(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    act: Option<Activation>,
    out: &mut [f32],
) {
    gemm_bias_act_with(fma_available(), m, k, n, a, w, bias, act, out);
}

/// [`gemm_bias_act`] on an explicit kernel path (`use_fma` must only be true
/// when [`fma_available`] is), so tests can drive the portable path on FMA
/// hardware too.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS layer-op signature
fn gemm_bias_act_with(
    use_fma: bool,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    act: Option<Activation>,
    out: &mut [f32],
) {
    assert!(a.len() >= m * k, "gemm a slice too short");
    assert!(w.len() >= k * n, "gemm b slice too short");
    assert!(out.len() >= m * n, "gemm out slice too short");
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "bias length mismatch");
    }
    // The FMA path tiles only whole `MR`-row blocks; remainder rows take the
    // row kernel across all `n` columns below.
    let tiled_rows = if use_fma { m - m % MR } else { m };
    for ib in (0..tiled_rows).step_by(MR) {
        let mr = MR.min(m - ib);
        for jb in (0..n).step_by(NR) {
            let nr = NR.min(n - jb);
            let tile = &mut out[ib * n + jb..];
            if mr == MR && nr == NR {
                micro_nn_sel(use_fma, k, &a[ib * k..], k, &w[jb..], n, tile, n);
            } else if use_fma {
                micro_nn_ragged_fma(k, nr, &a[ib * k..], k, &w[jb..], n, tile, n);
            } else {
                micro_nn_edge(k, mr, nr, &a[ib * k..], k, &w[jb..], n, tile, n);
            }
            finish_tile(tile, n, mr, nr, bias.map(|b| &b[jb..jb + nr]), act);
        }
    }
    for i in tiled_rows..m {
        let row = &mut out[i * n..];
        row_nn_fma(k, n, &a[i * k..], w, n, row);
        finish_tile(row, n, 1, n, bias, act);
    }
}

/// `out = a × bᵀ` where `a` is `m × k`, `b` is `r × k`, `out` is `m × r`,
/// all row-major — the backward-pass `dX = δ × Wᵀ` orientation.
///
/// `NR` rows of `b` at a time are packed into `pack` as an interleaved
/// `k × NR` panel (`pack[t * NR + j] = b[(jb + j) * k + t]`), restoring the
/// broadcast-×-contiguous-vector microkernel shape. `pack` is resized to
/// `k * NR` and reused; after warmup it never reallocates.
///
/// # Panics
///
/// Panics if a slice is shorter than its shape implies.
pub fn gemm_nt(
    m: usize,
    k: usize,
    r: usize,
    a: &[f32],
    b: &[f32],
    pack: &mut Vec<f32>,
    out: &mut [f32],
) {
    assert!(a.len() >= m * k, "gemm a slice too short");
    assert!(b.len() >= r * k, "gemm b slice too short");
    assert!(out.len() >= m * r, "gemm out slice too short");
    pack.resize(k * NR, 0.0);
    let use_fma = fma_available();
    for jb in (0..r).step_by(NR) {
        let nr = NR.min(r - jb);
        if nr < NR {
            pack.fill(0.0); // zero-pad the ragged final panel
        }
        for j in 0..nr {
            let brow = &b[(jb + j) * k..(jb + j) * k + k];
            for (t, &v) in brow.iter().enumerate() {
                pack[t * NR + j] = v;
            }
        }
        for ib in (0..m).step_by(MR) {
            let mr = MR.min(m - ib);
            let tile = &mut out[ib * r + jb..];
            if mr == MR && nr == NR {
                micro_nn_sel(use_fma, k, &a[ib * k..], k, pack, NR, tile, r);
            } else {
                micro_nn_edge(k, mr, nr, &a[ib * k..], k, pack, NR, tile, r);
            }
        }
    }
}

/// `out = aᵀ × b` where `a` is `m × k`, `b` is `m × n`, `out` is `k × n`,
/// all row-major — the backward-pass `dW = Xᵀ × δ` orientation. The
/// reduction runs over `m` (the batch) with each `MR × NR` output tile held
/// in registers. `out` is fully overwritten.
///
/// # Panics
///
/// Panics if a slice is shorter than its shape implies.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert!(a.len() >= m * k, "gemm a slice too short");
    assert!(b.len() >= m * n, "gemm b slice too short");
    assert!(out.len() >= k * n, "gemm out slice too short");
    let use_fma = fma_available();
    for jb in (0..n).step_by(NR) {
        let nr = NR.min(n - jb);
        for kb in (0..k).step_by(MR) {
            let mr = MR.min(k - kb);
            let tile = &mut out[kb * n + jb..];
            if mr == MR && nr == NR {
                micro_tn_sel(use_fma, m, &a[kb..], k, &b[jb..], n, tile, n);
            } else {
                micro_tn_edge(m, mr, nr, &a[kb..], k, &b[jb..], n, tile, n);
            }
        }
    }
}

/// Full `MR × NR` microkernel for the `nn` orientation: `A` rows are
/// contiguous (stride `lda`), `B` rows are read at stride `ldb` as fixed
/// `NR`-wide vectors, and the `MR × NR` accumulator lives in registers for
/// the whole `k` loop.
#[inline(always)]
fn micro_nn_full(k: usize, a: &[f32], lda: usize, b: &[f32], ldb: usize, out: &mut [f32], ldc: usize) {
    // Exact-length row slices let the compiler drop the `a*[t]` bounds checks.
    let a0 = &a[0..k];
    let a1 = &a[lda..lda + k];
    let a2 = &a[2 * lda..2 * lda + k];
    let a3 = &a[3 * lda..3 * lda + k];
    let mut acc = [[0.0f32; NR]; MR];
    let mut boff = 0usize;
    for t in 0..k {
        let brow: &[f32; NR] = b[boff..boff + NR].try_into().expect("NR-wide B row");
        let xs = [a0[t], a1[t], a2[t], a3[t]];
        for (r, x) in xs.into_iter().enumerate() {
            let accr = &mut acc[r];
            for c in 0..NR {
                accr[c] += x * brow[c];
            }
        }
        boff += ldb;
    }
    for (r, accr) in acc.iter().enumerate() {
        out[r * ldc..r * ldc + NR].copy_from_slice(accr);
    }
}

/// Ragged-edge variant of [`micro_nn_full`] for `mr < MR` and/or `nr < NR`.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the BLAS microkernel signature
fn micro_nn_edge(
    k: usize,
    mr: usize,
    nr: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for t in 0..k {
        let brow = &b[t * ldb..t * ldb + nr];
        for r in 0..mr {
            let x = a[r * lda + t];
            let accr = &mut acc[r];
            for (c, &bv) in brow.iter().enumerate() {
                accr[c] += x * bv;
            }
        }
    }
    for r in 0..mr {
        out[r * ldc..r * ldc + nr].copy_from_slice(&acc[r][..nr]);
    }
}

/// Full `MR × NR` microkernel for the `tn` orientation: the reduction index
/// is the leading (batch) dimension of both operands, so `A` contributes
/// `MR` strided scalars and `B` one contiguous `NR`-vector per step.
#[inline(always)]
fn micro_tn_full(m: usize, a: &[f32], lda: usize, b: &[f32], ldb: usize, out: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    let mut aoff = 0usize;
    let mut boff = 0usize;
    for _ in 0..m {
        let brow: &[f32; NR] = b[boff..boff + NR].try_into().expect("NR-wide B row");
        let xs: &[f32; MR] = a[aoff..aoff + MR].try_into().expect("MR-wide A chunk");
        for (r, &x) in xs.iter().enumerate() {
            let accr = &mut acc[r];
            for c in 0..NR {
                accr[c] += x * brow[c];
            }
        }
        aoff += lda;
        boff += ldb;
    }
    for (r, accr) in acc.iter().enumerate() {
        out[r * ldc..r * ldc + NR].copy_from_slice(accr);
    }
}

/// Ragged-edge variant of [`micro_tn_full`].
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the BLAS microkernel signature
fn micro_tn_edge(
    m: usize,
    mr: usize,
    nr: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for i in 0..m {
        let brow = &b[i * ldb..i * ldb + nr];
        for r in 0..mr {
            let x = a[i * lda + r];
            let accr = &mut acc[r];
            for (c, &bv) in brow.iter().enumerate() {
                accr[c] += x * bv;
            }
        }
    }
    for r in 0..mr {
        out[r * ldc..r * ldc + nr].copy_from_slice(&acc[r][..nr]);
    }
}

/// Applies bias and activation to a freshly written `mr × nr` output tile.
#[inline(always)]
fn finish_tile(
    tile: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
    bias: Option<&[f32]>,
    act: Option<Activation>,
) {
    if bias.is_none() && act.is_none() {
        return;
    }
    for r in 0..mr {
        let row = &mut tile[r * ldc..r * ldc + nr];
        if let Some(bias) = bias {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
        match act {
            Some(Activation::Relu) => {
                for v in row.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            Some(Activation::Tanh) => {
                for v in row.iter_mut() {
                    *v = v.tanh();
                }
            }
            None => {}
        }
    }
}

/// Fused backward activation: `delta[i] *= act'(activated[i])` where the
/// derivative is expressed in terms of the activated output (ReLU: 1 if
/// `a > 0`; Tanh: `1 − a²`) — one in-place pass, no temporary.
///
/// # Panics
///
/// Panics on length mismatch.
pub fn act_grad_mul(act: Activation, delta: &mut [f32], activated: &[f32]) {
    assert_eq!(delta.len(), activated.len(), "act_grad_mul length mismatch");
    match act {
        Activation::Relu => {
            for (d, &a) in delta.iter_mut().zip(activated) {
                *d = if a > 0.0 { *d } else { 0.0 };
            }
        }
        Activation::Tanh => {
            for (d, &a) in delta.iter_mut().zip(activated) {
                *d *= 1.0 - a * a;
            }
        }
    }
}

/// Column sums of an `m × n` row-major matrix into `out` (length `n`,
/// overwritten) — the bias gradient, vectorized along rows.
///
/// # Panics
///
/// Panics if slices are shorter than the shape implies.
pub fn col_sums_into(m: usize, n: usize, src: &[f32], out: &mut [f32]) {
    assert!(src.len() >= m * n, "col_sums src too short");
    assert_eq!(out.len(), n, "col_sums out length mismatch");
    out.fill(0.0);
    for i in 0..m {
        let row = &src[i * n..i * n + n];
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The pre-fast-path naive kernels, kept verbatim as the differential
    /// reference the tiled kernels are tested against.
    mod naive {
        pub fn nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                for t in 0..k {
                    let x = a[i * k + t];
                    for j in 0..n {
                        out[i * n + j] += x * b[t * n + j];
                    }
                }
            }
            out
        }

        pub fn nt(m: usize, k: usize, r: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
            let mut out = vec![0.0f32; m * r];
            for i in 0..m {
                for j in 0..r {
                    let mut acc = 0.0;
                    for t in 0..k {
                        acc += a[i * k + t] * b[j * k + t];
                    }
                    out[i * r + j] = acc;
                }
            }
            out
        }

        pub fn tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
            let mut out = vec![0.0f32; k * n];
            for i in 0..m {
                for t in 0..k {
                    let x = a[i * k + t];
                    for j in 0..n {
                        out[t * n + j] += x * b[i * n + j];
                    }
                }
            }
            out
        }
    }

    fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
    }

    fn assert_close(tiled: &[f32], naive: &[f32], what: &str) {
        assert_eq!(tiled.len(), naive.len());
        for (i, (t, n)) in tiled.iter().zip(naive).enumerate() {
            // Summation order differs between the tiled and naive kernels,
            // so compare with a tolerance scaled to the magnitude.
            let tol = 1e-4f32.max(n.abs() * 1e-4);
            assert!((t - n).abs() <= tol, "{what}[{i}]: tiled {t} vs naive {n}");
        }
    }

    /// Adversarial shapes: degenerate vectors, exact tile multiples, and
    /// every off-by-one around the MR/NR boundaries.
    fn shapes() -> Vec<(usize, usize, usize)> {
        vec![
            (1, 1, 1),
            (1, 7, 1),
            (1, 64, 17),
            (5, 1, 5),
            (3, 3, 3),
            (MR, 8, NR),
            (MR + 1, 8, NR + 1),
            (MR - 1, 9, NR - 1),
            (2 * MR, 32, 2 * NR),
            (13, 21, 33),
            (32, 128, 9),
            (1, 128, 64),
            (64, 1, 64),
            // Explorer-shaped forwards: the row kernel alone and beside
            // full tiles, ragged heads included.
            (1, 512, 64),
            (2, 512, 64),
            (3, 512, 64),
            (1, 64, 9),
            (3, 64, 1),
        ]
    }

    /// Kernel paths this machine can run: portable always, FMA if detected.
    fn paths() -> Vec<bool> {
        if fma_available() {
            vec![false, true]
        } else {
            vec![false]
        }
    }

    #[test]
    fn gemm_nn_matches_naive() {
        for use_fma in paths() {
            let mut rng = StdRng::seed_from_u64(1);
            for (m, k, n) in shapes() {
                let a = rand_vec(&mut rng, m * k);
                let b = rand_vec(&mut rng, k * n);
                let mut out = vec![f32::NAN; m * n];
                gemm_bias_act_with(use_fma, m, k, n, &a, &b, None, None, &mut out);
                assert_close(&out, &naive::nn(m, k, n, &a, &b), "nn");
            }
        }
    }

    #[test]
    fn rows_are_batch_invariant_on_every_path() {
        let mut rng = StdRng::seed_from_u64(6);
        let (k, n) = (37, 41); // ragged in both directions
        for use_fma in paths() {
            for m in 1..=2 * MR + 1 {
                let a = rand_vec(&mut rng, m * k);
                let w = rand_vec(&mut rng, k * n);
                let bias = rand_vec(&mut rng, n);
                let mut batch = vec![0.0f32; m * n];
                let act = Some(Activation::Tanh);
                gemm_bias_act_with(use_fma, m, k, n, &a, &w, Some(&bias), act, &mut batch);
                for i in 0..m {
                    let mut alone = vec![0.0f32; n];
                    let row = &a[i * k..(i + 1) * k];
                    gemm_bias_act_with(use_fma, 1, k, n, row, &w, Some(&bias), act, &mut alone);
                    let got: Vec<u32> = batch[i * n..(i + 1) * n].iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u32> = alone.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "fma={use_fma} m={m} row {i}");
                }
            }
        }
    }

    #[test]
    fn gemm_nt_matches_naive() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pack = Vec::new();
        for (m, k, r) in shapes() {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, r * k);
            let mut out = vec![f32::NAN; m * r];
            gemm_nt(m, k, r, &a, &b, &mut pack, &mut out);
            assert_close(&out, &naive::nt(m, k, r, &a, &b), "nt");
        }
    }

    #[test]
    fn gemm_tn_matches_naive() {
        let mut rng = StdRng::seed_from_u64(3);
        for (m, k, n) in shapes() {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, m * n);
            let mut out = vec![f32::NAN; k * n];
            gemm_tn(m, k, n, &a, &b, &mut out);
            assert_close(&out, &naive::tn(m, k, n, &a, &b), "tn");
        }
    }

    #[test]
    fn fused_bias_act_matches_separate_passes() {
        for use_fma in paths() {
            let mut rng = StdRng::seed_from_u64(4);
            for act in [None, Some(Activation::Relu), Some(Activation::Tanh)] {
                let (m, k, n) = (7, 33, 19);
                let a = rand_vec(&mut rng, m * k);
                let w = rand_vec(&mut rng, k * n);
                let bias = rand_vec(&mut rng, n);
                let mut fused = vec![0.0f32; m * n];
                gemm_bias_act_with(use_fma, m, k, n, &a, &w, Some(&bias), act, &mut fused);
                let mut separate = naive::nn(m, k, n, &a, &w);
                for i in 0..m {
                    for j in 0..n {
                        let v = separate[i * n + j] + bias[j];
                        separate[i * n + j] = match act {
                            Some(Activation::Relu) => v.max(0.0),
                            Some(Activation::Tanh) => v.tanh(),
                            None => v,
                        };
                    }
                }
                assert_close(&fused, &separate, "fused");
            }
        }
    }

    #[test]
    fn act_grad_mul_matches_derivatives() {
        let acts = vec![-1.5f32, -0.0, 0.0, 0.5, 0.9];
        let mut d_relu = vec![2.0f32; acts.len()];
        act_grad_mul(Activation::Relu, &mut d_relu, &acts);
        assert_eq!(d_relu, vec![0.0, 0.0, 0.0, 2.0, 2.0]);
        let mut d_tanh = vec![2.0f32; acts.len()];
        act_grad_mul(Activation::Tanh, &mut d_tanh, &acts);
        for (d, a) in d_tanh.iter().zip(&acts) {
            assert!((d - 2.0 * (1.0 - a * a)).abs() < 1e-6);
        }
    }

    #[test]
    fn col_sums_into_matches_reference() {
        let src = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = vec![0.0f32; 2];
        col_sums_into(3, 2, &src, &mut out);
        assert_eq!(out, vec![9.0, 12.0]);
    }

    #[test]
    fn gemm_nt_pack_buffer_is_reused_across_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut pack = Vec::new();
        // Large shape first: later smaller shapes must not read stale panel
        // columns beyond their zero-padded width.
        for (m, k, r) in [(8, 64, 20), (3, 5, 3), (6, 64, 20)] {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, r * k);
            let mut out = vec![0.0f32; m * r];
            gemm_nt(m, k, r, &a, &b, &mut pack, &mut out);
            assert_close(&out, &naive::nt(m, k, r, &a, &b), "nt-reuse");
        }
    }
}
