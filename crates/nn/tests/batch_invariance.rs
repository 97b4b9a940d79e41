//! Batch invariance of the forward pass: a row's output must not depend on
//! the batch it is computed in. Explorers act one row at a time while
//! learners re-evaluate the same rows inside training batches, so both have
//! to see bit-identical numbers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinynn::{Activation, Mlp, Workspace};

const OBS: usize = 512;

fn check(sizes: &[usize], activation: Activation, seed: u64) {
    let mut net = Mlp::new(sizes, activation, seed);
    // Non-zero biases, so the fused bias path is covered too.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for p in net.params_mut() {
        *p += rng.gen_range(-0.05f32..0.05);
    }
    let out_dim = net.output_dim();

    let mut batch_ws = Workspace::new();
    let mut row_ws = Workspace::new();
    for batch in (1..=9).chain([64]) {
        let x: Vec<f32> = (0..batch * OBS).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        let together: Vec<u32> =
            net.forward_ws(&x, batch, &mut batch_ws).iter().map(|v| v.to_bits()).collect();
        for r in 0..batch {
            let alone: Vec<u32> = net
                .forward_ws(&x[r * OBS..(r + 1) * OBS], 1, &mut row_ws)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                &together[r * out_dim..(r + 1) * out_dim],
                alone.as_slice(),
                "{sizes:?} {activation:?}: row {r} of a {batch}-row batch differs from the row run alone"
            );
        }
    }
}

#[test]
fn policy_head_rows_are_batch_invariant() {
    for activation in [Activation::Tanh, Activation::Relu] {
        check(&[OBS, 64, 64, 9], activation, 11);
    }
}

#[test]
fn value_head_rows_are_batch_invariant() {
    for activation in [Activation::Tanh, Activation::Relu] {
        check(&[OBS, 64, 64, 1], activation, 12);
    }
}
