//! Property-based tests of the gather-scatter library: algebraic laws of
//! `gs_op` on arbitrary id maps and conservation laws. The distributed
//! form's equivalence with the serial one is `sem-net`'s
//! `netgs_bitwise` test.
//!
//! Properties run as explicit seeded loops over [`sem_linalg::rng`]'s
//! SplitMix64 generator; a failure message prints the exact case seed.

use sem_gs::{GsHandle, GsOp};
use sem_linalg::rng::{forall, SplitMix64};

const CASES: usize = 100;

/// Random local→global id maps with controlled sharing.
fn random_ids(rng: &mut SplitMix64) -> Vec<usize> {
    let len = rng.range(1, 60);
    (0..len).map(|_| rng.index(20)).collect()
}

/// After one gs(Add), all copies of a global id hold the same value,
/// and the shared total is conserved (sum over unique ids unchanged).
#[test]
fn gs_add_consistency_and_conservation() {
    forall(
        "gs_add_consistency_and_conservation",
        0x65c0_0001,
        CASES,
        |rng| {
            let ids = random_ids(rng);
            let u0 = rng.vec(ids.len(), -5.0, 5.0);
            let h = GsHandle::new(&ids);
            let mut u = u0.clone();
            h.gs(&mut u, GsOp::Add);
            // Consistency.
            for (a, &ida) in ids.iter().enumerate() {
                for (b, &idb) in ids.iter().enumerate() {
                    if ida == idb {
                        assert!((u[a] - u[b]).abs() < 1e-12);
                    }
                }
            }
            // Each copy equals the sum of the original copies.
            let n_global = ids.iter().max().unwrap() + 1;
            let mut sums = vec![0.0; n_global];
            for (i, &g) in ids.iter().enumerate() {
                sums[g] += u0[i];
            }
            for (i, &g) in ids.iter().enumerate() {
                assert!((u[i] - sums[g]).abs() < 1e-10);
            }
        },
    );
}

/// gs is idempotent for Min/Max after the first application.
#[test]
fn gs_minmax_idempotent() {
    forall("gs_minmax_idempotent", 0x65c0_0002, CASES, |rng| {
        let ids = random_ids(rng);
        let data = rng.vec(ids.len(), -5.0, 5.0);
        let h = GsHandle::new(&ids);
        for op in [GsOp::Min, GsOp::Max] {
            let mut u = data.clone();
            h.gs(&mut u, op);
            let snapshot = u.clone();
            h.gs(&mut u, op);
            assert_eq!(&u, &snapshot);
        }
    });
}

/// Vector mode equals per-component scalar application.
#[test]
fn gs_vector_mode_equivalence() {
    forall("gs_vector_mode_equivalence", 0x65c0_0003, CASES, |rng| {
        let ids = random_ids(rng);
        let stride = rng.range(1, 4);
        let h = GsHandle::new(&ids);
        let n = ids.len();
        let mut uv = rng.vec(n * stride, -5.0, 5.0);
        let mut per: Vec<Vec<f64>> = (0..stride)
            .map(|c| (0..n).map(|i| uv[i * stride + c]).collect())
            .collect();
        h.gs_vec(&mut uv, stride, GsOp::Add);
        for comp in per.iter_mut() {
            h.gs(comp, GsOp::Add);
        }
        for i in 0..n {
            for c in 0..stride {
                assert!((uv[i * stride + c] - per[c][i]).abs() < 1e-12);
            }
        }
    });
}

/// gs_avg produces a consistent field whose per-id value is the mean.
#[test]
fn gs_avg_is_mean() {
    forall("gs_avg_is_mean", 0x65c0_0005, CASES, |rng| {
        let ids = random_ids(rng);
        let u0 = rng.vec(ids.len(), -5.0, 5.0);
        let h = GsHandle::new(&ids);
        let mut u = u0.clone();
        h.gs_avg(&mut u);
        let n_global = ids.iter().max().unwrap() + 1;
        let mut sums = vec![0.0; n_global];
        let mut counts = vec![0usize; n_global];
        for (i, &g) in ids.iter().enumerate() {
            sums[g] += u0[i];
            counts[g] += 1;
        }
        for (i, &g) in ids.iter().enumerate() {
            assert!((u[i] - sums[g] / counts[g] as f64).abs() < 1e-10);
        }
    });
}
