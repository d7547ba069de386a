//! Property-based tests of the cost model: model monotonicity and
//! ledger arithmetic.
//!
//! Properties run as explicit seeded loops over [`sem_linalg::rng`]'s
//! SplitMix64 generator; a failure message prints the exact case seed.

use sem_comm::{MachineModel, RankLedger};
use sem_linalg::rng::forall;

const CASES: usize = 100;

/// Cost model monotonicity: more bytes, more flops, or more ranks in a
/// tree never decreases the predicted time.
#[test]
fn model_monotone() {
    forall("model_monotone", 0xc0bb_0003, CASES, |rng| {
        let bytes = rng.next_u64() % 1_000_000;
        let flops = rng.next_u64() % 1_000_000_000;
        let p = rng.range(2, 2048);
        let m = MachineModel::asci_red_333_single();
        assert!(m.ptp_time(bytes + 1) >= m.ptp_time(bytes));
        assert!(m.compute_time(flops + 1) >= m.compute_time(flops));
        assert!(m.tree_fan_in_out(2 * p, 8) >= m.tree_fan_in_out(p, 8));
        assert!(m.latency_lower_bound(p) >= 0.0);
        assert!(m.allgather_time(p, 64) >= m.latency);
    });
}

/// Ledger critical path dominates every per-rank charge.
#[test]
fn ledger_critical_path() {
    forall("ledger_critical_path", 0xc0bb_0004, CASES, |rng| {
        let n_charges = rng.range(1, 30);
        let mut l = RankLedger::new(4);
        for _ in 0..n_charges {
            let r = rng.index(4);
            let bytes = 1 + rng.next_u64() % 999;
            let flops = 1 + rng.next_u64() % 99_999;
            l.charge_msg(r, bytes);
            l.charge_flops(r, flops);
        }
        let (msgs, bytes, flops) = l.critical_path();
        assert!(msgs as usize <= n_charges);
        assert!(msgs >= 1);
        assert!(l.total_bytes() >= bytes);
        assert!(l.total_flops() >= flops);
        assert!(4 * bytes >= l.total_bytes());
        let m = MachineModel::asci_red_333_dual();
        let est = l.estimate(&m);
        assert!(est.total() > 0.0);
        assert!(est.compute >= 0.0 && est.latency >= 0.0 && est.bandwidth >= 0.0);
    });
}
