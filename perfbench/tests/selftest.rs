//! Self-tests of the benchmark's own logic: percentiles, the
//! correctness gate, the seeded submit order, report parsing and span
//! self times.

use terasem_perfbench::gate::{self, check, observe, Observables, RTOL};
use terasem_perfbench::stats::{median, percentile, samples_for_tail};
use terasem_perfbench::trace::Tracer;
use terasem_perfbench::{net, serve};

#[test]
fn percentiles_interpolate_between_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert_eq!(median(&v), Some(2.5));
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&v, 1.0), Some(4.0));
    assert!((percentile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
    assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
}

#[test]
fn percentiles_refuse_bad_input() {
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&[1.0, f64::NAN], 0.5), None);
    assert_eq!(percentile(&[1.0, 2.0], 1.5), None);
}

/// How many samples lie strictly above the `q`-quantile.
fn count_above(samples: &[f64], q: f64) -> usize {
    let p = percentile(samples, q).expect("a finite, non-empty sample");
    samples.iter().filter(|&&x| x > p).count()
}

#[test]
fn sample_minimum_leaves_ten_beyond_p90() {
    let n = samples_for_tail(0.9, 10);
    let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
    assert!(count_above(&v, 0.9) >= 10);
    let fewer: Vec<f64> = (0..n - 1).map(|i| i as f64).collect();
    assert!(
        count_above(&fewer, 0.9) < 10,
        "{n} is the smallest such count"
    );
}

#[test]
fn gate_accepts_rounding_and_rejects_a_wrong_answer() {
    let want = Observables {
        kinetic_energy: 0.5,
        enstrophy: 40.0,
    };
    let rounding = Observables {
        kinetic_energy: 0.5 * (1.0 + 1e-9),
        enstrophy: 40.0 * (1.0 - 1e-9),
    };
    assert!(check(rounding, want, RTOL).is_ok());
    let wrong = Observables {
        kinetic_energy: 0.5 * (1.0 + 1e-3),
        ..want
    };
    assert!(check(wrong, want, RTOL).is_err());
    let nan = Observables {
        enstrophy: f64::NAN,
        ..want
    };
    assert!(check(nan, want, RTOL).is_err());
}

#[test]
fn gate_rejects_a_perturbed_final_state() {
    let mut s = sem_bench::workloads::shear_layer(4, 5, 30.0, 1e5, 0.3, 0.002);
    for _ in 0..2 {
        s.step().expect("a clean step");
    }
    let reference = observe(&s);
    assert!(check(observe(&s), reference, RTOL).is_ok());
    for v in s.vel[0].iter_mut() {
        *v *= 1.0 + 1e-3;
    }
    let err = check(observe(&s), reference, RTOL).unwrap_err();
    assert!(
        err.contains("enstrophy") || err.contains("kinetic"),
        "{err}"
    );
}

#[test]
fn every_phase_has_a_reference() {
    use terasem_perfbench::inproc::Workload;
    for w in [Workload::Hairpin3d, Workload::Shear2dK1024] {
        for phase in 0..w.phases() {
            let r = gate::reference(w.name(), phase).expect("a reference");
            assert!(r.kinetic_energy > 0.0 && r.enstrophy > 0.0);
        }
    }
    assert!(gate::reference("serve_small_jobs", 0).is_none());
}

#[test]
fn submit_order_is_seeded_blocks_of_the_mix() {
    let a = serve::submit_order(7, 30, 3);
    assert_eq!(a, serve::submit_order(7, 30, 3));
    assert_ne!(a, serve::submit_order(8, 30, 3));
    for block in a.chunks(3) {
        let mut b = block.to_vec();
        b.sort();
        assert_eq!(b, vec![0, 1, 2]);
    }
}

#[test]
fn launcher_report_is_parsed() {
    let stdout = "terasem-net: comm totals: 12 msgs, 8792 bytes, 40 rounds (per-rank max 6 msgs / 4396 bytes)\n\
                  terasem-net: neighbor exchange (2 msgs, 98 words per call): measured mean 210.3 us, ASCI-Red model 95.1 us\n";
    assert_eq!(net::parse_report(stdout), Some((210.3, 12.0, 8792.0)));
    assert_eq!(net::parse_report("terasem-launch: OK"), None);
}

#[test]
fn self_time_subtracts_children() {
    let mut tr = Tracer::new("t".into(), true);
    tr.span("outer", |tr| {
        std::thread::sleep(std::time::Duration::from_millis(20));
        tr.span("inner", |_| {
            std::thread::sleep(std::time::Duration::from_millis(30))
        });
    });
    let rows = tr.self_times();
    let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
    let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
    assert!(outer.2 >= 0.05 && outer.3 >= 0.02 && outer.3 < outer.2 - 0.029);
    assert!((inner.2 - inner.3).abs() < 1e-12);
    assert_eq!(tr.spans()[1].parent, Some(0));
    let off = Tracer::new("t".into(), false);
    assert!(off.spans().is_empty());
}
