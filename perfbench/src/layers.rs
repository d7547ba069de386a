//! Per-layer timings: each layer's public functions called on the
//! workload's own solver data, timed from the outside.

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use sem_comm::par::{par_for_each_init, with_threads};
use sem_linalg::mxm::{mxm, mxm_flops};
use sem_ns::NsSolver;
use sem_ops::convect::convect;
use sem_ops::laplace::helmholtz;
use sem_ops::pressure::EOperator;
use sem_poly::quad::gauss;
use sem_solvers::coarse::CoarseSolver;
use sem_solvers::fdm::{Fdm1d, FdmElement};
use sem_solvers::schwarz::SchwarzPrecond;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Where the benchmark finds the program's binaries and writes its own
/// files.
pub struct Context {
    pub bin_dir: PathBuf,
    pub out_dir: PathBuf,
}

/// Median seconds of one call of `f`, over at least `MIN_CALLS` calls
/// and `budget` seconds. `f` returns the seconds of the part it times,
/// so it can prepare its input untimed.
fn per_call(tr: &mut Tracer, name: &'static str, budget: f64, mut f: impl FnMut() -> f64) -> f64 {
    const MIN_CALLS: usize = 15;
    tr.span(name, |_| {
        f(); // warm caches and lazy state
        let mut samples = Vec::new();
        let t0 = Instant::now();
        while samples.len() < MIN_CALLS
            || (t0.elapsed().as_secs_f64() < budget && samples.len() < 100_000)
        {
            samples.push(f());
        }
        median(&samples).unwrap_or(f64::NAN)
    })
}

fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Time every in-process layer on `s` (at the caller's thread count).
pub fn sweep(s: &NsSolver, seconds: f64, ctx: &Context, tr: &mut Tracer, out: &mut Outcome) {
    let budget = (seconds / 40.0).clamp(0.05, 0.5);
    let ops = &s.ops;
    let dim = ops.geo.dim;
    let k = ops.k();
    let nx = ops.geo.nx;
    let npts = ops.geo.npts;
    let u = &s.vel[0];

    // sem-linalg: the tensor-contraction shapes of one element, on the
    // velocity data of every element.
    let shapes: Vec<(usize, usize, usize)> = if dim == 3 {
        vec![(nx, nx, nx * nx), (nx * nx, nx, nx)]
    } else {
        vec![(nx, nx, nx)]
    };
    let d: Vec<f64> = (0..nx * nx).map(|i| 1.0 / (1.0 + i as f64)).collect();
    let mut c = vec![0.0; npts];
    let call_flops: u64 = shapes
        .iter()
        .map(|&(a, b, cc)| mxm_flops(a, b, cc))
        .sum::<u64>()
        * k as u64;
    let mxm_s = per_call(tr, "linalg.mxm", budget, || {
        timed(|| {
            for e in 0..k {
                let ue = &u[e * npts..(e + 1) * npts];
                for &(n1, n2, n3) in &shapes {
                    if n1 == nx {
                        mxm(&d, n1, n2, &ue[..n2 * n3], n3, &mut c[..n1 * n3]);
                    } else {
                        mxm(&ue[..n1 * n2], n1, n2, &d, n3, &mut c[..n1 * n3]);
                    }
                }
                black_box(&c);
            }
        })
    });
    out.push(
        "linalg.mxm_gflops",
        call_flops as f64 / mxm_s * 1e-9,
        "GFLOP/s",
    );

    // sem-comm::par: fan-out cost of an empty element loop at two
    // threads, whatever the workload's own thread count.
    let mut items = vec![0u8; k];
    let empty = with_threads(2, || {
        per_call(tr, "par.empty_call", budget, || {
            timed(|| par_for_each_init(&mut items, || (), |_, _, x| *black_box(x) += 0))
        })
    });
    out.push("par.empty_call_us", empty * 1e6, "us");

    // sem-ops: the element operators, with their flops per call.
    let flops_of = |f: &mut dyn FnMut()| {
        let f0 = ops.flops_so_far();
        f();
        (ops.flops_so_far() - f0) as f64
    };
    let mut hout = vec![0.0; u.len()];
    let (h1, h2) = (s.cfg.nu, 1.5 / s.cfg.dt);
    let hflops = flops_of(&mut || helmholtz(ops, u, &mut hout, h1, h2));
    let h = per_call(tr, "ops.helmholtz_apply", budget, || {
        timed(|| helmholtz(ops, u, &mut hout, h1, h2))
    });
    out.push("ops.helmholtz_apply_s", h, "s");
    out.push("ops.helmholtz_flops", hflops, "flop");

    let mut eop = EOperator::new(ops);
    let mut pout = vec![0.0; s.pressure.len()];
    let eflops = flops_of(&mut || eop.apply(ops, &s.pressure, &mut pout));
    let e = per_call(tr, "ops.e_apply", budget, || {
        timed(|| eop.apply(ops, &s.pressure, &mut pout))
    });
    out.push("ops.e_apply_s", e, "s");
    out.push("ops.e_flops", eflops, "flop");

    let refs: Vec<&[f64]> = s.vel.iter().map(|v| v.as_slice()).collect();
    let mut work = vec![vec![0.0; u.len()]; dim];
    let cflops = flops_of(&mut || convect(ops, &refs, u, &mut hout, &mut work));
    let cv = per_call(tr, "ops.convect", budget, || {
        timed(|| convect(ops, &refs, u, &mut hout, &mut work))
    });
    out.push("ops.convect_s", cv, "s");
    out.push("ops.convect_flops", cflops, "flop");

    // sem-gs: direct stiffness summation through the solver's GsHandle;
    // the input is restored untimed before each call.
    let mut g = u.clone();
    let ds = per_call(tr, "gs.dssum", budget, || {
        g.copy_from_slice(u);
        timed(|| ops.dssum(&mut g))
    });
    out.push("gs.dssum_s", ds, "s");

    // sem-solvers: coarse set-up and solve, Schwarz, FDM local solves.
    let mut coarse_setup = Vec::new();
    let mut coarse = None;
    tr.span("solvers.coarse_setup", |_| {
        for _ in 0..3 {
            let t0 = Instant::now();
            coarse = Some(CoarseSolver::new(ops));
            coarse_setup.push(t0.elapsed().as_secs_f64());
        }
    });
    out.push(
        "solvers.coarse_setup_s",
        median(&coarse_setup).unwrap_or(f64::NAN),
        "s",
    );
    let coarse = coarse.expect("coarse solver built");
    let r: Vec<f64> = s
        .pressure
        .iter()
        .enumerate()
        .map(|(i, p)| p + 1e-3 * ((i % 7) as f64 - 3.0))
        .collect();
    let mut z = vec![0.0; r.len()];
    let ca = per_call(tr, "solvers.coarse_apply", budget, || {
        timed(|| coarse.apply(&r, &mut z))
    });
    out.push("solvers.coarse_apply_s", ca, "s");
    let schwarz = tr.span("solvers.schwarz_setup", |_| {
        SchwarzPrecond::new(ops, s.cfg.schwarz)
    });
    let sa = per_call(tr, "solvers.schwarz_apply", budget, || {
        timed(|| schwarz.apply(&r, &mut z))
    });
    out.push("solvers.schwarz_apply_s", sa, "s");
    let overlap = s.cfg.schwarz.overlap;
    let gr = gauss(ops.ngp);
    let fdms: Vec<FdmElement> = (0..k)
        .map(|e| {
            let ext = ops.geo.element_extents(e);
            FdmElement::new(
                (0..dim)
                    .map(|d| Fdm1d::new(&gr.points, overlap, ext[d]))
                    .collect(),
            )
        })
        .collect();
    let extd = (ops.ngp + 2 * overlap).pow(dim as u32);
    let floc: Vec<f64> = (0..extd).map(|i| r[i % r.len()]).collect();
    let (mut fsol, mut fwork) = (vec![0.0; extd], vec![0.0; 3 * extd]);
    let fd = per_call(tr, "solvers.fdm_solve", budget, || {
        timed(|| {
            for f in &fdms {
                f.solve(&floc, &mut fsol, &mut fwork);
                black_box(&fsol);
            }
        })
    });
    out.push("solvers.fdm_solve_s", fd / k as f64, "s");

    // sem-ns: a compressed checkpoint, as the service's supervisors
    // write them.
    let path = ctx
        .out_dir
        .join(format!("ckpt_{}.ckpt", std::process::id()));
    let mut bytes = 0.0;
    let ck = per_call(tr, "ns.checkpoint_write", budget, || {
        let t = timed(|| {
            if let Err(e) = s.checkpoint().save_with(&path, true) {
                eprintln!("checkpoint write failed: {e}");
            }
        });
        bytes = std::fs::metadata(&path).map_or(f64::NAN, |m| m.len() as f64);
        t
    });
    let _ = std::fs::remove_file(&path);
    out.push("ns.checkpoint_write_s", ck, "s");
    out.push("ns.checkpoint_bytes", bytes, "bytes");
}
