//! The in-process workloads: a solver built from `sem_bench::workloads`
//! and stepped at one thread, in two replicas side by side.

use crate::gate::{self, Observables};
use crate::report::Outcome;
use crate::stats::{median, percentile, samples_for_tail};
use crate::trace::Tracer;
use sem_bench::workloads::{hairpin_channel, shear_layer};
use sem_comm::par::with_threads;
use sem_ns::NsSolver;
use std::f64::consts::PI;
use std::sync::Barrier;
use std::time::Instant;

/// Threads of the in-process workloads. One, not two: on a 2-vCPU
/// virtual machine two threads keep both vCPUs busy, the host then
/// steals time from them, and every element loop waits for its slower
/// thread, so step times spread across runs far more than at one thread
/// (see README.md). The traced run still times both thread counts
/// (`par.speedup`, `par.empty_call_us`).
pub const THREADS: usize = 1;
/// Copies of an in-process workload that the untraced run steps side by
/// side, one per vCPU (see [`run`]), as ranks with replicated compute
/// would. With one copy the other vCPU idles and the host lends its
/// core to other work from time to time: the step time then switched
/// between two levels about 35% apart for seconds at a time, and the
/// median of a run depended on how long it spent at each. Two copies
/// keep both vCPUs busy and average over two cores' states (README.md).
pub const REPLICAS: usize = 2;
/// Set-ups per run (at least this many, and for at least
/// `SETUP_MIN_SECONDS`); `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;
const SETUP_MIN_SECONDS: f64 = 3.0;
/// Timed steps of the traced run: blocks alternate untraced and traced.
const TRACE_BLOCKS: usize = 8;
const TRACE_BLOCK_STEPS: usize = 5;
/// Steps of one replayed block of the untraced run. Odd, so a replica's
/// median step time lies among the repeats of one step, not between two
/// steps of different cost.
const BLOCK_STEPS: usize = 9;
/// Steps of the other-thread-count baseline in the traced run.
const BASELINE_STEPS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 8 substitute: K = 96 deformed hexes, N = 5.
    Hairpin3d,
    /// Fig. 3 shear layer at 32 × 32 elements, N = 6.
    Shear2dK1024,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hairpin3d" => Some(Workload::Hairpin3d),
            "shear2d_k1024" => Some(Workload::Shear2dK1024),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hairpin3d => "hairpin3d",
            Workload::Shear2dK1024 => "shear2d_k1024",
        }
    }

    /// Distinct initial perturbations; the seed picks one. Each phase
    /// shifts the perturbation by whole elements along a periodic
    /// direction. The hairpin's two phases are mirror images of each
    /// other about the bump's spanwise centre, so they take the same
    /// solver iterations step by step: a seed changes the inputs, not
    /// the amount of work.
    pub fn phases(self) -> usize {
        match self {
            Workload::Hairpin3d => 2,
            Workload::Shear2dK1024 => 32,
        }
    }

    /// Build the solver with the perturbation of phase `phase`.
    pub fn build(self, phase: usize) -> NsSolver {
        match self {
            Workload::Hairpin3d => {
                let mut s = hairpin_channel([8, 3, 4], 5, 4e-3, 25);
                // The Blasius-like profile of `hairpin_channel` over the bump
                // (height 0.5, centre (2, 2), radius 0.6, δ = 0.5), plus
                // a spanwise wave of period L_z = 4 that vanishes at the
                // wall: cos(2πz/4) or its mirror image −cos(2πz/4).
                let phi = PI * (0.5 + phase as f64);
                s.set_velocity(move |x, y, z| {
                    let yw = 0.5 * (-((x - 2.0).powi(2) + (z - 2.0).powi(2)) / 0.36).exp();
                    let p = (1.0 - (-(y - yw).max(0.0) / 0.5).exp()).clamp(0.0, 1.0);
                    let w = 0.05 * 4.0 * p * (1.0 - p) * (2.0 * PI * z / 4.0 + phi).sin();
                    [p, 0.0, w]
                });
                s
            }
            Workload::Shear2dK1024 => {
                let (rho, kelem) = (30.0, 32);
                let mut s = shear_layer(kelem, 6, rho, 1e5, 0.3, 0.002);
                let shift = phase as f64 / kelem as f64;
                s.set_velocity(move |x, y, _| {
                    let u = if y <= 0.5 {
                        (rho * (y - 0.25)).tanh()
                    } else {
                        (rho * (0.75 - y)).tanh()
                    };
                    [u, 0.05 * (2.0 * PI * (x + shift)).sin(), 0.0]
                });
                s
            }
        }
    }
}

/// Set up repeatedly and keep the last solver; returns it with the
/// seconds of every set-up.
fn setup(w: Workload, phase: usize, tr: &mut Tracer) -> (NsSolver, Vec<f64>) {
    let mut times = Vec::new();
    let mut solver = None;
    while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(solver.take());
        let t0 = Instant::now();
        solver = Some(tr.span("workload.setup", |_| w.build(phase)));
        times.push(t0.elapsed().as_secs_f64());
    }
    (solver.expect("at least one set-up"), times)
}

/// One step, with the failure rules of the benchmark: an `Err` or an
/// unconverged pressure solve counts as a failed step.
fn step(s: &mut NsSolver, out: &mut Outcome) -> Option<sem_ns::StepStats> {
    out.attempted += 1;
    match s.step() {
        Ok(st) if st.pressure_converged => Some(st),
        Ok(st) => {
            out.fail(format!("step {}: pressure solve did not converge", st.step));
            Some(st)
        }
        Err(e) => {
            out.fail(format!("step {}: {e}", s.step_index + 1));
            None
        }
    }
}

/// Step `s` up to the gate step, giving up after a bounded number of
/// attempts (a failed step does not advance the solver).
fn warm_up(s: &mut NsSolver, out: &mut Outcome, tr: &mut Tracer) {
    for _ in 0..4 * gate::GATE_STEP {
        if s.step_index >= gate::GATE_STEP {
            break;
        }
        tr.span("ns.step", |_| step(s, out));
    }
}

/// Warm up to the gate step and check the state against the reference.
fn warm_up_and_gate(
    w: Workload,
    phase: usize,
    s: &mut NsSolver,
    out: &mut Outcome,
    tr: &mut Tracer,
) {
    warm_up(s, out, tr);
    let got = gate::observe(s);
    eprintln!(
        "{}: gate at step {}: kinetic energy {:.15e}, enstrophy {:.15e}",
        w.name(),
        s.step_index,
        got.kinetic_energy,
        got.enstrophy
    );
    match gate::reference(w.name(), phase) {
        Some(want) => {
            if let Err(e) = gate::check(got, want, gate::RTOL) {
                out.fail(format!("gate (phase {phase}): {e}"));
            }
        }
        None => out.fail(format!("gate: no reference for phase {phase}")),
    }
}

/// What one replica of the untraced run measured.
struct Replica {
    out: Outcome,
    setup_s: Vec<f64>,
    step_s: Vec<f64>,
    call_s: Vec<f64>,
    /// Seconds spent inside the timed steps.
    stepping: f64,
    replays: usize,
}

/// The untraced run: [`REPLICAS`] copies of the workload side by side,
/// each on its own thread with its own solver. Each sets up, warms up
/// to the gate and checks it; then, from a common start, each replays
/// the same block of [`BLOCK_STEPS`] steps from its gate step's
/// checkpoint for at least `seconds` and until its p90 has ten samples
/// beyond it, but for no more than 1.25 × `seconds`.
/// Replaying keeps the work of a run the same whatever the host's
/// speed: a run that went on stepping would reach later, cheaper steps
/// on a faster host, and its percentiles would mix host speed with the
/// flow's evolution. Every replay must end in the state of the first
/// one. A percentile metric is the mean of the replicas' percentiles:
/// a host that slows one vCPU and not the other gives the faster
/// replica more samples, and a percentile of the pooled samples would
/// jump to its level. `steps_per_s` is per replica and counts the time
/// inside the timed steps, not the restores and checks.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let phase = (seed % w.phases() as u64) as usize;
    let need = samples_for_tail(0.9, 10);
    let ready = Barrier::new(REPLICAS);
    let replicas: Vec<Replica> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..REPLICAS)
            .map(|_| {
                scope.spawn(|| with_threads(THREADS, || replica(w, phase, seconds, need, &ready)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replica thread does not panic"))
            .collect()
    });
    let mut out = Outcome::default();
    let pct = |v: &[f64], q| percentile(v, q).unwrap_or(f64::NAN);
    let mean_pct = |v: &[Vec<f64>], q| v.iter().map(|x| pct(x, q)).sum::<f64>() / v.len() as f64;
    let (mut setup_s, mut step_s, mut call_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut steps, mut stepping) = (0usize, 0.0);
    for (i, r) in replicas.into_iter().enumerate() {
        eprintln!(
            "{} replica {i}: {} replays of {BLOCK_STEPS} steps, {} timed in {:.3} s",
            w.name(),
            r.replays,
            r.step_s.len(),
            r.stepping
        );
        out.absorb(r.out);
        setup_s.extend(r.setup_s);
        steps += r.step_s.len();
        stepping += r.stepping;
        step_s.push(r.step_s);
        call_s.push(r.call_s);
    }
    out.push("setup_s", pct(&setup_s, 0.5), "s");
    out.push("step_s_p50", mean_pct(&step_s, 0.5), "s");
    out.push("step_s_p90", mean_pct(&step_s, 0.9), "s");
    out.push("steps_per_s", steps as f64 / stepping, "1/s");
    out.push("job_latency_s_p50", mean_pct(&call_s, 0.5), "s");
    out.push("job_latency_s_p90", mean_pct(&call_s, 0.9), "s");
    out.push(
        "peak_rss_mb",
        crate::peak_rss_mb("self").unwrap_or(f64::NAN),
        "MB",
    );
    out
}

/// One replica of [`run`]: set-up, gate, wait for the other replicas,
/// then the timed replays.
fn replica(w: Workload, phase: usize, seconds: f64, need: usize, ready: &Barrier) -> Replica {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(String::new(), false);
    let (mut s, setup_s) = setup(w, phase, &mut tr);
    warm_up_and_gate(w, phase, &mut s, &mut out, &mut tr);
    let start = s.checkpoint();
    let mut end_state = None;
    let (mut step_s, mut call_s) = (Vec::new(), Vec::new());
    let (mut replays, mut stepping) = (0usize, 0.0);
    ready.wait();
    let t0 = Instant::now();
    loop {
        let elapsed = t0.elapsed().as_secs_f64();
        if (elapsed >= seconds && step_s.len() >= need) || elapsed >= 1.25 * seconds {
            break;
        }
        if let Err(e) = s.restore_checkpoint(&start) {
            out.fail(format!("restore of the gate-step state: {e}"));
            break;
        }
        let b0 = Instant::now();
        for _ in 0..BLOCK_STEPS {
            let c0 = Instant::now();
            if let Some(st) = step(&mut s, &mut out) {
                call_s.push(c0.elapsed().as_secs_f64());
                step_s.push(st.seconds);
            }
        }
        stepping += b0.elapsed().as_secs_f64();
        replays += 1;
        let got = gate::observe(&s);
        match end_state {
            None => end_state = Some(got),
            Some(want) => {
                if let Err(e) = gate::check(got, want, gate::RTOL) {
                    out.fail(format!("replay {replays} ended elsewhere: {e}"));
                }
            }
        }
    }
    if !end_state.is_some_and(|o| o.kinetic_energy.is_finite()) {
        out.fail("final kinetic energy is not finite".to_string());
    }
    Replica {
        out,
        setup_s,
        step_s,
        call_s,
        stepping,
        replays,
    }
}

/// The traced run: the same set-up and gate, then [`step_layers`] and
/// one timed call series per layer on this workload's solver.
pub fn run_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    ctx: &crate::layers::Context,
    tr: &mut Tracer,
) -> Outcome {
    let mut out = Outcome::default();
    let phase = (seed % w.phases() as u64) as usize;
    with_threads(THREADS, || {
        let (mut s, _) = tr.span("setup", |tr| setup(w, phase, tr));
        tr.span("warm_up", |tr| {
            warm_up_and_gate(w, phase, &mut s, &mut out, tr)
        });
        step_layers(&mut s, THREADS, tr, &mut out);
        tr.span("layers", |tr| {
            crate::layers::sweep(&s, seconds, ctx, tr, &mut out)
        });
    });
    out
}

/// Step-level layer metrics of `s` at `threads` threads: blocks of
/// steps that alternate untraced and traced (with the `sem_obs` spans
/// and counters on), then a baseline at the other thread count of
/// {1, 2} for `par.speedup` (1-thread over 2-thread step time). A
/// solver short of the gate step first steps up to it, so the start-up
/// transient stays out of the blocks.
pub fn step_layers(s: &mut NsSolver, threads: usize, tr: &mut Tracer, out: &mut Outcome) {
    with_threads(threads, || warm_up(s, out, tr));
    let (mut plain, mut traced, mut other) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p_iters, mut h_iters, mut n_steps) = (0usize, 0usize, 0usize);
    let spans0 = sem_obs::spans::span_snapshot();
    let counters0 = sem_obs::counters::snapshot();
    with_threads(threads, || {
        tr.span("steps", |tr| {
            for b in 0..TRACE_BLOCKS {
                let on = b % 2 == 1;
                sem_obs::set_enabled(on);
                for _ in 0..TRACE_BLOCK_STEPS {
                    let st = if on {
                        tr.span("ns.step", |_| step(s, out))
                    } else {
                        step(s, out)
                    };
                    if let Some(st) = st {
                        (if on { &mut traced } else { &mut plain }).push(st.seconds);
                        p_iters += st.pressure_iters;
                        h_iters += st.helmholtz_iters.iter().sum::<usize>();
                        n_steps += 1;
                    }
                }
                sem_obs::set_enabled(false);
            }
        })
    });
    let spans = sem_obs::spans::span_snapshot().delta(&spans0);
    let counters = sem_obs::counters::snapshot().delta(&counters0);
    let other_threads = if threads == 1 { 2 } else { 1 };
    tr.span("steps.baseline", |_| {
        with_threads(other_threads, || {
            for _ in 0..BASELINE_STEPS {
                if let Some(st) = step(s, out) {
                    other.push(st.seconds);
                }
            }
        })
    });
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let speedup = if threads == 1 {
        med(&plain) / med(&other)
    } else {
        med(&other) / med(&plain)
    };
    out.push("par.speedup", speedup, "ratio");
    out.push(
        "trace_overhead_frac",
        med(&traced) / med(&plain) - 1.0,
        "frac",
    );
    let traced_steps = traced.len().max(1) as f64;
    out.push(
        "linalg.mxm_flops_per_step",
        counters.get(sem_obs::Counter::MxmFlops) as f64 / traced_steps,
        "flop",
    );
    out.push(
        "gs.words_per_step",
        counters.get(sem_obs::Counter::GsWords) as f64 / traced_steps,
        "count",
    );
    let n = n_steps.max(1) as f64;
    out.push(
        "solvers.pressure_iters_per_step",
        p_iters as f64 / n,
        "count",
    );
    out.push(
        "solvers.helmholtz_iters_per_step",
        h_iters as f64 / n,
        "count",
    );
    let step_total = spans.seconds(sem_obs::Phase::Step);
    for (name, phase) in [
        ("ns.oifs_frac", sem_obs::Phase::Oifs),
        ("ns.helmholtz_frac", sem_obs::Phase::Helmholtz),
        ("ns.pressure_cg_frac", sem_obs::Phase::PressureCg),
        ("ns.schwarz_frac", sem_obs::Phase::Schwarz),
        ("ns.coarse_frac", sem_obs::Phase::CoarseSolve),
    ] {
        out.push(name, spans.seconds(phase) / step_total, "frac");
    }
}

/// Print the gate observables of every phase, for the reference table.
pub fn calibrate(w: Workload) {
    with_threads(THREADS, || {
        for phase in 0..w.phases() {
            let mut s = w.build(phase);
            let mut out = Outcome::default();
            while s.step_index < gate::GATE_STEP {
                step(&mut s, &mut out);
            }
            let Observables {
                kinetic_energy,
                enstrophy,
            } = gate::observe(&s);
            println!(
                "    Observables {{ kinetic_energy: {kinetic_energy:?}, enstrophy: {enstrophy:?} }}, // phase {phase}, {} failed",
                out.failed
            );
        }
    });
}
