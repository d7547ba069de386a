//! The time stepper: BDFk / EXTk–OIFS incremental pressure-correction
//! splitting (§4).
//!
//! Each step performs, in order:
//!
//! 1. explicit right-hand side assembly — BDF history terms (advected to
//!    `tⁿ` by characteristics when OIFS is active), extrapolated
//!    convection (EXT mode), forcing, Boussinesq buoyancy, and the
//!    previous pressure gradient (incremental form);
//! 2. one Jacobi-PCG Helmholtz solve per velocity component
//!    (`H = νA + (β₀/Δt)B`), with inhomogeneous Dirichlet data imposed by
//!    lifting;
//! 3. the pressure-increment solve `E δp = −(β₀/Δt) D u*` through the
//!    projection + Schwarz-PCG pressure solver, followed by the velocity
//!    correction `uⁿ = u* + (Δt/β₀) B̄⁻¹ Dᵀ δp`;
//! 4. once-per-step filter stabilization of velocity (and temperature);
//! 5. the temperature transport step (when Boussinesq coupling is on).

use crate::checkpoint::Checkpoint;
use crate::config::{bdf_coeffs, Boussinesq, ConvectionScheme, NsConfig};
use crate::convection::{advect_field, ext_convection, OifsScratch};
use crate::diagnostics::{cfl, field_health, kinetic_energy, HealthViolation, StepStats};
use crate::fault::{FaultKind, FieldTarget};
use crate::recovery::{RecoveryAttempt, RecoveryStage, SolveKind, StepError, StepFailure};
use sem_obs::fault::{self as obs_fault, FaultSite};
use sem_ops::convect::convect;
use sem_ops::fields::set_dirichlet;
use sem_ops::filter::ElementFilter;
use sem_ops::laplace::helmholtz_local;
use sem_ops::pressure::{divergence, gradient_weak};
use sem_ops::SemOps;
use sem_solvers::jacobi::HelmholtzSolver;
use sem_solvers::PressureSolver;
use std::collections::VecDeque;
use std::time::Instant;

/// Velocity boundary-value function: `(x, y, z, t) → [u, v, w]`.
pub type BcFn = Box<dyn Fn(f64, f64, f64, f64) -> [f64; 3] + Sync + Send>;
/// Body-force function: `(x, y, z, t) → [fx, fy, fz]`.
pub type ForceFn = Box<dyn Fn(f64, f64, f64, f64) -> [f64; 3] + Sync + Send>;
/// Scalar boundary/initial value function: `(x, y, z, t) → T`.
pub type ScalarFn = Box<dyn Fn(f64, f64, f64, f64) -> f64 + Sync + Send>;

/// The incompressible Navier–Stokes solver.
///
/// # Examples
///
/// A few steps of a decaying Taylor–Green vortex:
///
/// ```
/// use sem_mesh::generators::box2d;
/// use sem_ns::{NsConfig, NsSolver};
/// use sem_ops::SemOps;
/// let l = 2.0 * std::f64::consts::PI;
/// let mesh = box2d(2, 2, [0.0, l], [0.0, l], true, true);
/// let ops = SemOps::new(mesh, 6);
/// let mut solver = NsSolver::new(ops, NsConfig { dt: 5e-3, nu: 0.05, ..Default::default() });
/// solver.set_velocity(|x, y, _| [x.sin() * y.cos(), -x.cos() * y.sin(), 0.0]);
/// for _ in 0..3 {
///     let stats = solver.step().expect("no faults configured, step cannot fail");
///     assert!(stats.pressure_iters > 0);
/// }
/// assert!(solver.time > 0.0);
/// ```
pub struct NsSolver {
    /// The discretization bundle.
    pub ops: SemOps,
    /// Configuration.
    pub cfg: NsConfig,
    /// Current velocity components.
    pub vel: Vec<Vec<f64>>,
    /// Current pressure (on the `P_{N−2}` Gauss grid).
    pub pressure: Vec<f64>,
    /// Current temperature (when Boussinesq coupling is active).
    pub temp: Option<Vec<f64>>,
    /// Simulation time.
    pub time: f64,
    /// Steps taken.
    pub step_index: usize,
    vel_hist: VecDeque<Vec<Vec<f64>>>,
    time_hist: VecDeque<f64>,
    conv_hist: VecDeque<Vec<Vec<f64>>>,
    temp_hist: VecDeque<Vec<f64>>,
    temp_conv_hist: VecDeque<Vec<f64>>,
    helmholtz: Option<(f64, HelmholtzSolver)>,
    helmholtz_t: Option<(f64, HelmholtzSolver)>,
    pressure_solver: PressureSolver,
    filter: Option<ElementFilter>,
    bc: Option<BcFn>,
    force: Option<ForceFn>,
    temp_bc: Option<ScalarFn>,
    oifs_scratch: OifsScratch,
    scalars: Vec<PassiveScalar>,
    /// Pending Δt restoration after a stage-3 (Δt-halving) recovery.
    dt_restore: Option<DtRestore>,
}

/// Bookkeeping for restoring the original Δt after a halving recovery.
#[derive(Clone, Copy, Debug)]
struct DtRestore {
    /// The Δt to return to.
    original_dt: f64,
    /// Clean steps still required before restoring.
    clean_steps_left: usize,
}

impl NsSolver {
    /// Create a solver at rest on `ops`.
    pub fn new(ops: SemOps, cfg: NsConfig) -> Self {
        if cfg.metrics {
            sem_obs::set_enabled(true);
            if let Some(h) = &cfg.sink {
                sem_obs::sink::set_sink(Some(h.0.clone()));
            }
            if let Some(r) = cfg.rank {
                sem_obs::set_rank(Some(r));
            }
        }
        if let Some(b) = cfg.backend {
            sem_linalg::backend::set_backend(b);
        }
        let n = ops.n_velocity();
        let np = ops.n_pressure();
        let dim = ops.geo.dim;
        let pressure_solver =
            PressureSolver::with_schwarz(&ops, cfg.schwarz, cfg.pressure_lmax, cfg.pressure_cg);
        let filter = (cfg.filter_alpha > 0.0).then(|| ElementFilter::new(&ops, cfg.filter_alpha));
        let temp = cfg.boussinesq.map(|_| vec![0.0; n]);
        let oifs_scratch = OifsScratch::new(&ops);
        NsSolver {
            vel: vec![vec![0.0; n]; dim],
            pressure: vec![0.0; np],
            temp,
            time: 0.0,
            step_index: 0,
            vel_hist: VecDeque::new(),
            time_hist: VecDeque::new(),
            conv_hist: VecDeque::new(),
            temp_hist: VecDeque::new(),
            temp_conv_hist: VecDeque::new(),
            helmholtz: None,
            helmholtz_t: None,
            pressure_solver,
            filter,
            bc: None,
            force: None,
            temp_bc: None,
            oifs_scratch,
            scalars: Vec::new(),
            dt_restore: None,
            ops,
            cfg,
        }
    }

    /// Set the initial velocity from a function.
    pub fn set_velocity(&mut self, f: impl Fn(f64, f64, f64) -> [f64; 3] + Sync) {
        let dim = self.ops.geo.dim;
        for i in 0..self.ops.n_velocity() {
            let v = f(self.ops.geo.x[i], self.ops.geo.y[i], self.ops.geo.z[i]);
            for c in 0..dim {
                self.vel[c][i] = v[c];
            }
        }
    }

    /// Set the initial temperature from a function.
    ///
    /// # Panics
    /// Panics unless Boussinesq coupling is configured.
    pub fn set_temperature(&mut self, f: impl Fn(f64, f64, f64) -> f64 + Sync) {
        let t = self
            .temp
            .as_mut()
            .expect("set_temperature requires Boussinesq coupling");
        for i in 0..self.ops.n_velocity() {
            t[i] = f(self.ops.geo.x[i], self.ops.geo.y[i], self.ops.geo.z[i]);
        }
    }

    /// Set the (time-dependent) velocity Dirichlet boundary values.
    pub fn set_bc(&mut self, f: BcFn) {
        self.bc = Some(f);
    }

    /// Set the body force.
    pub fn set_forcing(&mut self, f: ForceFn) {
        self.force = Some(f);
    }

    /// Set the temperature Dirichlet boundary values.
    pub fn set_temp_bc(&mut self, f: ScalarFn) {
        self.temp_bc = Some(f);
    }

    /// Current effective BDF order: limited by the history levels
    /// available (called after the current state is pushed, so the first
    /// step runs BDF1, the second BDF2, …).
    fn effective_order(&self) -> usize {
        self.cfg.torder.min(self.vel_hist.len()).max(1)
    }

    /// Ensure the cached velocity Helmholtz solver matches `h2`.
    fn ensure_helmholtz(&mut self, h2: f64) {
        let rebuild = match &self.helmholtz {
            Some((cached, _)) => (cached - h2).abs() > 1e-14 * h2.abs(),
            None => true,
        };
        if rebuild {
            let s = HelmholtzSolver::new(&self.ops, self.cfg.nu, h2, self.cfg.helmholtz_cg);
            self.helmholtz = Some((h2, s));
        }
    }

    /// Ensure the cached temperature Helmholtz solver matches `h2`.
    fn ensure_helmholtz_t(&mut self, kappa: f64, h2: f64) {
        let rebuild = match &self.helmholtz_t {
            Some((cached, _)) => (cached - h2).abs() > 1e-14 * h2.abs(),
            None => true,
        };
        if rebuild {
            let s = HelmholtzSolver::new(&self.ops, kappa, h2, self.cfg.helmholtz_cg);
            self.helmholtz_t = Some((h2, s));
        }
    }

    /// Advance one timestep; returns the step's statistics.
    ///
    /// With `cfg.metrics` on, additionally emits one
    /// [`sem_obs::StepRecord`] to the metrics sink (stdout `JSON `-
    /// prefixed lines by default; see `sem_obs::sink` and the schema in
    /// `crates/obs/src/record.rs`).
    ///
    /// # Errors
    ///
    /// Without a fault plan and with recovery disabled (the defaults)
    /// this never fails: the step body is the pre-`sem-guard` fast path
    /// — no snapshot, bitwise-identical results. When
    /// [`crate::NsConfig::faults`] or [`crate::NsConfig::recovery`] is
    /// active, a failed step (CG breakdown, non-finite field, energy
    /// blow-up, dropped gather-scatter exchange) is rolled back and
    /// retried through the escalation ladder of
    /// [`crate::recovery::RecoveryPolicy`]; when the ladder is
    /// exhausted (or recovery is disabled) a [`StepError`] is returned
    /// with the solver left at the pre-step state.
    pub fn step(&mut self) -> Result<StepStats, StepError> {
        let wall = Instant::now();
        let counters0 = sem_obs::counters::snapshot();
        let spans0 = sem_obs::spans::span_snapshot();
        let hist0 = sem_obs::hist::hist_snapshot();
        let step_span = sem_obs::span(sem_obs::Phase::Step);
        let flops0 = self.ops.flops_so_far();
        let guarded = self.cfg.recovery.enabled || self.cfg.faults.is_some();
        let mut stats = if guarded {
            match self.guarded_step() {
                Ok(s) => s,
                Err(e) => {
                    drop(step_span);
                    return Err(e);
                }
            }
        } else {
            self.attempt_step().0
        };
        drop(step_span);
        stats.flops = self.ops.flops_so_far() - flops0;
        stats.seconds = wall.elapsed().as_secs_f64();
        if self.cfg.metrics {
            let scalar_active = self.cfg.boussinesq.is_some() || !self.scalars.is_empty();
            let mut rec = stats.to_record(self.cfg.dt, scalar_active);
            rec.capture_registries((&counters0, &spans0, &hist0));
            // Per-solver attribution: a solver carrying its own rank
            // stamp / sink routes records there even when several
            // solvers share one process (sem-serve supervisors), so
            // streams stay separable without touching the globals.
            if self.cfg.rank.is_some() {
                rec.rank = self.cfg.rank;
            }
            match &self.cfg.sink {
                Some(h) => h.0.emit(&rec.to_json_body()),
                None => rec.emit(),
            }
        }
        Ok(stats)
    }

    /// One attempt of the step body (the pre-`sem-guard` `step`).
    /// Returns the stats (with `flops`/`seconds` left at zero for the
    /// caller to fill) and the first failure observed, if any. The
    /// attempt always runs to completion — a breakdown leaves garbage
    /// in the fields, which the caller rolls back.
    fn attempt_step(&mut self) -> (StepStats, Option<StepFailure>) {
        let mut failure: Option<StepFailure> = None;
        let dim = self.ops.geo.dim;
        let n = self.ops.n_velocity();
        let dt = self.cfg.dt;
        let t_new = self.time + dt;
        self.step_index += 1;

        // --- histories entering this step -------------------------------
        // Push the *current* state as level n−1.
        let order_next = self.cfg.torder;
        // Convection of the current field (one evaluation per step).
        if matches!(self.cfg.convection, ConvectionScheme::Ext) {
            let _conv_span = sem_obs::span(sem_obs::Phase::Convection);
            let mut conv = vec![vec![0.0; n]; dim];
            let refs: Vec<&[f64]> = self.vel.iter().map(|c| c.as_slice()).collect();
            let mut grad = vec![vec![0.0; n]; dim];
            for c in 0..dim {
                convect(&self.ops, &refs, &self.vel[c], &mut conv[c], &mut grad);
            }
            self.conv_hist.push_front(conv);
            self.conv_hist.truncate(order_next);
        }
        if let Some(t) = &self.temp {
            let refs: Vec<&[f64]> = self.vel.iter().map(|c| c.as_slice()).collect();
            let mut convt = vec![0.0; n];
            let mut grad = vec![vec![0.0; n]; dim];
            convect(&self.ops, &refs, t, &mut convt, &mut grad);
            self.temp_conv_hist.push_front(convt);
            self.temp_conv_hist.truncate(order_next);
            self.temp_hist.push_front(t.clone());
            self.temp_hist.truncate(order_next);
        }
        self.vel_hist.push_front(self.vel.clone());
        self.vel_hist.truncate(order_next);
        self.time_hist.push_front(self.time);
        self.time_hist.truncate(order_next);

        let k = self.effective_order();
        let (b0, bj) = bdf_coeffs(k);
        let h2 = b0 / dt;
        let cfl_now = cfl(&self.ops, &self.vel, dt);

        // --- explicit RHS per component ---------------------------------
        let bm = self.ops.geo.bm.clone();
        let mut rhs: Vec<Vec<f64>> = vec![vec![0.0; n]; dim];
        match self.cfg.convection {
            ConvectionScheme::Oifs { substeps } => {
                // Advect each history level to t_new along characteristics.
                let _conv_span = sem_obs::span(sem_obs::Phase::Convection);
                let times: Vec<f64> = self.time_hist.iter().copied().collect();
                let fields: Vec<Vec<Vec<f64>>> = self.vel_hist.iter().cloned().collect();
                for (j, coeff) in bj.iter().enumerate().take(self.vel_hist.len()) {
                    let mut advected = self.vel_hist[j].clone();
                    let t0 = self.time_hist[j];
                    let total_steps = substeps.max(1) * (j + 1);
                    let _oifs_span = sem_obs::span(sem_obs::Phase::Oifs);
                    for comp in advected.iter_mut() {
                        advect_field(
                            &self.ops,
                            comp,
                            t0,
                            t_new,
                            &times,
                            &fields,
                            total_steps,
                            &mut self.oifs_scratch,
                        );
                    }
                    for c in 0..dim {
                        for i in 0..n {
                            rhs[c][i] += (coeff / dt) * bm[i] * advected[c][i];
                        }
                    }
                }
            }
            _ => {
                for (j, coeff) in bj.iter().enumerate().take(self.vel_hist.len()) {
                    for c in 0..dim {
                        for i in 0..n {
                            rhs[c][i] += (coeff / dt) * bm[i] * self.vel_hist[j][c][i];
                        }
                    }
                }
                if matches!(self.cfg.convection, ConvectionScheme::Ext) {
                    let mut cx = vec![0.0; n];
                    for c in 0..dim {
                        let comp_hist: Vec<Vec<f64>> =
                            self.conv_hist.iter().map(|lvl| lvl[c].clone()).collect();
                        ext_convection(k, &comp_hist, &mut cx);
                        for i in 0..n {
                            rhs[c][i] += bm[i] * cx[i];
                        }
                    }
                }
            }
        }
        // Forcing.
        if let Some(f) = &self.force {
            for i in 0..n {
                let fv = f(
                    self.ops.geo.x[i],
                    self.ops.geo.y[i],
                    self.ops.geo.z[i],
                    t_new,
                );
                for c in 0..dim {
                    rhs[c][i] += bm[i] * fv[c];
                }
            }
        }
        // Boussinesq buoyancy with extrapolated temperature.
        if let Some(Boussinesq { g_beta, .. }) = self.cfg.boussinesq {
            let text: Vec<f64> = {
                let c = crate::config::ext_coeffs(k.min(self.temp_hist.len()));
                let mut t = vec![0.0; n];
                for (j, cj) in c.iter().enumerate() {
                    for (tv, &hv) in t.iter_mut().zip(self.temp_hist[j].iter()) {
                        *tv += cj * hv;
                    }
                }
                t
            };
            for c in 0..dim {
                if g_beta[c] != 0.0 {
                    for i in 0..n {
                        rhs[c][i] += bm[i] * g_beta[c] * text[i];
                    }
                }
            }
        }
        // Incremental form: previous pressure gradient.
        {
            let mut gp = vec![vec![0.0; n]; dim];
            gradient_weak(&self.ops, &self.pressure, &mut gp);
            for c in 0..dim {
                for i in 0..n {
                    rhs[c][i] += gp[c][i];
                }
            }
        }
        // Assemble.
        for r in rhs.iter_mut() {
            self.ops.dssum_mask(r);
        }

        // --- Helmholtz solves with Dirichlet lifting ---------------------
        let helm_span = sem_obs::span(sem_obs::Phase::Helmholtz);
        let mut helm_iters = Vec::with_capacity(dim);
        let mut u_star: Vec<Vec<f64>> = Vec::with_capacity(dim);
        for c in 0..dim {
            // Lift: boundary data at t_new on top of the previous field.
            let mut ub = self.vel[c].clone();
            if let Some(bcf) = &self.bc {
                let geo = &self.ops.geo;
                for i in 0..n {
                    if self.ops.mask[i] == 0.0 {
                        ub[i] = bcf(geo.x[i], geo.y[i], geo.z[i], t_new)[c];
                    }
                }
            } else {
                set_dirichlet(&self.ops, &mut ub, |_, _, _| 0.0);
            }
            let mut hub = vec![0.0; n];
            helmholtz_local(&self.ops, &ub, &mut hub, self.cfg.nu, h2);
            self.ops.dssum_mask(&mut hub);
            let mut b = rhs[c].clone();
            for i in 0..n {
                b[i] -= hub[i];
            }
            // Initial guess: previous homogeneous part.
            let mut u0: Vec<f64> = self.vel[c]
                .iter()
                .zip(ub.iter())
                .zip(self.ops.mask.iter())
                .map(|((&u, &l), &m)| (u - l) * m)
                .collect();
            self.ensure_helmholtz(h2);
            let solver = &self.helmholtz.as_ref().unwrap().1;
            let res = solver.solve(&self.ops, &mut u0, &b);
            if failure.is_none() {
                if let Some(bd) = res.breakdown {
                    failure = Some(StepFailure::Breakdown {
                        solve: SolveKind::Helmholtz(c),
                        breakdown: bd,
                    });
                }
            }
            helm_iters.push(res.iterations);
            let mut u_new = u0;
            for i in 0..n {
                u_new[i] += ub[i];
            }
            u_star.push(u_new);
        }
        drop(helm_span);

        // --- pressure correction ----------------------------------------
        let np = self.ops.n_pressure();
        let mut g = vec![0.0; np];
        {
            let refs: Vec<&[f64]> = u_star.iter().map(|c| c.as_slice()).collect();
            divergence(&self.ops, &refs, &mut g);
        }
        for v in g.iter_mut() {
            *v *= -h2;
        }
        let mut dp = vec![0.0; np];
        let pstats = self.pressure_solver.solve(&self.ops, &mut dp, &mut g);
        if failure.is_none() {
            if let Some(bd) = pstats.breakdown {
                failure = Some(StepFailure::Breakdown {
                    solve: SolveKind::Pressure,
                    breakdown: bd,
                });
            }
        }
        for (p, &d) in self.pressure.iter_mut().zip(dp.iter()) {
            *p += d;
        }
        {
            let mut w = vec![vec![0.0; n]; dim];
            gradient_weak(&self.ops, &dp, &mut w);
            for c in 0..dim {
                self.ops.dssum_mask(&mut w[c]);
                for i in 0..n {
                    u_star[c][i] += (1.0 / h2) * w[c][i] / self.ops.bm_assembled[i];
                }
            }
        }
        self.vel = u_star;

        // --- filter -------------------------------------------------------
        if let Some(f) = &self.filter {
            let _filter_span = sem_obs::span(sem_obs::Phase::Filter);
            for c in 0..dim {
                f.apply(&self.ops, &mut self.vel[c]);
            }
        }

        // --- temperature transport ---------------------------------------
        let mut temp_iters = 0;
        if let Some(b) = self.cfg.boussinesq {
            let (iters, bd) = self.step_temperature(b, k, h2, t_new);
            temp_iters = iters;
            if failure.is_none() {
                if let Some(bd) = bd {
                    failure = Some(StepFailure::Breakdown {
                        solve: SolveKind::Scalar,
                        breakdown: bd,
                    });
                }
            }
            if let (Some(f), Some(t)) = (&self.filter, self.temp.as_mut()) {
                let _filter_span = sem_obs::span(sem_obs::Phase::Filter);
                f.apply(&self.ops, t);
            }
        }

        // --- passive species transport ------------------------------------
        if !self.scalars.is_empty() {
            let (iters, bd) = self.step_scalars(k, h2, t_new);
            temp_iters += iters;
            if failure.is_none() {
                if let Some(bd) = bd {
                    failure = Some(StepFailure::Breakdown {
                        solve: SolveKind::Scalar,
                        breakdown: bd,
                    });
                }
            }
        }

        self.time = t_new;
        let stats = StepStats {
            step: self.step_index,
            time: self.time,
            pressure_iters: pstats.iterations,
            pressure_initial_residual: pstats.initial_residual,
            pressure_final_residual: pstats.residual,
            pressure_history_len: pstats.history_len,
            pressure_converged: pstats.converged,
            helmholtz_iters: helm_iters,
            temp_iters,
            cfl: cfl_now,
            ..StepStats::default()
        };
        (stats, failure)
    }

    /// The guarded step: snapshot, inject scheduled faults, attempt,
    /// and walk the recovery ladder on failure (see
    /// [`crate::recovery`]).
    fn guarded_step(&mut self) -> Result<StepStats, StepError> {
        let policy = self.cfg.recovery;
        let step_idx = self.step_index + 1;
        let entry_time = self.time;
        let original_dt = self.cfg.dt;
        // The rollback snapshot is a checkpoint (the Helmholtz caches
        // are kept — they depend only on `h2` and rebuild
        // deterministically).
        let snap = self.checkpoint();
        let entry_kinetic = kinetic_energy(&self.ops, &self.vel);
        let mut trail: Vec<RecoveryAttempt> = Vec::new();
        let mut halvings = 0usize;
        let mut attempt = 0usize;
        loop {
            self.inject_faults(step_idx, attempt);
            let (mut stats, mut failure) = self.attempt_step();

            // Drain the process-global fault letterbox. A dropped
            // gather-scatter exchange leaves fields finite but
            // inconsistent across element boundaries, so the sticky
            // fired flag is the only way to learn about it; the other
            // sites surface through CG breakdowns or the health scan.
            obs_fault::disarm_all();
            if obs_fault::take_fired(FaultSite::GsExchange) && failure.is_none() {
                failure = Some(StepFailure::ExchangeDropped);
            }
            let _ = obs_fault::take_fired(FaultSite::PressureOperator);
            let _ = obs_fault::take_fired(FaultSite::PressurePrecond);
            let _ = obs_fault::take_fired(FaultSite::ProjectionUpdate);
            let _ = obs_fault::take_fired(FaultSite::CoarseRhs);

            if failure.is_none() {
                failure = self.health_failure(entry_kinetic, policy.max_energy_growth);
            }

            let Some(cause) = failure else {
                // Committed. The Jacobi fallback is per-step; a halved
                // Δt persists until enough clean steps have passed.
                self.pressure_solver.set_jacobi_fallback(false);
                stats.recoveries = trail.len();
                stats.recovery_trail = trail;
                self.settle_dt_restore(original_dt, stats.recoveries, policy.dt_recovery_steps);
                return Ok(stats);
            };

            // Roll back to step entry before deciding what to do next.
            self.apply_checkpoint(&snap);
            self.pressure_solver.set_jacobi_fallback(false);

            let rollbacks = trail.len();
            let stage = if !policy.enabled || rollbacks >= policy.max_retries {
                None
            } else if rollbacks == 0 {
                Some(RecoveryStage::ClearProjection)
            } else if rollbacks == 1 && policy.jacobi_fallback {
                Some(RecoveryStage::JacobiFallback)
            } else if halvings < policy.max_dt_halvings {
                halvings += 1;
                Some(RecoveryStage::HalveDt(
                    original_dt / f64::powi(2.0, halvings as i32),
                ))
            } else {
                None
            };

            let Some(stage) = stage else {
                trail.push(RecoveryAttempt { cause: cause.clone(), stage: None });
                return Err(StepError {
                    step: step_idx,
                    time: entry_time,
                    cause,
                    trail,
                });
            };

            sem_obs::counters::add(sem_obs::Counter::Recoveries, 1);
            sem_obs::trace::note("recovery_rollback", (rollbacks + 1) as f64);
            trail.push(RecoveryAttempt {
                cause,
                stage: Some(stage),
            });

            // Stages are cumulative; re-apply them all after the
            // rollback (restoring the snapshot also restored the
            // projection basis and Δt).
            self.pressure_solver.clear_history();
            self.pressure_solver
                .set_jacobi_fallback(policy.jacobi_fallback && trail.len() >= 2);
            if halvings > 0 {
                self.cfg.dt = original_dt / f64::powi(2.0, halvings as i32);
                // A changed Δt invalidates the uniform-spacing multistep
                // history: restart at BDF1/EXT1.
                self.clear_multistep_history();
            }
            attempt += 1;
        }
    }

    /// Inject the fault plan's events scheduled for `attempt` of
    /// (1-based) `step`: field faults are applied directly (at a
    /// seed-chosen node), the rest are armed in the `sem_obs::fault`
    /// letterbox for their in-solver injection sites.
    fn inject_faults(&mut self, step: usize, attempt: usize) {
        let Some(plan) = self.cfg.faults.clone() else {
            return;
        };
        for ev in plan.events_for(step, attempt) {
            match ev.kind {
                FaultKind::FieldNan | FaultKind::FieldInf => {
                    let val = if ev.kind == FaultKind::FieldNan {
                        f64::NAN
                    } else {
                        f64::INFINITY
                    };
                    let target = ev.field.expect("field faults carry a target");
                    let data: &mut Vec<f64> = match target {
                        FieldTarget::U => &mut self.vel[0],
                        FieldTarget::V => &mut self.vel[1],
                        FieldTarget::W => {
                            if self.vel.len() < 3 {
                                eprintln!("terasem: ignoring w-field fault on a 2D run");
                                continue;
                            }
                            &mut self.vel[2]
                        }
                        FieldTarget::Pressure => &mut self.pressure,
                        // `t` poisons the active scalar transport: the
                        // Boussinesq temperature when coupled, else the
                        // first registered passive scalar (its Helmholtz
                        // solve and health scan see the NaN/Inf).
                        FieldTarget::Temperature => match self.temp.as_mut() {
                            Some(t) => t,
                            None => match self.scalars.first_mut() {
                                Some(sc) => &mut sc.field,
                                None => {
                                    eprintln!(
                                        "terasem: ignoring temperature fault without Boussinesq or passive scalars"
                                    );
                                    continue;
                                }
                            },
                        },
                    };
                    let idx = plan.node_index(step, target, data.len());
                    data[idx] = val;
                    sem_obs::counters::add(sem_obs::Counter::FaultsInjected, 1);
                    sem_obs::trace::note("fault_injected_field", idx as f64);
                }
                FaultKind::IndefiniteOperator => obs_fault::arm(FaultSite::PressureOperator),
                FaultKind::IndefinitePreconditioner => obs_fault::arm(FaultSite::PressurePrecond),
                FaultKind::ProjectionCorruption => obs_fault::arm(FaultSite::ProjectionUpdate),
                FaultKind::GsDrop => obs_fault::arm(FaultSite::GsExchange),
                FaultKind::CoarseCorruption => obs_fault::arm(FaultSite::CoarseRhs),
            }
        }
    }

    /// Post-attempt field-health check: NaN/Inf scan over every evolved
    /// field plus the kinetic-energy watchdog.
    fn health_failure(&self, ke0: f64, max_growth: f64) -> Option<StepFailure> {
        const COMP: [&str; 3] = ["u", "v", "w"];
        let mut fields: Vec<(&str, &[f64])> = Vec::new();
        for (c, comp) in self.vel.iter().enumerate() {
            fields.push((COMP[c], comp.as_slice()));
        }
        fields.push(("p", self.pressure.as_slice()));
        if let Some(t) = &self.temp {
            fields.push(("T", t.as_slice()));
        }
        for sc in &self.scalars {
            fields.push((sc.name.as_str(), sc.field.as_slice()));
        }
        if let Some(v) = field_health(fields) {
            return Some(StepFailure::FieldHealth(v));
        }
        if max_growth > 0.0 && ke0 > 0.0 {
            let ke = kinetic_energy(&self.ops, &self.vel);
            if ke > max_growth * ke0 {
                return Some(StepFailure::FieldHealth(HealthViolation::EnergyBlowup {
                    before: ke0,
                    after: ke,
                    factor: ke / ke0,
                }));
            }
        }
        None
    }

    /// Drop the successive-RHS pressure projection basis. The recovery
    /// ladder's first rung, exposed for the run supervisor's hard
    /// watchdog: a step that blew its wall-clock budget most often did
    /// so because CG thrashed from a degenerate projected guess, and
    /// rebuilding the basis is cheap insurance before the next step.
    pub fn clear_projection_history(&mut self) {
        self.pressure_solver.clear_history();
    }

    /// Forget all multistep history: the next step restarts at
    /// BDF1/EXT1 (required whenever Δt changes, since the BDF/EXT
    /// coefficients assume uniform spacing).
    fn clear_multistep_history(&mut self) {
        self.vel_hist.clear();
        self.time_hist.clear();
        self.conv_hist.clear();
        self.temp_hist.clear();
        self.temp_conv_hist.clear();
        for sc in self.scalars.iter_mut() {
            sc.hist.clear();
            sc.conv_hist.clear();
        }
    }

    /// Post-commit Δt bookkeeping: schedule a restoration after a
    /// halving, count clean steps, and restore the original Δt once
    /// enough have passed.
    fn settle_dt_restore(&mut self, entry_dt: f64, recoveries: usize, recovery_steps: usize) {
        let wait = recovery_steps.max(1);
        if self.cfg.dt < entry_dt {
            // This step committed at a freshly halved Δt.
            let original_dt = self.dt_restore.map_or(entry_dt, |r| r.original_dt);
            self.dt_restore = Some(DtRestore {
                original_dt,
                clean_steps_left: wait,
            });
        } else if let Some(r) = &mut self.dt_restore {
            if recoveries > 0 {
                r.clean_steps_left = wait;
            } else {
                r.clean_steps_left -= 1;
                if r.clean_steps_left == 0 {
                    self.cfg.dt = r.original_dt;
                    self.dt_restore = None;
                    self.clear_multistep_history();
                    sem_obs::trace::note("recovery_dt_restored", self.cfg.dt);
                }
            }
        }
    }

    /// Capture the full time-loop state as a [`Checkpoint`] (see
    /// [`crate::checkpoint`] for what is and is not included).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            dim: self.ops.geo.dim as u32,
            n: self.ops.n_velocity() as u64,
            np: self.ops.n_pressure() as u64,
            dt: self.cfg.dt,
            time: self.time,
            step_index: self.step_index as u64,
            vel: self.vel.clone(),
            pressure: self.pressure.clone(),
            temp: self.temp.clone(),
            vel_hist: self.vel_hist.iter().cloned().collect(),
            time_hist: self.time_hist.iter().copied().collect(),
            conv_hist: self.conv_hist.iter().cloned().collect(),
            temp_hist: self.temp_hist.iter().cloned().collect(),
            temp_conv_hist: self.temp_conv_hist.iter().cloned().collect(),
            scalars: self
                .scalars
                .iter()
                .map(|sc| crate::checkpoint::ScalarState {
                    name: sc.name.clone(),
                    kappa: sc.kappa,
                    field: sc.field.clone(),
                    hist: sc.hist.iter().cloned().collect(),
                    conv_hist: sc.conv_hist.iter().cloned().collect(),
                })
                .collect(),
            projection: self
                .pressure_solver
                .projection()
                .basis()
                .to_vec(),
        }
    }

    /// Restore the time-loop state from a checkpoint taken on an
    /// identically built solver (same mesh, order, and configuration).
    /// Continuing the run is bitwise-identical to never having stopped.
    ///
    /// # Errors
    ///
    /// Fails when the checkpoint's grid sizes or field inventory do not
    /// match this solver; the solver is left unmodified in that case.
    pub fn restore_checkpoint(&mut self, ck: &Checkpoint) -> Result<(), String> {
        let dim = self.ops.geo.dim;
        let n = self.ops.n_velocity();
        let np = self.ops.n_pressure();
        if ck.dim as usize != dim || ck.n as usize != n || ck.np as usize != np {
            return Err(format!(
                "checkpoint grid mismatch: dim/n/np {}x{}x{} vs solver {}x{}x{}",
                ck.dim, ck.n, ck.np, dim, n, np
            ));
        }
        if ck.vel.len() != dim || ck.temp.is_some() != self.temp.is_some() {
            return Err("checkpoint field inventory mismatch".into());
        }
        if ck.scalars.len() != self.scalars.len() {
            return Err(format!(
                "checkpoint has {} passive scalar(s), solver has {}",
                ck.scalars.len(),
                self.scalars.len()
            ));
        }
        if ck.projection.len() > self.cfg.pressure_lmax {
            return Err(format!(
                "checkpoint projection basis ({}) exceeds pressure_lmax ({})",
                ck.projection.len(),
                self.cfg.pressure_lmax
            ));
        }
        self.apply_checkpoint(ck);
        // Recovery-ladder transients are deliberately not checkpointed.
        self.pressure_solver.set_jacobi_fallback(false);
        self.dt_restore = None;
        Ok(())
    }

    /// Overwrite the time-loop state with a checkpoint already validated
    /// against this solver (restore and step rollback share it). Leaves
    /// the recovery-ladder transients alone.
    fn apply_checkpoint(&mut self, ck: &Checkpoint) {
        self.vel = ck.vel.clone();
        self.pressure = ck.pressure.clone();
        self.temp = ck.temp.clone();
        self.time = ck.time;
        self.step_index = ck.step_index as usize;
        self.cfg.dt = ck.dt;
        self.vel_hist = ck.vel_hist.iter().cloned().collect();
        self.time_hist = ck.time_hist.iter().copied().collect();
        self.conv_hist = ck.conv_hist.iter().cloned().collect();
        self.temp_hist = ck.temp_hist.iter().cloned().collect();
        self.temp_conv_hist = ck.temp_conv_hist.iter().cloned().collect();
        for (sc, st) in self.scalars.iter_mut().zip(ck.scalars.iter()) {
            sc.name = st.name.clone();
            sc.kappa = st.kappa;
            sc.field = st.field.clone();
            sc.hist = st.hist.iter().cloned().collect();
            sc.conv_hist = st.conv_hist.iter().cloned().collect();
        }
        let mut proj = sem_solvers::projection::RhsProjection::with_rtol(
            self.ops.n_pressure(),
            self.cfg.pressure_lmax,
            self.cfg.pressure_cg.dependence_rtol,
        );
        for (x, ex) in &ck.projection {
            proj.push_raw(x.clone(), ex.clone());
        }
        self.pressure_solver.restore_projection(proj);
    }

    /// Write a checkpoint file (see [`crate::checkpoint`]).
    pub fn write_checkpoint(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.checkpoint().save(path)
    }

    /// Restore from a checkpoint file written by an identically built
    /// solver.
    pub fn read_checkpoint(&mut self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let ck = Checkpoint::load(path)?;
        self.restore_checkpoint(&ck)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    fn step_temperature(
        &mut self,
        b: Boussinesq,
        k: usize,
        h2: f64,
        t_new: f64,
    ) -> (usize, Option<sem_solvers::cg::CgBreakdown>) {
        let n = self.ops.n_velocity();
        let bm = self.ops.geo.bm.clone();
        let mut rhs = vec![0.0; n];
        for (j, coeff) in bdf_coeffs(k)
            .1
            .iter()
            .enumerate()
            .take(self.temp_hist.len())
        {
            for i in 0..n {
                rhs[i] += (coeff / self.cfg.dt) * bm[i] * self.temp_hist[j][i];
            }
        }
        let mut cx = vec![0.0; n];
        let hist: Vec<Vec<f64>> = self.temp_conv_hist.iter().cloned().collect();
        ext_convection(k, &hist, &mut cx);
        for i in 0..n {
            rhs[i] += bm[i] * cx[i];
        }
        self.ops.dssum_mask(&mut rhs);
        // Lifting for temperature boundary values.
        let temp = self.temp.as_ref().unwrap();
        let mut tb = temp.clone();
        if let Some(f) = &self.temp_bc {
            let geo = &self.ops.geo;
            for i in 0..n {
                if self.ops.mask[i] == 0.0 {
                    tb[i] = f(geo.x[i], geo.y[i], geo.z[i], t_new);
                }
            }
        }
        let mut htb = vec![0.0; n];
        helmholtz_local(&self.ops, &tb, &mut htb, b.kappa, h2);
        self.ops.dssum_mask(&mut htb);
        for i in 0..n {
            rhs[i] -= htb[i];
        }
        let mut t0: Vec<f64> = temp
            .iter()
            .zip(tb.iter())
            .zip(self.ops.mask.iter())
            .map(|((&u, &l), &m)| (u - l) * m)
            .collect();
        self.ensure_helmholtz_t(b.kappa, h2);
        let solver = &self.helmholtz_t.as_ref().unwrap().1;
        let _helm_span = sem_obs::span(sem_obs::Phase::Helmholtz);
        let res = solver.solve(&self.ops, &mut t0, &rhs);
        let tfield = self.temp.as_mut().unwrap();
        for i in 0..n {
            tfield[i] = t0[i] + tb[i];
        }
        (res.iterations, res.breakdown)
    }

    /// Register an additional passively transported species (the paper's
    /// "multiple-species transport"): advected by the velocity, diffused
    /// with diffusivity `kappa`, no back-coupling to the momentum
    /// equations. Returns the scalar's index.
    pub fn add_scalar(
        &mut self,
        name: impl Into<String>,
        kappa: f64,
        init: impl Fn(f64, f64, f64) -> f64 + Sync,
    ) -> usize {
        let n = self.ops.n_velocity();
        let field: Vec<f64> = (0..n)
            .map(|i| init(self.ops.geo.x[i], self.ops.geo.y[i], self.ops.geo.z[i]))
            .collect();
        self.scalars.push(PassiveScalar {
            name: name.into(),
            kappa,
            field,
            hist: VecDeque::new(),
            conv_hist: VecDeque::new(),
            bc: None,
            solver: None,
        });
        self.scalars.len() - 1
    }

    /// Set the Dirichlet boundary values of passive scalar `idx`.
    pub fn set_scalar_bc(&mut self, idx: usize, f: ScalarFn) {
        self.scalars[idx].bc = Some(f);
    }

    /// Read access to passive scalar `idx`.
    pub fn scalar(&self, idx: usize) -> &[f64] {
        &self.scalars[idx].field
    }

    /// Name of passive scalar `idx`.
    pub fn scalar_name(&self, idx: usize) -> &str {
        &self.scalars[idx].name
    }

    /// Number of registered passive scalars.
    pub fn num_scalars(&self) -> usize {
        self.scalars.len()
    }

    /// Advance all passive scalars one step (called from `step`).
    fn step_scalars(
        &mut self,
        k: usize,
        h2: f64,
        t_new: f64,
    ) -> (usize, Option<sem_solvers::cg::CgBreakdown>) {
        let n = self.ops.n_velocity();
        let dim = self.ops.geo.dim;
        let dt = self.cfg.dt;
        let order_next = self.cfg.torder;
        let bm = self.ops.geo.bm.clone();
        let mut total_iters = 0;
        let mut first_breakdown = None;
        // Histories were not yet pushed for scalars this step: push now
        // using the *previous* velocity stored at the front of vel_hist.
        let vel_refs: Vec<&[f64]> = self.vel_hist[0].iter().map(|c| c.as_slice()).collect();
        let mut scalars = std::mem::take(&mut self.scalars);
        for sc in scalars.iter_mut() {
            let mut conv = vec![0.0; n];
            let mut grad = vec![vec![0.0; n]; dim];
            convect(&self.ops, &vel_refs, &sc.field, &mut conv, &mut grad);
            sc.conv_hist.push_front(conv);
            sc.conv_hist.truncate(order_next);
            sc.hist.push_front(sc.field.clone());
            sc.hist.truncate(order_next);

            let mut rhs = vec![0.0; n];
            for (j, coeff) in bdf_coeffs(k).1.iter().enumerate().take(sc.hist.len()) {
                for i in 0..n {
                    rhs[i] += (coeff / dt) * bm[i] * sc.hist[j][i];
                }
            }
            let mut cx = vec![0.0; n];
            let hist: Vec<Vec<f64>> = sc.conv_hist.iter().cloned().collect();
            ext_convection(k, &hist, &mut cx);
            for i in 0..n {
                rhs[i] += bm[i] * cx[i];
            }
            self.ops.dssum_mask(&mut rhs);
            let mut tb = sc.field.clone();
            if let Some(f) = &sc.bc {
                let geo = &self.ops.geo;
                for i in 0..n {
                    if self.ops.mask[i] == 0.0 {
                        tb[i] = f(geo.x[i], geo.y[i], geo.z[i], t_new);
                    }
                }
            }
            let mut htb = vec![0.0; n];
            helmholtz_local(&self.ops, &tb, &mut htb, sc.kappa, h2);
            self.ops.dssum_mask(&mut htb);
            for i in 0..n {
                rhs[i] -= htb[i];
            }
            let mut t0: Vec<f64> = sc
                .field
                .iter()
                .zip(tb.iter())
                .zip(self.ops.mask.iter())
                .map(|((&u, &l), &m)| (u - l) * m)
                .collect();
            let rebuild = match &sc.solver {
                Some((cached, _)) => (cached - h2).abs() > 1e-14 * h2.abs(),
                None => true,
            };
            if rebuild {
                sc.solver = Some((
                    h2,
                    HelmholtzSolver::new(&self.ops, sc.kappa, h2, self.cfg.helmholtz_cg),
                ));
            }
            let res = {
                let _helm_span = sem_obs::span(sem_obs::Phase::Helmholtz);
                sc.solver.as_ref().unwrap().1.solve(&self.ops, &mut t0, &rhs)
            };
            total_iters += res.iterations;
            if first_breakdown.is_none() {
                first_breakdown = res.breakdown;
            }
            for i in 0..n {
                sc.field[i] = t0[i] + tb[i];
            }
            if let Some(f) = &self.filter {
                let _filter_span = sem_obs::span(sem_obs::Phase::Filter);
                f.apply(&self.ops, &mut sc.field);
            }
        }
        self.scalars = scalars;
        (total_iters, first_breakdown)
    }
}

/// A passively transported species field.
pub struct PassiveScalar {
    /// Display name (used by output writers).
    pub name: String,
    /// Diffusivity.
    pub kappa: f64,
    /// Current nodal values.
    pub field: Vec<f64>,
    hist: VecDeque<Vec<f64>>,
    conv_hist: VecDeque<Vec<f64>>,
    bc: Option<ScalarFn>,
    solver: Option<(f64, HelmholtzSolver)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::{divergence_norm, kinetic_energy};
    use sem_mesh::generators::box2d;
    use sem_solvers::cg::CgOptions;

    const TWO_PI: f64 = 2.0 * std::f64::consts::PI;

    fn taylor_green_cfg(dt: f64) -> NsConfig {
        NsConfig {
            dt,
            nu: 0.05,
            torder: 2,
            convection: ConvectionScheme::Ext,
            filter_alpha: 0.0,
            pressure_lmax: 8,
            pressure_cg: CgOptions {
                tol: 1e-10,
                rtol: 0.0,
                max_iter: 4000,
                record_history: false,
                ..CgOptions::default()
            },
            helmholtz_cg: CgOptions {
                tol: 1e-12,
                rtol: 0.0,
                max_iter: 4000,
                record_history: false,
                ..CgOptions::default()
            },
            ..Default::default()
        }
    }

    fn taylor_green_solver(kelem: usize, order: usize, dt: f64) -> NsSolver {
        let mesh = box2d(kelem, kelem, [0.0, TWO_PI], [0.0, TWO_PI], true, true);
        let ops = SemOps::new(mesh, order);
        let mut s = NsSolver::new(ops, taylor_green_cfg(dt));
        s.set_velocity(|x, y, _| [(x).sin() * (y).cos(), -(x).cos() * (y).sin(), 0.0]);
        s
    }

    fn taylor_green_error(s: &NsSolver) -> f64 {
        let decay = (-2.0 * s.cfg.nu * s.time).exp();
        let mut err = 0.0_f64;
        for i in 0..s.ops.n_velocity() {
            let (x, y) = (s.ops.geo.x[i], s.ops.geo.y[i]);
            let ue = x.sin() * y.cos() * decay;
            let ve = -x.cos() * y.sin() * decay;
            err = err.max((s.vel[0][i] - ue).abs().max((s.vel[1][i] - ve).abs()));
        }
        err
    }

    #[test]
    fn taylor_green_vortex_decays_correctly() {
        let mut s = taylor_green_solver(2, 8, 2e-3);
        for _ in 0..25 {
            let st = s.step().unwrap();
            assert!(st.pressure_iters < 500);
        }
        let err = taylor_green_error(&s);
        assert!(err < 2e-4, "Taylor–Green error {err}");
        // Divergence stays small.
        let div = divergence_norm(&s.ops, &s.vel);
        assert!(div < 1e-2, "divergence {div}");
    }

    #[test]
    fn temporal_convergence_is_second_order() {
        // Richardson-style: successive solution differences cancel the
        // (dt-independent) spatial floor, isolating the O(Δt²) term.
        let run = |dt: f64, steps: usize| -> Vec<f64> {
            let mut s = taylor_green_solver(2, 9, dt);
            for _ in 0..steps {
                s.step().unwrap();
            }
            s.vel[0].clone()
        };
        let base = 16;
        let u1 = run(16e-3, base);
        let u2 = run(8e-3, 2 * base);
        let u4 = run(4e-3, 4 * base);
        let dmax = |a: &[f64], b: &[f64]| {
            a.iter()
                .zip(b.iter())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0_f64, f64::max)
        };
        let d12 = dmax(&u1, &u2);
        let d24 = dmax(&u2, &u4);
        let ratio = d12 / d24;
        assert!(
            ratio > 3.0,
            "not second order: |u(dt)−u(dt/2)| = {d12}, |u(dt/2)−u(dt/4)| = {d24}, ratio {ratio}"
        );
    }

    #[test]
    fn oifs_matches_ext_at_small_cfl() {
        let mut s1 = taylor_green_solver(2, 7, 2e-3);
        let mut s2 = taylor_green_solver(2, 7, 2e-3);
        s2.cfg.convection = ConvectionScheme::Oifs { substeps: 2 };
        for _ in 0..10 {
            s1.step().unwrap();
            s2.step().unwrap();
        }
        let mut diff = 0.0_f64;
        for i in 0..s1.ops.n_velocity() {
            diff = diff.max((s1.vel[0][i] - s2.vel[0][i]).abs());
        }
        assert!(diff < 5e-5, "EXT vs OIFS difference {diff}");
    }

    #[test]
    fn oifs_stable_at_cfl_above_one() {
        // Δt chosen so the convective CFL exceeds 1 (EXT would blow up).
        let mut s = taylor_green_solver(2, 8, 0.2);
        s.cfg.convection = ConvectionScheme::Oifs { substeps: 10 };
        let mut max_cfl = 0.0_f64;
        for _ in 0..6 {
            let st = s.step().unwrap();
            max_cfl = max_cfl.max(st.cfl);
            assert!(
                kinetic_energy(&s.ops, &s.vel).is_finite(),
                "blow-up at step {}",
                st.step
            );
        }
        assert!(max_cfl > 1.0, "test did not reach CFL > 1: {max_cfl}");
        // Energy must not grow (decaying vortex).
        let ke = kinetic_energy(&s.ops, &s.vel);
        let ke0 = 0.5 * (TWO_PI * TWO_PI) / 2.0; // ½∫|u|² = (2π)²/2 at t=0
        assert!(ke < ke0 * 1.01, "energy grew: {ke} vs {ke0}");
    }

    #[test]
    fn poiseuille_steady_state_with_forcing() {
        // Channel [0,1]×[−1,1], periodic in x, no-slip walls, fx = 2ν:
        // steady solution u = 1 − y².
        let mesh = box2d(2, 3, [0.0, 1.0], [-1.0, 1.0], true, false);
        let ops = SemOps::new(mesh, 7);
        let nu = 0.5; // fast relaxation
        let cfg = NsConfig {
            dt: 0.05,
            nu,
            torder: 2,
            convection: ConvectionScheme::Ext,
            pressure_lmax: 8,
            ..taylor_green_cfg(0.05)
        };
        let mut s = NsSolver::new(ops, NsConfig { nu, ..cfg });
        s.set_forcing(Box::new(move |_, _, _, _| [2.0 * nu, 0.0, 0.0]));
        for _ in 0..120 {
            s.step().unwrap();
        }
        let mut err = 0.0_f64;
        for i in 0..s.ops.n_velocity() {
            let y = s.ops.geo.y[i];
            err = err.max((s.vel[0][i] - (1.0 - y * y)).abs());
            err = err.max(s.vel[1][i].abs());
        }
        assert!(err < 1e-3, "Poiseuille error {err}");
    }

    #[test]
    fn filter_preserves_smooth_taylor_green() {
        let mut s0 = taylor_green_solver(2, 8, 2e-3);
        let mut s1 = taylor_green_solver(2, 8, 2e-3);
        s1.cfg.filter_alpha = 0.2;
        s1.filter = Some(ElementFilter::new(&s1.ops, 0.2));
        for _ in 0..10 {
            s0.step().unwrap();
            s1.step().unwrap();
        }
        let e0 = taylor_green_error(&s0);
        let e1 = taylor_green_error(&s1);
        // Table 1's observation: the filter *slightly* degrades spatial
        // accuracy (it removes the top mode's real content) while the
        // error stays small.
        assert!(e1 >= e0, "filter should not improve: {e1} vs {e0}");
        assert!(e1 < 1e-4, "filtered error too large: {e1}");
    }

    #[test]
    fn boussinesq_temperature_diffuses() {
        // No gravity: pure advection-diffusion of T on a periodic box at
        // rest → T = sin(x) e^{−κt}.
        let mesh = box2d(2, 2, [0.0, TWO_PI], [0.0, TWO_PI], true, true);
        let ops = SemOps::new(mesh, 8);
        let kappa = 0.1;
        let cfg = NsConfig {
            boussinesq: Some(Boussinesq {
                g_beta: [0.0, 0.0, 0.0],
                kappa,
            }),
            ..taylor_green_cfg(5e-3)
        };
        let mut s = NsSolver::new(ops, cfg);
        s.set_temperature(|x, _, _| x.sin());
        for _ in 0..20 {
            s.step().unwrap();
        }
        let decay = (-kappa * s.time).exp();
        let t = s.temp.as_ref().unwrap();
        let mut err = 0.0_f64;
        for i in 0..s.ops.n_velocity() {
            err = err.max((t[i] - s.ops.geo.x[i].sin() * decay).abs());
        }
        assert!(err < 1e-4, "temperature decay error {err}");
    }

    #[test]
    fn buoyancy_induces_motion() {
        // Unstable stratification with gravity: flow must start moving.
        let mesh = box2d(2, 2, [0.0, 2.0], [0.0, 1.0], true, false);
        let ops = SemOps::new(mesh, 6);
        let cfg = NsConfig {
            boussinesq: Some(Boussinesq {
                g_beta: [0.0, 100.0, 0.0],
                kappa: 0.01,
            }),
            nu: 0.01,
            ..taylor_green_cfg(1e-2)
        };
        let mut s = NsSolver::new(ops, cfg);
        s.set_temperature(|x, y, _| (1.0 - y) + 0.01 * (TWO_PI * x / 2.0).sin());
        s.set_temp_bc(Box::new(|_, y, _, _| if y > 0.5 { 0.0 } else { 1.0 }));
        for _ in 0..20 {
            s.step().unwrap();
        }
        let ke = kinetic_energy(&s.ops, &s.vel);
        assert!(ke > 1e-12, "no convective motion: KE = {ke}");
        assert!(ke.is_finite());
    }

    #[test]
    fn passive_scalars_diffuse_independently() {
        // Two species with different diffusivities on a quiescent periodic
        // box: each decays at its own rate e^{−κt}.
        let mesh = box2d(2, 2, [0.0, TWO_PI], [0.0, TWO_PI], true, true);
        let ops = SemOps::new(mesh, 8);
        let cfg = taylor_green_cfg(5e-3);
        let mut s = NsSolver::new(ops, cfg);
        let k_a = 0.05;
        let k_b = 0.4;
        let ia = s.add_scalar("species_a", k_a, |x, _, _| x.sin());
        let ib = s.add_scalar("species_b", k_b, |x, _, _| x.sin());
        assert_eq!(s.num_scalars(), 2);
        assert_eq!(s.scalar_name(ia), "species_a");
        for _ in 0..20 {
            s.step().unwrap();
        }
        for (idx, kappa) in [(ia, k_a), (ib, k_b)] {
            let decay = (-kappa * s.time).exp();
            let f = s.scalar(idx);
            let mut err = 0.0_f64;
            for i in 0..s.ops.n_velocity() {
                err = err.max((f[i] - s.ops.geo.x[i].sin() * decay).abs());
            }
            assert!(err < 1e-4, "scalar {idx} decay error {err}");
        }
    }

    #[test]
    fn passive_scalar_advected_by_flow() {
        // Uniform flow (1, 0) on a periodic box: the species profile
        // translates (checked against the advected-diffused analytic
        // solution with tiny diffusivity).
        let mesh = box2d(2, 2, [0.0, TWO_PI], [0.0, TWO_PI], true, true);
        let ops = SemOps::new(mesh, 8);
        let mut cfg = taylor_green_cfg(2e-3);
        cfg.nu = 1e-8; // keep the carrier flow uniform
        let mut s = NsSolver::new(ops, cfg);
        s.set_velocity(|_, _, _| [1.0, 0.0, 0.0]);
        let kappa = 1e-6;
        let idx = s.add_scalar("dye", kappa, |x, _, _| x.sin());
        for _ in 0..50 {
            s.step().unwrap();
        }
        let t = s.time;
        let f = s.scalar(idx);
        let mut err = 0.0_f64;
        for i in 0..s.ops.n_velocity() {
            err = err.max((f[i] - (s.ops.geo.x[i] - t).sin()).abs());
        }
        assert!(err < 5e-3, "advection error {err}");
    }

    #[test]
    fn pressure_projection_reduces_initial_residual_over_steps() {
        let mut s = taylor_green_solver(2, 7, 2e-3);
        let mut first = None;
        let mut last = f64::INFINITY;
        for i in 0..10 {
            let st = s.step().unwrap();
            if i == 1 {
                first = Some(st.pressure_initial_residual);
            }
            last = st.pressure_initial_residual;
        }
        // By the 10th step the projected initial residual should be well
        // below the early-step value.
        assert!(
            last < first.unwrap(),
            "projection not helping: {first:?} -> {last}"
        );
    }
}
