//! The correctness gate of the in-process workloads: after a fixed
//! number of steps the kinetic energy and enstrophy must lie within a
//! relative tolerance of reference values stored here.
//!
//! The tolerance is loose enough for a legitimate change of rounding
//! (another coarse solver, another summation order) and tight enough to
//! reject a wrong answer: the self-tests perturb a final state by 1e-3
//! and expect a rejection.

use sem_ns::diagnostics::kinetic_energy;
use sem_ns::NsSolver;
use sem_ops::convect::gradient;
use sem_ops::fields::norm_l2;

/// Relative tolerance of the gate.
pub const RTOL: f64 = 1e-5;

/// Step after which the gate compares the state with its reference.
pub const GATE_STEP: usize = 10;

/// The observed quantities of a flow state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Observables {
    pub kinetic_energy: f64,
    pub enstrophy: f64,
}

/// Kinetic energy `½∫|u|²` and enstrophy `½∫|ω|²` of the solver's
/// current velocity (element-local vorticity, mass-weighted).
pub fn observe(s: &NsSolver) -> Observables {
    let ops = &s.ops;
    let dim = ops.geo.dim;
    let n = ops.n_velocity();
    let mut grads: Vec<Vec<Vec<f64>>> = Vec::with_capacity(dim);
    for c in 0..dim {
        let mut g = vec![vec![0.0; n]; dim];
        gradient(ops, &s.vel[c], &mut g);
        grads.push(g);
    }
    // ω components: 2D has only ω_z; 3D has all three.
    let pairs: &[(usize, usize, usize, usize)] = if dim == 2 {
        &[(1, 0, 0, 1)]
    } else {
        &[(2, 1, 1, 2), (0, 2, 2, 0), (1, 0, 0, 1)]
    };
    let mut enstrophy = 0.0;
    for &(a, da, b, db) in pairs {
        let w: Vec<f64> = (0..n).map(|i| grads[a][da][i] - grads[b][db][i]).collect();
        let norm = norm_l2(ops, &w);
        enstrophy += 0.5 * norm * norm;
    }
    Observables {
        kinetic_energy: kinetic_energy(ops, &s.vel),
        enstrophy,
    }
}

/// Accept `got` when both quantities are finite and within `rtol` of
/// `want`.
pub fn check(got: Observables, want: Observables, rtol: f64) -> Result<(), String> {
    for (name, g, w) in [
        ("kinetic energy", got.kinetic_energy, want.kinetic_energy),
        ("enstrophy", got.enstrophy, want.enstrophy),
    ] {
        let rel = ((g - w) / w).abs();
        let within = g.is_finite() && rel <= rtol;
        if !within {
            return Err(format!(
                "{name} {g:.12e} differs from reference {w:.12e} (relative {rel:.2e} > {rtol:.0e})"
            ));
        }
    }
    Ok(())
}

/// Reference observables after [`GATE_STEP`] steps, per workload and
/// phase index of the initial perturbation (see `inproc::Workload`).
/// A table of one entry serves every phase: the shear layer's phases
/// shift a translation-invariant flow by whole elements. Regenerate
/// with `perfbench calibrate <workload>`.
pub fn reference(workload: &str, phase: usize) -> Option<Observables> {
    let table: &[Observables] = match workload {
        "hairpin3d" => &HAIRPIN3D,
        "shear2d_k1024" => &SHEAR2D_K1024,
        _ => return None,
    };
    Some(table[phase % table.len()])
}

const HAIRPIN3D: [Observables; 2] = [
    Observables {
        kinetic_energy: 20.40475001561101,
        enstrophy: 19.443185882433156,
    },
    Observables {
        kinetic_energy: 20.404750015610333,
        enstrophy: 19.443185882454596,
    },
];

const SHEAR2D_K1024: [Observables; 1] = [Observables {
    kinetic_energy: 0.4339420872164719,
    enstrophy: 40.01313165787976,
}];
