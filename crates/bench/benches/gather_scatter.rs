//! Microbench of the gather-scatter kernel (§6): scalar vs vector mode.
//! Runs on the in-repo harness ([`sem_bench::timing`]).

use sem_bench::timing::BenchGroup;
use sem_gs::{GsHandle, GsOp};
use sem_mesh::generators::box2d;
use sem_mesh::{Geometry, GlobalNumbering};

fn main() {
    let mesh = box2d(16, 16, [0.0, 1.0], [0.0, 1.0], false, false);
    let n = 8;
    let geo = Geometry::new(&mesh, n);
    let num = GlobalNumbering::new(&mesh, &geo);
    let gs = GsHandle::new(&num.ids);
    let nl = num.ids.len();
    let mut u: Vec<f64> = (0..nl).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut group = BenchGroup::new("gather_scatter");
    group.sample_size(30);
    group.bench("scalar_add", || {
        gs.gs(&mut u, GsOp::Add);
        std::hint::black_box(&mut u);
    });
    let mut uv: Vec<f64> = (0..nl * 3).map(|i| (i as f64 * 0.17).cos()).collect();
    group.bench("vector3_add", || {
        gs.gs_vec(&mut uv, 3, GsOp::Add);
        std::hint::black_box(&mut uv);
    });
}
