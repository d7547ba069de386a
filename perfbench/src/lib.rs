//! The terasem benchmark: end-to-end workloads, a correctness gate per
//! workload, and a traced run that times each workspace layer from the
//! outside by calling its public functions on the workload's own data.
//!
//! `perfbench/README.md` says why each workload was chosen and which
//! end-to-end metric each layer metric should move.

pub mod gate;
pub mod inproc;
pub mod layers;
pub mod manifest;
pub mod net;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

/// SplitMix64: the workspace's standard tiny PRNG, used for the seeded
/// submit order of the service workload.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
