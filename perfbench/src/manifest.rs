//! The run manifest recorded with every result: where and how the
//! numbers were made.

use sem_obs::json::JsonObj;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Size of the highest-level CPU cache of cpu0, as the kernel prints it
/// (for example `32768K`).
fn last_level_cache() -> String {
    let mut best: Option<(u32, String)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(size)) = (
            read_trimmed(&format!("{dir}/level")),
            read_trimmed(&format!("{dir}/size")),
        ) else {
            continue;
        };
        let level: u32 = level.parse().unwrap_or(0);
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, size));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(l, s)| format!("L{l} {s}"))
}

/// The manifest as one JSON object.
pub fn manifest(workload: &str, seed: u64, seconds: f64, trace: bool, commit: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut o = JsonObj::new();
    o.str("type", "terasem.bench.manifest")
        .str("workload", workload)
        .u64("seed", seed)
        .f64("seconds", seconds)
        .bool("trace", trace)
        .str(
            "host",
            &read_trimmed("/proc/sys/kernel/hostname").unwrap_or_else(|| "unknown".into()),
        )
        .str("arch", std::env::consts::ARCH)
        .str("isa", sem_linalg::backend::detected_isa().name())
        .str("backend", &sem_linalg::backend::describe())
        .str(
            "terasem_threads",
            &std::env::var("TERASEM_THREADS").unwrap_or_else(|_| "unset".into()),
        )
        .u64("nproc", nproc as u64)
        .str("llc", &last_level_cache())
        .str("commit", commit);
    o.finish()
}
