//! End-to-end `terasem-launch` acceptance: a 4-rank shear-layer run is
//! bitwise-identical to the single-process run; a rank killed mid-run
//! is recovered — by single-rank rejoin (survivor processes preserved)
//! or, with `--no-rejoin` or multi-rank loss, by restart-all from the
//! newest consistent checkpoint generation — and the recovered run is
//! bitwise-identical too; an exhausted `--max-restarts` budget exits
//! with the structured code and leaves no straggler processes;
//! over-decomposition is rejected with a clean error, never a hang.

use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_terasem-launch");

/// `rank -> pids` from the launcher's "terasem-launch: rank R pid P"
/// stdout lines, in spawn order.
fn pid_lines(stdout: &str) -> Vec<(usize, u32)> {
    stdout
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("terasem-launch: rank ")?;
            let (r, p) = rest.split_once(" pid ")?;
            Some((r.parse().ok()?, p.trim().parse().ok()?))
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tsn_l_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn launch(dir: &Path, extra: &[&str]) -> std::process::Output {
    let base = [
        "--steps",
        "10",
        "--elems",
        "3",
        "--order",
        "4",
        "--ckpt-every",
        "3",
        "--timeout",
        "120",
        "--dir",
    ];
    Command::new(EXE)
        .args(base)
        .arg(dir)
        .args(extra)
        .env("TERASEM_THREADS", "1")
        .output()
        .expect("spawn terasem-launch")
}

fn final_ckpt(dir: &Path, rank: usize) -> Vec<u8> {
    let path = dir.join(format!("rank_{rank}/ckpt_00000010.ckpt"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn four_ranks_with_chaos_kill_match_single_process_bitwise() {
    let root = scratch("kr");
    // Reference: uninterrupted single-process run.
    let ref_dir = root.join("ref");
    let out = launch(&ref_dir, &["--ranks", "1"]);
    assert!(
        out.status.success(),
        "single-rank run failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let want = final_ckpt(&ref_dir, 0);

    // 4 ranks, rank 2 chaos-killed after step 7 (between checkpoint
    // generations 6 and 9), rejoin disabled: the launcher must detect
    // the death, kill the stragglers, restart every rank from the
    // newest consistent generation, and finish.
    let par_dir = root.join("par");
    let out = launch(
        &par_dir,
        &["--ranks", "4", "--kill", "2@7", "--max-restarts", "3", "--no-rejoin"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "4-rank kill/resume run failed:\n{stdout}\n{stderr}"
    );
    assert!(
        stderr.contains("chaos kill"),
        "the kill must have fired:\n{stderr}"
    );
    assert!(
        stderr.contains("restart 1/"),
        "the launcher must have restarted the job:\n{stderr}"
    );
    // The kill lands after step 7 with generations at 3 and 6 on disk:
    // recovery must resume from the consistent generation, not scratch.
    assert!(
        stderr.contains("resuming all ranks from generation 6"),
        "recovery must intersect checkpoint generations:\n{stderr}"
    );
    assert!(
        stdout.contains("byte-identical"),
        "cross-rank final-checkpoint check must run:\n{stdout}"
    );
    // Every rank's final checkpoint is byte-identical to the
    // uninterrupted single-process run: same fields, same history, same
    // time — the full scale-out determinism claim.
    for r in 0..4 {
        assert_eq!(
            final_ckpt(&par_dir, r),
            want,
            "rank {r} final checkpoint differs from the single-process run"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The tentpole at the launcher level: a single chaos-killed rank in a
/// 4-rank job is recovered by *single-rank rejoin* — survivors keep
/// running (their PIDs never change), only the dead rank is respawned,
/// and the finished run is bitwise-identical to the uninterrupted
/// single-process reference.
#[test]
fn single_rank_rejoin_preserves_survivors_and_matches_reference() {
    let root = scratch("rj");
    let ref_dir = root.join("ref");
    let out = launch(&ref_dir, &["--ranks", "1"]);
    assert!(
        out.status.success(),
        "single-rank run failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let want = final_ckpt(&ref_dir, 0);

    let par_dir = root.join("par");
    let out = launch(&par_dir, &["--ranks", "4", "--kill", "2@7", "--max-restarts", "3"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "rejoin run failed:\n{stdout}\n{stderr}");
    assert!(stderr.contains("chaos kill"), "the kill must have fired:\n{stderr}");
    // Recovery was a rejoin of rank 2 alone, from the consistent
    // generation (the kill lands after step 7 with generations 3 and 6
    // on disk), not a restart-all.
    assert!(
        stderr.contains("rejoin 1/3: restarting rank 2 (epoch 1, resume from generation 6)"),
        "single-rank rejoin must fire:\n{stderr}"
    );
    assert!(
        !stderr.contains("resuming all ranks"),
        "rejoin must not fall back to restart-all:\n{stderr}"
    );
    // Survivor processes were preserved: ranks 0, 1, 3 were spawned
    // exactly once; rank 2 exactly twice (first life + rejoin).
    let pids = pid_lines(&stdout);
    for r in [0usize, 1, 3] {
        let n = pids.iter().filter(|&&(pr, _)| pr == r).count();
        assert_eq!(n, 1, "survivor rank {r} must keep its PID:\n{stdout}");
    }
    let n2 = pids.iter().filter(|&&(pr, _)| pr == 2).count();
    assert_eq!(n2, 2, "rank 2 must be respawned exactly once:\n{stdout}");
    // And the recovered run is bitwise-identical to the reference.
    for r in 0..4 {
        assert_eq!(
            final_ckpt(&par_dir, r),
            want,
            "rank {r} final checkpoint differs from the single-process run"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Losing *two* ranks at once exceeds what rejoin can heal: the
/// launcher must fall back to restart-all and still finish cleanly.
#[test]
fn multi_rank_loss_falls_back_to_restart_all() {
    let root = scratch("mk");
    let out = launch(
        &root,
        &["--ranks", "4", "--kill", "2@7,3@7", "--max-restarts", "3"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "multi-kill run failed:\n{stdout}\n{stderr}");
    assert!(
        stderr.contains("rank 2 exited") && stderr.contains("rank 3 exited"),
        "both kills must be seen as one event:\n{stderr}"
    );
    assert!(
        !stderr.contains("rejoin 1/"),
        "two dead ranks must not be rejoined:\n{stderr}"
    );
    assert!(
        stderr.contains("restart 1/3: resuming all ranks from generation 6"),
        "restart-all must recover from the consistent generation:\n{stderr}"
    );
    assert!(stdout.contains("byte-identical"), "{stdout}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Satellite: an exhausted `--max-restarts` budget is a structured
/// failure — exit code 3, a message naming the budget, and no rank
/// process left running.
#[test]
fn exhausted_restart_budget_is_structured_and_leaves_no_stragglers() {
    let root = scratch("ex");
    let out = launch(
        &root,
        &["--ranks", "4", "--kill", "1@3", "--max-restarts", "0"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(3),
        "want the structured exhaustion exit:\n{stdout}\n{stderr}"
    );
    assert!(
        stderr.contains("--max-restarts 0"),
        "the message must name the budget:\n{stderr}"
    );
    // No stragglers: every PID the launcher printed is gone (or reused
    // by an unrelated process — check the command line to be sure).
    for (r, pid) in pid_lines(&stdout) {
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        assert!(
            !String::from_utf8_lossy(&cmdline).contains("terasem-launch"),
            "rank {r} (pid {pid}) is still running after budget exhaustion"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Satellite: more ranks than elements — the launcher must reject the
/// partition with the structured empty-rank error before spawning
/// anything, exit code 2, no hang.
#[test]
fn more_ranks_than_elements_is_a_clean_configuration_error() {
    let root = scratch("empty");
    let out = Command::new(EXE)
        .args(["--ranks", "5", "--elems", "2", "--steps", "4", "--order", "3", "--dir"])
        .arg(&root)
        .output()
        .expect("spawn terasem-launch");
    assert_eq!(out.status.code(), Some(2), "want usage exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("empty"), "{stderr}");
    assert!(stderr.contains("at most 4 ranks"), "{stderr}");
    // Nothing was spawned: no rank directories appeared.
    assert!(
        !root.join("rank_0").exists(),
        "launcher must fail before spawning ranks"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The presence of `TERASEM_NET_RANK` selects rank mode, so a malformed
/// value is a usage error naming the variable — never a fallback to
/// launching (and running) a whole job.
#[test]
fn malformed_rank_env_is_a_usage_error_not_a_launch() {
    let root = scratch("badrank");
    let out = Command::new(EXE)
        .args([
            "--ranks", "2", "--steps", "3", "--elems", "3", "--order", "4", "--dir",
        ])
        .arg(&root)
        .env("TERASEM_NET_RANK", "abc")
        .env("TERASEM_NET_SIZE", "2")
        .env("TERASEM_THREADS", "1")
        .output()
        .expect("spawn terasem-launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stdout}\n{stderr}");
    assert!(stderr.contains("TERASEM_NET_RANK"), "{stderr}");
    assert!(pid_lines(&stdout).is_empty(), "spawned:\n{stdout}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn bench_comm_reports_fitted_alpha_beta_against_the_model() {
    let root = scratch("bench");
    let out = Command::new(EXE)
        .args(["--ranks", "2", "--elems", "3", "--order", "4", "--bench-comm", "--dir"])
        .arg(&root)
        .output()
        .expect("spawn terasem-launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("ping-pong fit: alpha ="), "{stdout}");
    assert!(stdout.contains("ASCI-Red-333 preset"), "{stdout}");
    assert!(stdout.contains("neighbor exchange"), "{stdout}");
    assert!(stdout.contains("measured mean"), "{stdout}");
    assert!(stdout.contains("model [measured (local)]"), "{stdout}");
    assert!(stdout.contains("allreduce"), "{stdout}");
    let _ = std::fs::remove_dir_all(&root);
}
