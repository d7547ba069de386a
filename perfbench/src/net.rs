//! The rank transport layer, measured through the `terasem-launch` CLI:
//! a short two-rank shear-layer run whose report gives the neighbour
//! exchange time and the message and byte totals.

use crate::layers::Context;
use crate::report::Outcome;
use crate::trace::Tracer;
use std::process::Command;

/// Steps of the measured launch.
pub const STEPS: u64 = 10;

/// The number after `key` in `line`, e.g. `"12 msgs"` → 12 for `" msgs"`.
fn number_before(line: &str, key: &str) -> Option<f64> {
    let head = &line[..line.find(key)?];
    head.rsplit([' ', '(', ',']).next()?.parse().ok()
}

/// Parse the launcher's report: `(exchange µs, msgs, bytes)`.
pub fn parse_report(stdout: &str) -> Option<(f64, f64, f64)> {
    let totals = stdout.lines().find(|l| l.contains("comm totals:"))?;
    let tail = &totals[totals.find("comm totals:")? + "comm totals:".len()..];
    let msgs = number_before(tail, " msgs")?;
    let bytes = number_before(tail, " bytes")?;
    let exchange = stdout.lines().find(|l| l.contains("neighbor exchange"))?;
    let tail = &exchange[exchange.find("measured mean")? + "measured mean".len()..];
    let us = number_before(tail, " us")?;
    Some((us, msgs, bytes))
}

/// Run `terasem-launch --ranks 2 --threads 1 --elems 16 --order 6` for
/// [`STEPS`] steps and record the transport metrics. A launch that
/// fails or whose ranks' final checkpoints differ is a failed operation.
pub fn layer_metrics(ctx: &Context, tr: &mut Tracer, out: &mut Outcome) {
    let dir = ctx.out_dir.join(format!("net-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let steps = STEPS.to_string();
    let run = tr.span("net.launch", |_| {
        Command::new(ctx.bin_dir.join("terasem-launch"))
            .args([
                "--ranks",
                "2",
                "--threads",
                "1",
                "--elems",
                "16",
                "--order",
                "6",
            ])
            .args(["--steps", &steps, "--ckpt-every", "5", "--dir"])
            .arg(&dir)
            .output()
    });
    let _ = std::fs::remove_dir_all(&dir);
    out.attempted += 1;
    let output = match run {
        Ok(o) => o,
        Err(e) => return out.fail(format!("terasem-launch: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() || !stdout.contains("byte-identical") {
        return out.fail(format!("terasem-launch exited with {}", output.status));
    }
    match parse_report(&stdout) {
        Some((us, msgs, bytes)) => {
            out.push("net.exchange_us", us, "us");
            out.push("net.msgs", msgs, "count");
            out.push("net.bytes", bytes, "bytes");
        }
        None => out.fail("terasem-launch report lacks the comm totals".to_string()),
    }
}
