//! `perfbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]`
//!
//! Runs one workload and prints, last, one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Before it come
//! a human-readable line per metric and a `MANIFEST` line.
//! `perfbench calibrate <workload>` prints the gate's reference table.

use std::path::PathBuf;
use terasem_perfbench::inproc::{self, Workload};
use terasem_perfbench::layers::{self, Context};
use terasem_perfbench::report::Outcome;
use terasem_perfbench::trace::Tracer;
use terasem_perfbench::{manifest, net, serve};

const WORKLOADS: [&str; 3] = ["hairpin3d", "shear2d_k1024", "serve_small_jobs"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    commit: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
        commit: "unknown".to_string(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} wants {what}, got {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => a.out = PathBuf::from(v),
            "--commit" => a.commit = v.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            a.workload
        ));
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("calibrate") {
        match argv.get(1).and_then(|w| Workload::parse(w)) {
            Some(w) => return inproc::calibrate(w),
            None => {
                eprintln!("usage: perfbench calibrate hairpin3d|shear2d_k1024");
                std::process::exit(2);
            }
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(1);
    }
    let bin_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_default();
    let ctx = Context {
        bin_dir,
        out_dir: args.out.clone(),
    };
    let run_id = format!("{}-{}-{}", args.workload, args.seed, std::process::id());
    let mut tr = Tracer::new(run_id.clone(), args.trace);
    let mut out = match (Workload::parse(&args.workload), args.trace) {
        (Some(w), false) => inproc::run(w, args.seed, args.seconds),
        (Some(w), true) => {
            let mut out = inproc::run_traced(w, args.seed, args.seconds, &ctx, &mut tr);
            serve::layer_metrics(&ctx, args.seed, args.seconds / 4.0, &mut tr, &mut out);
            net::layer_metrics(&ctx, &mut tr, &mut out);
            out
        }
        (None, false) => serve::run(&ctx, args.seed, args.seconds),
        (None, true) => {
            let mut out = Outcome::default();
            serve::layer_metrics(&ctx, args.seed, args.seconds, &mut tr, &mut out);
            let mut s = tr.span("serve.job_solver", |_| serve::job_solver(&ctx));
            inproc::step_layers(&mut s, 1, &mut tr, &mut out);
            sem_comm::par::with_threads(1, || {
                tr.span("layers", |tr| {
                    layers::sweep(&s, args.seconds, &ctx, tr, &mut out)
                })
            });
            net::layer_metrics(&ctx, &mut tr, &mut out);
            out
        }
    };
    out.finish();
    if args.trace {
        let path = args.out.join(format!("spans-{run_id}.jsonl"));
        match tr.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        println!(
            "{:<34} {:>6} {:>12} {:>12}",
            "span (benchmark-side)", "calls", "incl_s", "self_s"
        );
        for (name, calls, incl, own) in tr.self_times() {
            println!("{name:<34} {calls:>6} {incl:>12.6} {own:>12.6}");
        }
    }
    for line in out.lines(&args.workload) {
        println!("{line}");
    }
    println!(
        "MANIFEST {}",
        manifest::manifest(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &args.commit
        )
    );
    println!("{}", out.json());
}
