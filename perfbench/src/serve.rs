//! The service workload: `sem-serve --workers 1` (its worker at one
//! thread) driven by a closed loop of one `sem_serve::client`
//! connection. The client submits a small shear job, waits for its
//! result, checks the result hash against the same spec solved in
//! process, and only then submits the next one.

use crate::layers::Context;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use sem_ns::RunSupervisor;
use sem_obs::json::Json;
use sem_serve::client::Client;
use sem_serve::job::JobSpec;
use sem_serve::{fnv1a64, worker};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients (each with one connection) and daemon workers.
/// One of each: a worker computes on one of the host's two vCPUs and
/// leaves the other to the daemon and the client, so no job waits for
/// a processor. With two workers and two clients every vCPU computed,
/// the daemon's and the client's wake-ups queued behind the workers,
/// and the latency median of ten runs spread by up to 36% (README.md).
pub const CLIENTS: usize = 1;
pub const WORKERS: usize = 1;
/// `peak_rss_mb` is the daemon's `VmHWM` when this many jobs have
/// completed (or at the end of the window, if fewer did): the daemon
/// keeps a record of every job, so a later reading would grow with
/// throughput.
pub const RSS_AT_JOBS: usize = 200;
/// Daemon starts per run; `setup_s` is the median. A start takes a few
/// milliseconds, so many are cheap, and fewer let the median wander.
pub const SETUP_REPEATS: usize = 60;
const TIMEOUT: Duration = Duration::from_secs(60);

/// The spec mix. The seed picks the order in which clients submit it.
pub fn mix() -> Vec<JobSpec> {
    [15u64, 20, 25]
        .iter()
        .map(|&steps| JobSpec {
            steps,
            elems: 4,
            order: 5,
            every: 5,
            name: format!("mix{steps}"),
            ..JobSpec::default()
        })
        .collect()
}

/// The submit order: shuffled blocks of the whole mix, from the seed.
pub fn submit_order(seed: u64, len: usize, mix_len: usize) -> Vec<usize> {
    let mut state = seed;
    let mut order = Vec::with_capacity(len + mix_len);
    while order.len() < len {
        let mut block: Vec<usize> = (0..mix_len).collect();
        for i in (1..mix_len).rev() {
            let j = (crate::splitmix64(&mut state) % (i as u64 + 1)) as usize;
            block.swap(i, j);
        }
        order.extend(block);
    }
    order.truncate(len);
    order
}

/// FNV-1a of each spec's final checkpoint when solved in process, the
/// way a worker solves it.
fn reference_hashes(ctx: &Context, specs: &[JobSpec]) -> std::io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let dir = ctx
            .out_dir
            .join(format!("serve-ref-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(worker::ckpt_dir(&dir))?;
        let mut sup = RunSupervisor::new(worker::build_solver(spec, &dir, 0, false));
        sem_comm::par::with_threads(1, || sup.run_to(spec.steps).map_err(|e| e.to_string()))
            .map_err(|e| std::io::Error::other(format!("reference solve of {}: {e}", spec.name)))?;
        let bytes = std::fs::read(worker::result_path(&dir, spec.steps))?;
        out.push(fnv1a64(&bytes));
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(out)
}

/// A running daemon; dropping it stops it.
struct Daemon {
    child: Child,
    dir: PathBuf,
    addr: String,
    stopped: bool,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Daemon {
    /// Start `sem-serve` and wait until it publishes its address;
    /// returns the daemon and the seconds that took.
    fn start(ctx: &Context, tag: &str) -> std::io::Result<(Daemon, f64)> {
        let dir = ctx
            .out_dir
            .join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let child = Command::new(ctx.bin_dir.join("sem-serve"))
            .arg("--workers")
            .arg(WORKERS.to_string())
            .arg("--dir")
            .arg(&dir)
            .env("TERASEM_THREADS", "1")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child,
            dir,
            addr: String::new(),
            stopped: false,
        };
        loop {
            if let Ok(text) = std::fs::read_to_string(daemon.dir.join("serve.addr")) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_string();
                    return Ok((daemon, t0.elapsed().as_secs_f64()));
                }
            }
            if t0.elapsed() > TIMEOUT {
                daemon.stop();
                return Err(std::io::Error::other(
                    "sem-serve did not publish its address",
                ));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(std::io::Error::other(format!(
                    "sem-serve exited early: {status}"
                )));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Drain the daemon, wait for it to exit (killing it after the
    /// timeout) and remove its state directory. Returns whether the
    /// drain exited cleanly; a second call does nothing.
    fn stop(&mut self) -> bool {
        if std::mem::replace(&mut self.stopped, true) {
            return true;
        }
        if !self.addr.is_empty() {
            if let Ok(mut c) = Client::connect(&self.addr, TIMEOUT) {
                let _ = c.request("drain");
            }
        }
        let t0 = Instant::now();
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if t0.elapsed() < TIMEOUT => std::thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break false;
                }
            }
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        clean
    }
}

/// One job as the client saw it.
struct JobRecord {
    id: Option<u64>,
    spec: usize,
    admit_s: f64,
    latency_s: f64,
    error: Option<String>,
    rejected: bool,
}

/// Poll `status` until the job is terminal. `Client::wait_terminal`
/// does the same with a fixed 30 ms sleep, which quantizes latencies to
/// poll multiples: their median would flip between two multiples as the
/// host's speed drifts. A 2 ms poll keeps the measured latency close to
/// the service's own.
fn wait_terminal(c: &mut Client, id: u64) -> std::io::Result<String> {
    const POLL: Duration = Duration::from_millis(2);
    let t0 = Instant::now();
    loop {
        let (state, _) = c.status(id)?;
        if matches!(state.as_str(), "completed" | "failed" | "drained") {
            return Ok(state);
        }
        if t0.elapsed() > TIMEOUT {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("job {id} still {state} after {TIMEOUT:?}"),
            ));
        }
        std::thread::sleep(POLL);
    }
}

/// Step seconds of a job, from its `metrics.jsonl` step records.
fn job_step_seconds(dir: &Path, id: u64) -> Vec<f64> {
    let path = worker::metrics_path(&dir.join(format!("job_{id:06}")));
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(|l| Json::parse(l.trim_start_matches("JSON ")))
        .filter(|j| j.get("type").and_then(Json::as_str) == Some("terasem.step"))
        .filter_map(|j| j.get("seconds").and_then(Json::as_f64))
        .collect()
}

/// What one closed-loop session measured.
struct Session {
    jobs: Vec<JobRecord>,
    window: f64,
    setup_s: f64,
    peak_rss_mb: f64,
    /// Step seconds of every completed job, and per job their sum.
    step_s: Vec<f64>,
    job_step_sum: Vec<f64>,
    drained_cleanly: bool,
}

fn one_job(c: &mut Client, spec: &JobSpec, want: u64, seed: u64) -> JobRecord {
    let mut rec = JobRecord {
        id: None,
        spec: 0,
        admit_s: f64::NAN,
        latency_s: f64::NAN,
        error: None,
        rejected: false,
    };
    let t0 = Instant::now();
    let submitted = c.submit_with_backoff(spec, 200, seed);
    rec.admit_s = t0.elapsed().as_secs_f64();
    let id = match submitted {
        Ok(Ok(id)) => id,
        Ok(Err(terminal)) => {
            rec.rejected = true;
            rec.error = Some(format!("submit rejected: {terminal:?}"));
            return rec;
        }
        Err(e) => {
            rec.error = Some(format!("submit: {e}"));
            return rec;
        }
    };
    rec.id = Some(id);
    let result = wait_terminal(c, id).and_then(|state| match state.as_str() {
        "completed" => c.result(id).map(Some),
        _ => Ok(None),
    });
    rec.latency_s = t0.elapsed().as_secs_f64();
    rec.error = match result {
        Ok(Some((_, hash))) if hash == want => None,
        Ok(Some((_, hash))) => Some(format!(
            "job {id}: hash {hash:016x}, in-process reference {want:016x}"
        )),
        Ok(None) => Some(format!("job {id} did not complete")),
        Err(e) => Some(format!("job {id}: {e}")),
    };
    rec
}

/// Start the daemon `SETUP_REPEATS` times, keep the last, and drive it
/// with the closed loop for `seconds`.
fn session(ctx: &Context, seed: u64, seconds: f64, tr: &mut Tracer) -> std::io::Result<Session> {
    let specs = mix();
    let want = tr.span("serve.reference", |_| reference_hashes(ctx, &specs))?;
    let mut setups = Vec::new();
    let mut daemon = None;
    tr.span("serve.setup", |_| -> std::io::Result<()> {
        for r in 0..SETUP_REPEATS {
            drop(daemon.take());
            let (d, s) = Daemon::start(ctx, &r.to_string())?;
            setups.push(s);
            daemon = Some(d);
        }
        Ok(())
    })?;
    let mut daemon = daemon.expect("a daemon was started");
    // Enough submit slots for any closed loop that fits in the window.
    let order = submit_order(seed, 100_000, specs.len());
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let rss_at = Mutex::new(None);
    let daemon_pid = daemon.child.id().to_string();
    let jobs = Mutex::new(Vec::new());
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let connect_err = tr.span("serve.closed_loop", |_| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| -> std::io::Result<()> {
                        let mut c = Client::connect(&daemon.addr, TIMEOUT)?;
                        while Instant::now() < deadline {
                            let slot = next.fetch_add(1, Ordering::Relaxed);
                            let spec = order[slot % order.len()];
                            let mut rec =
                                one_job(&mut c, &specs[spec], want[spec], seed ^ slot as u64);
                            rec.spec = spec;
                            if rec.error.is_none()
                                && done.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT_JOBS
                            {
                                *rss_at
                                    .lock()
                                    .expect("no client thread panics holding the reading") =
                                    crate::peak_rss_mb(&daemon_pid);
                            }
                            jobs.lock()
                                .expect("no client thread panics holding the job list")
                                .push(rec);
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread does not panic"))
                .find_map(Result::err)
        })
    });
    let window = t0.elapsed().as_secs_f64();
    let peak_rss_mb = rss_at
        .into_inner()
        .expect("client threads joined")
        .or_else(|| crate::peak_rss_mb(&daemon_pid))
        .unwrap_or(f64::NAN);
    let jobs = jobs.into_inner().expect("client threads joined");
    let mut step_s = Vec::new();
    let mut job_step_sum = Vec::new();
    for j in jobs.iter().filter(|j| j.error.is_none()) {
        let secs = job_step_seconds(&daemon.dir, j.id.expect("completed jobs have ids"));
        job_step_sum.push(secs.iter().sum());
        step_s.extend(secs);
    }
    let drained_cleanly = tr.span("serve.drain", |_| daemon.stop());
    if let Some(e) = connect_err {
        return Err(e);
    }
    Ok(Session {
        jobs,
        window,
        setup_s: median(&setups).unwrap_or(f64::NAN),
        peak_rss_mb,
        step_s,
        job_step_sum,
        drained_cleanly,
    })
}

/// Count the session's jobs into `out` (each job is one operation).
fn account(s: &Session, out: &mut Outcome) {
    for j in &s.jobs {
        out.attempted += 1;
        if let Some(e) = &j.error {
            out.fail(e.clone());
        }
    }
    if !s.drained_cleanly {
        out.fail("sem-serve did not drain cleanly".to_string());
    }
}

/// The untraced run.
pub fn run(ctx: &Context, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(String::new(), false);
    let s = match session(ctx, seed, seconds, &mut tr) {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("service session: {e}"));
            return out;
        }
    };
    account(&s, &mut out);
    let spec_steps: Vec<u64> = mix().iter().map(|m| m.steps).collect();
    let ok: Vec<&JobRecord> = s.jobs.iter().filter(|j| j.error.is_none()).collect();
    let steps: u64 = ok.iter().map(|j| spec_steps[j.spec]).sum();
    let lat: Vec<f64> = ok.iter().map(|j| j.latency_s).collect();
    eprintln!(
        "serve_small_jobs: {} jobs ({} completed), {} step samples in {:.3} s",
        s.jobs.len(),
        ok.len(),
        s.step_s.len(),
        s.window
    );
    let pct = |v: &[f64], q| percentile(v, q).unwrap_or(f64::NAN);
    out.push("setup_s", s.setup_s, "s");
    out.push("step_s_p50", pct(&s.step_s, 0.5), "s");
    out.push("step_s_p90", pct(&s.step_s, 0.9), "s");
    out.push("steps_per_s", steps as f64 / s.window, "1/s");
    out.push("job_latency_s_p50", pct(&lat, 0.5), "s");
    out.push("job_latency_s_p90", pct(&lat, 0.9), "s");
    out.push("peak_rss_mb", s.peak_rss_mb, "MB");
    out
}

/// The service layer's metrics from one session: submit round trip,
/// per-job overhead beyond the job's own step seconds, and rejections.
/// The session's jobs count as operations of `out`.
pub fn layer_metrics(ctx: &Context, seed: u64, seconds: f64, tr: &mut Tracer, out: &mut Outcome) {
    match tr.span("serve.session", |tr| session(ctx, seed, seconds, tr)) {
        Ok(s) => {
            account(&s, out);
            let ok: Vec<&JobRecord> = s.jobs.iter().filter(|j| j.error.is_none()).collect();
            let admit: Vec<f64> = ok.iter().map(|j| j.admit_s).collect();
            let overhead: Vec<f64> = ok
                .iter()
                .zip(&s.job_step_sum)
                .map(|(j, st)| j.latency_s - st)
                .collect();
            out.push("serve.admit_s", median(&admit).unwrap_or(f64::NAN), "s");
            out.push(
                "serve.overhead_s",
                median(&overhead).unwrap_or(f64::NAN),
                "s",
            );
            out.push(
                "serve.rejected",
                s.jobs.iter().filter(|j| j.rejected).count() as f64,
                "count",
            );
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("service session: {e}"));
        }
    }
}

/// The in-process solver of the mix's middle spec, as a worker builds
/// it (without its checkpoint policy): the service workload's own data
/// for the in-process layers.
pub fn job_solver(ctx: &Context) -> sem_ns::NsSolver {
    let mut s = worker::build_solver(&mix()[1], &ctx.out_dir, 0, false);
    s.cfg.run = sem_ns::RunPolicy::default();
    s
}
