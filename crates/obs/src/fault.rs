//! Deterministic fault-injection arming registry (the low half of
//! `sem-guard`).
//!
//! The NS time loop (`sem_ns::fault`) decides *when* a fault should
//! strike from a seeded plan; this module is the process-global
//! letterbox that carries the decision down to the instrumented sites in
//! `sem_solvers` and `sem_gs` without threading configuration through
//! every call signature. A site is *armed* with [`arm`], and the next
//! probe at that site ([`fire`]) consumes the arming exactly once,
//! increments [`Counter::FaultsInjected`](crate::Counter), emits a
//! `fault_injected` trace note, and records a sticky "fired" flag that
//! the orchestrator drains with [`take_fired`] — that self-report is how
//! silent corruption (a skipped gather-scatter exchange produces finite
//! but wrong values) becomes a detectable step failure.
//!
//! Cost when nothing is armed: a single relaxed atomic load behind
//! [`any_armed`] per probe site — the same budget as the metrics
//! counters, so production paths pay nothing measurable.
//!
//! [`FaultGrammar`] is the one spec grammar of the `TERASEM_FAULT` and
//! `TERASEM_NET_FAULT` plans; each plan supplies only its kind table.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// The instrumented injection points outside the NS crate. Field-level
/// NaN/Inf faults are applied directly by `sem_ns` and need no site
/// here.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FaultSite {
    /// Negate the consistent-Poisson operator output inside the pressure
    /// CG `A p` closure — trips the `IndefiniteOperator` guard.
    PressureOperator,
    /// Negate the pressure preconditioner output — trips the
    /// `IndefinitePreconditioner` guard.
    PressurePrecond,
    /// Corrupt the stored successive-RHS projection basis so the next
    /// solve starts from a poisoned initial guess.
    ProjectionUpdate,
    /// Skip one gather-scatter exchange (finite but wrong values; only
    /// the sticky fired flag makes this detectable).
    GsExchange,
    /// Poison the restricted coarse-solve RHS inside the Schwarz
    /// preconditioner's vertex coarse grid — the NaN propagates through
    /// the Cholesky solve into the preconditioner output and trips the
    /// CG `r·z` breakdown guard.
    CoarseRhs,
}

/// Number of fault sites.
pub const NUM_SITES: usize = 5;

impl FaultSite {
    /// All sites, in declaration order.
    pub const ALL: [FaultSite; NUM_SITES] = [
        FaultSite::PressureOperator,
        FaultSite::PressurePrecond,
        FaultSite::ProjectionUpdate,
        FaultSite::GsExchange,
        FaultSite::CoarseRhs,
    ];

    /// Stable snake_case name (trace annotation / test diagnostics).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::PressureOperator => "pressure_operator",
            FaultSite::PressurePrecond => "pressure_precond",
            FaultSite::ProjectionUpdate => "projection_update",
            FaultSite::GsExchange => "gs_exchange",
            FaultSite::CoarseRhs => "coarse_rhs",
        }
    }
}

// Fast gate: probe sites check one relaxed load and bail before touching
// the per-site cells. Maintained as the count of currently-armed sites.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO32: AtomicU32 = AtomicU32::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const FALSE: AtomicBool = AtomicBool::new(false);
/// Remaining armed firings per site (almost always 0 or 1; a plan may
/// arm the same site on consecutive attempts, never concurrently).
static ARMED: [AtomicU32; NUM_SITES] = [ZERO32; NUM_SITES];
/// Sticky per-site "a fault fired since the last drain" flags.
static FIRED: [AtomicBool; NUM_SITES] = [FALSE; NUM_SITES];

fn refresh_any_armed() {
    let any = ARMED.iter().any(|c| c.load(Ordering::Relaxed) > 0);
    ANY_ARMED.store(any, Ordering::Relaxed);
}

/// Is any site currently armed? One relaxed load — the probe-site fast
/// path.
#[inline]
pub fn any_armed() -> bool {
    ANY_ARMED.load(Ordering::Relaxed)
}

/// Arm `site` for one firing (stacking: arming twice yields two
/// firings).
pub fn arm(site: FaultSite) {
    ARMED[site as usize].fetch_add(1, Ordering::Relaxed);
    ANY_ARMED.store(true, Ordering::Relaxed);
}

/// Disarm every site (fired flags are left for [`take_fired`]).
pub fn disarm_all() {
    for cell in &ARMED {
        cell.store(0, Ordering::Relaxed);
    }
    ANY_ARMED.store(false, Ordering::Relaxed);
}

/// Probe: if `site` is armed, consume one arming and report `true` (the
/// caller then applies its corruption). Instrumented through the
/// `faults_injected` counter and a trace note; also sets the sticky
/// fired flag drained by [`take_fired`].
#[inline]
pub fn fire(site: FaultSite) -> bool {
    if !any_armed() {
        return false;
    }
    fire_slow(site)
}

#[cold]
fn fire_slow(site: FaultSite) -> bool {
    let cell = &ARMED[site as usize];
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if cur == 0 {
            return false;
        }
        match cell.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => cur = now,
        }
    }
    FIRED[site as usize].store(true, Ordering::Relaxed);
    refresh_any_armed();
    crate::counters::add(crate::Counter::FaultsInjected, 1);
    crate::trace::note("fault_injected", site as usize as f64);
    true
}

/// Drain the sticky fired flag for `site`: returns whether a fault fired
/// there since the previous drain, and clears the flag.
pub fn take_fired(site: FaultSite) -> bool {
    FIRED[site as usize].swap(false, Ordering::Relaxed)
}

/// Has a fault fired at `site` since the last drain (without clearing)?
pub fn fired(site: FaultSite) -> bool {
    FIRED[site as usize].load(Ordering::Relaxed)
}

/// Full reset: disarm every site and clear every fired flag.
pub fn reset() {
    disarm_all();
    for cell in &FIRED {
        cell.store(false, Ordering::Relaxed);
    }
}

/// Parse failure for a fault-plan spec, naming the variable it is read
/// from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpecError {
    var: &'static str,
    msg: String,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {} spec: {}", self.var, self.msg)
    }
}

impl std::error::Error for FaultSpecError {}

/// One scheduled item of a fault spec, its kind resolved by the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledFault<K> {
    /// The plan's kind (with any qualifier folded in).
    pub kind: K,
    /// 1-based index of the first hit (a step or an outbound frame).
    pub at: u64,
    /// Consecutive hits starting at `at` (`xN`, default 1).
    pub count: u64,
}

/// A parsed fault spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec<K> {
    /// `seed=N` (default 0).
    pub seed: u64,
    /// `rank=R`, when the grammar accepts it.
    pub rank: Option<usize>,
    /// Scheduled items, in spec order.
    pub items: Vec<ScheduledFault<K>>,
}

/// The fault-plan grammar, shared by every plan:
///
/// ```text
/// spec  := item ((',' | ';') item)*
/// item  := 'seed=' N
///        | 'rank=' R                          (only when `rank` is set)
///        | kind (':' qual)? '@' index ('x' count)?
/// ```
///
/// `index` is 1-based and `count` at least 1. Kinds and qualifiers
/// belong to the plan and are resolved by the closure given to
/// [`FaultGrammar::parse`].
#[derive(Clone, Copy, Debug)]
pub struct FaultGrammar {
    /// Environment variable the plan is read from (named in errors).
    pub var: &'static str,
    /// What `index` counts, for error messages (`step`, `frame`).
    pub index: &'static str,
    /// Accept a `rank=R` item.
    pub rank: bool,
}

impl FaultGrammar {
    fn err(&self, msg: String) -> FaultSpecError {
        FaultSpecError { var: self.var, msg }
    }

    /// Parse `spec`. `kind(name, qual, item)` resolves one item's kind
    /// and optional qualifier, or explains why it cannot.
    pub fn parse<K>(
        &self,
        spec: &str,
        mut kind: impl FnMut(&str, Option<&str>, &str) -> Result<K, String>,
    ) -> Result<FaultSpec<K>, FaultSpecError> {
        let mut out = FaultSpec {
            seed: 0,
            rank: None,
            items: Vec::new(),
        };
        for raw in spec.split([',', ';']) {
            let item = raw.trim();
            if item.is_empty() {
                continue;
            }
            if let Some(seed) = item.strip_prefix("seed=") {
                out.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| self.err(format!("bad seed `{item}`")))?;
                continue;
            }
            if let Some(rank) = item.strip_prefix("rank=").filter(|_| self.rank) {
                out.rank = Some(
                    rank.trim()
                        .parse()
                        .map_err(|_| self.err(format!("bad rank `{item}`")))?,
                );
                continue;
            }
            let (head, tail) = item
                .split_once('@')
                .ok_or_else(|| self.err(format!("missing `@{}` in `{item}`", self.index)))?;
            let (name, qual) = match head.split_once(':') {
                Some((k, q)) => (k.trim(), Some(q.trim())),
                None => (head.trim(), None),
            };
            let kind = kind(name, qual, item).map_err(|m| self.err(m))?;
            let (at, count) = match tail.split_once('x') {
                Some((a, c)) => (a, Some(c)),
                None => (tail, None),
            };
            let positive = |s: &str| s.trim().parse::<u64>().ok().filter(|&v| v >= 1);
            let at = positive(at).ok_or_else(|| self.err(format!("bad {} in `{item}`", self.index)))?;
            let count = count
                .map_or(Some(1), positive)
                .ok_or_else(|| self.err(format!("bad repeat count in `{item}`")))?;
            out.items.push(ScheduledFault { kind, at, count });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_never_fire() {
        let _g = crate::test_guard();
        reset();
        assert!(!any_armed());
        for site in FaultSite::ALL {
            assert!(!fire(site));
            assert!(!take_fired(site));
        }
    }

    #[test]
    fn armed_site_fires_exactly_once_and_reports() {
        let _g = crate::test_guard();
        let prev = crate::enabled();
        crate::set_enabled(true);
        reset();
        crate::counters::reset_counters();
        arm(FaultSite::PressureOperator);
        assert!(any_armed());
        // Wrong site: untouched.
        assert!(!fire(FaultSite::GsExchange));
        assert!(fire(FaultSite::PressureOperator));
        assert!(!fire(FaultSite::PressureOperator), "one-shot");
        assert!(!any_armed());
        assert_eq!(crate::counters::get(crate::Counter::FaultsInjected), 1);
        assert!(fired(FaultSite::PressureOperator));
        assert!(take_fired(FaultSite::PressureOperator));
        assert!(!take_fired(FaultSite::PressureOperator), "drained");
        crate::set_enabled(prev);
        reset();
    }

    #[test]
    fn stacked_armings_fire_stacked_times() {
        let _g = crate::test_guard();
        reset();
        arm(FaultSite::ProjectionUpdate);
        arm(FaultSite::ProjectionUpdate);
        assert!(fire(FaultSite::ProjectionUpdate));
        assert!(any_armed());
        assert!(fire(FaultSite::ProjectionUpdate));
        assert!(!fire(FaultSite::ProjectionUpdate));
        reset();
    }

    #[test]
    fn disarm_all_keeps_fired_flags() {
        let _g = crate::test_guard();
        reset();
        arm(FaultSite::GsExchange);
        assert!(fire(FaultSite::GsExchange));
        arm(FaultSite::PressurePrecond);
        disarm_all();
        assert!(!fire(FaultSite::PressurePrecond));
        assert!(take_fired(FaultSite::GsExchange), "fired flag survives disarm");
        reset();
    }

    #[test]
    fn grammar_tokenizes_items_and_names_its_variable() {
        let g = FaultGrammar {
            var: "TERASEM_TEST_FAULT",
            index: "step",
            rank: false,
        };
        let kind = |name: &str, qual: Option<&str>, _: &str| match name {
            "k" => Ok(qual.map(str::to_string)),
            other => Err(format!("unknown fault kind `{other}`")),
        };
        let spec = g.parse(" seed=3; k:a@2x4 ,k@1", kind).unwrap();
        assert_eq!((spec.seed, spec.rank), (3, None));
        let got: Vec<_> = spec.items.iter().map(|i| (i.kind.clone(), i.at, i.count)).collect();
        assert_eq!(got, vec![(Some("a".into()), 2, 4), (None, 1, 1)]);
        for bad in ["rank=1", "k@0", "k@1x0", "k", "q@1", "seed=x"] {
            let err = g.parse(bad, kind).unwrap_err().to_string();
            assert!(err.starts_with("invalid TERASEM_TEST_FAULT spec: "), "{bad}: {err}");
        }
        let ranked = FaultGrammar { rank: true, ..g };
        assert_eq!(ranked.parse("rank=2,k@1", kind).unwrap().rank, Some(2));
    }

    #[test]
    fn site_names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for s in FaultSite::ALL {
            assert!(seen.insert(s.name()));
        }
    }
}
