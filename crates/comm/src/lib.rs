//! # sem-comm
//!
//! The parallel substrate. The paper ran on real message-passing hardware
//! (ASCI-Red via NX/MPI). Real rank-to-rank exchange lives in `sem-net`
//! (Unix-socket ranks); this crate holds the cost model that turns its
//! measured counts into predicted times, and the intranode threading:
//!
//! * [`MachineModel`] converts measured counts (messages, bytes, flops)
//!   into predicted wall-clock using the standard α–β (latency/bandwidth)
//!   model plus a sustained flop rate, with an ASCI-Red-333 preset
//!   calibrated to the paper's §6–§7 numbers. This is what regenerates the
//!   *shape* of Fig. 6 and Table 4 at up to 2048 nodes on a laptop.
//! * [`RankLedger`] accumulates per-rank costs and reports the
//!   critical-path (max-over-ranks) time estimate.
//! * [`par`] is the intranode half: a deterministic chunked parallel-for
//!   over elements (std threads only, `TERASEM_THREADS` override) — the
//!   modern form of the paper's dual-processor `-Mconcur` mode.

pub mod model;
pub mod par;

pub use model::{fit_alpha_beta, CostBreakdown, MachineModel, RankLedger};
