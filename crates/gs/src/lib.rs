//! # sem-gs
//!
//! The gather-scatter library (§6 of Tufo & Fischer SC'99; ref [27]).
//!
//! Spectral element data is stored element-by-element with no overlap, so
//! residual assembly (direct stiffness summation) needs nodal values
//! shared by adjacent elements to be exchanged and combined. The paper
//! packages this as a stand-alone utility with exactly two calls:
//!
//! ```text
//! handle = gs_init(global_node_numbers, n)
//! ierr   = gs_op(u, op, handle)
//! ```
//!
//! [`GsHandle`] reproduces that interface for the shared-memory case (one
//! address space, element loops run through `sem_comm::par`), including the **vector
//! mode** for multiple degrees of freedom per node and the general set of
//! commutative/associative reduction operations.
//!
//! The distributed form — local node arrays per rank, one aggregated
//! message per neighbouring rank per `gs_op` — is `sem_net::NetGs`, which
//! runs over real sockets and is bitwise equal to [`GsHandle`].

pub mod local;

pub use local::{GsHandle, GsOp};
