//! **distributed-covering** — a Rust reproduction of *“Optimal Distributed
//! Covering Algorithms”* (Ran Ben-Basat, Guy Even, Ken-ichi Kawarabayashi,
//! Gregory Schwartzman; DISC 2019).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`hypergraph`] — weighted hypergraphs, set systems, covers, instance
//!   generators, and a text format;
//! * [`congest`] — the deterministic CONGEST-model simulator with per-link
//!   bit accounting;
//! * [`core`] — Algorithm MWHVC: the `(f+ε)`-approximate distributed
//!   minimum weight hypergraph vertex cover (the paper's contribution),
//!   plus the centralized reference implementation, invariant checkers,
//!   and the explicit complexity bounds;
//! * [`ilp`] — the Section 5 reductions from covering integer linear
//!   programs to MWHVC;
//! * [`baselines`] — reconstructions of the algorithms the paper compares
//!   against (KVY, KMW-style doubling, maximal matching, Bar-Yehuda–Even,
//!   greedy, exact branch and bound).
//!
//! # Quickstart
//!
//! ```
//! use distributed_covering::core::MwhvcSolver;
//! use distributed_covering::hypergraph::from_weighted_edge_lists;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = from_weighted_edge_lists(&[5, 1, 5], &[&[0, 1], &[1, 2]])?;
//! let result = MwhvcSolver::with_epsilon(0.5)?.solve(&g)?;
//! assert!(result.cover.is_cover_of(&g));
//! println!(
//!     "cover weight {} in {} CONGEST rounds (ratio ≤ {:.3})",
//!     result.weight,
//!     result.rounds(),
//!     result.ratio_upper_bound()
//! );
//! # Ok(())
//! # }
//! ```
//!
//! See `README.md` for the architecture overview and its documentation
//! map, and `crates/bench/benches/` for the benches that reproduce the
//! paper's tables and figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dcover_baselines as baselines;
pub use dcover_congest as congest;
pub use dcover_core as core;
pub use dcover_hypergraph as hypergraph;
pub use dcover_ilp as ilp;
