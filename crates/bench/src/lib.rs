//! Experiment harness reproducing the paper's evaluation (§4).
//!
//! Each function in [`experiments`] regenerates one of the paper's
//! figures — same data-set shapes, same workloads, same metrics, same
//! synopsis budgets — and returns the series as plain data that the
//! `repro` binary prints and `EXPERIMENTS.md` records:
//!
//! | Function | Paper figure | What it shows |
//! |---|---|---|
//! | [`experiments::fig6`] | Fig. 6 | decomposable-model error vs. #edges (DB₁/DB₂, exact clique marginals) |
//! | [`experiments::fig7`] | Fig. 7 | rel. + mult. error vs. query dimensionality at 3 KB (IND/MHIST/DB₁/DB₂) |
//! | [`experiments::fig8`] | Fig. 8 | error vs. storage budget on a 3-D workload |
//! | [`experiments::fig9`] | Fig. 9 | the 12-attribute data set at 20 KB |
//! | [`experiments::housing_experiment`] | full-paper extra | California-housing-like data at 3 KB |
//!
//! [`Scale`] lets the same code run at the paper's full sizes (the
//! `repro` binary's default) or at a reduced scale for tests and timing
//! benches.
//!
//! [`fig3`] holds the direct Fig. 3 `ComputeMarginal` recursion: the
//! oracle the plan engine is tested against and the baseline
//! `query_bench` times it against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod fig3;
pub mod report;

pub use experiments::Scale;
