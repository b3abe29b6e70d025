//! DEPENDENCY-BASED (DB) histogram synopses — the paper's contribution.
//!
//! A DB histogram `H = <M, C>` (Definition 2.1) pairs a decomposable
//! interaction model `M` with a collection `C` of low-dimensional
//! histograms on the marginals of `M`'s generators. This crate assembles
//! the pieces built by `dbhist-model` and `dbhist-histogram` into the full
//! synopsis, and implements everything around it:
//!
//! * [`factor::Factor`] — the abstraction `ComputeMarginal` runs over:
//!   anything supporting `project`, `product` (separation formula), and
//!   box-mass estimation. Implemented by MHIST split trees, grid
//!   histograms, and exact sparse distributions (the paper's "clique
//!   histograms with an unlimited number of buckets" used in Fig. 6).
//! * [`marginal::compute_marginal`] — the paper's `ComputeMarginal`
//!   algorithm (Fig. 3) over the junction tree, minimizing histogram
//!   multiplications/projections.
//! * [`plan`] — the plan-based query engine: compiles the Fig. 3
//!   recursion into cached [`plan::MarginalPlan`]s executed with
//!   zero-clone (`Cow`) operand passing, plus the per-synopsis
//!   [`plan::QueryEngine`] workload cache and [`plan::QueryTrace`]
//!   operation counters. Each estimate step has one implementation
//!   here; the direct recursion it is tested against lives in
//!   `dbhist_bench::fig3`.
//! * `kernel` (crate-internal) — a shape's group marginals lowered into
//!   flat `TreeIndex` walks, which the engine answers warm queries from.
//! * [`alloc`] — storage allocation across clique histograms: the optimal
//!   pseudo-polynomial dynamic program and the `IncrementalGains` greedy
//!   (Fig. 2).
//! * [`builder::SynopsisBuilder`] — the unified construction API:
//!   `SynopsisBuilder::new(&rel).budget(b).factor(kind).threads(n).build()`
//!   runs the full pipeline (`model selection → clique-histogram building
//!   under a byte budget`), optionally fanning every phase across worker
//!   threads with bit-identical results, and records a
//!   [`builder::BuildTrace`] of per-phase wall times.
//! * [`synopsis::DbHistogram`] — the built synopsis and its
//!   range-selectivity estimation.
//! * [`baselines`] — the estimators the paper compares against: `IND`
//!   (one-dimensional histograms + full independence), full-dimensional
//!   `MHIST`, and random sampling.
//!
//! # Quickstart
//!
//! ```
//! use dbhist_core::builder::SynopsisBuilder;
//! use dbhist_core::estimator::SelectivityEstimator;
//! use dbhist_distribution::{Relation, Schema};
//!
//! // A toy relation where a == b and c is independent.
//! let schema = Schema::new(vec![("a", 8), ("b", 8), ("c", 4)]).unwrap();
//! let rows: Vec<Vec<u32>> = (0..4096)
//!     .map(|i| vec![i % 8, i % 8, (i / 8) % 4])
//!     .collect();
//! let rel = Relation::from_rows(schema, rows).unwrap();
//!
//! // Build a DB histogram within a 256-byte budget.
//! let db = SynopsisBuilder::new(&rel).budget(256).build().unwrap();
//! assert!(db.storage_bytes() <= 256);
//!
//! // Estimate the selectivity of the predicate a ∈ [0,3] ∧ c = 1.
//! use dbhist_core::query::Query;
//! let q = Query::range(0, 0, 3).eq(2, 1);
//! let est = db.estimate(&q);
//! let exact = rel.count_range(q.ranges()) as f64;
//! assert!((est - exact).abs() / exact < 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod alloc;
pub mod baselines;
pub mod build;
pub mod builder;
pub mod error;
pub mod estimator;
pub mod explain;
pub mod factor;
pub mod ingest;
pub(crate) mod kernel;
pub mod maintenance;
pub mod marginal;
pub mod observe;
pub mod plan;
pub mod query;
pub(crate) mod scratch;
pub mod service;
pub mod sharded;
pub mod snapshot;
pub mod synopsis;
pub mod wavelet_factor;

pub use builder::{BuildTrace, FactorKind, Synopsis, SynopsisBuilder};
pub use error::SynopsisError;
pub use estimator::SelectivityEstimator;
pub use explain::{
    ExplainProbe, ExplainRecorder, ExplainReport, GroupReport, NoProbe, QueryPath, ShedSkip,
    StepKind, StepReport,
};
pub use factor::{ExactFactor, Factor};
pub use ingest::{IngestConfig, IngestSession, RecoveryReport, TuneOutcome};
pub use observe::ObservabilityServer;
pub use plan::{MarginalPlan, MassPlan, QueryEngine, QueryTrace};
pub use query::{Predicate, Query};
pub use service::{
    BatchReply, BatchTicket, EstimatorService, Generation, ServeStats, ServiceConfig,
};
pub use sharded::ShardedLru;
pub use synopsis::{DbConfig, DbHistogram};
