//! The DEPENDENCY-BASED histogram synopsis (paper Definition 2.1).
//!
//! [`DbHistogram`] couples a decomposable model `M` (discovered by forward
//! selection) with one clique factor per generator of `M`. Construction
//! (paper §3.1–3.2) proceeds in three phases:
//!
//! 1. **Model selection** — [`dbhist_model::selection::ForwardSelector`]
//!    with the configured heuristic (`DB₁`/`DB₂`), `k_max`, and `θ`.
//! 2. **Clique-histogram construction under a byte budget** — incremental
//!    builders over each generator marginal, funded by
//!    [`crate::alloc::incremental_gains`] or the optimal DP.
//! 3. **Assembly** — the junction tree plus finished histograms.
//!
//! Estimation (paper §3.3) goes through a per-synopsis
//! [`QueryEngine`]: the Fig. 3 recursion is compiled once per query
//! *shape* into a [`crate::plan::MarginalPlan`]/[`crate::plan::MassPlan`]
//! and executed with zero-clone `Cow` operand passing; the first
//! execution of a shape whose group marginals lower bit-identically also
//! stores a flat kernel, and both live in one bounded per-shape LRU
//! entry. Repeated workloads pay compilation and lowering once.
//! [`DbHistogram::query_trace`] exposes the engine's cumulative operation
//! counters.

use std::time::Duration;

use dbhist_distribution::{AttrSet, Distribution, Relation};
use dbhist_histogram::{GridHistogram, SplitCriterion, SplitTree};
use dbhist_model::selection::{ForwardSelector, SelectionConfig, SelectionResult};
use dbhist_model::DecomposableModel;
use dbhist_telemetry::span::SpanRecord;
use dbhist_telemetry::{DriftMonitor, SpanCollector};
use rayon::prelude::*;

use crate::alloc::{
    apply_allocation_parallel, error_curves_parallel, incremental_gains_parallel, optimal_dp,
    with_pool,
};
use crate::build::{GridCliqueBuilder, IncrementalBuilder, MhistCliqueBuilder};
use crate::builder::BuildTrace;
use crate::error::SynopsisError;
use crate::estimator::SelectivityEstimator;
use crate::explain::{ExplainRecorder, ExplainReport};
use crate::factor::{ExactFactor, Factor};
use crate::plan::{QueryEngine, QueryTrace};
use crate::query::Query;

/// How the storage budget is distributed across clique histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationStrategy {
    /// The paper's Fig. 2 greedy (default; optimal under diminishing
    /// returns and what the experiments use).
    #[default]
    IncrementalGains,
    /// The exact pseudo-polynomial dynamic program.
    OptimalDp,
}

/// Default work-size floor for parallel clique-histogram construction
/// and assembly (see [`DbConfig::parallel_clique_floor`]): builds with
/// fewer cliques run those phases serially regardless of the configured
/// thread count.
pub const MIN_PARALLEL_CLIQUES: usize = 8;

/// Configuration for building a [`DbHistogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct DbConfig {
    /// Total storage budget in bytes for the clique-histogram collection.
    pub budget_bytes: usize,
    /// Forward-selection configuration (heuristic, `k_max`, `θ`).
    pub selection: SelectionConfig,
    /// Histogram partitioning constraint.
    pub criterion: SplitCriterion,
    /// Budget distribution strategy.
    pub allocation: AllocationStrategy,
    /// Work-size floor for parallel clique-histogram construction and
    /// assembly: builds with fewer cliques than this run those phases
    /// serially even when `selection.threads > 1` (see
    /// [`MIN_PARALLEL_CLIQUES`]). Serial and parallel are bit-identical;
    /// the floor only avoids paying thread fan-out for tiny builds.
    pub parallel_clique_floor: usize,
}

impl DbConfig {
    /// A configuration with the paper's defaults (`DB₂`, `k_max = 2`,
    /// `θ = 0.90`, MaxDiff, IncrementalGains) and the given byte budget.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget_bytes,
            selection: SelectionConfig::default(),
            criterion: SplitCriterion::default(),
            allocation: AllocationStrategy::default(),
            parallel_clique_floor: MIN_PARALLEL_CLIQUES,
        }
    }
}

/// Rolling-window length for per-clique feedback-drift statistics.
pub const DRIFT_WINDOW: usize = dbhist_telemetry::drift::DEFAULT_WINDOW;

/// A DEPENDENCY-BASED histogram synopsis `H = <M, C>`.
#[derive(Debug, Clone)]
pub struct DbHistogram<F: Factor> {
    model: DecomposableModel,
    factors: Vec<F>,
    bytes: usize,
    name: String,
    engine: QueryEngine<F>,
    trace: BuildTrace,
    drift: DriftMonitor,
}

impl<F: Factor> DbHistogram<F> {
    /// The interaction model `M`.
    #[must_use]
    pub fn model(&self) -> &DecomposableModel {
        &self.model
    }

    /// The clique factors `C`, aligned with `model().cliques()`.
    #[must_use]
    pub fn factors(&self) -> &[F] {
        &self.factors
    }

    /// Mutable access for incremental maintenance (crate-internal: bucket
    /// counts may move, but the factor set must stay aligned with the
    /// model's cliques). Invalidates cached lowered kernels — compiled
    /// plans survive, they depend only on the model structure.
    pub(crate) fn factors_mut(&mut self) -> &mut [F] {
        self.engine.invalidate_kernels();
        &mut self.factors
    }

    /// Replaces one clique's factor wholesale (a feedback-triggered
    /// re-split installing fresh bucket boundaries). Goes through
    /// [`DbHistogram::factors_mut`], so cached lowered kernels are
    /// invalidated; compiled plans survive (the model structure is
    /// unchanged). Returns `false` for an out-of-range index, leaving the
    /// synopsis untouched.
    pub(crate) fn replace_factor(&mut self, clique: usize, factor: F) -> bool {
        match self.factors_mut().get_mut(clique) {
            Some(slot) => {
                *slot = factor;
                true
            }
            None => false,
        }
    }

    /// The plan-based query engine answering this synopsis's queries.
    #[must_use]
    pub fn engine(&self) -> &QueryEngine<F> {
        &self.engine
    }

    /// Snapshot of the engine's cumulative operation and cache counters.
    ///
    /// Non-destructive and lock-free: the engine's counters keep
    /// accumulating across calls until [`DbHistogram::reset_query_trace`]
    /// zeroes them.
    #[must_use]
    pub fn query_trace(&self) -> QueryTrace {
        self.engine.trace()
    }

    /// Per-phase construction instrumentation recorded when this synopsis
    /// was built (all-zero for synopses assembled from externally
    /// provided factors, e.g. [`DbHistogram::exact_for_model`]).
    #[must_use]
    pub fn build_trace(&self) -> BuildTrace {
        self.trace.clone()
    }

    pub(crate) fn set_trace(&mut self, trace: BuildTrace) {
        self.trace = trace;
    }

    /// Resets the engine's cumulative counters to zero.
    pub fn reset_query_trace(&self) {
        self.engine.reset_trace();
    }

    /// Estimates the marginal factor over an arbitrary attribute subset
    /// (paper §3.3.1), through the plan cache.
    ///
    /// # Errors
    ///
    /// Propagates factor-operation failures and rejects attributes the
    /// model does not cover.
    pub fn marginal(&self, attrs: &AttrSet) -> Result<F, SynopsisError> {
        self.engine.marginal(self.model.junction_tree(), &self.factors, attrs)
    }

    /// Estimates the selectivity of a conjunctive range predicate,
    /// returning an error instead of panicking on structural failures.
    ///
    /// # Errors
    ///
    /// Propagates factor-operation failures.
    pub fn try_estimate(&self, query: &Query) -> Result<f64, SynopsisError> {
        let attrs = AttrSet::from_ids(
            query
                .ranges()
                .iter()
                .map(|&(a, _, _)| a)
                .filter(|&a| usize::from(a) < self.model.schema().arity()),
        );
        if attrs.is_empty() {
            // No constrained attribute: the estimate is the table size.
            return Ok(self.factors.first().map_or(0.0, Factor::total));
        }
        self.engine.estimate_mass(self.model.junction_tree(), &self.factors, &attrs, query)
    }

    /// [`DbHistogram::try_estimate`] plus a per-query [`ExplainReport`]
    /// describing how the engine resolved it. The estimate is
    /// bit-identical to the unexplained call (probes only observe; see
    /// [`crate::explain`]).
    ///
    /// # Errors
    ///
    /// Propagates factor-operation failures.
    pub fn try_estimate_explained(
        &self,
        query: &Query,
    ) -> Result<(f64, ExplainReport), SynopsisError> {
        let attrs = AttrSet::from_ids(
            query
                .ranges()
                .iter()
                .map(|&(a, _, _)| a)
                .filter(|&a| usize::from(a) < self.model.schema().arity()),
        );
        if attrs.is_empty() {
            // No constrained attribute: the estimate is the table size and
            // no engine machinery runs — the report says exactly that.
            let estimate = self.factors.first().map_or(0.0, Factor::total);
            let recorder = ExplainRecorder::new(&attrs);
            return Ok((estimate, recorder.finish(estimate, 0)));
        }
        self.engine.estimate_mass_explained(
            self.model.junction_tree(),
            &self.factors,
            &attrs,
            query,
        )
    }

    /// Feeds an observed cardinality back into the synopsis's
    /// accuracy-drift monitor: the query is re-estimated, the absolute
    /// relative error `|estimate − actual| / actual` is computed (via
    /// [`dbhist_data::metrics::relative_error`]), and the observation is
    /// attributed to the cliques whose factors the query's compiled plan
    /// actually loads ([`QueryEngine::loaded_cliques`]) — blame lands on
    /// the factors that produced the estimate, so feedback-driven
    /// re-splitting ([`crate::ingest::IngestSession::tune`]) targets a
    /// clique whose boundaries the failing queries actually consult.
    ///
    /// Non-positive or non-finite `actual` values are ignored (relative
    /// error is undefined at zero), as are queries the synopsis cannot
    /// estimate.
    pub fn record_feedback(&self, query: &Query, actual: f64) {
        if actual <= 0.0 || !actual.is_finite() {
            return;
        }
        let Ok(est) = self.try_estimate(query) else { return };
        let err = dbhist_data::metrics::relative_error(est, actual);
        let attrs = AttrSet::from_ids(
            query
                .ranges()
                .iter()
                .map(|&(a, _, _)| a)
                .filter(|&a| usize::from(a) < self.model.schema().arity()),
        );
        if !attrs.is_empty() {
            match self.engine.loaded_cliques(self.model.junction_tree(), &attrs) {
                Ok(cliques) => {
                    for i in cliques {
                        self.drift.record(i, err);
                    }
                }
                // `try_estimate` succeeded, so the plan compiles; this
                // arm is unreachable in practice, but attr-overlap
                // attribution keeps the observation from vanishing if a
                // future planner rejects a target the estimator accepts.
                Err(_) => {
                    for (i, clique) in self.model.cliques().iter().enumerate() {
                        if !clique.is_disjoint(&attrs) {
                            self.drift.record(i, err);
                        }
                    }
                }
            }
        }
        if dbhist_telemetry::enabled() {
            dbhist_telemetry::wellknown::wellknown().estimator_feedback.increment();
        }
    }

    /// The per-clique accuracy-drift monitor fed by
    /// [`DbHistogram::record_feedback`].
    #[must_use]
    pub fn drift_monitor(&self) -> &DriftMonitor {
        &self.drift
    }

    fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Reassembles a synopsis from snapshot-loaded parts. Mirrors the
    /// tail of `build_for_model`: the query engine's `RootedViews` and
    /// plan cache start empty and fill lazily, exactly as after a fresh
    /// build, and the build trace is all-zero (nothing was built). The
    /// caller (the snapshot loader) has already validated that `factors`
    /// aligns one-to-one with the model's cliques.
    pub(crate) fn from_loaded_parts(
        model: DecomposableModel,
        factors: Vec<F>,
        bytes: usize,
        name: String,
    ) -> Self {
        let engine = QueryEngine::new(model.junction_tree());
        let drift = DriftMonitor::new(model.cliques().len(), DRIFT_WINDOW);
        Self { model, factors, bytes, name, engine, trace: BuildTrace::default(), drift }
    }
}

impl<F: Factor> SelectivityEstimator for DbHistogram<F> {
    fn estimate(&self, query: &Query) -> f64 {
        // The trait signature is infallible; a failure here means the
        // synopsis is structurally corrupt, and aborting beats silently
        // returning garbage estimates. Fallible callers should prefer
        // `try_estimate`.
        #[allow(clippy::expect_used)]
        self.try_estimate(query)
            // lint:allow-next-line(panic-surface): infallible trait contract; corrupt synopsis must not yield silent garbage
            .expect("DB-histogram estimation failed on a structurally valid synopsis")
    }

    fn storage_bytes(&self) -> usize {
        self.bytes
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn query_trace(&self) -> Option<QueryTrace> {
        Some(self.engine.trace())
    }

    fn reset_trace(&self) {
        self.reset_query_trace();
    }

    fn build_trace(&self) -> Option<BuildTrace> {
        Some(self.trace.clone())
    }

    fn record_feedback(&self, query: &Query, actual: f64) {
        DbHistogram::record_feedback(self, query, actual);
    }

    fn feedback_drift(&self) -> Option<f64> {
        Some(self.drift.max_drift())
    }
}

/// Starts one incremental builder per model clique, computing the clique
/// marginals concurrently when `threads > 1` and the model has at least
/// `clique_floor` cliques (each marginal is a pure projection of the
/// relation, so results are identical to the serial loop; errors surface
/// in clique order either way). Below the floor the serial loop wins:
/// projecting a handful of small marginals is microseconds of work,
/// while spinning a pool and distributing chunks is not
/// (`BENCH_build.json` measured 0.91x at 4 threads on a 5-clique build
/// before the floor existed).
fn start_builders<B>(
    relation: &Relation,
    model: &DecomposableModel,
    threads: usize,
    clique_floor: usize,
    start: &(impl Fn(&Distribution) -> Result<B, SynopsisError> + Sync),
) -> Result<Vec<B>, SynopsisError>
where
    B: Send,
{
    let cliques = model.cliques();
    if threads <= 1 || cliques.len() < clique_floor.max(2) {
        return cliques
            .iter()
            .map(|c| {
                let marginal = relation.marginal(c)?;
                start(&marginal)
            })
            .collect();
    }
    let started: Vec<Result<B, SynopsisError>> = with_pool(threads, || {
        cliques
            .par_iter()
            .map(|c| relation.marginal(c).map_err(SynopsisError::from).and_then(|m| start(&m)))
            .collect()
    });
    started.into_iter().collect()
}

/// Shared construction pipeline: select a model, then build the clique
/// histograms within the budget using `start` to create each builder and
/// `finish` to materialize it. The worker-thread count comes from
/// `config.selection.threads` and governs every phase; the result is
/// bit-identical across thread counts. Phase wall times and task counts
/// are recorded on the returned synopsis's [`BuildTrace`].
fn build_generic<B, F>(
    relation: &Relation,
    config: &DbConfig,
    start: impl Fn(&Distribution) -> Result<B, SynopsisError> + Sync,
) -> Result<(DbHistogram<F>, SelectionResult), SynopsisError>
where
    B: IncrementalBuilder<Histogram = F> + Clone + Send + Sync,
    F: Factor + Send,
{
    config.selection.validate()?;
    // Phase wall times are derived from the span stream rather than
    // hand-threaded `Instant` pairs: a thread-local collector captures
    // every span this thread emits, and the `BuildTrace` is assembled
    // from the records afterwards.
    let collector = SpanCollector::install();
    let selection = {
        let _span = dbhist_telemetry::span!("dbhist_build_selection_latency_us");
        ForwardSelector::new(relation, config.selection).run()
    };
    let selection_time = span_total(&collector.finish(), "dbhist_build_selection_latency_us");
    let mut synopsis = build_for_model(relation, selection.model.clone(), config, start)?;
    let mut trace = synopsis.build_trace();
    trace.selection = selection_time;
    trace.total = selection_time + trace.total;
    trace.selection_steps = selection.steps.len();
    trace.peak_candidates = selection.peak_candidates;
    trace.entropy_computations = selection.entropy_computations;
    synopsis.set_trace(trace);
    Ok((synopsis, selection))
}

/// Sums the durations of every collected span named `name`.
fn span_total(records: &[SpanRecord], name: &str) -> Duration {
    records.iter().filter(|r| r.name == name).map(|r| r.duration).sum()
}

/// Builds the clique-histogram collection for an already-selected model.
fn build_for_model<B, F>(
    relation: &Relation,
    model: DecomposableModel,
    config: &DbConfig,
    start: impl Fn(&Distribution) -> Result<B, SynopsisError> + Sync,
) -> Result<DbHistogram<F>, SynopsisError>
where
    B: IncrementalBuilder<Histogram = F> + Clone + Send + Sync,
    F: Factor + Send,
{
    let threads = config.selection.threads.max(1);
    let clique_floor = config.parallel_clique_floor;
    let collector = SpanCollector::install();

    let mut builders: Vec<B> = {
        let _span = dbhist_telemetry::span!("dbhist_build_construction_latency_us");
        start_builders(relation, &model, threads, clique_floor, &start)?
    };

    let splits_funded = {
        let _span = dbhist_telemetry::span!("dbhist_build_allocation_latency_us");
        match config.allocation {
            AllocationStrategy::IncrementalGains => {
                incremental_gains_parallel(&mut builders, config.budget_bytes, threads)?.splits
            }
            AllocationStrategy::OptimalDp => {
                // Measuring the error curves drives the builders to
                // saturation; fresh builders are created below for the
                // actual allocation.
                let curves = error_curves_parallel(&mut builders, config.budget_bytes, threads);
                builders = start_builders(relation, &model, threads, clique_floor, &start)?;
                let picks = optimal_dp(&curves, config.budget_bytes)?;
                apply_allocation_parallel(&mut builders, &picks, threads);
                picks.iter().map(|p| p.buckets.saturating_sub(1)).sum()
            }
        }
    };

    let (bytes, factors, engine): (usize, Vec<F>, QueryEngine<F>) = {
        let _span = dbhist_telemetry::span!("dbhist_build_assembly_latency_us");
        let bytes = builders.iter().map(IncrementalBuilder::storage_bytes).sum();
        // Same work-size floor as construction: finishing a few small
        // builders serially beats paying pool fan-out for them.
        let factors: Vec<F> = if threads <= 1 || builders.len() < clique_floor.max(2) {
            builders.iter().map(IncrementalBuilder::finish).collect()
        } else {
            with_pool(threads, || builders.par_iter().map(IncrementalBuilder::finish).collect())
        };
        let engine = QueryEngine::new(model.junction_tree());
        (bytes, factors, engine)
    };

    let records = collector.finish();
    let construction = span_total(&records, "dbhist_build_construction_latency_us");
    let allocation = span_total(&records, "dbhist_build_allocation_latency_us");
    let assembly = span_total(&records, "dbhist_build_assembly_latency_us");

    if dbhist_telemetry::enabled() {
        let w = dbhist_telemetry::wellknown::wellknown();
        w.build_builds.increment();
        w.build_splits_funded.add(u64::try_from(splits_funded).unwrap_or(u64::MAX));
    }

    let trace = BuildTrace {
        threads,
        construction,
        allocation,
        assembly,
        total: construction + allocation + assembly,
        cliques: factors.len(),
        splits_funded,
        ..BuildTrace::default()
    };
    let drift = DriftMonitor::new(model.cliques().len(), DRIFT_WINDOW);
    Ok(DbHistogram { model, factors, bytes, name: "DB".into(), engine, trace, drift })
}

/// Internal entry for MHIST synopses; [`crate::builder::SynopsisBuilder`]
/// and incremental maintenance funnel through here.
pub(crate) fn build_mhist_pipeline(
    relation: &Relation,
    config: &DbConfig,
) -> Result<DbHistogram<SplitTree>, SynopsisError> {
    let (mut synopsis, _selection) = build_generic(relation, config, |marginal| {
        MhistCliqueBuilder::start(marginal, config.criterion)
    })?;
    synopsis.set_name(match config.selection.heuristic {
        dbhist_model::selection::EdgeHeuristic::Db1 => "DB1",
        dbhist_model::selection::EdgeHeuristic::Db2 => "DB2",
    });
    Ok(synopsis)
}

/// Internal entry for grid synopses.
pub(crate) fn build_grid_pipeline(
    relation: &Relation,
    config: &DbConfig,
) -> Result<DbHistogram<GridHistogram>, SynopsisError> {
    let (mut synopsis, _) = build_generic(relation, config, |marginal| {
        GridCliqueBuilder::start(marginal, config.criterion)
    })?;
    synopsis.set_name("DB-grid");
    Ok(synopsis)
}

/// Internal entry for wavelet synopses.
pub(crate) fn build_wavelet_pipeline(
    relation: &Relation,
    config: &DbConfig,
) -> Result<DbHistogram<crate::wavelet_factor::WaveletFactor>, SynopsisError> {
    let (mut synopsis, _) = build_generic(relation, config, |marginal| {
        crate::wavelet_factor::WaveletCliqueBuilder::start(marginal)
    })?;
    synopsis.set_name("DB-wavelet");
    Ok(synopsis)
}

impl DbHistogram<SplitTree> {
    /// Builds MHIST clique histograms for an externally selected model
    /// (used by experiments that sweep model complexity).
    ///
    /// # Errors
    ///
    /// Fails on impossible budgets or degenerate inputs.
    pub fn for_model(
        relation: &Relation,
        model: DecomposableModel,
        config: DbConfig,
    ) -> Result<Self, SynopsisError> {
        build_for_model(relation, model, &config, |marginal| {
            MhistCliqueBuilder::start(marginal, config.criterion)
        })
    }
}

impl DbHistogram<ExactFactor> {
    /// Pairs an externally selected model with *exact* clique marginals —
    /// "clique histograms with an unlimited number of buckets" — so that
    /// query error reflects the model alone (the paper's Fig. 6 setup).
    ///
    /// # Errors
    ///
    /// Propagates marginal-computation failures.
    pub fn exact_for_model(
        relation: &Relation,
        model: DecomposableModel,
    ) -> Result<Self, SynopsisError> {
        let factors: Vec<ExactFactor> = model
            .cliques()
            .iter()
            .map(|c| relation.marginal(c).map(ExactFactor))
            .collect::<Result<_, _>>()?;
        // Storage accounting for exact marginals: 4 bytes per stored value
        // plus 4 per frequency (informational only; Fig. 6 ignores space).
        let bytes = factors.iter().map(|f| f.0.support_size() * 4 * (f.0.attrs().len() + 1)).sum();
        let engine = QueryEngine::new(model.junction_tree());
        let drift = DriftMonitor::new(model.cliques().len(), DRIFT_WINDOW);
        Ok(DbHistogram {
            model,
            factors,
            bytes,
            name: "DB-exact".into(),
            engine,
            trace: BuildTrace::default(),
            drift,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SynopsisBuilder;
    use dbhist_model::selection::EdgeHeuristic;

    /// a == b (8 values), c independent; N = 4096.
    fn relation() -> Relation {
        let schema = dbhist_distribution::Schema::new(vec![("a", 8), ("b", 8), ("c", 4)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..4096u32).map(|i| vec![i % 8, i % 8, (i / 8) % 4]).collect();
        Relation::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn build_discovers_model_and_respects_budget() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel).budget(300).threads(1).build_mhist().unwrap();
        assert!(db.storage_bytes() <= 300);
        assert!(db.model().graph().has_edge(0, 1));
        assert_eq!(db.model().edge_count(), 1);
        assert_eq!(db.factors().len(), db.model().cliques().len());
        assert_eq!(db.name(), "DB2");
    }

    #[test]
    fn estimates_correlated_pair_well() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel).budget(400).threads(1).build_mhist().unwrap();
        // The model captures a == b. Point queries on a perfectly uniform
        // diagonal are MHIST's worst case (intra-bucket uniformity spreads
        // mass over the box), so — like the paper — we evaluate range
        // queries, where the spreading averages out.
        let q = Query::range(0, 0, 3).and(1, 0, 3);
        let est = db.estimate(&q);
        let exact = rel.count_range(q.ranges()) as f64;
        assert!(exact > 0.0);
        assert!((est - exact).abs() / exact < 0.6, "est {est} vs exact {exact}");
        // Cross-clique query (a with c) goes through the junction tree.
        let q = Query::range(0, 0, 3).eq(2, 1);
        let est = db.estimate(&q);
        let exact = rel.count_range(q.ranges()) as f64;
        assert!((est - exact).abs() / exact < 0.5, "est {est} vs exact {exact}");
    }

    #[test]
    fn empty_predicate_estimates_table_size() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel).budget(300).threads(1).build_mhist().unwrap();
        assert!((db.estimate(&Query::all()) - 4096.0).abs() < 1e-6);
        // Unknown attributes are ignored, falling back to N.
        assert!((db.estimate(&Query::range(99, 0, 1)) - 4096.0).abs() < 1e-6);
    }

    #[test]
    fn db1_heuristic_and_dp_allocation() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel)
            .budget(300)
            .threads(1)
            .heuristic(EdgeHeuristic::Db1)
            .allocation(AllocationStrategy::OptimalDp)
            .build_mhist()
            .unwrap();
        assert_eq!(db.name(), "DB1");
        assert!(db.storage_bytes() <= 300);
        assert!(db.model().graph().has_edge(0, 1));
    }

    #[test]
    fn grid_variant_builds_and_estimates() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel).budget(300).threads(1).build_grid().unwrap();
        assert!(db.storage_bytes() <= 300);
        let est = db.estimate(&Query::range(2, 0, 1));
        let exact = rel.count_range(&[(2, 0, 1)]) as f64;
        assert!((est - exact).abs() / exact < 0.3);
    }

    #[test]
    fn exact_factors_reproduce_model_estimates() {
        let rel = relation();
        let model = {
            let g = dbhist_model::MarkovGraph::from_edges(3, [(0, 1)]).unwrap();
            DecomposableModel::new(rel.schema().clone(), g).unwrap()
        };
        let db = DbHistogram::exact_for_model(&rel, model).unwrap();
        // The model [ab][c] is the true structure, so every query is exact.
        for ranges in [
            vec![(0u16, 1u32, 3u32)],
            vec![(0, 2, 2), (1, 2, 2)],
            vec![(0, 0, 3), (2, 1, 1)],
            vec![(1, 4, 7), (2, 0, 2)],
        ] {
            let est = db.estimate(&Query::from(ranges.clone()));
            let exact = rel.count_range(&ranges) as f64;
            assert!((est - exact).abs() < 1e-6 * (1.0 + exact), "{ranges:?}: {est} vs {exact}");
        }
    }

    #[test]
    fn wavelet_variant_builds_and_estimates() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel).budget(400).threads(1).build_wavelet().unwrap();
        assert!(db.storage_bytes() <= 400);
        assert_eq!(db.name(), "DB-wavelet");
        assert!(db.model().graph().has_edge(0, 1));
        let q = Query::range(0, 0, 3).eq(2, 1);
        let est = db.estimate(&q);
        let exact = rel.count_range(q.ranges()) as f64;
        assert!((est - exact).abs() / exact < 0.5, "est {est} vs exact {exact}");
    }

    #[test]
    fn repeated_workload_rides_the_kernel_without_clones() {
        let rel = relation();
        let db = SynopsisBuilder::new(&rel).budget(400).threads(1).build_mhist().unwrap();
        db.reset_query_trace();
        // Eight queries, one attribute-set shape {a, b} — a single clique
        // of the discovered model. The first compiles a plan and lowers a
        // kernel; the rest skip plans and factors entirely. No query
        // clones a stored factor.
        for i in 0..8u32 {
            db.try_estimate(&Query::range(0, 0, 3).and(1, i % 8, 7)).unwrap();
        }
        let t = db.query_trace();
        assert_eq!(t.plan_cache_misses, 1, "{t:?}");
        assert_eq!(t.kernel_hits, 7, "repeats must ride the lowered kernel: {t:?}");
        assert!(t.kernel_lowered_dense >= 1, "{t:?}");
        assert_eq!(t.factor_clones, 0, "estimation must not clone stored factors: {t:?}");
        assert!(t.clique_loads >= 1);
        db.reset_query_trace();
        assert_eq!(db.query_trace(), crate::plan::QueryTrace::default());
        // The estimator trait exposes the same counters.
        assert_eq!(db.query_trace(), SelectivityEstimator::query_trace(&db).unwrap());
    }

    #[test]
    fn budget_too_small_is_an_error() {
        let rel = relation();
        assert!(matches!(
            SynopsisBuilder::new(&rel).budget(8).build_mhist(),
            Err(SynopsisError::Budget { .. })
        ));
    }

    #[test]
    fn bigger_budget_no_worse_on_average() {
        let rel = relation();
        let queries: Vec<Vec<(u16, u32, u32)>> =
            (0..16).map(|i| vec![(0u16, i % 8, i % 8), (2, i % 4, i % 4)]).collect();
        let mut errors = Vec::new();
        for budget in [200usize, 800] {
            let db = SynopsisBuilder::new(&rel).budget(budget).threads(1).build_mhist().unwrap();
            let mean: f64 = queries
                .iter()
                .map(|q| {
                    let exact = rel.count_range(q) as f64;
                    let est = db.estimate(&Query::from(q.as_slice()));
                    if exact > 0.0 {
                        (est - exact).abs() / exact
                    } else {
                        est
                    }
                })
                .sum::<f64>()
                / queries.len() as f64;
            errors.push(mean);
        }
        assert!(errors[1] <= errors[0] + 0.05, "{errors:?}");
    }
}
