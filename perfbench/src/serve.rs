//! The read path: requests through `EstimatorService`, and the traced
//! run's probes of the layers under it (`QueryEngine` cold and warm,
//! `MassPlan::compile` / `execute_mass`, snapshots and swaps).

use std::path::Path;
use std::time::{Duration, Instant};

use dbhist_core::plan::{execute_mass, MassPlan};
use dbhist_core::service::{BatchReply, EstimatorService};
use dbhist_core::{Query, QueryEngine, QueryTrace, SelectivityEstimator, Synopsis};
use dbhist_histogram::SplitTree;

use crate::common::{abort, PoolQuery};
use crate::spans::SpanLog;
use crate::stats::{median, us, Rng};

/// One request: submit a batch and wait for its reply. Returns the reply
/// (`None` if the service dropped it) and the submit-to-reply time.
pub fn request(
    service: &EstimatorService,
    batch: Vec<Query>,
    spans: &mut SpanLog,
    id: u64,
) -> (Option<BatchReply>, Duration) {
    spans.enter("service.request", id);
    let started = Instant::now();
    let ticket = spans.time("service.submit", id, || service.submit(batch));
    let reply = spans.time("service.wait", id, || ticket.wait());
    let took = started.elapsed();
    spans.exit();
    (reply, took)
}

/// Engine counters of the generation now serving.
pub fn served_trace(service: &EstimatorService) -> (u64, QueryTrace) {
    let generation = service.snapshot();
    (generation.number, generation.synopsis.query_trace())
}

/// `after - before`, field by field.
pub fn trace_delta(after: &QueryTrace, before: &QueryTrace) -> QueryTrace {
    QueryTrace {
        products: after.products - before.products,
        projections: after.projections - before.projections,
        identity_projections: after.identity_projections - before.identity_projections,
        sheds: after.sheds - before.sheds,
        sheds_skipped: after.sheds_skipped - before.sheds_skipped,
        clique_loads: after.clique_loads - before.clique_loads,
        factor_clones: after.factor_clones - before.factor_clones,
        plan_cache_hits: after.plan_cache_hits - before.plan_cache_hits,
        plan_cache_misses: after.plan_cache_misses - before.plan_cache_misses,
        marginal_cache_hits: after.marginal_cache_hits - before.marginal_cache_hits,
        marginal_cache_misses: after.marginal_cache_misses - before.marginal_cache_misses,
        kernel_hits: after.kernel_hits - before.kernel_hits,
        kernel_lowered_dense: after.kernel_lowered_dense - before.kernel_lowered_dense,
        kernel_lowered_sparse: after.kernel_lowered_sparse - before.kernel_lowered_sparse,
        kernel_fallbacks: after.kernel_fallbacks - before.kernel_fallbacks,
    }
}

/// Per-layer numbers from the probes below.
#[derive(Debug, Default)]
pub struct ProbeStats {
    /// Reply minus direct estimate time of the same batch, µs.
    pub overhead_us: Vec<f64>,
    /// Direct `Synopsis::estimate` time of a whole request batch, ms.
    pub direct_batch_ms: Vec<f64>,
    /// Warm estimate time per shape, µs (median over the shape's
    /// queries), as `(shape, µs)`.
    pub warm_by_shape: Vec<(String, f64)>,
    /// Per shape: first `estimate_mass` minus `MassPlan::compile` minus
    /// `execute_mass`, µs (kernel lowering and cache inserts).
    pub lower_us: Vec<f64>,
}

/// Reply time versus direct `Synopsis::estimate` time for the same
/// batches on the same warm generation, `pairs` times.
pub fn overhead_probe(
    service: &EstimatorService,
    queries: &[PoolQuery],
    batch: usize,
    pairs: usize,
    rng: &mut Rng,
    spans: &mut SpanLog,
    out: &mut ProbeStats,
) {
    let generation = service.snapshot();
    // Warm every query first, so both sides see the same warm state.
    for q in queries {
        let _ = generation.synopsis.estimate(&q.query);
    }
    for i in 0..pairs {
        let id = 1_000_000 + i as u64;
        let picks: Vec<&Query> =
            (0..batch).map(|_| &queries[rng.below(queries.len())].query).collect();
        let batch: Vec<Query> = picks.iter().map(|&q| q.clone()).collect();
        let started = Instant::now();
        let reply = spans.time("probe.request", id, || service.estimate_batch(batch));
        let served = started.elapsed();
        if reply.is_err() {
            abort("service dropped a probe batch");
        }
        let started = Instant::now();
        spans.time("engine.batch", id, || {
            for q in &picks {
                std::hint::black_box(generation.synopsis.estimate(q));
            }
        });
        let direct = started.elapsed();
        out.overhead_us.push(us(served) - us(direct));
        out.direct_batch_ms.push(direct.as_secs_f64() * 1e3);
    }
}

/// First contact, layer by layer, for one query of every distinct shape
/// in `queries`: `MassPlan::compile` and `execute_mass` on a fresh
/// engine, then the first `QueryEngine::estimate_mass` on another fresh
/// engine (compile, execute and kernel lowering together), then warm
/// `estimate_mass` calls on that engine for every query of the shape.
/// Every path must give the same bits as `Synopsis::estimate`.
pub fn engine_probe(
    synopsis: &Synopsis,
    queries: &[PoolQuery],
    spans: &mut SpanLog,
    out: &mut ProbeStats,
) -> QueryTrace {
    let Some(db) = synopsis.as_mhist() else { abort("benchmark synopses use MHIST factors") };
    let tree = db.model().junction_tree();
    let factors = db.factors();
    let mut shapes: Vec<(Vec<u16>, Vec<&PoolQuery>)> = Vec::new();
    for q in queries {
        let key: Vec<u16> = q.shape.iter().collect();
        match shapes.iter_mut().find(|(k, _)| *k == key) {
            Some((_, qs)) => qs.push(q),
            None => shapes.push((key, vec![q])),
        }
    }
    let mut counts = QueryTrace::default();
    for (i, (key, qs)) in shapes.iter().enumerate() {
        let id = 2_000_000 + i as u64;
        let first = qs[0];
        let expected = synopsis.estimate(&first.query).to_bits();
        let planner = QueryEngine::<SplitTree>::new(tree);
        let started = Instant::now();
        let plan = spans
            .time("plan.compile", id, || {
                MassPlan::compile(tree, planner.rooted_views(), &first.shape)
            })
            .unwrap_or_else(|e| abort(&format!("compile failed: {e}")));
        let mut scratch = QueryTrace::default();
        let executed = spans
            .time("plan.execute", id, || execute_mass(&plan, factors, &first.query, &mut scratch))
            .unwrap_or_else(|e| abort(&format!("execute failed: {e}")));
        let planned = us(started.elapsed());
        let engine = QueryEngine::<SplitTree>::new(tree);
        let started = Instant::now();
        let cold = spans
            .time("engine.cold", id, || {
                engine.estimate_mass(tree, factors, &first.shape, &first.query)
            })
            .unwrap_or_else(|e| abort(&format!("cold estimate failed: {e}")));
        out.lower_us.push(us(started.elapsed()) - planned);
        if executed.to_bits() != expected || cold.to_bits() != expected {
            abort(&format!("shape {key:?}: plan/engine estimates differ from Synopsis::estimate"));
        }
        counts = add(&counts, &engine.trace());
        let mut warm = Vec::new();
        for q in qs {
            let started = Instant::now();
            let est = spans
                .time("engine.warm", id, || engine.estimate_mass(tree, factors, &q.shape, &q.query))
                .unwrap_or_else(|e| abort(&format!("warm estimate failed: {e}")));
            warm.push(us(started.elapsed()));
            if est.to_bits() != synopsis.estimate(&q.query).to_bits() {
                abort(&format!("shape {key:?}: warm engine estimate differs"));
            }
        }
        out.warm_by_shape.push((format!("{key:?}"), median(&warm)));
    }
    counts
}

fn add(a: &QueryTrace, b: &QueryTrace) -> QueryTrace {
    let mut sum = *a;
    sum.absorb(b);
    sum
}

/// Saves and loads the workload's synopsis `reps` times each.
pub fn snapshot_probe(synopsis: &Synopsis, dir: &Path, reps: usize, spans: &mut SpanLog) {
    let path = dir.join("probe.dbhs");
    for _ in 0..reps {
        spans
            .time("snapshot.save", 0, || synopsis.save(&path))
            .unwrap_or_else(|e| abort(&format!("probe save: {e}")));
        spans
            .time("snapshot.load", 0, || Synopsis::load(&path))
            .unwrap_or_else(|e| abort(&format!("probe load: {e}")));
    }
}

/// Installs `reps` freshly loaded generations through
/// `EstimatorService::swap`.
pub fn swap_probe(service: &EstimatorService, snapshot: &Path, reps: usize, spans: &mut SpanLog) {
    for _ in 0..reps {
        let synopsis =
            Synopsis::load(snapshot).unwrap_or_else(|e| abort(&format!("swap probe load: {e}")));
        spans.time("service.swap", 0, || service.swap(synopsis));
    }
}
