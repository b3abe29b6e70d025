//! `census2-cold-swap`: every round loads the saved Census-2 synopsis
//! with `Synopsis::load`, installs it with `EstimatorService::swap`, and
//! then one closed-loop caller sends single-query batches for a seeded
//! set of k = 2 and k = 3 queries whose shapes the new generation has
//! never seen. First contact pays plan compile, split-tree
//! product/projection and kernel lowering; batches of one bypass batch
//! grouping. After each reply the caller does the side path's durable
//! write work (see `SidePath`), which gives this workload its write-path
//! numbers.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dbhist_core::service::{EstimatorService, ServiceConfig};
use dbhist_core::{Query, QueryTrace, Synopsis};
use dbhist_distribution::{AttrId, Relation};

use crate::common::{
    abort, abs_rel_errors, build, check_served, first_setup, more_setups, save, timed, work_dir,
    Census, Phases, PoolQuery, Rebuilds, POOL_SEED,
};
use crate::report::{
    emit_e2e, emit_layers, reconcile, reconcile_apply, EndToEnd, LayerInputs, Report,
};
use crate::serve::{
    engine_probe, overhead_probe, request, served_trace, snapshot_probe, swap_probe, trace_delta,
    ProbeStats,
};
use crate::spans::SpanLog;
use crate::stats::{median, ms, peak_rss_mb, Rng};
use crate::write::SidePath;
use crate::Opts;

/// Every `SHAPE_STRIDE`-th shape, in lexicographic order, of all
/// k = 2 and k = 3 attribute sets of Census-2 (286 in all) makes the
/// round's shape set: 24 shapes spread over the whole list. The set is
/// fixed so that every seed meets the same spread of first-contact
/// costs (which range from well under 1 ms to about 650 ms per shape);
/// the seed draws the ranges and the order.
const SHAPE_STRIDE: usize = 12;
/// Accuracy queries per shape, drawn from [`POOL_SEED`] with the same
/// rule as the round queries (a fixed scoring set, like the pools of the
/// other workloads), answered on the last generation after the rounds.
const ACCURACY_PER_SHAPE: usize = 20;
/// Side-session write batches after a reply (see `SidePath`); they do
/// not count as request time. One per reply spaces the `sync_data` calls
/// as on warm-batch; back-to-back syncs made the write numbers swing with
/// the shared disk's load.
const WRITES_PER_REQUEST: usize = 1;
/// Replies between two recoveries of the crash image (about 50 a run).
const RECOVER_EVERY: u64 = 3;
/// Rebuilds spread over a run's loop (see `Rebuilds`), about 8 s of
/// builds a run.
const LOOP_BUILDS: u32 = 12;
/// The paper's truncation rule: queries match at least this many tuples.
const MIN_COUNT: f64 = 100.0;

fn round_shapes(arity: usize) -> Vec<Vec<AttrId>> {
    let n = arity as AttrId;
    let mut all = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            all.push(vec![a, b]);
            for c in b + 1..n {
                all.push(vec![a, b, c]);
            }
        }
    }
    all.sort();
    all.into_iter().step_by(SHAPE_STRIDE).collect()
}

/// `per_shape` random range queries on each shape, each matching at
/// least [`MIN_COUNT`] tuples.
fn draw_queries(
    rel: &Relation,
    shapes: &[Vec<AttrId>],
    per_shape: usize,
    rng: &mut Rng,
) -> Vec<PoolQuery> {
    let joint = rel.distribution();
    let mut out = Vec::new();
    for shape in shapes {
        let mut accepted = 0;
        let mut attempts = 0;
        while accepted < per_shape {
            attempts += 1;
            if attempts > 100_000 {
                abort(&format!("no query on shape {shape:?} matches {MIN_COUNT} tuples"));
            }
            let ranges: Vec<(AttrId, u32, u32)> = shape
                .iter()
                .map(|&a| {
                    let d = rel.schema().domain_size(a) as usize;
                    let (x, y) = (rng.below(d) as u32, rng.below(d) as u32);
                    (a, x.min(y), x.max(y))
                })
                .collect();
            let exact = joint.range_mass(&ranges).round();
            if exact >= MIN_COUNT {
                out.push(PoolQuery::new(&ranges, exact));
                accepted += 1;
            }
        }
    }
    out
}

struct State {
    rel: Relation,
    service: EstimatorService,
    /// One first-contact query per shape.
    round: Vec<PoolQuery>,
    accuracy: Vec<PoolQuery>,
    /// The saved synopsis every round loads.
    snapshot: PathBuf,
}

struct Loop {
    reply_ms: Vec<f64>,
    queries: u64,
    failed: u64,
    busy: Duration,
    served: QueryTrace,
    rounds: usize,
    /// Served bits of each round query, identical on every round.
    bits: Vec<Option<u64>>,
}

fn cold_loop(
    st: &State,
    side: &mut SidePath<'_>,
    rebuilds: &mut Rebuilds,
    rng: &mut Rng,
    duration: Duration,
    spans: &mut SpanLog,
    bits: Vec<Option<u64>>,
) -> Loop {
    let mut out = Loop {
        reply_ms: Vec::new(),
        queries: 0,
        failed: 0,
        busy: Duration::ZERO,
        served: QueryTrace::default(),
        rounds: 0,
        bits,
    };
    let mut id = 0u64;
    rebuilds.restart();
    while out.busy < duration {
        let started = Instant::now();
        let synopsis = spans
            .time("snapshot.load", 0, || Synopsis::load(&st.snapshot))
            .unwrap_or_else(|e| abort(&format!("snapshot load failed: {e}")));
        let generation = spans.time("service.swap", 0, || st.service.swap(synopsis));
        let (_, before) = served_trace(&st.service);
        let mut order: Vec<usize> = (0..st.round.len()).collect();
        rng.shuffle(&mut order);
        let mut served: Vec<Option<f64>> = vec![None; st.round.len()];
        let mut writing = Duration::ZERO;
        for &i in &order {
            id += 1;
            let (reply, took) = request(&st.service, vec![st.round[i].query.clone()], spans, id);
            writing += side.after_reply(spans);
            out.queries += 1;
            let Some(reply) = reply else {
                out.failed += 1;
                continue;
            };
            out.reply_ms.push(ms(took));
            if reply.generation != generation || reply.estimates.len() != 1 {
                abort("first-contact query answered by the wrong generation");
            }
            served[i] = Some(reply.estimates[0]);
        }
        out.busy += started.elapsed().saturating_sub(writing);
        out.rounds += 1;
        // Checks run off the clock, on the generation that served the
        // round (now warm, so the serial estimates are cheap).
        let (number, after) = served_trace(&st.service);
        if number != generation {
            abort("generation changed mid-round");
        }
        out.served.absorb(&trace_delta(&after, &before));
        let snap = st.service.snapshot();
        for ((slot, e), q) in out.bits.iter_mut().zip(&served).zip(&st.round) {
            let Some(e) = *e else { continue };
            check_served(&[e], &snap.synopsis, &[&q.query], "first contact");
            match slot {
                Some(b) if *b != e.to_bits() => abort("a reloaded generation answered differently"),
                Some(_) => {}
                None => *slot = Some(e.to_bits()),
            }
        }
        rebuilds.due(out.busy);
    }
    out
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut spans = SpanLog::new(opts.trace);
    let dir = work_dir();
    let snapshot = dir.join("cold.dbhs");
    let census = Census::Two;
    let workers = opts.threads.saturating_sub(1).max(1);

    let mut once = |phases: &mut Phases, spans: &mut SpanLog| {
        let rel = timed(&mut phases.census_gen, || census.generate());
        let shapes = round_shapes(rel.schema().arity());
        let (round, accuracy) = timed(&mut phases.workload_gen, || {
            let round = draw_queries(&rel, &shapes, 1, &mut Rng::new(opts.seed, 11));
            let accuracy =
                draw_queries(&rel, &shapes, ACCURACY_PER_SHAPE, &mut Rng::new(POOL_SEED, 11));
            (round, accuracy)
        });
        let synopsis = build(&rel, census.budget(), opts.threads, phases, spans);
        let bytes = save(&synopsis, &snapshot, phases, spans);
        let service = EstimatorService::start(
            synopsis,
            ServiceConfig { workers, ..ServiceConfig::default() },
        );
        (State { rel, service, round, accuracy, snapshot: snapshot.clone() }, bytes)
    };
    let (st, mut setup) = first_setup(&mut spans, &mut once);
    report.note(format!(
        "census-2 {} rows x {} attrs, budget {} B, {} first-contact shapes per round (k = 2, 3), \
         batch 1, 1 closed-loop client + {workers} service worker(s), build threads {}",
        st.rel.row_count(),
        st.rel.schema().arity(),
        census.budget(),
        st.round.len(),
        opts.threads
    ));

    let mut rng = Rng::new(opts.seed, 12);
    let seconds = Duration::from_secs_f64(opts.seconds);
    let bits = vec![None; st.round.len()];
    let mut side = SidePath::open(
        &st.rel,
        &snapshot,
        census.budget(),
        &dir,
        opts.seed,
        WRITES_PER_REQUEST,
        RECOVER_EVERY,
        opts.trace,
    );
    let mut rebuilds = Rebuilds::new(census, opts.threads, &dir, &setup, seconds, LOOP_BUILDS);
    let rb = &mut rebuilds;
    let (untraced, traced) = if opts.trace {
        spans.set_enabled(false);
        let u = cold_loop(&st, &mut side, rb, &mut rng, seconds / 2, &mut spans, bits);
        spans.set_enabled(true);
        let bits = u.bits.clone();
        let t = cold_loop(&st, &mut side, rb, &mut rng, seconds / 2, &mut spans, bits);
        (u, Some(t))
    } else {
        (cold_loop(&st, &mut side, rb, &mut rng, seconds, &mut spans, bits), None)
    };
    report.attempted += untraced.queries + traced.as_ref().map_or(0, |t| t.queries);
    report.failed += untraced.failed + traced.as_ref().map_or(0, |t| t.failed);
    report.note(format!("{} untraced rounds", untraced.rounds));

    // Accuracy on the last generation, through the service, off the clock.
    let batch: Vec<Query> = st.accuracy.iter().map(|q| q.query.clone()).collect();
    let reply = st
        .service
        .estimate_batch(batch)
        .unwrap_or_else(|e| abort(&format!("accuracy batch failed: {e}")));
    let generation = st.service.snapshot();
    let refs: Vec<&Query> = st.accuracy.iter().map(|q| &q.query).collect();
    check_served(&reply.estimates, &generation.synopsis, &refs, "accuracy");
    report.attempted += reply.estimates.len() as u64;
    drop(generation);

    let (write, write_layers) = side.finish(&mut spans);
    report.attempted += write.step_ms.len() as u64 + write.recovery_s.len() as u64;
    let peak_rss_mb = peak_rss_mb();
    more_setups(&mut setup, once);
    setup.build_s.extend(rebuilds.finish());

    let e2e = EndToEnd {
        setup,
        reply_ms: untraced.reply_ms.clone(),
        reply_tail_cap: 80.0,
        apply_tail_cap: 80.0,
        peak_rss_mb,
        queries: untraced.queries - untraced.failed,
        read_busy: untraced.busy,
        write,
        errors: abs_rel_errors(&reply.estimates, &st.accuracy),
        checksum: reply.estimates.iter().sum(),
    };
    emit_e2e(&mut report, &e2e);

    if let Some(traced) = traced {
        let mut probe = ProbeStats::default();
        let fresh = Synopsis::load(&snapshot).unwrap_or_else(|e| abort(&format!("load: {e}")));
        let first_contact = engine_probe(&fresh, &st.round, &mut spans, &mut probe);
        overhead_probe(&st.service, &st.round, 1, 30, &mut rng, &mut spans, &mut probe);
        snapshot_probe(&fresh, &dir, 5, &mut spans);
        swap_probe(&st.service, &snapshot, 5, &mut spans);
        let untraced_p50 = median(&untraced.reply_ms);
        emit_layers(
            &mut report,
            &LayerInputs {
                spans: &spans,
                e2e: &e2e,
                probe: &probe,
                served: traced.served,
                first_contact,
                service: st.service.stats(),
                write: &write_layers,
                untraced_p50_ms: untraced_p50,
                traced_p50_ms: median(&traced.reply_ms),
            },
        );
        reconcile(
            &mut report,
            "reply",
            untraced_p50,
            &[
                ("engine.cold", median(&spans.durations_us("engine.cold")) / 1e3),
                ("service overhead (warm, batch 1)", median(&probe.overhead_us) / 1e3),
            ],
        );
        reconcile_apply(&mut report, &spans, &e2e, write_layers.shadow_ops);
    }
    report
}
