//! `census1-warm-batch`: one closed-loop caller sends 256-query batches
//! drawn from the paper's k = 2, 3, 4 workloads to `EstimatorService`
//! on a warm Census-1 synopsis. Every shape is warmed during set-up, so
//! the service queue, the kernel-cache lookup and the `TreeIndex` walk
//! do nearly all the work and no plan compiles. Between requests the
//! caller does the side path's durable write work on a side session (not
//! the served synopsis), which gives this workload its write-path
//! numbers.

use std::time::{Duration, Instant};

use dbhist_core::service::{EstimatorService, ServiceConfig};
use dbhist_core::{Query, QueryTrace};

use crate::common::{
    abort, abs_rel_errors, build, check_served, first_setup, more_setups, paper_pool, save,
    shape_count, timed, work_dir, Census, Phases, PoolQuery, Rebuilds,
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

/// Queries per request.
pub const BATCH: usize = 256;
/// Paper workload size per `k`.
const PER_K: usize = 100;
/// Side-session write batches after a reply (see `SidePath`).
const WRITES_PER_REPLY: usize = 1;
/// Replies between two recoveries of the crash image (about 50 a run).
const RECOVER_EVERY: u64 = 32;
/// Rebuilds spread over a run's loop (see `Rebuilds`), about 6 s of
/// builds a run.
const LOOP_BUILDS: u32 = 24;

struct State {
    pool: Vec<PoolQuery>,
    service: EstimatorService,
    /// Bits of each pool query's estimate on the serving generation.
    expected: Vec<u64>,
    rel: dbhist_distribution::Relation,
}

struct Loop {
    reply_ms: Vec<f64>,
    queries: u64,
    failed: u64,
    /// Time spent on requests, without the side path's work.
    busy: Duration,
    served: QueryTrace,
}

/// Closed loop for `duration` of request time. After every reply the
/// same thread does the side path's work (see [`SidePath`]) and any
/// rebuild that is due, so write, recovery and build samples spread
/// over the whole run.
fn serve_loop(
    st: &State,
    side: &mut SidePath<'_>,
    rebuilds: &mut Rebuilds,
    rng: &mut Rng,
    duration: Duration,
    spans: &mut SpanLog,
) -> Loop {
    let (_, before) = served_trace(&st.service);
    let mut out =
        Loop { reply_ms: Vec::new(), queries: 0, failed: 0, busy: Duration::ZERO, served: before };
    let mut id = 0u64;
    rebuilds.restart();
    while out.busy < duration {
        let started = Instant::now();
        id += 1;
        let picks: Vec<usize> = (0..BATCH).map(|_| rng.below(st.pool.len())).collect();
        let batch: Vec<Query> = picks.iter().map(|&i| st.pool[i].query.clone()).collect();
        let (reply, took) = request(&st.service, batch, spans, id);
        out.busy += started.elapsed();
        out.queries += BATCH as u64;
        let Some(reply) = reply else {
            out.failed += BATCH as u64;
            continue;
        };
        out.reply_ms.push(ms(took));
        if reply.generation != 1 || reply.estimates.len() != BATCH {
            abort("warm batch answered by the wrong generation or with missing estimates");
        }
        for (e, &i) in reply.estimates.iter().zip(&picks) {
            if e.to_bits() != st.expected[i] {
                abort(&format!("pool query {i}: served {e}, serial estimate differs"));
            }
        }
        side.after_reply(spans);
        rebuilds.due(out.busy);
    }
    let (_, after) = served_trace(&st.service);
    out.served = trace_delta(&after, &out.served);
    out
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut spans = SpanLog::new(opts.trace);
    let dir = work_dir();
    let snapshot = dir.join("warm.dbhs");
    let census = Census::One;
    let workers = opts.threads.saturating_sub(1).max(1);

    let mut once = |phases: &mut Phases, spans: &mut SpanLog| {
        let rel = timed(&mut phases.census_gen, || census.generate());
        let pool = timed(&mut phases.workload_gen, || paper_pool(&rel, &[2, 3, 4], PER_K));
        let synopsis = build(&rel, census.budget(), opts.threads, phases, spans);
        let bytes = save(&synopsis, &snapshot, phases, spans);
        let service = EstimatorService::start(
            synopsis,
            ServiceConfig { workers, ..ServiceConfig::default() },
        );
        // Warm every shape through the service itself.
        let mut served = Vec::with_capacity(pool.len());
        for chunk in pool.chunks(BATCH) {
            let batch = chunk.iter().map(|q| q.query.clone()).collect();
            match service.estimate_batch(batch) {
                Ok(reply) => served.extend(reply.estimates),
                Err(e) => abort(&format!("warm-up batch failed: {e}")),
            }
        }
        let expected = served.iter().map(|e| e.to_bits()).collect();
        (State { pool, service, expected, rel }, bytes)
    };
    let (st, mut setup) = first_setup(&mut spans, &mut once);
    let generation = st.service.snapshot();
    let estimates: Vec<f64> = st.expected.iter().map(|&b| f64::from_bits(b)).collect();
    let refs: Vec<&Query> = st.pool.iter().map(|q| &q.query).collect();
    check_served(&estimates, &generation.synopsis, &refs, "warm-up");
    drop(generation);
    report.note(format!(
        "census-1 {} rows x {} attrs, budget {} B, pool {} queries over {} shapes, batch {BATCH}, \
         1 closed-loop client + {workers} service worker(s), build threads {}",
        st.rel.row_count(),
        st.rel.schema().arity(),
        census.budget(),
        st.pool.len(),
        shape_count(&st.pool),
        opts.threads
    ));

    let mut rng = Rng::new(opts.seed, 2);
    let mut side = SidePath::open(
        &st.rel,
        &snapshot,
        census.budget(),
        &dir,
        opts.seed,
        WRITES_PER_REPLY,
        RECOVER_EVERY,
        opts.trace,
    )
    .with_feedback(&st.pool, opts.seed);
    let seconds = Duration::from_secs_f64(opts.seconds);
    let mut rebuilds = Rebuilds::new(census, opts.threads, &dir, &setup, seconds, LOOP_BUILDS);
    let rb = &mut rebuilds;
    let (untraced, traced) = if opts.trace {
        spans.set_enabled(false);
        let u = serve_loop(&st, &mut side, rb, &mut rng, seconds / 2, &mut spans);
        spans.set_enabled(true);
        let t = serve_loop(&st, &mut side, rb, &mut rng, seconds / 2, &mut spans);
        (u, Some(t))
    } else {
        (serve_loop(&st, &mut side, rb, &mut rng, seconds, &mut spans), None)
    };
    report.attempted += untraced.queries + traced.as_ref().map_or(0, |t| t.queries);
    report.failed += untraced.failed + traced.as_ref().map_or(0, |t| t.failed);

    let (write, write_layers) = side.finish(&mut spans);
    report.attempted += write.step_ms.len() as u64 + write.recovery_s.len() as u64;
    let peak_rss_mb = peak_rss_mb();
    more_setups(&mut setup, once);
    setup.build_s.extend(rebuilds.finish());

    let errors = abs_rel_errors(&estimates, &st.pool);
    let e2e = EndToEnd {
        setup,
        reply_ms: untraced.reply_ms.clone(),
        reply_tail_cap: 97.5,
        apply_tail_cap: 95.0,
        peak_rss_mb,
        queries: untraced.queries - untraced.failed,
        read_busy: untraced.busy,
        write,
        errors,
        checksum: estimates.iter().sum(),
    };
    emit_e2e(&mut report, &e2e);

    if let Some(traced) = traced {
        let mut probe = ProbeStats::default();
        let generation = st.service.snapshot();
        let first_contact = engine_probe(&generation.synopsis, &st.pool, &mut spans, &mut probe);
        overhead_probe(&st.service, &st.pool, BATCH, 30, &mut rng, &mut spans, &mut probe);
        snapshot_probe(&generation.synopsis, &dir, 5, &mut spans);
        drop(generation);
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
        let submit = median(&spans.durations_us("service.submit")) / 1e3;
        reconcile(
            &mut report,
            "reply",
            untraced_p50,
            &[
                ("service.submit", submit),
                ("service queue+dispatch", median(&probe.overhead_us) / 1e3 - submit),
                ("engine (direct batch)", median(&probe.direct_batch_ms)),
            ],
        );
        reconcile_apply(&mut report, &spans, &e2e, write_layers.shadow_ops);
    }
    report
}
