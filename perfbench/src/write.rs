//! The durable write path every workload carries beside its reads: a
//! side `IngestSession` fed seeded insert/delete batches (one
//! `sync_data` per batch), standalone shadows of the WAL and maintenance
//! layers for the traced run, and a crash image recovered again and
//! again through the run.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dbhist_core::ingest::{IngestConfig, IngestSession};
use dbhist_core::maintenance::MaintainedDbHistogram;
use dbhist_core::{DbConfig, Query, SelectivityEstimator, Synopsis};
use dbhist_data::census::attrs::AGE;
use dbhist_distribution::{AttrId, Relation};
use dbhist_persist::wal::{WalOp, WalWriter};

use crate::common::{abort, PoolQuery};
use crate::spans::SpanLog;
use crate::stats::{ms, Rng};

/// Tuple operations per `apply_batch`.
pub const OPS_PER_BATCH: usize = 64;
/// Share of operations that insert; the rest delete.
const INSERT_SHARE: f64 = 0.75;
/// Share of inserts whose `age` falls in the drifting hot region.
const HOT_SHARE: f64 = 0.5;
/// The hot region moves by [`HOT_STEP`] ages every this many batches.
const HOT_DRIFT_BATCHES: u64 = 64;
const HOT_STEP: u32 = 7;
const HOT_WIDTH: u32 = 3;
/// Where the hot region starts. The trajectory is part of the workload,
/// the same for every seed; the seed draws the tuples.
const HOT_START: u32 = 20;
/// Batches in the crash image after its snapshot, replayed by every
/// recovery, so recovery does the same work on every run.
const IMAGE_BATCHES: usize = 256;
/// Fewest recoveries a run makes; `recovery_s` reports their median.
const MIN_RECOVERIES: usize = 15;

/// A seeded stream of insert/delete batches over a base relation.
/// Inserts copy a random base tuple (half of them with `age` moved into
/// a hot region that drifts as the stream advances); deletes remove
/// distinct base tuples in a seeded order, so every delete hits a tuple
/// that is present.
struct OpStream<'a> {
    rel: &'a Relation,
    rng: Rng,
    delete_order: Vec<u32>,
    deleted: usize,
    batches: u64,
}

impl<'a> OpStream<'a> {
    fn new(rel: &'a Relation, rng: Rng) -> Self {
        let delete_order: Vec<u32> = (0..rel.row_count() as u32).collect();
        Self { rel, rng, delete_order, deleted: 0, batches: 0 }
    }

    fn next_batch(&mut self) -> Vec<WalOp> {
        let age_domain = self.rel.schema().domain_size(AGE);
        let drift = u32::try_from(self.batches / HOT_DRIFT_BATCHES).unwrap_or(u32::MAX);
        let hot = (HOT_START + drift.wrapping_mul(HOT_STEP)) % age_domain;
        self.batches += 1;
        (0..OPS_PER_BATCH)
            .map(|_| {
                if self.rng.chance(INSERT_SHARE) || self.deleted == self.delete_order.len() {
                    let mut row = self.rel.row(self.rng.below(self.rel.row_count())).to_vec();
                    if self.rng.chance(HOT_SHARE) {
                        let age = hot + self.rng.below(HOT_WIDTH as usize) as u32;
                        row[usize::from(AGE)] = age % age_domain;
                    }
                    WalOp::Insert(row)
                } else {
                    // Partial Fisher-Yates: the next distinct base tuple.
                    let i = self.deleted + self.rng.below(self.delete_order.len() - self.deleted);
                    self.delete_order.swap(self.deleted, i);
                    let row = self.rel.row(self.delete_order[self.deleted] as usize).to_vec();
                    self.deleted += 1;
                    WalOp::Delete(row)
                }
            })
            .collect()
    }
}

/// Standalone copies of the layers under `apply_batch`, fed the same
/// batches in the traced run: a `WalWriter` in the same directory with
/// the same flush policy, and a `MaintainedDbHistogram` without a WAL.
struct Shadows {
    wal: WalWriter,
    maintained: MaintainedDbHistogram,
    ops: u64,
}

impl Shadows {
    fn new(dir: &Path, snapshot: &Path, budget: usize, arity: usize) -> Self {
        let arity = u16::try_from(arity).unwrap_or_else(|_| abort("arity exceeds u16"));
        let wal = WalWriter::create(dir.join("shadow.wal"), arity)
            .unwrap_or_else(|e| abort(&format!("shadow wal: {e}")));
        let maintained = MaintainedDbHistogram::from_snapshot(snapshot, DbConfig::new(budget))
            .unwrap_or_else(|e| abort(&format!("shadow maintenance: {e}")));
        Self { wal, maintained, ops: 0 }
    }
}

/// Applies one batch through the session; with `shadows`, also feeds it
/// to them. Returns the `apply_batch` time.
fn apply(
    session: &mut IngestSession,
    ops: &[WalOp],
    spans: &mut SpanLog,
    request: u64,
    shadows: Option<&mut Shadows>,
) -> Duration {
    let started = Instant::now();
    let applied = spans.time("ingest.apply", request, || session.apply_batch(ops));
    let took = started.elapsed();
    if let Err(e) = applied {
        abort(&format!("apply_batch failed: {e}"));
    }
    if let Some(shadow) = shadows {
        spans
            .time("wal.append", request, || shadow.wal.append(ops))
            .unwrap_or_else(|e| abort(&format!("shadow append: {e}")));
        spans.time("maintenance.insert", request, || {
            for op in ops {
                match op {
                    WalOp::Insert(row) => shadow.maintained.insert(row),
                    WalOp::Delete(row) => shadow.maintained.delete(row),
                }
            }
        });
        shadow.ops += ops.len() as u64;
    }
    took
}

/// Paths of one durable session's snapshot and log.
struct Durable {
    snapshot: PathBuf,
    wal: PathBuf,
    budget: usize,
}

impl Durable {
    fn new(dir: &Path, name: &str, budget: usize) -> Self {
        Self {
            snapshot: dir.join(format!("{name}.dbhs")),
            wal: dir.join(format!("{name}.wal")),
            budget,
        }
    }

    /// Opens a durable session over the synopsis saved at `source`, with
    /// maintained marginals seeded from `rel`.
    fn open(&self, rel: &Relation, source: &Path) -> IngestSession {
        let maintained = MaintainedDbHistogram::from_snapshot(source, DbConfig::new(self.budget))
            .unwrap_or_else(|e| abort(&format!("maintained load: {e}")));
        IngestSession::begin(maintained, rel, IngestConfig::default())
            .and_then(|s| s.with_durability(&self.snapshot, &self.wal))
            .unwrap_or_else(|e| abort(&format!("ingest session: {e}")))
    }
}

/// What a session's state looks like from outside: its snapshot bytes
/// and its estimates on one half-domain range query per attribute
/// (cheap first-contact queries that still read every clique factor).
fn fingerprint(session: &IngestSession, path: &Path) -> (Vec<u8>, Vec<u64>) {
    let synopsis = session.estimator().synopsis();
    Synopsis::Mhist(synopsis.clone())
        .save(path)
        .unwrap_or_else(|e| abort(&format!("fingerprint save: {e}")));
    let bytes = std::fs::read(path).unwrap_or_else(|e| abort(&format!("read: {e}")));
    let schema = synopsis.model().schema();
    let estimates = (0..schema.arity() as AttrId)
        .map(|a| session.estimator().estimate(&Query::range(a, 0, schema.domain_size(a) / 2)))
        .map(f64::to_bits)
        .collect();
    (bytes, estimates)
}

/// A session killed after [`IMAGE_BATCHES`] acknowledged batches: only
/// what each `sync_data` made durable is left on disk. Recovering it
/// does not change it, so a run recovers the same image many times,
/// spread over the run.
struct CrashImage {
    durable: Durable,
    live: (Vec<u8>, Vec<u64>),
    fingerprint_path: PathBuf,
    checked: bool,
}

impl CrashImage {
    fn prepare(rel: &Relation, source: &Path, budget: usize, dir: &Path, rng: Rng) -> Self {
        let durable = Durable::new(dir, "image", budget);
        let mut session = durable.open(rel, source);
        let mut stream = OpStream::new(rel, rng);
        for _ in 0..IMAGE_BATCHES {
            session
                .apply_batch(&stream.next_batch())
                .unwrap_or_else(|e| abort(&format!("apply_batch failed: {e}")));
        }
        let live = fingerprint(&session, &dir.join("live.dbhs"));
        drop(session);
        Self { durable, live, fingerprint_path: dir.join("recovered.dbhs"), checked: false }
    }

    /// One timed `IngestSession::recover`. The first must be
    /// bit-identical to the session before the kill.
    fn recover(&mut self, spans: &mut SpanLog) -> (Duration, u64) {
        let started = Instant::now();
        let recovered = spans.time("ingest.recover", 0, || {
            IngestSession::recover(
                &self.durable.snapshot,
                &self.durable.wal,
                DbConfig::new(self.durable.budget),
                IngestConfig::default(),
            )
        });
        let took = started.elapsed();
        let (session, report) =
            recovered.unwrap_or_else(|e| abort(&format!("recovery failed: {e}")));
        if report.tail_discarded.is_some() || report.batches_replayed != IMAGE_BATCHES as u64 {
            abort("recovery did not replay exactly the acknowledged batches");
        }
        if !self.checked {
            if fingerprint(&session, &self.fingerprint_path) != self.live {
                abort("recovered session differs from the uninterrupted one");
            }
            self.checked = true;
        }
        (took, report.batches_replayed)
    }
}

impl Feedback<'_> {
    fn absorb(&mut self, ops: &[WalOp]) {
        for op in ops {
            let (row, delta) = match op {
                WalOp::Insert(row) => (row, 1.0),
                WalOp::Delete(row) => (row, -1.0),
            };
            for (count, q) in self.exact.iter_mut().zip(self.pool) {
                if q.matches(row) {
                    *count += delta;
                }
            }
        }
        self.batches += 1;
    }

    fn round(&mut self, session: &mut IngestSession, spans: &mut SpanLog) {
        for _ in 0..FEEDBACK_QUERIES {
            let i = self.rng.below(self.pool.len());
            let (query, actual) = (&self.pool[i].query, self.exact[i]);
            spans.time("ingest.feedback", 0, || session.record_feedback(query, actual));
        }
        spans
            .time("ingest.tune", 0, || session.tune())
            .unwrap_or_else(|e| abort(&format!("tune failed: {e}")));
    }
}

/// Write-path numbers of a run.
#[derive(Default)]
pub struct WriteStats {
    /// Milliseconds per `apply_batch`, in order.
    pub step_ms: Vec<f64>,
    pub ops: u64,
    /// Seconds per `IngestSession::recover`.
    pub recovery_s: Vec<f64>,
    pub batches_replayed: u64,
}

impl WriteStats {
    /// Tuple operations per second of `apply_batch` time.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.step_ms.iter().sum::<f64>() / 1e3).max(f64::MIN_POSITIVE)
    }
}

/// Layer-side results of a write path.
#[derive(Default)]
pub struct WriteLayers {
    pub wal_bytes_per_op: f64,
    pub shadow_ops: u64,
    pub marginal_cells: usize,
    pub resplits: u64,
}

/// The write path a workload carries beside its reads: a durable side
/// session fed `writes_per_reply` batches after every reply, and a crash
/// image recovered every `recover_every` replies. The side session never
/// serves, so the served generation is untouched.
pub struct SidePath<'a> {
    session: IngestSession,
    stream: OpStream<'a>,
    shadows: Option<Shadows>,
    image: CrashImage,
    writes_per_reply: usize,
    recover_every: u64,
    replies: u64,
    feedback: Option<Feedback<'a>>,
    pub stats: WriteStats,
}

/// Executed-query feedback for the side session: exact counts of a
/// query pool, kept current as the side stream inserts and deletes.
struct Feedback<'a> {
    pool: &'a [PoolQuery],
    exact: Vec<f64>,
    rng: Rng,
    batches: u64,
}

/// Side batches between two feedback rounds.
const FEEDBACK_EVERY: u64 = 128;
/// Queries fed back per round.
const FEEDBACK_QUERIES: usize = 8;

impl<'a> SidePath<'a> {
    /// Opens the side session and prepares the crash image, both over
    /// the synopsis saved at `source`; shadows exist when `traced`.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        rel: &'a Relation,
        source: &Path,
        budget: usize,
        dir: &Path,
        seed: u64,
        writes_per_reply: usize,
        recover_every: u64,
        traced: bool,
    ) -> Self {
        let session = Durable::new(dir, "side", budget).open(rel, source);
        let shadows = traced.then(|| Shadows::new(dir, source, budget, rel.schema().arity()));
        Self {
            session,
            stream: OpStream::new(rel, Rng::new(seed, 31)),
            shadows,
            image: CrashImage::prepare(rel, source, budget, dir, Rng::new(seed, 32)),
            writes_per_reply,
            recover_every,
            replies: 0,
            feedback: None,
            stats: WriteStats::default(),
        }
    }

    /// Every [`FEEDBACK_EVERY`] side batches, feeds the exact counts of
    /// [`FEEDBACK_QUERIES`] seeded picks from `pool` (drawn on the base
    /// relation the side session starts from) back through
    /// `record_feedback`, then runs `tune()`, which re-splits and
    /// checkpoints when a clique's error tail trips.
    pub fn with_feedback(mut self, pool: &'a [PoolQuery], seed: u64) -> Self {
        let exact = pool.iter().map(|q| q.exact).collect();
        self.feedback = Some(Feedback { pool, exact, rng: Rng::new(seed, 33), batches: 0 });
        self
    }

    /// The caller's write work after one reply: a recovery of the crash
    /// image every `recover_every` replies, its batches otherwise (so a
    /// recovery's file syncs do not land just before a timed append).
    /// Returns the time it took, which is not request time.
    pub fn after_reply(&mut self, spans: &mut SpanLog) -> Duration {
        let started = Instant::now();
        self.replies += 1;
        if self.replies.is_multiple_of(self.recover_every) {
            self.recover(spans);
            return started.elapsed();
        }
        for _ in 0..self.writes_per_reply {
            let ops = self.stream.next_batch();
            let shadows = if spans.enabled() { self.shadows.as_mut() } else { None };
            let took = apply(&mut self.session, &ops, spans, self.replies, shadows);
            self.stats.step_ms.push(ms(took));
            self.stats.ops += ops.len() as u64;
            if let Some(feedback) = &mut self.feedback {
                feedback.absorb(&ops);
                if feedback.batches.is_multiple_of(FEEDBACK_EVERY) {
                    feedback.round(&mut self.session, spans);
                }
            }
        }
        started.elapsed()
    }

    fn recover(&mut self, spans: &mut SpanLog) {
        let (took, replayed) = self.image.recover(spans);
        self.stats.recovery_s.push(took.as_secs_f64());
        self.stats.batches_replayed = replayed;
    }

    /// Ends the write path: tops the recoveries up to
    /// [`MIN_RECOVERIES`], then runs `tune()` and a checkpoint on the
    /// side session (timed in the traced run).
    pub fn finish(mut self, spans: &mut SpanLog) -> (WriteStats, WriteLayers) {
        while self.stats.recovery_s.len() < MIN_RECOVERIES {
            self.recover(spans);
        }
        spans
            .time("ingest.tune", 0, || self.session.tune())
            .unwrap_or_else(|e| abort(&format!("tune failed: {e}")));
        spans
            .time("ingest.checkpoint", 0, || self.session.checkpoint())
            .unwrap_or_else(|e| abort(&format!("checkpoint failed: {e}")));
        let layers = WriteLayers {
            wal_bytes_per_op: self
                .shadows
                .as_ref()
                .map_or(0.0, |s| s.wal.appended_bytes() as f64 / s.ops.max(1) as f64),
            shadow_ops: self.shadows.as_ref().map_or(0, |s| s.ops),
            marginal_cells: self.session.marginal_cells(),
            resplits: self.session.resplits(),
        };
        (self.stats, layers)
    }
}
