//! Inputs and set-up shared by the workloads: the paper-scale Census
//! relations, fixed query pools with exact counts, timed builds and
//! snapshots, and the abort path for a wrong answer.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use dbhist_core::{BuildTrace, Query, SelectivityEstimator, Synopsis, SynopsisBuilder};
use dbhist_data::census;
use dbhist_data::workload::{Workload, WorkloadConfig};
use dbhist_distribution::{AttrId, AttrSet, Relation};

use crate::spans::SpanLog;
use crate::stats::Rng;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;

/// Which paper-scale Census relation a workload runs on.
#[derive(Debug, Clone, Copy)]
pub enum Census {
    /// Census-1: 125,705 × 6, the Fig. 8 setting.
    One,
    /// Census-2: 83,566 × 12, the Fig. 9 setting.
    Two,
}

impl Census {
    pub fn name(self) -> &'static str {
        match self {
            Self::One => "census1",
            Self::Two => "census2",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        [Self::One, Self::Two].into_iter().find(|c| c.name() == name)
    }

    /// The paper's byte budget for the figure this relation stands for.
    pub fn budget(self) -> usize {
        match self {
            Self::One => 3 * 1024,
            Self::Two => 20 * 1024,
        }
    }

    /// The relation at paper scale. The data set is the fixed one every
    /// figure in the repository uses (the generators' own seeds); the
    /// run's `--seed` drives the queries and the update stream. Drawing
    /// a new relation per seed would change the selected model (θ = 0.90
    /// admits different noise edges per draw) and so the synopsis being
    /// measured, not just its inputs.
    pub fn generate(self) -> Relation {
        match self {
            Self::One => census::census_data_set_1(),
            Self::Two => census::census_data_set_2(),
        }
    }
}

/// A range query with its exact count on the relation it was drawn for.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    pub query: Query,
    pub exact: f64,
    pub shape: AttrSet,
    ranges: Vec<(AttrId, u32, u32)>,
}

impl PoolQuery {
    pub fn new(ranges: &[(AttrId, u32, u32)], exact: f64) -> Self {
        let shape = AttrSet::from_ids(ranges.iter().map(|r| r.0));
        Self { query: Query::from(ranges), exact, shape, ranges: ranges.to_vec() }
    }

    /// Whether `row` falls inside the query's box.
    pub fn matches(&self, row: &[u32]) -> bool {
        self.ranges.iter().all(|&(a, lo, hi)| (lo..=hi).contains(&row[usize::from(a)]))
    }
}

/// Seed of the fixed query pools. A pool is part of a workload's
/// definition, like the paper's fixed query workloads: every run serves
/// and scores the same queries, so `est_err_*` is exact across seeds and
/// a speed change is not confounded with a change of queries. The run's
/// `--seed` drives which queries each request carries and in what order.
pub const POOL_SEED: u64 = 0xDB_2001;

/// The paper's query workloads (`per_k` queries of `k` constrained
/// attributes, each matching at least 100 tuples) for every `k` in
/// `dims`, from [`POOL_SEED`].
pub fn paper_pool(rel: &Relation, dims: &[usize], per_k: usize) -> Vec<PoolQuery> {
    let mut rng = Rng::new(POOL_SEED, 0);
    let mut pool = Vec::new();
    for &k in dims {
        let cfg = WorkloadConfig { queries: per_k, ..WorkloadConfig::paper(k, rng.next()) };
        let workload = Workload::generate(rel, cfg);
        pool.extend(workload.queries.iter().map(|q| PoolQuery::new(&q.ranges, q.exact as f64)));
    }
    pool
}

/// Distinct query shapes (attribute sets) in `queries`.
pub fn shape_count(queries: &[PoolQuery]) -> usize {
    let mut shapes: Vec<Vec<AttrId>> = queries.iter().map(|q| q.shape.iter().collect()).collect();
    shapes.sort();
    shapes.dedup();
    shapes.len()
}

/// Timings of one set-up, filled in phase by phase.
#[derive(Debug, Default, Clone)]
pub struct Phases {
    pub census_gen: Duration,
    pub workload_gen: Duration,
    pub build: Duration,
    pub build_trace: BuildTrace,
    pub snapshot_bytes: u64,
}

/// `SynopsisBuilder::build` with MHIST factors at `budget` bytes on
/// `threads` threads, timed from outside.
pub fn build(
    rel: &Relation,
    budget: usize,
    threads: usize,
    phases: &mut Phases,
    spans: &mut SpanLog,
) -> Synopsis {
    let started = Instant::now();
    let synopsis = spans.time("build.build", 0, || {
        SynopsisBuilder::new(rel).budget(budget).threads(threads).build()
    });
    phases.build = started.elapsed();
    let synopsis = synopsis.unwrap_or_else(|e| abort(&format!("build failed: {e}")));
    phases.build_trace = synopsis.build_trace();
    synopsis
}

/// `Synopsis::save`; returns the snapshot bytes (the fingerprint the
/// repeated set-ups must agree on).
pub fn save(synopsis: &Synopsis, path: &Path, phases: &mut Phases, spans: &mut SpanLog) -> Vec<u8> {
    spans
        .time("snapshot.save", 0, || synopsis.save(path))
        .unwrap_or_else(|e| abort(&format!("snapshot save failed: {e}")));
    let bytes = std::fs::read(path).unwrap_or_else(|e| abort(&format!("snapshot read: {e}")));
    phases.snapshot_bytes = bytes.len() as u64;
    bytes
}

/// Set-up and build times over the repeated set-ups, plus the first
/// set-up's phases.
#[derive(Debug, Clone)]
pub struct SetupStats {
    pub setup_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub first: Phases,
    pub census_gen_ms: Vec<f64>,
    pub workload_gen_ms: Vec<f64>,
    /// Snapshot bytes every build of the run must reproduce.
    pub fingerprint: Vec<u8>,
}

/// Runs one set-up and keeps its state. [`more_setups`] runs the
/// remaining repetitions after the measured run, so their allocations
/// cannot raise the run's peak resident memory.
pub fn first_setup<S>(
    spans: &mut SpanLog,
    once: &mut impl FnMut(&mut Phases, &mut SpanLog) -> (S, Vec<u8>),
) -> (S, SetupStats) {
    let mut stats = SetupStats {
        setup_s: Vec::new(),
        build_s: Vec::new(),
        first: Phases::default(),
        census_gen_ms: Vec::new(),
        workload_gen_ms: Vec::new(),
        fingerprint: Vec::new(),
    };
    let state = timed_setup(spans, once, &mut stats);
    (state, stats)
}

/// Repeats the set-up until [`SETUP_REPS`] have run, dropping each
/// state. Every repetition must produce the same snapshot bytes: the
/// same seed gives the same inputs, and a build is deterministic at any
/// thread count.
pub fn more_setups<S>(
    stats: &mut SetupStats,
    mut once: impl FnMut(&mut Phases, &mut SpanLog) -> (S, Vec<u8>),
) {
    let mut spans = SpanLog::new(false);
    while stats.setup_s.len() < SETUP_REPS {
        drop(timed_setup(&mut spans, &mut once, stats));
    }
}

fn timed_setup<S>(
    spans: &mut SpanLog,
    once: &mut impl FnMut(&mut Phases, &mut SpanLog) -> (S, Vec<u8>),
    stats: &mut SetupStats,
) -> S {
    let mut phases = Phases::default();
    let started = Instant::now();
    let (state, bytes) = once(&mut phases, spans);
    stats.setup_s.push(started.elapsed().as_secs_f64());
    stats.build_s.push(phases.build.as_secs_f64());
    stats.census_gen_ms.push(crate::stats::ms(phases.census_gen));
    stats.workload_gen_ms.push(crate::stats::ms(phases.workload_gen));
    if stats.fingerprint.is_empty() {
        stats.fingerprint = bytes;
        stats.first = phases;
    } else if stats.fingerprint != bytes {
        abort("repeated set-ups built different synopses");
    }
    state
}

/// Rebuilds of the workload's relation spread evenly over the measured
/// loop; `build_s` reports the median of their times and the set-ups'.
/// Back to back, the builds would all fall in a few seconds of the
/// host's load, which drifts over tens of seconds; spread over the loop
/// they sample all of it, as the request metrics do. A rebuild runs
/// between two requests, off the request clock, while the loop waits
/// for it. The builds run in a child process of this program (see
/// [`rebuild_child`]), so that their memory does not count in the run's
/// `peak_rss_mb`. Every build must save the same snapshot bytes as the
/// set-ups did.
pub struct Rebuilds {
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
    path: PathBuf,
    fingerprint: Vec<u8>,
    count: usize,
    every: Duration,
    next: Duration,
    build_s: Vec<f64>,
}

impl Rebuilds {
    /// Starts the child that will make `count` rebuilds over a run of
    /// `run` request time.
    pub fn new(
        census: Census,
        threads: usize,
        dir: &Path,
        stats: &SetupStats,
        run: Duration,
        count: u32,
    ) -> Self {
        let path = dir.join("rebuild.dbhs");
        let exe = std::env::current_exe()
            .unwrap_or_else(|e| abort(&format!("cannot find this program: {e}")));
        let mut child = Command::new(exe)
            .arg(REBUILD_CHILD)
            .arg(census.name())
            .arg(threads.to_string())
            .arg(&path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| abort(&format!("cannot start the rebuild process: {e}")));
        let requests = child.stdin.take();
        let mut replies = BufReader::new(child.stdout.take().expect("piped stdout"));
        *REBUILD_PROCESS.lock().unwrap_or_else(PoisonError::into_inner) = Some(child);
        // The child answers once it has its relation, so that generating
        // it does not overlap the loop.
        if !replies.read_line(&mut String::new()).is_ok_and(|n| n > 0) {
            abort("the rebuild process did not start");
        }
        let every = run / count;
        Self {
            requests,
            replies,
            path,
            fingerprint: stats.fingerprint.clone(),
            count: count as usize,
            every,
            next: every / 2,
            build_s: Vec::new(),
        }
    }

    /// Starts a loop whose request time counts from zero again.
    pub fn restart(&mut self) {
        self.next = self.every / 2;
    }

    /// Builds once for every slot the loop's request time `busy` has
    /// passed since the last call, up to the run's count.
    pub fn due(&mut self, busy: Duration) {
        while busy >= self.next && self.build_s.len() < self.count {
            self.next += self.every;
            let sent = self.requests.as_mut().is_some_and(|r| writeln!(r, "build").is_ok());
            let mut line = String::new();
            let read = self.replies.read_line(&mut line).is_ok_and(|n| n > 0);
            let Some(seconds) = line.trim().parse::<u64>().ok().filter(|_| sent && read) else {
                abort("the rebuild process stopped")
            };
            self.build_s.push(f64::from_bits(seconds));
            let bytes = std::fs::read(&self.path)
                .unwrap_or_else(|e| abort(&format!("rebuild snapshot read: {e}")));
            if bytes != self.fingerprint {
                abort("a repeated build saved different snapshot bytes");
            }
        }
    }

    /// Stops the child and returns the build times.
    pub fn finish(mut self) -> Vec<f64> {
        std::mem::take(&mut self.build_s)
    }
}

impl Drop for Rebuilds {
    fn drop(&mut self) {
        // End of input tells the child to exit.
        drop(self.requests.take());
        if let Some(mut child) = take_rebuild_process() {
            let _ = child.wait();
        }
    }
}

/// The running rebuild child, kept where [`abort`] can stop it.
static REBUILD_PROCESS: Mutex<Option<Child>> = Mutex::new(None);

fn take_rebuild_process() -> Option<Child> {
    REBUILD_PROCESS.lock().unwrap_or_else(PoisonError::into_inner).take()
}

/// First argument that runs this program as the rebuild child.
pub const REBUILD_CHILD: &str = "--rebuild-child";

/// The rebuild child: `--rebuild-child <census> <threads> <snapshot>`.
/// It generates the relation once and says so with a line on its
/// standard output, then for every line on its standard input builds
/// it, saves the snapshot to `<snapshot>`, and answers with the build's
/// wall time (the bits of an `f64` of seconds) on one line. It exits at
/// the end of its input.
pub fn rebuild_child(args: &[String]) -> ! {
    let [census, threads, path] = args else {
        eprintln!("perfbench: {REBUILD_CHILD} takes <census> <threads> <snapshot>");
        std::process::exit(2);
    };
    let census = Census::from_name(census)
        .unwrap_or_else(|| abort(&format!("unknown census relation {census}")));
    let threads = threads.parse().unwrap_or_else(|_| abort("bad thread count"));
    let rel = census.generate();
    let path = Path::new(path);
    let mut spans = SpanLog::new(false);
    let mut stdout = std::io::stdout().lock();
    if writeln!(stdout, "ready").and_then(|()| stdout.flush()).is_err() {
        std::process::exit(0);
    }
    for line in std::io::stdin().lines() {
        if line.is_err() {
            break;
        }
        let mut phases = Phases::default();
        let synopsis = build(&rel, census.budget(), threads, &mut phases, &mut spans);
        save(&synopsis, path, &mut phases, &mut spans);
        if writeln!(stdout, "{}", phases.build.as_secs_f64().to_bits())
            .and_then(|()| stdout.flush())
            .is_err()
        {
            break;
        }
    }
    std::process::exit(0);
}

/// Times a closure into a `Duration` slot.
pub fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *slot = started.elapsed();
    out
}

/// Abs-rel error of every estimate against its exact count.
pub fn abs_rel_errors(estimates: &[f64], queries: &[PoolQuery]) -> Vec<f64> {
    estimates.iter().zip(queries).map(|(e, q)| (e - q.exact).abs() / q.exact.max(1.0)).collect()
}

/// Checks every served estimate bit for bit against a serial
/// `Synopsis::estimate` on the generation that served it.
pub fn check_served(served: &[f64], synopsis: &Synopsis, queries: &[&Query], what: &str) {
    if served.len() != queries.len() {
        abort(&format!("{what}: {} replies for {} queries", served.len(), queries.len()));
    }
    for (i, (s, q)) in served.iter().zip(queries).enumerate() {
        let serial = synopsis.estimate(q);
        if s.to_bits() != serial.to_bits() {
            abort(&format!("{what}: query {i} served {s} but serial estimate is {serial}"));
        }
    }
}

static WORK_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Creates the run's scratch directory inside the working directory.
pub fn work_dir() -> PathBuf {
    WORK_DIR
        .get_or_init(|| {
            let dir = PathBuf::from(".bench_work").join(std::process::id().to_string());
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("perfbench: cannot create {}: {e}", dir.display());
                std::process::exit(2);
            }
            dir
        })
        .clone()
}

pub fn remove_work_dir() {
    if let Some(dir) = WORK_DIR.get() {
        let _ = std::fs::remove_dir_all(dir);
        // Leaves `.bench_work` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Stops the run on a wrong answer or a failed operation the workload
/// cannot continue past: no result line, non-zero exit.
pub fn abort(msg: &str) -> ! {
    eprintln!("perfbench: FAILED: {msg}");
    if let Some(mut child) = take_rebuild_process() {
        let _ = child.kill();
        let _ = child.wait();
    }
    remove_work_dir();
    std::process::exit(1);
}
