//! Observability for the dbhist synopsis engine: a lock-free metrics
//! registry, RAII span tracing, accuracy-drift monitoring, and snapshot
//! exporters (JSON and Prometheus text format).
//!
//! The design follows the metriken/rustcommon metrics stack: recording on
//! hot paths touches only atomics with `Relaxed` ordering (wait-free), and
//! the registry's single mutex guards *registration and snapshotting*
//! only — never the per-metric update path.
//!
//! # The pieces
//!
//! * [`registry`] — [`Counter`], [`Gauge`], and [`LatencyHistogram`]
//!   (base-2 sub-bucketed, dogfooding the repo's own
//!   [`dbhist_histogram::OneDimHistogram`] as its snapshot
//!   representation), plus the process-wide [`Registry`] and the global
//!   [`enabled`] switch.
//! * [`span`](mod@span) — the [`span!`] macro: an RAII guard that times a lexical
//!   scope, maintains a thread-local span *stack* (so nested spans know
//!   their depth), and records into the registry. With telemetry disabled
//!   and no collector installed, entering a span is two relaxed atomic
//!   loads and no clock read — effectively free.
//! * [`drift`] — [`DriftMonitor`]: rolling absolute-relative-error
//!   windows *and* full error distributions per model clique, fed by
//!   observed cardinalities, exposed as per-clique drift and
//!   error-quantile gauges that maintenance policies consult.
//! * [`journal`](mod@journal) — a bounded, mostly-lock-free ring of typed engine
//!   events (sampled query explains, generation swaps, rebuilds, drift
//!   trips, re-splits, WAL appends and truncations) drained as JSONL by
//!   the observability endpoint.
//! * [`export`] — [`export::to_json`] and [`export::to_prometheus`]
//!   render the same [`Snapshot`].
//! * [`wellknown`] — pre-registered handles for every `dbhist_*` metric
//!   the engine emits, so hot paths never hash a metric name.
//!
//! # Naming convention
//!
//! Every metric is named `dbhist_<subsystem>_<name>_<unit>` (for example
//! `dbhist_query_plan_cache_hits_total`,
//! `dbhist_query_estimate_latency_ns`); `cargo run -p xtask -- lint`
//! enforces the convention on every literal in library code.
//!
//! # Example
//!
//! ```
//! use dbhist_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! let queries = telemetry::global().counter("dbhist_query_estimates_total");
//! queries.increment();
//! {
//!     let _span = telemetry::span!("dbhist_query_estimate_latency_ns");
//!     // ... timed work ...
//! }
//! let snapshot = telemetry::snapshot();
//! assert_eq!(snapshot.counter("dbhist_query_estimates_total"), Some(1));
//! println!("{}", telemetry::export::to_prometheus(&snapshot));
//! telemetry::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod drift;
pub mod export;
pub mod journal;
pub mod registry;
pub mod span;
pub mod wellknown;

pub use drift::DriftMonitor;
pub use journal::{journal, Journal, JournalEvent};
pub use registry::{
    enabled, global, set_enabled, snapshot, Counter, Gauge, HistogramSnapshot, LatencyHistogram,
    MetricSnapshot, MetricValue, Registry, Snapshot,
};
pub use span::{SpanCollector, SpanGuard, SpanMeter, SpanRecord};

/// Serializes tests that flip the process-wide [`enabled`] flag.
#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    pub fn enabled_flag_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
