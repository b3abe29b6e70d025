//! Collects a run's metrics, prints them by name with their units, and
//! ends standard output with the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

use dbhist_core::{QueryTrace, ServeStats};

use crate::common::{abort, SetupStats};
use crate::serve::ProbeStats;
use crate::spans::SpanLog;
use crate::stats::{median, quantile, tail};
use crate::write::{WriteLayers, WriteStats};

#[derive(Debug)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    e2e: Vec<Metric>,
    layers: Vec<Metric>,
    notes: Vec<String>,
    /// The traced run's span log, as JSON.
    pub spans_json: Option<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name: name.to_string(), value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Prints every metric of the run by name and unit, then the result
    /// line: end-to-end metrics untraced, per-layer metrics traced.
    pub fn print(&self, traced: bool) {
        for m in &self.e2e {
            println!("e2e    {:<24} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for m in &self.layers {
            println!("layer  {:<24} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            println!("note   {n}");
        }
        let metrics = if traced { &self.layers } else { &self.e2e };
        let mut json = String::new();
        for (i, m) in metrics.iter().enumerate() {
            if !m.value.is_finite() {
                abort(&format!("metric {} is not a finite number", m.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
    }
}

/// What every workload measures on its read and write paths.
pub struct EndToEnd {
    pub setup: SetupStats,
    pub reply_ms: Vec<f64>,
    /// Highest tail percentile this workload reports for
    /// `reply_tail_ms` (its sample count supports it on every run).
    pub reply_tail_cap: f64,
    /// The same cap for `apply_tail_ms`.
    pub apply_tail_cap: f64,
    /// `VmHWM` after the measured run, before the repeated set-ups.
    pub peak_rss_mb: f64,
    pub queries: u64,
    pub read_busy: Duration,
    pub write: WriteStats,
    pub errors: Vec<f64>,
    pub checksum: f64,
}

pub fn emit_e2e(r: &mut Report, e: &EndToEnd) {
    let reply_tail = tail(&e.reply_ms, e.reply_tail_cap);
    let apply_tail = tail(&e.write.step_ms, e.apply_tail_cap);
    r.e2e("setup_s", median(&e.setup.setup_s), "s");
    r.e2e("build_s", median(&e.setup.build_s), "s");
    r.e2e(
        "query_qps",
        e.queries as f64 / e.read_busy.as_secs_f64().max(f64::MIN_POSITIVE),
        "queries/s",
    );
    r.e2e("reply_p50_ms", median(&e.reply_ms), "ms");
    r.e2e("reply_tail_ms", reply_tail.value, "ms");
    r.e2e("apply_p50_ms", median(&e.write.step_ms), "ms");
    r.e2e("recovery_s", median(&e.write.recovery_s), "s");
    r.e2e("est_err_q50", quantile(&e.errors, 0.5), "abs-rel");
    r.e2e("est_err_q95", quantile(&e.errors, 0.95), "abs-rel");
    r.e2e("peak_rss_mb", e.peak_rss_mb, "MiB");
    // Printed, not bounded: over ten seeds of the same code these moved
    // by more than the largest bound (see perfbench/README.md).
    r.note(format!("apply_tail_ms {} ms (unbounded)", apply_tail.value));
    r.note(format!("ingest_ops_s {} ops/s (unbounded)", e.write.ops_per_s()));
    r.note(format!(
        "reply_tail_ms is p{} over {} replies ({} beyond); apply_tail_ms is p{} over {} write \
         steps ({} beyond)",
        reply_tail.percentile,
        reply_tail.samples,
        reply_tail.beyond,
        apply_tail.percentile,
        apply_tail.samples,
        apply_tail.beyond
    ));
    r.note(format!(
        "error_rate {:.6} failed/attempted ({} of {} operations failed, were refused or dropped)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    ));
    r.note(format!("estimate_checksum {:.6} over {} accuracy queries", e.checksum, e.errors.len()));
    r.note(format!(
        "setup_s samples {:?}, build_s samples {:?}, recovery_s samples {:?}",
        e.setup.setup_s, e.setup.build_s, e.write.recovery_s
    ));
}

/// Inputs of the per-layer metrics, gathered by the traced run.
pub struct LayerInputs<'a> {
    pub spans: &'a SpanLog,
    pub e2e: &'a EndToEnd,
    pub probe: &'a ProbeStats,
    /// Engine counters of the served generations over the traced loop.
    pub served: QueryTrace,
    /// Engine counters of the first-contact probe engines.
    pub first_contact: QueryTrace,
    pub service: ServeStats,
    pub write: &'a WriteLayers,
    /// Primary e2e latency (ms) of the untraced and traced halves.
    pub untraced_p50_ms: f64,
    pub traced_p50_ms: f64,
}

pub fn emit_layers(r: &mut Report, l: &LayerInputs<'_>) {
    let spans = l.spans;
    r.spans_json = Some(spans.to_json());
    let p50 = |name: &str| median(&spans.durations_us(name));
    let p99 = |name: &str| quantile(&spans.durations_us(name), 0.99);
    let bt = &l.e2e.setup.first.build_trace;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;

    r.layer("data.census_gen_ms", median(&l.e2e.setup.census_gen_ms), "ms");
    r.layer("data.workload_gen_ms", median(&l.e2e.setup.workload_gen_ms), "ms");

    r.layer("selection.ms", ms(bt.selection), "ms");
    r.layer("selection.entropy_computations", bt.entropy_computations as f64, "count");
    r.layer("selection.steps", bt.selection_steps as f64, "count");
    r.layer("construction.ms", ms(bt.construction), "ms");
    r.layer("alloc.ms", ms(bt.allocation), "ms");
    r.layer("alloc.splits_funded", bt.splits_funded as f64, "count");
    r.layer("assembly.ms", ms(bt.assembly), "ms");
    // The traced `build` call against the trace the builder keeps.
    r.layer("build.outside_trace_ms", ms(l.e2e.setup.first.build) - ms(bt.total), "ms");

    r.layer("snapshot.save_ms", p50("snapshot.save") / 1e3, "ms");
    r.layer("snapshot.load_ms", p50("snapshot.load") / 1e3, "ms");
    r.layer("snapshot.bytes", l.e2e.setup.first.snapshot_bytes as f64, "bytes");

    r.layer("service.reply_us_p50", p50("service.request"), "us");
    r.layer("service.reply_us_p99", p99("service.request"), "us");
    r.layer("service.overhead_us", median(&l.probe.overhead_us), "us");
    r.layer("service.swap_us", p50("service.swap"), "us");
    r.layer("service.batches", l.service.batches as f64, "count");
    r.layer("service.dropped_replies", l.service.dropped_replies as f64, "count");

    r.layer("engine.cold_us_p50", p50("engine.cold"), "us");
    r.layer("engine.cold_us_p99", p99("engine.cold"), "us");
    r.layer("plan.compile_us", p50("plan.compile"), "us");
    r.layer("plan.execute_us", p50("plan.execute"), "us");
    r.layer("plan.lower_us", median(&l.probe.lower_us), "us");
    let s = &l.served;
    r.layer("plan.products", s.products as f64, "count");
    r.layer("plan.projections", s.projections as f64, "count");
    r.layer("plan.sheds", s.sheds as f64, "count");
    r.layer("plan.clique_loads", s.clique_loads as f64, "count");
    r.layer("plan.cache_misses", s.plan_cache_misses as f64, "count");

    r.layer("engine.warm_us_p50", p50("engine.warm"), "us");
    r.layer("engine.warm_us_p99", p99("engine.warm"), "us");
    let mut slow = l.probe.warm_by_shape.clone();
    slow.sort_by(|a, b| b.1.total_cmp(&a.1));
    for i in 0..5 {
        let (shape, v) = slow.get(i).cloned().unwrap_or_else(|| ("-".to_string(), 0.0));
        r.layer(&format!("engine.warm_us_slow{}", i + 1), v, "us");
        r.note(format!("engine.warm_us_slow{} is shape {shape}", i + 1));
    }
    let estimates = s.kernel_hits + s.plan_cache_hits + s.plan_cache_misses;
    r.layer("kernel.hits", s.kernel_hits as f64, "count");
    r.layer("kernel.fallbacks", s.kernel_fallbacks as f64, "count");
    r.layer("kernel.lowered_dense", s.kernel_lowered_dense as f64, "count");
    r.layer("kernel.lowered_sparse", s.kernel_lowered_sparse as f64, "count");
    r.layer("kernel.estimates", estimates as f64, "count");
    r.layer("kernel.hit_rate", s.kernel_hits as f64 / estimates.max(1) as f64, "ratio");
    r.note(format!(
        "kernel.hit_rate = {} kernel hits / {} served estimates; first-contact probe: {} products, \
         {} sheds, {} clique loads, {} dense + {} sparse lowerings",
        s.kernel_hits,
        estimates,
        l.first_contact.products,
        l.first_contact.sheds,
        l.first_contact.clique_loads,
        l.first_contact.kernel_lowered_dense,
        l.first_contact.kernel_lowered_sparse
    ));

    r.layer("ingest.apply_us_p50", p50("ingest.apply"), "us");
    r.layer("ingest.apply_us_p99", p99("ingest.apply"), "us");
    r.layer("wal.append_us_p50", p50("wal.append"), "us");
    r.layer("wal.append_us_p99", p99("wal.append"), "us");
    r.layer("wal.bytes_per_op", l.write.wal_bytes_per_op, "bytes");
    let maint_total_us: f64 = spans.durations_us("maintenance.insert").iter().sum();
    r.layer("maintenance.insert_us", maint_total_us / l.write.shadow_ops.max(1) as f64, "us");
    r.layer("ingest.tune_ms", p50("ingest.tune") / 1e3, "ms");
    r.layer("ingest.resplits", l.write.resplits as f64, "count");
    r.layer("ingest.checkpoint_ms", p50("ingest.checkpoint") / 1e3, "ms");
    r.layer("ingest.marginal_cells", l.write.marginal_cells as f64, "count");
    r.layer("ingest.batches_replayed", l.e2e.write.batches_replayed as f64, "count");

    r.layer(
        "trace.overhead_frac",
        (l.traced_p50_ms - l.untraced_p50_ms) / l.untraced_p50_ms.max(f64::MIN_POSITIVE),
        "ratio",
    );
    r.layer("trace.spans", spans.len() as f64, "count");
    let layers = spans.layer_self_ms();
    r.note(format!(
        "self time per layer (ms): {}",
        layers.iter().map(|(k, v)| format!("{k} {v:.3}")).collect::<Vec<_>>().join(", ")
    ));
}

/// Adds the reconciliation of one blocking path (`key` is `reply` or
/// `apply`): the p50 self times of its components against the untraced
/// end-to-end p50.
pub fn reconcile(r: &mut Report, key: &str, e2e_p50_ms: f64, parts: &[(&str, f64)]) {
    let path: f64 = parts.iter().map(|p| p.1).sum();
    let remainder = e2e_p50_ms - path;
    r.layer(&format!("recon.{key}_path_ms"), path, "ms");
    r.layer(&format!("recon.{key}_p50_ms"), e2e_p50_ms, "ms");
    r.layer(
        &format!("recon.{key}_remainder_frac"),
        remainder / e2e_p50_ms.max(f64::MIN_POSITIVE),
        "ratio",
    );
    r.note(format!(
        "reconcile {key}_p50_ms: {} = {path:.4} ms vs untraced p50 {e2e_p50_ms:.4} ms, unexplained \
         remainder {remainder:.4} ms",
        parts.iter().map(|(n, v)| format!("{n} {v:.4}")).collect::<Vec<_>>().join(" + ")
    ));
}

/// Reconciles the write step: `wal.append` and 64 standalone
/// maintenance updates against the untraced `apply_p50_ms`; the
/// remainder is marginal upkeep and the rest of `apply_batch`.
pub fn reconcile_apply(r: &mut Report, spans: &SpanLog, e: &EndToEnd, shadow_ops: u64) {
    let append = median(&spans.durations_us("wal.append")) / 1e3;
    let maintenance: f64 = spans.durations_us("maintenance.insert").iter().sum();
    let per_batch =
        maintenance / shadow_ops.max(1) as f64 * crate::write::OPS_PER_BATCH as f64 / 1e3;
    reconcile(
        r,
        "apply",
        median(&e.write.step_ms),
        &[("wal.append", append), ("maintenance.insert x 64", per_batch)],
    );
}
