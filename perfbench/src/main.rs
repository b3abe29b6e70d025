//! The dbhist benchmark: paper-scale workloads through the public API
//! (`SynopsisBuilder`, `EstimatorService`, `Synopsis::load`/`save`,
//! `IngestSession`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `census1-warm-batch`, `census2-cold-swap` (see
//! `perfbench/README.md`). The run prints
//! every metric by name and unit, checks every answer, and ends its
//! standard output with one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A wrong answer
//! stops the run with a non-zero exit and no result line.
//!
//! `perfbench --rebuild-child ...` is the process a run starts for its
//! timed rebuilds (see `common::Rebuilds`); it is not run by hand.

mod cold;
mod common;
mod report;
mod serve;
mod spans;
mod stats;
mod warm;
mod write;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Build threads, and the bound on client threads plus service
    /// workers.
    pub threads: usize,
}

const WORKLOADS: [&str; 2] = ["census1-warm-batch", "census2-cold-swap"];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let all: Vec<String> = std::env::args().skip(1).collect();
    if all.first().map(String::as_str) == Some(common::REBUILD_CHILD) {
        common::rebuild_child(&all[1..]);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = all.into_iter();
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok().or_else(|| usage("bad --seed")),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are required")
    };
    let opts = Opts { seed, seconds, trace, threads: stats::available_threads() };
    println!(
        "perfbench {workload} seed {seed} seconds {seconds} trace {} threads {} \
         (available_parallelism)",
        u8::from(trace),
        opts.threads
    );
    let report = match workload.as_str() {
        "census1-warm-batch" => warm::run(&opts),
        "census2-cold-swap" => cold::run(&opts),
        other => usage(&format!("unknown workload {other}")),
    };
    common::remove_work_dir();
    if let Some(json) = &report.spans_json {
        let path = format!(".bench_out/{workload}-seed{seed}.spans.json");
        if let Err(e) =
            std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, json))
        {
            common::abort(&format!("cannot write {path}: {e}"));
        }
        println!("spans written to {path}");
    }
    report.print(trace);
}
