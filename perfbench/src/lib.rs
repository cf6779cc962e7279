//! End-to-end and per-layer benchmark of the SAFARA pipeline.
//!
//! One command runs one named workload for a fixed time with a seed and
//! prints every end-to-end metric (or, traced, every per-layer metric)
//! as the last line of its output. The workloads drive the program only
//! through its public entry points; see `README.md` for what each one
//! exercises and which metric each layer should move.

pub mod compile_mix;
pub mod layers;
pub mod metrics;
pub mod plan;
pub mod serve_mix;
pub mod stats;
pub mod suite;

use metrics::Outcome;
use std::time::{Duration, Instant};

/// Fewest set-ups per run; the run reports their median as `setup_s`.
pub const SETUP_REPS: usize = 5;

/// Set-up time a run spends at least, in seconds: a set-up of a few
/// milliseconds repeats until the median is taken over many.
pub const SETUP_MIN_S: f64 = 0.5;

/// Most set-ups per run.
pub const SETUP_MAX_REPS: usize = 101;

/// Fewest operations an untraced run completes, so that at least
/// [`stats::MIN_TAIL`] latency samples lie beyond the 95th percentile.
/// A run keeps going past `--seconds`, in whole passes, until it has
/// this many.
pub const MIN_OPS: u64 = 200;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

impl Ctx {
    /// How the measured time splits: an untraced run measures all of
    /// it; a traced run measures half untraced (the baseline for the
    /// tracing overhead) and half traced.
    pub fn phases(&self) -> Vec<(bool, Duration)> {
        let all = Duration::from_secs_f64(self.seconds);
        if self.trace {
            vec![(false, all / 2), (true, all / 2)]
        } else {
            vec![(false, all)]
        }
    }

    /// Operations a phase must complete before it may end.
    pub fn min_ops(&self) -> u64 {
        if self.trace {
            1
        } else {
            MIN_OPS
        }
    }
}

/// Run `ctx.workload`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = match ctx.workload.as_str() {
        "paper_suite" => suite::run(ctx),
        "compile_mix" => compile_mix::run(ctx),
        "serve_mix" => serve_mix::run(ctx),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of {})",
                metrics::WORKLOADS.join(", ")
            ))
        }
    }?;
    out.set("peak_rss_mb", metrics::peak_rss_mb());
    Ok(out)
}

/// Run `build` at least [`SETUP_REPS`] times, and again until the
/// set-ups took [`SETUP_MIN_S`] together (at most [`SETUP_MAX_REPS`]),
/// keeping the last result; returns it with the median time of one
/// set-up in seconds and the number of set-ups.
pub fn timed_setup<T>(
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64, usize), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        // Drop the previous set-up first so its teardown is not timed.
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one set-up");
    Ok((last.expect("at least one set-up"), median, times.len()))
}

/// Latency, throughput and report lines shared by every workload's
/// untraced phase.
pub fn report_latency(out: &mut Outcome, latencies_ms: &[f64], ops_per_s: f64) {
    let p50 = stats::tail_percentile(latencies_ms, 50.0)
        .map(|p| p.value)
        .or_else(|| stats::median(latencies_ms))
        .unwrap_or(0.0);
    out.set("ops_per_s", ops_per_s);
    out.set("lat_ms_p50", p50);
    out.line(format!("ops_per_s {ops_per_s:.3}"));
    match stats::tail_percentile(latencies_ms, 95.0) {
        Some(p) => {
            out.set("lat_ms_p95", p.value);
            out.line(format!(
                "latency p50 {p50:.3} ms, p95 {:.3} ms from {} samples ({} beyond p95)",
                p.value, p.samples, p.beyond
            ));
        }
        None => out.line(format!(
            "latency p50 {p50:.3} ms from {} samples (too few beyond p95 to report it)",
            latencies_ms.len()
        )),
    }
}

/// Record an operation error: counted in `failed`, the first few kept
/// in the report.
pub fn op_failed(out: &mut Outcome, what: String) {
    out.failed += 1;
    if out.failed <= 5 {
        out.line(format!("FAILED {what}"));
    }
}

/// The geometric mean of `ratios` (1 when empty).
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}
