//! The metric catalogue and the run result every workload returns.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two equal.

use std::collections::BTreeMap;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics of an untraced run (`--trace 0`), printed by every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("ops_per_s", "1/s"),
    m("lat_ms_p50", "ms"),
    m("lat_ms_p95", "ms"),
    m("modelled_speedup_geomean", "x"),
    m("peak_rss_mb", "MB"),
];

/// Metrics of a traced run (`--trace 1`), printed by every workload. A
/// layer the workload's operations never reach reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("ir.parse_us", "us"),
    m("ir.sema_us", "us"),
    m("analysis.us", "us"),
    m("analysis.reuse_groups", "count"),
    m("opt.us", "us"),
    m("opt.round_us", "us"),
    m("opt.feedback_rounds", "count"),
    m("opt.saturate_us", "us"),
    m("opt.temps_added", "count"),
    m("codegen.us", "us"),
    m("codegen.vir_insts", "count"),
    m("regalloc.us", "us"),
    m("regalloc.regs_used", "count"),
    m("regalloc.spilled_vregs", "count"),
    m("sim.us", "us"),
    m("sim.warp_insts", "count"),
    m("sim.minst_per_s", "Minst/s"),
    m("sim.sb_vector_execs", "count"),
    m("sim.sb_scalar_execs", "count"),
    m("sim.sb_peels", "count"),
    m("sim.sb_delegated", "count"),
    m("sim.sb_fused_share", "share"),
    m("pool.sim_us", "us"),
    m("pool.imbalance", "ratio"),
    m("runtime.h2d_us", "us"),
    m("runtime.d2h_us", "us"),
    m("memo.key_us", "us"),
    m("memo.hit_us", "us"),
    m("memo.insert_us", "us"),
    m("memo.hits", "count"),
    m("memo.misses", "count"),
    m("memo.evictions", "count"),
    m("wire.decode_us", "us"),
    m("wire.encode_us", "us"),
    m("wire.resp_kb", "kB"),
    m("server.queue_wait_us", "us"),
    m("server.service_us", "us"),
    m("server.reply_write_us", "us"),
    m("server.coalesced", "count"),
    m("server.batches", "count"),
    m("transport.gap_us", "us"),
    m("trace.overhead", "share"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["paper_suite", "compile_mix", "serve_mix"];

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (whole passes or rounds).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Check failures among the operations that did not fail.
    pub wrong: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable report lines, printed before the result.
    pub report: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a check failure (at most a few are kept verbatim).
    pub fn wrong(&mut self, what: String) {
        self.wrong.push(what);
    }

    /// Add a report line.
    pub fn line(&mut self, text: String) {
        self.report.push(text);
    }

    /// The result object: `correct`, `attempted`, `failed` and every
    /// metric of `catalogue`. A metric the workload did not set is a bug
    /// in the benchmark, reported as an error.
    pub fn result_json(&self, catalogue: &[Metric]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for m in catalogue {
            let v = self
                .values
                .get(m.name)
                .ok_or_else(|| format!("metric `{}` not set", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric `{}` is not finite: {v}", m.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn result_json_prints_every_metric_or_refuses() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for m in END_TO_END {
            o.set(m.name, 1.5);
        }
        let json = o.result_json(END_TO_END).unwrap();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(
            o.result_json(PER_LAYER).is_err(),
            "unset metrics must not print"
        );
        o.wrong("x".into());
        assert!(o
            .result_json(END_TO_END)
            .unwrap()
            .contains("\"correct\": false"));
    }
}
