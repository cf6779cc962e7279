//! Per-layer accounting for traced runs.
//!
//! Spans are taken here, in the benchmark, around calls into each
//! layer's public function. The feedback loop and the e-graph have no
//! entry point outside the compiler driver, so their numbers come from
//! the `opt`, `round` and `saturate` spans `compile_traced` records.

use crate::metrics::{Outcome, PER_LAYER};
use safara_core::analysis::{region::RegionInfo, reuse::find_reuse_groups};
use safara_core::codegen::lower::lower_function;
use safara_core::gpusim::allocate_registers_with;
use safara_core::ir::ast::Function;
use safara_core::obs::{Span, Tracer};
use safara_core::{compile_traced, CompiledProgram, CompilerConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer samples, grouped by the input program they came from.
#[derive(Debug, Default)]
pub struct LayerTable {
    /// `row label → metric → (sum, samples)`.
    rows: BTreeMap<String, BTreeMap<&'static str, (f64, u64)>>,
    /// Whole-run values (counter deltas, ratios) that are not means.
    totals: BTreeMap<&'static str, f64>,
}

impl LayerTable {
    /// Add one sample of `metric` for input program `row`.
    pub fn add(&mut self, row: &str, metric: &'static str, v: f64) {
        let e = self
            .rows
            .entry(row.to_string())
            .or_default()
            .entry(metric)
            .or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }

    /// Set a whole-run value.
    pub fn set(&mut self, metric: &'static str, v: f64) {
        self.totals.insert(metric, v);
    }

    /// Sum of all samples of `metric` over all rows, and their count.
    pub fn sum(&self, metric: &str) -> (f64, u64) {
        self.rows
            .values()
            .filter_map(|m| m.get(metric))
            .fold((0.0, 0), |(s, n), (v, k)| (s + v, n + k))
    }

    /// The run's value of `metric`: its whole-run value if set, else the
    /// mean of its samples, else 0 (a layer the workload never reached).
    pub fn value(&self, metric: &str) -> f64 {
        if let Some(v) = self.totals.get(metric) {
            return *v;
        }
        match self.sum(metric) {
            (_, 0) => 0.0,
            (s, n) => s / n as f64,
        }
    }

    /// Copy every per-layer metric into `out`.
    pub fn fill(&self, out: &mut Outcome) {
        for m in PER_LAYER {
            out.set(m.name, self.value(m.name));
        }
    }

    /// The per-layer table: for each layer that has samples, one line per
    /// input program with the mean of each of its metrics, then the
    /// run's values of every per-layer metric.
    pub fn report(&self, out: &mut Outcome) {
        let mut layers: Vec<&str> = PER_LAYER.iter().map(|m| layer_of(m.name)).collect();
        layers.dedup();
        for layer in layers {
            let metrics: Vec<&'static str> = PER_LAYER
                .iter()
                .map(|m| m.name)
                .filter(|n| layer_of(n) == layer && self.sum(n).1 > 0)
                .collect();
            if metrics.is_empty() {
                continue;
            }
            out.line(format!(
                "layer {layer} (mean per sample, one row per input program):"
            ));
            let head: Vec<String> = metrics.iter().map(|m| format!("{m:>22}")).collect();
            out.line(format!("  {:<34}{}", "program", head.join("")));
            for (row, vals) in &self.rows {
                if !metrics.iter().any(|m| vals.contains_key(m)) {
                    continue;
                }
                let cells: Vec<String> = metrics
                    .iter()
                    .map(|m| match vals.get(m) {
                        Some((s, n)) => format!("{:>22.3}", s / *n as f64),
                        None => format!("{:>22}", "-"),
                    })
                    .collect();
                out.line(format!("  {row:<34}{}", cells.join("")));
            }
        }
        out.line("per-layer values of this run (0 = layer not reached by this workload):".into());
        for m in PER_LAYER {
            out.line(format!(
                "  {:<26} {:>16.3} {}",
                m.name,
                self.value(m.name),
                m.unit
            ));
        }
    }
}

fn layer_of(metric: &str) -> &str {
    metric.split('.').next().unwrap_or(metric)
}

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Depth-first visit of every span in `spans`.
pub fn walk_spans<'a>(spans: &'a [Span], f: &mut impl FnMut(&'a Span)) {
    for s in spans {
        f(s);
        walk_spans(&s.children, f);
    }
}

fn reuse_groups(f: &Function) -> usize {
    f.regions()
        .into_iter()
        .map(|region| find_reuse_groups(region, &RegionInfo::analyze(region)).len())
        .sum()
}

/// The operation a traced run times: `compile_traced`, with the spans
/// it recorded.
pub fn traced_compile(
    source: &str,
    config: &CompilerConfig,
) -> Result<(CompiledProgram, Vec<Span>), String> {
    let mut tracer = Tracer::new();
    let program = compile_traced(source, config, &mut tracer).map_err(|e| e.to_string())?;
    Ok((program, tracer.finish()))
}

/// Record each compiler layer's time and work for one traced compile
/// under row `row`, outside the timed operation: the `opt`, `round` and
/// `saturate` spans of `spans`, and the benchmark's own calls into the
/// parser, sema, analysis, lowering and allocation. Those calls must
/// reproduce the driver's kernels and allocation reports exactly; a
/// difference is an error.
pub fn compile_layers(
    source: &str,
    config: &CompilerConfig,
    row: &str,
    program: &CompiledProgram,
    spans: &[Span],
    table: &mut LayerTable,
) -> Result<(), String> {
    let t = Instant::now();
    let ast = safara_core::ir::parse_program_unchecked(source).map_err(|e| e.to_string())?;
    table.add(row, "ir.parse_us", us_since(t));

    let t = Instant::now();
    safara_core::ir::sema::check_program(&ast).map_err(|e| e.to_string())?;
    table.add(row, "ir.sema_us", us_since(t));

    let t = Instant::now();
    let groups: usize = ast.functions.iter().map(reuse_groups).sum();
    table.add(row, "analysis.us", us_since(t));
    table.add(row, "analysis.reuse_groups", groups as f64);

    let (mut opt_us, mut saturate_us) = (0.0, 0.0);
    walk_spans(spans, &mut |s| match s.name.as_str() {
        "opt" => opt_us += s.dur_us as f64,
        "round" => table.add(row, "opt.round_us", s.dur_us as f64),
        "saturate" => saturate_us += s.dur_us as f64,
        _ => {}
    });
    table.add(row, "opt.us", opt_us);
    table.add(row, "opt.saturate_us", saturate_us);
    let rounds: u32 = program.functions.iter().map(|f| f.feedback_rounds).sum();
    let temps: u32 = program
        .functions
        .iter()
        .map(|f| f.sr_outcome.temps_added)
        .sum();
    table.add(row, "opt.feedback_rounds", rounds as f64);
    table.add(row, "opt.temps_added", temps as f64);

    let t = Instant::now();
    let mut lowered = Vec::new();
    for f in &program.functions {
        lowered.push(lower_function(&f.transformed, &config.codegen).map_err(|e| e.to_string())?);
    }
    table.add(row, "codegen.us", us_since(t));
    let insts: usize = lowered.iter().flatten().map(|k| k.vir.insts.len()).sum();
    table.add(row, "codegen.vir_insts", insts as f64);
    let driver_kernels = program
        .functions
        .iter()
        .flat_map(|f| f.kernels.iter().map(|a| &a.kernel));
    if !lowered.iter().flatten().eq(driver_kernels) {
        return Err(format!(
            "{row}: re-lowering differs from the driver's kernels"
        ));
    }

    // No benchmark input sets `launch_bounds`, so the driver allocates
    // every kernel under `reg_cap` for the runtime's default block of
    // 128 threads.
    let t = Instant::now();
    let mut allocs = Vec::new();
    for art in program.functions.iter().flat_map(|f| &f.kernels) {
        let report = allocate_registers_with(
            &art.kernel.vir,
            config.reg_cap,
            config.spill_target,
            128,
            config.device.shared_mem_per_sm,
        );
        allocs.push((art, report));
    }
    table.add(row, "regalloc.us", us_since(t));
    let regs = allocs.iter().map(|(_, r)| r.regs_used).max().unwrap_or(0);
    let spilled: usize = allocs.iter().map(|(_, r)| r.spilled.len()).sum();
    table.add(row, "regalloc.regs_used", regs as f64);
    table.add(row, "regalloc.spilled_vregs", spilled as f64);
    for (art, report) in &allocs {
        if *report != art.alloc {
            return Err(format!(
                "{row}: re-allocating `{}` differs from the driver",
                art.kernel.name
            ));
        }
    }
    Ok(())
}
