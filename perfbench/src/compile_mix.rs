//! `compile_mix`: every pass compiles, without simulating, the sixteen
//! workload sources under seven profiles in a seeded order. Each
//! distinct program is then run once at `Scale::Test`, outside the
//! timed region, and checked against the workload's Rust reference.

use crate::layers::{compile_layers, traced_compile, LayerTable};
use crate::metrics::Outcome;
use crate::{geomean, op_failed, plan, report_latency, timed_setup, Ctx};
use safara_core::{compile, CompiledProgram, CompilerConfig, DeviceConfig};
use safara_workloads::{all_workloads, Scale, Workload};
use std::time::Instant;

const TAG: u64 = 2;

/// The profiles, by wire name.
pub const PROFILES: [&str; 7] = [
    "base",
    "carr_kennedy",
    "safara_only",
    "safara_clauses",
    "safara_throughput",
    "safara_regdem",
    "safara_saturated",
];

fn configs() -> Vec<CompilerConfig> {
    vec![
        CompilerConfig::base(),
        CompilerConfig::carr_kennedy(),
        CompilerConfig::safara_only(),
        CompilerConfig::safara_clauses(),
        CompilerConfig::safara_throughput(),
        CompilerConfig::safara_regdem(),
        CompilerConfig::safara_saturated(),
    ]
}

struct Inputs {
    workloads: Vec<Box<dyn Workload>>,
    sources: Vec<String>,
    configs: Vec<CompilerConfig>,
}

/// Run `compile_mix`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Set-up builds the inputs and warms the compiler with one untimed
    // `base` compile of every source.
    let (inp, setup_s, setups) = timed_setup(|| {
        let workloads = all_workloads();
        let sources: Vec<String> = workloads.iter().map(|w| w.source()).collect();
        for (w, source) in workloads.iter().zip(&sources) {
            compile(source, &CompilerConfig::base())
                .map_err(|e| format!("warm-up {}: {e}", w.name()))?;
        }
        Ok(Inputs {
            workloads,
            sources,
            configs: configs(),
        })
    })?;
    let (rows, cols) = (inp.workloads.len(), inp.configs.len());
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    out.line(format!("setup_s {setup_s:.4} (median of {setups} set-ups)"));
    out.line(format!(
        "{rows} sources x {cols} profiles {PROFILES:?}, compile only"
    ));

    let mut layers = LayerTable::default();
    // The first program built for each cell; every later compile of
    // the cell must reproduce it exactly.
    let mut programs: Vec<Option<CompiledProgram>> = vec![None; rows * cols];
    let mut pass = 0u64;
    let mut untraced_rate = 0.0;
    for (traced, span) in ctx.phases() {
        let start = Instant::now();
        let (mut lat_ms, mut pass_rates) = (Vec::new(), Vec::new());
        loop {
            let mut busy = 0.0;
            let mut done = 0usize;
            for (wi, ci) in plan::pass_order(ctx.seed, TAG, pass, rows, cols) {
                let row = format!("{} {}", inp.workloads[wi].name(), PROFILES[ci]);
                out.attempted += 1;
                let (source, config) = (&inp.sources[wi], &inp.configs[ci]);
                let t = Instant::now();
                let program = if traced {
                    traced_compile(source, config).map(|(p, spans)| (p, Some(spans)))
                } else {
                    compile(source, config)
                        .map(|p| (p, None))
                        .map_err(|e| e.to_string())
                };
                let secs = t.elapsed().as_secs_f64();
                let (program, spans) = match program {
                    Ok(p) => p,
                    Err(e) => {
                        op_failed(&mut out, format!("{row}: {e}"));
                        continue;
                    }
                };
                lat_ms.push(secs * 1e3);
                busy += secs;
                done += 1;
                if let Some(spans) = spans {
                    if let Err(e) =
                        compile_layers(source, config, &row, &program, &spans, &mut layers)
                    {
                        out.wrong(e);
                    }
                }
                let cell = &mut programs[wi * cols + ci];
                match cell {
                    None => *cell = Some(program),
                    Some(p) if *p != program => {
                        out.wrong(format!("{row}: compiling again gave a different program"))
                    }
                    Some(_) => {}
                }
            }
            pass += 1;
            if busy > 0.0 {
                pass_rates.push(done as f64 / busy);
            }
            if start.elapsed() >= span && lat_ms.len() as u64 >= ctx.min_ops() {
                break;
            }
        }
        let ops_per_s = crate::stats::median(&pass_rates).unwrap_or(0.0);
        let kind = if traced { "traced" } else { "untraced" };
        out.line(format!(
            "{kind} phase: {} passes, {} compiles, median pass rate {ops_per_s:.3} compiles/s",
            pass_rates.len(),
            lat_ms.len()
        ));
        if traced {
            let overhead = if untraced_rate > 0.0 {
                1.0 - ops_per_s / untraced_rate
            } else {
                0.0
            };
            layers.set("trace.overhead", overhead);
            out.line(format!(
                "tracing overhead {:.1}% of untraced ops_per_s",
                overhead * 100.0
            ));
        } else {
            untraced_rate = ops_per_s;
            if !ctx.trace {
                let rates: Vec<String> = pass_rates.iter().map(|r| format!("{r:.2}")).collect();
                out.line(format!("pass rates (ops/s): {}", rates.join(" ")));
                report_latency(&mut out, &lat_ms, ops_per_s);
            }
        }
    }

    // Checks: run every distinct program once at Scale::Test.
    let dev = DeviceConfig::k20xm();
    let mut cycles = vec![0.0f64; rows * cols];
    for (cell, program) in programs.iter().enumerate() {
        let (wi, ci) = (cell / cols, cell % cols);
        let w = &inp.workloads[wi];
        let Some(program) = program else { continue };
        let mut args = w.args(Scale::Test);
        match program.run(w.entry(), &mut args, &dev) {
            Ok(r) => cycles[cell] = r.total_cycles(),
            Err(e) => {
                out.wrong(format!(
                    "{} {}: test-scale run failed: {e}",
                    w.name(),
                    PROFILES[ci]
                ));
                continue;
            }
        }
        if let Err(e) = w.check(&args, Scale::Test) {
            out.wrong(format!(
                "{} {}: reference check: {e}",
                w.name(),
                PROFILES[ci]
            ));
        }
    }
    let (base, safara) = (0, 2);
    let ratios: Vec<f64> = (0..rows)
        .filter(|wi| cycles[wi * cols + base] > 0.0 && cycles[wi * cols + safara] > 0.0)
        .map(|wi| cycles[wi * cols + base] / cycles[wi * cols + safara])
        .collect();
    let speedup = geomean(&ratios);
    out.set("modelled_speedup_geomean", speedup);
    out.line(format!(
        "modelled_speedup_geomean {speedup:.6} (base over safara_only at Scale::Test, {} workloads)",
        ratios.len()
    ));
    if ratios.len() != rows {
        out.wrong(format!(
            "only {} of {rows} workloads ran under both profiles",
            ratios.len()
        ));
    }
    if ctx.trace {
        layers.report(&mut out);
        layers.fill(&mut out);
    }
    Ok(out)
}
