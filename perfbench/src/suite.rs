//! `paper_suite`: every pass compiles and runs all sixteen SPEC- and
//! NAS-like workloads under `base` and `safara_only` at `Scale::Bench`,
//! in a seeded order, serially. Traced runs also run every cell once on
//! the superblock engine and once on the block-parallel pool, for those
//! layers' numbers.

use crate::layers::{compile_layers, traced_compile, walk_spans, LayerTable};
use crate::metrics::Outcome;
use crate::{geomean, op_failed, plan, report_latency, timed_setup, Ctx};
use safara_core::gpusim::{fusion_counters, Engine, ExecOptions, KernelStats};
use safara_core::obs::{MetaValue, Span, Tracer};
use safara_core::runtime::run_function_traced;
use safara_core::{compile, Args, CompiledProgram, CompilerConfig, DeviceConfig, RunReport};
use safara_workloads::{all_workloads, Scale, Workload};
use std::time::Instant;

const SCALE: Scale = Scale::Bench;
const PROFILES: [&str; 2] = ["base", "safara_only"];
const TAG: u64 = 1;

struct Item {
    w: Box<dyn Workload>,
    source: String,
    args: Args,
}

fn build_items() -> Vec<Item> {
    all_workloads()
        .into_iter()
        .map(|w| {
            let source = w.source();
            let args = w.args(SCALE);
            Item { w, source, args }
        })
        .collect()
}

/// One completed operation.
struct Done {
    program: CompiledProgram,
    report: RunReport,
    total_s: f64,
    sim_s: f64,
}

struct Suite<'a> {
    ctx: &'a Ctx,
    items: Vec<Item>,
    configs: [CompilerConfig; 2],
    dev: DeviceConfig,
    exec: ExecOptions,
    /// Modelled cycles per `[workload][profile]`, from the first run of
    /// each; every later run must reproduce them exactly.
    cycles: Vec<[Option<f64>; 2]>,
    /// Cells whose engine and pool probes were taken (traced runs).
    probed: Vec<[bool; 2]>,
    pass: u64,
    out: Outcome,
    layers: LayerTable,
}

/// Run `paper_suite`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (items, setup_s, setups) = timed_setup(|| Ok(build_items()))?;
    let n = items.len();
    let mut s = Suite {
        ctx,
        items,
        configs: [CompilerConfig::base(), CompilerConfig::safara_only()],
        dev: DeviceConfig::k20xm(),
        exec: ExecOptions::inherit().sim_threads(1),
        cycles: vec![[None; 2]; n],
        probed: vec![[false; 2]; n],
        pass: 0,
        out: Outcome::default(),
        layers: LayerTable::default(),
    };
    s.out.set("setup_s", setup_s);
    s.out
        .line(format!("setup_s {setup_s:.4} (median of {setups} set-ups)"));
    s.out.line(format!(
        "{} workloads x {:?} at Scale::Bench, sim_threads 1, engine {}",
        n,
        PROFILES,
        safara_core::gpusim::current_engine().name()
    ));

    let mut untraced_rate = 0.0;
    for (traced, span) in ctx.phases() {
        let start = Instant::now();
        let (mut lat_ms, mut pass_rates, mut sim_rates) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let p = s.run_pass(traced);
            lat_ms.extend(p.lat_ms.iter().copied());
            if p.busy_s > 0.0 {
                pass_rates.push(p.lat_ms.len() as f64 / p.busy_s);
            }
            if p.sim_s > 0.0 {
                sim_rates.push(p.insts as f64 / p.sim_s / 1e6);
            }
            if start.elapsed() >= span && lat_ms.len() as u64 >= ctx.min_ops() {
                break;
            }
        }
        let ops_per_s = crate::stats::median(&pass_rates).unwrap_or(0.0);
        let minst = crate::stats::median(&sim_rates).unwrap_or(0.0);
        let kind = if traced { "traced" } else { "untraced" };
        s.out.line(format!(
            "{kind} phase: {} passes, {} operations, median pass rate {ops_per_s:.3} ops/s, \
             simulator {minst:.3} Minst/s",
            pass_rates.len(),
            lat_ms.len()
        ));
        if traced {
            let overhead = if untraced_rate > 0.0 {
                1.0 - ops_per_s / untraced_rate
            } else {
                0.0
            };
            s.layers.set("trace.overhead", overhead);
            s.out.line(format!(
                "tracing overhead {:.1}% of untraced ops_per_s",
                overhead * 100.0
            ));
        } else {
            untraced_rate = ops_per_s;
            if !ctx.trace {
                let rates: Vec<String> = pass_rates.iter().map(|r| format!("{r:.2}")).collect();
                s.out
                    .line(format!("pass rates (ops/s): {}", rates.join(" ")));
                report_latency(&mut s.out, &lat_ms, ops_per_s);
                s.out.line(format!("sim_minst_per_s {minst:.3}"));
            }
        }
    }

    let ratios: Vec<f64> = s
        .cycles
        .iter()
        .filter_map(|c| match c {
            [Some(base), Some(safara)] => Some(base / safara),
            _ => None,
        })
        .collect();
    let speedup = geomean(&ratios);
    s.out.set("modelled_speedup_geomean", speedup);
    s.out.line(format!(
        "modelled_speedup_geomean {speedup:.6} over {} workloads",
        ratios.len()
    ));
    if ratios.len() != n {
        s.out.wrong(format!(
            "only {} of {n} workloads ran under both profiles",
            ratios.len()
        ));
    }
    if ctx.trace {
        let (insts, _) = s.layers.sum("sim.warp_insts");
        let (sim_us, _) = s.layers.sum("sim.us");
        if sim_us > 0.0 {
            s.layers.set("sim.minst_per_s", insts / sim_us);
        }
        s.layers.report(&mut s.out);
        s.layers.fill(&mut s.out);
    }
    Ok(s.out)
}

struct PassStats {
    lat_ms: Vec<f64>,
    busy_s: f64,
    sim_s: f64,
    insts: u64,
}

impl Suite<'_> {
    fn run_pass(&mut self, traced: bool) -> PassStats {
        let n = self.items.len();
        let order = plan::pass_order(self.ctx.seed, TAG, self.pass, n, PROFILES.len());
        self.pass += 1;
        let mut stats = PassStats {
            lat_ms: Vec::new(),
            busy_s: 0.0,
            sim_s: 0.0,
            insts: 0,
        };
        // The first output of each workload in this pass; the other
        // profile's output must match it bit for bit.
        let mut first: Vec<Option<(usize, Args)>> = vec![None; n];
        for (wi, ci) in order {
            let row = format!("{} {}", self.items[wi].w.name(), PROFILES[ci]);
            let mut args = self.items[wi].args.clone();
            self.out.attempted += 1;
            let done = if traced {
                self.traced_op(wi, ci, &row, &mut args)
            } else {
                self.op(wi, ci, &mut args)
            };
            let done = match done {
                Ok(d) => d,
                Err(e) => {
                    op_failed(&mut self.out, format!("{row}: {e}"));
                    continue;
                }
            };
            stats.lat_ms.push(done.total_s * 1e3);
            stats.busy_s += done.total_s;
            stats.sim_s += done.sim_s;
            stats.insts += done
                .report
                .kernels
                .iter()
                .map(|k| k.stats.total_issued())
                .sum::<u64>();
            self.check(wi, ci, &row, &args, &done, &mut first);
            if traced && !self.probed[wi][ci] {
                self.probed[wi][ci] = true;
                self.superblock_probe(wi, &row, &done);
                self.pool_probe(wi, &row, &done, &args);
            }
        }
        stats
    }

    /// The timed operation: compile, then run on the configured pool.
    fn op(&self, wi: usize, ci: usize, args: &mut Args) -> Result<Done, String> {
        let item = &self.items[wi];
        let t0 = Instant::now();
        let program = compile(&item.source, &self.configs[ci]).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let report = self
            .exec
            .scope(|| program.run(item.w.entry(), args, &self.dev))
            .map_err(|e| e.to_string())?;
        let sim_s = t1.elapsed().as_secs_f64();
        Ok(Done {
            program,
            report,
            total_s: t0.elapsed().as_secs_f64(),
            sim_s,
        })
    }

    /// The traced operation: `compile_traced`, then a traced run through
    /// the runtime. Only those two calls are timed; the per-layer calls
    /// into the compiler run after them.
    fn traced_op(
        &mut self,
        wi: usize,
        ci: usize,
        row: &str,
        args: &mut Args,
    ) -> Result<Done, String> {
        let (source, config) = (&self.items[wi].source, &self.configs[ci]);
        let t0 = Instant::now();
        let (program, compile_spans) = traced_compile(source, config)?;
        let t1 = Instant::now();
        let (report, spans) = self.traced_run(&program, wi, args, self.exec)?;
        let sim_s = t1.elapsed().as_secs_f64();
        let total_s = t0.elapsed().as_secs_f64();
        if let Err(e) = compile_layers(
            source,
            config,
            row,
            &program,
            &compile_spans,
            &mut self.layers,
        ) {
            self.out.wrong(e);
        }
        let (mut launch_us, mut h2d_us, mut d2h_us) = (0.0, 0.0, 0.0);
        walk_spans(&spans, &mut |s| match s.name.as_str() {
            "launch" => launch_us += s.dur_us as f64,
            "h2d" => h2d_us += s.dur_us as f64,
            "d2h" => d2h_us += s.dur_us as f64,
            _ => {}
        });
        let insts: u64 = report.kernels.iter().map(|k| k.stats.total_issued()).sum();
        self.layers.add(row, "sim.us", launch_us);
        self.layers.add(row, "sim.warp_insts", insts as f64);
        self.layers.add(row, "runtime.h2d_us", h2d_us);
        self.layers.add(row, "runtime.d2h_us", d2h_us);
        Ok(Done {
            program,
            report,
            total_s,
            sim_s,
        })
    }

    /// Run workload `wi`'s entry of `program` through the runtime's
    /// traced entry point under `exec`, returning its report and spans.
    fn traced_run(
        &self,
        program: &CompiledProgram,
        wi: usize,
        args: &mut Args,
        exec: ExecOptions,
    ) -> Result<(RunReport, Vec<Span>), String> {
        let f = program
            .function(self.items[wi].w.entry())
            .map_err(|e| e.to_string())?;
        let compiled: Vec<_> = f
            .kernels
            .iter()
            .map(|k| (k.kernel.clone(), k.alloc.clone()))
            .collect();
        let mut tracer = Tracer::new();
        let report = exec
            .scope(|| {
                run_function_traced(
                    &self.dev,
                    &f.transformed,
                    &compiled,
                    args,
                    None,
                    &mut tracer,
                )
            })
            .map_err(|e| e.to_string())?;
        Ok((report, tracer.finish()))
    }

    /// Checks, outside the timed region.
    fn check(
        &mut self,
        wi: usize,
        ci: usize,
        row: &str,
        args: &Args,
        done: &Done,
        first: &mut [Option<(usize, Args)>],
    ) {
        let item = &self.items[wi];
        if let Err(e) = item.w.check(args, SCALE) {
            self.out.wrong(format!("{row}: reference check: {e}"));
        }
        let cycles = done.report.total_cycles();
        match self.cycles[wi][ci] {
            None => self.cycles[wi][ci] = Some(cycles),
            Some(c) if c.to_bits() != cycles.to_bits() => self
                .out
                .wrong(format!("{row}: modelled cycles changed between runs")),
            Some(_) => {}
        }
        match &first[wi] {
            Some((other, out)) if out.arrays != args.arrays => self.out.wrong(format!(
                "{row}: output arrays differ from {}",
                PROFILES[*other]
            )),
            Some(_) => {}
            None => first[wi] = Some((ci, args.clone())),
        }
    }

    /// Run the operation's program once on the superblock engine and
    /// record that engine's fusion counters; its outputs must equal the
    /// default engine's.
    fn superblock_probe(&mut self, wi: usize, row: &str, done: &Done) {
        let item = &self.items[wi];
        let mut args = item.args.clone();
        let before = fusion_counters();
        let r = self
            .exec
            .engine(Engine::Superblock)
            .scope(|| done.program.run(item.w.entry(), &mut args, &self.dev));
        let after = fusion_counters();
        let r = match r {
            Ok(r) => r,
            Err(e) => return self.out.wrong(format!("{row}: superblock run failed: {e}")),
        };
        if stats_of(&r) != stats_of(&done.report) || item.w.check(&args, SCALE).is_err() {
            self.out.wrong(format!(
                "{row}: superblock engine disagrees with the default engine"
            ));
        }
        let insts: u64 = r.kernels.iter().map(|k| k.stats.total_issued()).sum();
        let fused =
            (after.vector_execs - before.vector_execs) + (after.scalar_execs - before.scalar_execs);
        self.layers.add(
            row,
            "sim.sb_vector_execs",
            (after.vector_execs - before.vector_execs) as f64,
        );
        self.layers.add(
            row,
            "sim.sb_scalar_execs",
            (after.scalar_execs - before.scalar_execs) as f64,
        );
        self.layers
            .add(row, "sim.sb_peels", (after.peels - before.peels) as f64);
        self.layers.add(
            row,
            "sim.sb_delegated",
            (after.delegated - before.delegated) as f64,
        );
        self.layers.add(
            row,
            "sim.sb_fused_share",
            if insts > 0 {
                fused as f64 / insts as f64
            } else {
                0.0
            },
        );
    }

    /// Run the operation's program once, traced, on the two-thread
    /// block-parallel pool: the pool layer's numbers. Outputs and stats
    /// must equal the operation's.
    fn pool_probe(&mut self, wi: usize, row: &str, done: &Done, op_args: &Args) {
        let mut args = self.items[wi].args.clone();
        let exec = ExecOptions::inherit().sim_threads(2);
        let (report, spans) = match self.traced_run(&done.program, wi, &mut args, exec) {
            Ok(r) => r,
            Err(e) => return self.out.wrong(format!("{row}: pooled run failed: {e}")),
        };
        if stats_of(&report) != stats_of(&done.report) || args.arrays != op_args.arrays {
            self.out.wrong(format!(
                "{row}: pooled outputs or stats differ from the operation's"
            ));
        }
        let mut pool_us = 0.0;
        walk_spans(&spans, &mut |s| {
            if s.name == "launch" {
                pool_us += s.dur_us as f64;
                if let Some(MetaValue::Float(x)) = s.meta_get("imbalance") {
                    self.layers.add(row, "pool.imbalance", *x);
                }
            }
        });
        self.layers.add(row, "pool.sim_us", pool_us);
    }
}

fn stats_of(r: &RunReport) -> Vec<KernelStats> {
    r.kernels.iter().map(|k| k.stats).collect()
}
