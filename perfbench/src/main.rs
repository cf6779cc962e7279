//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its report, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`:
//! every end-to-end metric, or with `--trace 1` every per-layer metric.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::Ctx;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(ctx.seconds.is_finite() && ctx.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if ctx.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(ctx)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8
    );
    let outcome = match perfbench::run(&ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.report {
        println!("{line}");
    }
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    for w in outcome.wrong.iter().take(10) {
        println!("WRONG {w}");
    }
    match outcome.result_json(if ctx.trace { PER_LAYER } else { END_TO_END }) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
