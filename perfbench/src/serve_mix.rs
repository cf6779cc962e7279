//! `serve_mix`: an in-process `safara-serve` on loopback TCP with the
//! default workers, driven in a closed loop by two blocking clients,
//! each waiting for its reply before it sends the next request.
//!
//! Most requests repeat a key warmed during set-up (a SPEC-like source
//! at `Scale::Test` under one of three profiles, arrays returned). A
//! seeded minority carries a never-seen content key: a saxpy kernel with
//! a fresh `alpha`, so memo inserts run beside memo replays.

use crate::layers::{us_since, walk_spans, LayerTable};
use crate::metrics::Outcome;
use crate::plan::{self, ServeOp};
use crate::{geomean, op_failed, report_latency, timed_setup, Ctx};
use safara_client::Client;
use safara_core::codegen::abi::AbiParam;
use safara_core::gpusim::interp::ParamVal;
use safara_core::gpusim::memo::launch_key;
use safara_core::gpusim::{launch, DeviceMemory, LaunchConfig};
use safara_core::obs::Tracer;
use safara_core::runtime::{run_function_traced, ArgValue, HostArray};
use safara_core::SharedLaunchCache;
use safara_core::{compile_and_run, Args, CompiledProgram, DeviceConfig, RunOutcome};
use safara_server::json::Json;
use safara_server::protocol::{build_run_request_v, parse_request, resolve_profile, run_response};
use safara_server::service::EngineConfig;
use safara_server::{serve, ServerHandle};
use safara_workloads::{spec_suite, Scale, Workload};
use std::time::{Duration, Instant};

/// Profiles of the warm keys, by wire name.
pub const WARM_PROFILES: [&str; 3] = ["base", "safara_only", "safara_saturated"];
/// Blocking client connections.
pub const CLIENTS: usize = 2;
/// Elements of the fresh-key saxpy kernel.
pub const SAXPY_N: usize = 256;
/// The fresh-key kernel: `y = x·alpha + 1`.
pub const SAXPY: &str = r#"
void saxpy1(int n, float alpha, const float x[n], float y[n]) {
  #pragma acc kernels copyin(x) copy(y)
  {
    #pragma acc loop gang vector
    for (int i = 0; i < n; i++) { y[i] = x[i] * alpha + 1.0f; }
  }
}"#;
/// Per-layer table row of the fresh-key requests.
const SAXPY_ROW: &str = "saxpy fresh";
/// `alpha` of the saxpy request sent during set-up; run-time `alpha`s
/// lie in `[1, 2)`, so it is never repeated.
const WARM_ALPHA: f32 = 0.5;
/// Timings of each memo path per fresh request in a traced run.
const MEMO_REPS: usize = 3;

/// A warm key: workload `wi` of the SPEC-like suite under `profile`.
struct Key {
    wi: usize,
    name: &'static str,
    entry: &'static str,
    source: String,
    profile: &'static str,
    args: Args,
}

impl Key {
    fn row(&self) -> String {
        format!("{} {}", self.name, self.profile)
    }
}

/// A started server, its clients, and the set-up replies of the warm
/// keys.
struct Live {
    handle: Option<ServerHandle>,
    clients: Vec<Client>,
    workloads: Vec<Box<dyn Workload>>,
    keys: Vec<Key>,
    x: Vec<f32>,
    warm: Vec<Json>,
}

impl Drop for Live {
    fn drop(&mut self) {
        // Close the connections first so the server's connection
        // threads see end-of-file, then drain and join the server.
        self.clients.clear();
        if let Some(h) = self.handle.take() {
            h.stop();
        }
    }
}

fn saxpy_args(x: &[f32], alpha: f32) -> Args {
    Args::new()
        .i32("n", x.len() as i32)
        .f32("alpha", alpha)
        .array_f32("x", x)
        .array_f32("y", &vec![0.0; x.len()])
}

/// `x·alpha + 1` in `f32`, as the kernel computes it.
pub fn saxpy_expected(x: &[f32], alpha: f32) -> Vec<u32> {
    x.iter().map(|v| (v * alpha + 1.0).to_bits()).collect()
}

fn start(seed: u64) -> Result<Live, String> {
    let workloads = spec_suite();
    let mut keys = Vec::new();
    for (wi, w) in workloads.iter().enumerate() {
        for profile in WARM_PROFILES {
            let (source, args) = (w.source(), w.args(Scale::Test));
            keys.push(Key {
                wi,
                name: w.name(),
                entry: w.entry(),
                source,
                profile,
                args,
            });
        }
    }
    let mut rng = plan::stream(seed, 1, 0);
    let x: Vec<f32> = (0..SAXPY_N).map(|_| rng.gen_range_f32(-1.0, 1.0)).collect();

    let handle =
        serve("127.0.0.1:0", EngineConfig::default()).map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr;
    let mut live = Live {
        handle: Some(handle),
        clients: Vec::new(),
        workloads,
        keys,
        x,
        warm: Vec::new(),
    };
    for _ in 0..CLIENTS {
        live.clients
            .push(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    // Warm every key, the clients taking turns, then the saxpy program.
    let replies: Vec<Result<Json, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let live = &live;
                s.spawn(move || {
                    (c..live.keys.len())
                        .step_by(CLIENTS)
                        .map(|k| {
                            let key = &live.keys[k];
                            let r = live.clients[c]
                                .run(&key.source, key.entry, key.profile, &key.args, true)
                                .map_err(|e| format!("warm {}: {e:?}", key.row()));
                            (k, r)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(usize, Result<Json, String>)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up thread"))
            .collect();
        all.sort_by_key(|(k, _)| *k);
        all.into_iter().map(|(_, r)| r).collect()
    });
    live.warm = replies.into_iter().collect::<Result<_, _>>()?;
    live.clients[0]
        .run(
            SAXPY,
            "saxpy1",
            "base",
            &saxpy_args(&live.x, WARM_ALPHA),
            true,
        )
        .map_err(|e| format!("warm saxpy: {e:?}"))?;
    Ok(live)
}

/// What the loop keeps of one reply; checks run after the loop.
enum Kept {
    Warm { digests: String, cycles: u64 },
    Fresh { y: Vec<u32> },
}

struct Sample {
    op: ServeOp,
    rtt_us: f64,
    reply: Result<Kept, String>,
}

fn keep(op: ServeOp, reply: &Json) -> Result<Kept, String> {
    if reply.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("status not ok: {reply}"));
    }
    Ok(match op {
        ServeOp::Warm(_) => Kept::Warm {
            digests: reply.get("digests").map(Json::dump).unwrap_or_default(),
            cycles: reply
                .get("total_cycles")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
                .to_bits(),
        },
        ServeOp::Fresh(_) => Kept::Fresh {
            y: reply
                .get("arrays")
                .and_then(|a| a.get("y"))
                .and_then(|y| y.get("bits"))
                .and_then(Json::as_arr)
                .ok_or("reply without y bits")?
                .iter()
                .map(|b| b.as_i64().unwrap_or(-1) as u32)
                .collect(),
        },
    })
}

/// Local copies of what the server computes for each key, for the
/// traced run's wire and runtime probes.
struct Local {
    outcomes: Vec<(RunOutcome, Args)>,
    saxpy: CompiledProgram,
    saxpy_outcome: (RunOutcome, Args),
}

/// One per-layer sample of a traced request: input row, metric, value.
type ProbeSample = (String, &'static str, f64);

/// What a traced phase's probes took: per-layer samples, and the probes
/// that failed (the memo's miss-then-hit check among them).
#[derive(Default)]
struct Probes {
    samples: Vec<ProbeSample>,
    errors: Vec<String>,
}

/// One closed-loop phase. Returns the samples, the wall time, and (when
/// probing) what each request's probe took.
fn closed_loop(
    live: &Live,
    seed: u64,
    span: Duration,
    min_ops: u64,
    rounds: &mut [u64; CLIENTS],
    local: Option<&Local>,
) -> (Vec<Sample>, f64, Probes) {
    let start = Instant::now();
    let per_client = min_ops.div_ceil(CLIENTS as u64);
    let results: Vec<(Vec<Sample>, u64, Probes)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut round = rounds[c];
                s.spawn(move || {
                    let client = &live.clients[c];
                    let (mut samples, mut probes) = (Vec::new(), Probes::default());
                    loop {
                        for op in plan::serve_round(seed, c, round, live.keys.len()) {
                            let fresh;
                            let (source, entry, profile, args) = match op {
                                ServeOp::Warm(k) => {
                                    let key = &live.keys[k];
                                    (key.source.as_str(), key.entry, key.profile, &key.args)
                                }
                                ServeOp::Fresh(alpha) => {
                                    fresh = saxpy_args(&live.x, alpha);
                                    (SAXPY, "saxpy1", "base", &fresh)
                                }
                            };
                            if let Some(local) = local {
                                let r = probe(
                                    live,
                                    local,
                                    op,
                                    source,
                                    entry,
                                    profile,
                                    args,
                                    &mut probes.samples,
                                );
                                if let Err(e) = r {
                                    probes.errors.push(e);
                                }
                            }
                            let t = Instant::now();
                            let r = client.run(source, entry, profile, args, true);
                            let rtt_us = us_since(t);
                            let reply = match r {
                                Ok(j) => keep(op, &j),
                                Err(e) => Err(format!("{e:?}")),
                            };
                            samples.push(Sample { op, rtt_us, reply });
                        }
                        round += 1;
                        if start.elapsed() >= span && samples.len() as u64 >= per_client {
                            break;
                        }
                    }
                    (samples, round, probes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let (mut samples, mut probes) = (Vec::new(), Probes::default());
    for (c, (s, round, p)) in results.into_iter().enumerate() {
        rounds[c] = round;
        samples.extend(s);
        probes.samples.extend(p.samples);
        probes.errors.extend(p.errors);
    }
    (samples, wall, probes)
}

/// The traced run's per-request probes, taken in the benchmark around
/// the wire codec's and the memo's public functions, outside the timed
/// round trip. An error is a check that did not hold.
#[allow(clippy::too_many_arguments)]
fn probe(
    live: &Live,
    local: &Local,
    op: ServeOp,
    source: &str,
    entry: &str,
    profile: &str,
    args: &Args,
    probes: &mut Vec<ProbeSample>,
) -> Result<(), String> {
    let (row, (outcome, after)) = match op {
        ServeOp::Warm(k) => (live.keys[k].row(), &local.outcomes[k]),
        ServeOp::Fresh(_) => (SAXPY_ROW.to_string(), &local.saxpy_outcome),
    };
    let line = build_run_request_v(2, 1, source, entry, profile, args, true);
    let t = Instant::now();
    let request = std::hint::black_box(parse_request(&line));
    probes.push((row.clone(), "wire.decode_us", us_since(t)));
    request.map_err(|e| format!("{row}: parse_request refused the request: {e}"))?;
    let t = Instant::now();
    let resp = run_response(Some(1), outcome, after, true, None);
    probes.push((row.clone(), "wire.encode_us", us_since(t)));
    probes.push((row.clone(), "wire.resp_kb", resp.len() as f64 / 1024.0));
    if let ServeOp::Fresh(alpha) = op {
        let samples = memo_probe(live, local, alpha)
            .map_err(|e| format!("memo probe, alpha {alpha}: {e}"))?;
        for (metric, v) in samples {
            probes.push((row.clone(), metric, v));
        }
    }
    Ok(())
}

/// Launch inputs of the saxpy kernel for `alpha`, laid out as the
/// runtime lays them out.
fn saxpy_launch(
    local: &Local,
    x: &[f32],
    alpha: f32,
) -> Result<(DeviceMemory, Vec<ParamVal>), String> {
    let art = &local.saxpy.functions[0].kernels[0];
    let mut mem = DeviceMemory::new();
    let xb = mem.alloc(x.len() * 4);
    mem.copy_in(
        xb,
        &x.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>(),
    );
    let yb = mem.alloc(x.len() * 4);
    mem.copy_in(yb, &vec![0u8; x.len() * 4]);
    let params = art
        .kernel
        .abi
        .params
        .iter()
        .map(|p| match p {
            AbiParam::Scalar { name, .. } if name.as_str() == "n" => {
                Ok(ParamVal::I32(x.len() as i32))
            }
            AbiParam::Scalar { name, .. } if name.as_str() == "alpha" => Ok(ParamVal::F32(alpha)),
            AbiParam::ArrayBase { array } if array.as_str() == "x" => {
                Ok(ParamVal::Ptr(mem.base_addr(xb)))
            }
            AbiParam::ArrayBase { array } if array.as_str() == "y" => {
                Ok(ParamVal::Ptr(mem.base_addr(yb)))
            }
            other => Err(format!("unexpected saxpy parameter {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    Ok((mem, params))
}

/// Internal probe series, reduced to `memo.insert_us` at the end of the
/// phase: a memo miss, and a key computation followed by a plain launch.
const MISS: &str = "memo-miss";
const KEY_LAUNCH: &str = "memo-key-launch";

/// Time the memo's key, miss-and-insert and hit paths on one fresh
/// saxpy launch against a private cache, [`MEMO_REPS`] times.
///
/// The insert's own cost is a few microseconds beside a launch that
/// varies by a hundred, so it is taken from the fastest miss of the
/// phase minus the fastest key-then-launch of the same inputs. Both
/// hash the buffers before launching, so both launch from warm caches.
fn memo_probe(live: &Live, local: &Local, alpha: f32) -> Result<Vec<(&'static str, f64)>, String> {
    let art = &local.saxpy.functions[0].kernels[0];
    let k = &local.saxpy_outcome.0.kernels[0];
    let config = LaunchConfig {
        grid: k.grid,
        block: k.block,
        sim_threads: None,
    };
    let (vir, spilled) = (&art.kernel.vir, &art.alloc.spilled);
    let mut samples = Vec::new();
    for _ in 0..MEMO_REPS {
        let (mut mem, params) = saxpy_launch(local, &live.x, alpha)?;
        let t = Instant::now();
        std::hint::black_box(launch_key(vir, &config, &params, &mem, spilled));
        samples.push(("memo.key_us", us_since(t)));
        launch(vir, &config, &params, &mut mem, spilled).map_err(|e| e.to_string())?;
        samples.push((KEY_LAUNCH, us_since(t)));

        let cache = SharedLaunchCache::new(1);
        for (metric, want_hit) in [(MISS, false), ("memo.hit_us", true)] {
            let (mut mem, params) = saxpy_launch(local, &live.x, alpha)?;
            let t = Instant::now();
            let (_, hit) = cache
                .launch_cached_info(vir, &config, &params, &mut mem, spilled)
                .map_err(|e| e.to_string())?;
            samples.push((metric, us_since(t)));
            if hit != want_hit {
                return Err("expected a miss, then a hit".into());
            }
        }
    }
    Ok(samples)
}

/// Compile and run every key locally, recording the runtime's transfer
/// spans per key.
fn local_copies(live: &Live, layers: &mut LayerTable) -> Result<Local, String> {
    let dev = DeviceConfig::k20xm();
    let mut run_local = |row: &str, source: &str, entry: &str, profile: &str, args: &Args| {
        let config = resolve_profile(profile).map_err(|e| format!("profile {profile}: {e:?}"))?;
        let mut after = args.clone();
        let (program, outcome) = compile_and_run(source, entry, &config, &mut after, &dev, None)
            .map_err(|e| e.to_string())?;
        let f = program.function(entry).map_err(|e| e.to_string())?;
        let compiled: Vec<_> = f
            .kernels
            .iter()
            .map(|k| (k.kernel.clone(), k.alloc.clone()))
            .collect();
        let mut tracer = Tracer::new();
        let mut again = args.clone();
        run_function_traced(
            &dev,
            &f.transformed,
            &compiled,
            &mut again,
            None,
            &mut tracer,
        )
        .map_err(|e| e.to_string())?;
        walk_spans(&tracer.finish(), &mut |s| match s.name.as_str() {
            "h2d" => layers.add(row, "runtime.h2d_us", s.dur_us as f64),
            "d2h" => layers.add(row, "runtime.d2h_us", s.dur_us as f64),
            _ => {}
        });
        Ok::<_, String>((program, outcome, after))
    };
    let mut outcomes = Vec::new();
    for key in &live.keys {
        let (_, outcome, after) =
            run_local(&key.row(), &key.source, key.entry, key.profile, &key.args)?;
        outcomes.push((outcome, after));
    }
    let (saxpy, outcome, after) = run_local(
        SAXPY_ROW,
        SAXPY,
        "saxpy1",
        "base",
        &saxpy_args(&live.x, WARM_ALPHA),
    )?;
    Ok(Local {
        outcomes,
        saxpy,
        saxpy_outcome: (outcome, after),
    })
}

/// Post-run arguments from a reply: the request's arguments with every
/// returned array and scalar decoded from its bit-exact encoding.
fn rebuild_args(request: &Args, reply: &Json) -> Result<Args, String> {
    let mut after = request.clone();
    let arrays = reply.get("arrays").ok_or("reply without arrays")?;
    for (name, arr) in after.arrays.iter_mut() {
        let payload = arrays
            .get(name.as_str())
            .ok_or(format!("array `{name}` not returned"))?;
        let bits = payload
            .get("bits")
            .and_then(Json::as_arr)
            .ok_or("array without bits")?;
        *arr = match payload.get("elem").and_then(Json::as_str) {
            Some("f32") => HostArray::from_f32_bits(
                &bits
                    .iter()
                    .map(|b| b.as_i64().unwrap_or(0) as u32)
                    .collect::<Vec<_>>(),
            ),
            Some("f64") => HostArray::from_f64_bits(
                &bits
                    .iter()
                    .map(|b| b.as_str().and_then(hex_bits).unwrap_or(0))
                    .collect::<Vec<_>>(),
            ),
            _ => HostArray::from_i32(
                &bits
                    .iter()
                    .map(|b| b.as_i64().unwrap_or(0) as i32)
                    .collect::<Vec<_>>(),
            ),
        };
    }
    let scalars = reply.get("scalars").ok_or("reply without scalars")?;
    for (name, value) in after.scalars.iter_mut() {
        let Some(v) = scalars.get(name.as_str()) else {
            continue;
        };
        let decoded = match (v, v.get("bits")) {
            (Json::Int(i), _) => ArgValue::I64(*i),
            (_, Some(Json::Int(b))) => ArgValue::F32(f32::from_bits(*b as u32)),
            (_, Some(Json::Str(s))) => {
                ArgValue::F64(f64::from_bits(hex_bits(s).ok_or("bad f64 bits")?))
            }
            _ => return Err(format!("scalar `{name}`: unknown encoding {v}")),
        };
        *value = match value {
            ArgValue::I32(_) => ArgValue::I32(decoded.as_i64() as i32),
            ArgValue::I64(_) => ArgValue::I64(decoded.as_i64()),
            ArgValue::F32(_) => ArgValue::F32(decoded.as_f64() as f32),
            ArgValue::F64(_) => ArgValue::F64(decoded.as_f64()),
        };
    }
    Ok(after)
}

fn hex_bits(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// Server counters the traced run reads over the wire.
struct Snapshot(Json);

impl Snapshot {
    fn int(&self, path: &[&str]) -> f64 {
        let mut v = &self.0;
        for p in path {
            match v.get(p) {
                Some(next) => v = next,
                None => return 0.0,
            }
        }
        v.as_f64().unwrap_or(0.0)
    }

    /// Mean of histogram `h` over the samples added since `before`.
    fn mean_since(&self, before: &Snapshot, h: &str) -> f64 {
        let count = |s: &Snapshot| s.int(&["latency", h, "count"]);
        let total = |s: &Snapshot| s.int(&["latency", h, "mean_us"]) * count(s);
        let n = count(self) - count(before);
        if n > 0.0 {
            (total(self) - total(before)) / n
        } else {
            0.0
        }
    }
}

/// Run `serve_mix`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (live, setup_s, setups) = timed_setup(|| start(ctx.seed))?;
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    out.line(format!(
        "setup_s {setup_s:.4} (median of {setups} set-ups: server start, {} warm keys, saxpy program)",
        live.keys.len()
    ));
    out.line(format!(
        "{CLIENTS} blocking clients, rounds of {} requests with {} fresh keys, default workers",
        plan::SERVE_ROUND,
        plan::SERVE_FRESH_PER_ROUND
    ));

    let mut layers = LayerTable::default();
    let mut rounds = [0u64; CLIENTS];
    let mut samples = Vec::new();
    let mut untraced_rate = 0.0;
    for (traced, span) in ctx.phases() {
        let (local, before) = if traced {
            let local = local_copies(&live, &mut layers)?;
            let stats = live.clients[0]
                .stats()
                .map_err(|e| format!("stats: {e:?}"))?;
            (Some(local), Some(Snapshot(stats)))
        } else {
            (None, None)
        };
        let (phase, wall, probes) = closed_loop(
            &live,
            ctx.seed,
            span,
            ctx.min_ops(),
            &mut rounds,
            local.as_ref(),
        );
        let ops_per_s = phase.len() as f64 / wall;
        out.line(format!(
            "{} phase: {} requests in {wall:.3} s, {ops_per_s:.3} requests/s",
            if traced { "traced" } else { "untraced" },
            phase.len()
        ));
        if let Some(before) = before {
            let after = Snapshot(
                live.clients[0]
                    .stats()
                    .map_err(|e| format!("stats: {e:?}"))?,
            );
            for e in probes.errors {
                out.wrong(e);
            }
            let (mut miss, mut key_launch) = (f64::INFINITY, f64::INFINITY);
            for (row, metric, v) in probes.samples {
                match metric {
                    MISS => miss = miss.min(v),
                    KEY_LAUNCH => key_launch = key_launch.min(v),
                    _ => layers.add(&row, metric, v),
                }
            }
            if miss.is_finite() && key_launch.is_finite() {
                layers.set("memo.insert_us", miss - key_launch);
            }
            let rtt_us = phase.iter().map(|s| s.rtt_us).sum::<f64>() / phase.len().max(1) as f64;
            let queue = after.mean_since(&before, "queue_wait");
            let service = after.mean_since(&before, "service");
            let write = after.mean_since(&before, "reply_write");
            let delta = |path: &[&str]| after.int(path) - before.int(path);
            layers.set("server.queue_wait_us", queue);
            layers.set("server.service_us", service);
            layers.set("server.reply_write_us", write);
            layers.set("server.coalesced", delta(&["server", "coalesced"]));
            layers.set("server.batches", delta(&["batches", "count"]));
            layers.set("memo.hits", delta(&["cache", "hits"]));
            layers.set("memo.misses", delta(&["cache", "misses"]));
            layers.set("memo.evictions", delta(&["cache", "evictions"]));
            layers.set("transport.gap_us", rtt_us - queue - service - write);
            let overhead = if untraced_rate > 0.0 {
                1.0 - ops_per_s / untraced_rate
            } else {
                0.0
            };
            layers.set("trace.overhead", overhead);
            out.line(format!(
                "round trip {rtt_us:.1} us = queue wait {queue:.1} + service {service:.1} + reply write \
                 {write:.1} + transport gap {:.1}",
                rtt_us - queue - service - write
            ));
            out.line(format!(
                "tracing overhead {:.1}% of untraced ops_per_s",
                overhead * 100.0
            ));
        } else {
            untraced_rate = ops_per_s;
            if !ctx.trace {
                let lat_ms: Vec<f64> = phase.iter().map(|s| s.rtt_us / 1e3).collect();
                report_latency(&mut out, &lat_ms, ops_per_s);
            }
        }
        samples.extend(phase);
    }

    check(&live, &samples, &mut out);
    if ctx.trace {
        layers.report(&mut out);
        layers.fill(&mut out);
    }
    Ok(out)
}

/// Checks, after the timed loop: every set-up reply passes its
/// workload's reference check, every repeat of a key returns the same
/// arrays and cycles as its set-up reply, and every fresh reply equals
/// `x·alpha + 1` computed here.
fn check(live: &Live, samples: &[Sample], out: &mut Outcome) {
    let mut warm = Vec::new();
    for (key, reply) in live.keys.iter().zip(&live.warm) {
        match rebuild_args(&key.args, reply)
            .and_then(|a| live.workloads[key.wi].check(&a, Scale::Test))
        {
            Ok(()) => {}
            Err(e) => out.wrong(format!("{}: reference check: {e}", key.row())),
        }
        match keep(ServeOp::Warm(0), reply) {
            Ok(Kept::Warm { digests, cycles }) => warm.push((digests, cycles)),
            _ => {
                out.wrong(format!("{}: set-up reply unusable", key.row()));
                warm.push((String::new(), 0));
            }
        }
    }
    for s in samples {
        out.attempted += 1;
        match (&s.reply, s.op) {
            (Err(e), _) => op_failed(out, e.clone()),
            (Ok(Kept::Warm { digests, cycles }), ServeOp::Warm(k)) => {
                if (digests, cycles) != (&warm[k].0, &warm[k].1) {
                    out.wrong(format!(
                        "{}: repeat differs from its set-up reply",
                        live.keys[k].row()
                    ));
                }
            }
            (Ok(Kept::Fresh { y }), ServeOp::Fresh(alpha)) => {
                if *y != saxpy_expected(&live.x, alpha) {
                    out.wrong(format!("saxpy alpha {alpha}: y differs from x*alpha+1"));
                }
            }
            _ => out.wrong("reply kind does not match its request".into()),
        }
    }
    // Fig. 7's ratio on the warm replies: base over safara_only cycles.
    let cycles = |k: usize| f64::from_bits(warm[k].1);
    let ratios: Vec<f64> = (0..live.keys.len())
        .step_by(WARM_PROFILES.len())
        .map(|k| cycles(k) / cycles(k + 1))
        .filter(|r| r.is_finite() && *r > 0.0)
        .collect();
    let speedup = geomean(&ratios);
    out.set("modelled_speedup_geomean", speedup);
    out.line(format!(
        "modelled_speedup_geomean {speedup:.6} (base over safara_only at Scale::Test, {} workloads)",
        ratios.len()
    ));
}
