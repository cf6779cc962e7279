//! The benchmark's contract with `BENCHMARK.json`: the workloads and
//! metric names the command prints are the ones the file declares.

use perfbench::metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::Ctx;
use safara_server::json::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(key: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{key}` list"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn ours(catalogue: &[Metric]) -> Vec<(String, String)> {
    catalogue
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    assert_eq!(ours(END_TO_END), declared("end_to_end"));
    assert_eq!(ours(PER_LAYER), declared("per_layer"));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

/// The names in the result line the command prints.
fn printed_names(json: &str) -> Vec<(String, String)> {
    let v = Json::parse(json).expect("result line parses");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(v.get(key).is_some(), "result without `{key}`");
    }
    v.get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn a_run_prints_exactly_the_declared_metrics() {
    // compile_mix is the cheapest workload; `--seconds 0` still completes
    // the whole passes an untraced run needs for its percentiles.
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let ctx = Ctx {
            workload: "compile_mix".into(),
            seed: 1,
            seconds: 0.0,
            trace,
        };
        let out = perfbench::run(&ctx).expect("compile_mix runs");
        assert!(out.wrong.is_empty(), "checks failed: {:?}", out.wrong);
        assert_eq!(out.failed, 0);
        let json = out
            .result_json(if trace { PER_LAYER } else { END_TO_END })
            .expect("every metric set");
        assert_eq!(printed_names(&json), declared(key));
    }
}

#[test]
fn unknown_workloads_are_refused() {
    let ctx = Ctx {
        workload: "no_such".into(),
        seed: 1,
        seconds: 0.0,
        trace: false,
    };
    assert!(perfbench::run(&ctx).is_err());
}
