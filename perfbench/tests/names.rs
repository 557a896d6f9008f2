//! The names the benchmark prints must match `BENCHMARK.json` exactly:
//! later changes refer to workloads and metrics by these names.

use uecgra_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use uecgra_probe::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without `{key}`"))
}

/// `(name, unit)` pairs of one metric list.
fn metrics(doc: &Json, key: &str) -> Vec<(String, String)> {
    entries(doc, key)
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn workload_names_match() {
    let doc = benchmark_json();
    let names: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn end_to_end_metrics_match() {
    assert_eq!(metrics(&benchmark_json(), "end_to_end"), owned(&END_TO_END));
}

#[test]
fn per_layer_metrics_match() {
    assert_eq!(metrics(&benchmark_json(), "per_layer"), owned(&PER_LAYER));
}

#[test]
fn setup_time_has_the_largest_bound() {
    let doc = benchmark_json();
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("bound");
    let list = entries(&doc, "end_to_end");
    let setup = list
        .iter()
        .find(|m| field(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert!(list
        .iter()
        .all(|m| bound(m) <= bound(setup) && bound(m) <= 0.25));
}
