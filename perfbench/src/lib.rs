//! Support code for the `perfbench` binary: the metric and workload
//! names it prints, host-speed calibration, the order statistics it
//! reports, the in-memory span recorder of the traced run, and a
//! one-line JSON writer.
//!
//! The names live here, not in the binary, so `tests/names.rs` can
//! check them against `BENCHMARK.json` without running a workload.

pub mod calib;
pub mod stats;
pub mod trace;

use uecgra_probe::Json;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "table2_compile_run",
    "long_trip_sim",
    "dse_cold",
    "dse_warm",
];

/// The five Table II kernels, in `uecgra_dfg::kernels::all_kernels`
/// order.
pub const KERNELS: [&str; 5] = ["llist", "dither", "susan", "fft", "bf"];

/// End-to-end metrics `(name, unit)`, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
    ("sim_energy_pj", "pJ"),
    ("model_edp", "edp"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("model.measure_ms.llist", "ms"),
    ("model.measure_ms.dither", "ms"),
    ("model.measure_ms.susan", "ms"),
    ("model.measure_ms.fft", "ms"),
    ("model.measure_ms.bf", "ms"),
    ("power_map.self_ms", "ms"),
    ("power_map.calls", "count"),
    ("mapping.self_ms", "ms"),
    ("mapping.extra_hops", "count"),
    ("bitstream.self_ms", "ms"),
    ("rtl.self_ms", "ms"),
    ("rtl.sim_cycles_per_s", "cycles/s"),
    ("rtl.ticks", "count"),
    ("rtl.fires", "count"),
    ("rtl.stall_edges", "count"),
    ("dse.explore_ms", "ms"),
    ("dse.evaluations", "count"),
    ("dse.unique_configs", "count"),
    ("dse.evals_per_s", "1/s"),
    ("dse.cache_hits", "count"),
    ("dse.cache_misses", "count"),
    ("dse.hit_rate", "ratio"),
    ("dse.cache_load_ms", "ms"),
    ("dse.cache_save_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// The result object the benchmark prints as its last line.
///
/// # Panics
///
/// Panics if `metrics` does not name exactly the metrics of `schema`,
/// in order — a bug in the binary, never an input condition.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    schema: &[(&str, &str)],
    metrics: &[(&str, f64)],
) -> String {
    let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = schema.iter().map(|m| m.0).collect();
    assert_eq!(names, expected, "metrics differ from the declared schema");
    let metrics = schema
        .iter()
        .zip(metrics)
        .map(|(&(name, unit), &(_, value))| {
            (
                name,
                Json::object(vec![
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    line(&Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Uint(attempted)),
        ("failed", Json::Uint(failed)),
        ("metrics", Json::object(metrics)),
    ]))
}

/// Render `value` as compact single-line JSON. Floats keep every digit
/// of Rust's shortest round-trip form; non-finite floats become `null`.
pub fn line(value: &Json) -> String {
    let mut out = String::new();
    write_line(value, &mut out);
    out
}

fn write_line(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Uint(n) => out.push_str(&n.to_string()),
        Json::Int(n) => out.push_str(&n.to_string()),
        Json::Float(x) if x.is_finite() => {
            let s = format!("{x}");
            out.push_str(&s);
            if !s.contains(['.', 'e']) {
                out.push_str(".0");
            }
        }
        Json::Float(_) => out.push_str("null"),
        Json::Str(s) => write_str(s, out),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_line(item, out);
            }
            out.push(']');
        }
        Json::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(key, out);
                out.push_str(": ");
                write_line(item, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_parseable_line() {
        let text = result_line(
            true,
            3,
            0,
            &[("a_ms", "ms"), ("b", "count")],
            &[("a_ms", 1.25), ("b", 7.0)],
        );
        assert!(!text.contains('\n'));
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(3));
        let a = doc.get("metrics").and_then(|m| m.get("a_ms")).unwrap();
        assert_eq!(a.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(a.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    #[should_panic(expected = "metrics differ")]
    fn result_line_rejects_undeclared_metrics() {
        result_line(true, 1, 0, &[("a", "s")], &[("b", 1.0)]);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(line(&Json::Str("a\"b\\c\n".into())), r#""a\"b\\c\n""#);
    }
}
