//! The reproduction binaries' command lines: a bad flag or value is a
//! usage error (exit 2, nothing computed), a bad cache file is an
//! input error (exit 1), and neither is a panic. Also checks that a
//! cache file written by an earlier build of `dse_sweep --cache`
//! still answers every lookup of the same sweep.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env("UECGRA_THREADS", "1")
        .output()
        .unwrap_or_else(|e| panic!("launching {bin}: {e}"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Exit 2 with one usage line on stderr and nothing on stdout.
fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?} did work before rejecting its arguments"
    );
    assert_eq!(err.lines().count(), 1, "{bin} {args:?}: {err}");
    assert!(err.contains("usage: "), "{bin} {args:?}: {err}");
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("uecgra-bench-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const FIG07A: &str = env!("CARGO_BIN_EXE_fig07a_latency");
const DSE_SWEEP: &str = env!("CARGO_BIN_EXE_dse_sweep");
const FAULT_CAMPAIGN: &str = env!("CARGO_BIN_EXE_fault_campaign");

#[test]
fn the_json_flag_needs_its_value_and_nothing_else() {
    let dir = scratch("json-flag");
    let report = dir.join("x.json").display().to_string();
    assert_usage_error(FIG07A, &["--json"]);
    assert_usage_error(FIG07A, &["--jsno", &report]);
    assert!(!dir.join("x.json").exists());
    assert_usage_error(FIG07A, &["--json", &report, "extra"]);
    assert_usage_error(env!("CARGO_BIN_EXE_table2_kernels"), &["--bogus"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dse_sweep_rejects_unknown_flags_and_bad_values() {
    assert_usage_error(DSE_SWEEP, &["--bogus"]);
    assert_usage_error(DSE_SWEEP, &["--budget"]);
    assert_usage_error(DSE_SWEEP, &["--budget", "0"]);
    assert_usage_error(DSE_SWEEP, &["--budget", "many"]);
    assert_usage_error(DSE_SWEEP, &["--cache"]);
    assert_usage_error(DSE_SWEEP, &["--json"]);
}

#[test]
fn fault_campaign_rejects_unknown_flags_and_bad_values() {
    assert_usage_error(FAULT_CAMPAIGN, &["--engine", "event"]);
    assert_usage_error(FAULT_CAMPAIGN, &["--seed", "x"]);
    assert_usage_error(FAULT_CAMPAIGN, &["--per-kernel"]);
    assert_usage_error(FAULT_CAMPAIGN, &["--json"]);
}

#[test]
fn smoke_timing_rejects_unknown_arguments_and_bad_values() {
    let smoke = env!("CARGO_BIN_EXE_smoke_timing");
    assert_usage_error(smoke, &["--bogus"]);
    assert_usage_error(smoke, &["--engine", "warp"]);
    assert_usage_error(smoke, &["--engine"]);
    assert_usage_error(smoke, &["--bench-out"]);
}

#[test]
fn dse_sweep_reports_a_malformed_cache_file() {
    let dir = scratch("bad-cache");
    let cache = dir.join("cache.json");
    std::fs::write(
        &cache,
        r#"{"cache_format_version": 1, "entries": {"zz": 1}}"#,
    )
    .unwrap();
    let out = run(DSE_SWEEP, &["--cache", &cache.display().to_string()]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("bad cache key"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dse_sweep_reports_an_unwritable_cache_path() {
    let dir = scratch("unwritable-cache");
    let cache = dir.join("no-such-dir").join("cache.json");
    let out = run(
        DSE_SWEEP,
        &["--budget", "1", "--cache", &cache.display().to_string()],
    );
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("writing "), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_older_sweep_cache_answers_every_lookup() {
    // Written by `dse_sweep --budget 8 --cache` before cache keys were
    // digested without building a mode string and before saves could
    // be skipped.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/dse_sweep_budget8_cache.json"
    );
    let dir = scratch("old-cache");
    let cache = dir.join("cache.json");
    std::fs::copy(fixture, &cache).unwrap();
    let out = run(
        DSE_SWEEP,
        &["--budget", "8", "--cache", &cache.display().to_string()],
    );
    let err = stderr(&out);
    assert!(out.status.success(), "{err}");
    assert!(err.contains(" / 0 misses"), "{err}");
    assert!(err.contains("cache unchanged: 371 entries"), "{err}");
    assert_eq!(
        std::fs::read(&cache).unwrap(),
        std::fs::read(fixture).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
