//! `perfbench`: the repository benchmark. It runs one workload over the
//! paper's five Table II kernels, checks every output, and prints the
//! end-to-end metrics (untraced) or the per-layer metrics (traced) as
//! the last line of standard output. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2_compile_run --seed 7 --seconds 10 --trace 0
//! ```

mod checks;
mod ops;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use uecgra_clock::VfMode;
use uecgra_model::EnergyDelayEstimator;
use uecgra_perfbench::calib;
use uecgra_perfbench::stats::{median, tail};
use uecgra_perfbench::trace::Tracer;
use uecgra_perfbench::{line, result_line, END_TO_END, KERNELS, PER_LAYER, WORKLOADS};
use uecgra_probe::Json;

use checks::Checker;
use ops::{guarded, pass, routed_hops, same, setup, Input, Outcome, Pass, Workload};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> [--seconds <n>] [--trace <0|1>]";

/// `UECGRA_THREADS` is pinned to this, capped at the host's CPU count.
/// One worker: host-speed calibration samples the calling thread, and
/// with two workers a DSE batch also waits on the other vCPU's speed
/// (`dse_cold` five-seed spread: 10 % at two workers, 7 % at one).
const THREADS: usize = 1;
/// Set-ups per run, at least; `setup_s` is their median. Cheap set-ups
/// repeat until [`SETUP_SECONDS`] have passed, so their median is
/// steady too.
const SETUP_REPS: usize = 3;
const SETUP_SECONDS: f64 = 0.25;
/// Timed passes per untraced run, at least; more while time remains.
const MIN_PASSES: usize = 3;
/// Timed all-nominal model evaluations per kernel in a traced run.
const MODEL_REPS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!(
                            "unknown workload {value:?} (one of {})",
                            WORKLOADS.join(", ")
                        ))?,
                )
            }
            "--seed" => {
                seed =
                    Some(value.parse::<u64>().map_err(|_| {
                        format!("--seed must be an unsigned integer, got {value:?}")
                    })?)
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds must be positive, got {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn outcomes_path(out_dir: &Path, args: &Args) -> PathBuf {
    out_dir.join(format!(
        "outcomes-{}-seed{}.txt",
        args.workload.name(),
        args.seed
    ))
}

/// The all-nominal analytical-model evaluation of each kernel
/// (`EnergyDelayEstimator::measure`, 96 iterations), median reference
/// ms.
fn model_measure_ms(input: &Input, checker: &mut Checker) -> Vec<f64> {
    input
        .cases
        .iter()
        .map(|c| {
            let k = &c.kernel;
            let est = EnergyDelayEstimator::new(&k.dfg, k.mem.clone(), k.iter_marker);
            let modes = vec![VfMode::Nominal; k.dfg.node_count()];
            let before = calib::sample_ms();
            let times = guarded(|| {
                Ok((0..MODEL_REPS)
                    .map(|_| {
                        let t0 = Instant::now();
                        std::hint::black_box(est.measure(std::hint::black_box(&modes)));
                        t0.elapsed().as_secs_f64() * 1e3
                    })
                    .collect::<Vec<f64>>())
            });
            match times {
                Ok(t) => median(&t) * calib::scale(before, calib::sample_ms()),
                Err(e) => {
                    checker
                        .failures
                        .push(format!("{}: model measure: {e}", k.name));
                    f64::NAN
                }
            }
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named per-layer values of one traced pass, whose ops' root spans
/// have ids from `first_op`: layer self times (reference ms) from the
/// spans, work counters from the outcomes.
fn layer_values(
    input: &Input,
    t: &Tracer,
    spans: std::ops::Range<usize>,
    first_op: u64,
    p: &Pass,
) -> Metrics {
    let own = t.self_ns();
    let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
    let mut calls = 0;
    for i in spans {
        let s = &t.spans()[i];
        let scale = p.scale[(s.op - first_op) as usize];
        *self_ms.entry(s.name).or_default() += own[i] as f64 / 1e6 * scale;
        calls += usize::from(s.name == "compiler::power_map");
    }
    let ms = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let (mut hops, mut ticks, mut fires, mut stalls, mut cycles) = (0u64, 0u64, 0u64, 0u64, 0.0);
    let (mut evals, mut unique, mut hits, mut misses) = (0u64, 0u64, 0u64, 0u64);
    for (i, o) in p.outcomes.iter().enumerate() {
        match o {
            Ok(Outcome::Run(run)) => {
                let a = &run.activity;
                let k = &input.op(i).0.kernel;
                hops += routed_hops(k, &run.mapped)
                    .iter()
                    .map(|&h| u64::from(h))
                    .sum::<u64>();
                ticks += a.ticks;
                cycles += a.nominal_cycles();
                fires += a.fires.iter().flatten().sum::<u64>();
                stalls += [
                    &a.operand_stalls,
                    &a.suppressed_stalls,
                    &a.backpressure_stalls,
                ]
                .iter()
                .flat_map(|g| g.iter().flatten())
                .sum::<u64>();
            }
            Ok(Outcome::Dse {
                out,
                hits: h,
                misses: m,
            }) => {
                evals += out.evaluations;
                unique += out.unique_configs;
                hits += h;
                misses += m;
            }
            Err(_) => {}
        }
    }
    let (explore_ms, rtl_ms) = (ms("dse::explore"), ms("rtl"));
    vec![
        ("power_map.self_ms", ms("compiler::power_map")),
        ("power_map.calls", calls as f64),
        ("mapping.self_ms", ms("compiler::mapping")),
        ("mapping.extra_hops", hops as f64),
        ("bitstream.self_ms", ms("compiler::bitstream")),
        ("rtl.self_ms", rtl_ms),
        ("rtl.sim_cycles_per_s", ratio(cycles, rtl_ms / 1e3)),
        ("rtl.ticks", ticks as f64),
        ("rtl.fires", fires as f64),
        ("rtl.stall_edges", stalls as f64),
        ("dse.explore_ms", explore_ms),
        ("dse.evaluations", evals as f64),
        ("dse.unique_configs", unique as f64),
        ("dse.evals_per_s", ratio(evals as f64, explore_ms / 1e3)),
        ("dse.cache_hits", hits as f64),
        ("dse.cache_misses", misses as f64),
        ("dse.hit_rate", ratio(hits as f64, (hits + misses) as f64)),
        ("dse.cache_load_ms", ms("dse::cache_load")),
        ("dse.cache_save_ms", ms("dse::cache_save")),
    ]
}

/// Named metric values, in the order they are declared.
type Metrics = Vec<(&'static str, f64)>;

/// Everything a run prints besides the metrics.
type Detail = Vec<(&'static str, Json)>;

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark was built from, when it is
/// a git work tree.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(git.join(r))
            .or_else(|| {
                read(git.join("packed-refs"))?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| format!("unknown ({r})")),
    }
}

fn untraced(
    args: &Args,
    dir: &Path,
    out_dir: &Path,
    detail: &mut Detail,
) -> Result<(Checker, Metrics), String> {
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let mut input = None;
    let start = Instant::now();
    while setup_s.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let built = setup(args.workload, args.seed, dir)?;
        setup_s.push(built.secs);
        setup_raw_s.push(built.raw_secs);
        input = Some(built.input);
    }
    let input = input.expect("at least one set-up");
    let mut checker = Checker::new(args.workload.ops());

    let warm = pass(&input, None, 0);
    checker.check(&input, &warm, "warm-up pass");
    let start = Instant::now();
    let (mut pass_s, mut pass_raw_s, mut scales) = (vec![], vec![], vec![]);
    // Reference times of each op's successful runs, one list per op.
    let mut per_op = vec![Vec::new(); args.workload.ops()];
    while pass_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let p = pass(&input, None, 0);
        checker.check(&input, &p, "timed pass");
        pass_s.push(p.secs());
        pass_raw_s.push(p.raw_secs());
        scales.extend(&p.scale);
        for (i, times) in per_op.iter_mut().enumerate() {
            if p.outcomes[i].is_ok() {
                times.push(p.op_ms(i));
            }
        }
    }
    let op_ms: Vec<f64> = per_op.concat();
    // The median pass: every op at its median time.
    let median_pass_s = per_op
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .sum::<f64>()
        / 1e3;

    let sim = checker.simulated(&input);
    checker.repeats(&outcomes_path(out_dir, args), &sim);
    let floats = |v: &[f64]| Json::Array(v.iter().map(|&x| Json::Float(x)).collect());
    detail.extend([
        ("host_scale", Json::Float(median(&scales))),
        ("setup_s_all", floats(&setup_s)),
        ("setup_raw_s_all", floats(&setup_raw_s)),
        ("passes", Json::Uint(pass_s.len() as u64)),
        ("pass_s_all", floats(&pass_s)),
        ("pass_raw_s_all", floats(&pass_raw_s)),
        ("ops_timed", Json::Uint(op_ms.len() as u64)),
        (
            "op_tail",
            tail(&op_ms).map_or(Json::Null, |t| {
                Json::object(vec![
                    ("name", Json::Str(format!("op_p{}_ms", t.percentile))),
                    ("value", Json::Float(t.value)),
                    ("beyond", Json::Uint(t.beyond as u64)),
                ])
            }),
        ),
    ]);
    let metrics = vec![
        ("setup_s", median(&setup_s)),
        ("pass_s", median_pass_s),
        ("op_p50_ms", median(&op_ms)),
        ("peak_rss_mb", peak_rss_mb()),
        ("sim_cycles", sim.cycles),
        ("sim_energy_pj", sim.energy_pj),
        ("model_edp", sim.model_edp),
    ];
    Ok((checker, metrics))
}

fn traced(
    args: &Args,
    dir: &Path,
    out_dir: &Path,
    detail: &mut Detail,
) -> Result<(Checker, Metrics), String> {
    let input = setup(args.workload, args.seed, dir)?.input;
    let mut checker = Checker::new(args.workload.ops());
    let model_ms = model_measure_ms(&input, &mut checker);

    let mut tracer = Tracer::default();
    let mut layers: Vec<Metrics> = Vec::new();
    let mut overhead_ms = Vec::new();
    let start = Instant::now();
    while layers.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let plain = pass(&input, None, 0);
        checker.check(&input, &plain, "untraced pass");
        let first_span = tracer.spans().len();
        let first_op = (layers.len() * args.workload.ops()) as u64;
        let replay = pass(&input, Some(&mut tracer), first_op);
        checker.check(&input, &replay, "traced replay");
        for (i, (a, b)) in plain.outcomes.iter().zip(&replay.outcomes).enumerate() {
            let agree = match (a, b) {
                (Ok(a), Ok(b)) => same(a, b),
                (a, b) => a.is_err() == b.is_err(),
            };
            if !agree {
                checker.failures.push(format!(
                    "{}: traced replay differs from the untraced op",
                    input.label(i)
                ));
            }
            if a.is_ok() && b.is_ok() {
                overhead_ms.push(replay.op_ms(i) - plain.op_ms(i));
            }
        }
        let spans = first_span..tracer.spans().len();
        layers.push(layer_values(&input, &tracer, spans, first_op, &replay));
    }
    let sim = checker.simulated(&input);
    checker.repeats(&outcomes_path(out_dir, args), &sim);

    // How much of each traced op its layer spans cover.
    let own = tracer.self_ns();
    let coverage: Vec<f64> = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, s)| 1.0 - ratio(own[i] as f64, s.duration_ns() as f64))
        .collect();
    let spans_path = out_dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&spans_path, tracer.to_json().render())
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    detail.extend([
        ("traced_passes", Json::Uint(layers.len() as u64)),
        (
            "span_coverage_min",
            Json::Float(coverage.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        ("span_coverage_median", Json::Float(median(&coverage))),
        ("spans_file", Json::Str(spans_path.display().to_string())),
    ]);

    // Model entries are named after the kernels; the rest take the
    // median over traced passes of each named value.
    let mut metrics: Vec<(&'static str, f64)> = PER_LAYER[..KERNELS.len()]
        .iter()
        .zip(model_ms)
        .map(|(m, v)| (m.0, v))
        .collect();
    metrics.extend(layers[0].iter().enumerate().map(|(j, &(name, _))| {
        (
            name,
            median(&layers.iter().map(|l| l[j].1).collect::<Vec<_>>()),
        )
    }));
    metrics.push(("trace.overhead_ms", median(&overhead_ms)));
    Ok((checker, metrics))
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = THREADS.min(nproc);
    std::env::set_var("UECGRA_THREADS", threads.to_string());

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir = root.join("out");
    let work = WorkDir(out_dir.join(format!("work-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: creating {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }
    let mut detail: Detail = vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Uint(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("threads", Json::Uint(threads as u64)),
        ("nproc", Json::Uint(nproc as u64)),
        ("profile", Json::Str("release".into())),
        ("commit", Json::Str(commit(&root.join("..")))),
        ("seconds", Json::Float(args.seconds)),
    ];
    let measured = if args.trace {
        traced(&args, &work.0, &out_dir, &mut detail)
    } else {
        untraced(&args, &work.0, &out_dir, &mut detail)
    };
    let (checker, metrics) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let correct = checker.failures.is_empty();
    for e in &checker.op_errors {
        eprintln!("perfbench: op failed: {e}");
    }
    for f in &checker.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    detail.extend([
        (
            "failed_frac",
            Json::Float(ratio(checker.failed as f64, checker.attempted as f64)),
        ),
        (
            "op_errors",
            Json::Array(
                checker
                    .op_errors
                    .iter()
                    .take(10)
                    .map(|e| Json::Str(e.clone()))
                    .collect(),
            ),
        ),
        (
            "check_failures",
            Json::Array(
                checker
                    .failures
                    .iter()
                    .map(|e| Json::Str(e.clone()))
                    .collect(),
            ),
        ),
    ]);
    for (name, value) in &metrics {
        eprintln!("perfbench: {name:<24} {value}");
    }
    println!(
        "{}",
        line(&Json::object(vec![("detail", Json::object(detail))]))
    );
    let schema: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_line(correct, checker.attempted, checker.failed, schema, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "dse_warm",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::DseWarm, 3, 10.0, true)
        );
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "dse_cold"]).is_err());
        assert!(args(&["--workload", "dse_cold", "--seed", "1", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "dse_cold", "--seed", "1", "--seconds", "0"]).is_err());
    }
}
