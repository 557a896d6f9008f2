//! Shared helpers for the reproduction harness binaries.
//!
//! Each `src/bin/*` binary regenerates one table or figure of the
//! paper (see `DESIGN.md`'s experiment index); this library provides
//! the kernels at evaluation scale, table formatting, and the shared
//! command-line handling (`json_path`, `flag_value`, `usage_exit`).

#![warn(missing_docs)]

pub mod campaign;

use uecgra_core::experiments::KernelRuns;
use uecgra_core::report::run_report;
use uecgra_dfg::{kernels, Kernel};
use uecgra_probe::RunReport;

/// The paper's evaluation kernels at full scale (1000 iterations; 32
/// for `bf`, matching Section VI-C).
pub fn evaluation_kernels() -> Vec<Kernel> {
    kernels::all_kernels()
}

/// The evaluation kernels at a reduced scale for quick runs.
pub fn quick_kernels() -> Vec<Kernel> {
    vec![
        kernels::llist::build_with_hops(120),
        kernels::dither::build_with_pixels(120),
        kernels::susan::build_with_iters(120),
        kernels::fft::build_with_group(120),
        kernels::bf::build_with_rounds(32),
    ]
}

/// Print a horizontal rule sized to a header line.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

/// Print a table header with a rule under it.
pub fn header(line: &str) {
    println!("{line}");
    rule(line);
}

/// Format a ratio with 2 decimals.
pub fn r2(x: f64) -> String {
    format!("{x:.2}")
}

/// The `--json <path>` flag shared by every reproduction binary, and
/// the only argument those binaries take.
///
/// Returns the requested report path, or `None` when the binary should
/// only print its table. Any other argument, or `--json` without a
/// value, is a usage error: see [`usage_exit`]. Binaries call this
/// before doing any work, so a mistyped flag costs nothing.
pub fn json_path() -> Option<String> {
    parse_json_flag(std::env::args().skip(1))
        .unwrap_or_else(|problem| usage_exit("[--json <path>]", &problem))
}

fn parse_json_flag(mut argv: impl Iterator<Item = String>) -> Result<Option<String>, String> {
    let path = match argv.next() {
        None => return Ok(None),
        Some(flag) if flag == "--json" => flag_value(&mut argv, "--json")?,
        Some(other) => return Err(format!("unknown argument {other:?}")),
    };
    match argv.next() {
        None => Ok(Some(path)),
        Some(extra) => Err(format!("unexpected argument {extra:?}")),
    }
}

/// The value following `flag` on the command line, parsed; a usage
/// problem when it is missing or does not parse.
///
/// # Errors
///
/// Returns the problem, for [`usage_exit`].
pub fn flag_value<T: std::str::FromStr>(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: invalid value {value:?}"))
}

/// Report a command-line problem with one usage line on stderr and
/// exit with status 2. `synopsis` lists the binary's flags.
pub fn usage_exit(synopsis: &str, problem: &str) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&argv0)
        .file_name()
        .map_or(argv0.clone(), |name| name.to_string_lossy().into_owned());
    eprintln!("{bin}: {problem} (usage: {bin} {synopsis})");
    std::process::exit(2)
}

/// Write a report document (a JSON array of [`RunReport`]s) to `path`
/// in the probe crate's canonical rendering.
///
/// # Panics
///
/// Panics on I/O failure — the reproduction binaries treat an
/// unwritable report path like any other harness failure.
pub fn write_reports(path: &str, reports: &[RunReport]) {
    std::fs::write(path, RunReport::render_all(reports))
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote {} report(s) to {path}", reports.len());
}

/// Full telemetry reports for one kernel's three policy runs, named
/// `<kernel>/<policy label>`.
pub fn kernel_run_reports(runs: &KernelRuns) -> Vec<RunReport> {
    [&runs.e, &runs.eopt, &runs.popt]
        .into_iter()
        .map(|run| {
            run_report(
                format!("{}/{}", runs.kernel.name, run.policy.label()),
                Some(runs.kernel.name),
                run,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn the_json_flag_is_the_only_argument() {
        assert_eq!(parse_json_flag(args(&[])), Ok(None));
        assert_eq!(
            parse_json_flag(args(&["--json", "r.json"])),
            Ok(Some("r.json".into()))
        );
        for bad in [
            &["--json"][..],
            &["--jsno", "r.json"],
            &["r.json"],
            &["--json", "r.json", "--json", "s.json"],
        ] {
            assert!(parse_json_flag(args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn flag_values_must_be_present_and_parse() {
        assert_eq!(flag_value::<u64>(&mut args(&["7"]), "--n"), Ok(7));
        assert!(flag_value::<u64>(&mut args(&[]), "--n").is_err());
        assert!(flag_value::<u64>(&mut args(&["x"]), "--n").is_err());
    }

    #[test]
    fn kernels_are_available_at_both_scales() {
        assert_eq!(evaluation_kernels().len(), 5);
        assert_eq!(quick_kernels().len(), 5);
        for k in evaluation_kernels() {
            assert!(k.iters >= 32);
        }
    }
}
