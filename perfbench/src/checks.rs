//! Output checks and the simulated outcomes they pin down.
//!
//! A failed check fails the run; it is not a failed op. Failed ops
//! (a typed error or a caught panic) are only counted.

use std::path::Path;

use uecgra_core::energy::cgra_energy;
use uecgra_core::pipeline::{CgraRun, Policy};
use uecgra_model::EnergyDelayEstimator;
use uecgra_perfbench::stats::geomean;
use uecgra_vlsi::GatingConfig;

use crate::ops::{compile_run, guarded, routed_hops, same, Input, Outcome, Pass};

pub(crate) struct Checker {
    /// Every failed check, in the order found.
    pub(crate) failures: Vec<String>,
    /// Each op's outcome in the first pass that ran it successfully.
    first: Vec<Option<Outcome>>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// `label: error` of every failed op.
    pub(crate) op_errors: Vec<String>,
}

/// Simulated outcomes: for a seed they repeat exactly, whatever the
/// host's speed.
pub(crate) struct Simulated {
    /// Fabric cycles at nominal frequency, summed over ops.
    pub(crate) cycles: f64,
    /// Fabric energy under full clock gating, summed over ops.
    pub(crate) energy_pj: f64,
    /// Geometric mean over ops of the analytical model's EDP.
    pub(crate) model_edp: f64,
    /// One line per op, compared across runs of the same binary.
    fingerprint: Vec<String>,
}

impl Checker {
    pub(crate) fn new(ops: usize) -> Checker {
        Checker {
            failures: Vec::new(),
            first: vec![None; ops],
            attempted: 0,
            failed: 0,
            op_errors: Vec::new(),
        }
    }

    /// Count the pass's ops and check each successful outcome against
    /// the host reference, the cold sweep, and the first pass.
    pub(crate) fn check(&mut self, input: &Input, p: &Pass, what: &str) {
        self.attempted += p.outcomes.len() as u64;
        for (i, r) in p.outcomes.iter().enumerate() {
            let label = input.label(i);
            let o = match r {
                Ok(o) => o,
                Err(e) => {
                    self.failed += 1;
                    self.op_errors.push(format!("{label}: {e}"));
                    continue;
                }
            };
            let case = input.op(i).0;
            match o {
                Outcome::Run(run) => {
                    if run.activity.mem.get(..case.reference.len()) != Some(&case.reference[..]) {
                        self.failures.push(format!(
                            "{label} ({what}): fabric memory differs from the host reference"
                        ));
                    }
                }
                Outcome::Dse { out, .. } => {
                    if !out.dominates_baseline() {
                        self.failures.push(format!(
                            "{label} ({what}): frontier misses the greedy baseline"
                        ));
                    }
                    if input.filled.get(i).is_some_and(|cold| cold != out) {
                        self.failures
                            .push(format!("{label} ({what}): warm outcome differs from cold"));
                    }
                }
            }
            match &self.first[i] {
                None => self.first[i] = Some(o.clone()),
                Some(f) if !same(f, o) => self.failures.push(format!(
                    "{label} ({what}): outcome differs from the first pass"
                )),
                Some(_) => {}
            }
        }
    }

    /// Fabric cycles and energy of every op's configuration — for a DSE
    /// op, its best-EDP assignment compiled and run on the fabric, and
    /// checked against the host reference — and the model EDP.
    pub(crate) fn simulated(&mut self, input: &Input) -> Simulated {
        let mut s = Simulated {
            cycles: 0.0,
            energy_pj: 0.0,
            model_edp: f64::NAN,
            fingerprint: Vec::new(),
        };
        let mut edps = Vec::new();
        for (i, o) in self.first.iter().enumerate() {
            let Some(o) = o else { continue };
            let case = input.op(i).0;
            let k = &case.kernel;
            let label = input.label(i);
            let best_run;
            let (run, edp): (&CgraRun, _) = match o {
                Outcome::Run(run) => {
                    let est = EnergyDelayEstimator::new(&k.dfg, k.mem.clone(), k.iter_marker)
                        .with_edge_latency(routed_hops(k, &run.mapped));
                    match guarded(|| Ok(est.measure(&run.modes).edp())) {
                        Ok(edp) => (run, edp),
                        Err(e) => {
                            self.failures.push(format!("{label}: model EDP: {e}"));
                            continue;
                        }
                    }
                }
                Outcome::Dse { out, .. } => {
                    let modes = &out.best.modes;
                    match guarded(|| compile_run(k, Policy::UeEnergyOpt, Some(modes), None)) {
                        Ok(run) => {
                            best_run = run;
                            (&best_run, out.best.edp())
                        }
                        Err(e) => {
                            self.failures
                                .push(format!("{label}: best assignment on the fabric: {e}"));
                            continue;
                        }
                    }
                }
            };
            if run.activity.mem.get(..case.reference.len()) != Some(&case.reference[..]) {
                self.failures.push(format!(
                    "{label}: fabric memory of the simulated configuration differs from the host reference"
                ));
            }
            let energy = cgra_energy(run, GatingConfig::FULL).total_pj();
            s.cycles += run.activity.nominal_cycles();
            s.energy_pj += energy;
            edps.push(edp);
            s.fingerprint.push(format!(
                "{label} ticks={} iterations={} energy={:016x} edp={:016x}",
                run.activity.ticks,
                run.activity.iterations(),
                energy.to_bits(),
                edp.to_bits()
            ));
        }
        s.model_edp = geomean(&edps);
        s
    }

    /// Compare `sim` with the outcomes an earlier run of this same
    /// binary recorded at `path` for this workload and seed; record
    /// them when there are none (or the binary was rebuilt).
    pub(crate) fn repeats(&mut self, path: &Path, sim: &Simulated) {
        let binary = std::env::current_exe()
            .and_then(std::fs::metadata)
            .map(|m| {
                let mtime = m
                    .modified()
                    .ok()
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                    .map_or(0, |d| d.as_nanos());
                format!("binary {} {mtime}", m.len())
            })
            .unwrap_or_else(|_| "binary unknown".into());
        let text = format!("{binary}\n{}\n", sim.fingerprint.join("\n"));
        match std::fs::read_to_string(path) {
            Ok(prev) if prev.lines().next() == Some(binary.as_str()) => {
                if prev != text {
                    self.failures.push(format!(
                        "simulated outcomes differ from an earlier run of this binary ({})",
                        path.display()
                    ));
                }
            }
            _ => {
                if let Err(e) = std::fs::write(path, text) {
                    eprintln!(
                        "perfbench: cannot record outcomes in {}: {e}",
                        path.display()
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{seeded_kernels, Case, Workload};
    use uecgra_dse::DseConfig;

    #[test]
    fn a_failed_op_is_counted_not_a_failed_check() {
        let input = Input {
            workload: Workload::DseCold,
            cases: seeded_kernels(1, 1)
                .into_iter()
                .map(|kernel| Case {
                    reference: Vec::new(),
                    extra_hops: Vec::new(),
                    cache: String::new(),
                    kernel,
                })
                .collect(),
            dse: DseConfig::default(),
            filled: Vec::new(),
        };
        let p = Pass {
            raw_ms: vec![1.0; 5],
            scale: vec![1.0; 5],
            outcomes: (0..5).map(|_| Err("panic: boom".to_string())).collect(),
        };
        let mut checker = Checker::new(5);
        checker.check(&input, &p, "test");
        assert_eq!((checker.attempted, checker.failed), (5, 5));
        assert_eq!(checker.op_errors.len(), 5);
        assert!(checker.failures.is_empty());
    }
}
