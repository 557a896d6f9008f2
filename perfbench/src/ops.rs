//! Workloads, their inputs, and the ops a pass runs.
//!
//! An op is one call through a front door of the program: one
//! `RunRequest::run` of a kernel under a policy, or one kernel's DSE
//! run with a cache file (load, `explore`, save), as `uecgra dse
//! --cache` does. The traced replay makes the same layer calls, each
//! inside a span.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::power_map::{power_map_routed, Objective};
use uecgra_core::pipeline::{CgraRun, Policy, RunRequest};
use uecgra_dfg::{kernels, Kernel};
use uecgra_dse::{explore, DseConfig, DseOutcome, EvalCache};
use uecgra_perfbench::calib;
use uecgra_perfbench::trace::Tracer;
use uecgra_perfbench::{KERNELS, WORKLOADS};
use uecgra_rtl::{Engine, Fabric, FabricConfig, FabricStop};
use uecgra_util::SplitMix64;

/// Placement seed of every mapping: the one the reproduction binaries
/// use. Placement quality swings with this seed (fft's E+EOpt+POpt
/// fabric cycles range 11.5k–105k over seeds 1–16), so the workload
/// seed varies the kernels' data instead.
const MAP_SEED: u64 = uecgra_core::experiments::SEED;
/// Unique-evaluation budget of each DSE `explore` call.
const DSE_BUDGET: usize = 512;
/// Trip-count multiplier of `long_trip_sim`.
const LONG_TRIP: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Workload {
    CompileRun,
    LongTrip,
    DseCold,
    DseWarm,
}

impl Workload {
    /// In [`WORKLOADS`] order.
    pub(crate) const ALL: [Workload; 4] = [
        Workload::CompileRun,
        Workload::LongTrip,
        Workload::DseCold,
        Workload::DseWarm,
    ];

    pub(crate) fn name(self) -> &'static str {
        WORKLOADS[self as usize]
    }

    fn is_dse(self) -> bool {
        matches!(self, Workload::DseCold | Workload::DseWarm)
    }

    /// Ops per pass: one per kernel × policy, or one per kernel.
    pub(crate) fn ops(self) -> usize {
        if self.is_dse() {
            KERNELS.len()
        } else {
            KERNELS.len() * Policy::ALL.len()
        }
    }
}

/// One kernel with everything its ops need.
pub(crate) struct Case {
    pub(crate) kernel: Kernel,
    /// The host reference's final memory image.
    pub(crate) reference: Vec<u32>,
    /// Routed bypass hops per edge (DSE workloads only).
    pub(crate) extra_hops: Vec<u32>,
    /// This kernel's evaluation-cache file (DSE workloads only).
    pub(crate) cache: String,
}

pub(crate) struct Input {
    pub(crate) workload: Workload,
    pub(crate) cases: Vec<Case>,
    pub(crate) dse: DseConfig,
    /// `dse_warm`: the outcomes of the cold sweep that filled the caches.
    pub(crate) filled: Vec<DseOutcome>,
}

impl Input {
    /// The kernel and (compile+run workloads) policy of op `i`.
    pub(crate) fn op(&self, i: usize) -> (&Case, Option<Policy>) {
        if self.workload.is_dse() {
            (&self.cases[i], None)
        } else {
            let n = Policy::ALL.len();
            (&self.cases[i / n], Some(Policy::ALL[i % n]))
        }
    }

    pub(crate) fn label(&self, i: usize) -> String {
        match self.op(i) {
            (c, Some(p)) => format!("{}/{}", c.kernel.name, p.label()),
            (c, None) => format!("{}/dse", c.kernel.name),
        }
    }
}

pub(crate) fn routed_hops(kernel: &Kernel, mapped: &MappedKernel) -> Vec<u32> {
    kernel
        .dfg
        .edges()
        .map(|(id, _)| mapped.extra_hops(id))
        .collect()
}

/// The Table II kernels at `f` times their paper trip counts, with
/// input data drawn from `seed` in the ranges the kernel builders use.
/// `llist`'s only data is its pointer chain, which stays as built.
pub(crate) fn seeded_kernels(f: usize, seed: u64) -> [Kernel; 5] {
    use kernels::{bf, dither, fft, llist, susan};
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut fill = |mem: &mut [u32], base: u32, n: usize, mask: u32| {
        for w in &mut mem[base as usize..][..n] {
            *w = rng.next_u32() & mask;
        }
    };
    let (n, g, rounds) = (
        dither::DEFAULT_N * f,
        fft::DEFAULT_G * f,
        bf::DEFAULT_ROUNDS * f,
    );
    let mut ks = [
        llist::build_with_hops(llist::DEFAULT_HOPS * f),
        dither::build_with_pixels(n),
        susan::build_with_iters(susan::DEFAULT_N * f),
        fft::build_with_group(g),
        bf::build_with_rounds(rounds),
    ];
    fill(&mut ks[1].mem, dither::SRC_BASE, n, 0xFF);
    let n = susan::DEFAULT_N * f;
    fill(&mut ks[2].mem, susan::IP_BASE, n, 0x3F);
    fill(&mut ks[2].mem, susan::dpt_base(n), n, 0xF);
    fill(&mut ks[2].mem, susan::cp_base(n), n, 0xF);
    for base in [
        fft::RA_BASE,
        fft::rb_base(g),
        fft::ia_base(g),
        fft::ib_base(g),
    ] {
        fill(&mut ks[3].mem, base, g, 0xFFF);
    }
    // The builder fills the P schedule only below the S-boxes.
    let p_words = rounds.max(18).min((bf::S_BASE - bf::P_BASE) as usize);
    fill(&mut ks[4].mem, bf::P_BASE, p_words, u32::MAX);
    fill(&mut ks[4].mem, bf::S_BASE, 1024, u32::MAX);
    ks
}

/// A set-up and how long it took.
pub(crate) struct Setup {
    pub(crate) input: Input,
    /// Reference time (host-speed scaled, see [`calib`]), s.
    pub(crate) secs: f64,
    /// Wall time, s.
    pub(crate) raw_secs: f64,
}

/// Build the workload's inputs from `seed`; `dse_warm` also fills its
/// cache files in `dir` with one cold pass, each op scaled like a
/// timed op.
pub(crate) fn setup(workload: Workload, seed: u64, dir: &Path) -> Result<Setup, String> {
    let mut before = calib::sample_ms();
    let t0 = Instant::now();
    let f = if workload == Workload::LongTrip {
        LONG_TRIP
    } else {
        1
    };
    let mut input = Input {
        workload,
        cases: Vec::new(),
        dse: DseConfig {
            seed,
            budget: DSE_BUDGET,
            ..DseConfig::default()
        },
        filled: Vec::new(),
    };
    for (kernel, name) in seeded_kernels(f, seed).into_iter().zip(KERNELS) {
        assert_eq!(kernel.name, name, "kernel order");
        let extra_hops = if workload.is_dse() {
            let mapped = MappedKernel::map(&kernel.dfg, ArrayShape::default(), MAP_SEED)
                .map_err(|e| format!("{name}: mapping failed: {e}"))?;
            routed_hops(&kernel, &mapped)
        } else {
            Vec::new()
        };
        input.cases.push(Case {
            reference: kernel.reference_memory(),
            extra_hops,
            cache: dir.join(format!("{name}.json")).display().to_string(),
            kernel,
        });
    }
    let raw_secs = t0.elapsed().as_secs_f64();
    let after = calib::sample_ms();
    let mut timed = Setup {
        input,
        secs: raw_secs * calib::scale(before, after),
        raw_secs,
    };
    before = after;
    if workload == Workload::DseWarm {
        let input = &timed.input;
        let mut filled = Vec::new();
        for i in 0..input.cases.len() {
            let _ = std::fs::remove_file(&input.cases[i].cache);
            let t0 = Instant::now();
            let r = guarded(|| run_op(input, i, None));
            let raw = t0.elapsed().as_secs_f64();
            let after = calib::sample_ms();
            timed.secs += raw * calib::scale(before, after);
            before = after;
            timed.raw_secs += raw;
            match r {
                Ok(Outcome::Dse { out, .. }) => filled.push(out),
                Ok(Outcome::Run(_)) => unreachable!("DSE workloads run DSE ops"),
                Err(e) => return Err(format!("{}: filling the cache: {e}", input.label(i))),
            }
        }
        timed.input.filled = filled;
    }
    Ok(timed)
}

#[derive(Clone)]
pub(crate) enum Outcome {
    Run(Box<CgraRun>),
    Dse {
        out: DseOutcome,
        hits: u64,
        misses: u64,
    },
}

/// Two outcomes agree on everything the program computed (cache hit
/// counts aside, which differ by design between cold and warm).
pub(crate) fn same(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Outcome::Run(x), Outcome::Run(y)) => x.activity == y.activity && x.modes == y.modes,
        (Outcome::Dse { out: x, .. }, Outcome::Dse { out: y, .. }) => x == y,
        _ => false,
    }
}

/// Run `f`, turning a panic into an error so one failing op cannot
/// hide the others.
pub(crate) fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string payload".into());
        Err(format!("panic: {msg}"))
    })
}

/// `f` inside a span named `name` when tracing, else just `f`.
fn within<T>(t: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Op `i`. Untraced, a compile+run op is one `RunRequest::run`; traced,
/// it is replayed as the layer calls `RunRequest::run` makes.
fn run_op(input: &Input, i: usize, mut t: Option<&mut Tracer>) -> Result<Outcome, String> {
    let (case, policy) = input.op(i);
    let k = &case.kernel;
    match policy {
        Some(policy) if t.is_none() => RunRequest::new(k)
            .policy(policy)
            .seed(MAP_SEED)
            .run()
            .map(|run| Outcome::Run(Box::new(run)))
            .map_err(|e| format!("error: {e}")),
        Some(policy) => compile_run(k, policy, None, t).map(|run| Outcome::Run(Box::new(run))),
        None => {
            let cache = within(&mut t, "dse::cache_load", || EvalCache::load(&case.cache))?;
            let out = within(&mut t, "dse::explore", || {
                explore(
                    &k.dfg,
                    k.mem.clone(),
                    k.iter_marker,
                    &case.extra_hops,
                    &input.dse,
                    &cache,
                )
            });
            within(&mut t, "dse::cache_save", || cache.save(&case.cache))?;
            Ok(Outcome::Dse {
                out,
                hits: cache.hits(),
                misses: cache.misses(),
            })
        }
    }
}

/// The layer calls `RunRequest::run` makes — map, power-map, assemble
/// and validate, simulate — each in a span when tracing. `modes`
/// replaces power mapping (to run a DSE-chosen assignment).
pub(crate) fn compile_run(
    k: &Kernel,
    policy: Policy,
    modes: Option<&[VfMode]>,
    mut t: Option<&mut Tracer>,
) -> Result<CgraRun, String> {
    let mapped = within(&mut t, "compiler::mapping", || {
        MappedKernel::map(&k.dfg, ArrayShape::default(), MAP_SEED)
    })
    .map_err(|e| format!("error: {e}"))?;
    let objective = match policy {
        Policy::ECgra => None,
        Policy::UeEnergyOpt => Some(Objective::Energy),
        Policy::UePerfOpt => Some(Objective::Performance),
    };
    let modes = match (modes, objective) {
        (Some(m), _) => m.to_vec(),
        (None, None) => vec![VfMode::Nominal; k.dfg.node_count()],
        (None, Some(obj)) => {
            let extra = routed_hops(k, &mapped);
            within(&mut t, "compiler::power_map", || {
                power_map_routed(&k.dfg, k.mem.clone(), k.iter_marker, obj, &extra).node_modes
            })
        }
    };
    let bitstream = within(&mut t, "compiler::bitstream", || {
        let b = Bitstream::assemble(&k.dfg, &mapped, &modes).map_err(|e| format!("error: {e}"))?;
        b.validate().map_err(|e| format!("error: {e}"))?;
        Ok::<_, String>(b)
    })?;
    let config = FabricConfig {
        marker: Some(mapped.coord_of(k.iter_marker)),
        ..FabricConfig::default()
    };
    let activity = within(&mut t, "rtl", || {
        Fabric::new(&bitstream, k.mem.clone(), config).run_with(Engine::default())
    });
    match activity.stop {
        FabricStop::ProtocolViolation => return Err("error: protocol violation".into()),
        FabricStop::TickLimit => return Err("error: tick limit".into()),
        _ => {}
    }
    Ok(CgraRun {
        policy,
        mapped,
        bitstream,
        modes,
        activity,
        iterations: k.iters as u64,
    })
}

/// One pass over every op of the workload.
pub(crate) struct Pass {
    /// Wall time of each op, ms.
    pub(crate) raw_ms: Vec<f64>,
    /// Each op's host-speed scale, from samples just before and after.
    pub(crate) scale: Vec<f64>,
    pub(crate) outcomes: Vec<Result<Outcome, String>>,
}

impl Pass {
    /// Reference time of op `i`, ms.
    pub(crate) fn op_ms(&self, i: usize) -> f64 {
        self.raw_ms[i] * self.scale[i]
    }

    /// Reference time of the whole pass, s.
    pub(crate) fn secs(&self) -> f64 {
        (0..self.raw_ms.len()).map(|i| self.op_ms(i)).sum::<f64>() / 1e3
    }

    /// Wall time of the whole pass, s.
    pub(crate) fn raw_secs(&self) -> f64 {
        self.raw_ms.iter().sum::<f64>() / 1e3
    }
}

/// Run every op once, with a calibration sample before the first op
/// and after each. With a tracer, each op gets a root span whose id is
/// `first_op_id` plus its index.
pub(crate) fn pass(input: &Input, mut tracer: Option<&mut Tracer>, first_op_id: u64) -> Pass {
    let n = input.workload.ops();
    let mut p = Pass {
        raw_ms: Vec::with_capacity(n),
        scale: Vec::with_capacity(n),
        outcomes: Vec::with_capacity(n),
    };
    let mut before = calib::sample_ms();
    for i in 0..n {
        if input.workload == Workload::DseCold {
            // A cold op starts from no cache file at all.
            let _ = std::fs::remove_file(&input.op(i).0.cache);
        }
        let t0 = Instant::now();
        let r = match tracer.as_deref_mut() {
            None => guarded(|| run_op(input, i, None)),
            Some(t) => {
                let root = t.begin("op", first_op_id + i as u64);
                let r = guarded(|| run_op(input, i, Some(&mut *t)));
                t.end(root);
                r
            }
        };
        p.raw_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        p.outcomes.push(r);
        let after = calib::sample_ms();
        p.scale.push(calib::scale(before, after));
        before = after;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_follow_the_declared_order() {
        for (w, name) in Workload::ALL.iter().zip(WORKLOADS) {
            assert_eq!(w.name(), name);
        }
    }

    #[test]
    fn panics_and_errors_become_op_failures() {
        assert_eq!(guarded(|| Ok::<_, String>(1)), Ok(1));
        assert_eq!(
            guarded::<()>(|| Err("error: typed".into())),
            Err("error: typed".into())
        );
        let r = guarded::<()>(|| panic!("model deadlock"));
        assert_eq!(r, Err("panic: model deadlock".into()));
    }

    #[test]
    fn the_seed_draws_the_kernel_data() {
        let a = seeded_kernels(1, 1);
        let b = seeded_kernels(1, 1);
        let c = seeded_kernels(1, 2);
        for i in 0..a.len() {
            assert_eq!(a[i].mem, b[i].mem, "{}: same seed, same data", a[i].name);
        }
        // llist's pointer chain is fixed; every other kernel's data moves.
        assert_eq!(a[0].mem, c[0].mem);
        for i in 1..a.len() {
            assert_ne!(
                a[i].mem, c[i].mem,
                "{}: the seed changes the data",
                a[i].name
            );
        }
    }
}
