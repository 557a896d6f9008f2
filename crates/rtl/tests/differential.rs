//! Differential tests: the event-driven engine against the dense
//! reference oracle.
//!
//! The contract (DESIGN.md §11) is *bit-identical* [`Activity`] on
//! every configuration — cycle counts, per-PE edge-classified stall
//! partitions, queue-occupancy histograms, gated-edge counters, final
//! memory, recorded events, and the protocol checker's end-of-run
//! report. These tests enforce it over seeded random 8×8 fabrics
//! (random DVFS assignments, recurrence cycles through registers and
//! queue loops, perimeter SRAM PEs) and over the real compiled paper
//! kernels. Failures print the case seed; rerun a single case with
//! `UECGRA_CHECK_SEED=<seed>`.

mod common;

use common::{
    assert_engines_agree, compiled, random_bitstream, random_config, small_kernels, MEM_WORDS,
};
use uecgra_clock::VfMode;
use uecgra_compiler::power_map::{power_map, Objective};
use uecgra_dfg::kernels;
use uecgra_rtl::fabric::{Fabric, SuppressorKind};
use uecgra_rtl::Engine;
use uecgra_util::check::forall;

/// The tentpole property: ≥200 seeded random 8×8 fabrics, dense vs
/// event-driven `Activity` identical field-for-field.
#[test]
fn random_fabrics_run_identically_on_both_engines() {
    forall(250, |rng| {
        let bs = random_bitstream(rng, 8, 8);
        let mem: Vec<u32> = (0..MEM_WORDS).map(|_| rng.next_u32()).collect();
        let config = random_config(rng, 8, 8);
        assert_engines_agree(&bs, &mem, &config, "random 8x8 fabric");
    });
}

/// Non-square arrays keep the row-major index mapping honest.
#[test]
fn random_rectangular_fabrics_run_identically() {
    forall(60, |rng| {
        let w = 1 + rng.range(9);
        let h = 1 + rng.range(9);
        let bs = random_bitstream(rng, w, h);
        let mem: Vec<u32> = (0..MEM_WORDS).map(|_| rng.next_u32()).collect();
        let config = random_config(rng, w, h);
        assert_engines_agree(&bs, &mem, &config, "random rectangular fabric");
    });
}

#[test]
fn paper_kernels_run_identically_at_nominal() {
    for k in small_kernels() {
        let modes = vec![VfMode::Nominal; k.dfg.node_count()];
        let (bs, config) = compiled(&k, &modes, 7);
        assert_engines_agree(&bs, &k.mem, &config, k.name);
    }
}

#[test]
fn paper_kernels_run_identically_under_popt_dvfs() {
    for k in small_kernels() {
        let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
        let (bs, config) = compiled(&k, &pm.node_modes, 7);
        assert_engines_agree(&bs, &k.mem, &config, k.name);
    }
}

#[test]
fn paper_kernels_run_identically_with_events_and_marker_cap() {
    let k = kernels::dither::build_with_pixels(40);
    let modes = vec![VfMode::Nominal; k.dfg.node_count()];
    let (bs, mut config) = compiled(&k, &modes, 3);
    config.record_events = true;
    config.max_marker_fires = Some(12);
    assert_engines_agree(&bs, &k.mem, &config, "dither (events + marker cap)");
}

#[test]
fn paper_kernels_run_identically_under_traditional_suppressor() {
    // Mixed clocks + traditional suppressor strangle the fabric — the
    // engines must agree on exactly how it strangles (including the
    // LUT-phase-driven suppressed/backpressure flapping).
    let k = kernels::dither::build_with_pixels(40);
    let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
    let (bs, mut config) = compiled(&k, &pm.node_modes, 7);
    config.suppressor = SuppressorKind::Traditional;
    config.max_ticks = 100_000;
    assert_engines_agree(&bs, &k.mem, &config, "dither (traditional suppressor)");
}

#[test]
fn event_engine_functional_outputs_match_references() {
    // Beyond engine agreement: the event engine alone still computes
    // the right answers.
    for k in small_kernels() {
        let modes = vec![VfMode::Nominal; k.dfg.node_count()];
        let (bs, config) = compiled(&k, &modes, 7);
        let act = Fabric::new(&bs, k.mem.clone(), config).run_with(Engine::EventDriven);
        let expect = k.reference_memory();
        assert_eq!(
            &act.mem[..expect.len()],
            &expect[..],
            "{}: event engine memory diverges from host reference",
            k.name
        );
    }
}

/// The event engine's point is doing less work: on every Table II
/// kernel, under all-nominal and POpt clocks, it makes no more
/// `decide` calls than the dense stepper, which makes one per rising
/// edge of every non-gated PE.
#[test]
fn event_engine_decides_no_more_than_dense() {
    for k in kernels::all_kernels() {
        let nominal = vec![VfMode::Nominal; k.dfg.node_count()];
        let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
        for modes in [nominal, pm.node_modes] {
            let (bs, config) = compiled(&k, &modes, 7);
            let (act, work) = Fabric::new(&bs, k.mem.clone(), config).run_event_counted();
            let dense: u64 = act.rising_edges.iter().flatten().sum();
            assert!(work.decides > 0, "{}: nothing decided", k.name);
            assert!(
                work.decides <= dense,
                "{}: event engine decided {} times, dense {dense}",
                k.name,
                work.decides
            );
            assert!(work.visited_ticks <= act.ticks, "{}", k.name);
        }
    }
}
