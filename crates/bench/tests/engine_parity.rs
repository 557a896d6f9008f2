//! Dense ≡ event parity on the fabrics the reproduction binaries
//! simulate.
//!
//! The binaries run only the fabric's default (event-driven) engine.
//! The golden fabric matrix (`rtl/tests/golden_fabric.rs`) already runs
//! the Table II kernels at paper scale under E, EOpt and POpt on both
//! engines: the fabrics of `table1_power`, `table2_kernels`,
//! `table3_system` and `ablation_ooo`'s `bf`. Every other fabric a
//! binary simulates is built here the way that binary builds it, and
//! the dense reference stepper and the event engine must produce
//! identical `Activity` on it.

use uecgra_clock::VfMode;
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::frontend::lower;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::parse::parse;
use uecgra_compiler::power_map::{power_map, power_map_routed, Objective};
use uecgra_core::experiments::SEED;
use uecgra_core::pipeline::{Policy, RunRequest};
use uecgra_dfg::kernels::{self, extra::extra_kernels, synthetic};
use uecgra_dfg::transform::merge;
use uecgra_dfg::Dfg;
use uecgra_rtl::fabric::{Fabric, FabricConfig, SuppressorKind};
use uecgra_rtl::Engine;

fn assert_engines_agree(label: &str, fabric: impl Fn() -> Fabric) {
    let dense = fabric().run_with(Engine::Dense);
    let event = fabric().run_with(Engine::EventDriven);
    assert_eq!(dense, event, "{label}: Activity diverges between engines");
}

/// Parity on the fabric a pipeline request would simulate.
fn assert_request_agrees(label: &str, request: RunRequest<'_>) {
    let compiled = request.compile().unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_engines_agree(label, || compiled.fabric());
}

/// `dfg` mapped with the reproduction seed and assembled under `modes`.
fn assembled(dfg: &Dfg, modes: &[VfMode]) -> (MappedKernel, Bitstream) {
    let mapped = MappedKernel::map(dfg, ArrayShape::default(), SEED).expect("maps");
    let bs = Bitstream::assemble(dfg, &mapped, modes).expect("assembles");
    (mapped, bs)
}

/// `fig13_frontier` and `fig14_contours`: llist and dither at 400
/// iterations under all three policies (`ablation_ooo`'s POpt runs of
/// the same two builds included).
#[test]
fn fig13_fig14_policy_runs() {
    for k in [
        kernels::llist::build_with_hops(400),
        kernels::dither::build_with_pixels(400),
    ] {
        for policy in Policy::ALL {
            let label = format!("{}/{}", k.name, policy.label());
            assert_request_agrees(&label, RunRequest::new(&k).policy(policy).seed(SEED));
        }
    }
}

/// `extra_kernels`: the extension kernels at 400 iterations under all
/// three policies.
#[test]
fn extra_kernels_policy_runs() {
    for k in extra_kernels(400) {
        for policy in Policy::ALL {
            let label = format!("{}/{}", k.name, policy.label());
            assert_request_agrees(&label, RunRequest::new(&k).policy(policy).seed(SEED));
        }
    }
}

/// `ablation_ooo`: the POpt runs not already covered above.
#[test]
fn ablation_ooo_popt_runs() {
    for k in [
        kernels::susan::build_with_iters(400),
        kernels::fft::build_with_group(400),
    ] {
        let label = format!("ablation_ooo/{}", k.name);
        let request = RunRequest::new(&k).policy(Policy::UePerfOpt).seed(SEED);
        assert_request_agrees(&label, request);
    }
}

/// `ablation_unroll`: one dither instance, and two instances (the
/// second lowered from source over a disjoint memory region) merged
/// onto one fabric.
#[test]
fn ablation_unroll_fabrics() {
    const N: usize = 200;
    let k = kernels::dither::build_with_pixels(N);
    let base2 = k.mem.len() as u32;
    let src2 = parse(&format!(
        "array src @ {};
         array dst @ {};
         for i in 0..{N} carry (err = 0) {{
             let out = src[i] + err;
             if (out > 127) {{ dst[i] = 255; err = out - 255; }}
             else {{ dst[i] = 0; err = out; }}
         }}",
        base2 + 16,
        base2 + 16 + N as u32 + 16,
    ))
    .expect("valid source");
    let inst2 = lower(&src2.nest).expect("lowers");
    let mut mem = k.mem.clone();
    mem.extend(k.mem.iter().copied());
    let (pair, maps) = merge(&[&k.dfg, &inst2.dfg]);
    let marker = maps[0][k.iter_marker.index()];

    assert_request_agrees(
        "unroll/single",
        RunRequest::from_dfg(&k.dfg, k.iter_marker, &k.mem),
    );
    assert_request_agrees("unroll/pair", RunRequest::from_dfg(&pair, marker, &mem));
}

/// `ablation_routing_aware`: nominal, logical-POpt and routed-POpt
/// clock assignments on one mapping per kernel.
#[test]
fn ablation_routing_aware_fabrics() {
    for k in [
        kernels::llist::build_with_hops(120),
        kernels::dither::build_with_pixels(120),
        kernels::fft::build_with_group(120),
    ] {
        let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), SEED).expect("maps");
        let extra: Vec<u32> = k.dfg.edges().map(|(id, _)| mapped.extra_hops(id)).collect();
        let popt = |hops: &[u32]| {
            power_map_routed(
                &k.dfg,
                k.mem.clone(),
                k.iter_marker,
                Objective::Performance,
                hops,
            )
            .node_modes
        };
        for (label, modes) in [
            ("nominal", vec![VfMode::Nominal; k.dfg.node_count()]),
            ("logical", popt(&[])),
            ("routed", popt(&extra)),
        ] {
            let bs = Bitstream::assemble(&k.dfg, &mapped, &modes).expect("assembles");
            let config = FabricConfig {
                marker: Some(mapped.coord_of(k.iter_marker)),
                ..FabricConfig::default()
            };
            assert_engines_agree(&format!("routing_aware/{}/{label}", k.name), || {
                Fabric::new(&bs, k.mem.clone(), config.clone())
            });
        }
    }
}

/// `ablation_suppressor`: the logical POpt mapping under both
/// suppressor kinds (the traditional one deadlocks).
#[test]
fn ablation_suppressor_fabrics() {
    for k in [
        kernels::llist::build_with_hops(120),
        kernels::dither::build_with_pixels(120),
        kernels::bf::build_with_rounds(32),
    ] {
        let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
        let (mapped, bs) = assembled(&k.dfg, &pm.node_modes);
        for suppressor in [SuppressorKind::ElasticityAware, SuppressorKind::Traditional] {
            let config = FabricConfig {
                marker: Some(mapped.coord_of(k.iter_marker)),
                suppressor,
                max_ticks: 300_000,
                ..FabricConfig::default()
            };
            assert_engines_agree(&format!("suppressor/{}/{suppressor:?}", k.name), || {
                Fabric::new(&bs, k.mem.clone(), config.clone())
            });
        }
    }
}

/// `fig07b_qdepth`'s RTL cross-check: routed cycle-N rings across
/// queue depths, capped at 120 iterations.
#[test]
fn fig07b_qdepth_fabrics() {
    for n in [2usize, 4, 8] {
        let s = synthetic::cycle_n(n);
        let (mapped, bs) = assembled(&s.dfg, &vec![VfMode::Nominal; s.dfg.node_count()]);
        for depth in [1usize, 2, 3, 4, 8] {
            let config = FabricConfig {
                marker: Some(mapped.coord_of(s.iter_marker)),
                max_marker_fires: Some(120),
                queue_capacity: depth,
                ..FabricConfig::default()
            };
            assert_engines_agree(&format!("qdepth/cycle-{n}/depth {depth}"), || {
                Fabric::new(&bs, vec![], config.clone())
            });
        }
    }
}
