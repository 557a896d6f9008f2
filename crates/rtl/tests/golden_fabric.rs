//! Golden parity snapshot of the fabric simulator.
//!
//! The differential suite checks that the dense and event-driven
//! engines agree, but both share `decide`, the output-readiness check
//! and the plan type, so a change to that shared hot path can move
//! both engines together. This matrix pins what they produce.
//!
//! Cases: the Table II kernels under the E, EOpt and POpt clock
//! assignments; the small kernel builds across queue depths 1–3, both
//! suppressors and the 9:3:2 and 6:3:2 divisor plans; seeded random
//! fabrics from `common::random_bitstream`; one single-fault plan per
//! fault class; and a few runs with event recording on. Each case
//! runs on both engines (which must agree) and pins every `Activity`
//! counter vector (sum and hash), the occupancy histograms, the domain
//! edge counters, the marker times (count, last, hash), ticks, stop, a
//! hash of the memory image, the protocol report (tokens, violations,
//! flows) and, when recorded, a hash of the events.
//!
//! Intentional simulator changes: regenerate with
//! `UECGRA_BLESS=1 cargo test -p uecgra-rtl --test golden_fabric`.

mod common;

use common::{compiled, random_bitstream, random_config, small_kernels, MEM_WORDS};
use std::fmt::Write as _;
use uecgra_clock::{ClockSet, VfMode};
use uecgra_compiler::bitstream::Bitstream;
use uecgra_compiler::mapping::{ArrayShape, MappedKernel};
use uecgra_compiler::power_map::{power_map, power_map_routed, Objective};
use uecgra_dfg::kernels::{self, Kernel};
use uecgra_rtl::fabric::{Activity, Fabric, FabricConfig, SuppressorKind};
use uecgra_rtl::{Engine, FaultPlan};
use uecgra_util::SplitMix64;

const SEED: u64 = 0x5EED_FAB1_u64;
/// Seeded random fabrics (square 8×8 and rectangular).
const RANDOM_FABRICS: usize = 24;
/// Bound on every kernel run, so a deadlocking configuration (the
/// traditional suppressor on mixed clocks) stops at a known tick.
const MAX_TICKS: u64 = 100_000;

/// One fabric run to pin.
struct Case {
    name: String,
    bitstream: Bitstream,
    mem: Vec<u32>,
    config: FabricConfig,
}

/// A SplitMix64-chained hash of a `u64` stream (order-sensitive).
fn hash(xs: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = SplitMix64::seed_from_u64(0).next_u64();
    for x in xs {
        h = SplitMix64::seed_from_u64(h ^ x).next_u64();
    }
    h
}

/// `sum/hash` of a per-PE counter grid.
fn grid(v: &[Vec<u64>]) -> String {
    let flat = v.iter().flatten().copied();
    format!("{}/{:016x}", flat.clone().sum::<u64>(), hash(flat))
}

fn render(a: &Activity) -> String {
    let mut s = format!("ticks={} stop={:?} |", a.ticks, a.stop);
    for (name, v) in [
        ("fires", &a.fires),
        ("bypass", &a.bypass_tokens),
        ("in", &a.input_stalls),
        ("out", &a.output_stalls),
        ("rise", &a.rising_edges),
        ("fire_e", &a.fire_edges),
        ("opnd", &a.operand_stalls),
        ("supp", &a.suppressed_stalls),
        ("bp", &a.backpressure_stalls),
        ("gated", &a.gated_ticks),
        ("sram", &a.sram_accesses),
    ] {
        let _ = write!(s, " {name}={}", grid(v));
    }
    let buckets = a.queue_occupancy[0][0].len();
    let totals: Vec<u64> = (0..buckets)
        .map(|b| a.queue_occupancy.iter().flatten().map(|h| h[b]).sum())
        .collect();
    let occ = a.queue_occupancy.iter().flatten().flatten().copied();
    let _ = write!(s, " | occ={totals:?}/{:016x}", hash(occ));
    let _ = write!(
        s,
        " | dom={:?} hyper={:?} dgated={:?}",
        a.domain_edges, a.domain_edges_hyper, a.domain_gated_ticks
    );
    let _ = write!(
        s,
        " | marker={}/{}/{:016x}",
        a.marker_times.len(),
        a.marker_times.last().map_or(-1, |&t| t as i64),
        hash(a.marker_times.iter().copied())
    );
    let _ = write!(
        s,
        " | mem={}/{:016x}",
        a.mem.len(),
        hash(a.mem.iter().map(|&w| u64::from(w)))
    );
    let p = &a.protocol;
    let flows = p
        .flows
        .iter()
        .flat_map(|&((x, y), d, n)| [x as u64, y as u64, d as u64, n]);
    let _ = write!(
        s,
        " | tokens={} flows={}/{:016x} violations=[",
        p.tokens_checked,
        p.flows.len(),
        hash(flows)
    );
    let shown: Vec<String> = p.violations.iter().map(ToString::to_string).collect();
    s.push_str(&shown.join("; "));
    s.push(']');
    if a.events.is_empty() {
        return s;
    }
    let events = a
        .events
        .iter()
        .flat_map(|e| [e.tick, e.pe.0 as u64, e.pe.1 as u64, u64::from(e.is_fire)]);
    let _ = write!(s, " | events={}/{:016x}", a.events.len(), hash(events));
    s
}

/// Map `k` with the reproduction's seed and assemble it under the E
/// (all nominal), EOpt or POpt clock assignment, as
/// `RunRequest::run` does.
fn table2_case(k: &Kernel, objective: Option<Objective>) -> (Bitstream, FabricConfig) {
    let mapped = MappedKernel::map(&k.dfg, ArrayShape::default(), 7).expect("Table II maps");
    let modes = match objective {
        None => vec![VfMode::Nominal; k.dfg.node_count()],
        Some(obj) => {
            let extra: Vec<u32> = k.dfg.edges().map(|(id, _)| mapped.extra_hops(id)).collect();
            power_map_routed(&k.dfg, k.mem.clone(), k.iter_marker, obj, &extra).node_modes
        }
    };
    let bs = Bitstream::assemble(&k.dfg, &mapped, &modes).expect("Table II assembles");
    let config = FabricConfig {
        marker: Some(mapped.coord_of(k.iter_marker)),
        ..FabricConfig::default()
    };
    (bs, config)
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let mut push = |name: String, bitstream: Bitstream, mem: &[u32], config: FabricConfig| {
        out.push(Case {
            name,
            bitstream,
            mem: mem.to_vec(),
            config,
        });
    };

    let policies = [
        ("E", None),
        ("EOpt", Some(Objective::Energy)),
        ("POpt", Some(Objective::Performance)),
    ];
    for k in kernels::all_kernels() {
        for (label, objective) in policies {
            let (bs, config) = table2_case(&k, objective);
            push(format!("{}/{label}", k.name), bs, &k.mem, config);
        }
    }

    let plans = [[9, 3, 2], [6, 3, 2]];
    let suppressors = [
        ("ea", SuppressorKind::ElasticityAware),
        ("trad", SuppressorKind::Traditional),
    ];
    for k in small_kernels() {
        let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
        let (bs, base) = compiled(&k, &pm.node_modes, 7);
        for depth in 1..=3 {
            for (sname, suppressor) in suppressors {
                for divisors in plans {
                    let config = FabricConfig {
                        clocks: ClockSet::new(divisors).expect("valid plan"),
                        queue_capacity: depth,
                        suppressor,
                        max_ticks: MAX_TICKS,
                        ..base.clone()
                    };
                    let name = format!(
                        "{}/popt q={depth} {sname} {}:{}:{}",
                        k.name, divisors[0], divisors[1], divisors[2]
                    );
                    push(name, bs.clone(), &k.mem, config);
                }
            }
        }
    }

    let mut rng = SplitMix64::seed_from_u64(SEED);
    for i in 0..RANDOM_FABRICS {
        let (w, h) = if i % 3 == 2 {
            (1 + rng.range(9), 1 + rng.range(9))
        } else {
            (8, 8)
        };
        let bs = random_bitstream(&mut rng, w, h);
        let mem: Vec<u32> = (0..MEM_WORDS).map(|_| rng.next_u32()).collect();
        let config = random_config(&mut rng, w, h);
        push(format!("random{i} {w}x{h}"), bs, &mem, config);
    }

    // One single-fault plan per fault class, on crossings a clean run
    // shows carrying tokens (`random_at` rotates through the classes).
    for k in [
        kernels::dither::build_with_pixels(40),
        kernels::bf::build_with_rounds(16),
    ] {
        let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
        let (bs, base) = compiled(&k, &pm.node_modes, 7);
        let clean = Fabric::new(&bs, k.mem.clone(), base.clone()).run();
        let targets: Vec<_> = clean
            .protocol
            .flows
            .iter()
            .map(|&(p, d, _)| (p, d))
            .collect();
        for fault in FaultPlan::random_at(SEED, &targets, 6).faults {
            let config = FabricConfig {
                faults: FaultPlan::single(fault),
                max_ticks: MAX_TICKS,
                ..base.clone()
            };
            push(
                format!("{}/popt fault {}", k.name, fault.label()),
                bs.clone(),
                &k.mem,
                config,
            );
        }
    }

    for k in small_kernels().into_iter().step_by(2) {
        let pm = power_map(&k.dfg, k.mem.clone(), k.iter_marker, Objective::Performance);
        let (bs, base) = compiled(&k, &pm.node_modes, 3);
        let config = FabricConfig {
            record_events: true,
            max_marker_fires: Some(12),
            ..base
        };
        push(format!("{}/popt events", k.name), bs, &k.mem, config);
    }
    out
}

/// Run every case on both engines (which must agree) and render the
/// outcomes, spreading the cases over a few threads; the text is in
/// case order whatever the thread count.
fn golden_text() -> String {
    let cases = cases();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let mut lines = vec![String::new(); cases.len()];
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let cases = &cases;
                s.spawn(move || {
                    (t..cases.len())
                        .step_by(threads)
                        .map(|i| {
                            let c = &cases[i];
                            let run = |e| {
                                Fabric::new(&c.bitstream, c.mem.clone(), c.config.clone())
                                    .run_with(e)
                            };
                            let dense = run(Engine::Dense);
                            let event = run(Engine::EventDriven);
                            assert_eq!(dense, event, "{}: engines disagree", c.name);
                            (i, format!("{} | {}", c.name, render(&event)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (i, line) in w.join().expect("simulation thread") {
                lines[i] = line;
            }
        }
    });
    let mut text = String::new();
    for (i, l) in lines.iter().enumerate() {
        let _ = writeln!(text, "case {i} {l}");
    }
    text
}

#[test]
fn fabric_matches_golden_case_matrix() {
    let text = golden_text();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fabric_cases.txt");
    if std::env::var_os("UECGRA_BLESS").is_some() {
        std::fs::write(path, &text).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file exists (UECGRA_BLESS=1 regenerates)");
    for (got, want) in text.lines().zip(golden.lines()) {
        assert_eq!(
            got, want,
            "fabric simulation drifted from the checked-in golden"
        );
    }
    assert_eq!(
        text.lines().count(),
        golden.lines().count(),
        "golden case count changed"
    );
}
