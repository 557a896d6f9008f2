//! Golden parity snapshot of the analytical simulator.
//!
//! A fixed-seed matrix of runs over the Table II kernels (default
//! builds plus the small `llist`/`bf`/`dither`/`susan`/`fft` builds)
//! and the synthetic microbenchmarks, with random Rest/Nominal/Sprint
//! mode mixes, routed extra latencies of 0–2, both the 9:3:2 and 6:3:2
//! clock plans, queue depths 1–3, hop latencies 1–2, and runs that stop
//! at `MarkerDone`, `Quiesced` and `TickLimit`. Each case pins
//! `fires`, `input_stalls`, `output_stalls`, `marker_times`, `ticks`,
//! `stop`, and a hash of the final memory image, so any change to the
//! simulator's observable behaviour fails here.
//!
//! Intentional model changes: regenerate with
//! `UECGRA_BLESS=1 cargo test -p uecgra-model --test golden_sim`.

use std::fmt::Write as _;
use uecgra_clock::{ClockSet, VfMode};
use uecgra_dfg::kernels::{self, synthetic, Kernel};
use uecgra_dfg::{Dfg, NodeId};
use uecgra_model::{DfgSimulator, SimConfig, SimResult};
use uecgra_util::SplitMix64;

const SEED: u64 = 0x5EED_0051_u64;
const CASES: usize = 280;

/// One simulated graph: its DFG, memory image and iteration marker,
/// whether it terminates on its own, and whether a source limit makes
/// it terminate (either bounds a run to quiescence).
struct Subject {
    name: String,
    dfg: Dfg,
    mem: Vec<u32>,
    marker: NodeId,
    terminates: bool,
    source_bounded: bool,
}

fn from_kernel(k: Kernel, label: &str, terminates: bool) -> Subject {
    Subject {
        name: format!("{}{label}", k.name),
        dfg: k.dfg,
        mem: k.mem,
        marker: k.iter_marker,
        terminates,
        source_bounded: false,
    }
}

fn subjects() -> Vec<Subject> {
    let mut out: Vec<Subject> = kernels::all_kernels()
        .into_iter()
        .map(|k| from_kernel(k, "", false))
        .collect();
    out.push(from_kernel(kernels::llist::build_with_hops(50), "50", true));
    out.push(from_kernel(kernels::bf::build_with_rounds(16), "16", true));
    out.push(from_kernel(
        kernels::dither::build_with_pixels(30),
        "30",
        true,
    ));
    out.push(from_kernel(
        kernels::susan::build_with_iters(30),
        "30",
        true,
    ));
    out.push(from_kernel(kernels::fft::build_with_group(30), "30", true));
    let toy = synthetic::fig2_toy();
    out.push(Subject {
        name: "fig2".into(),
        dfg: toy.dfg,
        mem: vec![0; 2048],
        marker: toy.iter_marker,
        terminates: false,
        source_bounded: false,
    });
    for (name, s, source_bounded) in [
        ("chain5", synthetic::chain(5), true),
        ("cycle4", synthetic::cycle_n(4), false),
    ] {
        out.push(Subject {
            name: name.into(),
            dfg: s.dfg,
            mem: Vec::new(),
            marker: s.iter_marker,
            terminates: false,
            source_bounded,
        });
    }
    out
}

fn mode_letter(m: VfMode) -> char {
    match m {
        VfMode::Rest => 'R',
        VfMode::Nominal => 'N',
        VfMode::Sprint => 'S',
    }
}

/// FNV-1a over little-endian words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn join(v: &[u64]) -> String {
    v.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

/// Draw case `i`, run it, and render the description and outcome as
/// one line.
fn case_line(i: usize, subjects: &[Subject], rng: &mut SplitMix64) -> String {
    let s = &subjects[rng.range(subjects.len())];
    let n = s.dfg.node_count();
    let modes: Vec<VfMode> = match rng.range(4) {
        0 => vec![*rng.pick(&VfMode::ALL); n],
        _ => (0..n).map(|_| *rng.pick(&VfMode::ALL)).collect(),
    };
    let extra: Vec<u32> = if rng.bool() {
        Vec::new()
    } else {
        (0..s.dfg.edge_count())
            .map(|_| rng.range(3) as u32)
            .collect()
    };
    let clocks = if rng.bool() {
        ClockSet::default()
    } else {
        ClockSet::new([6, 3, 2]).expect("valid plan")
    };
    let queue_capacity = if rng.range(4) == 0 {
        1 + rng.range(3)
    } else {
        2
    };
    let hop_latency = if rng.range(4) == 0 { 2 } else { 1 };
    let source_limit = (rng.range(3) == 0).then(|| 5 + rng.range_u64(0, 30));
    // Runs that would not terminate always get a marker budget;
    // terminating ones sometimes run to quiescence.
    let terminates = s.terminates || (s.source_bounded && source_limit.is_some());
    let max_marker_fires = if terminates && rng.bool() {
        None
    } else {
        Some(rng.range_u64(0, 120))
    };
    let max_ticks = if rng.range(10) == 0 {
        rng.range_u64(0, 3000)
    } else {
        SimConfig::default().max_ticks
    };
    let config = SimConfig {
        clocks: clocks.clone(),
        queue_capacity,
        hop_latency,
        max_ticks,
        max_marker_fires,
        marker: Some(s.marker),
        source_limit,
        edge_extra_latency: extra.clone(),
    };
    let r: SimResult = DfgSimulator::new(&s.dfg, modes.clone(), s.mem.clone(), config).run();

    let mut line = String::new();
    let _ = write!(
        line,
        "case {i} {} clocks={}:{}:{} q={queue_capacity} hop={hop_latency} \
         src={source_limit:?} marker_fires={max_marker_fires:?} max_ticks={max_ticks} \
         modes={} extra={} |",
        s.name,
        clocks.divisor(VfMode::Rest),
        clocks.divisor(VfMode::Nominal),
        clocks.divisor(VfMode::Sprint),
        modes.iter().copied().map(mode_letter).collect::<String>(),
        extra.iter().map(u32::to_string).collect::<String>(),
    );
    let _ = write!(
        line,
        " stop={:?} ticks={} fires={} input_stalls={} output_stalls={} \
         marker_times={}/{}/{:016x} mem={:016x}",
        r.stop,
        r.ticks,
        join(&r.fires),
        join(&r.input_stalls),
        join(&r.output_stalls),
        r.marker_times.len(),
        r.marker_times.last().copied().unwrap_or(0),
        fnv(r.marker_times.iter().copied()),
        fnv(r.mem.iter().map(|&w| u64::from(w))),
    );
    line
}

#[test]
fn simulator_matches_golden_case_matrix() {
    let subjects = subjects();
    let mut rng = SplitMix64::seed_from_u64(SEED);
    let mut text = String::new();
    for i in 0..CASES {
        text.push_str(&case_line(i, &subjects, &mut rng));
        text.push('\n');
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sim_cases.txt");
    if std::env::var_os("UECGRA_BLESS").is_some() {
        std::fs::write(path, &text).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file exists (UECGRA_BLESS=1 regenerates)");
    for (got, want) in text.lines().zip(golden.lines()) {
        assert_eq!(got, want, "simulator drifted from the checked-in golden");
    }
    assert_eq!(
        text.lines().count(),
        golden.lines().count(),
        "golden case count changed"
    );
}
