//! Golden parity snapshot of place and route.
//!
//! A fixed matrix of mappings: the five Table II kernels under mapping
//! seeds 1–16; synthetic chain, ring and fan-out graphs on square and
//! non-square arrays; programs drawn by the loop generator in
//! `common/gen_loop.rs` and lowered by the frontend; and the
//! `TooManyNodes`, `TooManyMemoryNodes` and `Unroutable` errors. Each
//! case pins every node's placement, every edge's path, and every net
//! (source, port, root, sorted tree links, edges), or the error's
//! `Display` text, so any change to the mapper's output fails here.
//!
//! Intentional mapper changes: regenerate with
//! `UECGRA_BLESS=1 cargo test -p uecgra-compiler --test golden_map`.

use std::fmt::Write as _;
use uecgra_compiler::frontend::lower;
use uecgra_compiler::mapping::{ArrayShape, Coord, MappedKernel};
use uecgra_compiler::opt::optimize;
use uecgra_compiler::parse::parse;
use uecgra_dfg::kernels::{self, synthetic};
use uecgra_dfg::{Dfg, Op};
use uecgra_util::SplitMix64;

#[allow(dead_code)]
mod gen {
    use uecgra_compiler::ir::{Carried, Expr, LoopNest, Stmt};
    use uecgra_dfg::Op;

    include!("common/gen_loop.rs");

    pub fn program(trip: u32, carried: bool, choices: Vec<u32>) -> LoopNest {
        gen_loop(trip, carried, choices)
    }
}

const SEED: u64 = 0x05EE_D0A9_u64;
/// Generated programs that lower successfully.
const PROGRAMS: usize = 50;

fn coord(c: Coord) -> String {
    format!("{}.{}", c.0, c.1)
}

/// Map `dfg` and render the outcome as one line.
fn case_line(name: &str, dfg: &Dfg, shape: ArrayShape, seed: u64) -> String {
    let mut line = format!("{name} {}x{} seed={seed} |", shape.width, shape.height);
    let mapped = match MappedKernel::map(dfg, shape, seed) {
        Ok(m) => m,
        Err(e) => {
            let _ = write!(line, " error: {e}");
            return line;
        }
    };
    line.push_str(" place=");
    let place: Vec<String> = mapped
        .placement
        .coords()
        .map(|c| c.map_or_else(|| "-".to_string(), coord))
        .collect();
    line.push_str(&place.join(","));
    line.push_str(" | paths=");
    let paths: Vec<String> = mapped
        .routing
        .routes
        .iter()
        .map(|r| {
            if r.path.is_empty() {
                "-".to_string()
            } else {
                r.path
                    .iter()
                    .map(|&c| coord(c))
                    .collect::<Vec<_>>()
                    .join(">")
            }
        })
        .collect();
    line.push_str(&paths.join(" "));
    line.push_str(" | nets=");
    let nets: Vec<String> = mapped
        .routing
        .nets
        .iter()
        .map(|n| {
            let mut links: Vec<(Coord, Coord)> = n.parent.iter().map(|(&c, &p)| (c, p)).collect();
            links.sort();
            let tree: Vec<String> = links
                .iter()
                .map(|&(c, p)| format!("{}<{}", coord(c), coord(p)))
                .collect();
            let edges: Vec<String> = n.edges.iter().map(ToString::to_string).collect();
            format!(
                "{}:{}@{}[{}]{{{}}}",
                n.src,
                n.src_port,
                coord(n.root),
                tree.join(" "),
                edges.join(",")
            )
        })
        .collect();
    line.push_str(&nets.join(" "));
    line
}

/// One producer feeding `n` consumers through the same port (one net
/// with `n + 1` sinks, counting its self-loop).
fn fan_out(n: usize) -> Dfg {
    let mut g = Dfg::new();
    let src = g.add_node(Op::Phi, "s").init(0).id();
    g.connect(src, src);
    for i in 0..n {
        let c = g.add_node(Op::Add, format!("c{i}")).constant(1).id();
        g.connect_ports(src, 0, c, 0);
    }
    g
}

/// More loads than an 8×8 array has perimeter memory PEs.
fn too_many_loads() -> Dfg {
    let mut g = Dfg::new();
    let src = g.add_node(Op::Source, "in").id();
    for i in 0..17 {
        let ld = g.add_node(Op::Load, format!("ld{i}")).id();
        g.connect(src, ld);
    }
    g
}

/// A loop whose body lowers to 63 ops: it fits on 64 PEs but its
/// dense all-to-all dataflow cannot be routed.
fn unroutable_source() -> String {
    const OPS: [&str; 6] = ["+", "^", "*", "-", "&", "|"];
    let mut s =
        String::from("array src @ 16;\narray dst @ 512;\nfor i in 0..8 carry (acc = 0) {\n");
    s.push_str("    let t0 = src[i] + acc;\n");
    for n in 1..18 {
        let _ = writeln!(
            s,
            "    let t{n} = (t{} {} t{}) {} (t{} + i);",
            n - 1,
            OPS[n % 6],
            n / 2,
            OPS[(n + 1) % 6],
            n.saturating_sub(2)
        );
    }
    s.push_str("    dst[i] = t17;\n    acc = t17 + t6;\n}\n");
    s
}

/// One mapping to pin: a label, the graph, the array and the seed.
struct Case {
    name: String,
    dfg: Dfg,
    shape: ArrayShape,
    seed: u64,
}

fn case(name: impl Into<String>, dfg: Dfg, shape: ArrayShape, seed: u64) -> Case {
    Case {
        name: name.into(),
        dfg,
        shape,
        seed,
    }
}

fn cases() -> Vec<Case> {
    let square = ArrayShape::default();
    let mut out = Vec::new();
    for k in kernels::all_kernels() {
        for seed in 1..=16 {
            out.push(case(k.name, k.dfg.clone(), square, seed));
        }
    }
    let shapes = [
        square,
        ArrayShape {
            width: 5,
            height: 7,
        },
        ArrayShape {
            width: 9,
            height: 4,
        },
    ];
    for shape in shapes {
        for seed in [0, 3, 11] {
            for n in [2, 6, 12] {
                out.push(case(
                    format!("chain{n}"),
                    synthetic::chain(n).dfg,
                    shape,
                    seed,
                ));
                out.push(case(
                    format!("ring{n}"),
                    synthetic::cycle_n(n).dfg,
                    shape,
                    seed,
                ));
            }
            for n in [3, 5, 9] {
                out.push(case(format!("fanout{n}"), fan_out(n), shape, seed));
            }
        }
    }

    let mut rng = SplitMix64::seed_from_u64(SEED);
    let mut lowered = 0;
    let mut draw = 0;
    while lowered < PROGRAMS {
        let trip = 1 + rng.next_u32() % 11;
        let carried = rng.bool();
        let choices: Vec<u32> = (0..64).map(|_| rng.next_u32()).collect();
        let seed = rng.range_u64(0, 1 << 16);
        draw += 1;
        let Ok(l) = lower(&gen::program(trip, carried, choices)) else {
            continue;
        };
        // CSE + DCE first, as the CLI does before mapping.
        out.push(case(
            format!("gen{draw}"),
            optimize(&l.dfg).dfg,
            square,
            seed,
        ));
        lowered += 1;
    }

    out.push(case("too_many_nodes", synthetic::chain(65).dfg, square, 0));
    let tiny = ArrayShape {
        width: 3,
        height: 3,
    };
    out.push(case(
        "bf_on_3x3",
        kernels::bf::build_with_rounds(8).dfg,
        tiny,
        0,
    ));
    out.push(case("too_many_loads", too_many_loads(), square, 0));
    let program = parse(&unroutable_source()).expect("the unroutable loop parses");
    let body = lower(&program.nest).expect("the unroutable loop lowers");
    assert_eq!(body.dfg.pe_node_count(), 63);
    out.push(case("unroutable63", body.dfg, square, 0));
    out
}

/// Render every case, spreading them over a few threads; the text is
/// in case order whatever the thread count.
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
                            (i, case_line(&c.name, &c.dfg, c.shape, c.seed))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for w in workers {
            for (i, line) in w.join().expect("mapping thread") {
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
fn mapper_matches_golden_case_matrix() {
    let text = golden_text();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/map_cases.txt");
    if std::env::var_os("UECGRA_BLESS").is_some() {
        std::fs::write(path, &text).expect("write golden");
        return;
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file exists (UECGRA_BLESS=1 regenerates)");
    for (got, want) in text.lines().zip(golden.lines()) {
        assert_eq!(got, want, "mapper drifted from the checked-in golden");
    }
    assert_eq!(
        text.lines().count(),
        golden.lines().count(),
        "golden case count changed"
    );
}
