//! The event-driven fabric engine.
//!
//! The dense stepper in [`crate::fabric`] sweeps every PE on every PLL
//! tick even though irregular loops leave most PEs stalled most of the
//! time. This module exploits the elasticity of the fabric: a PE's
//! decision (`fire` / `backpressure` / `suppressed` / `operand` /
//! `gated`) can only change when one of its *wakeup edges* occurs —
//! a token arrives in an input queue, a downstream queue it multicasts
//! into frees a slot, a suppressed token finishes aging, or (under the
//! traditional suppressor) the safe-edge phase of a crossing flips.
//! Between wakeups the PE's rising edges all replay its last recorded
//! outcome, so the engine accounts for them in closed form instead of
//! re-evaluating.
//!
//! The dense stepper is kept literal as the *reference oracle*:
//! both engines must produce bit-identical [`Activity`] (and therefore
//! `RunReport`s) on every kernel. The contract is enforced by the
//! differential test layer (`tests/differential.rs`) over seeded
//! random fabrics, the golden fabric matrix, and parity tests on the
//! fabrics the reproduction binaries and the fault campaign simulate.
//! Outside this crate nothing selects an engine: every surface runs
//! [`Engine::default`], and only the `smoke_timing` speed gate and the
//! parity checks name the dense stepper.
//!
//! # Scheduling model
//!
//! Per clock domain the engine keeps a *ready set* (a bitset over PE
//! indices in row-major order). A PE is *armed* when its next rising
//! edge must be genuinely evaluated, and *disarmed* when its outcome is
//! provably static until a wakeup:
//!
//! * **fired** edges re-arm (the PE mutated its own queues/register);
//! * **suppressed** edges re-arm (aging resolves within one period);
//! * under [`SuppressorKind::Traditional`], any PE holding a token in a
//!   used input queue stays armed (the safe-edge LUT flips visibility
//!   with clock phase, so its class is time-varying);
//! * everything else — backpressured, operand-starved, or gateable
//!   edges — is static until a queue it observes changes, which only
//!   happens via a push into one of its input queues or a pop of a
//!   queue it multicasts into (both hooked below).
//!
//! The simulated clock then jumps straight to the earliest rising edge
//! of any non-empty ready set (or to the quiesce deadline / tick
//! limit, whichever is sooner). Before any queue mutation the affected
//! PE is *caught up*: the rising edges it skipped are replayed in bulk
//! into the same counters the dense engine maintains per tick.

use crate::fabric::{
    Activity, Counters, EdgeClass, EdgeTally, Fabric, FabricStop, Hooks, PeState, Step,
    SuppressorKind,
};
use std::fmt;
use uecgra_clock::{ClockSet, VfMode};
use uecgra_compiler::bitstream::{Dir, PeRole};

/// Which simulation engine executes a fabric run.
///
/// Both engines implement the same cycle-level semantics and must
/// produce bit-identical [`Activity`] on every configuration; the
/// dense stepper is the reference oracle, the event-driven scheduler
/// is the fast path (and the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The reference dense stepper: every PE examined on every tick.
    Dense,
    /// The event-driven scheduler: only PEs whose inputs, output
    /// credits, or domain phase changed are re-evaluated.
    #[default]
    EventDriven,
}

impl Engine {
    /// Both engines, reference first.
    pub const ALL: [Engine; 2] = [Engine::Dense, Engine::EventDriven];

    /// Stable short name (`"dense"` / `"event"`), used by
    /// `smoke_timing --engine`.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Dense => "dense",
            Engine::EventDriven => "event",
        }
    }

    /// Parse a `smoke_timing --engine` argument value.
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "dense" => Some(Engine::Dense),
            "event" | "event-driven" => Some(Engine::EventDriven),
            _ => None,
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Work counters of one event-driven run. They live outside
/// [`Activity`] (see [`Fabric::run_event_counted`]), so dense≡event
/// equality and report bytes do not depend on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// `decide` evaluations. The dense stepper makes one per rising
    /// edge of every non-gated PE: the sum of `Activity::rising_edges`.
    pub decides: u64,
    /// Catch-ups that replayed at least one skipped rising edge.
    pub catch_ups: u64,
    /// Disarmed PEs re-armed by a push into one of their queues or a
    /// pop of a queue they feed.
    pub wakeups: u64,
    /// PLL ticks the scheduler visited.
    pub visited_ticks: u64,
}

/// Per-PE scheduling state: whether it is armed, how many of its
/// rising edges are already accounted for, and the outcome its skipped
/// edges replay.
#[derive(Debug, Clone, Copy)]
struct PeSched {
    clk: VfMode,
    gated: bool,
    /// In its domain's ready set (mirrors the bit, for the wake path).
    armed: bool,
    /// Rising edges accounted so far; after accounting through tick
    /// `t` this equals `t / period + 1` (edge at 0 always counts).
    edges_seen: u64,
    class: EdgeClass,
    tally: EdgeTally,
}

/// Per-clock-domain ready sets: bitsets over row-major PE indices, so
/// draining in ascending bit order reproduces the dense stepper's
/// row-major evaluation (and therefore its plan order exactly). They
/// also follow each domain's clock: `through[m]` counts domain `m`'s
/// rising edges in `[0, t]` for the current tick `t`, advanced by
/// addition as the clock moves forward (dividing only after a jump
/// over whole periods), so the per-tick path never divides.
struct ReadySets {
    /// Domain `m`'s words at `m * n_words ..`.
    words: Vec<u64>,
    n_words: usize,
    period: [u64; 3],
    through: [u64; 3],
}

impl ReadySets {
    fn new(n: usize, clocks: &ClockSet) -> ReadySets {
        let n_words = n.div_ceil(64);
        ReadySets {
            words: vec![0u64; 3 * n_words],
            n_words,
            period: VfMode::ALL.map(|m| clocks.period(m)),
            through: [0; 3],
        }
    }

    fn insert(&mut self, mode: VfMode, idx: usize) {
        self.words[mode as usize * self.n_words + idx / 64] |= 1u64 << (idx % 64);
    }

    fn domain(&self, m: usize) -> &[u64] {
        &self.words[m * self.n_words..][..self.n_words]
    }

    /// Rising edges of `mode` in `[0, t]`, `t` being the tick last
    /// drained.
    fn edges_through(&self, mode: VfMode) -> u64 {
        self.through[mode as usize]
    }

    /// Move the clocks to tick `t` (never backwards) and drain every
    /// armed PE whose domain rises there into `out`, in ascending
    /// (row-major) index order.
    fn drain_rising(&mut self, t: u64, out: &mut Vec<usize>) {
        out.clear();
        let rising: [bool; 3] = core::array::from_fn(|m| {
            let (p, n) = (self.period[m], &mut self.through[m]);
            // `*n * p` is the domain's first edge after the last tick.
            if t >= *n * p {
                *n = if t < (*n + 1) * p { *n + 1 } else { t / p + 1 };
            }
            (*n - 1) * p == t
        });
        for wi in 0..self.n_words {
            let mut merged = 0u64;
            for (m, &rises) in rising.iter().enumerate() {
                if rises {
                    merged |= self.words[m * self.n_words + wi];
                    self.words[m * self.n_words + wi] = 0;
                }
            }
            while merged != 0 {
                out.push(wi * 64 + merged.trailing_zeros() as usize);
                merged &= merged - 1;
            }
        }
    }

    /// The earliest rising edge after the tick last drained of any
    /// domain with at least one armed PE (`None` when everything is
    /// disarmed).
    fn next_event(&self) -> Option<u64> {
        (0..3)
            .filter(|&m| self.domain(m).iter().any(|&w| w != 0))
            .map(|m| self.through[m] * self.period[m])
            .min()
    }
}

/// The scheduler's state: per-PE replay state, the ready sets, and
/// its work counters.
struct Scheduler {
    sched: Vec<PeSched>,
    ready: ReadySets,
    work: EngineCounters,
}

impl Scheduler {
    /// Replay the rising edges PE `idx` skipped while disarmed, up to
    /// its `target`-th rising edge. Must run *before* any queue
    /// visible to the PE mutates: the occupancy sample taken before
    /// the mutation then covers the replayed edges with the lengths
    /// they saw. A no-op on armed PEs (they have no unaccounted edges)
    /// and on gated PEs.
    fn catch_up(&mut self, c: &mut Counters, idx: usize, target: u64) {
        let s = &mut self.sched[idx];
        if s.gated || target <= s.edges_seen {
            return;
        }
        // Fired and suppressed edges always re-arm their PE, so a
        // disarmed PE can only be replaying a static stall class.
        assert!(
            !matches!(s.class, EdgeClass::Fire | EdgeClass::Suppressed),
            "fire/suppressed outcomes re-arm; they are never replayed"
        );
        c.edges(idx, s.clk, target - s.edges_seen, &s.tally, s.class);
        s.edges_seen = target;
        self.work.catch_ups += 1;
    }
}

impl Hooks for Scheduler {
    /// A queue PE `idx` observes is about to grow, or just freed a slot
    /// it pushes into: catch it up and re-arm it. Armed PEs have no
    /// unaccounted edges, so the wake skips them entirely — the hot
    /// path on busy fabrics, where most neighbors are already armed.
    fn wake(&mut self, c: &mut Counters, idx: usize) {
        let s = &mut self.sched[idx];
        if s.armed || s.gated {
            return;
        }
        s.armed = true;
        let clk = s.clk;
        self.catch_up(c, idx, self.ready.edges_through(clk));
        self.ready.insert(clk, idx);
        self.work.wakeups += 1;
    }

    /// Sample occupancy lazily: a queue held its current length on
    /// every edge accounted since it last changed.
    fn resizing(&mut self, c: &mut Counters, idx: usize, dir: Dir, pe: &PeState) {
        c.sample_queue(idx, dir, pe);
    }
}

/// Under the traditional suppressor a held token's visibility flips
/// with the safe-edge LUT phase, so any PE with a token in a *used*
/// input queue has a time-varying outcome and must stay armed.
fn has_pending_input(fab: &Fabric, idx: usize) -> bool {
    let state = &fab.grid[idx];
    (0..4).any(|d| state.queue_users[d].iter().any(|&u| u) && !state.queues[d].is_empty())
}

/// Run `fab` to completion with the event-driven scheduler, producing
/// an [`Activity`] bit-identical to `Fabric::run` and the scheduler's
/// work counters.
pub(crate) fn run_event(mut fab: Fabric) -> (Activity, EngineCounters) {
    let n = fab.grid.len();
    let clocks = fab.config.clocks.clone();
    let hyper = clocks.hyperperiod();
    let quiesce_window = hyper * 3;
    let traditional = fab.config.suppressor == SuppressorKind::Traditional;
    // Injected faults (stuck handshakes, domain stalls) change PE
    // outcomes at fault-plan boundaries with no queue mutation to hook
    // a wakeup on, so the skip optimization is unsound under them.
    // With a non-empty plan every evaluated PE simply re-arms: the
    // engine degrades to dense-equivalent evaluation while keeping the
    // bit-identical contract (re-evaluating an unchanged PE reproduces
    // exactly the counters a replay would).
    let always_armed = !fab.faults.is_empty();

    let mut c = Counters::new(n, fab.config.queue_capacity + 1);
    let mut s = Scheduler {
        sched: fab
            .grid
            .iter()
            .map(|pe| PeSched {
                clk: pe.config.clk,
                gated: pe.config.role == PeRole::Gated,
                armed: false,
                edges_seen: 0,
                // Placeholder: every non-gated PE is evaluated at t=0
                // (all domains rise there) before any replay happens.
                class: EdgeClass::Gated,
                tally: EdgeTally::default(),
            })
            .collect(),
        ready: ReadySets::new(n.max(1), &clocks),
        work: EngineCounters::default(),
    };

    // `end` is the last PLL tick whose phase-1 accounting the dense
    // reference performs (None when max_ticks == 0 and the dense loop
    // never runs at all).
    let (stop, end, ticks) = if fab.config.max_ticks == 0 {
        (FabricStop::TickLimit, None, 0)
    } else {
        for (idx, p) in s.sched.iter_mut().enumerate() {
            if !p.gated {
                p.armed = true;
                s.ready.insert(p.clk, idx);
            }
        }
        let mut t = 0u64;
        let mut last_act = 0u64;
        let mut evaluated: Vec<usize> = Vec::new();
        let mut step = Step::default();
        loop {
            s.work.visited_ticks += 1;
            // Phase 1: evaluate armed PEs of the domains rising at `t`,
            // in row-major order (matching the dense sweep; skipped PEs
            // provably contribute no plans).
            s.ready.drain_rising(t, &mut evaluated);
            for &idx in &evaluated {
                let (class, tally) = fab.evaluate(idx, t, &mut step.plans, &mut c);
                s.work.decides += 1;
                let p = &mut s.sched[idx];
                p.edges_seen += 1;
                p.armed = always_armed
                    || class == EdgeClass::Fire
                    || tally.suppressed
                    || (traditional && has_pending_input(&fab, idx));
                if p.armed {
                    s.ready.insert(p.clk, idx);
                } else {
                    p.class = class;
                    p.tally = tally;
                }
            }

            // Phase 2: apply plans exactly as the dense stepper does,
            // with the scheduler's wakeup on every queue mutation.
            let acted = !step.plans.is_empty();
            fab.apply(&mut step, t, &mut c, &mut s);

            if fab.protocol.is_fatal() {
                break (FabricStop::ProtocolViolation, Some(t), t + 1);
            }
            if acted {
                last_act = t;
            }
            if fab.marker_done(&c) {
                break (FabricStop::MarkerDone, Some(t), t + 1);
            }
            if t >= last_act + quiesce_window {
                break (FabricStop::Quiesced, Some(t), t);
            }

            // Jump to the next interesting tick: the earliest rising
            // edge of an armed domain, unless the quiesce deadline or
            // the tick limit comes first. Every tick in between would
            // run an empty phase 1 in the dense engine (no armed PE
            // rises), so nothing is skipped — the skipped edges of
            // disarmed PEs are replayed by `catch_up` at the end.
            let t_quiesce = last_act + quiesce_window;
            let t_event = s.ready.next_event();
            let next = t_event.map_or(t_quiesce, |e| e.min(t_quiesce));
            if next >= fab.config.max_ticks {
                break (
                    FabricStop::TickLimit,
                    Some(fab.config.max_ticks - 1),
                    fab.config.max_ticks,
                );
            }
            if t_event.is_none_or(|e| t_quiesce < e) {
                break (FabricStop::Quiesced, Some(t_quiesce), t_quiesce);
            }
            t = next;
        }
    };

    let mut domain_edges = [0u64; 3];
    let mut domain_edges_hyper = [0u64; 3];
    if let Some(end) = end {
        for idx in 0..n {
            let target = clocks.rising_edges_through(s.sched[idx].clk, end);
            s.catch_up(&mut c, idx, target);
        }
        for m in VfMode::ALL {
            domain_edges[m as usize] = clocks.rising_edges_through(m, end);
            domain_edges_hyper[m as usize] = clocks.rising_edges_through(m, end.min(hyper - 1));
        }
    }
    for (idx, pe) in fab.grid.iter().enumerate() {
        for dir in Dir::ALL {
            c.sample_queue(idx, dir, pe);
        }
    }
    let activity = fab.finish(c, domain_edges, domain_edges_hyper, ticks, stop);
    (activity, s.work)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_labels_roundtrip() {
        for e in Engine::ALL {
            assert_eq!(Engine::parse(e.label()), Some(e));
        }
        assert_eq!(Engine::parse("event-driven"), Some(Engine::EventDriven));
        assert_eq!(Engine::parse("fast"), None);
        assert_eq!(Engine::default(), Engine::EventDriven);
    }

    #[test]
    fn ready_sets_drain_row_major() {
        let clocks = ClockSet::default();
        let mut r = ReadySets::new(130, &clocks);
        r.insert(VfMode::Sprint, 129);
        r.insert(VfMode::Nominal, 3);
        r.insert(VfMode::Rest, 64);
        let mut out = Vec::new();
        // t=0: every domain rises.
        r.drain_rising(0, &mut out);
        assert_eq!(out, vec![3, 64, 129]);
        assert!(r.next_event().is_none());
        // t=2: only sprint rises; nominal member stays armed.
        r.insert(VfMode::Sprint, 7);
        r.insert(VfMode::Nominal, 1);
        r.drain_rising(2, &mut out);
        assert_eq!(out, vec![7]);
        assert_eq!(r.next_event(), Some(3));
        assert_eq!(r.edges_through(VfMode::Sprint), 2);
        // A jump over whole periods to 27, where rest (period 9) and
        // nominal rise but sprint does not.
        r.insert(VfMode::Rest, 5);
        r.insert(VfMode::Sprint, 9);
        r.drain_rising(27, &mut out);
        assert_eq!(out, vec![1, 5]);
        assert_eq!(r.edges_through(VfMode::Rest), 4);
        assert_eq!(r.edges_through(VfMode::Nominal), 10);
        assert_eq!(r.edges_through(VfMode::Sprint), 14);
        assert_eq!(r.next_event(), Some(28), "the sprint PE is still armed");
    }
}
