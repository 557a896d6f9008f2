//! The cycle-level UE-CGRA fabric simulator.
//!
//! Executes a compiled [`Bitstream`] directly: tokens flow between
//! adjacent PEs through bisynchronous input queues; each PE acts only
//! on the rising edges of its selected rational clock; operand reads
//! are gated by the elasticity-aware suppressor invariant (one
//! receiver-period of aging); compute and bypass proceed in the same
//! cycle (paper Section IV-A); and multicast outputs (ALU broadcast or
//! forked bypass) require every target queue to have space.
//!
//! Setting every PE's clock to nominal makes the fabric an **E-CGRA**;
//! per-PE rest/nominal/sprint selections make it a **UE-CGRA**. The
//! simulator is functional: `load`/`store` PEs access the perimeter
//! scratchpad, so final memory images can be checked against host
//! references.

use crate::checker::{ProtocolChecker, ProtocolReport, ViolationKind};
use crate::faults::{FaultPlan, FaultState};
use crate::queue::{BisyncQueue, Token};
use crate::scratchpad::Scratchpad;
use uecgra_clock::{ClockChecker, ClockSet, VfMode};
use uecgra_compiler::bitstream::{Bitstream, Dir, OperandSel, PeConfig, PeRole};
use uecgra_compiler::mapping::Coord;
use uecgra_dfg::Op;

/// Which suppressor guards the clock-domain crossings (the paper's
/// Figure 8(c/d) ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SuppressorKind {
    /// The paper's novel suppressor: handshakes proceed on unsafe
    /// edges once the data has aged one local clock cycle.
    #[default]
    ElasticityAware,
    /// A traditional ratiochronous suppressor: handshakes only on
    /// safe edges — crossings whose schedule has *no* safe edges
    /// (e.g. sprint→nominal in the 2:3:9 plan) stall forever.
    Traditional,
}

/// Configuration of a fabric run.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// The rational clock plan.
    pub clocks: ClockSet,
    /// Input-queue capacity (paper default: 2).
    pub queue_capacity: usize,
    /// Hard tick limit.
    pub max_ticks: u64,
    /// Stop once the marker PE has fired this many times.
    pub max_marker_fires: Option<u64>,
    /// PE whose firings count iterations.
    pub marker: Option<Coord>,
    /// Crossing-suppressor flavor.
    pub suppressor: SuppressorKind,
    /// Record per-event (tick, PE) firing/bypass events for waveform
    /// dumping (costs memory proportional to activity).
    pub record_events: bool,
    /// Faults to inject (default: none). A non-empty plan switches the
    /// event-driven engine into all-armed evaluation so both engines
    /// stay bit-identical under time-windowed faults.
    pub faults: FaultPlan,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            clocks: ClockSet::default(),
            queue_capacity: 2,
            max_ticks: 50_000_000,
            max_marker_fires: None,
            marker: None,
            suppressor: SuppressorKind::ElasticityAware,
            record_events: false,
            faults: FaultPlan::none(),
        }
    }
}

/// Why a fabric run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricStop {
    /// The marker reached its configured count.
    MarkerDone,
    /// No PE acted for a settling window: execution finished.
    Quiesced,
    /// The tick limit was hit.
    TickLimit,
    /// The protocol checker detected a fatal invariant violation
    /// (see [`crate::checker::ProtocolReport::first_fatal`]); the
    /// simulated state is no longer meaningful.
    ProtocolViolation,
}

/// One recorded event for waveform dumping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FireEvent {
    /// PLL tick.
    pub tick: u64,
    /// PE coordinate.
    pub pe: Coord,
    /// True for an op firing, false for a bypass forward.
    pub is_fire: bool,
}

/// Per-PE activity counters for performance and energy analysis.
///
/// Two families of counters coexist:
///
/// * **Event counts** (`input_stalls`, `output_stalls`) tally every
///   stalled cause per rising edge — a PE whose compute starves while
///   a bypass slot backpressures counts both. These feed the energy
///   model's stall pricing.
/// * **Edge classification** (`fire_edges`, `operand_stalls`,
///   `suppressed_stalls`, `backpressure_stalls`, `gated_ticks`)
///   assigns each local rising edge of a configured PE to exactly one
///   disposition, by priority: fired (any compute or bypass plan) >
///   backpressured (an output stalled) > suppressed (a token present
///   but held by the bisynchronous suppressor or register aging) >
///   operand-starved (waiting on data) > gateable idle. The five
///   classes partition `rising_edges`, which is the conservation
///   invariant the probe layer's property test checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Activity {
    /// Op firings per PE (`[row][col]`).
    pub fires: Vec<Vec<u64>>,
    /// Bypass tokens forwarded per PE.
    pub bypass_tokens: Vec<Vec<u64>>,
    /// Stalled input causes per rising edge (event count).
    pub input_stalls: Vec<Vec<u64>>,
    /// Stalled output causes per rising edge (event count).
    pub output_stalls: Vec<Vec<u64>>,
    /// Local rising edges observed per configured PE.
    pub rising_edges: Vec<Vec<u64>>,
    /// Edges on which the PE fired and/or forwarded at least once.
    pub fire_edges: Vec<Vec<u64>>,
    /// Edges starved of an operand (a required token absent).
    pub operand_stalls: Vec<Vec<u64>>,
    /// Edges where a token was present but the suppressor (or its
    /// one-period register-aging analogue) held it back.
    pub suppressed_stalls: Vec<Vec<u64>>,
    /// Edges blocked only by downstream backpressure.
    pub backpressure_stalls: Vec<Vec<u64>>,
    /// Idle edges: nothing pending, nothing blocked — the local clock
    /// could have been gated.
    pub gated_ticks: Vec<Vec<u64>>,
    /// Input-queue occupancy histograms: `queue_occupancy[y][x][d]`
    /// counts, over the PE's rising edges, its four direction queues
    /// holding exactly `d` tokens (histogram length = capacity + 1).
    pub queue_occupancy: Vec<Vec<Vec<u64>>>,
    /// Clock rising edges per domain (rest/nominal/sprint) over the
    /// whole run.
    pub domain_edges: [u64; 3],
    /// Clock rising edges per domain within the first hyperperiod —
    /// the exact rational basis `vlsi::clock_power_from_edges` uses in
    /// place of hand-computed frequency ratios.
    pub domain_edges_hyper: [u64; 3],
    /// Gateable idle edges summed per clock domain.
    pub domain_gated_ticks: [u64; 3],
    /// SRAM accesses per memory PE.
    pub sram_accesses: Vec<Vec<u64>>,
    /// Ticks at which the marker PE fired.
    pub marker_times: Vec<u64>,
    /// Total PLL ticks simulated.
    pub ticks: u64,
    /// Why the run stopped.
    pub stop: FabricStop,
    /// The clock plan (for unit conversion).
    pub clocks: ClockSet,
    /// Final scratchpad.
    pub mem: Vec<u32>,
    /// Recorded events (empty unless `record_events` was set).
    pub events: Vec<FireEvent>,
    /// The elastic-protocol checker's end-of-run summary (always
    /// populated; bit-identical across engines; empty `violations` on
    /// clean runs).
    pub protocol: ProtocolReport,
}

impl Activity {
    /// Steady-state initiation interval in nominal cycles (see
    /// `uecgra_model::SimResult::steady_ii`).
    pub fn steady_ii(&self, skip: usize) -> Option<f64> {
        let times = &self.marker_times;
        if times.len() < skip + 2 {
            return None;
        }
        let t0 = times[skip];
        let t1 = *times.last().expect("len checked");
        let n = (times.len() - 1 - skip) as f64;
        Some(self.clocks.pll_to_nominal_cycles(t1 - t0) / n)
    }

    /// Iterations completed.
    pub fn iterations(&self) -> u64 {
        self.marker_times.len() as u64
    }

    /// Run length in nominal cycles.
    pub fn nominal_cycles(&self) -> f64 {
        self.clocks.pll_to_nominal_cycles(self.ticks)
    }
}

/// One PE's configuration and live state. The fabric keeps them in one
/// flat row-major vector: PE `(x, y)` is index `y·w + x`.
#[derive(Debug)]
pub(crate) struct PeState {
    pub(crate) config: PeConfig,
    /// Grid coordinate (for the fault injector, the protocol checker,
    /// the scratchpad and recorded events).
    pub(crate) at: Coord,
    /// Local clock period in PLL ticks.
    pub(crate) period: u64,
    pub(crate) queues: [BisyncQueue; 4],
    /// Which local users (0 = compute, 1/2 = bypass slots) consume each
    /// direction's queue, derived from the configuration. The front
    /// token pops once all of them have taken it (eager fork).
    pub(crate) queue_users: [[bool; 3]; 4],
    /// Clock domain of the neighbor driving each queue (for the
    /// traditional suppressor's safe-edge lookup).
    pub(crate) queue_src_mode: [Option<VfMode>; 4],
    pub(crate) reg: Option<Token>,
    pub(crate) init_pending: bool,
}

fn queue_users(cfg: &PeConfig) -> [[bool; 3]; 4] {
    let mut users = [[false; 3]; 4];
    for sel in cfg.operands {
        if let OperandSel::Queue(d) = sel {
            users[d as usize][0] = true;
        }
    }
    for (slot, b) in cfg.bypass.iter().enumerate() {
        if let Some(bp) = b {
            users[bp.src as usize][slot + 1] = true;
        }
    }
    users
}

/// What one PE does on one rising edge, decided in phase 1 and applied
/// in phase 2. `pe` is the PE's flat index.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Plan {
    Compute {
        pe: usize,
        /// Input queues to consume, in operand order; one net feeding
        /// both ports is consumed once.
        pops: [Option<Dir>; 2],
        consume_reg: bool,
        operands: [u32; 2],
        op: Op,
        out_port: u8,
        is_init: bool,
        init_value: u32,
    },
    Bypass {
        pe: usize,
        src: Dir,
        slot: usize,
        dst_mask: [bool; 4],
        value: u32,
    },
}

/// Per-edge stall bookkeeping for one PE's decision pass: the legacy
/// per-cause event counts plus the flags the edge classifier needs.
/// An edge has at most three causes (two bypass slots and compute), so
/// the counts are bytes and a tally fits in a register.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EdgeTally {
    /// Stalled input causes this edge (legacy event count).
    pub(crate) input_stalls: u8,
    /// Stalled output causes this edge (legacy event count).
    pub(crate) output_stalls: u8,
    /// Some required token was present but held by the suppressor /
    /// register aging.
    pub(crate) suppressed: bool,
}

/// The five-way disposition of one local rising edge, by priority:
/// fired > backpressured > suppressed > operand-starved > gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeClass {
    Fire,
    Backpressure,
    Suppressed,
    Operand,
    Gated,
}

impl EdgeTally {
    fn class(&self, fired: bool) -> EdgeClass {
        if fired {
            EdgeClass::Fire
        } else if self.output_stalls > 0 {
            EdgeClass::Backpressure
        } else if self.suppressed {
            EdgeClass::Suppressed
        } else if self.input_stalls > 0 {
            EdgeClass::Operand
        } else {
            EdgeClass::Gated
        }
    }
}

/// Why an operand read failed this edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallCause {
    /// The token has not arrived (or a const/reg is simply absent).
    Starved,
    /// A token is present but the suppressor (or the one-period
    /// register-aging rule) blocks it this edge.
    Suppressed,
}

/// The per-PE `Activity` counters, stored flat by PE index while a run
/// is in flight; [`Fabric::finish`] restores the `[y][x]` nesting.
pub(crate) struct Counters {
    fires: Vec<u64>,
    bypass_tokens: Vec<u64>,
    input_stalls: Vec<u64>,
    output_stalls: Vec<u64>,
    rising_edges: Vec<u64>,
    fire_edges: Vec<u64>,
    operand_stalls: Vec<u64>,
    suppressed_stalls: Vec<u64>,
    backpressure_stalls: Vec<u64>,
    gated_ticks: Vec<u64>,
    /// `buckets` slots per PE, at `idx * buckets ..`.
    queue_occupancy: Vec<u64>,
    buckets: usize,
    /// Per queue (`idx * 4 + dir`), the owning PE's rising edges
    /// already credited to `queue_occupancy` (lazy sampling only).
    queue_sampled: Vec<u64>,
    domain_gated_ticks: [u64; 3],
    marker_times: Vec<u64>,
    events: Vec<FireEvent>,
}

impl Counters {
    pub(crate) fn new(n: usize, buckets: usize) -> Counters {
        Counters {
            fires: vec![0; n],
            bypass_tokens: vec![0; n],
            input_stalls: vec![0; n],
            output_stalls: vec![0; n],
            rising_edges: vec![0; n],
            fire_edges: vec![0; n],
            operand_stalls: vec![0; n],
            suppressed_stalls: vec![0; n],
            backpressure_stalls: vec![0; n],
            gated_ticks: vec![0; n],
            queue_occupancy: vec![0; n * buckets],
            buckets,
            queue_sampled: vec![0; 4 * n],
            domain_gated_ticks: [0; 3],
            marker_times: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Account `k` rising edges of PE `idx` in domain `clk`, all with
    /// the same stall tallies and class (one evaluated edge, or a run of
    /// skipped edges replaying it).
    pub(crate) fn edges(
        &mut self,
        idx: usize,
        clk: VfMode,
        k: u64,
        tally: &EdgeTally,
        class: EdgeClass,
    ) {
        self.rising_edges[idx] += k;
        self.input_stalls[idx] += k * u64::from(tally.input_stalls);
        self.output_stalls[idx] += k * u64::from(tally.output_stalls);
        match class {
            EdgeClass::Fire => self.fire_edges[idx] += k,
            EdgeClass::Backpressure => self.backpressure_stalls[idx] += k,
            EdgeClass::Suppressed => self.suppressed_stalls[idx] += k,
            EdgeClass::Operand => self.operand_stalls[idx] += k,
            EdgeClass::Gated => {
                self.gated_ticks[idx] += k;
                self.domain_gated_ticks[clk as usize] += k;
            }
        }
    }

    /// Sample PE `idx`'s four queues for one rising edge (the dense
    /// stepper's eager sampling, in phase 1).
    pub(crate) fn sample_occupancy(&mut self, idx: usize, pe: &PeState) {
        let occ = &mut self.queue_occupancy[idx * self.buckets..][..self.buckets];
        for q in &pe.queues {
            occ[q.len().min(self.buckets - 1)] += 1;
        }
    }

    /// Lazy sampling of queue `dir` of PE `idx`: credit its current
    /// length to every rising edge of the PE accounted since the
    /// queue's last credit. Lengths change only in phase 2, so calling
    /// this before each change of the queue (and once at the end), once
    /// the PE's edges are accounted, credits every edge the length it
    /// saw in phase 1.
    pub(crate) fn sample_queue(&mut self, idx: usize, dir: Dir, pe: &PeState) {
        let sampled = &mut self.queue_sampled[idx * 4 + dir as usize];
        let k = self.rising_edges[idx] - *sampled;
        if k == 0 {
            return;
        }
        *sampled = self.rising_edges[idx];
        let len = pe.queues[dir as usize].len().min(self.buckets - 1);
        self.queue_occupancy[idx * self.buckets + len] += k;
    }
}

/// Re-shape a flat row-major array of `h` rows of `w` PEs with `k`
/// values each into `[y][x * k ..]` rows.
fn rows(flat: &[u64], w: usize, h: usize, k: usize) -> impl Iterator<Item = &[u64]> {
    (0..h).map(move |y| &flat[y * w * k..(y + 1) * w * k])
}

fn nested(flat: &[u64], w: usize, h: usize) -> Vec<Vec<u64>> {
    rows(flat, w, h, 1).map(<[u64]>::to_vec).collect()
}

/// Phase 2's hooks on queue mutations. The dense stepper needs none
/// (`()`): it evaluates and samples every PE on every edge. The event
/// engine re-arms PEs and samples queue occupancy lazily through them.
pub(crate) trait Hooks {
    /// PE `idx` may unblock: one of its queues is about to grow, or a
    /// pop just freed a slot in a queue it pushes into.
    fn wake(&mut self, _c: &mut Counters, _idx: usize) {}

    /// Queue `dir` of PE `idx` (state `pe`) is about to change length.
    fn resizing(&mut self, _c: &mut Counters, _idx: usize, _dir: Dir, _pe: &PeState) {}
}

impl Hooks for () {}

/// The plans of one tick and phase 2's buffers, reused across ticks so
/// no tick allocates.
#[derive(Default)]
pub(crate) struct Step {
    pub(crate) plans: Vec<Plan>,
    pushes: Vec<(usize, [bool; 4], u32)>,
    stores: Vec<(usize, u32, u32)>,
}

/// The fabric simulator.
#[derive(Debug)]
pub struct Fabric {
    pub(crate) width: usize,
    pub(crate) height: usize,
    /// PE state, row-major: PE `(x, y)` is `grid[y·w + x]`.
    pub(crate) grid: Vec<PeState>,
    /// `neighbors[idx][d]`: the PE one step in direction `Dir::ALL[d]`,
    /// or `None` off the array edge.
    pub(crate) neighbors: Vec<[Option<usize>; 4]>,
    /// Flat index of the marker PE (`None` without a marker, or when
    /// it lies off the array).
    pub(crate) marker: Option<usize>,
    pub(crate) scratch: Scratchpad,
    pub(crate) config: FabricConfig,
    pub(crate) checker: ClockChecker,
    pub(crate) protocol: ProtocolChecker,
    pub(crate) faults: FaultState,
}

impl Fabric {
    /// Build a fabric from a bitstream and an initial memory image.
    pub fn new(bitstream: &Bitstream, mem: Vec<u32>, config: FabricConfig) -> Fabric {
        let height = bitstream.grid.len();
        let width = bitstream.grid.first().map_or(0, |r| r.len());
        let neighbors: Vec<[Option<usize>; 4]> = (0..width * height)
            .map(|idx| {
                let (x, y) = (idx % width, idx / width);
                Dir::ALL.map(|d| match d {
                    Dir::North if y > 0 => Some(idx - width),
                    Dir::South if y + 1 < height => Some(idx + width),
                    Dir::West if x > 0 => Some(idx - 1),
                    Dir::East if x + 1 < width => Some(idx + 1),
                    _ => None,
                })
            })
            .collect();
        let configs: Vec<PeConfig> = bitstream.grid.iter().flatten().copied().collect();
        let grid = configs
            .iter()
            .enumerate()
            .map(|(idx, cfg)| PeState {
                config: *cfg,
                at: (idx % width, idx / width),
                period: config.clocks.period(cfg.clk),
                queues: core::array::from_fn(|_| BisyncQueue::new(config.queue_capacity)),
                queue_users: queue_users(cfg),
                // Each queue's source clock domain (the neighbor that
                // drives it), for the traditional suppressor's LUT.
                queue_src_mode: neighbors[idx].map(|n| {
                    n.map(|n| &configs[n])
                        .filter(|c| c.role != PeRole::Gated)
                        .map(|c| c.clk)
                }),
                reg: None,
                init_pending: cfg.init.is_some(),
            })
            .collect();
        let marker = config
            .marker
            .filter(|&(x, y)| x < width && y < height)
            .map(|(x, y)| y * width + x);
        Fabric {
            width,
            height,
            grid,
            neighbors,
            marker,
            scratch: Scratchpad::new(mem),
            checker: ClockChecker::new(&config.clocks),
            protocol: ProtocolChecker::new(width, height),
            faults: FaultState::new(config.faults.clone()),
            config,
        }
    }

    /// Front-token visibility for `user` of queue `dir` of PE `idx`
    /// at tick `t`, under the configured suppressor.
    fn queue_visible(&self, idx: usize, dir: Dir, user: usize, t: u64) -> Option<u32> {
        let state = &self.grid[idx];
        // An injected stuck-at-low valid hides the front token; the
        // elastic protocol absorbs the delay (classified suppressed).
        if self.faults.valid_stuck(state.at, dir, t) {
            return None;
        }
        match self.config.suppressor {
            SuppressorKind::ElasticityAware => {
                state.queues[dir as usize].front_visible_for(t, state.period, user)
            }
            SuppressorKind::Traditional => {
                let src_mode = state.queue_src_mode[dir as usize]?;
                let lut = self.checker.lut(src_mode, state.config.clk);
                if lut.is_unsafe_at(t) {
                    return None;
                }
                // Safe edge: any registered token (nonzero age) passes.
                state.queues[dir as usize].front_visible_for(t, 1, user)
            }
        }
    }

    /// Can PE `idx` deliver to every direction in `mask` (all target
    /// queues have space and report ready at tick `t`)? Tokens arrive
    /// in the neighbor's queue facing back toward `idx`. Directions off
    /// the array edge are dropped silently (they can only arise from
    /// malformed configs).
    pub(crate) fn mask_ready(&self, idx: usize, mask: &[bool; 4], t: u64) -> bool {
        Dir::ALL.into_iter().all(|dir| {
            let Some(n) = self.neighbors[idx][dir as usize].filter(|_| mask[dir as usize]) else {
                return true;
            };
            let dst = &self.grid[n];
            dst.queues[dir.opposite() as usize].can_push()
                && !self.faults.ready_stuck(dst.at, dir.opposite(), t)
        })
    }

    /// Deliver `value` from PE `idx` to every direction in `mask`,
    /// waking each receiver before its queue grows.
    fn deliver(
        &mut self,
        idx: usize,
        mask: [bool; 4],
        value: u32,
        t: u64,
        c: &mut Counters,
        hooks: &mut impl Hooks,
    ) {
        for dir in Dir::ALL {
            let Some(n) = self.neighbors[idx][dir as usize].filter(|_| mask[dir as usize]) else {
                continue;
            };
            hooks.wake(c, n);
            hooks.resizing(c, n, dir.opposite(), &self.grid[n]);
            self.push_checked(n, dir.opposite(), value, t);
        }
    }

    /// Deliver one token into queue `back` of PE `dst`, routed through
    /// the fault injector and accounted by the protocol checker on both
    /// sides. A push without credit — possible only with a malformed
    /// bitstream (conflicting drivers) or a duplication fault — becomes
    /// a fatal `Overflow` violation instead of a panic.
    fn push_checked(&mut self, dst: usize, back: Dir, value: u32, t: u64) {
        let at = self.grid[dst].at;
        self.protocol.offer(at, back, value);
        let inj = self.faults.inject(at, back, value);
        for _ in 0..inj.copies {
            self.protocol.receive(at, back, inj.value);
            if !self.grid[dst].queues[back as usize].try_push(inj.value, t) {
                self.protocol
                    .fatal(at, Some(back), t, ViolationKind::Overflow);
            }
        }
    }

    /// Phase-2 consumption of the front token of queue `dir` of PE
    /// `idx` by local `user`, with suppressor-safety checking and pop
    /// accounting. Mis-scheduled takes (empty queue, double take)
    /// become fatal protocol violations instead of panics. Returns
    /// `true` when the take popped the token (the producer's wakeup).
    fn take_checked(&mut self, idx: usize, dir: Dir, user: usize, t: u64) -> bool {
        let state = &self.grid[idx];
        let pe = state.at;
        if let Some(tok) = state.queues[dir as usize].front() {
            // Suppressor safety: no capture of a token younger than
            // one receiver period (elasticity-aware), or on an unsafe
            // edge / younger than one tick (traditional).
            let safe = match self.config.suppressor {
                SuppressorKind::ElasticityAware => t >= tok.written + state.period,
                SuppressorKind::Traditional => {
                    let on_safe_edge = state.queue_src_mode[dir as usize]
                        .is_none_or(|s| !self.checker.lut(s, state.config.clk).is_unsafe_at(t));
                    on_safe_edge && t > tok.written
                }
            };
            if !safe {
                let kind = ViolationKind::SuppressorUnsafe {
                    age: t.saturating_sub(tok.written),
                    period: state.period,
                };
                self.protocol.record(pe, Some(dir), t, kind);
            }
        }
        let state = &mut self.grid[idx];
        let required = state.queue_users[dir as usize];
        match state.queues[dir as usize].try_take(user, required) {
            Ok(popped) => {
                if popped {
                    self.protocol.consume(pe, dir);
                }
                popped
            }
            Err(e) => {
                self.protocol.fatal_take(pe, dir, t, e);
                false
            }
        }
    }

    /// Checked scratchpad load: an out-of-bounds address (reachable
    /// under payload-flip faults) becomes a fatal violation and reads
    /// zero instead of aborting.
    fn load_checked(&mut self, pe: Coord, addr: u32, t: u64) -> u32 {
        match self.scratch.try_read(pe, addr) {
            Some(v) => v,
            None => {
                self.protocol
                    .fatal(pe, None, t, ViolationKind::MemoryOutOfBounds { addr });
                0
            }
        }
    }

    /// Checked scratchpad store (see [`Fabric::load_checked`]).
    fn store_checked(&mut self, pe: Coord, addr: u32, value: u32, t: u64) {
        if !self.scratch.try_write(pe, addr, value) {
            self.protocol
                .fatal(pe, None, t, ViolationKind::MemoryOutOfBounds { addr });
        }
    }

    /// Run to completion with the selected engine. Both engines are
    /// bit-identical by contract (see [`crate::engine`]); the dense
    /// stepper is the reference oracle, the event-driven scheduler the
    /// fast path.
    pub fn run_with(self, engine: crate::engine::Engine) -> Activity {
        match engine {
            crate::engine::Engine::Dense => self.run(),
            crate::engine::Engine::EventDriven => crate::engine::run_event(self).0,
        }
    }

    /// Run to completion with the event-driven engine, also returning
    /// its work counters (a side channel: the `Activity` is the one
    /// [`Fabric::run_with`] returns).
    pub fn run_event_counted(self) -> (Activity, crate::engine::EngineCounters) {
        crate::engine::run_event(self)
    }

    /// Run to completion with the dense reference stepper: every PE is
    /// examined, and its queues sampled, on every one of its rising
    /// edges.
    pub fn run(mut self) -> Activity {
        let mut c = Counters::new(self.grid.len(), self.config.queue_capacity + 1);
        let mut domain_edges = [0u64; 3];
        let mut domain_edges_hyper = [0u64; 3];
        let hyper = self.config.clocks.hyperperiod();
        let quiesce_window = hyper * 3;
        let mut last_act = 0u64;
        let mut stop = FabricStop::TickLimit;
        let mut step = Step::default();

        let mut t = 0u64;
        while t < self.config.max_ticks {
            // Clock-domain edge counters (properties of the clock
            // plan, measured rather than hand-computed so the power
            // model consumes simulation output directly).
            for mode in VfMode::ALL {
                if self.config.clocks.is_rising(mode, t) {
                    domain_edges[mode as usize] += 1;
                    if t < hyper {
                        domain_edges_hyper[mode as usize] += 1;
                    }
                }
            }

            // Phase 1: decide per rising PE, classifying each edge and
            // sampling its queues.
            for (idx, pe) in self.grid.iter().enumerate() {
                let clk = pe.config.clk;
                if pe.config.role != PeRole::Gated && self.config.clocks.is_rising(clk, t) {
                    self.evaluate(idx, t, &mut step.plans, &mut c);
                    c.sample_occupancy(idx, pe);
                }
            }

            // Phase 2: apply.
            let acted = !step.plans.is_empty();
            self.apply(&mut step, t, &mut c, &mut ());

            if self.protocol.is_fatal() {
                stop = FabricStop::ProtocolViolation;
                t += 1;
                break;
            }
            if acted {
                last_act = t;
            }
            if self.marker_done(&c) {
                stop = FabricStop::MarkerDone;
                t += 1;
                break;
            }
            if t >= last_act + quiesce_window {
                stop = FabricStop::Quiesced;
                break;
            }
            t += 1;
        }
        self.finish(c, domain_edges, domain_edges_hyper, t, stop)
    }

    /// Has the marker PE fired its configured number of times?
    pub(crate) fn marker_done(&self, c: &Counters) -> bool {
        match (self.config.max_marker_fires, self.marker) {
            (Some(max), Some(m)) => c.fires[m] >= max,
            _ => false,
        }
    }

    /// Phase 1 for one rising edge of PE `idx`: decide (appending any
    /// plans), then account the edge with its stall tallies and class,
    /// which it returns. Queue occupancy is sampled by the caller.
    pub(crate) fn evaluate(
        &self,
        idx: usize,
        t: u64,
        plans: &mut Vec<Plan>,
        c: &mut Counters,
    ) -> (EdgeClass, EdgeTally) {
        let planned_before = plans.len();
        let mut tally = EdgeTally::default();
        self.decide(idx, t, plans, &mut tally);
        let class = tally.class(plans.len() > planned_before);
        c.edges(idx, self.grid[idx].config.clk, 1, &tally, class);
        (class, tally)
    }

    /// Phase 2: apply one tick's plans. Pops first, then computes
    /// (loads read pre-store memory) and register writes, then pushes,
    /// then stores. `hooks` hear about every queue mutation.
    pub(crate) fn apply(
        &mut self,
        step: &mut Step,
        t: u64,
        c: &mut Counters,
        hooks: &mut impl Hooks,
    ) {
        for plan in &step.plans {
            let (pe, taken) = match *plan {
                Plan::Compute {
                    pe,
                    pops,
                    consume_reg,
                    ..
                } => {
                    if consume_reg {
                        self.grid[pe].reg = None;
                    }
                    (pe, pops.map(|d| d.map(|d| (d, 0))))
                }
                Plan::Bypass { pe, src, slot, .. } => (pe, [Some((src, slot + 1)), None]),
            };
            for (dir, user) in taken.into_iter().flatten() {
                hooks.resizing(c, pe, dir, &self.grid[pe]);
                if self.take_checked(pe, dir, user, t) {
                    if let Some(producer) = self.neighbors[pe][dir as usize] {
                        hooks.wake(c, producer);
                    }
                }
            }
        }

        for plan in step.plans.drain(..) {
            match plan {
                Plan::Compute {
                    pe,
                    operands,
                    op,
                    out_port,
                    is_init,
                    init_value,
                    ..
                } => {
                    let at = self.grid[pe].at;
                    c.fires[pe] += 1;
                    if self.config.record_events {
                        c.events.push(FireEvent {
                            tick: t,
                            pe: at,
                            is_fire: true,
                        });
                    }
                    if self.marker == Some(pe) {
                        c.marker_times.push(t);
                    }
                    let value = if is_init {
                        self.grid[pe].init_pending = false;
                        init_value
                    } else {
                        match op {
                            Op::Load => self.load_checked(at, operands[0], t),
                            Op::Store => {
                                step.stores.push((pe, operands[0], operands[1]));
                                operands[1]
                            }
                            _ => op.eval(operands[0], operands[1]),
                        }
                    };
                    let state = &mut self.grid[pe];
                    let cfg = state.config;
                    let mask = if out_port == 0 {
                        cfg.alu_true_mask
                    } else {
                        cfg.alu_false_mask
                    };
                    step.pushes.push((pe, mask, value));
                    // Nothing later this tick reads a register, so the
                    // write lands now.
                    if cfg.reg_write && out_port == 0 {
                        state.reg = Some(Token { value, written: t });
                    }
                }
                Plan::Bypass {
                    pe,
                    dst_mask,
                    value,
                    ..
                } => {
                    c.bypass_tokens[pe] += 1;
                    if self.config.record_events {
                        c.events.push(FireEvent {
                            tick: t,
                            pe: self.grid[pe].at,
                            is_fire: false,
                        });
                    }
                    step.pushes.push((pe, dst_mask, value));
                }
            }
        }

        for (pe, mask, value) in step.pushes.drain(..) {
            self.deliver(pe, mask, value, t, c, hooks);
        }
        for (pe, addr, value) in step.stores.drain(..) {
            self.store_checked(self.grid[pe].at, addr, value, t);
        }
    }

    /// Close a run: the protocol checker's end-of-run checks (exactly
    /// once, after simulation) and the `Activity` in `[y][x]` layout.
    pub(crate) fn finish(
        mut self,
        c: Counters,
        domain_edges: [u64; 3],
        domain_edges_hyper: [u64; 3],
        ticks: u64,
        stop: FabricStop,
    ) -> Activity {
        let (w, h) = (self.width, self.height);
        // Final occupancy of every input queue, indexed like the
        // checker's crossing stats (`idx * 4 + dir`).
        let resident: Vec<u64> = self
            .grid
            .iter()
            .flat_map(|pe| pe.queues.iter().map(|q| q.len() as u64))
            .collect();
        let protocol = self.protocol.finish(&resident, ticks);
        let sram_accesses: Vec<u64> = self
            .grid
            .iter()
            .map(|pe| self.scratch.accesses(pe.at))
            .collect();
        let queue_occupancy = rows(&c.queue_occupancy, w, h, c.buckets)
            .map(|row| row.chunks(c.buckets).map(<[u64]>::to_vec).collect())
            .collect();
        Activity {
            fires: nested(&c.fires, w, h),
            bypass_tokens: nested(&c.bypass_tokens, w, h),
            input_stalls: nested(&c.input_stalls, w, h),
            output_stalls: nested(&c.output_stalls, w, h),
            rising_edges: nested(&c.rising_edges, w, h),
            fire_edges: nested(&c.fire_edges, w, h),
            operand_stalls: nested(&c.operand_stalls, w, h),
            suppressed_stalls: nested(&c.suppressed_stalls, w, h),
            backpressure_stalls: nested(&c.backpressure_stalls, w, h),
            gated_ticks: nested(&c.gated_ticks, w, h),
            queue_occupancy,
            domain_edges,
            domain_edges_hyper,
            domain_gated_ticks: c.domain_gated_ticks,
            sram_accesses: nested(&sram_accesses, w, h),
            marker_times: c.marker_times,
            ticks,
            stop,
            clocks: self.config.clocks.clone(),
            mem: self.scratch.image(self.scratch.len()),
            events: c.events,
            protocol,
        }
    }

    pub(crate) fn decide(&self, idx: usize, t: u64, plans: &mut Vec<Plan>, tally: &mut EdgeTally) {
        let state = &self.grid[idx];
        let cfg = state.config;

        // An injected domain stall withholds this PE's clock: the edge
        // does nothing and classifies as gated (the clock never rose,
        // as far as the PE is concerned).
        if self.faults.domain_stalled(cfg.clk, t) {
            return;
        }

        // Bypass slots (independent of compute; paper: compute and
        // bypass in the same cycle).
        for (i, slot) in cfg.bypass.iter().enumerate() {
            let Some(slot) = slot else { continue };
            match self.queue_visible(idx, slot.src, i + 1, t) {
                Some(value) => {
                    if self.mask_ready(idx, &slot.dst_mask, t) {
                        plans.push(Plan::Bypass {
                            pe: idx,
                            src: slot.src,
                            slot: i,
                            dst_mask: slot.dst_mask,
                            value,
                        });
                    } else {
                        tally.output_stalls += 1;
                    }
                }
                None => {
                    if !state.queues[slot.src as usize].is_empty() {
                        // Token present but not yet aged (a suppressed
                        // unsafe-edge handshake) or already taken by
                        // this user (waiting on the eager fork's other
                        // consumers).
                        tally.input_stalls += 1;
                        if state.queues[slot.src as usize].front_pending_for(i + 1) {
                            tally.suppressed = true;
                        }
                    }
                }
            }
        }

        let PeRole::Compute(op) = cfg.role else {
            return;
        };

        // Phi bootstrap.
        if state.init_pending {
            if self.mask_ready(idx, &cfg.alu_true_mask, t) {
                plans.push(Plan::Compute {
                    pe: idx,
                    pops: [None; 2],
                    consume_reg: false,
                    operands: [0, 0],
                    op,
                    out_port: 0,
                    is_init: true,
                    init_value: cfg.init.expect("init_pending implies init"),
                });
            } else {
                tally.output_stalls += 1;
            }
            return;
        }

        // Operand gathering.
        let read = |sel: OperandSel| -> Result<(Option<Dir>, bool, u32), StallCause> {
            // Ok((queue, consume_reg, value)).
            match sel {
                OperandSel::Queue(d) => match self.queue_visible(idx, d, 0, t) {
                    Some(v) => Ok((Some(d), false, v)),
                    None if state.queues[d as usize].front_pending_for(0) => {
                        Err(StallCause::Suppressed)
                    }
                    None => Err(StallCause::Starved),
                },
                OperandSel::Reg => match state.reg {
                    Some(tok) if t >= tok.written + state.period => Ok((None, true, tok.value)),
                    Some(_) => Err(StallCause::Suppressed),
                    None => Err(StallCause::Starved),
                },
                OperandSel::Const => match cfg.constant {
                    Some(c) => Ok((None, false, c)),
                    None => Err(StallCause::Starved),
                },
                OperandSel::None => Ok((None, false, 0)),
            }
        };

        let mut pops = [None; 2];
        let mut consume_reg = false;
        let mut operands = [0u32; 2];

        if op == Op::Phi {
            // Merge: first visible operand wins.
            let mut found = false;
            let mut any_suppressed = false;
            for port in 0..2 {
                match read(cfg.operands[port]) {
                    Ok((q, r, v)) => {
                        if q.is_none() && !r && cfg.operands[port] != OperandSel::Const {
                            continue; // OperandSel::None
                        }
                        pops[0] = q;
                        consume_reg = r;
                        operands[0] = v;
                        found = true;
                        break;
                    }
                    Err(cause) => any_suppressed |= cause == StallCause::Suppressed,
                }
            }
            if !found {
                tally.input_stalls += 1;
                tally.suppressed |= any_suppressed;
                return;
            }
        } else {
            let arity = op.arity().max(1);
            for (port, slot) in operands.iter_mut().enumerate().take(arity.min(2)) {
                match read(cfg.operands[port]) {
                    Ok((q, r, v)) => {
                        // One net may feed both operand ports (the
                        // same direction): a single token serves
                        // both, so consume it once.
                        if q.is_some() && q != pops[0] {
                            pops[port] = q;
                        }
                        consume_reg |= r;
                        *slot = v;
                    }
                    Err(cause) => {
                        tally.input_stalls += 1;
                        tally.suppressed |= cause == StallCause::Suppressed;
                        return;
                    }
                }
            }
        }

        // Output readiness.
        let out_port: u8 = if op == Op::Br {
            if operands[1] != 0 {
                0
            } else {
                1
            }
        } else {
            0
        };
        let mask = if out_port == 0 {
            cfg.alu_true_mask
        } else {
            cfg.alu_false_mask
        };
        if !self.mask_ready(idx, &mask, t) {
            tally.output_stalls += 1;
            return;
        }
        // Register write needs the slot free (capacity-one buffer),
        // unless this very firing consumes it.
        if cfg.reg_write && out_port == 0 && state.reg.is_some() && !consume_reg {
            tally.output_stalls += 1;
            return;
        }

        plans.push(Plan::Compute {
            pe: idx,
            pops,
            consume_reg,
            operands,
            op,
            out_port,
            is_init: false,
            init_value: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uecgra_compiler::bitstream::{Bitstream, Bypass, OperandSel, PeConfig};
    use uecgra_dfg::Op;

    /// Hand-build a 1x3 fabric: a phi accumulator feeding east into an
    /// add, which feeds east into a store-like consumer... kept
    /// minimal: phi -> add with a self-looping register accumulator.
    fn tiny_bitstream() -> Bitstream {
        let mut grid = vec![vec![PeConfig::default(); 3]; 1];
        // (0,0): phi with init, output east, fed back from its reg.
        grid[0][0] = PeConfig {
            role: PeRole::Compute(Op::Phi),
            operands: [OperandSel::Reg, OperandSel::None],
            alu_true_mask: [false, true, false, false], // east
            reg_write: true,
            init: Some(5),
            ..PeConfig::default()
        };
        // (1,0): add 1, from west, out east.
        grid[0][1] = PeConfig {
            role: PeRole::Compute(Op::Add),
            operands: [OperandSel::Queue(Dir::West), OperandSel::Const],
            constant: Some(1),
            alu_true_mask: [false, true, false, false],
            ..PeConfig::default()
        };
        // (2,0): sink-ish nop consuming from west (no outputs).
        grid[0][2] = PeConfig {
            role: PeRole::Compute(Op::Nop),
            operands: [OperandSel::Queue(Dir::West), OperandSel::None],
            ..PeConfig::default()
        };
        Bitstream { grid }
    }

    #[test]
    fn hand_built_fabric_executes() {
        let bs = tiny_bitstream();
        let config = FabricConfig {
            marker: Some((0, 0)),
            max_marker_fires: Some(10),
            ..FabricConfig::default()
        };
        let act = Fabric::new(&bs, vec![], config).run();
        assert_eq!(act.stop, FabricStop::MarkerDone);
        assert_eq!(act.fires[0][0], 10);
        // The downstream adder lags the marker by the pipeline depth.
        assert!(act.fires[0][1] >= 8);
    }

    #[test]
    fn neighbor_math_respects_edges() {
        let bs = tiny_bitstream();
        let f = Fabric::new(&bs, vec![], FabricConfig::default());
        assert_eq!(f.neighbors[0], [None, Some(1), None, None]);
        assert_eq!(f.neighbors[1], [None, Some(2), None, Some(0)]);
        assert_eq!(f.neighbors[2][Dir::East as usize], None);
        // A 3x2 array: vertical neighbors are one row apart.
        let mut tall = tiny_bitstream();
        tall.grid.push(vec![PeConfig::default(); 3]);
        let f = Fabric::new(&tall, vec![], FabricConfig::default());
        assert_eq!(f.neighbors[1], [None, Some(2), Some(4), Some(0)]);
        assert_eq!(f.neighbors[4], [Some(1), Some(5), None, Some(3)]);
    }

    #[test]
    fn mask_ready_sees_full_queues() {
        let bs = tiny_bitstream();
        let mut f = Fabric::new(&bs, vec![], FabricConfig::default());
        let east_only = [false, true, false, false];
        assert!(f.mask_ready(0, &east_only, 0));
        // Fill (1,0)'s west queue.
        f.grid[1].queues[Dir::West as usize].push(1, 0);
        f.grid[1].queues[Dir::West as usize].push(2, 0);
        assert!(!f.mask_ready(0, &east_only, 0));
        // Off-edge directions are always "ready" (dropped).
        assert!(f.mask_ready(0, &[true, false, false, false], 0));
    }

    #[test]
    fn register_backpressure_blocks_writes() {
        // The phi writes its own register; with the register full and
        // not consumed this firing, it must stall rather than overwrite.
        // In the tiny fabric the phi both reads and writes the reg each
        // firing, so it never stalls — force the situation by hand.
        let bs = tiny_bitstream();
        let mut f = Fabric::new(&bs, vec![], FabricConfig::default());
        f.grid[0].init_pending = false;
        f.grid[0].reg = Some(crate::queue::Token {
            value: 9,
            written: 0,
        });
        // At t=3 the phi can fire by consuming the reg (consume+write).
        let mut plans = Vec::new();
        let mut tally = EdgeTally::default();
        f.decide(0, 3, &mut plans, &mut tally);
        assert_eq!(plans.len(), 1, "reg consume-and-write is legal");
        match &plans[0] {
            Plan::Compute { consume_reg, .. } => assert!(consume_reg),
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn edge_classification_partitions_rising_edges() {
        let bs = tiny_bitstream();
        let config = FabricConfig {
            marker: Some((0, 0)),
            max_marker_fires: Some(10),
            ..FabricConfig::default()
        };
        let act = Fabric::new(&bs, vec![], config).run();
        for x in 0..3 {
            assert_eq!(
                act.fire_edges[0][x]
                    + act.operand_stalls[0][x]
                    + act.suppressed_stalls[0][x]
                    + act.backpressure_stalls[0][x]
                    + act.gated_ticks[0][x],
                act.rising_edges[0][x],
                "edge classes must partition rising edges at (0, {x})"
            );
            // Four queues sampled once per rising edge.
            let samples: u64 = act.queue_occupancy[0][x].iter().sum();
            assert_eq!(samples, 4 * act.rising_edges[0][x]);
        }
        assert!(act.fire_edges[0][0] > 0);
        // Default 9:3:2 divisors over the 18-tick hyperperiod.
        assert_eq!(act.domain_edges_hyper, [2, 6, 9]);
        assert_eq!(
            act.domain_gated_ticks.iter().sum::<u64>(),
            act.gated_ticks.iter().flatten().sum::<u64>()
        );
    }

    #[test]
    fn bypass_config_forwards_between_strangers() {
        // (1,0) only bypasses: west -> east; producers/consumers at the
        // ends. Build: (0,0) phi/reg as before; (1,0) route-only;
        // (2,0) nop consumer.
        let mut bs = tiny_bitstream();
        bs.grid[0][1] = PeConfig {
            role: PeRole::RouteOnly,
            bypass: [
                Some(Bypass {
                    src: Dir::West,
                    dst_mask: [false, true, false, false],
                }),
                None,
            ],
            ..PeConfig::default()
        };
        let config = FabricConfig {
            marker: Some((2, 0)),
            max_marker_fires: Some(5),
            ..FabricConfig::default()
        };
        let act = Fabric::new(&bs, vec![], config).run();
        assert_eq!(act.stop, FabricStop::MarkerDone);
        assert!(act.bypass_tokens[0][1] >= 5);
        assert_eq!(act.fires[0][1], 0, "route-only PEs never fire");
    }
}
