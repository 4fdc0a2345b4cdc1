//! Every call the benchmark makes into the program lives in this module.
//!
//! The rest of the benchmark sees only the plain types defined here, so a
//! change to the program's public API (a merged scan engine, a shared
//! unit executor) touches this one file. `ScanConfig` is built only
//! through `..Default::default()`, and no engine-selection knob is named.
//!
//! The layers are measured from outside: [`Tap`] is a forwarding
//! `Network` that the benchmark puts between the scanner and the
//! simulated `World`. Untraced it only notes the instant and the process
//! CPU time of its first call (the end of set-up). Traced it counts every
//! call, times a pseudo-random sixteenth of them into per-call
//! histograms, and marks the thread as inside netsim for the counting
//! allocator; its own histograms are allocated and freed outside the
//! counted zones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use xmap::{
    fill_host_bits, Blocklist, Cycle, IcmpEchoProbe, ProbeModule, ProbeResult, ScanConfig,
    ScanRecord, Scanner,
};
use xmap_addr::{Ip6, Prefix, ScanRange};
use xmap_netsim::isp::SAMPLE_BLOCKS;
use xmap_netsim::packet::{Ipv6Packet, Network};
use xmap_netsim::world::{Allocation, World, WorldConfig};
use xmap_netsim::{FaultPlan, IcmpRateLimit};
use xmap_periphery::{
    AdaptiveCampaign, AdaptiveConfig, Campaign, CampaignResult, ParallelCampaign,
};
use xmap_telemetry::{Snapshot, Telemetry};

use crate::alloc::{self, Zone};
use crate::ledger::{Hist, Stamp, TimerCost};

/// Result code of a record: [`ALIVE`], [`TIME_EXCEEDED`], [`REFUSED`],
/// [`UNREACHABLE`] plus one plus the ICMPv6 code, or [`UNREACHABLE`]
/// itself when only the kind is known (campaign peripheries).
pub type Code = u16;
/// The probed address answered.
const ALIVE: Code = 1;
/// An ICMPv6 time exceeded.
pub const TIME_EXCEEDED: Code = 2;
/// A TCP reset.
const REFUSED: Code = 3;
/// An ICMPv6 destination unreachable of unknown code.
pub const UNREACHABLE: Code = 0x10;
const INVALID: Code = 0;

fn code(r: ProbeResult) -> Code {
    match r {
        ProbeResult::Alive => ALIVE,
        ProbeResult::TimeExceeded => TIME_EXCEEDED,
        ProbeResult::Refused => REFUSED,
        ProbeResult::Unreachable { code } => UNREACHABLE + 1 + code as Code,
        ProbeResult::Invalid => INVALID,
    }
}

/// One validated answer: which target, which destination, who answered,
/// and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rec {
    /// Target sub-prefix bits.
    pub target: u128,
    /// Target sub-prefix length.
    pub target_len: u8,
    /// Full probe destination.
    pub probe_dst: u128,
    /// Source of the answer.
    pub responder: u128,
    /// Result code.
    pub result: Code,
}

impl Rec {
    fn from_record(r: &ScanRecord) -> Rec {
        Rec {
            target: r.target.addr().bits(),
            target_len: r.target.len(),
            probe_dst: r.probe_dst.bits(),
            responder: r.responder.bits(),
            result: code(r.result),
        }
    }

    /// Whether this answer exposes a periphery: an unreachable or time
    /// exceeded from anything but a transit router (whose IID carries the
    /// simulator's `ffff` marker), as the campaign counts them.
    pub fn is_periphery(&self) -> bool {
        (self.result >= UNREACHABLE || self.result == TIME_EXCEEDED)
            && !(self.result == TIME_EXCEEDED && (self.responder as u64) >> 48 == 0xffff)
    }
}

/// Scanner counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Probes sent, retransmissions included.
    pub sent: u64,
    /// Retransmissions among `sent`.
    pub retransmits: u64,
    /// Replies received.
    pub received: u64,
    /// Replies that validated.
    pub valid: u64,
    /// Targets the blocklist skipped.
    pub blocked: u64,
}

/// The telemetry snapshot a run produced.
#[derive(Debug, Clone, Default)]
pub struct Snap(Snapshot);

impl Snap {
    /// Milliseconds `Snapshot::to_json` takes on this snapshot.
    pub fn export_ms(&self) -> f64 {
        let t = Instant::now();
        let json = self.0.to_json();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        black_box(json);
        ms
    }

    fn counter(&self, name: &str) -> u64 {
        self.0.counter(name)
    }
}

/// How a simulated world misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Faults {
    /// Fault-free.
    None,
    /// ICMPv6 token buckets, some starting empty (the campaign's mop-up
    /// recovers those devices).
    TokenBucket {
        /// Fault seed.
        seed: u64,
    },
    /// Forward loss, duplication, jitter and depleted token buckets.
    Lossy {
        /// Fault seed.
        seed: u64,
    },
}

/// A simulated world, from generated parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldSpec {
    /// World seed.
    pub seed: u64,
    /// Autonomous systems in the synthetic BGP table.
    pub bgp_ases: usize,
    /// Fault model.
    pub faults: Faults,
    /// Clustered device allocation (pods of 256, 1 in 256 active).
    pub clustered: bool,
}

impl WorldSpec {
    fn config(&self, with_faults: bool) -> WorldConfig {
        let mut cfg = WorldConfig::lossless(self.seed, self.bgp_ases);
        if self.clustered {
            cfg = cfg.with_allocation(Allocation::Clustered {
                pod_bits: 8,
                active_frac: 1.0 / 256.0,
            });
        }
        if !with_faults {
            return cfg;
        }
        match self.faults {
            Faults::None => cfg,
            Faults::TokenBucket { seed } => {
                cfg.with_fault(FaultPlan::none().seeded(seed).with_icmp_limit(
                    IcmpRateLimit::TokenBucket {
                        capacity: 2,
                        refill_interval: 256,
                        start_depleted_frac: 0.3,
                    },
                ))
            }
            Faults::Lossy { seed } => cfg.with_fault(
                FaultPlan::none()
                    .seeded(seed)
                    .with_forward_loss(0.1)
                    .with_duplication(0.05)
                    .with_jitter(6)
                    .with_icmp_limit(IcmpRateLimit::TokenBucket {
                        capacity: 2,
                        refill_interval: 256,
                        start_depleted_frac: 0.3,
                    }),
            ),
        }
    }

    fn build(&self, telemetry: Option<&Telemetry>) -> World {
        let mut world = World::with_config(self.config(true));
        if let Some(t) = telemetry {
            world.set_telemetry(t);
        }
        world
    }
}

/// One in this many traced calls is timed; every call is counted.
const SAMPLE_EVERY: u64 = 16;

/// Sampler state handed from one tap to the next, so short-lived taps
/// (the adaptive engine builds one per tree node) continue one sequence
/// instead of each replaying the same first draws.
static SAMPLER: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);

/// What one [`Tap`] saw over its lifetime; handed to the run's
/// [`Sink`] when the tap is dropped.
#[derive(Debug, Clone, Default)]
pub struct TapReport {
    /// Worker index the network replica was built for (0 when single).
    pub worker: usize,
    /// Instant and process CPU time of the first call.
    pub first: Option<Stamp>,
    /// Instant the last timed call returned (traced only).
    pub last: Option<Instant>,
    /// Calls of `handle` / `handle_into` (traced only).
    pub handle_calls: u64,
    /// Durations of the timed ones among them (traced only).
    pub handle: Hist,
    /// Calls of `tick` / `tick_into` (traced only).
    pub tick_calls: u64,
    /// Durations of the timed ones among them (traced only).
    pub tick: Hist,
    /// Reply packets returned by all calls (traced only).
    pub replies: u64,
}

impl TapReport {
    /// Folds another report of the same worker into this one.
    fn absorb(&mut self, other: TapReport) {
        self.first = self.first.into_iter().chain(other.first).min();
        self.last = self.last.into_iter().chain(other.last).max();
        self.handle_calls += other.handle_calls;
        self.handle.merge(&other.handle);
        self.tick_calls += other.tick_calls;
        self.tick.merge(&other.tick);
        self.replies += other.replies;
    }
}

/// Collects the reports of every tap of one run, folded per worker.
pub type Sink = Arc<Mutex<BTreeMap<usize, TapReport>>>;

/// A forwarding `Network` around the simulator; see the module docs.
pub struct Tap<N: Network> {
    inner: N,
    traced: bool,
    /// xorshift64 state choosing the timed calls.
    rng: u64,
    report: TapReport,
    sink: Sink,
}

impl<N: Network> Tap<N> {
    fn new(inner: N, worker: usize, traced: bool, sink: &Sink) -> Self {
        let mut report = TapReport {
            worker,
            ..TapReport::default()
        };
        if traced {
            let mark = alloc::enter(Zone::Bench);
            report.handle = Hist::new();
            report.tick = Hist::new();
            alloc::leave(mark);
        }
        Tap {
            inner,
            traced,
            rng: SAMPLER.load(Ordering::Relaxed),
            report,
            sink: Arc::clone(sink),
        }
    }

    /// Whether to time this call: a pseudo-random one in
    /// [`SAMPLE_EVERY`], so the timed calls cannot line up with periodic
    /// work inside the network (it publishes telemetry every 64 packets).
    fn sampled(&mut self) -> bool {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.is_multiple_of(SAMPLE_EVERY)
    }

    /// Forwards one call; `f` returns the call's result and the number of
    /// replies it delivered.
    #[inline]
    fn call<R>(&mut self, tick: bool, f: impl FnOnce(&mut N) -> (R, usize)) -> R {
        if self.report.first.is_none() {
            self.report.first = Some(Stamp::now());
        }
        if !self.traced {
            return f(&mut self.inner).0;
        }
        let mark = alloc::enter(Zone::Net);
        let (r, replies) = if self.sampled() {
            let t0 = Instant::now();
            let out = f(&mut self.inner);
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos() as u64;
            if tick {
                self.report.tick.record(ns);
            } else {
                self.report.handle.record(ns);
            }
            self.report.last = Some(t1);
            out
        } else {
            f(&mut self.inner)
        };
        alloc::leave(mark);
        if tick {
            self.report.tick_calls += 1;
        } else {
            self.report.handle_calls += 1;
        }
        self.report.replies += replies as u64;
        r
    }
}

impl<N: Network> Drop for Tap<N> {
    fn drop(&mut self) {
        SAMPLER.store(self.rng, Ordering::Relaxed);
        let mark = alloc::enter(Zone::Bench);
        let report = std::mem::take(&mut self.report);
        if let Ok(mut reports) = self.sink.lock() {
            reports.entry(report.worker).or_default().absorb(report);
        }
        alloc::leave(mark);
    }
}

impl<N: Network> Network for Tap<N> {
    fn handle(&mut self, packet: Ipv6Packet) -> Vec<Ipv6Packet> {
        self.call(false, |n| {
            let r = n.handle(packet);
            let k = r.len();
            (r, k)
        })
    }

    fn handle_into(&mut self, packet: Ipv6Packet, out: &mut Vec<Ipv6Packet>) {
        self.call(false, |n| {
            let before = out.len();
            n.handle_into(packet, out);
            ((), out.len() - before)
        })
    }

    fn tick(&mut self, ticks: u64) -> Vec<Ipv6Packet> {
        self.call(true, |n| {
            let r = n.tick(ticks);
            let k = r.len();
            (r, k)
        })
    }

    fn tick_into(&mut self, ticks: u64, out: &mut Vec<Ipv6Packet>) {
        self.call(true, |n| {
            let before = out.len();
            n.tick_into(ticks, out);
            ((), out.len() - before)
        })
    }

    fn flush_telemetry(&mut self) {
        self.inner.flush_telemetry()
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }

    fn restore_clock(&mut self, tick: u64) {
        self.inner.restore_clock(tick)
    }
}

/// A network that answers nothing, for timing the tap itself.
struct Silent;

impl Network for Silent {
    fn handle(&mut self, _packet: Ipv6Packet) -> Vec<Ipv6Packet> {
        Vec::new()
    }

    fn handle_into(&mut self, packet: Ipv6Packet, _out: &mut Vec<Ipv6Packet>) {
        black_box(packet);
    }
}

/// Measures what the traced tap adds to a call, on a network that does
/// nothing: the median of `rounds` rounds of `calls` calls each, against
/// the same calls made on the bare network. The recorded duration of a
/// timed call includes `inside_ns` of timer cost; `total_ns` is the
/// tap's whole cost averaged over timed and untimed calls.
pub fn timer_cost(calls: u64, rounds: usize) -> TimerCost {
    let sink: Sink = Arc::default();
    let probe = Ipv6Packet::echo_request(Ip6::new(1), Ip6::new(2), 64, 1, 1);
    let mut out = Vec::new();
    let mut drive = |net: &mut dyn Network| {
        let t = Instant::now();
        for _ in 0..calls {
            net.handle_into(black_box(probe.clone()), &mut out);
        }
        t.elapsed().as_nanos() as f64 / calls as f64
    };
    let mut inside = Vec::new();
    let mut total = Vec::new();
    for _ in 0..rounds {
        let bare = drive(&mut Silent);
        let mut tap = Tap::new(Silent, 0, true, &sink);
        let traced = drive(&mut tap);
        let timed = &tap.report.handle;
        inside.push(timed.sum() as f64 / timed.count().max(1) as f64);
        total.push((traced - bare).max(0.0));
    }
    TimerCost {
        inside_ns: crate::ledger::median(&inside),
        total_ns: crate::ledger::median(&total),
    }
}

/// One single-threaded scan of one Table II block to run.
#[derive(Debug, Clone, Copy)]
pub struct ScanSpec {
    /// The world scanned.
    pub world: WorldSpec,
    /// Table II block index.
    pub block: usize,
    /// Scanner seed.
    pub seed: u64,
    /// Targets (walk positions) to probe.
    pub targets: u64,
    /// Probes per target.
    pub probes_per_target: u32,
}

impl ScanSpec {
    fn config(&self) -> ScanConfig {
        ScanConfig {
            seed: self.seed,
            max_targets: Some(self.targets),
            probes_per_target: self.probes_per_target,
            ..Default::default()
        }
    }

    fn range(&self) -> ScanRange {
        SAMPLE_BLOCKS[self.block].scan_range()
    }
}

/// What that scan produced.
#[derive(Debug, Clone)]
pub struct ScanOut {
    /// Validated answers in arrival order.
    pub records: Vec<Rec>,
    /// Walk positions the run consumed.
    pub consumed: u64,
    /// Scanner counters.
    pub counters: Counters,
    /// The run stopped early.
    pub interrupted: bool,
    /// Replies the world duplicated in flight.
    pub dup_deliveries: u64,
    /// When `Scanner::run` was entered.
    pub run_start: Stamp,
    /// When it returned.
    pub run_end: Stamp,
    /// The scanner's telemetry snapshot.
    pub snapshot: Snap,
}

/// Builds the world and scanner of `spec` and runs one scan.
pub fn scan(spec: &ScanSpec, traced: bool, sink: &Sink) -> ScanOut {
    let world = spec.world.build(None);
    let blocklist = Blocklist::with_standard_reserved();
    let range = spec.range();
    let mut scanner = Scanner::new(Tap::new(world, 0, traced, sink), spec.config());
    let run_start = Stamp::now();
    let results = scanner.run(&range, &IcmpEchoProbe, &blocklist);
    let run_end = Stamp::now();
    let snapshot = Snap(scanner.telemetry().registry.snapshot());
    let dup_deliveries = scanner.into_network().inner.stats().dup_responses;
    let s = results.stats;
    ScanOut {
        records: results.records.iter().map(Rec::from_record).collect(),
        consumed: results.consumed,
        counters: Counters {
            sent: s.sent,
            retransmits: s.retransmits,
            received: s.received,
            valid: s.valid,
            blocked: s.blocked,
        },
        interrupted: results.interrupted,
        dup_deliveries,
        run_start,
        run_end,
        snapshot,
    }
}

/// Number of Table II blocks, the campaign's blocks.
pub const SAMPLE_BLOCK_COUNT: usize = SAMPLE_BLOCKS.len();

/// Targets among the first `positions` walk positions of Table II block
/// `block` under scanner seed `seed`: the positions minus the fringe
/// steps of the cyclic permutation, which name no target. A scan or
/// campaign block that consumed those positions must have settled
/// exactly this many targets.
pub fn walk_targets(block: usize, seed: u64, positions: u64) -> u64 {
    let range = SAMPLE_BLOCKS[block].scan_range();
    let len = u64::try_from(range.space_size().min(u64::MAX as u128)).unwrap_or(u64::MAX);
    let mut walk = Cycle::new(len, seed).iter_shard(0, 1);
    let mut buf = [0u64; 256];
    let (mut left, mut targets) = (positions, 0);
    while left > 0 {
        let want = left.min(buf.len() as u64) as usize;
        let got = walk.fill_raw(&mut buf[..want]);
        if got == 0 {
            break;
        }
        targets += buf[..got].iter().filter(|i| **i != u64::MAX).count() as u64;
        left -= got as u64;
    }
    targets
}

/// Per-probe cost of each stage of the fast path, in ns, replayed
/// through the stages' public functions over a scan's first targets.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// Permutation walk and index-to-target mapping.
    pub walk: f64,
    /// Blocklist check.
    pub blocklist: f64,
    /// Host-bit fill.
    pub fill: f64,
    /// Probe build, validator cookie included.
    pub build: f64,
    /// Reply classification, per probe sent.
    pub classify: f64,
}

/// Replays the stages of `spec`'s first `n` targets, `rounds` times,
/// and reports each stage's median per-probe cost.
pub fn replay_stages(spec: &ScanSpec, n: usize, rounds: usize) -> Stages {
    let cfg = spec.config();
    let range = spec.range();
    let blocklist = Blocklist::with_standard_reserved();
    let len = u64::try_from(range.space_size().min(u64::MAX as u128)).unwrap_or(u64::MAX);
    let cycle = Cycle::new(len, cfg.seed);
    // Untimed: the targets, destinations and replies the stages consume.
    let mut targets: Vec<Prefix> = Vec::with_capacity(n);
    let mut walk = cycle.iter_shard(0, 1);
    let mut buf = [0u64; 256];
    while targets.len() < n {
        let got = walk.fill_raw(&mut buf);
        if got == 0 {
            break;
        }
        targets.extend(
            buf[..got]
                .iter()
                .filter(|i| **i != u64::MAX)
                .filter_map(|i| range.nth(*i)),
        );
    }
    targets.truncate(n);
    let n = targets.len().max(1);
    let dsts: Vec<Ip6> = targets
        .iter()
        .map(|t| fill_host_bits(*t, cfg.seed))
        .collect();
    let mut oracle = Oracle::new(&spec.world, cfg.seed);
    let validator = *oracle.scanner.validator();
    let replies: Vec<Ipv6Packet> = dsts.iter().flat_map(|d| oracle.replies(d.bits())).collect();

    let mut costs: [Vec<f64>; 5] = Default::default();
    for _ in 0..rounds {
        let per = |t: Instant| t.elapsed().as_nanos() as f64 / n as f64;

        let t = Instant::now();
        let mut walk = cycle.iter_shard(0, 1);
        let mut got_targets = 0usize;
        while got_targets < n {
            let got = walk.fill_raw(&mut buf);
            if got == 0 {
                break;
            }
            for i in &buf[..got] {
                if *i != u64::MAX && black_box(range.nth(*i)).is_some() {
                    got_targets += 1;
                }
            }
        }
        costs[0].push(per(t));

        let t = Instant::now();
        for d in &dsts {
            black_box(blocklist.is_allowed(black_box(*d)));
        }
        costs[1].push(per(t));

        let t = Instant::now();
        for p in &targets {
            black_box(fill_host_bits(black_box(*p), cfg.seed));
        }
        costs[2].push(per(t));

        let t = Instant::now();
        for d in &dsts {
            black_box(IcmpEchoProbe.build(cfg.source, black_box(*d), cfg.hop_limit, &validator));
        }
        costs[3].push(per(t));

        let t = Instant::now();
        for r in &replies {
            black_box(IcmpEchoProbe.classify(black_box(r), &validator));
        }
        costs[4].push(per(t));
    }
    let m = |i: usize| crate::ledger::median(&costs[i]);
    Stages {
        walk: m(0),
        blocklist: m(1),
        fill: m(2),
        build: m(3),
        classify: m(4),
    }
}

/// Answers probes the way a fresh, fault-free copy of a world does,
/// through the public `Network` API.
pub struct Oracle {
    scanner: Scanner<World>,
}

impl Oracle {
    /// An oracle for `world` under scanner seed `seed` (the seed keys the
    /// validator, so its probes carry the same cookies).
    pub fn new(world: &WorldSpec, seed: u64) -> Self {
        let cfg = ScanConfig {
            seed,
            ..Default::default()
        };
        Oracle {
            scanner: Scanner::new(World::with_config(world.config(false)), cfg),
        }
    }

    /// The packets the world returns for an echo probe to `dst`.
    fn replies(&mut self, dst: u128) -> Vec<Ipv6Packet> {
        let validator = *self.scanner.validator();
        let cfg = self.scanner.config();
        let probe = IcmpEchoProbe.build(cfg.source, Ip6::new(dst), cfg.hop_limit, &validator);
        self.scanner.network_mut().handle(probe)
    }

    /// Every `(responder, result)` the world gives a probe to `dst`.
    pub fn answers(&mut self, dst: u128) -> Vec<(u128, Code)> {
        let validator = *self.scanner.validator();
        self.replies(dst)
            .iter()
            .map(|r| (r.src.bits(), code(IcmpEchoProbe.classify(r, &validator))))
            .collect()
    }
}

/// The blocks of a campaign as the benchmark checks them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockOut {
    /// Deduplicated peripheries in discovery order.
    pub peripheries: Vec<Rec>,
    /// Scanner counters of the block.
    pub counters: Counters,
    /// Walk positions budgeted for the block.
    pub probed: u64,
}

/// What a campaign run produced.
#[derive(Debug, Clone)]
pub struct CampaignOut {
    /// Blocks in Table II order.
    pub blocks: Vec<BlockOut>,
    /// Blocks whose attempts ran out.
    pub poisoned: usize,
    /// Whether the run stopped early.
    pub interrupted: bool,
    /// Intra-block splits (`exec.splits`).
    pub splits: u64,
    /// Sub-shards those splits made (`exec.split_shards`).
    pub split_shards: u64,
    /// When the executor's `run` was entered.
    pub run_start: Stamp,
    /// When it returned.
    pub run_end: Stamp,
    /// Merged telemetry snapshot.
    pub snapshot: Snap,
}

fn blocks_of(result: &CampaignResult) -> Vec<BlockOut> {
    result
        .blocks
        .iter()
        .map(|b| BlockOut {
            peripheries: b
                .peripheries
                .iter()
                .map(|p| Rec {
                    target: p.target.addr().bits(),
                    target_len: p.target.len(),
                    probe_dst: p.probe_dst.bits(),
                    responder: p.address.bits(),
                    result: if p.via_time_exceeded {
                        TIME_EXCEEDED
                    } else {
                        UNREACHABLE
                    },
                })
                .collect(),
            counters: Counters {
                sent: b.stats.sent,
                retransmits: b.stats.retransmits,
                received: b.stats.received,
                valid: b.stats.valid,
                blocked: b.stats.blocked,
            },
            probed: b.probed,
        })
        .collect()
}

/// The fifteen-block discovery campaign, with mop-up, on the parallel
/// executor.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec {
    /// The world scanned.
    pub world: WorldSpec,
    /// Scanner seed.
    pub seed: u64,
    /// Walk positions per ordinary block.
    pub targets_per_block: u64,
    /// `(block index, walk positions)` of the one oversized block.
    pub giant: (usize, u64),
    /// Remaining walk positions above which an idle worker splits a
    /// running block.
    pub split_threshold: u64,
    /// Virtual ticks before the mop-up pass.
    pub mop_up_delay: u64,
    /// Worker threads.
    pub workers: usize,
}

/// Runs the campaign of `spec`, checkpointing into `dir` when given (a
/// fresh start that wipes any earlier state there).
pub fn campaign(spec: &CampaignSpec, dir: Option<&Path>, traced: bool, sink: &Sink) -> CampaignOut {
    let executor = ParallelCampaign::new(
        Campaign::new(spec.targets_per_block)
            .with_block_targets(vec![spec.giant])
            .with_mop_up(spec.mop_up_delay),
        spec.workers,
    )
    .with_split_threshold(spec.split_threshold);
    let base = ScanConfig {
        seed: spec.seed,
        ..Default::default()
    };
    let world = spec.world;
    let make =
        |w: usize, telemetry: &Telemetry| Tap::new(world.build(Some(telemetry)), w, traced, sink);
    let run_start = Stamp::now();
    let outcome = match dir {
        Some(dir) => executor
            .run_checkpointed(&base, dir, false, None, make)
            .unwrap_or_else(|e| panic!("campaign checkpoint directory {}: {e}", dir.display())),
        None => executor.run(&base, make),
    };
    let run_end = Stamp::now();
    let snapshot = Snap(outcome.snapshot);
    CampaignOut {
        blocks: blocks_of(&outcome.result),
        poisoned: outcome.poisoned.len(),
        interrupted: outcome.interrupted,
        splits: snapshot.counter("exec.splits"),
        split_shards: snapshot.counter("exec.split_shards"),
        run_start,
        run_end,
        snapshot,
    }
}

/// The adaptive split/prune campaign under its default policy.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveSpec {
    /// The world scanned.
    pub world: WorldSpec,
    /// Scanner seed.
    pub seed: u64,
    /// Probe budget of each block.
    pub budget: u64,
}

/// Runs the adaptive campaign of `spec` on one worker. Time spent
/// building per-unit worlds is added to `world_ns` (traced only).
pub fn adaptive(
    spec: &AdaptiveSpec,
    traced: bool,
    sink: &Sink,
    world_ns: &AtomicU64,
) -> CampaignOut {
    let engine = AdaptiveCampaign::new(AdaptiveConfig {
        probe_budget: spec.budget,
        ..Default::default()
    });
    let base = ScanConfig {
        seed: spec.seed,
        ..Default::default()
    };
    let world = spec.world;
    let make = |telemetry: &Telemetry| {
        let t = traced.then(Instant::now);
        let built = world.build(Some(telemetry));
        if let Some(t) = t {
            world_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        Tap::new(built, 0, traced, sink)
    };
    let run_start = Stamp::now();
    let outcome = engine.run(&base, make);
    let run_end = Stamp::now();
    CampaignOut {
        blocks: blocks_of(&outcome.result),
        poisoned: 0,
        interrupted: outcome.interrupted,
        splits: 0,
        split_shards: 0,
        run_start,
        run_end,
        snapshot: Snap(outcome.snapshot),
    }
}
