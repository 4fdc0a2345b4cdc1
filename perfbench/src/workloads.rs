//! The three workloads, the measuring loop, the correctness checks and
//! the per-layer arithmetic of the traced run.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::adapter::{
    self, AdaptiveSpec, BlockOut, CampaignOut, CampaignSpec, Counters, Faults, Oracle, Rec,
    ScanOut, ScanSpec, Sink, TapReport, WorldSpec, SAMPLE_BLOCK_COUNT, UNREACHABLE,
};
use crate::alloc;
use crate::ledger::{self, fnv1a, median, Hist, Metric, Span, Stamp, TimerCost};

/// Command-line arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measurement per phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One long single-threaded ICMPv6 echo scan of one sample block
    /// under loss, duplication, jitter and depleted token buckets, three
    /// probes per target.
    LossyRetryScan,
    /// The fifteen-block campaign with mop-up on two workers.
    Campaign2w,
    /// The adaptive split/prune campaign on a clustered world.
    AdaptiveClustered,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LossyRetryScan,
        Workload::Campaign2w,
        Workload::AdaptiveClustered,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LossyRetryScan => "lossy_retry_scan",
            Workload::Campaign2w => "campaign_2w",
            Workload::AdaptiveClustered => "adaptive_clustered",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Autonomous systems in every world's synthetic BGP table.
const BGP_ASES: usize = 50;
/// Table II block the scan probes: Bharti Airtel, where 2^18 targets
/// find about a thousand peripheries under the scan's faults.
const SCAN_BLOCK: usize = 2;
/// Targets of `lossy_retry_scan`.
const LOSSY_TARGETS: u64 = 1 << 18;
/// Walk positions per ordinary campaign block.
const CAMPAIGN_TARGETS: u64 = 1 << 14;
/// The oversized campaign block: the last Table II block at 16 times an
/// ordinary block, the skew of the `skewed_giant` mix in the
/// campaign-scaling bench. Blocks are claimed in Table II order, so it
/// is claimed last, and the other worker, out of blocks, splits its
/// tail: the straggler the split threshold exists for.
const CAMPAIGN_GIANT: (usize, u64) = (14, 1 << 18);
/// Remaining walk positions above which an idle worker splits a block:
/// one ordinary block, as in the `skewed_giant_split` bench config.
const CAMPAIGN_SPLIT: u64 = CAMPAIGN_TARGETS;
/// Virtual ticks before the campaign's mop-up pass.
const CAMPAIGN_MOP_UP_DELAY: u64 = 2048;
/// Probe budget of each adaptive block: half the default policy's 2^16,
/// so that a repetition takes about two seconds and a run holds many.
const ADAPTIVE_BUDGET: u64 = 1 << 15;
/// Repetitions each phase runs at least, however long they take.
const MIN_REPS: usize = 3;
/// First targets the stage replay walks.
const REPLAY_TARGETS: usize = 1 << 16;

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("probes_per_cpu_s", "1/s"),
    ("targets_per_cpu_s", "1/s"),
    ("peripheries_per_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("peripheries_found", "count"),
    ("probes_per_periphery", "count"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order. A layer
/// that a workload leaves idle reads 0 there.
const PER_LAYER: [(&str, &str); 39] = [
    ("netsim.handle_ns_per_probe", "ns"),
    ("netsim.handle_p50_ns", "ns"),
    ("netsim.handle_p99_ns", "ns"),
    ("netsim.handle_tail_ns", "ns"),
    ("netsim.handle_tail_pct", "%"),
    ("netsim.handle_samples", "count"),
    ("netsim.tick_ns_per_probe", "ns"),
    ("netsim.allocs_per_probe", "count"),
    ("netsim.replies_per_probe", "count"),
    ("core.traced_ns_per_probe", "ns"),
    ("core.scanner_self_ns_per_probe", "ns"),
    ("core.stage.walk_ns", "ns"),
    ("core.stage.blocklist_ns", "ns"),
    ("core.stage.fill_ns", "ns"),
    ("core.stage.build_ns", "ns"),
    ("core.stage.classify_ns", "ns"),
    ("core.unattributed_ns_per_probe", "ns"),
    ("core.allocs_per_probe", "count"),
    ("core.heap_peak_bytes_per_probe", "B"),
    ("core.retransmits_per_target", "count"),
    ("periphery.exec_workers", "count"),
    ("periphery.exec_idle_frac", "ratio"),
    ("periphery.exec_head_s", "s"),
    ("periphery.exec_tail_s", "s"),
    ("periphery.exec_serial_s", "s"),
    ("periphery.exec_cpu_util", "ratio"),
    ("periphery.exec_speedup_vs_1w", "ratio"),
    ("periphery.exec_splits", "count"),
    ("periphery.exec_split_shards", "count"),
    ("periphery.block_self_ns_per_probe", "ns"),
    ("periphery.adaptive_self_ns_per_probe", "ns"),
    ("periphery.adaptive_world_ns_per_probe", "ns"),
    ("state.checkpoint_s", "s"),
    ("state.checkpoint_bytes", "B"),
    ("state.checkpoint_files", "count"),
    ("telemetry.snapshot_export_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.cost_ns_per_probe", "ns"),
    ("host.nproc", "count"),
];

/// SplitMix64 of `seed` salted by `salt`: independent input seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generated inputs of one workload.
#[derive(Debug, Clone, Copy)]
enum Plan {
    Scan(ScanSpec),
    Campaign(CampaignSpec),
    Adaptive(AdaptiveSpec),
}

impl Plan {
    fn new(workload: Workload, seed: u64, workers: usize) -> Plan {
        let world = |faults, clustered| WorldSpec {
            seed: mix(seed, 1),
            bgp_ases: BGP_ASES,
            faults,
            clustered,
        };
        let scan_seed = mix(seed, 2);
        let fault_seed = mix(seed, 3);
        match workload {
            Workload::LossyRetryScan => Plan::Scan(ScanSpec {
                world: world(Faults::Lossy { seed: fault_seed }, false),
                block: SCAN_BLOCK,
                seed: scan_seed,
                targets: LOSSY_TARGETS,
                probes_per_target: 3,
            }),
            Workload::Campaign2w => Plan::Campaign(CampaignSpec {
                world: world(Faults::TokenBucket { seed: fault_seed }, false),
                seed: scan_seed,
                targets_per_block: CAMPAIGN_TARGETS,
                giant: CAMPAIGN_GIANT,
                split_threshold: CAMPAIGN_SPLIT,
                mop_up_delay: CAMPAIGN_MOP_UP_DELAY,
                workers,
            }),
            Workload::AdaptiveClustered => Plan::Adaptive(AdaptiveSpec {
                world: world(Faults::None, true),
                seed: scan_seed,
                budget: ADAPTIVE_BUDGET,
            }),
        }
    }

    fn world(&self) -> &WorldSpec {
        match self {
            Plan::Scan(s) => &s.world,
            Plan::Campaign(c) => &c.world,
            Plan::Adaptive(a) => &a.world,
        }
    }

    fn seed(&self) -> u64 {
        match self {
            Plan::Scan(s) => s.seed,
            Plan::Campaign(c) => c.seed,
            Plan::Adaptive(a) => a.seed,
        }
    }
}

/// Nanoseconds since the process epoch.
fn ns(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// A correctness verdict over some attempted targets.
#[derive(Debug, Clone, Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Records that repeat a network-duplicated delivery.
    repeats: u64,
}

impl Verdict {
    fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.note(why);
    }

    fn note(&mut self, why: String) {
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }

    fn merge(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            self.note(p);
        }
    }
}

/// Checks each record against a fresh fault-free copy of the world.
fn check_against_oracle(plan: &Plan, recs: &[Rec], v: &mut Verdict) {
    let mut oracle = Oracle::new(plan.world(), plan.seed());
    for r in recs {
        let answers = oracle.answers(r.probe_dst);
        let ok = answers.iter().any(|(responder, code)| {
            *responder == r.responder
                && (*code == r.result || (r.result == UNREACHABLE && *code > UNREACHABLE))
        });
        if !ok {
            v.fail(
                1,
                format!(
                    "record for {:#x} answered by {:#x} ({}) but the oracle gives {answers:x?}",
                    r.probe_dst, r.responder, r.result
                ),
            );
        }
    }
}

/// The scanner's counter invariants against the `settled` targets its
/// walk must have produced: every probe is a settled target's first
/// (unless blocked) or a retransmission, and no more replies validate
/// than arrived.
fn check_counters(what: &str, c: &Counters, settled: u64, v: &mut Verdict) {
    if c.sent + c.blocked != settled + c.retransmits {
        v.fail(
            settled.max(1),
            format!(
                "{what}: sent {} + blocked {} != settled {settled} + retransmits {}",
                c.sent, c.blocked, c.retransmits
            ),
        );
    }
    if c.valid > c.received {
        v.fail(
            settled.max(1),
            format!("{what}: valid {} > received {}", c.valid, c.received),
        );
    }
}

/// Checks a scan: the whole budget walked, counter
/// invariants against the targets of that walk, no target answered
/// twice beyond the network's duplicates, and the oracle on every record.
fn check_scan(plan: &Plan, out: &ScanOut) -> Verdict {
    let Plan::Scan(spec) = plan else {
        unreachable!("a scan output comes from a scan plan")
    };
    let settled = adapter::walk_targets(spec.block, spec.seed, spec.targets);
    let mut v = Verdict {
        attempted: settled,
        ..Verdict::default()
    };
    if out.interrupted || out.consumed != spec.targets {
        v.fail(
            settled,
            format!(
                "scan stopped after {} of {} walk positions (interrupted: {})",
                out.consumed, spec.targets, out.interrupted
            ),
        );
    }
    check_counters("scan", &out.counters, settled, &mut v);
    // A target answered more than once is a failure unless every record
    // of it is the same answer and the network duplicated at least that
    // many deliveries: the scanner records each validated response it
    // receives, a duplicated one included.
    let mut firsts: HashMap<(u128, u8), &Rec> = HashMap::new();
    let mut repeats = 0u64;
    for r in &out.records {
        match firsts.get(&(r.target, r.target_len)) {
            None => {
                firsts.insert((r.target, r.target_len), r);
            }
            Some(first) if *first == r => repeats += 1,
            Some(first) => v.fail(
                1,
                format!(
                    "target {:#x}/{} recorded with two answers: {:#x} ({}) and {:#x} ({})",
                    r.target, r.target_len, first.responder, first.result, r.responder, r.result
                ),
            ),
        }
    }
    if repeats > out.dup_deliveries {
        v.fail(
            repeats - out.dup_deliveries,
            format!(
                "{repeats} repeated records but only {} duplicated deliveries",
                out.dup_deliveries
            ),
        );
    }
    v.repeats = repeats;
    check_against_oracle(plan, &out.records, &mut v);
    v
}

/// Walk positions the campaign of `spec` budgets for Table II block `i`.
fn block_budget(spec: &CampaignSpec, i: usize) -> u64 {
    if i == spec.giant.0 {
        spec.giant.1
    } else {
        spec.targets_per_block
    }
}

/// Checks a campaign of either engine: nothing poisoned or interrupted,
/// every block present, each block's counters against the targets it
/// settled (mop-up probes count as retransmits), no target or periphery
/// recorded twice, and the oracle on every periphery.
///
/// The parallel campaign walks each block's cyclic permutation for the
/// block's whole budget, so the targets it settled are known from the
/// plan alone. The adaptive campaign decides per round how much of its
/// probe budget to draw, one target per draw; its blocks are held to
/// the draws they report, within the budget.
fn check_campaign(plan: &Plan, out: &CampaignOut) -> Verdict {
    let settled: Vec<u64> = match plan {
        Plan::Campaign(spec) => (0..SAMPLE_BLOCK_COUNT)
            .map(|i| adapter::walk_targets(i, spec.seed, block_budget(spec, i)))
            .collect(),
        Plan::Adaptive(spec) => (0..SAMPLE_BLOCK_COUNT)
            .map(|i| out.blocks.get(i).map_or(spec.budget, |b| b.probed))
            .collect(),
        Plan::Scan(_) => unreachable!("a campaign output comes from a campaign plan"),
    };
    let mut v = Verdict {
        attempted: settled.iter().sum(),
        ..Verdict::default()
    };
    if out.interrupted {
        v.fail(v.attempted, "campaign interrupted".into());
    }
    if out.poisoned > 0 || out.blocks.len() != SAMPLE_BLOCK_COUNT {
        let missing: u64 = settled.iter().skip(out.blocks.len()).sum();
        v.fail(
            missing.max(1),
            format!(
                "{} poisoned, {} of {SAMPLE_BLOCK_COUNT} blocks completed",
                out.poisoned,
                out.blocks.len()
            ),
        );
    }
    let mut addresses = HashSet::new();
    for (i, (b, &settled)) in out.blocks.iter().zip(&settled).enumerate() {
        let (low, high) = match plan {
            Plan::Campaign(spec) => (block_budget(spec, i), block_budget(spec, i)),
            Plan::Adaptive(spec) => (1, spec.budget),
            Plan::Scan(_) => unreachable!(),
        };
        if !(low..=high).contains(&b.probed) {
            v.fail(
                settled.max(1),
                format!("block {i}: {} probed, outside {low}..={high}", b.probed),
            );
        }
        check_counters(&format!("block {i}"), &b.counters, settled, &mut v);
        let mut targets = HashSet::new();
        for p in &b.peripheries {
            if !targets.insert((p.target, p.target_len)) || !addresses.insert(p.responder) {
                v.fail(1, format!("block {i}: {:#x} recorded twice", p.responder));
            }
        }
        check_against_oracle(plan, &b.peripheries, &mut v);
    }
    v
}

/// Order-independent digest of a record set.
fn digest<'a>(recs: impl Iterator<Item = &'a Rec>) -> u64 {
    recs.fold(0u64, |acc, r| {
        let mut bytes = Vec::with_capacity(49);
        bytes.extend_from_slice(&r.target.to_le_bytes());
        bytes.push(r.target_len);
        bytes.extend_from_slice(&r.probe_dst.to_le_bytes());
        bytes.extend_from_slice(&r.responder.to_le_bytes());
        bytes.extend_from_slice(&r.result.to_le_bytes());
        acc.wrapping_add(fnv1a(&bytes))
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes and regular files under `dir`, recursively.
fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => {
                    let (b, f) = dir_usage(&e.path());
                    bytes += b;
                    files += f;
                }
                Ok(m) => {
                    bytes += m.len();
                    files += 1;
                }
                Err(_) => {}
            }
        }
    }
    (bytes, files)
}

/// Where the benchmark writes its spans and checkpoint directories.
fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// One repetition of a workload.
#[derive(Debug, Default)]
struct Rep {
    setup_s: f64,
    /// Wall seconds from the first probe to the return of the entry point.
    measured_s: f64,
    /// Process CPU seconds over the same interval.
    measured_cpu_s: f64,
    /// The entry point's whole span.
    run: Option<Span>,
    probes: u64,
    settled: u64,
    retransmits: u64,
    peripheries: u64,
    verdict: Verdict,
    digest: u64,
    blocks: Vec<BlockOut>,
    taps: Vec<TapReport>,
    allocs: alloc::Counts,
    export_ms: f64,
    splits: u64,
    split_shards: u64,
    /// Process CPU seconds inside the entry point.
    cpu_s: f64,
    ckpt: Option<(u64, u64)>,
    world_ns: u64,
    workers: usize,
}

/// What the program returned from one repetition.
enum Output {
    Scan(ScanOut),
    Campaign(CampaignOut),
}

/// Runs one repetition and checks its output. `ckpt` names the
/// campaign's checkpoint directory, removed again afterwards.
fn run_rep(plan: &Plan, traced: bool, ckpt: Option<&Path>) -> Rep {
    let sink: Sink = Arc::default();
    let world_ns = AtomicU64::new(0);
    let mut rep = Rep::default();
    if traced {
        alloc::start();
    }
    let rep_start = Stamp::now();
    let out = match plan {
        Plan::Scan(spec) => Output::Scan(adapter::scan(spec, traced, &sink)),
        Plan::Campaign(spec) => Output::Campaign(adapter::campaign(spec, ckpt, traced, &sink)),
        Plan::Adaptive(spec) => Output::Campaign(adapter::adaptive(spec, traced, &sink, &world_ns)),
    };
    if traced {
        rep.allocs = alloc::stop();
    }
    if let Some(dir) = ckpt {
        rep.ckpt = Some(dir_usage(dir));
        let _ = std::fs::remove_dir_all(dir);
    }
    rep.taps = std::mem::take(&mut *sink.lock().expect("tap sink poisoned by a panic"))
        .into_values()
        .collect();
    rep.world_ns = world_ns.load(Ordering::Relaxed);
    rep.workers = match plan {
        Plan::Campaign(spec) => spec.workers,
        _ => 1,
    };
    let (run_start, run_end, snapshot) = match out {
        Output::Scan(out) => {
            let c = out.counters;
            rep.probes = c.sent;
            rep.retransmits = c.retransmits;
            rep.settled = c.sent - c.retransmits;
            rep.peripheries = out
                .records
                .iter()
                .filter(|r| r.is_periphery())
                .map(|r| r.responder)
                .collect::<HashSet<_>>()
                .len() as u64;
            rep.verdict = check_scan(plan, &out);
            rep.digest = digest(out.records.iter());
            (out.run_start, out.run_end, out.snapshot)
        }
        Output::Campaign(out) => {
            for b in &out.blocks {
                rep.probes += b.counters.sent;
                rep.retransmits += b.counters.retransmits;
                rep.settled += b.counters.sent.saturating_sub(b.counters.retransmits);
            }
            rep.peripheries = out
                .blocks
                .iter()
                .flat_map(|b| b.peripheries.iter().map(|p| p.responder))
                .collect::<HashSet<_>>()
                .len() as u64;
            rep.verdict = check_campaign(plan, &out);
            rep.digest = digest(out.blocks.iter().flat_map(|b| b.peripheries.iter()));
            rep.splits = out.splits;
            rep.split_shards = out.split_shards;
            rep.blocks = out.blocks;
            (out.run_start, out.run_end, out.snapshot)
        }
    };
    let first = rep
        .taps
        .iter()
        .filter_map(|t| t.first)
        .min()
        .unwrap_or(run_end);
    rep.setup_s = first.wall_s_since(rep_start);
    rep.measured_s = run_end.wall_s_since(first);
    rep.measured_cpu_s = run_end.cpu_s_since(first);
    rep.cpu_s = run_end.cpu_s_since(run_start);
    let epoch = epoch();
    rep.run = Some(Span {
        start: ns(epoch, run_start.at),
        end: ns(epoch, run_end.at),
    });
    if traced {
        rep.export_ms = snapshot.export_ms();
    }
    rep
}

static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Repeats `plan` until `seconds` have passed and at least `min_reps`
/// ran. With `alternate_ckpt`, odd repetitions run without the
/// checkpoint directory.
fn phase(
    plan: &Plan,
    traced: bool,
    seconds: f64,
    min_reps: usize,
    ckpt: Option<&Path>,
    alternate_ckpt: bool,
) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let dir = if alternate_ckpt && reps.len() % 2 == 1 {
            None
        } else {
            ckpt
        };
        reps.push(run_rep(plan, traced, dir));
    }
    reps
}

/// Sums the verdicts of `reps` and checks that every repetition produced
/// the same records.
fn verdict_of(reps: &[&Rep]) -> Verdict {
    let mut v = Verdict::default();
    for r in reps {
        v.merge(r.verdict.clone());
        if r.digest != reps[0].digest || r.peripheries != reps[0].peripheries {
            v.fail(
                r.verdict.attempted,
                format!(
                    "repetitions disagree: digest {:016x} vs {:016x}",
                    r.digest, reps[0].digest
                ),
            );
        }
    }
    v
}

/// Min, quartiles and max of `v`, for a `#` line.
fn quartiles(v: &[f64]) -> String {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: usize| v[(v.len() - 1) * q / 4];
    format!(
        "min {} q1 {} median {} q3 {} max {}",
        at(0),
        at(1),
        median(&v),
        at(3),
        at(4)
    )
}

fn per_s(n: u64, s: f64) -> f64 {
    if s > 0.0 {
        n as f64 / s
    } else {
        0.0
    }
}

/// The end-to-end metrics of the untraced repetitions `reps`. The rates
/// are the repetitions' work over their summed measured time, and that
/// time is process CPU time, not wall time: on a shared virtual machine
/// the host takes a virtual CPU away for seconds at a time (steal time),
/// which stalls the two-worker campaign and measures the host, not the
/// program, while the CPU clock stands still over it. On a machine of its
/// own a scan keeps its threads busy, and the two agree. A shared host's
/// speed can also switch between a slow and a fast state every few
/// seconds; the sum weighs the two by the time spent in each, where the
/// median of the repetitions jumps from one state to the other.
fn end_to_end(reps: &[Rep]) -> BTreeMap<&'static str, f64> {
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let cpu_s: f64 = reps.iter().map(|r| r.measured_cpu_s).sum();
    let rate = |f: &dyn Fn(&Rep) -> u64| per_s(reps.iter().map(f).sum(), cpu_s);
    let first = &reps[0];
    let mut m = BTreeMap::new();
    m.insert("probes_per_cpu_s", rate(&|r| r.probes));
    m.insert("targets_per_cpu_s", rate(&|r| r.settled));
    m.insert("peripheries_per_cpu_s", rate(&|r| r.peripheries));
    m.insert("setup_s", med(&|r| r.setup_s));
    m.insert("peak_rss_mb", peak_rss_mb());
    m.insert("peripheries_found", first.peripheries as f64);
    m.insert(
        "probes_per_periphery",
        first.probes as f64 / first.peripheries.max(1) as f64,
    );
    m
}

/// The traced repetitions of one run, pooled: sums for the per-probe
/// ledgers, one value per repetition for everything else.
#[derive(Debug, Default)]
struct Pool {
    hist: Hist,
    tick_hist: Hist,
    handle_calls: f64,
    tick_calls: f64,
    replies: f64,
    probes: f64,
    settled: f64,
    retransmits: f64,
    /// Summed entry-point spans.
    run_ns: f64,
    /// Summed worker active spans.
    active_ns: f64,
    net_allocs: f64,
    out_allocs: f64,
    world_ns: f64,
    heap_peak: Vec<f64>,
    idle: Vec<f64>,
    head: Vec<f64>,
    tail: Vec<f64>,
    serial: Vec<f64>,
    util: Vec<f64>,
}

impl Pool {
    /// Pools `reps` and writes their spans as NDJSON to `spans`.
    fn new(reps: &[&Rep], spans: &mut String) -> Pool {
        let epoch = epoch();
        let mut p = Pool::default();
        for (i, rep) in reps.iter().enumerate() {
            let run = rep.run.expect("repetition has a run span");
            let _ = writeln!(
                spans,
                "{{\"trace\": {i}, \"name\": \"run\", \"start_ns\": {}, \"end_ns\": {}}}",
                run.start, run.end
            );
            let mut workers = Vec::new();
            for t in &rep.taps {
                p.hist.merge(&t.handle);
                p.tick_hist.merge(&t.tick);
                p.handle_calls += t.handle_calls as f64;
                p.tick_calls += t.tick_calls as f64;
                p.replies += t.replies as f64;
                if let (Some(f), Some(l)) = (t.first.map(|f| f.at), t.last) {
                    let s = Span {
                        start: ns(epoch, f),
                        end: ns(epoch, l),
                    };
                    let _ = writeln!(
                        spans,
                        "{{\"trace\": {i}, \"name\": \"worker.active\", \"parent\": \"run\", \
                         \"worker\": {}, \"start_ns\": {}, \"end_ns\": {}, \"netsim_calls\": {}}}",
                        t.worker,
                        s.start,
                        s.end,
                        t.handle_calls + t.tick_calls
                    );
                    workers.push(s);
                }
            }
            p.probes += rep.probes as f64;
            p.settled += rep.settled as f64;
            p.retransmits += rep.retransmits as f64;
            p.run_ns += run.dur() as f64;
            p.net_allocs += rep.allocs.net_allocs as f64;
            p.out_allocs += rep.allocs.out_allocs as f64;
            p.world_ns += rep.world_ns as f64;
            p.heap_peak
                .push(rep.allocs.out_peak_bytes as f64 / rep.probes.max(1) as f64);
            let active: u64 = workers.iter().map(Span::dur).sum();
            p.active_ns += active as f64;
            let capacity = (rep.workers as u64 * run.dur()).max(1) as f64;
            p.idle.push(1.0 - active as f64 / capacity);
            p.util.push(rep.cpu_s * 1e9 / capacity);
            p.serial.push(ledger::self_ns(run, &workers) as f64 / 1e9);
            let first = workers.iter().map(|s| s.start).min().unwrap_or(run.end);
            let last = workers.iter().map(|s| s.end).max().unwrap_or(run.end);
            for (name, s) in [
                (
                    "exec.head",
                    Span {
                        start: run.start,
                        end: first,
                    },
                ),
                (
                    "exec.tail",
                    Span {
                        start: last,
                        end: run.end,
                    },
                ),
            ] {
                let _ = writeln!(
                    spans,
                    "{{\"trace\": {i}, \"name\": \"{name}\", \"parent\": \"run\", \
                     \"start_ns\": {}, \"end_ns\": {}}}",
                    s.start, s.end
                );
            }
            p.head.push(first.saturating_sub(run.start) as f64 / 1e9);
            p.tail.push(run.end.saturating_sub(last) as f64 / 1e9);
        }
        p
    }

    /// Estimated netsim busy time of `handle` calls and of `tick` calls.
    fn busy_ns(&self, cost: TimerCost) -> (f64, f64) {
        let est = |h: &Hist, calls| ledger::busy_ns(h.sum() as f64, h.count() as f64, calls, cost);
        (
            est(&self.hist, self.handle_calls),
            est(&self.tick_hist, self.tick_calls),
        )
    }

    fn calls(&self) -> f64 {
        self.handle_calls + self.tick_calls
    }
}

/// Median of `f` over `reps`.
fn med(reps: &[&Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Seconds the entry point of `r` ran.
fn run_s(r: &Rep) -> f64 {
    r.run.map_or(0.0, |s| s.dur() as f64 / 1e9)
}

/// The traced run: an untraced and a traced phase of half the seconds
/// each, the stage replay for the scans, and for the campaign a
/// one-worker phase and traced repetitions without checkpoints.
fn traced_run(
    args: &Args,
    plan: &Plan,
    ckpt: &Path,
    lines: &mut Vec<String>,
    spans: &mut String,
) -> (BTreeMap<&'static str, f64>, Verdict) {
    let cost = adapter::timer_cost(200_000, 5);
    let is_campaign = matches!(plan, Plan::Campaign(_));
    let dir = is_campaign.then_some(ckpt);
    let half = args.seconds / 2.0;
    let plain = phase(plan, false, half, MIN_REPS, dir, false);
    let traced = phase(plan, true, half, MIN_REPS + 1, dir, is_campaign);
    let plain: Vec<&Rep> = plain.iter().collect();
    let measured: Vec<&Rep> = traced
        .iter()
        .filter(|r| !is_campaign || r.ckpt.is_some())
        .collect();
    let pool = Pool::new(&measured, spans);
    let p = pool.probes.max(1.0);
    let per_probe = |reps: &[&Rep]| med(reps, |r| run_s(r) / r.probes.max(1) as f64);
    let all: Vec<&Rep> = plain.iter().copied().chain(traced.iter()).collect();
    lines.push(format!(
        "digest {:016x} peripheries {}",
        plain[0].digest, plain[0].peripheries
    ));
    lines.push(format!(
        "timer cost per wrapped call: {:.1} ns recorded, {:.1} ns total",
        cost.inside_ns, cost.total_ns
    ));

    let (handle_ns, tick_ns) = pool.busy_ns(cost);
    let netsim = handle_ns + tick_ns;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("netsim.handle_ns_per_probe", handle_ns / p);
    m.insert("netsim.tick_ns_per_probe", tick_ns / p);
    let pct = |q: f64| pool.hist.percentile(q).unwrap_or(0) as f64;
    m.insert("netsim.handle_p50_ns", pct(50.0));
    m.insert("netsim.handle_p99_ns", pct(99.0));
    let tail_pct = ledger::tail_percentile(pool.hist.count()).unwrap_or(0.0);
    m.insert("netsim.handle_tail_pct", tail_pct);
    m.insert("netsim.handle_tail_ns", pct(tail_pct));
    m.insert("netsim.handle_samples", pool.hist.count() as f64);
    m.insert("netsim.allocs_per_probe", pool.net_allocs / p);
    m.insert("netsim.replies_per_probe", pool.replies / p);
    m.insert("core.allocs_per_probe", pool.out_allocs / p);
    m.insert("core.heap_peak_bytes_per_probe", median(&pool.heap_peak));
    m.insert(
        "core.retransmits_per_target",
        pool.retransmits / pool.settled.max(1.0),
    );
    m.insert(
        "telemetry.snapshot_export_ms",
        med(&measured, |r| r.export_ms),
    );
    m.insert("trace.cost_ns_per_probe", pool.calls() * cost.total_ns / p);
    m.insert(
        "trace.overhead_frac",
        per_probe(&measured) / per_probe(&plain) - 1.0,
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    m.insert("host.nproc", nproc as f64);
    m.insert("periphery.exec_workers", plain[0].workers as f64);

    let mut v = Verdict::default();
    match plan {
        Plan::Scan(spec) => {
            let l = ledger::ledger(pool.run_ns, netsim, pool.calls(), pool.probes, cost);
            let s = adapter::replay_stages(spec, REPLAY_TARGETS, 5);
            let stages = [s.walk, s.blocklist, s.fill, s.build, s.classify];
            let unattributed = ledger::residual(l.self_ns, &stages);
            m.insert("core.traced_ns_per_probe", l.traced_ns);
            m.insert("core.scanner_self_ns_per_probe", l.self_ns);
            m.insert("core.stage.walk_ns", s.walk);
            m.insert("core.stage.blocklist_ns", s.blocklist);
            m.insert("core.stage.fill_ns", s.fill);
            m.insert("core.stage.build_ns", s.build);
            m.insert("core.stage.classify_ns", s.classify);
            m.insert("core.unattributed_ns_per_probe", unattributed);
            // The ledger: netsim, the replayed stages, the residual and the
            // tracing cost add up to the traced time per probe (the residual
            // is defined so). What can fail is its parts: the sampled netsim
            // time must fit inside the traced time, and the replayed stages
            // inside the scanner's self time.
            let (handle, tick) = (
                m["netsim.handle_ns_per_probe"],
                m["netsim.tick_ns_per_probe"],
            );
            let staged: f64 = stages.iter().sum();
            let sum = handle + tick + staged + unattributed + l.trace_ns;
            lines.push(format!(
                "ledger ns/probe: netsim.handle {handle:.1} + netsim.tick {tick:.1} + stages \
                 {staged:.1} + unattributed {unattributed:.1} + tracing {:.1} = {sum:.1} \
                 (traced {:.1})",
                l.trace_ns, l.traced_ns
            ));
            if let Some(why) = ledger::implausible(l, staged) {
                v.fail(1, format!("ledger: {why}"));
            }
        }
        Plan::Campaign(spec) => {
            let l = ledger::ledger(pool.active_ns, netsim, pool.calls(), pool.probes, cost);
            m.insert("periphery.block_self_ns_per_probe", l.self_ns);
            m.insert("periphery.exec_idle_frac", median(&pool.idle));
            m.insert("periphery.exec_head_s", median(&pool.head));
            m.insert("periphery.exec_tail_s", median(&pool.tail));
            m.insert("periphery.exec_serial_s", median(&pool.serial));
            m.insert("periphery.exec_cpu_util", median(&pool.util));
            m.insert("periphery.exec_splits", med(&measured, |r| r.splits as f64));
            m.insert(
                "periphery.exec_split_shards",
                med(&measured, |r| r.split_shards as f64),
            );
            // Repetitions alternate with and without the checkpoint
            // directory; each neighbouring pair gives one difference, so a
            // drift in host speed cancels.
            let diffs: Vec<f64> = traced
                .chunks_exact(2)
                .map(|pair| run_s(&pair[0]) - run_s(&pair[1]))
                .collect();
            m.insert("state.checkpoint_s", median(&diffs));
            m.insert(
                "state.checkpoint_bytes",
                med(&measured, |r| r.ckpt.map_or(0.0, |c| c.0 as f64)),
            );
            m.insert(
                "state.checkpoint_files",
                med(&measured, |r| r.ckpt.map_or(0.0, |c| c.1 as f64)),
            );
            // The same seed on one worker: the speed-up reference, and the
            // result the merged multi-worker run must equal.
            let one = Plan::Campaign(CampaignSpec {
                workers: 1,
                ..*spec
            });
            let single = phase(&one, false, 0.0, 2, Some(ckpt), false);
            let single: Vec<&Rep> = single.iter().collect();
            m.insert(
                "periphery.exec_speedup_vs_1w",
                med(&single, |r| r.measured_s) / med(&plain, |r| r.measured_s),
            );
            let same = plain[0].blocks == single[0].blocks;
            if !same {
                v.fail(
                    plain[0].verdict.attempted,
                    "the merged multi-worker result differs from the one-worker result".into(),
                );
            }
            lines.push(format!(
                "one-worker result {}",
                if same { "equal" } else { "DIFFERENT" }
            ));
            v.merge(verdict_of(&single));
        }
        Plan::Adaptive(_) => {
            let l = ledger::ledger(pool.run_ns, netsim, pool.calls(), pool.probes, cost);
            m.insert("core.traced_ns_per_probe", l.traced_ns);
            m.insert("periphery.adaptive_self_ns_per_probe", l.self_ns);
            m.insert("periphery.adaptive_world_ns_per_probe", pool.world_ns / p);
        }
    }
    v.merge(verdict_of(&all));
    (m, v)
}

/// Runs the workload of `args`, prints the `#` lines and returns the
/// result line.
pub fn run(args: &Args) -> String {
    let epoch = epoch();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = nproc.min(2);
    let plan = Plan::new(args.workload, args.seed, workers);
    let name = args.workload.name();
    let dir = out_dir();
    let ckpt = dir.join(format!("ckpt-{}", std::process::id()));
    let mut lines = vec![format!(
        "workload {name} seed {} trace {} nproc {nproc} workers {}",
        args.seed,
        u8::from(args.trace),
        if matches!(plan, Plan::Campaign(_)) {
            workers
        } else {
            1
        }
    )];
    let (metrics, verdict, table): (BTreeMap<&str, f64>, Verdict, &[(&str, &str)]) = if args.trace {
        let mut spans = String::new();
        let (m, v) = traced_run(args, &plan, &ckpt, &mut lines, &mut spans);
        let path = dir.join(format!("spans-{name}-{}.ndjson", args.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        } else {
            lines.push(format!("spans written to {}", path.display()));
        }
        (m, v, &PER_LAYER)
    } else {
        let ckpt_dir = matches!(plan, Plan::Campaign(_)).then_some(ckpt.as_path());
        let reps = phase(&plan, false, args.seconds, MIN_REPS, ckpt_dir, false);
        let refs: Vec<&Rep> = reps.iter().collect();
        let v = verdict_of(&refs);
        lines.push(format!(
            "repetitions {} digest {:016x} peripheries {} repeated-delivery records {}",
            reps.len(),
            reps[0].digest,
            reps[0].peripheries,
            reps[0].verdict.repeats
        ));
        let rates: Vec<f64> = reps
            .iter()
            .map(|r| per_s(r.probes, r.measured_cpu_s))
            .collect();
        lines.push(format!(
            "probes_per_cpu_s of the repetitions: {}",
            quartiles(&rates)
        ));
        let wall_s: f64 = reps.iter().map(|r| r.measured_s).sum();
        let per_wall_s = |f: &dyn Fn(&Rep) -> u64| per_s(reps.iter().map(f).sum(), wall_s);
        lines.push(format!(
            "per wall second, not gated: probes_per_s {} targets_per_s {} peripheries_per_s {}",
            per_wall_s(&|r| r.probes),
            per_wall_s(&|r| r.settled),
            per_wall_s(&|r| r.peripheries)
        ));
        (end_to_end(&reps), v, &END_TO_END)
    };
    let _ = std::fs::remove_dir_all(&ckpt);
    let failed_frac = verdict.failed as f64 / verdict.attempted.max(1) as f64;
    lines.push(format!(
        "failed_frac {failed_frac} ratio ({} of {} targets)",
        verdict.failed, verdict.attempted
    ));
    for p in &verdict.problems {
        lines.push(format!("problem: {p}"));
    }
    let out: Vec<Metric> = table
        .iter()
        .map(|(name, unit)| Metric {
            name,
            value: metrics.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect();
    for m in &out {
        lines.push(format!("{} {} {}", m.name, m.value, m.unit));
    }
    lines.push(format!(
        "elapsed {:.1} s",
        Instant::now()
            .saturating_duration_since(epoch)
            .as_secs_f64()
    ));
    for l in &lines {
        println!("# {l}");
    }
    let correct = verdict.failed == 0 && verdict.attempted > 0;
    ledger::result_json(correct, verdict.attempted.max(1), verdict.failed, &out)
}
