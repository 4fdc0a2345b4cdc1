//! The benchmark's own arithmetic: per-call duration histograms, the
//! percentile rule, span self time, the per-probe layer ledger, medians
//! and the output encoding. Nothing here calls into the program.

use std::fmt::Write as _;

/// Values below this are counted in exact one-nanosecond buckets.
const LINEAR: u64 = 128;
/// Sub-buckets per power of two above [`LINEAR`] (relative error < 1/64).
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Powers of two covered above [`LINEAR`]: up to 2^(7+30) ns (137 s),
/// far beyond any single call.
const OCTAVES: u64 = 30;

/// A log-linear histogram of per-call durations in nanoseconds.
///
/// Recording is O(1); the bucket array is allocated by the first record,
/// so an untraced histogram costs nothing.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Hist {
    /// An empty histogram with its bucket array allocated.
    pub fn new() -> Self {
        Hist {
            buckets: vec![0; (LINEAR + OCTAVES * SUB) as usize],
            count: 0,
            sum: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < LINEAR {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // >= 7
        let octave = u64::from(exp - 7).min(OCTAVES - 1);
        let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
        (LINEAR + octave * SUB + sub) as usize
    }

    /// The smallest value that lands in bucket `i`.
    fn lower_bound(i: usize) -> u64 {
        let i = i as u64;
        if i < LINEAR {
            return i;
        }
        let octave = (i - LINEAR) / SUB;
        let sub = (i - LINEAR) % SUB;
        let exp = octave as u32 + 7;
        (1u64 << exp) | (sub << (exp - SUB_BITS))
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        if self.buckets.is_empty() {
            self.buckets = Hist::new().buckets;
        }
        self.buckets[Hist::index(ns)] += 1;
        self.count += 1;
        self.sum += ns;
    }

    /// Adds another histogram's samples to this one.
    pub fn merge(&mut self, other: &Hist) {
        if other.count == 0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = Hist::new().buckets;
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in nanoseconds.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The value at percentile `pct` (0..100): the lower bound of the
    /// bucket holding the sample of that rank, so within 1/64 of the
    /// true value. `None` when empty.
    pub fn percentile(&self, pct: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((pct / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Hist::lower_bound(i));
            }
        }
        None
    }
}

/// The percentile ladder the tail rule climbs.
const LADDER: [f64; 6] = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999];

/// The highest percentile of [`LADDER`] that still leaves at least ten
/// of `n` samples beyond it, or `None` when even the median does not.
pub fn tail_percentile(n: u64) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// A half-open wall-clock interval in nanoseconds since the process
/// epoch, as recorded around a call into one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch (>= start).
    pub end: u64,
}

impl Span {
    /// Length in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span's self time: its length minus the part of it that the union
/// of its children covers (children may overlap each other, as parallel
/// workers do, and may stick out of the parent; both are clipped).
pub fn self_ns(parent: Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.dur() - covered
}

/// CPU time the whole process has used, all threads (exited ones
/// included), in nanoseconds: `CLOCK_PROCESS_CPUTIME_ID`. Unlike wall
/// time it does not advance while the host runs another guest on this
/// one's virtual CPUs (steal time). 64-bit Linux.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec of the platform's layout
    // (two 64-bit fields on 64-bit Linux) and outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// A wall instant with the process CPU time read beside it. Ordered by
/// the instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp {
    pub at: std::time::Instant,
    pub cpu_ns: u64,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            at: std::time::Instant::now(),
            cpu_ns: process_cpu_ns(),
        }
    }

    /// Wall seconds from `earlier` to `self`, 0 if `earlier` is later.
    pub fn wall_s_since(self, earlier: Stamp) -> f64 {
        self.at.saturating_duration_since(earlier.at).as_secs_f64()
    }

    /// Process CPU seconds from `earlier` to `self`, 0 if `earlier` is
    /// later.
    pub fn cpu_s_since(self, earlier: Stamp) -> f64 {
        self.cpu_ns.saturating_sub(earlier.cpu_ns) as f64 / 1e9
    }
}

/// Cost of the benchmark's own tracing around wrapped calls, measured on
/// a no-op network.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimerCost {
    /// Mean recorded duration of an empty timed call: timer cost that
    /// lands inside every recorded duration.
    pub inside_ns: f64,
    /// Mean wall time per empty call, timed or not: the tracing cost of
    /// one call.
    pub total_ns: f64,
}

/// Estimated busy time of `calls` calls of which `timed` were timed and
/// recorded `timed_ns` in total: the timed calls' mean, less the timer
/// cost inside each, scaled to every call.
pub fn busy_ns(timed_ns: f64, timed: f64, calls: f64, cost: TimerCost) -> f64 {
    if timed <= 0.0 {
        return 0.0;
    }
    (timed_ns / timed - cost.inside_ns) * calls
}

/// Per-probe split of a traced scan's wall time. The parts add up to
/// `traced_ns` exactly, by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    /// Traced wall time of the layer's span per probe.
    pub traced_ns: f64,
    /// Netsim busy time per probe with the timer cost removed.
    pub netsim_ns: f64,
    /// The layer's own time per probe: span minus netsim minus timing.
    pub self_ns: f64,
    /// The benchmark's timing cost per probe.
    pub trace_ns: f64,
}

/// Splits a traced span of `wall_ns` over `probes` probes, during which
/// `calls` wrapped netsim calls were busy for `netsim` ns (see
/// [`busy_ns`]).
pub fn ledger(wall_ns: f64, netsim: f64, calls: f64, probes: f64, cost: TimerCost) -> Ledger {
    let p = probes.max(1.0);
    let trace = calls * cost.total_ns;
    Ledger {
        traced_ns: wall_ns / p,
        netsim_ns: netsim / p,
        self_ns: (wall_ns - netsim - trace) / p,
        trace_ns: trace / p,
    }
}

/// Why the parts of a scan's ledger `l` cannot be right, with `staged`
/// ns per probe of replayed stage costs, or `None` when they can: the
/// netsim busy time must lie within the traced time, and the replayed
/// stages within the scanner's self time (a negative residual means the
/// replay claims time the scan never spent).
pub fn implausible(l: Ledger, staged: f64) -> Option<String> {
    if !(0.0..=l.traced_ns).contains(&l.netsim_ns) {
        return Some(format!(
            "netsim {:.1} ns/probe outside 0..={:.1} traced",
            l.netsim_ns, l.traced_ns
        ));
    }
    if residual(l.self_ns, &[staged]) < 0.0 {
        return Some(format!(
            "replayed stages {staged:.1} ns/probe exceed the scanner's self time {:.1}",
            l.self_ns
        ));
    }
    None
}

/// The part of a layer's self time per probe that no replayed stage
/// claims.
pub fn residual(self_ns: f64, stages: &[f64]) -> f64 {
    self_ns - stages.iter().sum::<f64>()
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    if s.is_empty() {
        return 0.0;
    }
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Renders the final result line as one JSON object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_clock_counts_busy_time_and_never_runs_back() {
        let a = Stamp::now();
        let mut x = 1u64;
        while Stamp::now().cpu_s_since(a) < 0.02 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        let b = Stamp::now();
        assert!(b.cpu_s_since(a) >= 0.02);
        assert!(b.wall_s_since(a) > 0.0);
        assert_eq!(a.cpu_s_since(b), 0.0);
        assert_eq!(a.wall_s_since(b), 0.0);
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(250_000), Some(99.99));
        assert_eq!(tail_percentile(10_000_000), Some(99.999));
    }

    #[test]
    fn histogram_percentiles_are_within_bucket_resolution() {
        let mut h = Hist::new();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum(), (1..=10_000u64).map(|v| v * 10).sum::<u64>());
        for (pct, exact) in [(50.0, 50_000.0), (99.0, 99_000.0), (99.9, 99_900.0)] {
            let got = h.percentile(pct).unwrap() as f64;
            assert!(
                got <= exact && got >= exact * (1.0 - 1.0 / 64.0),
                "{pct}: {got}"
            );
        }
        let mut small = Hist::new();
        for v in [3u64, 3, 5, 100] {
            small.record(v);
        }
        assert_eq!(small.percentile(50.0), Some(3));
        assert_eq!(small.percentile(75.0), Some(5));
        assert_eq!(small.percentile(100.0), Some(100));
        assert_eq!(Hist::default().percentile(50.0), None);
    }

    #[test]
    fn histogram_bucket_bounds_are_monotone_and_contain_their_values() {
        for v in [0u64, 1, 127, 128, 129, 1000, 65_535, 1 << 20, 123_456_789] {
            let i = Hist::index(v);
            assert!(Hist::lower_bound(i) <= v, "{v}");
            assert!(Hist::lower_bound(i + 1) > v, "{v}");
        }
    }

    #[test]
    fn merge_adds_samples() {
        let mut a = Hist::new();
        let mut b = Hist::default();
        a.record(10);
        b.record(1000);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 2010);
        assert_eq!(
            a.percentile(50.0),
            Some(Hist::lower_bound(Hist::index(1000)))
        );
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let p = Span {
            start: 100,
            end: 200,
        };
        assert_eq!(self_ns(p, &[]), 100);
        // Disjoint children.
        let c = [
            Span {
                start: 110,
                end: 120,
            },
            Span {
                start: 150,
                end: 170,
            },
        ];
        assert_eq!(self_ns(p, &c), 70);
        // Overlapping parallel children count once.
        let c = [
            Span {
                start: 110,
                end: 160,
            },
            Span {
                start: 140,
                end: 180,
            },
        ];
        assert_eq!(self_ns(p, &c), 30);
        // Children sticking out of the parent are clipped.
        let c = [
            Span {
                start: 50,
                end: 120,
            },
            Span {
                start: 190,
                end: 400,
            },
        ];
        assert_eq!(self_ns(p, &c), 70);
        // A child covering everything leaves nothing.
        assert_eq!(
            self_ns(
                p,
                &[Span {
                    start: 0,
                    end: 1000
                }]
            ),
            0
        );
    }

    #[test]
    fn ledger_parts_add_up_to_the_traced_time() {
        let cost = TimerCost {
            inside_ns: 20.0,
            total_ns: 50.0,
        };
        // 1000 probes, 2000 wrapped calls of which 125 timed, recording
        // 112.5 us: 900 ns each, 880 ns once the timer's 20 ns are removed.
        let netsim = busy_ns(112_500.0, 125.0, 2000.0, cost);
        assert_eq!(netsim, 1.76e6);
        assert_eq!(busy_ns(0.0, 0.0, 2000.0, cost), 0.0);
        // 3 ms wall.
        let l = ledger(3.0e6, netsim, 2000.0, 1000.0, cost);
        assert_eq!(l.traced_ns, 3000.0);
        assert_eq!(l.netsim_ns, 1760.0);
        assert_eq!(l.trace_ns, 100.0);
        assert_eq!(l.self_ns, 1140.0);
        let sum = l.netsim_ns + l.self_ns + l.trace_ns;
        assert!((sum - l.traced_ns).abs() < 1e-9);
    }

    #[test]
    fn implausible_ledgers_are_caught() {
        let l = Ledger {
            traced_ns: 3000.0,
            netsim_ns: 1760.0,
            self_ns: 1140.0,
            trace_ns: 100.0,
        };
        assert_eq!(implausible(l, 90.0), None);
        assert_eq!(implausible(l, 1140.0), None);
        assert!(implausible(l, 1140.5).unwrap().contains("exceed"));
        let over = Ledger {
            netsim_ns: 3001.0,
            ..l
        };
        assert!(implausible(over, 0.0).unwrap().contains("netsim"));
        let negative = Ledger {
            netsim_ns: -1.0,
            ..l
        };
        assert!(implausible(negative, 0.0).unwrap().contains("netsim"));
    }

    #[test]
    fn residual_is_self_minus_stages() {
        assert_eq!(residual(1140.0, &[10.0, 5.0, 20.0, 40.0, 15.0]), 1050.0);
        assert_eq!(residual(50.0, &[30.0, 40.0]), -20.0);
        assert_eq!(residual(50.0, &[]), 50.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[f64::NAN, 7.0]), 7.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            10,
            0,
            &[
                Metric {
                    name: "a",
                    value: 1.5,
                    unit: "ms",
                },
                Metric {
                    name: "b",
                    value: f64::NAN,
                    unit: "count",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
