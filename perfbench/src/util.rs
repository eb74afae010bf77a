//! Shared plumbing: the seeded generator, order statistics, the
//! benchmark's own span recorder, and what a run reads about its machine.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// SplitMix64: every input the benchmark generates comes from one of
/// these, seeded from `--seed`, so a seed always yields the same inputs.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of raw samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median over one-second windows of how many operations completed in
/// each, given completion offsets (seconds) from the start of the timed
/// phase. Windows are whole seconds; a trailing partial window is dropped.
pub fn per_second_median(completions: impl IntoIterator<Item = f64>, elapsed: Duration) -> f64 {
    let windows = elapsed.as_secs().max(1) as usize;
    let mut counts = vec![0.0; windows];
    for c in completions {
        let w = c as usize;
        if w < windows {
            counts[w] += 1.0;
        }
    }
    median(&counts)
}

/// Peak resident set of this process, in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time of the whole machine and of this process, from `/proc/stat`
/// and `/proc/self/stat`, in clock ticks.
#[derive(Clone, Copy, Default)]
pub struct CpuSample {
    total: u64,
    idle: u64,
    steal: u64,
    own: u64,
}

impl CpuSample {
    pub fn read() -> CpuSample {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        let get = |i: usize| fields.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user/nice).
        let total: u64 = (0..8).map(get).sum();
        let own = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| {
                let rest = &s[s.rfind(')')? + 2..];
                let f: Vec<&str> = rest.split_whitespace().collect();
                // Fields 14 and 15 of the file (utime, stime), counted
                // after the command name.
                Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
            })
            .unwrap_or(0);
        CpuSample { total, idle: get(3) + get(4), steal: get(7), own }
    }

    /// Shares of the machine's CPU time between `self` and `later` that
    /// went to hypervisor steal and to processes other than this one.
    pub fn interference(&self, later: &CpuSample) -> (f64, f64) {
        let total = later.total.saturating_sub(self.total).max(1) as f64;
        let steal = later.steal.saturating_sub(self.steal) as f64;
        let idle = later.idle.saturating_sub(self.idle) as f64;
        let own = later.own.saturating_sub(self.own) as f64;
        let other = (total - idle - steal - own).max(0.0);
        (100.0 * steal / total, 100.0 * other / total)
    }
}

// ------------------------------------------------------------------ spans

static SPANS_ON: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One finished benchmark span: a call into a named layer.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns the benchmark's span recording on or off (off by default, and
/// off for every end-to-end measurement).
pub fn spans_enabled(on: bool) {
    epoch();
    SPANS_ON.store(on, Ordering::Relaxed);
}

/// Guard of an open span; records on drop when spans are on.
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

/// Opens a span around a call into layer `name`. Nested spans opened on
/// the same thread become its children.
pub fn span(name: &'static str) -> Span {
    if !SPANS_ON.load(Ordering::Relaxed) {
        return Span { id: 0, parent: 0, name, start: Instant::now() };
    }
    let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Span { id, parent, name, start: Instant::now() }
}

impl Span {
    /// Closes the span and returns its duration (measured either way).
    pub fn end(self) -> Duration {
        self.start.elapsed()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = self.start.elapsed();
        if self.id == 0 {
            return;
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start.duration_since(epoch()).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        };
        SPANS.lock().expect("span store poisoned").push(rec);
    }
}

/// Every span recorded so far.
pub fn take_spans() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Self time per span name: each span's duration minus the time its
/// direct children cover. Returns `name -> (count, total ns, self ns)`.
pub fn fold_self_time(spans: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let own = s.dur_ns.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns;
        e.2 += own;
    }
    out
}

/// Delta of one `staq_obs` counter between two snapshots.
pub fn counter_delta(
    before: &staq_obs::MetricsSnapshot,
    after: &staq_obs::MetricsSnapshot,
    name: &str,
) -> f64 {
    let a = after.counter(name).unwrap_or(0);
    let b = before.counter(name).unwrap_or(0);
    a.saturating_sub(b) as f64
}

/// `hits / (hits + misses)` over two snapshots; NaN when nothing counted.
pub fn ratio_delta(
    before: &staq_obs::MetricsSnapshot,
    after: &staq_obs::MetricsSnapshot,
    hits: &str,
    misses: &str,
) -> f64 {
    let h = counter_delta(before, after, hits);
    let m = counter_delta(before, after, misses);
    h / (h + m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(8, 1);
        let xa: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let xc: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            SpanRec { id: 1, parent: 0, name: "a", start_ns: 0, dur_ns: 100 },
            SpanRec { id: 2, parent: 1, name: "b", start_ns: 10, dur_ns: 30 },
            SpanRec { id: 3, parent: 1, name: "b", start_ns: 50, dur_ns: 20 },
        ];
        let f = fold_self_time(&spans);
        assert_eq!(f["a"], (1, 100, 50));
        assert_eq!(f["b"], (2, 50, 50));
    }

    #[test]
    fn per_second_counts() {
        let c = [0.1, 0.2, 1.1, 1.5, 1.9, 2.2, 2.9, 3.5];
        // Windows [0,1) [1,2) [2,3): counts 2, 3, 2; the partial fourth drops.
        assert_eq!(per_second_median(c, Duration::from_secs_f64(3.6)), 2.0);
    }
}
