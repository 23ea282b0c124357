//! Process counters read from outside the program under test: a
//! tallying global allocator, CPU time from `/proc/self/stat`, peak
//! resident memory from `/proc/self/status`, and quantiles over raw
//! samples.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations (alloc + realloc + alloc_zeroed) across every
/// thread of the process, so allocation costs are measured numbers.
pub struct TallyingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for TallyingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Heap allocations made by the whole process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Kernel clock ticks per second for `/proc/self/stat` times
/// (`sysconf(_SC_CLK_TCK)`, 100 on every mainstream Linux build).
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds used by every thread of the process so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name is parenthesised and may contain spaces; fields
    // resume after the last ')'. utime and stime are fields 14 and 15 of
    // the line, i.e. the 12th and 13th after the name.
    let rest = &stat[stat.rfind(')').expect("stat line has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |k: usize| -> f64 {
        fields[k]
            .parse::<u64>()
            .expect("numeric CPU time field in /proc/self/stat") as f64
    };
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_SEC
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// `(steal, total)` clock ticks of the whole machine from the first line
/// of `/proc/stat`: time the hypervisor gave this machine's CPUs to
/// someone else, against all time.
fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .expect("aggregate cpu line in /proc/stat")
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().expect("numeric tick count in /proc/stat"))
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// What the process and the machine spent between two points of the run.
pub struct Meter {
    cpu_s: f64,
    allocs: u64,
    machine: (u64, u64),
}

/// A [`Meter`] reading.
#[derive(Debug, Default, Clone, Copy)]
pub struct Spent {
    pub cpu_s: f64,
    pub allocs: u64,
    /// Share of the machine's CPU time stolen by the hypervisor.
    pub steal: f64,
}

impl Meter {
    pub fn start() -> Self {
        Self {
            cpu_s: cpu_seconds(),
            allocs: allocs(),
            machine: machine_ticks(),
        }
    }

    pub fn read(&self) -> Spent {
        let (steal, total) = machine_ticks();
        Spent {
            cpu_s: cpu_seconds() - self.cpu_s,
            allocs: allocs() - self.allocs,
            steal: (steal - self.machine.0) as f64 / (total - self.machine.1).max(1) as f64,
        }
    }
}

/// Nearest-rank quantile of `sorted` (ascending), as `f64`.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The highest of a fixed ladder of percentiles that still has at least
/// ten samples beyond it, for stating which tail a sample supports.
pub fn supported_tail(samples: usize) -> f64 {
    [0.9999, 0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|q| (1.0 - q) * samples as f64 >= 10.0)
        .unwrap_or(0.5)
}

/// Median of `values` (which need not be sorted).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Raw duration samples in nanoseconds, summarised on demand.
#[derive(Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: std::time::Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Quantiles `qs` in microseconds.
    pub fn quantiles_us(&self, qs: &[f64]) -> Vec<f64> {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        qs.iter().map(|&q| quantile(&sorted, q) / 1e3).collect()
    }
}
