//! The measured loops: closed-loop waves, a closed loop with a fixed
//! in-flight window, and an open loop on a fixed schedule.
//!
//! Each loop splits its run into [`WINDOWS`] equal windows and reads the
//! machine's steal time (CPU the hypervisor gave to other guests) over
//! each. Figures come from the [`QUIET`] windows with the least steal, so
//! a noisy neighbour on the shared host moves which windows count rather
//! than the figure.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tcast_net::NetJobHandle;
use tcast_service::{JobResult, QueryJob, QueryService};

use crate::jobs::Stream;
use crate::probe::{median, Meter, Samples, Spent};
use crate::stack::{from_net, from_service, Outcome, Tenanted, JOB_TIMEOUT};
use crate::trace::{Spans, ROOT};

/// Measurement windows per loop.
pub const WINDOWS: usize = 20;
/// Windows, those with the least steal, that the figures come from.
pub const QUIET: usize = 10;

/// Every job attempted, and how many failed or came back different from
/// their in-process reference.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

impl Tally {
    pub fn record(&mut self, stream: &Stream, i: usize, outcome: &Outcome) {
        self.attempted += 1;
        match outcome {
            Ok(report) if stream.matches(i, report) => {}
            Ok(_) => self.mismatches += 1,
            Err(_) => self.failed += 1,
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }
}

/// What one measurement window saw.
#[derive(Default)]
pub struct Window {
    /// Jobs resolved in the window (open loop: jobs due in it).
    completed: u64,
    elapsed: Duration,
    /// Per sample: from submit (open loop: from when the job was due) to
    /// its result.
    latency: Samples,
    /// Per submission: from when it was due to when the submit call
    /// returned.
    late: Samples,
    spent: Spent,
}

/// One loop's windows.
pub struct LoopStats {
    windows: Vec<Window>,
}

impl LoopStats {
    /// The [`QUIET`] windows with the least steal.
    fn quiet(&self) -> Vec<&Window> {
        let mut by_steal: Vec<&Window> = self.windows.iter().collect();
        by_steal.sort_by(|a, b| a.spent.steal.total_cmp(&b.spent.steal));
        by_steal.truncate(QUIET);
        by_steal
    }

    /// Per quantile in `qs`, the median over the quiet windows of each
    /// window's quantile, in µs; a stall confined to a few windows moves
    /// none of the figures.
    fn window_median_us(&self, qs: &[f64], samples: impl Fn(&Window) -> &Samples) -> Vec<f64> {
        let per_window: Vec<Vec<f64>> = self
            .quiet()
            .into_iter()
            .map(|w| samples(w).quantiles_us(qs))
            .collect();
        (0..qs.len())
            .map(|k| median(&per_window.iter().map(|q| q[k]).collect::<Vec<_>>()))
            .collect()
    }

    pub fn jobs_per_s(&self) -> f64 {
        let quiet = self.quiet();
        let jobs: u64 = quiet.iter().map(|w| w.completed).sum();
        let secs: f64 = quiet.iter().map(|w| w.elapsed.as_secs_f64()).sum();
        jobs as f64 / secs
    }

    fn quiet_jobs(&self) -> f64 {
        self.quiet().iter().map(|w| w.completed).sum::<u64>().max(1) as f64
    }

    pub fn cpu_us_per_job(&self) -> f64 {
        self.quiet().iter().map(|w| w.spent.cpu_s).sum::<f64>() * 1e6 / self.quiet_jobs()
    }

    pub fn allocs_per_job(&self) -> f64 {
        self.quiet().iter().map(|w| w.spent.allocs).sum::<u64>() as f64 / self.quiet_jobs()
    }

    /// Latency quantiles `qs` (see [`LoopStats::window_median_us`]), and
    /// the fewest samples any quiet window holds.
    pub fn latency_us(&self, qs: &[f64]) -> (Vec<f64>, usize) {
        let fewest = self
            .quiet()
            .iter()
            .map(|w| w.latency.len())
            .min()
            .unwrap_or(0);
        (self.window_median_us(qs, |w| &w.latency), fewest)
    }

    /// Lateness quantiles `qs` (see [`LoopStats::window_median_us`]).
    pub fn late_us(&self, qs: &[f64]) -> Vec<f64> {
        self.window_median_us(qs, |w| &w.late)
    }

    /// Mean steal share over all windows, and over the quiet ones.
    pub fn steal(&self) -> (f64, f64) {
        let mean = |ws: &[&Window]| ws.iter().map(|w| w.spent.steal).sum::<f64>() / ws.len() as f64;
        (
            mean(&self.windows.iter().collect::<Vec<_>>()),
            mean(&self.quiet()),
        )
    }

    /// Jobs resolved over every window.
    pub fn completed(&self) -> u64 {
        self.windows.iter().map(|w| w.completed).sum()
    }
}

/// Closes windows of equal length as a closed loop runs.
struct Windows {
    len: Duration,
    start: Instant,
    meter: Meter,
    current: Window,
    done: Vec<Window>,
}

impl Windows {
    fn new(dur: Duration) -> Self {
        Self {
            len: dur / WINDOWS as u32,
            start: Instant::now(),
            meter: Meter::start(),
            current: Window::default(),
            done: Vec::with_capacity(WINDOWS),
        }
    }

    fn finished(&self) -> bool {
        self.done.len() == WINDOWS
    }

    /// Closes the current window if `now` is past its end.
    fn tick(&mut self, now: Instant) {
        if now - self.start >= self.len {
            let mut window = std::mem::take(&mut self.current);
            window.elapsed = now - self.start;
            window.spent = self.meter.read();
            self.done.push(window);
            self.start = now;
            self.meter = Meter::start();
        }
    }

    fn into_stats(self) -> LoopStats {
        LoopStats { windows: self.done }
    }
}

/// Jobs per `sweep` wave.
pub const WAVE: usize = 64;

/// Closed loop of fixed-size waves: one generator thread submits a wave
/// of consecutive stream jobs and waits for all of it; the next wave is
/// due the moment it completes, and the finished wave is verified while
/// the next one runs. A latency sample is one wave, submit to its last
/// result.
pub fn waves(
    service: &QueryService,
    stream: &Stream,
    dur: Duration,
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
) -> LoopStats {
    let verify =
        |tally: &mut Tally, lo: usize, results: Result<Vec<JobResult>, String>| match results {
            Ok(results) => {
                for (j, result) in results.into_iter().enumerate() {
                    tally.record(stream, lo + j, &from_service(result));
                }
            }
            Err(e) => {
                for j in 0..WAVE {
                    tally.record(stream, lo + j, &Err(e.clone()));
                }
            }
        };
    let mut windows = Windows::new(dur);
    let mut due = windows.start;
    let mut lo = 0;
    let mut finished = None;
    while !windows.finished() {
        let sent = Instant::now();
        let batch = service.submit(stream.jobs[lo..lo + WAVE].to_vec());
        windows.current.late.push(Instant::now() - due);
        if let Some((lo, results)) = finished.take() {
            verify(tally, lo, results);
        }
        let results = batch.map(|b| b.wait()).map_err(|e| e.to_string());
        let done = Instant::now();
        windows.current.latency.push(done - sent);
        windows.current.completed += WAVE as u64;
        if let Some(spans) = spans.as_deref_mut() {
            spans.record("sweep.wave", sent, done, ROOT, lo as u64);
        }
        finished = Some((lo, results));
        lo = (lo + WAVE) % stream.len();
        due = done;
        windows.tick(done);
    }
    if let Some((lo, results)) = finished {
        verify(tally, lo, results);
    }
    windows.into_stats()
}

/// Closed loop with `window` jobs in flight: one generator thread waits
/// for the oldest job, submits the next (due the moment the oldest
/// completed), then verifies the oldest. Results are taken in submission
/// order, so a latency sample is submit to in-order delivery.
#[allow(clippy::too_many_arguments)]
pub fn window<H>(
    stream: &Stream,
    dur: Duration,
    window: usize,
    tally: &mut Tally,
    mut spans: Option<&mut Spans>,
    span_name: &'static str,
    mut submit: impl FnMut(usize, QueryJob) -> H,
    mut wait: impl FnMut(H) -> Outcome,
) -> LoopStats {
    let mut inflight = VecDeque::with_capacity(window);
    let mut k = 0u64;
    let mut issue = |due: Instant, late: &mut Samples, inflight: &mut VecDeque<_>| {
        let (i, job) = stream.cycle(k);
        k += 1;
        let sent = Instant::now();
        let handle = submit(i, job);
        late.push(Instant::now() - due);
        inflight.push_back((handle, i, sent));
    };
    let mut windows = Windows::new(dur);
    let t0 = windows.start;
    for _ in 0..window {
        issue(t0, &mut windows.current.late, &mut inflight);
    }
    while !windows.finished() {
        let (handle, i, sent) = inflight.pop_front().expect("window is never empty");
        let outcome = wait(handle);
        let done = Instant::now();
        issue(done, &mut windows.current.late, &mut inflight);
        windows.current.latency.push(done - sent);
        windows.current.completed += 1;
        if let Some(spans) = spans.as_deref_mut() {
            spans.record(span_name, sent, done, ROOT, i as u64);
        }
        tally.record(stream, i, &outcome);
        windows.tick(done);
    }
    // Drain off the clock: every submitted job is still verified.
    for (handle, i, _) in inflight {
        tally.record(stream, i, &wait(handle));
    }
    windows.into_stats()
}

/// Open loop: jobs are due at a fixed `rate` regardless of completions,
/// on the tenant client each job belongs to. One generator thread sends
/// every job that is due and sleeps until the next; one collector thread
/// waits for results in submission order. A latency sample runs from
/// when the job was due, so generator stalls count against it. A job
/// belongs to the window it was due in.
pub fn open_loop(
    stack: &Tenanted,
    stream: &Stream,
    dur: Duration,
    rate: f64,
    tally: &mut Tally,
) -> LoopStats {
    let per_window = (dur.as_secs_f64() * rate) as u64 / WINDOWS as u64;
    let mut windows: Vec<Window> = (0..WINDOWS).map(|_| Window::default()).collect();
    let (tx, rx) = mpsc::channel::<(NetJobHandle, Instant, usize, usize)>();
    let t0 = Instant::now();
    let (latencies, collected) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut latencies: Vec<Samples> = (0..WINDOWS).map(|_| Samples::default()).collect();
            let mut collected = Tally::default();
            for (handle, due, i, w) in rx {
                let outcome = from_net(handle.wait_timeout(JOB_TIMEOUT));
                latencies[w].push(Instant::now() - due);
                collected.record(stream, i, &outcome);
            }
            (latencies, collected)
        });
        let mut meter = Meter::start();
        let mut window_start = t0;
        for (w, window) in windows.iter_mut().enumerate() {
            for j in 0..per_window {
                let k = w as u64 * per_window + j;
                let due = t0 + Duration::from_secs_f64(k as f64 / rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let (i, job) = stream.cycle(k);
                let handle = stack.client(i).submit_one(job);
                window
                    .late
                    .push(Instant::now().saturating_duration_since(due));
                tx.send((handle, due, i, w))
                    .expect("collector outlives the generator");
            }
            window.completed = per_window;
            if w + 1 < WINDOWS {
                let now = Instant::now();
                window.elapsed = now - window_start;
                window.spent = meter.read();
                window_start = now;
                meter = Meter::start();
            }
        }
        drop(tx);
        let result = collector.join().expect("collector thread");
        // The last window closes once its jobs have all come back.
        let last = windows.last_mut().expect("WINDOWS > 0");
        last.elapsed = window_start.elapsed();
        last.spent = meter.read();
        result
    });
    for (window, latency) in windows.iter_mut().zip(latencies) {
        window.latency = latency;
    }
    tally.merge(collected);
    LoopStats { windows }
}
