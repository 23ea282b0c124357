//! Seeded job streams, one per workload, and their in-process reference
//! reports.
//!
//! The program under test only ever sees the generated jobs. Every
//! report it returns is compared with `QueryJob::execute` of the same job,
//! computed here before any clock starts.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use tcast::{
    fingerprint64, AdversaryConfig, AdversaryModel, ChannelSpec, CollisionModel, DefensePolicy,
    LossConfig, QueryReport, RetryPolicy,
};
use tcast_service::{AlgorithmSpec, QueryJob};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    Serve,
    ClusterHardened,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::Serve, Workload::ClusterHardened];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Serve => "serve",
            Workload::ClusterHardened => "cluster_hardened",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs in the stream: a whole number of repeats of every job shape.
    pub fn stream_len(self) -> usize {
        match self {
            Workload::Sweep => 5120,
            Workload::Serve | Workload::ClusterHardened => 4800,
        }
    }

    /// Distinct per-workload salt, so one seed gives unrelated streams.
    fn salt(self) -> u64 {
        match self {
            Workload::Sweep => 0x5157_4545_5000_0001,
            Workload::Serve => 0x5345_5256_4500_0002,
            Workload::ClusterHardened => 0x434c_5553_5400_0003,
        }
    }
}

/// The two `serve` tenants, in the 3:1 mix their jobs are issued at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tenant {
    Gold,
    Bronze,
}

/// Job `i` of a stream belongs to bronze one time in four, else gold.
pub fn tenant_of(i: usize) -> Tenant {
    if i % 4 == 3 {
        Tenant::Bronze
    } else {
        Tenant::Gold
    }
}

pub struct Stream {
    pub jobs: Vec<QueryJob>,
    /// `QueryJob::execute` of each job, computed off the clock.
    pub refs: Vec<QueryReport>,
    /// FNV-1a over the concatenated `QueryJob::cache_key`s.
    pub fingerprint: u64,
}

impl Stream {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ workload.salt());
        let jobs = match workload {
            Workload::Sweep => sweep_jobs(&mut rng),
            Workload::Serve => serve_jobs(&mut rng),
            Workload::ClusterHardened => cluster_jobs(&mut rng),
        };
        assert_eq!(jobs.len(), workload.stream_len());
        let refs = jobs.iter().map(QueryJob::execute).collect();
        let keys: Vec<u8> = jobs.iter().flat_map(QueryJob::cache_key).collect();
        Self {
            jobs,
            refs,
            fingerprint: fingerprint64(&keys),
        }
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Job `k` of the endless cycle through the stream, with its index.
    pub fn cycle(&self, k: u64) -> (usize, QueryJob) {
        let i = (k % self.jobs.len() as u64) as usize;
        (i, self.jobs[i])
    }

    /// Whether `report` is bit-identical to the reference for job `i`.
    pub fn matches(&self, i: usize, report: &QueryReport) -> bool {
        *report == self.refs[i]
    }

    /// Mean channel queries per decision over the stream.
    pub fn queries_per_job(&self) -> f64 {
        self.refs.iter().map(|r| r.queries).sum::<u64>() as f64 / self.len() as f64
    }

    /// Share of jobs whose verdict differs from `[x >= t]` (the spec's
    /// honest `x`) while the report flagged no anomaly.
    pub fn wrong_verdicts(&self) -> f64 {
        let wrong = self
            .jobs
            .iter()
            .zip(&self.refs)
            .filter(|(job, r)| r.answer != (job.channel.x >= job.t) && r.anomalies == 0)
            .count();
        wrong as f64 / self.len() as f64
    }
}

/// `shapes` repeated to `len` and shuffled: every seed gets the same mix
/// of job shapes, each equally often, in its own order.
fn mix<T: Copy>(shapes: &[T], len: usize, rng: &mut SmallRng) -> Vec<T> {
    assert_eq!(len % shapes.len(), 0, "every shape equally often");
    let mut mixed: Vec<T> = shapes.iter().copied().cycle().take(len).collect();
    mixed.shuffle(rng);
    mixed
}

/// Every `(a, b, c)` index triple below the given bounds.
fn grid(a: usize, b: usize, c: usize) -> Vec<(usize, usize, usize)> {
    (0..a)
        .flat_map(|i| (0..b).flat_map(move |j| (0..c).map(move |k| (i, j, k))))
        .collect()
}

/// The five decisive truths for threshold `t` among `n`.
fn truths(n: usize, t: usize) -> [usize; 5] {
    [0, t - 1, t, 2 * t, n]
}

/// The paper's operating point (N=128, t=16) over every algorithm, both
/// collision models and the five decisive truths; every eighth job at
/// N=1024, t=128 so the candidate pool size varies.
fn sweep_jobs(rng: &mut SmallRng) -> Vec<QueryJob> {
    let shapes = grid(AlgorithmSpec::ALL.len(), 5, 2);
    let len = Workload::Sweep.stream_len();
    let mut small = mix(&shapes, len / 8 * 7, rng).into_iter();
    let mut big = mix(&shapes, len / 8, rng).into_iter();
    (0..len)
        .map(|i| {
            let ((n, t), shape) = if i % 8 == 7 {
                ((1024, 128), big.next())
            } else {
                ((128, 16), small.next())
            };
            let (algorithm, x, model) = shape.expect("one shape per job");
            let model = if model == 0 {
                CollisionModel::OnePlus
            } else {
                CollisionModel::two_plus_default()
            };
            let channel =
                ChannelSpec::ideal(n, truths(n, t)[x], model).seeded(rng.random(), rng.random());
            QueryJob::new(AlgorithmSpec::ALL[algorithm], channel, t, rng.random())
        })
        .collect()
}

/// Cheap jobs, so per-frame cost dominates: 2tBins and ABNS(p0=t) at
/// N=128, t=16, 1+ model, x in {0, t-1, n}.
fn serve_jobs(rng: &mut SmallRng) -> Vec<QueryJob> {
    let (n, t) = (128, 16);
    let algorithms = [AlgorithmSpec::TwoTBins, AlgorithmSpec::AbnsP0T];
    let xs = [0, t - 1, n];
    mix(&grid(2, 3, 1), Workload::Serve.stream_len(), rng)
        .into_iter()
        .map(|(algorithm, x, _)| {
            let channel = ChannelSpec::ideal(n, xs[x], CollisionModel::OnePlus)
                .seeded(rng.random(), rng.random());
            QueryJob::new(algorithms[algorithm], channel, t, rng.random())
        })
        .collect()
}

/// Exact algorithms at N=512, t=64 under the 2+ model, every job with
/// verified-silence retries and hardened defenses, over a one-third mix
/// each of lossy links, a 35% jammer, and one false responder (whose
/// jobs keep x <= t-2).
fn cluster_jobs(rng: &mut SmallRng) -> Vec<QueryJob> {
    let (n, t) = (512, 64);
    let model = CollisionModel::two_plus_default();
    let algorithms = [
        AlgorithmSpec::TwoTBins,
        AlgorithmSpec::ExpIncrease,
        AlgorithmSpec::AbnsP0T,
        AlgorithmSpec::AbnsP02T,
    ];
    let liar_xs = [0, t / 4, t / 2, 3 * t / 4, t - 2];
    mix(&grid(4, 3, 5), Workload::ClusterHardened.stream_len(), rng)
        .into_iter()
        .map(|(algorithm, kind, x)| {
            let mut adversary = |model| AdversaryConfig {
                model,
                seed: rng.random(),
            };
            let channel = match kind {
                0 => ChannelSpec::lossy(n, truths(n, t)[x], model, LossConfig::default()),
                1 => ChannelSpec::adversarial(
                    n,
                    truths(n, t)[x],
                    model,
                    None,
                    adversary(AdversaryModel::Jammer { duty_mille: 350 }),
                ),
                _ => ChannelSpec::adversarial(
                    n,
                    liar_xs[x],
                    model,
                    None,
                    adversary(AdversaryModel::FalseResponders { count: 1 }),
                ),
            };
            let channel = channel
                .seeded(rng.random(), rng.random())
                .with_retry(RetryPolicy::verified(2))
                .with_defense(DefensePolicy::hardened());
            QueryJob::new(algorithms[algorithm], channel, t, rng.random())
        })
        .collect()
}
