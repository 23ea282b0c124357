//! Allocation guard for the channels and the job path built on them.
//!
//! A group query counts the positives and picks the captured one in
//! place, so no query allocates, the first included; building a job's
//! channel from a spec is one placement bitmap, one truth copy and the
//! box. A worker builds into its reused channel arena instead, which
//! allocates nothing once warm, so a warm `QueryJob::execute_in` makes
//! one allocation: the report's trace. A tallying global allocator
//! counts every heap allocation the measuring thread makes while each
//! step runs; allocations on other threads of the test harness are not
//! counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use tcast::channel::ChannelArena;
use tcast::{
    population, AdversaryConfig, AdversaryModel, ChannelSpec, CollisionModel, DefensePolicy,
    EngineScratch, GroupQueryChannel, IdealChannel, LossConfig, LossyChannel, NodeId, RetryPolicy,
};
use tcast_service::{AlgorithmSpec, QueryJob};

struct TallyingAlloc;

thread_local! {
    /// Whether this thread's allocations are counted, and how many were.
    /// Both per thread, so tests measuring in parallel never see each
    /// other's allocations. `const`, with no destructor, so reading them
    /// never allocates or re-enters the allocator.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for TallyingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwards the caller's layout contract to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (every
        // allocation above forwards to it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: as `dealloc`; the new size contract is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: forwards the caller's layout contract to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: TallyingAlloc = TallyingAlloc;

const N: usize = 128;
const X: usize = 16;
const QUERIES: usize = 10_000;

/// Heap allocations this thread made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.with(Cell::get) - before, out)
}

/// Seeded groups of every size the engine produces, built up front so
/// the measured loop allocates only what the channel does.
fn groups() -> Vec<Vec<NodeId>> {
    let mut rng = SmallRng::seed_from_u64(17);
    (0..64)
        .map(|_| {
            let mut members = population(N);
            members.shuffle(&mut rng);
            members.truncate(rng.random_range(0..=N));
            members
        })
        .collect()
}

/// Allocations over `QUERIES` queries, counted from the channel's first
/// query: channels are built per job, so a buffer grown on first use
/// would be paid by every job.
fn query_allocs(channel: &mut dyn GroupQueryChannel, groups: &[Vec<NodeId>]) -> u64 {
    allocations(|| {
        for members in groups.iter().cycle().take(QUERIES) {
            black_box(channel.query(black_box(members)));
        }
    })
    .0
}

#[test]
fn honest_channels_allocate_nothing_per_query_and_three_times_per_build() {
    let groups = groups();
    let positives: Vec<NodeId> = (0..X as u32).map(|i| NodeId(i * 7 % N as u32)).collect();

    let mut one_plus = IdealChannel::new(N, CollisionModel::OnePlus, 1);
    one_plus.set_positives(&positives);
    let mut two_plus = IdealChannel::new(N, CollisionModel::two_plus_default(), 2);
    two_plus.set_positives(&positives);
    let mut lossy = LossyChannel::new(
        N,
        CollisionModel::two_plus_default(),
        LossConfig::default(),
        3,
    );
    lossy.set_positives(&positives);

    for (name, channel) in [
        ("ideal 1+", &mut one_plus as &mut dyn GroupQueryChannel),
        ("ideal 2+", &mut two_plus),
        ("lossy", &mut lossy),
    ] {
        let allocs = query_allocs(channel, &groups);
        assert_eq!(
            allocs, 0,
            "{name}: {allocs} allocations over {QUERIES} queries"
        );
    }

    // Placement bitmap (moved into the channel), the truth copy, the box.
    let spec = ChannelSpec::ideal(N, X, CollisionModel::two_plus_default()).seeded(5, 6);
    let (allocs, built) = allocations(|| tcast_adversary::build_with_truth(&spec));
    drop(built);
    assert!(
        allocs <= 3,
        "tcast_adversary::build_with_truth made {allocs} allocations (at most 3)"
    );
}

/// One spec of each kind a job's channel is built from: ideal under both
/// collision models, lossy, a jammer and a false responder, the last
/// three with the verified retries and hardened defenses the adversarial
/// workloads run with. Two population sizes, so a warm arena has grown
/// to the larger one.
fn specs() -> Vec<ChannelSpec> {
    let two_plus = CollisionModel::two_plus_default();
    let adversary = |model, seed| AdversaryConfig { model, seed };
    let mut specs = Vec::new();
    for (i, (n, x)) in [(N, X - 1), (4 * N, 4 * X)].into_iter().enumerate() {
        let seed = i as u64;
        let hardened = [
            ChannelSpec::lossy(n, x, two_plus, LossConfig::default()),
            ChannelSpec::adversarial(
                n,
                x,
                two_plus,
                None,
                adversary(AdversaryModel::Jammer { duty_mille: 350 }, 7 + seed),
            ),
            ChannelSpec::adversarial(
                n,
                x / 2,
                two_plus,
                None,
                adversary(AdversaryModel::FalseResponders { count: 3 }, 9 + seed),
            ),
        ];
        // No positives: ProbABNS's probe is silent and hands over to ABNS.
        specs.push(ChannelSpec::ideal(n, 0, CollisionModel::OnePlus));
        specs.push(ChannelSpec::ideal(n, x, CollisionModel::OnePlus));
        specs.push(ChannelSpec::ideal(n, x, two_plus));
        specs.extend(hardened.into_iter().map(|spec| {
            spec.with_retry(RetryPolicy::verified(2))
                .with_defense(DefensePolicy::hardened())
        }));
    }
    specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| spec.seeded(11 + i as u64, 23 + i as u64))
        .collect()
}

#[test]
fn warm_arena_builds_allocate_nothing() {
    let groups = groups();
    let specs = specs();
    let mut arena = ChannelArena::new();
    for spec in &specs {
        tcast_adversary::with_channel(spec, &mut arena, |_, _| ());
    }
    for spec in &specs {
        let (allocs, ()) = allocations(|| {
            tcast_adversary::with_channel(spec, &mut arena, |channel, truth| {
                black_box(truth);
                for members in groups.iter().take(200) {
                    black_box(channel.query(black_box(members)));
                }
            })
        });
        assert_eq!(allocs, 0, "{spec:?}: {allocs} allocations");
    }
}

#[test]
fn warm_execute_in_allocates_only_the_report_trace() {
    let jobs: Vec<QueryJob> = specs()
        .into_iter()
        .flat_map(|spec| {
            let t = spec.n / 8;
            AlgorithmSpec::ALL
                .into_iter()
                .enumerate()
                .map(move |(i, algorithm)| QueryJob::new(algorithm, spec, t, 31 + i as u64))
        })
        .collect();
    let mut scratch = EngineScratch::new();
    for job in &jobs {
        drop(job.execute_in(&mut scratch));
    }
    for job in &jobs {
        let (allocs, report) = allocations(|| job.execute_in(&mut scratch));
        assert!(!report.trace.is_empty(), "{job:?}");
        assert_eq!(
            allocs,
            1,
            "{} on {:?}: {allocs} allocations",
            job.algorithm.name(),
            job.channel
        );
    }
}
