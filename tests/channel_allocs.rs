//! Allocation guard for the honest channels.
//!
//! A group query counts the positives and picks the captured one in
//! place, so no query allocates, the first included; building a job's
//! channel from a spec is one placement bitmap, one truth copy and the
//! box. A tallying global allocator counts every heap allocation made
//! while each step runs.
//!
//! The file holds exactly one `#[test]`: the counter is process-wide, and
//! a second test running on a parallel thread would allocate into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use tcast::{
    population, ChannelSpec, CollisionModel, GroupQueryChannel, IdealChannel, LossConfig,
    LossyChannel, NodeId,
};

struct TallyingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for TallyingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's layout contract to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (every
        // allocation above forwards to it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`; the new size contract is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwards the caller's layout contract to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: TallyingAlloc = TallyingAlloc;

const N: usize = 128;
const X: usize = 16;
const QUERIES: usize = 10_000;

/// Heap allocations made while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
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
    let (allocs, built) = allocations(|| spec.build_with_truth());
    drop(built);
    assert!(
        allocs <= 3,
        "ChannelSpec::build_with_truth made {allocs} allocations (at most 3)"
    );
}
