//! Micro-benchmarks for the building blocks: one algorithm session per
//! strategy, channel queries, the frame codec, rcd exchanges, and the
//! baselines. These are the units that the figure sweeps execute
//! millions of times; no other bench times the radio frame, the rcd
//! exchanges or the baselines.
//!
//! Output: one JSON document of median nanoseconds per call on stdout;
//! progress on stderr.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use tcast::baselines::{csma_collect, sequential_collect_random, CsmaConfig};
use tcast::{
    population, Abns, CollisionModel, ExpIncrease, GroupQueryChannel, IdealChannel, ProbAbns,
    ThresholdQuerier, TwoTBins,
};
use tcast_bench::{median_ns, Report};
use tcast_motes::radio::{Frame, ShortAddr};
use tcast_motes::rcd::{RcdConfig, RcdStack};

/// Samples per arm; each sample is many calls.
const SAMPLES: usize = 21;

/// A 12-mote lossless stack whose predicate holds at `positives`.
fn stack(seed: u64, positives: &[usize]) -> RcdStack {
    let mut stack = RcdStack::new(12, RcdConfig::lossless(), seed);
    let mut pred = vec![false; 12];
    for &p in positives {
        pred[p] = true;
    }
    stack.set_predicate(&pred);
    stack
}

fn main() {
    let mut r = Report::new("primitives", "ns_per_call");

    // One session on a fresh ideal channel, as the sweeps run it.
    let (n, t) = (128, 16);
    let algs: [(&str, Box<dyn ThresholdQuerier>); 4] = [
        ("2tBins", Box::new(TwoTBins)),
        ("ExpIncrease", Box::new(ExpIncrease::standard())),
        ("ABNS_p0_2t", Box::new(Abns::p0_2t())),
        ("ProbABNS", Box::new(ProbAbns::standard())),
    ];
    let nodes = population(n);
    for x in [2usize, 16, 64] {
        for (name, alg) in &algs {
            let mut rng = SmallRng::seed_from_u64(7);
            let ns = median_ns(SAMPLES, 2_000, || {
                let ch_seed = rng.random();
                let mut ch = IdealChannel::with_random_positives(
                    n,
                    x,
                    CollisionModel::OnePlus,
                    ch_seed,
                    &mut rng,
                );
                alg.run(&nodes, t, &mut ch, &mut rng).queries
            });
            r.arm(format!("algorithm_session/{name}/{x}"), ns);
        }
    }

    let mut rng = SmallRng::seed_from_u64(9);
    let mut ch = IdealChannel::with_random_positives(n, 16, CollisionModel::OnePlus, 3, &mut rng);
    r.arm(
        "channel/ideal_query_128",
        median_ns(SAMPLES, 400_000, || ch.query(&nodes)),
    );

    let frame = Frame::data_with_ack_request(ShortAddr(1), ShortAddr(2), 7, vec![0xAB; 16]);
    let bytes = frame.encode();
    r.arm(
        "frame/encode",
        median_ns(SAMPLES, 100_000, || frame.encode()),
    );
    r.arm(
        "frame/decode",
        median_ns(SAMPLES, 100_000, || Frame::decode(&bytes)),
    );

    let group: Vec<usize> = (0..12).collect();
    let mut backcast = stack(5, &[3, 7]);
    r.arm(
        "rcd/backcast_12motes",
        median_ns(SAMPLES, 1_000, || backcast.backcast(&group)),
    );
    let mut pollcast = stack(6, &[3]);
    r.arm(
        "rcd/pollcast_12motes",
        median_ns(SAMPLES, 1_000, || pollcast.pollcast(&group)),
    );

    // Single vs paired backcast: same two groups, one exchange vs two.
    let mut single = stack(7, &[2, 8]);
    let ns = median_ns(SAMPLES, 1_000, || {
        (single.backcast(&[0, 1, 2]), single.backcast(&[7, 8, 9]))
    });
    r.arm("rcd_paired/two_single_backcasts", ns);
    let mut paired = stack(7, &[2, 8]);
    let ns = median_ns(SAMPLES, 1_000, || {
        paired.backcast_pair(&[0, 1, 2], &[7, 8, 9])
    });
    r.arm("rcd_paired/one_paired_backcast", ns);

    let cfg = CsmaConfig::default();
    for (x, iters) in [(8usize, 10_000), (64, 250)] {
        let mut rng = SmallRng::seed_from_u64(11);
        let ns = median_ns(SAMPLES, iters, || csma_collect(x, 16, &cfg, &mut rng));
        r.arm(format!("baseline/csma_collect/{x}"), ns);
    }
    let mut rng = SmallRng::seed_from_u64(13);
    let ns = median_ns(SAMPLES, 5_000, || {
        sequential_collect_random(128, 16, 16, &mut rng)
    });
    r.arm("baseline/sequential_collect_128", ns);

    r.print();
}
