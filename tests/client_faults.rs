//! Seeded faults between a `NetClient` and a scripted peer, aimed at the
//! client's read path: waiters that read the connection themselves and
//! hand the lead to each other, and the fallback reader behind them.
//!
//! Each round the client submits a few jobs on its one connection and
//! one to three threads wait on them. The peer answers from one seed: it
//! splits every frame at random byte boundaries with short random pauses
//! between the pieces, answers out of order, bounces some submits with
//! `Busy` before answering their resend, answers some only after their
//! waiter's `wait_timeout` has expired, and leaves some unwaited. Now
//! and then it ends a round in the middle of a frame, with a reset or an
//! orderly close, and the next round's first submit re-dials.
//!
//! Every handle must come back exactly as planned: its own in-process
//! report, `None` from an expired `wait_timeout`, or a typed
//! `NetError::ConnectionLost` from the cut. A watchdog bounds the run at
//! 120 s, and every failure names its seed; `TCAST_FAULT_SEED=<n>`
//! replays one.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tcast::{ChannelSpec, CollisionModel};
use tcast_net::{
    ErrorCode, Frame, FrameReader, NetClient, NetClientConfig, NetError, NetJobHandle,
    DEFAULT_MAX_PAYLOAD, PROTOCOL_V4,
};
use tcast_service::{AlgorithmSpec, QueryJob};

const SEEDS: [u64; 4] = [0x5eed_0001, 0x5eed_0002, 0x5eed_0003, 0x5eed_0004];
const ROUNDS: usize = 30;
const WATCHDOG: Duration = Duration::from_secs(120);
/// How long the peer waits for a submit before the round counts as hung.
const PEER_PATIENCE: Duration = Duration::from_secs(30);

/// What the peer does with one job, and what its handle must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// Answered in the round's shuffled order: the job's report.
    Answer,
    /// Bounced with `Busy`, answered on resend: the job's report.
    Busy,
    /// Answered only after its waiter's `wait_timeout` expired: `None`.
    Late,
    /// Answered, but its handle is dropped unwaited.
    Unwaited,
    /// Never answered; the connection is cut mid-frame: `ConnectionLost`.
    Cut,
}

/// One round as the peer sees it.
struct Round {
    /// Plans by the jobs' session seeds, which are unique.
    plans: HashMap<u64, Plan>,
    /// Fires once every `Late` job's waiter has given up.
    late_done: mpsc::Receiver<()>,
}

/// The peer's accepted, handshaken connection.
struct Link {
    stream: TcpStream,
    submits: mpsc::Receiver<(u64, QueryJob)>,
    forwarder: JoinHandle<()>,
}

fn accept(listener: &TcpListener) -> Link {
    let (mut stream, _) = listener.accept().expect("accept");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = FrameReader::new();
    match reader.read_from(&mut stream, DEFAULT_MAX_PAYLOAD) {
        Ok(Some((Frame::Hello { .. }, _))) => {}
        other => panic!("expected Hello, got {other:?}"),
    }
    let ack = Frame::HelloAck {
        version: PROTOCOL_V4,
        challenge: None,
    };
    tcast_net::frame::write_frame(&mut stream, &ack).expect("ack");
    let (tx, submits) = mpsc::channel();
    let mut inbound = stream.try_clone().expect("clone");
    let forwarder = std::thread::spawn(move || {
        while let Ok(Some((frame, _))) = reader.read_from(&mut inbound, DEFAULT_MAX_PAYLOAD) {
            if let Frame::Submit { request_id, job } = frame {
                if tx.send((request_id, job)).is_err() {
                    break;
                }
            }
        }
    });
    Link {
        stream,
        submits,
        forwarder,
    }
}

/// Writes `bytes` in random pieces with short random pauses between.
fn write_split(stream: &mut TcpStream, bytes: &[u8], rng: &mut SmallRng) {
    let mut at = 0;
    while at < bytes.len() {
        let n = rng.random_range(1..=bytes.len() - at);
        // A client that already gave up may have closed its end.
        if stream.write_all(&bytes[at..at + n]).is_err() {
            return;
        }
        at += n;
        if rng.random_bool(0.3) {
            std::thread::sleep(Duration::from_micros(rng.random_range(0..300)));
        }
    }
}

fn answer(request_id: u64, job: &QueryJob) -> Vec<u8> {
    Frame::JobOk {
        request_id,
        report: job.execute(),
    }
    .to_bytes()
}

/// Makes the socket's last close send a reset instead of a FIN
/// (`SO_LINGER` with a zero timeout).
fn abort_on_close(stream: &TcpStream) {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct Linger {
        onoff: core::ffi::c_int,
        linger: core::ffi::c_int,
    }
    extern "C" {
        fn setsockopt(
            fd: core::ffi::c_int,
            level: core::ffi::c_int,
            name: core::ffi::c_int,
            value: *const core::ffi::c_void,
            len: u32,
        ) -> core::ffi::c_int;
    }
    const SOL_SOCKET: core::ffi::c_int = 1;
    const SO_LINGER: core::ffi::c_int = 13;
    let linger = Linger {
        onoff: 1,
        linger: 0,
    };
    // SAFETY: the fd is open for the call, and `value` points at a live
    // `struct linger` of the length passed.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        )
    };
    assert_eq!(rc, 0, "SO_LINGER");
}

/// The scripted peer: plays each round it is sent, then takes the next.
fn peer(listener: TcpListener, rounds: mpsc::Receiver<Round>, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7065_6572);
    let mut link = Some(accept(&listener));
    for round in rounds {
        let l = link.get_or_insert_with(|| accept(&listener));
        let count = |wanted: &[Plan]| round.plans.values().filter(|p| wanted.contains(p)).count();
        let answerable = count(&[Plan::Answer, Plan::Busy, Plan::Unwaited]);
        let (lates, cuts) = (count(&[Plan::Late]), count(&[Plan::Cut]));
        let (mut answers, mut late, mut cut) = (Vec::new(), Vec::new(), Vec::new());
        let mut bounced = HashSet::new();
        while answers.len() < answerable || late.len() < lates || cut.len() < cuts {
            let (id, job) = l
                .submits
                .recv_timeout(PEER_PATIENCE)
                .unwrap_or_else(|_| panic!("seed {seed:#x}: a planned submit never came"));
            match round.plans[&job.session_seed] {
                Plan::Busy if bounced.insert(id) => {
                    let busy = Frame::Error {
                        request_id: id,
                        code: ErrorCode::Busy,
                        detail: "scripted".into(),
                    };
                    write_split(&mut l.stream, &busy.to_bytes(), &mut rng);
                }
                Plan::Late => late.push((id, job)),
                Plan::Cut => cut.push((id, job)),
                _ => answers.push((id, job)),
            }
        }
        answers.shuffle(&mut rng);
        for (id, job) in &answers {
            write_split(&mut l.stream, &answer(*id, job), &mut rng);
        }
        round
            .late_done
            .recv()
            .expect("the driver signals the late waits");
        for (id, job) in &late {
            write_split(&mut l.stream, &answer(*id, job), &mut rng);
        }
        if let Some((id, job)) = cut.first() {
            let bytes = answer(*id, job);
            let at = rng.random_range(1..bytes.len());
            let _ = l.stream.write_all(&bytes[..at]);
            std::thread::sleep(Duration::from_micros(rng.random_range(0..500)));
            let reset = rng.random_bool(0.5);
            if reset {
                abort_on_close(&l.stream);
                // Ends the forwarder's read without a FIN, so the last
                // close below is the one that resets.
                let _ = l.stream.shutdown(Shutdown::Read);
            } else {
                let _ = l.stream.shutdown(Shutdown::Both);
            }
            if let Some(l) = link.take() {
                l.forwarder.join().expect("forwarder");
            }
        }
    }
    // The forwarder ends once the client closes its end.
    if let Some(l) = link {
        l.forwarder.join().expect("forwarder");
    }
}

/// A cheap job whose session seed is `k`; `x` varies with `k`, so a
/// report that leaked into another job's handle shows.
fn job(k: u64) -> QueryJob {
    let x = (k as usize * 37) % 129;
    let channel = ChannelSpec::ideal(128, x, CollisionModel::OnePlus).seeded(k ^ 0xa5, k);
    QueryJob::new(AlgorithmSpec::TwoTBins, channel, 16, k)
}

/// Waits on one handle as planned and checks what it returned.
fn check(
    seed: u64,
    round: usize,
    plan: Plan,
    job: &QueryJob,
    handle: NetJobHandle,
    late: Duration,
) {
    let what = format!(
        "seed {seed:#x}, round {round}, {plan:?} job {}",
        job.session_seed
    );
    match plan {
        Plan::Answer | Plan::Busy => {
            assert_eq!(handle.wait(), Ok(job.execute()), "{what}");
        }
        Plan::Late => assert_eq!(handle.wait_timeout(late), None, "{what}"),
        Plan::Cut => match handle.wait() {
            Err(NetError::ConnectionLost(_)) => {}
            other => panic!("{what}: resolved to {other:?}"),
        },
        Plan::Unwaited => unreachable!("unwaited handles are dropped"),
    }
}

fn run(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (rounds_tx, rounds_rx) = mpsc::channel();
    let peer = std::thread::spawn(move || peer(listener, rounds_rx, seed));
    let client = NetClient::connect(
        addr,
        NetClientConfig::default().with_busy_backoff(Duration::from_micros(300)),
    )
    .expect("connect");

    let mut next_key = seed << 16;
    for round in 0..ROUNDS {
        let cut_round = rng.random_bool(0.2);
        let mut jobs: Vec<(Plan, QueryJob)> = (0..rng.random_range(3..=10))
            .map(|_| {
                let plan = match rng.random_range(0..20) {
                    0..=8 => Plan::Answer,
                    9..=11 => Plan::Busy,
                    12..=14 => Plan::Late,
                    _ => Plan::Unwaited,
                };
                (plan, job(0))
            })
            .collect();
        if cut_round {
            jobs.push((Plan::Cut, job(0)));
        }
        for (_, j) in &mut jobs {
            next_key += 1;
            *j = job(next_key);
        }
        let (late_tx, late_done) = mpsc::channel();
        let plans = jobs.iter().map(|(p, j)| (j.session_seed, *p)).collect();
        rounds_tx
            .send(Round { plans, late_done })
            .expect("peer listening");

        let waiters = rng.random_range(1..=3);
        let mut lists: Vec<Vec<(Plan, QueryJob, NetJobHandle)>> =
            (0..waiters).map(|_| Vec::new()).collect();
        for (plan, job) in jobs {
            let handle = client.submit_one(job);
            if plan == Plan::Unwaited {
                drop(handle);
            } else {
                lists[rng.random_range(0..waiters)].push((plan, job, handle));
            }
        }
        // Each waiter takes its handles in random order, with any cut
        // handle last: the cut comes only after every late wait expired.
        for list in &mut lists {
            list.shuffle(&mut rng);
            list.sort_by_key(|(plan, _, _)| *plan == Plan::Cut);
        }
        let lates = lists
            .iter()
            .flatten()
            .filter(|(p, ..)| *p == Plan::Late)
            .count();
        let lates_left = AtomicUsize::new(lates);
        if lates == 0 {
            late_tx.send(()).expect("peer listening");
        }
        let late = Duration::from_millis(rng.random_range(1..=4));
        std::thread::scope(|scope| {
            for list in lists {
                let (late_tx, lates_left) = (late_tx.clone(), &lates_left);
                scope.spawn(move || {
                    for (plan, job, handle) in list {
                        check(seed, round, plan, &job, handle, late);
                        if plan == Plan::Late && lates_left.fetch_sub(1, Ordering::SeqCst) == 1 {
                            late_tx.send(()).expect("peer listening");
                        }
                    }
                });
            }
        });
    }
    drop(rounds_tx);
    client.close();
    peer.join().expect("peer");
}

#[cfg(target_os = "linux")]
#[test]
fn split_frames_late_answers_and_cuts_resolve_every_handle_once() {
    let seeds: Vec<u64> = match std::env::var("TCAST_FAULT_SEED") {
        Ok(s) => vec![s.parse().expect("TCAST_FAULT_SEED is a u64")],
        Err(_) => SEEDS.to_vec(),
    };
    for seed in seeds {
        let started = Instant::now();
        let worker = std::thread::spawn(move || run(seed));
        while !worker.is_finished() {
            assert!(
                started.elapsed() < WATCHDOG,
                "seed {seed:#x} hung for {WATCHDOG:?} (replay: TCAST_FAULT_SEED={seed})"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Err(panic) = worker.join() {
            eprintln!("failing seed {seed:#x} (replay: TCAST_FAULT_SEED={seed})");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A job bounced with `Busy` while its own waiter leads the read side is
/// resent once its backoff ends, not at the fallback reader's next
/// 25 ms tick: with a 1 ms backoff, the resent `Submit` reaches the peer
/// within 10 ms of the `Busy` in at least 9 of 10 tries.
#[cfg(target_os = "linux")]
#[test]
fn a_busy_resend_goes_out_when_its_backoff_ends() {
    const TRIES: u64 = 10;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accepting = std::thread::spawn(move || accept(&listener));
    let client = NetClient::connect(
        addr,
        NetClientConfig::default().with_busy_backoff(Duration::from_millis(1)),
    )
    .expect("connect");
    let mut link = accepting.join().expect("peer accepted");
    let mut gaps = Vec::new();
    for k in 0..TRIES {
        let job = job(k);
        let handle = client.submit_one(job);
        let (id, _) = link.submits.recv_timeout(PEER_PATIENCE).expect("submit");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| handle.wait());
            // Long enough for the waiter to take the read side. Should the
            // fallback reader hold it instead, the bound holds all the same.
            std::thread::sleep(Duration::from_millis(2));
            let busy = Frame::Error {
                request_id: id,
                code: ErrorCode::Busy,
                detail: "scripted".into(),
            };
            link.stream
                .write_all(&busy.to_bytes())
                .expect("busy written");
            let bounced = Instant::now();
            let (resent, _) = link
                .submits
                .recv_timeout(PEER_PATIENCE)
                .expect("the bounced job was resent");
            gaps.push(bounced.elapsed());
            assert_eq!(resent, id, "try {k}: resent another job");
            link.stream
                .write_all(&answer(id, &job))
                .expect("answer written");
            assert_eq!(waiter.join().expect("waiter"), Ok(job.execute()), "try {k}");
        });
    }
    client.close();
    link.forwarder.join().expect("forwarder");
    let prompt = gaps
        .iter()
        .filter(|gap| **gap <= Duration::from_millis(10))
        .count();
    assert!(
        prompt >= 9,
        "only {prompt} of {TRIES} resends within 10 ms of their Busy: {gaps:?}"
    );
}
