//! The shared round machinery behind every tcast algorithm.
//!
//! All algorithms in the paper (2tBins, Exponential Increase, ABNS and its
//! variants, the oracle) iterate the same inner loop and differ *only* in
//! how many bins they request per round:
//!
//! 1. randomly partition the candidate set `n` into `b` equal-sized bins;
//! 2. query bins one by one (or two per exchange on a paired channel); a
//!    silent bin eliminates its members;
//! 3. terminate **true** as soon as the accumulated evidence (non-empty
//!    bins, plus nodes identified by 2+ captures) reaches `t`;
//! 4. terminate **false** as soon as even an all-positive remainder could
//!    not reach `t`.
//!
//! The bin count is clamped to `[1, |n|]`, so every bin has members:
//! requesting more bins than candidates costs nothing extra — the paper's
//! "empty bins are arranged at the end and never occupy a time slot"
//! accounting (see DESIGN.md §3.3).

use rand::seq::SliceRandom;
use rand::RngCore;

use crate::batch::EngineScratch;
use crate::channel::{GroupQueryChannel, PairedGroupQueryChannel};
use crate::profile::ExecutionProfile;
use crate::retry::{DefensePolicy, RetryPolicy};
use crate::types::{CollisionModel, NodeId, Observation, QueryReport, RoundTrace};

/// Mutable state of one threshold-querying session.
#[derive(Debug, Clone)]
pub struct Session {
    /// Candidate nodes whose status is still unknown.
    remaining: Vec<NodeId>,
    /// Positives identified by name (2+ captures), removed from `remaining`.
    confirmed: usize,
    /// The threshold being tested.
    t: usize,
    /// Queries issued so far.
    queries: u64,
    /// Rounds started so far.
    rounds: u32,
    trace: Vec<RoundTrace>,
    /// Scratch buffer reused across rounds to avoid per-round allocation.
    scratch: Vec<NodeId>,
    /// Verified-silence policy (see `retry` module; default: disabled).
    retry: RetryPolicy,
    /// Retry queries spent so far (bin re-queries + pool checks).
    retry_queries: u64,
    /// Nodes eliminated on (verified) silence, remembered for the final
    /// pool confirmation. Only populated while `retry.enabled()`.
    eliminated: Vec<NodeId>,
    /// Verdict-hardening policy against adversarial noise (see `retry`
    /// module; default: disabled).
    defense: DefensePolicy,
    /// Defense queries spent so far (canaries + activity confirmations).
    defense_queries: u64,
    /// Observations an honest channel could not have produced.
    anomalies: u64,
}

/// Result of executing one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundOutcome {
    /// The threshold question was answered during the round.
    Decided(bool),
    /// The round completed without an answer; statistics for adaptive bin
    /// selection.
    Undecided(RoundStats),
}

/// Per-round statistics surfaced to adaptive algorithms (ABNS Eq. (6) needs
/// the number of empty bins among those queried).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Bins that contained members and were actually queried.
    pub queried_bins: usize,
    /// Queried bins observed silent.
    pub silent_bins: usize,
    /// Members eliminated via silent bins.
    pub eliminated: usize,
    /// Positives identified by capture.
    pub captured: usize,
}

impl Session {
    /// Starts a session over `nodes` with threshold `t` and no silence
    /// verification (the ideal-channel configuration).
    pub fn new(nodes: &[NodeId], t: usize) -> Self {
        Self::with_options(nodes, t, ExecutionProfile::new(), &mut EngineScratch::new())
    }

    /// Starts a session under `profile` (verified-silence retries plus
    /// adversary defenses), borrowing its buffers from `scratch`. The
    /// buffers carry capacity, never state, so a fresh [`EngineScratch`]
    /// and a well-used one start identical sessions.
    pub fn with_options(
        nodes: &[NodeId],
        t: usize,
        profile: ExecutionProfile,
        scratch: &mut EngineScratch,
    ) -> Self {
        let mut remaining = std::mem::take(&mut scratch.remaining);
        remaining.clear();
        remaining.extend_from_slice(nodes);
        let mut reuse = std::mem::take(&mut scratch.scratch);
        reuse.clear();
        reuse.reserve(nodes.len());
        let mut trace = std::mem::take(&mut scratch.trace);
        trace.clear();
        let mut eliminated = std::mem::take(&mut scratch.eliminated);
        eliminated.clear();
        Self {
            remaining,
            confirmed: 0,
            t,
            queries: 0,
            rounds: 0,
            trace,
            scratch: reuse,
            retry: profile.retry,
            retry_queries: 0,
            eliminated,
            defense: profile.defense,
            defense_queries: 0,
            anomalies: 0,
        }
    }

    /// Finalizes into a report whose trace is copied out, `lead` (a round
    /// run before the session) first, and hands every buffer back to
    /// `scratch` for the next query. The copy goes into the scratch's
    /// spare trace ([`EngineScratch::recycle_trace`]), grown to the exact
    /// length when it is too short — a new exact-length buffer when
    /// there is no spare. The lead round's queries, retries, defenses
    /// and round count join the report's totals.
    pub(crate) fn finish_reusing(
        mut self,
        answer: bool,
        lead: Option<RoundTrace>,
        scratch: &mut EngineScratch,
    ) -> QueryReport {
        let mut trace = std::mem::take(&mut scratch.spare_trace);
        trace.clear();
        trace.reserve_exact(usize::from(lead.is_some()) + self.trace.len());
        trace.extend(lead);
        trace.extend_from_slice(&self.trace);
        if let Some(lead) = lead {
            let (retries, defenses) = (lead.retries as u64, lead.defenses as u64);
            self.queries += lead.queried_bins as u64 + retries + defenses;
            self.retry_queries += retries;
            self.defense_queries += defenses;
            self.rounds += 1;
        }
        let report = QueryReport {
            answer,
            queries: self.queries,
            rounds: self.rounds,
            retry_queries: self.retry_queries,
            defense_queries: self.defense_queries,
            anomalies: self.anomalies,
            confirmed_positives: self.confirmed,
            trace,
        };
        self.reclaim(scratch);
        report
    }

    /// Encodes the finished session as a wire [`QueryReport`]
    /// (byte-identical to `QueryReport::encode` on the report that
    /// [`Session::finish_reusing`] builds with no lead round; pinned by
    /// `encoded_path_matches_report_encode_bytes` in `batch.rs`) without
    /// materializing the report.
    pub(crate) fn encode_report_into(&self, answer: bool, out: &mut Vec<u8>) {
        use crate::codec::{put_u32, put_u64, put_usize, WireEncode};
        out.push(u8::from(answer));
        put_u64(out, self.queries);
        put_u32(out, self.rounds);
        put_u64(out, self.retry_queries);
        put_u64(out, self.defense_queries);
        put_u64(out, self.anomalies);
        put_usize(out, self.confirmed);
        put_u32(out, self.trace.len() as u32);
        for entry in &self.trace {
            entry.encode(out);
        }
    }

    /// Hands every buffer — including the trace — back to `scratch`.
    /// Companion to [`Session::encode_report_into`], which borrows the
    /// trace instead of consuming it.
    pub(crate) fn reclaim(mut self, scratch: &mut EngineScratch) {
        scratch.remaining = std::mem::take(&mut self.remaining);
        scratch.scratch = std::mem::take(&mut self.scratch);
        scratch.eliminated = std::mem::take(&mut self.eliminated);
        scratch.trace = std::mem::take(&mut self.trace);
    }

    /// Answers decidable without any query: `t == 0` is trivially satisfied
    /// and `t > N` is trivially unsatisfiable.
    pub fn precheck(&self) -> Option<bool> {
        if self.t == 0 {
            Some(true)
        } else if self.confirmed + self.remaining.len() < self.t {
            Some(false)
        } else if self.confirmed >= self.t {
            Some(true)
        } else {
            None
        }
    }

    /// Candidate nodes still in play.
    pub fn remaining(&self) -> &[NodeId] {
        &self.remaining
    }

    /// Number of candidates still in play.
    pub fn remaining_len(&self) -> usize {
        self.remaining.len()
    }

    /// Positives identified by capture so far.
    pub fn confirmed(&self) -> usize {
        self.confirmed
    }

    /// The session threshold.
    pub fn threshold(&self) -> usize {
        self.t
    }

    /// Queries issued so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Rounds started so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Retry queries spent so far by the verified-silence layer.
    pub fn retry_queries(&self) -> u64 {
        self.retry_queries
    }

    /// Defense queries spent so far by the verdict-hardening layer.
    pub fn defense_queries(&self) -> u64 {
        self.defense_queries
    }

    /// Anomalies detected so far (observations no honest channel makes).
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    /// Opens a round with the defense layer's empty-group canary when
    /// configured. Nobody is addressed by an empty group, so an honest
    /// channel without false-activity injection must observe silence;
    /// anything else is flagged as an anomaly. Returns the defense
    /// queries spent (0 or 1).
    fn run_canary(&mut self, channel: &mut dyn GroupQueryChannel) -> u64 {
        if !self.defense.canary {
            return 0;
        }
        self.queries += 1;
        self.defense_queries += 1;
        if channel.query(&[]) != Observation::Silent {
            self.anomalies += 1;
        }
        1
    }

    /// Executes one round with `bins` bins, clamped to
    /// `[1, |remaining|]` so every bin has members.
    ///
    /// A [`ChannelMut::Single`] channel is queried one bin at a time; a
    /// [`ChannelMut::Paired`] channel two bins per exchange (the CC2420
    /// dual-address backcast, Section IV-D), with a trailing odd bin
    /// queried singly. Query accounting is the same for both: a pair is
    /// two queries. Termination is checked after every bin, so the only
    /// difference is that a paired round may spend one extra query — the
    /// second half of a pair whose first half already decided.
    pub fn run_round(
        &mut self,
        bins: usize,
        channel: &mut ChannelMut<'_>,
        rng: &mut dyn RngCore,
    ) -> RoundOutcome {
        debug_assert!(
            self.precheck().is_none(),
            "round started on a decided session"
        );
        let n = self.remaining.len();
        let bins = bins.clamp(1, n.max(1));
        self.rounds += 1;

        // Random equal partition: shuffle, then cut into `bins` contiguous
        // chunks; the first `n % bins` chunks take one extra node.
        self.remaining.shuffle(rng);
        let (base, extra) = (n / bins, n % bins);
        let bin_start = |bin: usize| bin * base + bin.min(extra);

        let model = channel.as_single().model();
        let mut kept = std::mem::take(&mut self.scratch);
        kept.clear();

        let mut stats = RoundStats {
            queried_bins: 0,
            silent_bins: 0,
            eliminated: 0,
            captured: 0,
        };
        // Evidence of distinct positives observed *this round* in bins that
        // were not resolved by capture.
        let mut evidence = 0usize;
        let mut decided = None;
        let mut round_retries = 0u64;
        let mut round_defenses = self.run_canary(channel.as_single());
        // Next bin to query, and the end of the last bin whose members
        // have been settled (absorbed or kept).
        let mut bin = 0usize;
        let mut settled = 0usize;

        while decided.is_none() && settled < n {
            let width = match channel {
                ChannelMut::Paired(_) if bin + 1 < bins => 2,
                _ => 1,
            };
            let (mid, hi) = (bin_start(bin + 1), bin_start(bin + width));
            self.queries += width as u64;
            stats.queried_bins += width;
            let observed = match channel {
                ChannelMut::Paired(ch) if width == 2 => {
                    let (a, b) =
                        ch.query_pair(&self.remaining[settled..mid], &self.remaining[mid..hi]);
                    [a, b]
                }
                _ => [
                    channel.as_single().query(&self.remaining[settled..mid]),
                    Observation::Silent,
                ],
            };
            for (k, &obs) in observed[..width].iter().enumerate() {
                let end = bin_start(bin + k + 1);
                let members = &self.remaining[settled..end];
                settled = end;
                if decided.is_some() {
                    // The pair's first half already decided: the second
                    // query was spent, but its outcome no longer matters;
                    // keep its members so the candidate set stays a
                    // superset of the positives.
                    kept.extend_from_slice(members);
                    continue;
                }
                debug_assert!(crate::channel::observation_valid(model, obs));
                // Retries and confirmations re-query the bin singly:
                // verification needs the individual bin's outcome, not
                // the pair's.
                let vet = vet_observation(
                    obs,
                    members,
                    channel.as_single(),
                    model,
                    self.retry,
                    self.defense,
                    self.retry_queries,
                );
                let obs = vet.obs;
                self.queries += vet.retries + vet.defenses;
                self.retry_queries += vet.retries;
                self.defense_queries += vet.defenses;
                self.anomalies += u64::from(vet.anomaly);
                round_retries += vet.retries;
                round_defenses += vet.defenses;
                if obs == Observation::Silent && self.retry.enabled() {
                    self.eliminated.extend_from_slice(members);
                }

                absorb_bin(
                    members,
                    obs,
                    model,
                    &mut kept,
                    &mut self.confirmed,
                    &mut evidence,
                    &mut stats,
                );

                if self.confirmed + evidence >= self.t {
                    // Line 11 analogue: enough evidence of distinct
                    // positives.
                    decided = Some(true);
                } else if self.confirmed + kept.len() + (n - end) < self.t {
                    // Line 14 analogue: even an all-positive remainder
                    // cannot reach t. Unsettled bins are still candidates.
                    decided = Some(false);
                }
            }
            bin += width;
        }

        // Unqueried nodes (early termination) stay candidates.
        kept.extend_from_slice(&self.remaining[settled..]);
        self.remaining.clear();
        std::mem::swap(&mut self.remaining, &mut kept);
        self.scratch = kept;

        self.trace.push(RoundTrace {
            bins,
            queried_bins: stats.queried_bins,
            silent_bins: stats.silent_bins,
            eliminated: stats.eliminated,
            captured: stats.captured,
            retries: round_retries as usize,
            defenses: round_defenses as usize,
            remaining: self.remaining.len(),
        });
        self.emit_round_event(bins, &stats, round_retries, round_defenses, false);

        match decided {
            Some(answer) => RoundOutcome::Decided(answer),
            None => RoundOutcome::Undecided(stats),
        }
    }

    /// Emits one `engine.round` trace event mirroring the [`RoundTrace`]
    /// entry just pushed. One event per round — the trace-consistency
    /// proptests rely on this 1:1 pairing.
    fn emit_round_event(
        &self,
        bins: usize,
        stats: &RoundStats,
        retries: u64,
        defenses: u64,
        verification: bool,
    ) {
        tcast_obs::event_current(
            "engine.round",
            &[
                ("bins", bins as u64),
                ("queried_bins", stats.queried_bins as u64),
                ("silent_bins", stats.silent_bins as u64),
                ("eliminated", stats.eliminated as u64),
                ("captured", stats.captured as u64),
                ("retries", retries),
                ("defenses", defenses),
                ("remaining", self.remaining.len() as u64),
                ("verification", u64::from(verification)),
            ],
        );
    }

    /// Attempts to finalize a pending `false` verdict against the pool of
    /// silently-eliminated nodes.
    ///
    /// Returns `true` when the verdict stands: verification is disabled,
    /// nothing was eliminated, the retry budget is spent, or the whole pool
    /// stayed silent through `1 + max_retries` consecutive group queries.
    /// Returns `false` when any check observed activity — a missed positive
    /// survives in the pool, so every eliminated node is re-admitted to
    /// `remaining` and the caller must keep querying.
    ///
    /// A verification episode (>= 1 check issued) is accounted as one round
    /// with a dedicated trace entry whose queries are all retries.
    pub fn confirm_false<C: GroupQueryChannel + ?Sized>(&mut self, channel: &mut C) -> bool {
        if !self.retry.enabled() || self.eliminated.is_empty() {
            return true;
        }
        let checks = 1 + u64::from(self.retry.max_retries);
        let mut spent = 0u64;
        let mut rescued = false;
        let started = tcast_obs::enabled().then(std::time::Instant::now);
        while spent < checks && self.retry.allows(self.retry_queries) {
            self.queries += 1;
            self.retry_queries += 1;
            spent += 1;
            if channel.query(&self.eliminated) != Observation::Silent {
                rescued = true;
                break;
            }
        }
        if spent == 0 {
            return true; // budget exhausted: accept the verdict unverified
        }
        emit_retry_event(spent, started, true);
        if rescued {
            self.remaining.append(&mut self.eliminated);
        }
        self.rounds += 1;
        self.trace.push(RoundTrace {
            bins: 1,
            queried_bins: 0,
            silent_bins: 0,
            eliminated: 0,
            captured: 0,
            retries: spent as usize,
            defenses: 0,
            remaining: self.remaining.len(),
        });
        self.emit_round_event(
            1,
            &RoundStats {
                queried_bins: 0,
                silent_bins: 0,
                eliminated: 0,
                captured: 0,
            },
            spent,
            0,
            true,
        );
        !rescued
    }
}

/// Outcome of vetting one bin observation through the retry and defense
/// layers (see [`vet_observation`]).
struct VetOutcome {
    /// The observation after verification.
    obs: Observation,
    /// Retry queries spent (verified silence).
    retries: u64,
    /// Defense queries spent (activity confirmations).
    defenses: u64,
    /// Whether an observation no honest channel produces was seen (a
    /// confirmed-then-silent flap).
    anomaly: bool,
}

/// Runs one bin observation through both verification layers: silent
/// observations are re-queried per `retry` (loss protection), and
/// non-silent observations are re-queried up to `defense.confirm_activity`
/// times (adversarial-injection protection). A confirmation that comes
/// back *silent* contradicts the original activity — on a loss-free
/// channel real positives answer every query — so the observation is
/// flagged anomalous, downgraded, and its silence verified through the
/// retry layer like any other. A confirmation that upgrades undecoded
/// activity to a capture is kept. One confirmation pass per bin: an
/// observation rescued from a contradiction is not re-confirmed, which
/// bounds the worst-case cost per bin at `confirm_activity + max_retries`
/// extra queries. A free function so the `members` slice may borrow from
/// the session's candidate buffer.
fn vet_observation<C: GroupQueryChannel + ?Sized>(
    first: Observation,
    members: &[NodeId],
    channel: &mut C,
    model: CollisionModel,
    retry: RetryPolicy,
    defense: DefensePolicy,
    retry_spent_before: u64,
) -> VetOutcome {
    let (mut obs, mut retries) =
        requery_silence(first, members, channel, model, retry, retry_spent_before);
    let mut defenses = 0u64;
    let mut anomaly = false;
    if obs != Observation::Silent && defense.confirm_activity > 0 {
        for _ in 0..defense.confirm_activity {
            defenses += 1;
            let again = channel.query(members);
            debug_assert!(crate::channel::observation_valid(model, again));
            match again {
                Observation::Silent => {
                    anomaly = true;
                    let (verified, extra) = requery_silence(
                        Observation::Silent,
                        members,
                        channel,
                        model,
                        retry,
                        retry_spent_before + retries,
                    );
                    obs = verified;
                    retries += extra;
                    break;
                }
                Observation::Captured(_) if obs == Observation::Activity => obs = again,
                _ => {}
            }
        }
    }
    VetOutcome {
        obs,
        retries,
        defenses,
        anomaly,
    }
}

/// Re-queries a silent observation per `retry`, stopping at the first
/// non-silent outcome, at `max_retries`, or when the session-wide budget
/// (of which `spent_before` is already used) runs out. Returns the final
/// observation and the retries spent.
fn requery_silence<C: GroupQueryChannel + ?Sized>(
    mut obs: Observation,
    members: &[NodeId],
    channel: &mut C,
    model: CollisionModel,
    retry: RetryPolicy,
    spent_before: u64,
) -> (Observation, u64) {
    let mut spent = 0u64;
    let mut started: Option<std::time::Instant> = None;
    while obs == Observation::Silent
        && spent < u64::from(retry.max_retries)
        && retry.allows(spent_before + spent)
    {
        if started.is_none() && tcast_obs::enabled() {
            started = Some(std::time::Instant::now());
        }
        obs = channel.query(members);
        debug_assert!(crate::channel::observation_valid(model, obs));
        spent += 1;
    }
    if spent > 0 {
        emit_retry_event(spent, started, false);
    }
    (obs, spent)
}

/// Emits one `engine.retry` event covering a burst of `spent` retry
/// queries (bin re-queries or, with `pool` set, final pool checks) and
/// the wall-clock time they took. The per-phase latency breakdown in
/// `tcast-experiments trace` sums these.
fn emit_retry_event(spent: u64, started: Option<std::time::Instant>, pool: bool) {
    tcast_obs::event_current(
        "engine.retry",
        &[
            ("retries", spent),
            (
                "dur_ns",
                started.map_or(0, |s| s.elapsed().as_nanos() as u64),
            ),
            ("pool", u64::from(pool)),
        ],
    );
}

/// Folds one bin's observation into the round state.
#[allow(clippy::too_many_arguments)]
fn absorb_bin(
    members: &[NodeId],
    obs: Observation,
    model: CollisionModel,
    kept: &mut Vec<NodeId>,
    confirmed: &mut usize,
    evidence: &mut usize,
    stats: &mut RoundStats,
) {
    match obs {
        Observation::Silent => {
            stats.silent_bins += 1;
            stats.eliminated += members.len();
            // Members are negative: drop them.
        }
        Observation::Activity => {
            *evidence += model.activity_lower_bound();
            kept.extend_from_slice(members);
        }
        Observation::Captured(id) => {
            debug_assert!(
                members.contains(&id),
                "captured node {id} not a member of the queried bin"
            );
            stats.captured += 1;
            *confirmed += 1;
            // The captured node is a known positive; the rest of the bin
            // stays unknown (capture effect, Section III-A).
            kept.extend(members.iter().copied().filter(|&m| m != id));
        }
    }
}

/// A mutable borrow of either channel flavour, for [`drive`].
///
/// The engine's round loop is identical for sequential and paired
/// execution; only the per-round primitive differs. `ChannelMut` carries
/// that one distinction so a single driver serves both. Construct it with
/// [`ChannelMut::single`] / [`ChannelMut::paired`] for concrete channel
/// types, or wrap an existing trait object in the variant directly.
pub enum ChannelMut<'a> {
    /// Query bins one at a time over a [`GroupQueryChannel`].
    Single(&'a mut dyn GroupQueryChannel),
    /// Query bins two at a time over a [`PairedGroupQueryChannel`]
    /// (the CC2420 dual-address backcast, Section IV-D).
    Paired(&'a mut dyn PairedGroupQueryChannel),
}

impl<'a> ChannelMut<'a> {
    /// Wraps a concrete sequential channel.
    pub fn single<C: GroupQueryChannel>(channel: &'a mut C) -> Self {
        ChannelMut::Single(channel)
    }

    /// Wraps a concrete paired channel.
    pub fn paired<C: PairedGroupQueryChannel>(channel: &'a mut C) -> Self {
        ChannelMut::Paired(channel)
    }

    /// Views the wrapped channel as a plain [`GroupQueryChannel`] (the
    /// retry layer and pool checks always query bins singly).
    fn as_single(&mut self) -> &mut dyn GroupQueryChannel {
        match self {
            ChannelMut::Single(ch) => *ch,
            ChannelMut::Paired(ch) => &mut **ch as &mut dyn GroupQueryChannel,
        }
    }
}

impl std::fmt::Debug for ChannelMut<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelMut::Single(_) => f.write_str("ChannelMut::Single"),
            ChannelMut::Paired(_) => f.write_str("ChannelMut::Paired"),
        }
    }
}

/// Drives a session to completion with a per-round bin-count policy.
///
/// This is the single engine entrypoint behind every algorithm: the
/// policy receives the session state and the previous round's statistics
/// and returns the next round's bin count. The channel flavour
/// (sequential or paired) rides in [`ChannelMut`]; retry and defense
/// behaviour ride in the [`ExecutionProfile`].
///
/// With retries enabled, rounds re-query silent bins per
/// `profile.retry` before eliminating members, and a pending `false`
/// verdict is only finalized once [`Session::confirm_false`] clears the
/// eliminated pool — an activity observation there re-admits the pool
/// and resumes querying (`true` verdicts need no confirmation: under
/// loss without false activity, evidence only ever goes missing, never
/// appears). Retries and pool checks always query bins singly; on a
/// paired channel only the first pass rides the paired primitive.
///
/// When tracing is enabled (see `tcast-obs`), every call runs inside an
/// `engine.drive` span of the calling thread's current trace, emits one
/// `engine.round` event per round (mirroring the [`RoundTrace`] entry),
/// `engine.retry` events for verified-silence bursts, and a closing
/// `engine.verdict` event. With no sink installed all of that is a
/// handful of relaxed atomic loads.
pub fn drive(
    nodes: &[NodeId],
    t: usize,
    channel: ChannelMut<'_>,
    rng: &mut dyn RngCore,
    profile: ExecutionProfile,
    policy: impl FnMut(&Session, Option<&RoundStats>) -> usize,
) -> QueryReport {
    drive_with_scratch(
        nodes,
        t,
        channel,
        rng,
        profile,
        &mut EngineScratch::new(),
        policy,
    )
}

/// [`drive`] over pooled buffers: the session borrows its vectors from
/// `scratch` and returns them after the report is built, so the
/// steady-state per-query allocation is just the report's own trace,
/// copied out at its exact length — none when the scratch holds a long
/// enough spare ([`EngineScratch::recycle_trace`]). A fresh scratch
/// allocates exactly what `drive` needs — an empty `Vec` holds no heap
/// memory.
pub(crate) fn drive_with_scratch(
    nodes: &[NodeId],
    t: usize,
    channel: ChannelMut<'_>,
    rng: &mut dyn RngCore,
    profile: ExecutionProfile,
    scratch: &mut EngineScratch,
    policy: impl FnMut(&Session, Option<&RoundStats>) -> usize,
) -> QueryReport {
    drive_after(None, nodes, t, channel, rng, profile, scratch, policy)
}

/// [`drive_with_scratch`] for a session that follows a round run outside
/// the engine (ProbABNS's probe): `lead` is that round's trace entry. It
/// becomes the report's first entry and its costs join the report's
/// totals, so the report is still built with one allocation.
#[allow(clippy::too_many_arguments)] // drive_with_scratch + the lead round
pub(crate) fn drive_after(
    lead: Option<RoundTrace>,
    nodes: &[NodeId],
    t: usize,
    mut channel: ChannelMut<'_>,
    rng: &mut dyn RngCore,
    profile: ExecutionProfile,
    scratch: &mut EngineScratch,
    mut policy: impl FnMut(&Session, Option<&RoundStats>) -> usize,
) -> QueryReport {
    let span = enter_drive_span(nodes, t);
    let session = Session::with_options(nodes, t, profile, scratch);
    let (session, answer) = drive_session(session, &mut channel, rng, &mut policy);
    emit_verdict(&span, &session, answer);
    session.finish_reusing(answer, lead, scratch)
}

/// [`drive_with_scratch`] that never materializes a [`QueryReport`]: the
/// finished session is encoded straight into `out` as report wire bytes
/// (`tcast::codec` layout) and every buffer — including the trace —
/// returns to `scratch`. Zero steady-state heap allocation per query.
/// Returns the verdict.
#[allow(clippy::too_many_arguments)] // mirrors drive_with_scratch + the out buffer
pub(crate) fn drive_encoded(
    nodes: &[NodeId],
    t: usize,
    mut channel: ChannelMut<'_>,
    rng: &mut dyn RngCore,
    profile: ExecutionProfile,
    scratch: &mut EngineScratch,
    out: &mut Vec<u8>,
    mut policy: impl FnMut(&Session, Option<&RoundStats>) -> usize,
) -> bool {
    let span = enter_drive_span(nodes, t);
    let session = Session::with_options(nodes, t, profile, scratch);
    let (session, answer) = drive_session(session, &mut channel, rng, &mut policy);
    session.encode_report_into(answer, out);
    emit_verdict(&span, &session, answer);
    session.reclaim(scratch);
    answer
}

fn enter_drive_span(nodes: &[NodeId], t: usize) -> tcast_obs::Span {
    tcast_obs::Span::enter_fields(
        tcast_obs::current_trace(),
        "engine.drive",
        &[("n", nodes.len() as u64), ("t", t as u64)],
    )
}

fn emit_verdict(span: &tcast_obs::Span, session: &Session, answer: bool) {
    span.event(
        "engine.verdict",
        &[
            ("answer", u64::from(answer)),
            ("queries", session.queries),
            ("rounds", u64::from(session.rounds)),
            ("retry_queries", session.retry_queries),
            ("defense_queries", session.defense_queries),
            ("anomalies", session.anomalies),
        ],
    );
}

/// The round loop shared by every `drive` flavour: runs `session` to a
/// verdict and returns it together with the finished session. Extracted
/// so the report-returning and direct-encode entrypoints are provably one
/// code path.
fn drive_session(
    mut session: Session,
    channel: &mut ChannelMut<'_>,
    rng: &mut dyn RngCore,
    policy: &mut dyn FnMut(&Session, Option<&RoundStats>) -> usize,
) -> (Session, bool) {
    let mut last_stats: Option<RoundStats> = None;
    // Consecutive Decided(true) rounds observed so far; a pending
    // `true` verdict built on activity evidence must survive
    // `defense.confirm_true` extra rounds before it is believed
    // (the mirror image of `confirm_false`'s pool check). Precheck
    // `true` — captures alone reaching `t`, or `t == 0` — is exact
    // and accepted immediately.
    let mut true_streak = 0u32;
    loop {
        if let Some(answer) = session.precheck() {
            if answer || session.confirm_false(channel.as_single()) {
                break (session, answer);
            }
            last_stats = None;
            continue;
        }
        let bins = policy(&session, last_stats.as_ref());
        match session.run_round(bins, channel, rng) {
            RoundOutcome::Decided(true) => {
                if true_streak >= session.defense.confirm_true {
                    break (session, true);
                }
                true_streak += 1;
                last_stats = None;
            }
            RoundOutcome::Decided(false) => {
                if session.confirm_false(channel.as_single()) {
                    break (session, false);
                }
                true_streak = 0;
                last_stats = None;
            }
            RoundOutcome::Undecided(stats) => {
                true_streak = 0;
                last_stats = Some(stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::IdealChannel;
    use crate::types::{population, CaptureModel, CollisionModel};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ideal(n: usize, positives: &[u32], model: CollisionModel) -> IdealChannel {
        let mut ch = IdealChannel::new(n, model, 99);
        let ids: Vec<NodeId> = positives.iter().copied().map(NodeId).collect();
        ch.set_positives(&ids);
        ch
    }

    #[test]
    fn precheck_trivial_cases() {
        let nodes = population(8);
        assert_eq!(Session::new(&nodes, 0).precheck(), Some(true));
        assert_eq!(Session::new(&nodes, 9).precheck(), Some(false));
        assert_eq!(Session::new(&nodes, 8).precheck(), None);
        assert_eq!(Session::new(&[], 1).precheck(), Some(false));
    }

    #[test]
    fn silent_round_eliminates_everyone() {
        let nodes = population(16);
        let mut ch = ideal(16, &[], CollisionModel::OnePlus);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut s = Session::new(&nodes, 4);
        // One bin spanning everything: silent, so everyone is eliminated and
        // the round decides false.
        let out = s.run_round(1, &mut ChannelMut::single(&mut ch), &mut rng);
        assert_eq!(out, RoundOutcome::Decided(false));
        assert_eq!(s.remaining_len(), 0);
        assert_eq!(s.queries(), 1);
    }

    #[test]
    fn true_decision_counts_nonempty_bins() {
        let nodes = population(8);
        // Everyone positive, t = 3: with 8 singleton bins the third query
        // must already decide true.
        let mut ch = ideal(8, &[0, 1, 2, 3, 4, 5, 6, 7], CollisionModel::OnePlus);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut s = Session::new(&nodes, 3);
        let out = s.run_round(8, &mut ChannelMut::single(&mut ch), &mut rng);
        assert_eq!(out, RoundOutcome::Decided(true));
        assert_eq!(s.queries(), 3);
    }

    #[test]
    fn two_plus_activity_counts_double() {
        // Two positives in one bin, t = 2, capture disabled: a single
        // Activity observation under 2+ proves two positives.
        let nodes = population(4);
        let mut ch = ideal(4, &[0, 1], CollisionModel::TwoPlus(CaptureModel::Never));
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = Session::new(&nodes, 2);
        // Single bin spanning everything.
        let out = s.run_round(1, &mut ChannelMut::single(&mut ch), &mut rng);
        assert_eq!(out, RoundOutcome::Decided(true));
        assert_eq!(s.queries(), 1);
    }

    #[test]
    fn capture_confirms_and_removes_only_the_captured_node() {
        let nodes = population(6);
        let mut ch = ideal(6, &[2], CollisionModel::two_plus_default());
        let mut rng = SmallRng::seed_from_u64(4);
        let mut s = Session::new(&nodes, 2);
        let out = s.run_round(1, &mut ChannelMut::single(&mut ch), &mut rng);
        // One capture: evidence 1 < t=2, round undecided.
        assert_eq!(
            out,
            RoundOutcome::Undecided(RoundStats {
                queried_bins: 1,
                silent_bins: 0,
                eliminated: 0,
                captured: 1,
            })
        );
        assert_eq!(s.confirmed(), 1);
        assert_eq!(s.remaining_len(), 5);
        assert!(!s.remaining().contains(&NodeId(2)));
    }

    #[test]
    fn confirmed_positives_persist_across_rounds() {
        let nodes = population(4);
        let mut ch = ideal(4, &[0, 1], CollisionModel::two_plus_default());
        let mut rng = SmallRng::seed_from_u64(5);
        let mut s = Session::new(&nodes, 2);
        // Singleton bins: both positives get captured; after the second
        // capture the session decides true.
        let mut decided = None;
        for _ in 0..10 {
            if let Some(a) = s.precheck() {
                decided = Some(a);
                break;
            }
            if let RoundOutcome::Decided(a) =
                s.run_round(4, &mut ChannelMut::single(&mut ch), &mut rng)
            {
                decided = Some(a);
                break;
            }
        }
        assert_eq!(decided, Some(true));
    }

    #[test]
    fn zero_member_bins_cost_nothing() {
        let nodes = population(3);
        let mut ch = ideal(3, &[], CollisionModel::OnePlus);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut s = Session::new(&nodes, 1);
        // Ask for 10 bins over 3 nodes: only 3 are queried.
        let out = s.run_round(10, &mut ChannelMut::single(&mut ch), &mut rng);
        assert_eq!(out, RoundOutcome::Decided(false));
        assert!(s.queries() <= 3);
    }

    #[test]
    fn policy_driver_reaches_a_verdict() {
        let nodes = population(32);
        for x in [0usize, 1, 8, 16, 32] {
            let positives: Vec<u32> = (0..x as u32).collect();
            let mut ch = ideal(32, &positives, CollisionModel::OnePlus);
            let mut rng = SmallRng::seed_from_u64(7 + x as u64);
            let report = drive(
                &nodes,
                8,
                ChannelMut::single(&mut ch),
                &mut rng,
                ExecutionProfile::new(),
                |s, _| 2 * s.threshold(),
            );
            assert_eq!(report.answer, x >= 8, "x={x}");
        }
    }

    #[test]
    fn paired_round_matches_sequential_verdicts() {
        for seed in 0..30u64 {
            for &(n, x, t) in &[
                (32usize, 0usize, 4usize),
                (32, 4, 4),
                (32, 20, 4),
                (17, 3, 5),
            ] {
                let positives: Vec<u32> = (0..x as u32).collect();
                let mut ch = ideal(n, &positives, CollisionModel::OnePlus);
                let mut rng = SmallRng::seed_from_u64(seed);
                let report = drive(
                    &population(n),
                    t,
                    ChannelMut::paired(&mut ch),
                    &mut rng,
                    ExecutionProfile::new(),
                    |s, _| 2 * s.threshold(),
                );
                assert_eq!(report.answer, x >= t, "n={n} x={x} t={t} seed={seed}");
            }
        }
    }

    #[test]
    fn paired_round_costs_at_most_one_extra_query() {
        // Everyone positive, t = 3: sequential decides at query 3; paired
        // may spend the 4th (its pair partner).
        let nodes = population(8);
        let mut ch = ideal(8, &[0, 1, 2, 3, 4, 5, 6, 7], CollisionModel::OnePlus);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut s = Session::new(&nodes, 3);
        let out = s.run_round(8, &mut ChannelMut::paired(&mut ch), &mut rng);
        assert_eq!(out, RoundOutcome::Decided(true));
        assert_eq!(s.queries(), 4, "pair granularity: 3 needed, 4 spent");
    }

    #[test]
    fn paired_round_with_odd_bin_count_queries_all() {
        let nodes = population(9);
        let mut ch = ideal(9, &[], CollisionModel::OnePlus);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = Session::new(&nodes, 1);
        let out = s.run_round(3, &mut ChannelMut::paired(&mut ch), &mut rng);
        assert_eq!(out, RoundOutcome::Decided(false));
        assert_eq!(s.queries(), 3, "two pairs: (2) + (1 single)");
        assert_eq!(s.remaining_len(), 0);
    }

    #[test]
    fn paired_round_handles_captures() {
        // 2+ model through the paired path: a capture confirms and removes
        // exactly the captured node.
        let nodes = population(6);
        let mut ch = ideal(6, &[2], CollisionModel::two_plus_default());
        let mut rng = SmallRng::seed_from_u64(7);
        let mut s = Session::new(&nodes, 2);
        let out = s.run_round(2, &mut ChannelMut::paired(&mut ch), &mut rng);
        assert!(matches!(out, RoundOutcome::Undecided(_)));
        assert_eq!(s.confirmed(), 1);
        assert!(!s.remaining().contains(&NodeId(2)));
    }

    #[test]
    fn paired_round_full_coverage_matches_sequential_eliminations() {
        // A round that stays undecided (x=1 < t=2, plenty of survivors):
        // the paired and sequential executors must end with identical
        // candidate sets and costs for identical seeds.
        let nodes = population(24);
        let positives = [9u32];
        for seed in 0..10u64 {
            let mut ch1 = ideal(24, &positives, CollisionModel::OnePlus);
            let mut rng1 = SmallRng::seed_from_u64(seed);
            let mut s1 = Session::new(&nodes, 2);
            let o1 = s1.run_round(6, &mut ChannelMut::single(&mut ch1), &mut rng1);

            let mut ch2 = ideal(24, &positives, CollisionModel::OnePlus);
            let mut rng2 = SmallRng::seed_from_u64(seed);
            let mut s2 = Session::new(&nodes, 2);
            let o2 = s2.run_round(6, &mut ChannelMut::paired(&mut ch2), &mut rng2);
            assert!(matches!(o1, RoundOutcome::Undecided(_)), "seed={seed}");

            assert_eq!(o1, o2, "seed={seed}");
            let mut r1: Vec<_> = s1.remaining().to_vec();
            let mut r2: Vec<_> = s2.remaining().to_vec();
            r1.sort_unstable();
            r2.sort_unstable();
            assert_eq!(r1, r2, "seed={seed}");
            assert_eq!(s1.queries(), s2.queries(), "seed={seed}");
        }
    }

    /// Channel replaying a fixed observation script (Silent once the
    /// script runs out), for deterministic retry-layer tests.
    struct Scripted {
        obs: std::collections::VecDeque<Observation>,
        queries: u64,
    }

    impl Scripted {
        fn new(obs: &[Observation]) -> Self {
            Self {
                obs: obs.iter().copied().collect(),
                queries: 0,
            }
        }
    }

    impl GroupQueryChannel for Scripted {
        fn query(&mut self, _members: &[NodeId]) -> Observation {
            self.queries += 1;
            self.obs.pop_front().unwrap_or(Observation::Silent)
        }

        fn model(&self) -> CollisionModel {
            CollisionModel::OnePlus
        }

        fn queries_issued(&self) -> u64 {
            self.queries
        }
    }

    #[test]
    fn verified_silence_requeries_and_confirms_false() {
        // Everything silent: one bin costs 1 + 2 retries, and the false
        // verdict costs 1 + 2 pool confirmations on top.
        let nodes = population(8);
        let mut ch = Scripted::new(&[]);
        let mut rng = SmallRng::seed_from_u64(1);
        let report = drive(
            &nodes,
            1,
            ChannelMut::single(&mut ch),
            &mut rng,
            crate::ExecutionProfile::new().with_retry(crate::retry::RetryPolicy::verified(2)),
            |_, _| 1,
        );
        assert!(!report.answer);
        assert_eq!(report.queries, 6, "3 on the bin + 3 pool checks");
        assert_eq!(report.retry_queries, 5);
        assert_eq!(report.rounds, 2, "one query round + one verification");
        report.assert_consistent();
        assert_eq!(report.queries, ch.queries_issued());
    }

    #[test]
    fn pool_activity_rescues_eliminated_nodes() {
        // Round 1 sees (miss-induced) silence twice and eliminates the
        // whole bin; the pool confirmation observes activity, re-admits
        // everyone, and round 2 decides true.
        use Observation::{Activity, Silent};
        let nodes = population(4);
        let mut ch = Scripted::new(&[Silent, Silent, Activity, Activity]);
        let mut rng = SmallRng::seed_from_u64(2);
        let report = drive(
            &nodes,
            1,
            ChannelMut::single(&mut ch),
            &mut rng,
            crate::ExecutionProfile::new().with_retry(crate::retry::RetryPolicy::verified(1)),
            |_, _| 1,
        );
        assert!(report.answer, "rescued positives flip the verdict");
        assert_eq!(report.queries, 4);
        assert_eq!(report.retry_queries, 2, "one bin retry + one pool check");
        assert_eq!(report.rounds, 3, "round, verification, round");
        let verification = report.trace[1];
        assert_eq!(verification.queried_bins, 0);
        assert_eq!(verification.retries, 1);
        assert_eq!(verification.remaining, 4, "pool re-admitted");
        report.assert_consistent();
    }

    #[test]
    fn retry_budget_caps_verification_spending() {
        let nodes = population(4);
        let mut ch = Scripted::new(&[]);
        let mut rng = SmallRng::seed_from_u64(3);
        let report = drive(
            &nodes,
            1,
            ChannelMut::single(&mut ch),
            &mut rng,
            crate::ExecutionProfile::new()
                .with_retry(crate::retry::RetryPolicy::verified(5).with_budget(3)),
            |_, _| 1,
        );
        assert!(!report.answer);
        assert_eq!(
            report.retry_queries, 3,
            "bin retries stop at the budget; the pool check gets nothing"
        );
        assert_eq!(report.queries, 4);
        assert_eq!(report.rounds, 1, "no verification round without budget");
        report.assert_consistent();
    }

    #[test]
    fn paired_retry_matches_sequential_semantics() {
        // All-silent paired run with retries: same totals as sequential.
        let nodes = population(8);
        let mut ch = ideal(8, &[], CollisionModel::OnePlus);
        let mut rng = SmallRng::seed_from_u64(4);
        let report = drive(
            &nodes,
            2,
            ChannelMut::paired(&mut ch),
            &mut rng,
            crate::ExecutionProfile::new().with_retry(crate::retry::RetryPolicy::verified(1)),
            |_, _| 2,
        );
        assert!(!report.answer);
        report.assert_consistent();
        assert!(report.retry_queries > 0, "silent bins were re-queried");
    }

    #[test]
    fn canary_flags_unconditional_injection() {
        // A channel that answers Activity to everything — including the
        // empty canary group — is provably dishonest: the canary fires
        // and the anomaly surfaces in the report even though the fake
        // activity drives the verdict to true.
        use Observation::Activity;
        let nodes = population(4);
        let mut ch = Scripted::new(&[Activity; 8]);
        let mut rng = SmallRng::seed_from_u64(1);
        let report = drive(
            &nodes,
            1,
            ChannelMut::single(&mut ch),
            &mut rng,
            crate::ExecutionProfile::new().with_defense(DefensePolicy {
                canary: true,
                ..DefensePolicy::none()
            }),
            |_, _| 1,
        );
        assert!(report.answer, "injection fakes the verdict...");
        assert!(report.anomalies >= 1, "...but the canary catches it");
        assert!(report.adversary_suspected());
        assert_eq!(report.defense_queries, report.rounds as u64);
        report.assert_consistent();
    }

    #[test]
    fn activity_confirmation_downgrades_flapping_activity() {
        // First query Activity, confirmation Silent: no honest loss-free
        // channel flaps like that, so the bin is downgraded to silence,
        // the anomaly is counted, and the verdict stays false.
        use Observation::{Activity, Silent};
        let nodes = population(4);
        let mut ch = Scripted::new(&[Activity, Silent]);
        let mut rng = SmallRng::seed_from_u64(2);
        let report = drive(
            &nodes,
            1,
            ChannelMut::single(&mut ch),
            &mut rng,
            crate::ExecutionProfile::new().with_defense(DefensePolicy {
                confirm_activity: 1,
                ..DefensePolicy::none()
            }),
            |_, _| 1,
        );
        assert!(!report.answer, "one-shot injected activity is discarded");
        assert_eq!(report.anomalies, 1);
        assert_eq!(report.queries, 2, "one first-pass + one confirmation");
        assert_eq!(report.defense_queries, 1);
        report.assert_consistent();
    }

    #[test]
    fn confirmed_activity_survives_confirmation() {
        // Real positives answer every query: confirmation costs queries
        // but never flips an honest verdict.
        let nodes = population(8);
        let mut ch = ideal(8, &[0, 1, 2], CollisionModel::OnePlus);
        let mut rng = SmallRng::seed_from_u64(3);
        let report = drive(
            &nodes,
            2,
            ChannelMut::single(&mut ch),
            &mut rng,
            crate::ExecutionProfile::new().with_defense(DefensePolicy {
                confirm_activity: 2,
                ..DefensePolicy::none()
            }),
            |s, _| 2 * s.threshold(),
        );
        assert!(report.answer);
        assert_eq!(report.anomalies, 0);
        assert!(report.defense_queries > 0, "confirmations were spent");
        report.assert_consistent();
    }

    #[test]
    fn confirm_true_overturns_single_round_injection() {
        // A fake-activity burst decides true in round 1; the required
        // confirmation round sees an honest silent channel and the final
        // verdict flips to false.
        use Observation::Activity;
        let nodes = population(4);
        let mut ch = Scripted::new(&[Activity]);
        let mut rng = SmallRng::seed_from_u64(4);
        let report = drive(
            &nodes,
            1,
            ChannelMut::single(&mut ch),
            &mut rng,
            crate::ExecutionProfile::new().with_defense(DefensePolicy {
                confirm_true: 1,
                ..DefensePolicy::none()
            }),
            |_, _| 1,
        );
        assert!(!report.answer, "unconfirmed true verdict is overturned");
        assert_eq!(report.rounds, 2, "decision round + confirmation round");
        report.assert_consistent();
    }

    #[test]
    fn confirm_true_costs_extra_rounds_but_keeps_honest_verdicts() {
        let nodes = population(32);
        for x in [0usize, 4, 8, 20] {
            let positives: Vec<u32> = (0..x as u32).collect();
            let mut ch = ideal(32, &positives, CollisionModel::OnePlus);
            let mut rng = SmallRng::seed_from_u64(40 + x as u64);
            let report = drive(
                &nodes,
                8,
                ChannelMut::single(&mut ch),
                &mut rng,
                crate::ExecutionProfile::new().with_defense(DefensePolicy::hardened()),
                |s, _| 2 * s.threshold(),
            );
            assert_eq!(report.answer, x >= 8, "x={x}");
            assert_eq!(report.anomalies, 0, "honest channel, no anomalies");
            report.assert_consistent();
        }
    }

    #[test]
    fn disabled_defenses_are_bit_identical_to_the_legacy_path() {
        let nodes = population(64);
        let positives: Vec<u32> = (0..10).collect();
        let mut ch1 = ideal(64, &positives, CollisionModel::OnePlus);
        let mut ch2 = ideal(64, &positives, CollisionModel::OnePlus);
        let mut rng1 = SmallRng::seed_from_u64(9);
        let mut rng2 = SmallRng::seed_from_u64(9);
        let a = drive(
            &nodes,
            8,
            ChannelMut::single(&mut ch1),
            &mut rng1,
            ExecutionProfile::new(),
            |s, _| 2 * s.threshold(),
        );
        let b = drive(
            &nodes,
            8,
            ChannelMut::single(&mut ch2),
            &mut rng2,
            crate::ExecutionProfile::new().with_defense(DefensePolicy::none()),
            |s, _| 2 * s.threshold(),
        );
        assert_eq!(a, b);
        assert_eq!(a.defense_queries, 0);
        assert_eq!(a.anomalies, 0);
    }

    #[test]
    fn early_termination_keeps_unqueried_nodes() {
        // Everyone positive, t=1: first query decides true; the other nodes
        // must remain candidates (not silently dropped).
        let nodes = population(8);
        let mut ch = ideal(8, &[0, 1, 2, 3, 4, 5, 6, 7], CollisionModel::OnePlus);
        let mut rng = SmallRng::seed_from_u64(8);
        let mut s = Session::new(&nodes, 1);
        let out = s.run_round(8, &mut ChannelMut::single(&mut ch), &mut rng);
        assert_eq!(out, RoundOutcome::Decided(true));
        assert_eq!(s.queries(), 1);
        assert_eq!(s.remaining_len(), 8, "7 unqueried + 1 active bin kept");
    }
}
