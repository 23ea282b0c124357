//! Unslotted 802.15.4 CSMA-CA as an event-loop-agnostic state machine.
//!
//! The algorithm (IEEE 802.15.4 §7.5.1.4, unslotted variant):
//!
//! ```text
//! NB = 0, BE = macMinBE
//! loop:
//!   wait random(0 .. 2^BE - 1) backoff periods (320 µs each)
//!   perform CCA
//!   clear  -> transmit
//!   busy   -> NB += 1; BE = min(BE + 1, macMaxBE)
//!             NB > macMaxCSMABackoffs -> channel access failure
//! ```
//!
//! The struct holds only protocol state; timing and the channel are owned
//! by the caller: `request` starts an attempt and every `timer_fired` step
//! receives the CCA verdict the caller sampled from the medium. This keeps
//! the protocol deterministic, synchronous and directly unit-testable.

use rand::{Rng, RngCore};

use crate::sim::SimDuration;

/// 802.15.4 CSMA-CA parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsmaCaConfig {
    /// `macMinBE`.
    pub min_be: u8,
    /// `macMaxBE`.
    pub max_be: u8,
    /// `macMaxCSMABackoffs`: CCA failures tolerated before giving up.
    pub max_backoffs: u8,
    /// `aUnitBackoffPeriod` (20 symbols = 320 µs at 2.4 GHz).
    pub unit: SimDuration,
}

impl Default for CsmaCaConfig {
    fn default() -> Self {
        Self {
            min_be: 3,
            max_be: 5,
            max_backoffs: 4,
            unit: SimDuration::micros(320),
        }
    }
}

/// What the caller must do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsmaStep {
    /// Arm a timer for this delay, then call
    /// [`CsmaCa::timer_fired`] with a fresh CCA sample.
    Backoff(SimDuration),
    /// The channel was clear: transmit the pending frame now.
    Transmit,
    /// Channel access failure (`macMaxCSMABackoffs` exceeded).
    Failure,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    AwaitingCca,
}

/// The CSMA-CA engine for one transmitter.
#[derive(Debug, Clone)]
pub struct CsmaCa {
    cfg: CsmaCaConfig,
    state: State,
    nb: u8,
    be: u8,
}

impl CsmaCa {
    /// A fresh engine.
    pub fn new(cfg: CsmaCaConfig) -> Self {
        Self {
            cfg,
            state: State::Idle,
            nb: 0,
            be: cfg.min_be,
        }
    }

    /// Starts a transmission attempt. Always yields an initial backoff.
    ///
    /// # Panics
    ///
    /// Panics if an attempt is already in progress.
    pub fn request(&mut self, rng: &mut dyn RngCore) -> CsmaStep {
        assert_eq!(self.state, State::Idle, "CSMA attempt already in progress");
        self.nb = 0;
        self.be = self.cfg.min_be;
        self.state = State::AwaitingCca;
        CsmaStep::Backoff(self.draw_backoff(rng))
    }

    /// The armed backoff timer fired and the caller sampled CCA:
    /// `cca_busy` is the medium's verdict at this instant.
    pub fn timer_fired(&mut self, cca_busy: bool, rng: &mut dyn RngCore) -> CsmaStep {
        assert_eq!(
            self.state,
            State::AwaitingCca,
            "no CSMA attempt in progress"
        );
        if !cca_busy {
            self.state = State::Idle;
            return CsmaStep::Transmit;
        }
        self.nb += 1;
        self.be = (self.be + 1).min(self.cfg.max_be);
        if self.nb > self.cfg.max_backoffs {
            self.state = State::Idle;
            return CsmaStep::Failure;
        }
        CsmaStep::Backoff(self.draw_backoff(rng))
    }

    /// Abandons the in-flight attempt (e.g. the poll round ended).
    pub fn reset(&mut self) {
        self.state = State::Idle;
        self.nb = 0;
        self.be = self.cfg.min_be;
    }

    /// Whether an attempt is in progress.
    pub fn busy(&self) -> bool {
        self.state != State::Idle
    }

    fn draw_backoff(&mut self, rng: &mut dyn RngCore) -> SimDuration {
        let slots = rng.random_range(0..(1u64 << self.be));
        self.cfg.unit * slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn clear_channel_transmits_after_one_backoff() {
        let mut mac = CsmaCa::new(CsmaCaConfig::default());
        let mut rng = SmallRng::seed_from_u64(1);
        match mac.request(&mut rng) {
            CsmaStep::Backoff(d) => {
                assert!(
                    d <= SimDuration::micros(320) * 7,
                    "initial window is 0..2^3-1"
                );
            }
            other => panic!("expected backoff, got {other:?}"),
        }
        assert_eq!(mac.timer_fired(false, &mut rng), CsmaStep::Transmit);
        assert!(!mac.busy());
    }

    #[test]
    fn busy_channel_escalates_backoff_exponent() {
        let mut mac = CsmaCa::new(CsmaCaConfig::default());
        let mut rng = SmallRng::seed_from_u64(2);
        mac.request(&mut rng);
        assert_eq!(mac.be, 3);
        mac.timer_fired(true, &mut rng);
        assert_eq!(mac.be, 4);
        mac.timer_fired(true, &mut rng);
        assert_eq!(mac.be, 5);
        mac.timer_fired(true, &mut rng);
        assert_eq!(mac.be, 5, "capped at macMaxBE");
    }

    #[test]
    fn persistent_busy_fails_after_max_backoffs() {
        let mut mac = CsmaCa::new(CsmaCaConfig::default());
        let mut rng = SmallRng::seed_from_u64(3);
        let mut step = mac.request(&mut rng);
        let mut cca_rounds = 0;
        loop {
            match step {
                CsmaStep::Backoff(_) => {
                    step = mac.timer_fired(true, &mut rng);
                    cca_rounds += 1;
                }
                CsmaStep::Failure => break,
                CsmaStep::Transmit => panic!("must not transmit on a busy channel"),
            }
        }
        // NB runs 0..=4: five CCA attempts, failure after the fifth.
        assert_eq!(cca_rounds, 5);
        assert!(!mac.busy());
    }

    #[test]
    fn backoff_durations_respect_window() {
        let cfg = CsmaCaConfig::default();
        let mut mac = CsmaCa::new(cfg);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..200 {
            if !mac.busy() {
                mac.request(&mut rng);
            }
            let window = 1u64 << mac.be;
            match mac.timer_fired(true, &mut rng) {
                CsmaStep::Backoff(d) => {
                    assert!(d < cfg.unit * window.max(1) * 2);
                    assert_eq!(d.as_nanos() % cfg.unit.as_nanos(), 0, "whole backoff units");
                }
                CsmaStep::Failure => mac.reset(),
                CsmaStep::Transmit => unreachable!(),
            }
        }
    }

    #[test]
    fn reset_allows_new_attempt() {
        let mut mac = CsmaCa::new(CsmaCaConfig::default());
        let mut rng = SmallRng::seed_from_u64(5);
        mac.request(&mut rng);
        mac.reset();
        assert!(!mac.busy());
        mac.request(&mut rng); // must not panic
    }

    #[test]
    #[should_panic(expected = "already in progress")]
    fn double_request_panics() {
        let mut mac = CsmaCa::new(CsmaCaConfig::default());
        let mut rng = SmallRng::seed_from_u64(6);
        mac.request(&mut rng);
        mac.request(&mut rng);
    }
}
