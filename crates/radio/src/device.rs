//! CC2420-like receiver logic: hardware address recognition and automatic
//! acknowledgements.
//!
//! The CC2420 acknowledges an incoming data frame in hardware iff (a) the
//! frame passed CRC, (b) its destination matches the radio's programmed
//! address (or broadcast), (c) the frame's acknowledgement-request flag is
//! set, and (d) auto-ACK is enabled — *and*, per 802.15.4, broadcast frames
//! are never acknowledged. Backcast exploits exactly this machinery: the
//! poller multicasts to an *ephemeral* short address that predicate-positive
//! nodes programmed into their radios, so all of them (and only they)
//! HACK simultaneously.

use crate::frame::{Frame, FrameType, ShortAddr, BROADCAST_ADDR};

/// Static radio configuration (the register file, in CC2420 terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Hardware address-recognition filter enabled.
    pub address_recognition: bool,
    /// Automatic hardware acknowledgements enabled.
    pub auto_ack: bool,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            address_recognition: true,
            auto_ack: true,
        }
    }
}

/// Per-node radio front-end state.
///
/// The CC2420 recognizes two hardware addresses (a 16-bit short address
/// and a 64-bit extended address); the paper exploits this for "two
/// concurrent backcasts at most". We model the second recognizer as an
/// optional alternate short address.
#[derive(Debug, Clone)]
pub struct RadioDevice {
    config: DeviceConfig,
    short_addr: ShortAddr,
    alt_addr: Option<ShortAddr>,
    on: bool,
    frames_accepted: u64,
    hacks_generated: u64,
}

impl RadioDevice {
    /// A powered-on radio with the given permanent short address.
    pub fn new(short_addr: ShortAddr) -> Self {
        Self {
            config: DeviceConfig::default(),
            short_addr,
            alt_addr: None,
            on: true,
            frames_accepted: 0,
            hacks_generated: 0,
        }
    }

    /// Reprograms the short address — the backcast "listen on this
    /// ephemeral identifier" step.
    pub fn set_short_addr(&mut self, addr: ShortAddr) {
        self.short_addr = addr;
    }

    /// The currently programmed short address.
    pub fn short_addr(&self) -> ShortAddr {
        self.short_addr
    }

    /// Programs (or clears) the second hardware recognizer — the model of
    /// the CC2420's 64-bit extended address, which backcast can use for a
    /// concurrent second ephemeral group.
    pub fn set_alt_addr(&mut self, addr: Option<ShortAddr>) {
        self.alt_addr = addr;
    }

    /// The currently programmed alternate address, if any.
    pub fn alt_addr(&self) -> Option<ShortAddr> {
        self.alt_addr
    }

    fn matches(&self, dest: ShortAddr) -> bool {
        dest == self.short_addr || Some(dest) == self.alt_addr
    }

    /// Powers the radio on/off (off radios accept nothing).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Reconfigures the register file.
    pub fn set_config(&mut self, config: DeviceConfig) {
        self.config = config;
    }

    /// Hardware address filter: would this (already CRC-clean) frame reach
    /// the MAC layer?
    pub fn accepts(&mut self, frame: &Frame) -> bool {
        if !self.on {
            return false;
        }
        let ok = match frame.frame_type {
            // ACKs carry no addresses; the MAC matches them by seq.
            FrameType::Ack => true,
            FrameType::Data => {
                !self.config.address_recognition
                    || self.matches(frame.dest)
                    || frame.dest == BROADCAST_ADDR
            }
        };
        if ok {
            self.frames_accepted += 1;
        }
        ok
    }

    /// Would the hardware generate an automatic acknowledgement for this
    /// frame? (Broadcast frames are never acknowledged.)
    pub fn should_hack(&mut self, frame: &Frame) -> Option<Frame> {
        if !self.on
            || !self.config.auto_ack
            || frame.frame_type != FrameType::Data
            || !frame.ack_request
            || frame.dest == BROADCAST_ADDR
        {
            return None;
        }
        let unicast_match = !self.config.address_recognition || self.matches(frame.dest);
        if unicast_match {
            self.hacks_generated += 1;
            Some(Frame::hack(frame.seq))
        } else {
            None
        }
    }

    /// Lifetime counters (for testbed statistics).
    pub fn counters(&self) -> (u64, u64) {
        (self.frames_accepted, self.hacks_generated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> RadioDevice {
        RadioDevice::new(ShortAddr(0x0042))
    }

    #[test]
    fn accepts_own_address_and_broadcast() {
        let mut d = dev();
        let own = Frame::data(ShortAddr(1), ShortAddr(0x0042), 0, vec![]);
        let bc = Frame::data(ShortAddr(1), BROADCAST_ADDR, 0, vec![]);
        let other = Frame::data(ShortAddr(1), ShortAddr(0x0043), 0, vec![]);
        assert!(d.accepts(&own));
        assert!(d.accepts(&bc));
        assert!(!d.accepts(&other));
    }

    #[test]
    fn promiscuous_mode_accepts_everything() {
        let mut d = dev();
        d.set_config(DeviceConfig {
            address_recognition: false,
            auto_ack: true,
        });
        let other = Frame::data(ShortAddr(1), ShortAddr(0x9999), 0, vec![]);
        assert!(d.accepts(&other));
    }

    #[test]
    fn powered_off_radio_is_deaf() {
        let mut d = dev();
        d.set_on(false);
        let own = Frame::data(ShortAddr(1), ShortAddr(0x0042), 0, vec![]);
        assert!(!d.accepts(&own));
        assert!(d
            .should_hack(&Frame::data_with_ack_request(
                ShortAddr(1),
                ShortAddr(0x0042),
                0,
                vec![]
            ))
            .is_none());
    }

    #[test]
    fn hack_fires_only_for_matching_unicast_with_ar_flag() {
        let mut d = dev();
        let matching = Frame::data_with_ack_request(ShortAddr(1), ShortAddr(0x0042), 7, vec![1]);
        assert_eq!(d.should_hack(&matching), Some(Frame::hack(7)));

        let no_flag = Frame::data(ShortAddr(1), ShortAddr(0x0042), 7, vec![1]);
        assert!(d.should_hack(&no_flag).is_none());

        let wrong_dest = Frame::data_with_ack_request(ShortAddr(1), ShortAddr(0x0001), 7, vec![1]);
        assert!(d.should_hack(&wrong_dest).is_none());
    }

    #[test]
    fn broadcast_is_never_acked() {
        let mut d = dev();
        let bc = Frame::data_with_ack_request(ShortAddr(1), BROADCAST_ADDR, 7, vec![]);
        assert!(d.should_hack(&bc).is_none());
    }

    #[test]
    fn ephemeral_readdressing_redirects_hacks() {
        let mut d = dev();
        let group = ShortAddr(0x2A00);
        let poll = Frame::data_with_ack_request(ShortAddr(0), group, 3, vec![]);
        assert!(d.should_hack(&poll).is_none(), "not in the group yet");
        d.set_short_addr(group);
        assert_eq!(d.should_hack(&poll), Some(Frame::hack(3)));
        assert_eq!(d.short_addr(), group);
    }

    #[test]
    fn auto_ack_disable_suppresses_hacks() {
        let mut d = dev();
        d.set_config(DeviceConfig {
            address_recognition: true,
            auto_ack: false,
        });
        let poll = Frame::data_with_ack_request(ShortAddr(1), ShortAddr(0x0042), 1, vec![]);
        assert!(d.should_hack(&poll).is_none());
    }

    #[test]
    fn alt_addr_provides_a_second_recognizer() {
        let mut d = dev();
        let eph_b = ShortAddr(0x2B00);
        let poll_b = Frame::data_with_ack_request(ShortAddr(0), eph_b, 9, vec![]);
        assert!(d.should_hack(&poll_b).is_none());
        d.set_alt_addr(Some(eph_b));
        assert_eq!(d.should_hack(&poll_b), Some(Frame::hack(9)));
        // The primary address still works concurrently.
        let poll_own = Frame::data_with_ack_request(ShortAddr(0), ShortAddr(0x0042), 9, vec![]);
        assert_eq!(d.should_hack(&poll_own), Some(Frame::hack(9)));
        d.set_alt_addr(None);
        assert!(d.should_hack(&poll_b).is_none());
    }

    #[test]
    fn counters_track_activity() {
        let mut d = dev();
        let poll = Frame::data_with_ack_request(ShortAddr(1), ShortAddr(0x0042), 1, vec![]);
        d.accepts(&poll);
        d.should_hack(&poll);
        assert_eq!(d.counters(), (1, 1));
    }
}
