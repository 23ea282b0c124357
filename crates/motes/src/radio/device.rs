//! CC2420-like receiver logic: hardware address recognition and automatic
//! acknowledgements.
//!
//! The CC2420 acknowledges an incoming data frame in hardware iff (a) the
//! frame passed CRC, (b) its destination matches the radio's programmed
//! address, and (c) the frame's acknowledgement-request flag is set —
//! *and*, per 802.15.4, broadcast frames are never acknowledged. Backcast
//! exploits exactly this machinery: the poller multicasts to an
//! *ephemeral* short address that predicate-positive nodes programmed into
//! their radios, so all of them (and only they) HACK simultaneously.

use super::frame::{Frame, FrameType, ShortAddr, BROADCAST_ADDR};

/// Per-node radio front-end state: the address-recognition registers, with
/// address recognition and auto-ACK always enabled.
///
/// The CC2420 recognizes two hardware addresses (a 16-bit short address
/// and a 64-bit extended address); the paper exploits this for "two
/// concurrent backcasts at most". We model the second recognizer as an
/// optional alternate short address.
#[derive(Debug, Clone)]
pub(crate) struct RadioDevice {
    short_addr: ShortAddr,
    alt_addr: Option<ShortAddr>,
}

impl RadioDevice {
    /// A radio with the given permanent short address.
    pub fn new(short_addr: ShortAddr) -> Self {
        Self {
            short_addr,
            alt_addr: None,
        }
    }

    /// Reprograms the short address — the backcast "listen on this
    /// ephemeral identifier" step.
    pub fn set_short_addr(&mut self, addr: ShortAddr) {
        self.short_addr = addr;
    }

    /// Programs (or clears) the second hardware recognizer — the model of
    /// the CC2420's 64-bit extended address, which backcast can use for a
    /// concurrent second ephemeral group.
    pub fn set_alt_addr(&mut self, addr: Option<ShortAddr>) {
        self.alt_addr = addr;
    }

    fn matches(&self, dest: ShortAddr) -> bool {
        dest == self.short_addr || Some(dest) == self.alt_addr
    }

    /// Hardware address filter: would this (already CRC-clean) frame reach
    /// the MAC layer?
    pub fn accepts(&self, frame: &Frame) -> bool {
        match frame.frame_type {
            // ACKs carry no addresses; the MAC matches them by seq.
            FrameType::Ack => true,
            FrameType::Data => self.matches(frame.dest) || frame.dest == BROADCAST_ADDR,
        }
    }

    /// Would the hardware generate an automatic acknowledgement for this
    /// frame? (Broadcast frames are never acknowledged.)
    pub fn should_hack(&self, frame: &Frame) -> Option<Frame> {
        let acked = frame.frame_type == FrameType::Data
            && frame.ack_request
            && frame.dest != BROADCAST_ADDR
            && self.matches(frame.dest);
        acked.then(|| Frame::hack(frame.seq))
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
        let d = dev();
        let own = Frame::data(ShortAddr(1), ShortAddr(0x0042), 0, vec![]);
        let bc = Frame::data(ShortAddr(1), BROADCAST_ADDR, 0, vec![]);
        let other = Frame::data(ShortAddr(1), ShortAddr(0x0043), 0, vec![]);
        assert!(d.accepts(&own));
        assert!(d.accepts(&bc));
        assert!(!d.accepts(&other));
    }

    #[test]
    fn hack_fires_only_for_matching_unicast_with_ar_flag() {
        let d = dev();
        let matching = Frame::data_with_ack_request(ShortAddr(1), ShortAddr(0x0042), 7, vec![1]);
        assert_eq!(d.should_hack(&matching), Some(Frame::hack(7)));

        let no_flag = Frame::data(ShortAddr(1), ShortAddr(0x0042), 7, vec![1]);
        assert!(d.should_hack(&no_flag).is_none());

        let wrong_dest = Frame::data_with_ack_request(ShortAddr(1), ShortAddr(0x0001), 7, vec![1]);
        assert!(d.should_hack(&wrong_dest).is_none());
    }

    #[test]
    fn broadcast_is_never_acked() {
        let d = dev();
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
        assert_eq!(d.short_addr, group);
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
}
