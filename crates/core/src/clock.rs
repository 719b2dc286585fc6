//! Logical time: sequence numbers, request timestamps, and Lamport clocks.
//!
//! Every CS request carries a [`Timestamp`] `(seq, site)` assigned per
//! Lamport's scheme: the sequence number is greater than that of any request
//! message sent, received, or observed at the issuing site. Priority between
//! two requests is total: smaller sequence number wins, ties broken by the
//! smaller site number. This is the priority order used by arbiter queues in
//! every quorum-based algorithm in the workspace, and it is what makes
//! starvation impossible (Theorem 3 of the paper): a waiting request
//! eventually has the globally smallest timestamp.

use crate::protocol::SiteId;
use std::fmt;

/// A Lamport sequence number.
///
/// Wrapped in a newtype so that sequence numbers cannot be confused with
/// site identifiers or simulation ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SeqNum(pub u64);

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for SeqNum {
    fn from(v: u64) -> Self {
        SeqNum(v)
    }
}

/// The timestamp `(seq, site)` of a CS request.
///
/// The derived lexicographic order **is** the request priority order of the
/// paper: `a < b` means `a` has *higher* priority than `b` (smaller sequence
/// number first, then smaller site number).
///
/// ```
/// use qmx_core::{SiteId, Timestamp};
/// let a = Timestamp::new(3, SiteId(7));
/// let b = Timestamp::new(4, SiteId(1));
/// let c = Timestamp::new(3, SiteId(9));
/// assert!(a < b); // smaller seq wins regardless of site number
/// assert!(a < c); // equal seq: smaller site number wins
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    /// Lamport sequence number of the request.
    pub seq: SeqNum,
    /// Issuing site.
    pub site: SiteId,
}

impl Timestamp {
    /// Creates a timestamp from a raw sequence number and site.
    pub fn new(seq: u64, site: SiteId) -> Self {
        Timestamp {
            seq: SeqNum(seq),
            site,
        }
    }

    /// Returns `true` if `self` has strictly higher priority than `other`.
    ///
    /// Purely a readability alias for `self < other`.
    pub fn beats(&self, other: &Timestamp) -> bool {
        self < other
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.seq, self.site)
    }
}

/// A Lamport logical clock.
///
/// Maintains the largest sequence number seen so far; [`LamportClock::tick`]
/// issues the next request's sequence number, and [`LamportClock::observe`]
/// folds in sequence numbers carried by incoming messages.
///
/// ```
/// use qmx_core::{LamportClock, SeqNum};
/// let mut clock = LamportClock::new();
/// assert_eq!(clock.tick(), SeqNum(1));
/// clock.observe(SeqNum(10));
/// assert_eq!(clock.tick(), SeqNum(11));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LamportClock {
    last: u64,
}

impl LamportClock {
    /// Creates a clock that has observed nothing (next tick is `1`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the current value (largest sequence number seen or issued).
    pub fn current(&self) -> SeqNum {
        SeqNum(self.last)
    }

    /// Advances the clock and returns a sequence number strictly greater
    /// than everything seen or issued so far.
    pub fn tick(&mut self) -> SeqNum {
        self.last += 1;
        SeqNum(self.last)
    }

    /// Observes a sequence number from an incoming message, advancing the
    /// clock if it is ahead.
    pub fn observe(&mut self, seen: SeqNum) {
        if seen.0 > self.last {
            self.last = seen.0;
        }
    }

    /// Observes the sequence number of a full timestamp.
    pub fn observe_ts(&mut self, ts: Timestamp) {
        self.observe(ts.seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order_is_seq_then_site() {
        let lo = Timestamp::new(1, SiteId(5));
        let hi = Timestamp::new(2, SiteId(0));
        assert!(lo < hi);
        assert!(lo.beats(&hi));
        assert!(!hi.beats(&lo));
        // Tie on seq: site breaks it.
        let a = Timestamp::new(2, SiteId(0));
        let b = Timestamp::new(2, SiteId(1));
        assert!(a < b);
    }

    #[test]
    fn timestamps_are_totally_ordered() {
        let mut all = [
            Timestamp::new(3, SiteId(1)),
            Timestamp::new(1, SiteId(2)),
            Timestamp::new(3, SiteId(0)),
            Timestamp::new(2, SiteId(9)),
        ];
        all.sort();
        let seqs: Vec<u64> = all.iter().map(|t| t.seq.0).collect();
        assert_eq!(seqs, vec![1, 2, 3, 3]);
        assert_eq!(all[2].site, SiteId(0));
        assert_eq!(all[3].site, SiteId(1));
    }

    #[test]
    fn clock_ticks_monotonically() {
        let mut c = LamportClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(a < b);
        assert_eq!(c.current(), b);
    }

    #[test]
    fn clock_observe_jumps_forward_only() {
        let mut c = LamportClock::new();
        c.observe(SeqNum(42));
        assert_eq!(c.current(), SeqNum(42));
        c.observe(SeqNum(7)); // stale observation: no effect
        assert_eq!(c.current(), SeqNum(42));
        assert_eq!(c.tick(), SeqNum(43));
    }

    #[test]
    fn observe_ts_uses_seq_component() {
        let mut c = LamportClock::new();
        c.observe_ts(Timestamp::new(9, SiteId(3)));
        assert_eq!(c.tick(), SeqNum(10));
    }

    #[test]
    fn display_formats() {
        let t = Timestamp::new(4, SiteId(2));
        assert_eq!(t.to_string(), "(4,S2)");
        assert_eq!(SeqNum(4).to_string(), "4");
    }
}
