//! Struct-of-arrays per-site driver state.
//!
//! The simulator consults two per-site facts on *every* event: the timer
//! arming slot and the crashed bit. They live here as a dense `Vec<u64>`
//! using `u64::MAX` as the *none* sentinel (8 bytes per entry, no branch
//! on a discriminant) plus the [`SiteSet`] crash bitset, grouped so the
//! event loop's working set is two contiguous structures. What only
//! arrivals, CS entries and exits touch — the client's open requests,
//! keyed `(site, resource)` — and cold per-site state such as pristine
//! protocol snapshots and boot counters stay in the simulator's own maps,
//! out of the hot cache lines.
//!
//! The sentinel is safe: virtual times are sums of delays bounded far
//! below `u64::MAX`, and the horizon convention (`u64::MAX / 2` for
//! "unbounded") keeps every legitimate timestamp below the sentinel.

use qmx_core::{SiteId, SiteSet};

/// The *none* sentinel for packed timestamp slots.
const NONE: u64 = u64::MAX;

/// Hot per-site driver state, one dense structure per fact.
#[derive(Debug)]
pub(crate) struct SiteStates {
    /// Earliest armed wake-up per site; `NONE` = no tick scheduled.
    armed_tick: Vec<u64>,
    /// Crash bitset (inline up to 256 sites, spills beyond).
    crashed: SiteSet,
}

impl SiteStates {
    pub(crate) fn new(n: usize) -> Self {
        SiteStates {
            armed_tick: vec![NONE; n],
            crashed: SiteSet::new(),
        }
    }

    pub(crate) fn armed_tick(&self, site: SiteId) -> Option<u64> {
        let v = self.armed_tick[site.index()];
        (v != NONE).then_some(v)
    }

    pub(crate) fn arm_tick(&mut self, site: SiteId, at: u64) {
        self.armed_tick[site.index()] = at;
    }

    pub(crate) fn clear_tick(&mut self, site: SiteId) {
        self.armed_tick[site.index()] = NONE;
    }

    pub(crate) fn is_crashed(&self, site: SiteId) -> bool {
        self.crashed.contains(site)
    }

    /// Marks `site` crashed; `false` if it already was.
    pub(crate) fn set_crashed(&mut self, site: SiteId) -> bool {
        self.crashed.insert(site)
    }

    /// Clears the crash bit; `false` if the site was not crashed.
    pub(crate) fn set_recovered(&mut self, site: SiteId) -> bool {
        self.crashed.remove(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_round_trips() {
        let mut s = SiteStates::new(3);
        let site = SiteId(1);
        assert_eq!(s.armed_tick(site), None);
        s.arm_tick(site, 0); // time zero is a real timestamp
        assert_eq!(s.armed_tick(site), Some(0));
        s.arm_tick(site, 7);
        assert_eq!(s.armed_tick(site), Some(7));
        s.clear_tick(site);
        assert_eq!(s.armed_tick(site), None);
    }

    #[test]
    fn crash_bits_toggle() {
        let mut s = SiteStates::new(300);
        let far = SiteId(299); // beyond the inline bitset words
        assert!(!s.is_crashed(far));
        assert!(s.set_crashed(far));
        assert!(!s.set_crashed(far));
        assert!(s.is_crashed(far));
        assert!(s.set_recovered(far));
        assert!(!s.set_recovered(far));
    }
}
