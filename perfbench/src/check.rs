//! Safety check on the history the clients observed.

/// One critical section as a client saw it: from the grant's receipt to
/// the release's send, on the clock the clients share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hold {
    /// Resource held.
    pub rid: u32,
    /// Client session that held it.
    pub session: usize,
    /// Grant received.
    pub start: u64,
    /// Release sent.
    pub end: u64,
}

/// Checks that, per resource, no two client-observed holds overlap. Holds
/// that only touch (one ends at the instant the next starts) are allowed.
pub fn check_exclusive(holds: &[Hold]) -> Result<(), String> {
    let mut sorted = holds.to_vec();
    sorted.sort_by_key(|h| (h.rid, h.start, h.end));
    for h in &sorted {
        if h.end < h.start {
            return Err(format!("hold ends before it starts: {h:?}"));
        }
    }
    for w in sorted.windows(2) {
        if w[0].rid == w[1].rid && w[1].start < w[0].end {
            return Err(format!(
                "resource {} held twice at once: {:?} and {:?}",
                w[0].rid, w[0], w[1]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hold(rid: u32, session: usize, start: u64, end: u64) -> Hold {
        Hold {
            rid,
            session,
            start,
            end,
        }
    }

    #[test]
    fn overlapping_history_is_rejected() {
        let history = [hold(1, 0, 0, 100), hold(2, 1, 50, 80), hold(1, 1, 99, 150)];
        let err = check_exclusive(&history).unwrap_err();
        assert!(err.contains("resource 1"), "{err}");
    }

    #[test]
    fn nested_hold_is_rejected() {
        assert!(check_exclusive(&[hold(3, 0, 10, 100), hold(3, 1, 20, 30)]).is_err());
    }

    #[test]
    fn back_to_back_and_cross_resource_holds_pass() {
        let history = [
            hold(1, 0, 0, 100),
            hold(1, 1, 100, 150),
            hold(2, 0, 120, 130),
            hold(2, 1, 50, 120),
        ];
        assert_eq!(check_exclusive(&history), Ok(()));
    }

    #[test]
    fn inverted_hold_is_rejected() {
        assert!(check_exclusive(&[hold(1, 0, 10, 5)]).is_err());
    }
}
