//! The pure Table 1 / Figure 7 transition machine of the announce
//! engine that runs the §3–§5 protocol variants.
//!
//! Every data service the engine completes — from the single queue of
//! [`super::open_loop`] or the hot/cold queues of [`super::two_queue`]
//! and [`super::feedback`] — ends the same way: the channel draw and the
//! death draw happen, and then a *pure* classification decides what the
//! service did to the record — which Table 1 transition it was, whether
//! the receiver installs the value, and whether the record survives to
//! re-enter a queue. Figure 7's sender-side location machine (Hot → Cold
//! on transmission, Cold → Hot on NACK) and the NACK-generation rule are
//! equally draw-free. This module holds those decisions as pure
//! functions so the `ss-verify` explorer can check them exhaustively and
//! the engine applies one definition of the protocol semantics.
//!
//! Nothing here draws randomness, reads a clock, or touches a channel:
//! inputs are booleans the caller already drew, outputs are plain data.

use super::TransitionCounts;

/// One Table 1 state change, observed at a service completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// A consistent record was (redundantly) announced and survived.
    CtoC,
    /// An inconsistent record was delivered and survived.
    ItoC,
    /// An inconsistent record's announcement was lost; it survived.
    ItoI,
    /// A consistent record died at this service.
    CDeath,
    /// An inconsistent record died at this service.
    IDeath,
}

/// The full consequence of one data-service completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceOutcome {
    /// The Table 1 transition this service performed.
    pub transition: Transition,
    /// Whether the receiver installs the value now (the announcement
    /// arrived and the receiver did not already hold it). Delivery
    /// happens even when the record dies at this same service: a record
    /// can be received by its final announcement.
    pub delivers: bool,
    /// Whether the record survives to re-enter a transmission queue.
    pub survives: bool,
}

/// Classifies a data-service completion per Table 1. `was_consistent`
/// is the receiver's state *before* this announcement, `lost` is the
/// composed channel verdict (baseline loss or an active fault), and
/// `dies` is the per-transmission death draw (or a deferred lifetime
/// death).
pub fn classify_service(was_consistent: bool, lost: bool, dies: bool) -> ServiceOutcome {
    let delivers = !lost && !was_consistent;
    let transition = match (was_consistent, lost, dies) {
        (true, _, true) => Transition::CDeath,
        (false, _, true) => Transition::IDeath,
        (true, _, false) => Transition::CtoC,
        (false, false, false) => Transition::ItoC,
        (false, true, false) => Transition::ItoI,
    };
    ServiceOutcome {
        transition,
        delivers,
        survives: !dies,
    }
}

impl TransitionCounts {
    /// Tallies one observed transition.
    // lint: allow(D008, statistics tally on plain counters; no protocol state is mutated)
    pub fn record(&mut self, t: Transition) {
        match t {
            Transition::CtoC => self.c_to_c += 1,
            Transition::ItoC => self.i_to_c += 1,
            Transition::ItoI => self.i_to_i += 1,
            Transition::CDeath => self.c_death += 1,
            Transition::IDeath => self.i_death += 1,
        }
    }
}

/// Where a live record currently sits at the sender — Figure 7's three
/// live states.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Loc {
    /// Waiting in the hot (foreground) queue, where every record starts.
    #[default]
    Hot,
    /// Waiting in the cold (background) queue.
    Cold,
    /// Currently being transmitted by one of the data servers. A NACK
    /// arriving now must not promote it — it is already on the wire, and
    /// promoting would duplicate it across queues.
    Serving,
}

/// Figure 7's Cold → Hot edge: a delivered NACK promotes the record only
/// if it is still live, still waiting in the cold queue, and still
/// missing at the receiver. Any other combination makes the NACK moot
/// (the record died, is already hot or on the wire, or was delivered in
/// the meantime).
pub fn should_promote(loc: Option<Loc>, live: bool, consistent: bool) -> bool {
    loc == Some(Loc::Cold) && live && !consistent
}

/// The receiver's NACK-generation rule: NACK a loss it *observed*
/// (baseline channel loss — a fault-induced loss is invisible, the
/// receiver being partitioned or down) of a record it does not yet hold,
/// when a feedback channel exists and no NACK for the record is already
/// pending or in flight.
pub fn should_nack(
    chan_lost: bool,
    fault_lost: bool,
    was_consistent: bool,
    has_feedback: bool,
    already_pending: bool,
) -> bool {
    chan_lost && !fault_lost && !was_consistent && has_feedback && !already_pending
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_table1() {
        // Dying dominates: the record leaves regardless of loss.
        assert_eq!(
            classify_service(true, false, true).transition,
            Transition::CDeath
        );
        assert_eq!(
            classify_service(true, true, true).transition,
            Transition::CDeath
        );
        assert_eq!(
            classify_service(false, true, true).transition,
            Transition::IDeath
        );
        // Survivors split on (consistency, loss).
        assert_eq!(
            classify_service(true, true, false).transition,
            Transition::CtoC
        );
        assert_eq!(
            classify_service(true, false, false).transition,
            Transition::CtoC
        );
        assert_eq!(
            classify_service(false, false, false).transition,
            Transition::ItoC
        );
        assert_eq!(
            classify_service(false, true, false).transition,
            Transition::ItoI
        );
    }

    #[test]
    fn delivery_is_orthogonal_to_death() {
        // A record can be received by its final announcement.
        let o = classify_service(false, false, true);
        assert!(o.delivers && !o.survives);
        // A redundant announcement never re-delivers.
        assert!(!classify_service(true, false, false).delivers);
        // A lost announcement never delivers.
        assert!(!classify_service(false, true, false).delivers);
    }

    #[test]
    fn transition_counts_tally() {
        let mut t = TransitionCounts::default();
        t.record(Transition::ItoC);
        t.record(Transition::ItoC);
        t.record(Transition::CDeath);
        assert_eq!(t.i_to_c, 2);
        assert_eq!(t.c_death, 1);
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn promotion_needs_cold_live_inconsistent() {
        assert!(should_promote(Some(Loc::Cold), true, false));
        assert!(!should_promote(Some(Loc::Cold), true, true), "already held");
        assert!(!should_promote(Some(Loc::Cold), false, false), "dead");
        assert!(!should_promote(Some(Loc::Hot), true, false), "already hot");
        assert!(
            !should_promote(Some(Loc::Serving), true, false),
            "on the wire"
        );
        assert!(!should_promote(None, true, false), "untracked");
    }

    #[test]
    fn nack_rule_matches_receiver_visibility() {
        assert!(should_nack(true, false, false, true, false));
        assert!(!should_nack(false, false, false, true, false), "no loss");
        assert!(
            !should_nack(true, true, false, true, false),
            "fault loss is invisible"
        );
        assert!(
            !should_nack(true, false, true, true, false),
            "already consistent"
        );
        assert!(
            !should_nack(true, false, false, false, false),
            "no feedback channel"
        );
        assert!(
            !should_nack(true, false, false, true, true),
            "NACK already pending"
        );
    }
}
