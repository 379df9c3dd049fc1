//! The pure `step(event) -> effect` seam over the SSTP endpoints.
//!
//! Both endpoint machines ([`crate::sender::SstpSender`] and
//! [`crate::receiver::SstpReceiver`]) are driven exclusively through a
//! single mutation entry point, `step`, which consumes one typed event
//! and returns one typed effect. The machines never read a clock (time
//! only enters through event payloads — see `ss_netsim::Clock` for what
//! drivers use), never touch a channel, and never perform I/O; the lint
//! rules D005/D008 enforce this mechanically.
//!
//! The seam exists for three consumers:
//!
//! 1. **The session harness** (`crate::session`), which owns the event
//!    queue and channels and feeds the machines simulated events.
//! 2. **The exhaustive explorer** (`ss-verify`), which drives small-scope
//!    models through *every* interleaving of events and checks
//!    convergence and safety invariants on each reached state. Pure
//!    machines make states clonable and hashable, which is what makes
//!    that search tractable.
//! 3. **The live transport** ([`crate::runtime`]), which wraps the same
//!    machines in real UDP sockets and wall-clock timers, many sessions
//!    per socket, without touching the protocol logic.
//!
//! The long-standing imperative methods (`publish`, `on_packet`, …)
//! remain available as thin compatibility shims that construct the
//! corresponding event and delegate to `step`.

use crate::namespace::{MetaTag, NodeId};
use crate::wire::Packet;
use softstate::Key;
use ss_netsim::SimTime;

/// One input to the sender state machine.
#[derive(Clone, Debug)]
pub enum SenderEvent<'a> {
    /// The application publishes a new ADU under `parent`.
    /// `payload_len: None` uses the sender's configured default size.
    Publish {
        /// Arrival time (stamps the publisher-table record).
        now: SimTime,
        /// Namespace node the ADU hangs off.
        parent: NodeId,
        /// Application content class.
        tag: MetaTag,
        /// Explicit payload size, or `None` for the default.
        payload_len: Option<u32>,
    },
    /// The application replaces a live record with a new version.
    Update(Key),
    /// The application withdraws a record (its lifetime ended).
    Withdraw(Key),
    /// The application grows the namespace with an interior node.
    AddBranch {
        /// Parent node of the new branch.
        parent: NodeId,
        /// The branch's content class.
        tag: MetaTag,
    },
    /// The application re-weights a data class's hot bandwidth share.
    SetClassWeight {
        /// The class to re-weight.
        tag: MetaTag,
        /// New stride weight (0 pauses the class).
        weight: u64,
    },
    /// A packet arrived on the feedback channel.
    Feedback(&'a Packet),
    /// The transport has room for one foreground packet.
    PollHot,
    /// The transport has room for one background (cold-cycle) packet.
    PollCycle,
    /// The periodic summary timer fired.
    PollSummary,
}

/// What one sender step produced.
#[derive(Clone, Debug)]
pub enum SenderEffect {
    /// Nothing observable (weight change, ignored packet, …).
    None,
    /// A publish created this key.
    Published(Key),
    /// A branch was added.
    Branch(NodeId),
    /// Whether the withdrawn key was live.
    Withdrawn(bool),
    /// Keys a NACK promoted into the hot queue.
    Promoted(Vec<Key>),
    /// A packet to transmit (or `None` when the polled queue was empty).
    Transmit(Option<Packet>),
}

/// One input to the receiver state machine.
#[derive(Clone, Debug)]
pub enum ReceiverEvent<'a> {
    /// A packet heard on the data channel (or an overheard peer feedback
    /// packet, for multicast damping).
    Packet {
        /// Arrival time.
        now: SimTime,
        /// The packet.
        pkt: &'a Packet,
    },
    /// The session asks for all feedback due at or before `now`.
    PollFeedback {
        /// The poll instant.
        now: SimTime,
    },
    /// The soft-state expiry sweep runs at `now`.
    Expire {
        /// The sweep instant.
        now: SimTime,
    },
}

/// What one receiver step produced.
#[derive(Clone, Debug)]
pub enum ReceiverEffect {
    /// Nothing to transmit or report.
    None,
    /// Feedback packets to send (queries first, then batched NACKs).
    Feedback(Vec<Packet>),
    /// Keys the expiry sweep removed.
    Expired(Vec<Key>),
}

/// A machine invariant violation found by a self-check, as
/// `(what, detail)`. Produced by [`crate::sender::SstpSender::self_check`]
/// and [`crate::receiver::SstpReceiver::self_check`]; the `ss-verify`
/// explorer treats any of these as a counterexample.
pub type MachineError = String;

/// An FNV-1a 64 accumulator for protocol-state fingerprints.
///
/// The endpoint machines hash their *semantic* state — tables, queues,
/// pending feedback, reassembly edges — and deliberately exclude
/// monotone counters (wire sequence numbers, statistics, event logs):
/// including those would make every reachable state unique and defeat
/// the explorer's visited-state deduplication.
#[derive(Clone, Copy, Debug)]
pub struct StateHasher(u64);

impl StateHasher {
    /// A fresh accumulator at the FNV-1a offset basis.
    pub fn new() -> Self {
        StateHasher(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one u64 into the hash.
    // lint: allow(D008, hash accumulator, not protocol state)
    pub fn write_u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds raw bytes into the hash.
    // lint: allow(D008, hash accumulator, not protocol state)
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The accumulated hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for StateHasher {
    fn default() -> Self {
        StateHasher::new()
    }
}

/// Seeded protocol defects for mutation-testing the `ss-verify` explorer.
///
/// All flags default to off, in which case the machines behave exactly as
/// shipped (the session harness never sets them). Each flag re-introduces
/// one plausible implementation bug; the explorer's test suite asserts
/// that every one of them is caught by an invariant.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxMutations {
    /// Drop the NACK → hot-queue promotion edge (Figure 7's Cold → Hot).
    pub drop_promotions: bool,
    /// Skip hot-queue dedup: every enqueue appends, even when queued.
    pub no_queue_dedup: bool,
    /// Freeze the root summary digest at its first emitted value.
    pub frozen_summary_digest: bool,
    /// Reuse sequence number 0 for every packet (non-monotone seq).
    pub reuse_seq: bool,
}

/// Seeded receiver defects (see [`TxMutations`]).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RxMutations {
    /// Accept stale fragments: an older version overwrites a newer one.
    pub accept_stale: bool,
    /// Remove the exponential-backoff cap (2^n instead of 2^min(n,4)).
    pub no_backoff_cap: bool,
    /// Keep a pending NACK alive after the data it asked for arrives.
    pub keep_pending_on_install: bool,
    /// Expire entries at half their TTL (off-by-one-style early expiry).
    pub expire_early: bool,
}
