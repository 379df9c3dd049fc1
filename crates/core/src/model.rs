//! The §2 data model: an evolving table of `{key, value}` pairs.
//!
//! A *publisher* owns a [`PublisherTable`] it may insert into, update, and
//! delete from at any time; the set of records present at time `t` is the
//! *live data set* `L(t)`. One or more *subscribers* each maintain a
//! [`SubscriberTable`] replica fed by announcements; every stored entry
//! carries an expiration deadline, and an entry whose deadline passes
//! without a refresh is deleted (the soft-state expiry rule).

use ss_netsim::{SimDuration, SimTime};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Identifies a record in the table. Keys are opaque 64-bit names; the
/// hierarchical namespaces of SSTP (§6.2) layer structure on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u64);

/// A record's value. The consistency metric only needs equality between
/// the publisher's and a subscriber's value for a key, so a version stamp
/// stands in for arbitrary bytes; `payload_len` sizes the announcement
/// packet carrying it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Value {
    /// Monotone version of this key's data (bumped on every update).
    pub version: u64,
    /// Size of the application payload in bytes.
    pub payload_len: u32,
}

impl Value {
    /// A first-version value of the given payload size.
    pub fn initial(payload_len: u32) -> Self {
        Value {
            version: 1,
            payload_len,
        }
    }

    /// The next version of this value (same size).
    pub fn bumped(self) -> Self {
        Value {
            version: self.version + 1,
            payload_len: self.payload_len,
        }
    }
}

/// One live record at the publisher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    /// The record's key.
    pub key: Key,
    /// The record's current value.
    pub value: Value,
    /// When this key first entered the table (for receive-latency
    /// accounting).
    pub born: SimTime,
}

/// The publisher's evolving table. Insertions, updates, and deletions are
/// timestamped so instrumentation can integrate the live set over time.
#[derive(Clone, Debug, Default)]
pub struct PublisherTable {
    records: BTreeMap<Key, Record>,
    next_key: u64,
    inserts: u64,
    updates: u64,
    deletes: u64,
}

impl PublisherTable {
    /// An empty table.
    pub fn new() -> Self {
        PublisherTable::default()
    }

    /// Inserts a brand-new record with a fresh key; returns it.
    pub fn insert_new(&mut self, now: SimTime, payload_len: u32) -> Record {
        let key = Key(self.next_key);
        self.next_key += 1;
        let rec = Record {
            key,
            value: Value::initial(payload_len),
            born: now,
        };
        self.records.insert(key, rec);
        self.inserts += 1;
        rec
    }

    /// Inserts a record under a caller-chosen key. Panics if the key is
    /// already live (use [`PublisherTable::update`] for updates).
    pub fn insert(&mut self, now: SimTime, key: Key, payload_len: u32) -> Record {
        let rec = Record {
            key,
            value: Value::initial(payload_len),
            born: now,
        };
        match self.records.entry(key) {
            Entry::Occupied(_) => panic!("key {key:?} already live"),
            Entry::Vacant(v) => {
                v.insert(rec);
            }
        }
        self.next_key = self.next_key.max(key.0 + 1);
        self.inserts += 1;
        rec
    }

    /// Updates an existing record to a new version; returns the new record.
    /// Panics if the key is not live.
    pub fn update(&mut self, key: Key) -> Record {
        let rec = self
            .records
            .get_mut(&key)
            .unwrap_or_else(|| panic!("update of dead key {key:?}"));
        rec.value = rec.value.bumped();
        self.updates += 1;
        *rec
    }

    /// Deletes a record (its lifetime ended); returns it if it was live.
    pub fn delete(&mut self, key: Key) -> Option<Record> {
        let r = self.records.remove(&key);
        if r.is_some() {
            self.deletes += 1;
        }
        r
    }

    /// The current value of `key`, if live.
    pub fn get(&self, key: Key) -> Option<&Record> {
        self.records.get(&key)
    }

    /// Number of live records, `|L(t)|`.
    pub fn live_count(&self) -> usize {
        self.records.len()
    }

    /// Iterates the live data set in ascending key order.
    pub fn live(&self) -> impl Iterator<Item = &Record> {
        self.records.values()
    }

    /// Lifetime counters: `(inserts, updates, deletes)`.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (self.inserts, self.updates, self.deletes)
    }
}

/// One entry in a subscriber's replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaEntry {
    /// The value most recently received for this key.
    pub value: Value,
    /// The soft-state deadline: the entry is deleted if no refresh arrives
    /// before this instant.
    pub expires_at: SimTime,
    /// When this key was first successfully received (receive latency).
    pub first_received: SimTime,
}

/// A subscriber's soft-state replica with per-entry expiration timers.
///
/// Callers drive expiry explicitly via [`SubscriberTable::expire_until`]
/// (typically from a periodic sweep event or before reads), keeping the
/// table independent of any particular event loop.
///
/// A whole-replica refresh ([`SubscriberTable::refresh_all`]) is O(1): it
/// raises a replica-wide *floor* instead of re-arming every entry, and an
/// entry's effective deadline is the later of its own deadline and the
/// floor. [`SubscriberTable::get`] and [`SubscriberTable::entries`] report
/// that effective deadline, so the floor is invisible to readers. This
/// relies on time never running backwards across calls: every `now`
/// passed to `apply` and `refresh_all` is at least the previous
/// `refresh_all`'s `now` (both the simulator clock and the runtime's wall
/// clock guarantee it).
#[derive(Clone, Debug)]
pub struct SubscriberTable {
    entries: BTreeMap<Key, ReplicaEntry>,
    ttl: SimDuration,
    /// Deadline of the last whole-replica refresh: no entry expires
    /// before it.
    floor: SimTime,
    expirations: u64,
    refreshes: u64,
}

impl SubscriberTable {
    /// A replica whose entries expire `ttl` after their last refresh.
    pub fn new(ttl: SimDuration) -> Self {
        assert!(!ttl.is_zero(), "zero TTL would expire entries instantly");
        SubscriberTable {
            entries: BTreeMap::new(),
            ttl,
            floor: SimTime::ZERO,
            expirations: 0,
            refreshes: 0,
        }
    }

    /// The configured time-to-live.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// `e` with its deadline raised to the replica-wide floor.
    fn effective(&self, e: &ReplicaEntry) -> ReplicaEntry {
        ReplicaEntry {
            expires_at: e.expires_at.max(self.floor),
            ..*e
        }
    }

    /// Applies a received announcement for `(key, value)` at `now`:
    /// installs or refreshes the entry and re-arms its timer.
    /// Returns `true` when this reception changed the stored value
    /// (first receipt or a newer version).
    pub fn apply(&mut self, now: SimTime, key: Key, value: Value) -> bool {
        debug_assert!(now + self.ttl >= self.floor, "time ran backwards");
        self.refreshes += 1;
        match self.entries.entry(key) {
            Entry::Occupied(mut o) => {
                let e = o.get_mut();
                e.expires_at = now + self.ttl;
                if value.version > e.value.version {
                    e.value = value;
                    true
                } else {
                    false
                }
            }
            Entry::Vacant(v) => {
                v.insert(ReplicaEntry {
                    value,
                    expires_at: now + self.ttl,
                    first_received: now,
                });
                true
            }
        }
    }

    /// Explicitly removes a key (e.g. on an authoritative delete
    /// announcement). Returns the removed entry.
    pub fn remove(&mut self, key: Key) -> Option<ReplicaEntry> {
        let e = self.entries.remove(&key)?;
        Some(self.effective(&e))
    }

    /// Re-arms every entry's expiration timer from `now`. Used when a
    /// summary announcement confirms the publisher is alive and a repair
    /// channel exists to reconcile any divergence: the summary then acts
    /// as the soft-state refresh for the whole replica. O(1): it raises
    /// the replica-wide floor to `now + ttl`. `now` must not be earlier
    /// than any previous `refresh_all`'s.
    pub fn refresh_all(&mut self, now: SimTime) {
        debug_assert!(now + self.ttl >= self.floor, "time ran backwards");
        self.floor = now + self.ttl;
    }

    /// Deletes every entry whose deadline is at or before `now`; returns
    /// the expired keys in ascending order (the map iterates sorted).
    /// While the floor lies beyond `now` nothing can be due, and the
    /// sweep returns without walking the replica.
    pub fn expire_until(&mut self, now: SimTime) -> Vec<Key> {
        if self.floor > now {
            return Vec::new();
        }
        // With the floor at or before `now`, an entry's effective
        // deadline is due exactly when its own deadline is.
        let dead: Vec<Key> = self
            .entries
            .iter()
            .filter(|(_, e)| e.expires_at <= now)
            .map(|(&k, _)| k)
            .collect();
        for k in &dead {
            self.entries.remove(k);
            self.expirations += 1;
        }
        dead
    }

    /// The entry for `key`, if present (ignoring expiry; sweep first),
    /// with its effective deadline.
    pub fn get(&self, key: Key) -> Option<ReplicaEntry> {
        self.entries.get(&key).map(|e| self.effective(e))
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the replica is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates stored entries, with their effective deadlines, in
    /// ascending key order.
    pub fn entries(&self) -> impl Iterator<Item = (&Key, ReplicaEntry)> + '_ {
        self.entries.iter().map(|(k, e)| (k, self.effective(e)))
    }

    /// Lifetime counters: `(refreshes applied, expirations)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.refreshes, self.expirations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publisher_lifecycle() {
        let mut t = PublisherTable::new();
        let r1 = t.insert_new(SimTime::ZERO, 100);
        let r2 = t.insert_new(SimTime::from_secs(1), 200);
        assert_ne!(r1.key, r2.key);
        assert_eq!(t.live_count(), 2);

        let r1b = t.update(r1.key);
        assert_eq!(r1b.value.version, 2);
        assert_eq!(t.get(r1.key).unwrap().value.version, 2);

        assert!(t.delete(r1.key).is_some());
        assert!(t.delete(r1.key).is_none());
        assert_eq!(t.live_count(), 1);
        assert_eq!(t.op_counts(), (2, 1, 1));
    }

    #[test]
    fn explicit_keys_do_not_collide_with_fresh() {
        let mut t = PublisherTable::new();
        t.insert(SimTime::ZERO, Key(10), 50);
        let r = t.insert_new(SimTime::ZERO, 50);
        assert!(r.key.0 > 10);
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn duplicate_insert_panics() {
        let mut t = PublisherTable::new();
        t.insert(SimTime::ZERO, Key(1), 10);
        t.insert(SimTime::ZERO, Key(1), 10);
    }

    #[test]
    #[should_panic(expected = "dead key")]
    fn update_dead_key_panics() {
        let mut t = PublisherTable::new();
        t.update(Key(9));
    }

    #[test]
    fn subscriber_applies_and_refreshes() {
        let mut s = SubscriberTable::new(SimDuration::from_secs(30));
        let v1 = Value::initial(100);
        assert!(s.apply(SimTime::ZERO, Key(1), v1), "first receipt changes");
        assert!(!s.apply(SimTime::from_secs(5), Key(1), v1), "refresh only");
        assert!(
            s.apply(SimTime::from_secs(6), Key(1), v1.bumped()),
            "newer version changes"
        );
        // Stale duplicate (e.g. reordered retransmission) must not regress.
        assert!(!s.apply(SimTime::from_secs(7), Key(1), v1));
        assert_eq!(s.get(Key(1)).unwrap().value.version, 2);
        assert_eq!(s.counters().0, 4);
    }

    #[test]
    fn expiry_honors_refresh() {
        let mut s = SubscriberTable::new(SimDuration::from_secs(10));
        s.apply(SimTime::ZERO, Key(1), Value::initial(10));
        s.apply(SimTime::ZERO, Key(2), Value::initial(10));
        // Refresh key 1 at t=8; key 2 goes silent.
        s.apply(SimTime::from_secs(8), Key(1), Value::initial(10));
        let dead = s.expire_until(SimTime::from_secs(12));
        assert_eq!(dead, vec![Key(2)]);
        assert!(s.get(Key(1)).is_some());
        assert_eq!(s.len(), 1);
        // Key 1 now dies at 18.
        let dead = s.expire_until(SimTime::from_secs(18));
        assert_eq!(dead, vec![Key(1)]);
        assert!(s.is_empty());
        assert_eq!(s.counters().1, 2);
    }

    #[test]
    fn expiry_is_sorted_and_idempotent() {
        let mut s = SubscriberTable::new(SimDuration::from_secs(1));
        for k in [5u64, 3, 9] {
            s.apply(SimTime::ZERO, Key(k), Value::initial(1));
        }
        let dead = s.expire_until(SimTime::from_secs(2));
        assert_eq!(dead, vec![Key(3), Key(5), Key(9)]);
        assert!(s.expire_until(SimTime::from_secs(3)).is_empty());
    }

    #[test]
    fn first_received_is_sticky() {
        let mut s = SubscriberTable::new(SimDuration::from_secs(100));
        s.apply(SimTime::from_secs(2), Key(1), Value::initial(10));
        s.apply(SimTime::from_secs(9), Key(1), Value::initial(10));
        assert_eq!(s.get(Key(1)).unwrap().first_received, SimTime::from_secs(2));
    }
}
