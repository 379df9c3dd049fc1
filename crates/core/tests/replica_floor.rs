//! Equivalence of the O(1) whole-replica refresh with the per-entry walk
//! it replaces: random `apply`/`remove`/`refresh_all`/`expire_until`
//! sequences at non-decreasing times drive [`SubscriberTable`] and a
//! naive reference that re-arms every entry on `refresh_all` and sweeps
//! every entry on `expire_until`. After every operation the two must
//! report the same expired keys and the same entries, deadlines
//! included.

use proptest::prelude::*;
use softstate::{Key, ReplicaEntry, SubscriberTable, Value};
use ss_netsim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// The pre-floor replica: every deadline is stored in its entry.
struct Naive {
    entries: BTreeMap<Key, ReplicaEntry>,
    ttl: SimDuration,
}

impl Naive {
    fn apply(&mut self, now: SimTime, key: Key, value: Value) -> bool {
        let deadline = now + self.ttl;
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.expires_at = deadline;
                if value.version > e.value.version {
                    e.value = value;
                    true
                } else {
                    false
                }
            }
            None => {
                self.entries.insert(
                    key,
                    ReplicaEntry {
                        value,
                        expires_at: deadline,
                        first_received: now,
                    },
                );
                true
            }
        }
    }

    fn refresh_all(&mut self, now: SimTime) {
        for e in self.entries.values_mut() {
            e.expires_at = now + self.ttl;
        }
    }

    fn expire_until(&mut self, horizon: SimTime) -> Vec<Key> {
        let dead: Vec<Key> = self
            .entries
            .iter()
            .filter(|(_, e)| e.expires_at <= horizon)
            .map(|(&k, _)| k)
            .collect();
        for k in &dead {
            self.entries.remove(k);
        }
        dead
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Advance the clock by `dt` ms, then apply `(key, version)`.
    Apply {
        dt: u64,
        key: u64,
        version: u64,
    },
    Remove {
        key: u64,
    },
    /// Advance by `dt` ms, then refresh the whole replica.
    RefreshAll {
        dt: u64,
    },
    /// Advance by `dt` ms, then sweep up to `ahead` ms past the clock
    /// (a sweep horizon may run ahead of the clock; the clock does not
    /// follow it).
    Expire {
        dt: u64,
        ahead: u64,
    },
}

const KEYS: u64 = 12;
const TTL_MS: u64 = 100;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..60, 0..KEYS, 1u64..4).prop_map(|(dt, key, version)| Op::Apply { dt, key, version }),
        (0..KEYS).prop_map(|key| Op::Remove { key }),
        (0u64..60).prop_map(|dt| Op::RefreshAll { dt }),
        (0u64..150, prop_oneof![Just(0u64), 0u64..80])
            .prop_map(|(dt, ahead)| Op::Expire { dt, ahead }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn floor_table_matches_per_entry_walk(ops in prop::collection::vec(arb_op(), 1..120)) {
        let ttl = SimDuration::from_millis(TTL_MS);
        let mut table = SubscriberTable::new(ttl);
        let mut naive = Naive { entries: BTreeMap::new(), ttl };
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Apply { dt, key, version } => {
                    now += SimDuration::from_millis(dt);
                    let value = Value { version, payload_len: 8 };
                    prop_assert_eq!(
                        table.apply(now, Key(key), value),
                        naive.apply(now, Key(key), value)
                    );
                }
                Op::Remove { key } => {
                    prop_assert_eq!(table.remove(Key(key)), naive.entries.remove(&Key(key)));
                }
                Op::RefreshAll { dt } => {
                    now += SimDuration::from_millis(dt);
                    table.refresh_all(now);
                    naive.refresh_all(now);
                }
                Op::Expire { dt, ahead } => {
                    now += SimDuration::from_millis(dt);
                    let horizon = now + SimDuration::from_millis(ahead);
                    prop_assert_eq!(table.expire_until(horizon), naive.expire_until(horizon));
                }
            }
            let got: Vec<(Key, ReplicaEntry)> = table.entries().map(|(k, e)| (*k, e)).collect();
            let want: Vec<(Key, ReplicaEntry)> =
                naive.entries.iter().map(|(k, e)| (*k, *e)).collect();
            prop_assert_eq!(got, want);
            for k in 0..KEYS {
                prop_assert_eq!(table.get(Key(k)), naive.entries.get(&Key(k)).copied());
            }
            prop_assert_eq!(table.len(), naive.entries.len());
        }
    }
}
