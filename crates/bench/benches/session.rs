#![allow(missing_docs)] // criterion macros generate undocumented items
//! Whole-session throughput: wall time to simulate a 300-second SSTP
//! session (sender, receiver, channels, adaptation, measurement) — the
//! unit of work behind the SSTP experiments — plus the two per-packet
//! costs on a receiver holding a large replica: a root summary acting as
//! the whole replica's soft-state refresh (followed by the expiry
//! sweep), and the root digest after a single leaf update.

use criterion::{criterion_group, criterion_main, Criterion};
use softstate::{Key, LossSpec};
use ss_netsim::{SimDuration, SimRng, SimTime};
use sstp::digest::HashAlgorithm;
use sstp::namespace::{MetaTag, Namespace};
use sstp::receiver::{ReceiverConfig, SstpReceiver};
use sstp::sender::SstpSender;
use sstp::session::{self, SessionConfig};

/// Entries in the large replica / leaves in the large namespace,
/// spread over `BRANCHES` interior nodes.
const ENTRIES: u64 = 10_000;
const BRANCHES: u64 = 100;

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("session");
    group.sample_size(10);
    group.bench_function("unicast/300s", |b| {
        b.iter(|| {
            let mut cfg = SessionConfig::unicast_default(1);
            cfg.duration = SimDuration::from_secs(300);
            session::run(&cfg).packets.data_channel_tx
        });
    });
    group.bench_function("multicast8/300s", |b| {
        b.iter(|| {
            let mut cfg = SessionConfig::unicast_default(2);
            cfg.n_receivers = 8;
            cfg.slot_window = Some(SimDuration::from_secs(1));
            cfg.data_loss = LossSpec::Bernoulli(0.2);
            cfg.duration = SimDuration::from_secs(300);
            session::run(&cfg).packets.data_channel_tx
        });
    });
    group.finish();
}

/// A receiver whose replica and mirror hold all of a sender's
/// `ENTRIES` ADUs, and the sender's (matching) root summary.
fn synced_receiver() -> (SstpReceiver, sstp::wire::Packet) {
    let mut tx = SstpSender::new(HashAlgorithm::Md5, 1000);
    let branches: Vec<_> = (0..BRANCHES)
        .map(|b| tx.add_branch(tx.root(), MetaTag(b as u32)))
        .collect();
    for k in 0..ENTRIES {
        let b = (k % BRANCHES) as usize;
        tx.publish(SimTime::ZERO, branches[b], MetaTag(b as u32));
    }
    let mut rx = SstpReceiver::new(
        ReceiverConfig::unicast(0, HashAlgorithm::Md5),
        SimRng::new(1),
    );
    while let Some(p) = tx.next_hot_packet() {
        rx.on_packet(SimTime::ZERO, &p);
    }
    assert_eq!(rx.replica().len() as u64, ENTRIES);
    (rx, tx.summary_packet())
}

fn endpoint_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("endpoint");
    group.bench_function("root_summary_and_expire/10k", |b| {
        let (mut rx, summary) = synced_receiver();
        let mut now = SimTime::ZERO;
        b.iter(|| {
            now += SimDuration::from_millis(1);
            rx.on_packet(now, &summary);
            rx.expire(now).len()
        });
        assert_eq!(
            rx.replica().len() as u64,
            ENTRIES,
            "summaries kept all alive"
        );
    });
    group.bench_function("leaf_update_root_digest/10k", |b| {
        let mut ns = Namespace::new(HashAlgorithm::Md5);
        let parents: Vec<_> = (0..BRANCHES)
            .map(|i| ns.add_interior(ns.root(), MetaTag(i as u32)))
            .collect();
        for k in 0..ENTRIES {
            let p = (k % BRANCHES) as usize;
            ns.add_adu(parents[p], Key(k), MetaTag(p as u32));
        }
        ns.root_digest();
        let mut version = 2u64;
        b.iter(|| {
            ns.update_adu(Key(version % ENTRIES), version, 1000);
            version += 1;
            ns.root_digest()
        });
    });
    group.finish();
}

criterion_group!(session_benches, benches, endpoint_benches);
criterion_main!(session_benches);
