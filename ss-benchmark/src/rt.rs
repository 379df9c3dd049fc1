//! `rt-loopback`: the live write path.
//!
//! Two `sstp::runtime::Runtime`s, a publisher node and a subscriber node,
//! carry `SESSIONS` sessions of `RECORDS` records each over loopback UDP
//! with `INGRESS_LOSS` injected at both ingresses. One thread drives both
//! nodes. An open-loop generator updates seeded uniform `(session,
//! record)` pairs at `RATE` updates per second, whatever the runtime
//! does, and each update's publish→install latency is timed from the
//! instant it was due.

use crate::stats::{beyond, Samples};
use crate::trace::SpanLog;
use crate::{host, Outcome};
use softstate::Key;
use ss_netsim::{LossSpec, MetricsSnapshot, SimDuration, SimRng, SimTime};
use sstp::digest::HashAlgorithm;
use sstp::namespace::MetaTag;
use sstp::receiver::ReceiverConfig;
use sstp::runtime::{wait, Runtime, RuntimeConfig};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

const SESSIONS: usize = 1000;
const RECORDS: usize = 20;
/// Offered load, updates per second.
const RATE: f64 = 2000.0;
const INGRESS_LOSS: f64 = 0.05;
/// An update not installed this long after it was due counts as failed.
const MISS_AFTER: Duration = Duration::from_secs(2);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed open-loop warm-up between set-up and the timed window, in s.
const WARMUP_S: f64 = 1.0;
/// Longest a set-up or the final drain may take to converge.
const CONVERGE_LIMIT: Duration = Duration::from_secs(60);
/// Receiver repair backoff. At 100 ms a few updates per ten seconds take
/// longer than `MISS_AFTER` at 5% loss, and at 30 ms about one in 300,000
/// still does.
const REPAIR_BACKOFF: SimDuration = SimDuration::from_millis(20);

/// Runtime counters reported per layer, summed over both nodes.
const COUNTERS: [&str; 9] = [
    "runtime.ingress.datagrams",
    "runtime.egress.datagrams",
    "runtime.loss.injected",
    "runtime.decode.errors",
    "runtime.shed.cold",
    "runtime.shed.hot",
    "runtime.backpressure.drops",
    "runtime.throttled",
    "runtime.probe.sent",
];

/// A publisher node and its subscriber node, with every session's keys.
struct Pair {
    publisher: Runtime,
    subscriber: Runtime,
    /// The subscriber's socket, which the loop waits on: data arrives there.
    sub_sock: UdpSocket,
    keys: Vec<[Key; RECORDS]>,
}

fn loopback() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

/// Binds both nodes, adds every session, publishes every record and
/// drives the pair until each replica matches its publisher table.
fn setup(seed: u64) -> io::Result<Pair> {
    let mut pc = RuntimeConfig::loopback(loopback(), loopback());
    pc.seed = seed;
    pc.ingress_loss = LossSpec::Bernoulli(INGRESS_LOSS);
    let mut publisher = Runtime::bind(pc)?;
    let mut sc = RuntimeConfig::loopback(loopback(), publisher.local_addr()?);
    sc.seed = seed ^ 0x5eed;
    sc.ingress_loss = LossSpec::Bernoulli(INGRESS_LOSS);
    let mut subscriber = Runtime::bind(sc)?;
    publisher.set_peer(subscriber.local_addr()?);
    for i in 0..SESSIONS {
        publisher.add_publisher(HashAlgorithm::Fnv64, 64);
        let mut rc = ReceiverConfig::unicast(i as u32, HashAlgorithm::Fnv64);
        rc.repair_backoff = REPAIR_BACKOFF;
        subscriber.add_subscriber(rc);
    }
    let mut keys = Vec::with_capacity(SESSIONS);
    for sid in 0..SESSIONS as u32 {
        let now = publisher.now();
        let tx = publisher.publisher_mut(sid).expect("publisher session");
        let root = tx.root();
        keys.push(std::array::from_fn(|j| {
            tx.publish(now, root, MetaTag(j as u32 % 4))
        }));
    }
    let sub_sock = subscriber.try_clone_socket()?;
    let mut pair = Pair {
        publisher,
        subscriber,
        sub_sock,
        keys,
    };
    converge(&mut pair)?;
    Ok(pair)
}

/// Records whose subscriber replica lacks the publisher's version.
fn diverged(p: &Pair) -> u64 {
    let mut bad = 0;
    for sid in 0..SESSIONS as u32 {
        let tx = p.publisher.publisher(sid).expect("publisher session");
        let rx = p.subscriber.subscriber(sid).expect("subscriber session");
        for rec in tx.table().live() {
            match rx.replica().get(rec.key) {
                Some(e) if e.value.version == rec.value.version => {}
                _ => bad += 1,
            }
        }
    }
    bad
}

/// Time until the earlier of two nodes' poll deadlines.
fn until(p: &Pair, pub_deadline: SimTime, sub_deadline: SimTime) -> Duration {
    let a = pub_deadline.saturating_since(p.publisher.now());
    let b = sub_deadline.saturating_since(p.subscriber.now());
    Duration::from_micros(a.min(b).as_micros())
}

/// Polls both nodes and waits for the next deadline until no record diverges.
fn converge(p: &mut Pair) -> io::Result<()> {
    let t0 = Instant::now();
    loop {
        for _ in 0..10 {
            let dp = p.publisher.poll()?;
            let ds = p.subscriber.poll()?;
            let timeout = until(p, dp, ds);
            if !timeout.is_zero() {
                wait::wait_for_datagram(&p.sub_sock, timeout)?;
            }
        }
        let left = diverged(p);
        if left == 0 {
            return Ok(());
        }
        if t0.elapsed() > CONVERGE_LIMIT {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{left} records still diverged after {CONVERGE_LIMIT:?}"),
            ));
        }
    }
}

/// One scheduled update: due `due_us` after the window opens.
#[derive(Clone, Copy)]
struct Update {
    due_us: u64,
    sid: u32,
    rec: u8,
}

/// The seeded open-loop schedule: `RATE` evenly spaced updates per
/// second of `seconds`, each to a uniform `(session, record)`.
fn schedule(rng: &mut SimRng, seconds: f64) -> Vec<Update> {
    let n = (RATE * seconds).round() as u64;
    (0..n)
        .map(|i| Update {
            due_us: (i as f64 * 1e6 / RATE) as u64,
            sid: rng.below(SESSIONS as u64) as u32,
            rec: rng.below(RECORDS as u64) as u8,
        })
        .collect()
}

/// An issued update not yet seen installed.
struct Pending {
    idx: u64,
    sid: u32,
    key: Key,
    version: u64,
    due: Instant,
}

#[derive(Default)]
struct WindowStats {
    /// Publish→install latency of each install, in ms, timed from due.
    latency_ms: Samples,
    misses: u64,
    /// Wall time, CPU time and installs from the window's start to the
    /// first loop pass after its nominal end (the drain comes after).
    window_s: f64,
    cpu_s: f64,
    installs_in_window: u64,
    lag_max_ms: f64,
    check_us: Samples,
    /// `(requested, actual)` of each socket wait, in µs (traced only).
    waits: Vec<(f64, f64)>,
}

/// Runs one open-loop window: issues `sched`, polls both nodes, waits on
/// the subscriber socket until the next due update or node deadline, and
/// watches only the outstanding updates for installs. Returns once every
/// update is installed or has missed.
fn window(
    p: &mut Pair,
    sched: &[Update],
    seconds: f64,
    log: &mut SpanLog,
) -> io::Result<WindowStats> {
    let mut st = WindowStats::default();
    let mut outstanding: Vec<Pending> = Vec::new();
    let mut next = 0usize;
    let mut installed = 0u64;
    let span = log.open("harness.window", u64::MAX);
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let window_end = start + Duration::from_secs_f64(seconds);
    let due = |u: &Update| start + Duration::from_micros(u.due_us);
    loop {
        let now = Instant::now();
        while let Some(u) = sched.get(next).filter(|u| due(u) <= now) {
            let d = due(u);
            st.lag_max_ms = st.lag_max_ms.max((now - d).as_secs_f64() * 1e3);
            let key = p.keys[u.sid as usize][u.rec as usize];
            let tx = p.publisher.publisher_mut(u.sid).expect("publisher session");
            let version = log.span_id("sstp.sender.update", next as u64, || {
                tx.update(key);
                tx.table()
                    .get(key)
                    .expect("updated key is live")
                    .value
                    .version
            });
            outstanding.push(Pending {
                idx: next as u64,
                sid: u.sid,
                key,
                version,
                due: d,
            });
            next += 1;
        }
        let dp = log.span("runtime.poll.pub", || p.publisher.poll())?;
        let ds = log.span("runtime.poll.sub", || p.subscriber.poll())?;
        let seen = Instant::now();
        let check = log.open("harness.install_check", u64::MAX);
        let sub = &p.subscriber;
        outstanding.retain(|o| {
            let rx = sub.subscriber(o.sid).expect("subscriber session");
            if rx
                .replica()
                .get(o.key)
                .is_some_and(|e| e.value.version >= o.version)
            {
                st.latency_ms.push((seen - o.due).as_secs_f64() * 1e3);
                installed += 1;
                false
            } else if seen - o.due > MISS_AFTER {
                eprintln!(
                    "update {} to session {} missed its install deadline",
                    o.idx, o.sid
                );
                st.misses += 1;
                false
            } else {
                true
            }
        });
        log.close(check);
        st.check_us.push(seen.elapsed().as_secs_f64() * 1e6);
        if st.window_s == 0.0 && seen >= window_end {
            st.window_s = (seen - start).as_secs_f64();
            st.cpu_s = host::cpu_seconds() - cpu0;
            st.installs_in_window = installed;
        }
        if next == sched.len() && outstanding.is_empty() && st.window_s > 0.0 {
            break;
        }
        let mut timeout = until(p, dp, ds);
        if let Some(u) = sched.get(next) {
            timeout = timeout.min(due(u).saturating_duration_since(Instant::now()));
        }
        if !timeout.is_zero() {
            let t = Instant::now();
            log.span("runtime.wait", || {
                wait::wait_for_datagram(&p.sub_sock, timeout)
            })?;
            if log.is_enabled() {
                let waited = t.elapsed().as_secs_f64() * 1e6;
                st.waits.push((timeout.as_secs_f64() * 1e6, waited));
            }
        }
    }
    log.close(span);
    Ok(st)
}

/// `(data_rx, data_applied, nacks_rx, nacks_suppressed)` over all sessions.
fn endpoint_counts(p: &Pair) -> [u64; 4] {
    let mut c = [0u64; 4];
    for sid in 0..SESSIONS as u32 {
        let rx = p
            .subscriber
            .subscriber(sid)
            .expect("subscriber session")
            .stats();
        let tx = p
            .publisher
            .publisher(sid)
            .expect("publisher session")
            .stats();
        c[0] += rx.data_rx;
        c[1] += rx.data_applied;
        c[2] += tx.nacks_rx;
        c[3] += tx.nacks_suppressed;
    }
    c
}

pub fn run(seed: u64, seconds: u64, traced: bool, out: &mut Outcome) -> io::Result<()> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut pair = None;
    for i in 0..SETUPS as u64 {
        drop(pair.take());
        let t = Instant::now();
        pair = Some(setup(seed.wrapping_mul(31).wrapping_add(i))?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut p = pair.expect("at least one set-up");
    setups.sort_by(f64::total_cmp);
    out.e2e("setup_s", setups[SETUPS / 2]);

    let seconds = seconds as f64;
    let half = if traced { seconds / 2.0 } else { seconds };
    let mut rng = SimRng::new(seed);
    let mut log = SpanLog::new();
    // The first second of updates after convergence costs more CPU than
    // the rest; it runs untimed so both measured halves start warm.
    let warm = schedule(&mut rng, WARMUP_S);
    let w = window(&mut p, &warm, WARMUP_S, &mut log)?;
    let sched = schedule(&mut rng, half);
    let mut base = window(&mut p, &sched, half, &mut log)?;
    out.e2e("peak_rss_mb", host::peak_rss_mb());
    out.attempted = (warm.len() + sched.len()) as u64;
    out.failed = w.misses + base.misses;
    out.e2e(
        "events_per_s",
        base.installs_in_window as f64 / base.window_s,
    );
    out.e2e(
        "cpu_us_per_event",
        base.cpu_s * 1e6 / base.installs_in_window.max(1) as f64,
    );
    let n = base.latency_ms.len();
    for (name, q) in [
        ("latency_p50_ms", 0.5),
        ("latency_p99_ms", 0.99),
        ("latency_p999_ms", 0.999),
    ] {
        out.e2e(name, base.latency_ms.quantile(q));
        out.note(format!(
            "{name}: {n} installs timed from due, {} beyond it",
            beyond(n, q)
        ));
    }
    out.note(format!(
        "install_miss_ratio: {} of {} updates not installed within {MISS_AFTER:?} of due",
        base.misses,
        sched.len()
    ));
    out.note(format!(
        "window: {:.3} s, {} installs in it, {:.3} s CPU, generator lag max {:.3} ms",
        base.window_s, base.installs_in_window, base.cpu_s, base.lag_max_ms
    ));

    if traced {
        let before = [
            p.publisher.metrics_snapshot(),
            p.subscriber.metrics_snapshot(),
        ];
        let ep0 = endpoint_counts(&p);
        let sched = schedule(&mut rng, half);
        log.set_enabled(true);
        let tw = window(&mut p, &sched, half, &mut log)?;
        log.set_enabled(false);
        out.attempted += sched.len() as u64;
        out.failed += tw.misses;
        out.trace_overhead(
            base.installs_in_window as f64 / base.cpu_s,
            tw.installs_in_window as f64 / tw.cpu_s,
        );
        report_layers(&mut p, &log, &tw, &before, ep0, out);
        out.write_trace(&log, "", None);
    }

    converge(&mut p)?;
    for rt in [&mut p.publisher, &mut p.subscriber] {
        let errors = rt.metrics_snapshot().counter("runtime.decode.errors");
        if errors > 0 {
            out.fail(format!("{errors} datagrams failed to decode"));
        }
    }
    Ok(())
}

fn report_layers(
    p: &mut Pair,
    log: &SpanLog,
    tw: &WindowStats,
    before: &[MetricsSnapshot; 2],
    ep0: [u64; 4],
    out: &mut Outcome,
) {
    let after = [
        p.publisher.metrics_snapshot(),
        p.subscriber.metrics_snapshot(),
    ];
    let mut datagrams = 0;
    for name in COUNTERS {
        let delta: u64 = after
            .iter()
            .zip(before)
            .map(|(a, b)| a.counter(name) - b.counter(name))
            .sum();
        if name.ends_with(".datagrams") {
            datagrams += delta;
        }
        out.layer(name, delta as f64);
    }
    out.layer(
        "runtime.inbox.high_water",
        p.publisher
            .inbox_high_water()
            .max(p.subscriber.inbox_high_water()) as f64,
    );
    out.layer(
        "runtime.outbox.high_water",
        p.publisher
            .outbox_high_water()
            .max(p.subscriber.outbox_high_water()) as f64,
    );
    let ep1 = endpoint_counts(p);
    let d = |i: usize| (ep1[i] - ep0[i]) as f64;
    out.layer("sstp.receiver.useful_ratio", d(1) / d(0).max(1.0));
    out.layer("sstp.sender.nack_suppressed_ratio", d(3) / d(2).max(1.0));

    let us = |name: &str| {
        let mut s = Samples::default();
        for v in log.durations(name) {
            s.push(v * 1e6);
        }
        s
    };
    let (mut pub_us, mut sub_us) = (us("runtime.poll.pub"), us("runtime.poll.sub"));
    out.layer("runtime.poll.pub_us.p50", pub_us.quantile(0.5));
    out.layer("runtime.poll.pub_us.p99", pub_us.quantile(0.99));
    out.layer("runtime.poll.sub_us.p50", sub_us.quantile(0.5));
    out.layer("runtime.poll.sub_us.p99", sub_us.quantile(0.99));
    out.note(format!(
        "runtime.poll: {} publisher and {} subscriber polls, p99 {} and {} beyond",
        pub_us.len(),
        sub_us.len(),
        beyond(pub_us.len(), 0.99),
        beyond(sub_us.len(), 0.99)
    ));
    let poll_ns = (pub_us.mean() * pub_us.len() as f64 + sub_us.mean() * sub_us.len() as f64) * 1e3;
    out.layer(
        "runtime.poll.ns_per_session",
        (pub_us.mean() + sub_us.mean()) * 1e3 / (2 * SESSIONS) as f64,
    );
    out.layer("runtime.ns_per_datagram", poll_ns / datagrams.max(1) as f64);
    let waits = tw.waits.len().max(1) as f64;
    out.layer(
        "runtime.wait.us",
        tw.waits.iter().map(|w| w.1).sum::<f64>() / waits,
    );
    out.layer(
        "runtime.wait.oversleep_us",
        tw.waits.iter().map(|w| w.1 - w.0).sum::<f64>() / waits,
    );
    out.layer("sstp.sender.update_us", us("sstp.sender.update").mean());
    out.layer("harness.generator_lag_max_ms", tw.lag_max_ms);
    out.layer("harness.install_check_us", tw.check_us.mean());
    out.note(
        "sstp.receiver.on_packet.ns/.share: the runtime calls on_packet inside poll, \
         out of reach of benchmark spans; reported as 0 on rt-loopback"
            .to_string(),
    );

    let spans = log.totals();
    let self_s = |name: &str| spans.get(name).map_or(0.0, |t| t.self_s);
    out.layer(
        "self_s.harness",
        self_s("harness.window") + self_s("harness.install_check"),
    );
    out.layer(
        "self_s.runtime.poll",
        self_s("runtime.poll.pub") + self_s("runtime.poll.sub"),
    );
    out.layer("self_s.runtime.wait", self_s("runtime.wait"));
    out.layer("self_s.sstp.sender", self_s("sstp.sender.update"));
}
