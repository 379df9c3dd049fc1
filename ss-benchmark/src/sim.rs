//! The two simulator workloads.
//!
//! * `sim-announce` — §3–§5 core-protocol runs shaped like `fig3` (open
//!   loop), `fig5` (partitioned two-queue) and `fig11` (hot/cold with
//!   feedback). The timer-dominated path: queue pops are about a third of
//!   the wall time and the rest is protocol dispatch; `sstp` is never
//!   touched.
//! * `sim-session` — `sstp::session::run` on a 16-receiver multicast
//!   session (20% data loss, slotted feedback, long-lived records) and on
//!   unicast adaptive sessions whose records come and go. The
//!   endpoint-heavy read/refresh path; the timer wheel does little here.
//!
//! A round runs the workload's fixed list of runs once, on one thread.
//! The timed window repeats whole rounds until `--seconds` have passed.
//! Every round must reproduce the dispatched-event count and result
//! fingerprint stored in `expected.txt` for the seed's class.

use crate::stats::{beyond, Samples};
use crate::trace::SpanLog;
use crate::{host, Expected, Outcome};
use softstate::protocol::feedback::{self, FeedbackConfig};
use softstate::protocol::open_loop::{self, OpenLoopConfig};
use softstate::protocol::two_queue::{self, Sharing, TwoQueueConfig};
use softstate::{ArrivalProcess, DeathProcess, LossSpec, ServiceModel};
use ss_netsim::{profile, MetricValue, MetricsSnapshot, ProfileReport, SimDuration};
use sstp::session::{self, SessionConfig, SessionReport, SessionWorkload};
use std::time::Instant;

/// The sims draw their run seeds from `seed % SEED_CLASSES`, so that the
/// expected result of every seed can be stored with the benchmark.
const SEED_CLASSES: u64 = 16;

/// Set-up warms caches with a round whose horizons are this much shorter.
const WARMUP_DIVISOR: u64 = 4;

/// The quantile the tail-latency metrics report on the sims. A 30-s
/// window holds about 50 rounds, too few for p99 or p99.9 to have ten
/// samples beyond them; p80 has.
const TAIL_Q: f64 = 0.8;

/// Set-ups per run; `setup_s` is their median. A sim set-up takes well
/// under a second, so several are cheap and steady the median.
const SETUPS: usize = 9;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Sim {
    Announce,
    Session,
}

impl Sim {
    pub fn name(self) -> &'static str {
        match self {
            Sim::Announce => "sim-announce",
            Sim::Session => "sim-session",
        }
    }
}

enum Shape {
    OpenLoop(OpenLoopConfig),
    TwoQueue(TwoQueueConfig),
    Feedback(FeedbackConfig),
    Session(SessionConfig),
}

/// Announcements per second of a rate in kbps, at the paper's 1000-byte ADUs.
fn pkts(kbps: f64) -> f64 {
    kbps * 1000.0 / 8000.0
}

fn secs(s: u64, divisor: u64) -> SimDuration {
    SimDuration::from_secs(s / divisor)
}

/// The fixed list of runs of one round for seed class `class`, with
/// horizons divided by `divisor` (1 for the timed window).
fn shapes(sim: Sim, class: u64, divisor: u64) -> Vec<Shape> {
    let mut seed = class * 1000;
    let mut next_seed = || {
        seed += 1;
        seed
    };
    let mut out = Vec::new();
    match sim {
        Sim::Announce => {
            // fig3: λ = 20 kbps, μ = 128 kbps, at stable death rates.
            for (pd, loss) in [(0.25, 0.05), (0.25, 0.4), (0.5, 0.2), (0.5, 0.6)] {
                let mut c =
                    OpenLoopConfig::analytic(pkts(20.0), pkts(128.0), loss, pd, next_seed());
                c.duration = secs(20_000, divisor);
                out.push(Shape::OpenLoop(c));
            }
            // fig5: μ_data = 45 kbps split hot/cold, λ = 15 kbps.
            for share in [0.2, 0.35, 0.6] {
                for loss in [0.1, 0.3] {
                    let mu = pkts(45.0);
                    out.push(Shape::TwoQueue(TwoQueueConfig {
                        arrivals: ArrivalProcess::Poisson { rate: pkts(15.0) },
                        death: DeathProcess::PerTransmission { p: 0.1 },
                        mu_hot: mu * share,
                        mu_cold: mu * (1.0 - share),
                        loss: LossSpec::Bernoulli(loss),
                        service: ServiceModel::Exponential,
                        sharing: Sharing::Partitioned,
                        seed: next_seed(),
                        duration: secs(8_000, divisor),
                        series_spacing: None,
                        event_capacity: 0,
                        trace_capacity: 0,
                    }));
                }
            }
            // fig11: μ_data = 38 kbps, μ_fb = 7 kbps, knee curves per loss.
            for share in [0.3, 0.6] {
                for loss in [0.01, 0.3, 0.5] {
                    let mu = pkts(38.0);
                    out.push(Shape::Feedback(FeedbackConfig {
                        arrivals: ArrivalProcess::Poisson { rate: pkts(15.0) },
                        death: DeathProcess::PerTransmission { p: 0.1 },
                        mu_hot: mu * share,
                        mu_cold: mu * (1.0 - share),
                        mu_fb: pkts(7.0),
                        loss: LossSpec::Bernoulli(loss),
                        nack_loss: None,
                        service: ServiceModel::Exponential,
                        seed: next_seed(),
                        duration: secs(8_000, divisor),
                        series_spacing: None,
                        trace_capacity: 0,
                        event_capacity: 0,
                    }));
                }
            }
        }
        Sim::Session => {
            // Multicast: 16 receivers, slotted and damped feedback,
            // records that never expire, so the replicas grow all run.
            let mut c = SessionConfig::unicast_default(next_seed());
            c.n_receivers = 16;
            c.slot_window = Some(SimDuration::from_secs(2));
            c.data_loss = LossSpec::Bernoulli(0.2);
            c.fb_loss = LossSpec::Bernoulli(0.05);
            c.workload = SessionWorkload {
                arrivals: ArrivalProcess::Poisson { rate: 0.5 },
                mean_lifetime_secs: None,
                branches: 4,
                class_weights: None,
            };
            c.ttl = SimDuration::from_secs(120);
            c.duration = secs(600, divisor);
            out.push(Shape::Session(c));
            // Adapt with churn: finite record lifetimes and the
            // profile-driven allocator re-running every 10 s.
            for loss in [0.05, 0.3] {
                let mut c = SessionConfig::unicast_default(next_seed());
                c.data_loss = LossSpec::Bernoulli(loss);
                c.fb_loss = LossSpec::Bernoulli(loss);
                c.duration = secs(1_000, divisor);
                out.push(Shape::Session(c));
            }
        }
    }
    out
}

/// FNV-1a over 64-bit words: the result fingerprint of a run or round.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

fn dispatched(m: &MetricsSnapshot) -> u64 {
    match m.get("engine.events_dispatched") {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// Folds a protocol report's shared job statistics into `h`.
macro_rules! job_stats {
    ($h:expr, $s:expr) => {{
        $h.f($s.consistency.unnormalized);
        $h.f($s.consistency.busy.unwrap_or(-1.0));
        for w in [$s.arrivals, $s.updates, $s.deaths, $s.final_live as u64] {
            $h.word(w);
        }
    }};
}

/// What one run contributes to its round.
struct RunOut {
    events: u64,
    fingerprint: u64,
    /// `(data_rx, data_applied)` summed over session receivers.
    rx: (u64, u64),
    /// `(nacks_rx, nacks_suppressed)` of the session sender.
    nacks: (u64, u64),
}

fn execute(shape: &Shape, log: &mut SpanLog) -> RunOut {
    let mut h = Fnv::new();
    let (events, rx, nacks) = match shape {
        Shape::OpenLoop(c) => {
            let r = log.span("protocol.open_loop.run", || open_loop::run(c));
            job_stats!(h, r.stats);
            for w in [r.transmissions, r.redundant_transmissions] {
                h.word(w);
            }
            (dispatched(&r.metrics), (0, 0), (0, 0))
        }
        Shape::TwoQueue(c) => {
            let r = log.span("protocol.two_queue.run", || two_queue::run(c));
            job_stats!(h, r.stats);
            for w in [
                r.hot_transmissions,
                r.cold_transmissions,
                r.redundant_transmissions,
            ] {
                h.word(w);
            }
            (dispatched(&r.metrics), (0, 0), (0, 0))
        }
        Shape::Feedback(c) => {
            let r = log.span("protocol.feedback.run", || feedback::run(c));
            job_stats!(h, r.stats);
            for w in [
                r.hot_transmissions,
                r.cold_transmissions,
                r.redundant_transmissions,
                r.nacks_generated,
                r.nacks_delivered,
                r.promotions,
            ] {
                h.word(w);
            }
            (dispatched(&r.metrics), (0, 0), (0, 0))
        }
        Shape::Session(c) => {
            let r: SessionReport = log.span("sstp.session.run", || session::run(c));
            h.f(r.mean_consistency());
            let p = &r.packets;
            for w in [
                p.data_channel_tx,
                p.data_rx_lost,
                p.feedback_tx,
                p.feedback_lost,
                p.data_bytes,
                p.feedback_bytes,
                r.sender.data_tx,
                r.sender.root_summaries_tx,
                r.sender.node_summaries_tx,
                r.sender.nacks_rx,
                r.sender.nacks_suppressed,
            ] {
                h.word(w);
            }
            let mut rx = (0, 0);
            for o in &r.receivers {
                h.f(o.consistency.busy.unwrap_or(-1.0));
                h.word(o.stats.data_rx);
                h.word(o.stats.data_applied);
                rx.0 += o.stats.data_rx;
                rx.1 += o.stats.data_applied;
            }
            let nacks = (r.sender.nacks_rx, r.sender.nacks_suppressed);
            (dispatched(&r.metrics), rx, nacks)
        }
    };
    h.word(events);
    RunOut {
        events,
        fingerprint: h.0,
        rx,
        nacks,
    }
}

/// One round's outcome: total events, combined fingerprint, and the runs.
struct Round {
    events: u64,
    fingerprint: u64,
    runs: Vec<RunOut>,
}

fn round(shapes: &[Shape], log: &mut SpanLog) -> Round {
    let mut h = Fnv::new();
    let mut events = 0;
    let mut runs = Vec::with_capacity(shapes.len());
    for s in shapes {
        let r = execute(s, log);
        events += r.events;
        h.word(r.fingerprint);
        runs.push(r);
    }
    Round {
        events,
        fingerprint: h.0,
        runs,
    }
}

/// Prints the `expected.txt` lines of both sim workloads for every seed
/// class: the maintainer's way to refresh the stored values after a
/// deliberate behaviour change.
pub fn print_expected() {
    println!("# workload seed_class events fingerprint");
    for sim in [Sim::Announce, Sim::Session] {
        for class in 0..SEED_CLASSES {
            let r = round(&shapes(sim, class, 1), &mut SpanLog::new());
            println!("{} {class} {} {:016x}", sim.name(), r.events, r.fingerprint);
        }
    }
}

/// Timed repetition of whole rounds, each between two calibrations.
/// The sims are CPU-bound, and the reference host's speed changes by up
/// to 1.8× for seconds to minutes with other tenants' load, so each
/// round's times are scaled by its calibration factor (see
/// [`host::Calibrator`]): the time the round would have taken on the
/// reference host at its typical speed. The end-to-end metrics are
/// medians over rounds, so a calibration that caught a stall moves none.
struct Window {
    rounds: Vec<Round>,
    events: u64,
    /// Wall and CPU time of the rounds, calibrations excluded.
    wall_s: f64,
    cpu_s: f64,
    /// Calibrated wall and CPU time of every round, in ms: the request a
    /// sim user waits for is the whole fixed set of runs, and rounds,
    /// unlike the differently sized run calls inside them, are alike.
    round_ms: Samples,
    round_cpu_ms: Samples,
    /// Peak RSS once the first round finished: a fixed amount of work,
    /// whereas the number of rounds in the window grows with speed.
    first_round_rss_mb: f64,
}

impl Window {
    fn runs(&self) -> u64 {
        self.rounds.iter().map(|r| r.runs.len() as u64).sum()
    }
}

fn window(
    calib: &mut host::Calibrator,
    shapes: &[Shape],
    seconds: f64,
    log: &mut SpanLog,
    expect: (u64, u64),
    out: &mut Outcome,
) -> Window {
    let span = log.open("harness.window", u64::MAX);
    let t0 = Instant::now();
    let mut w = Window {
        rounds: Vec::new(),
        events: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
        round_ms: Samples::default(),
        round_cpu_ms: Samples::default(),
        first_round_rss_mb: 0.0,
    };
    let mut calib_ms = log.span("harness.calibrate", || calib.measure_ms());
    while w.rounds.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let cpu = host::cpu_seconds();
        let t = Instant::now();
        let r = round(shapes, log);
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds() - cpu;
        let f = log.span("harness.calibrate", || calib.factor_since(&mut calib_ms));
        w.wall_s += wall_s;
        w.cpu_s += cpu_s;
        w.round_ms.push(wall_s * f * 1e3);
        w.round_cpu_ms.push(cpu_s * f * 1e3);
        w.events += r.events;
        let ok = (r.events, r.fingerprint) == expect;
        if !ok {
            out.fail(format!(
                "round {}: {} events, fingerprint {:016x}; expected {} events, fingerprint {:016x}",
                w.rounds.len() + 1,
                r.events,
                r.fingerprint,
                expect.0,
                expect.1
            ));
        }
        w.rounds.push(r);
        if w.rounds.len() == 1 {
            w.first_round_rss_mb = host::peak_rss_mb();
        }
        if !ok {
            break;
        }
    }
    log.close(span);
    w
}

/// Entry count and wall nanoseconds summed over every profiler phase
/// whose last path segment is `leaf`.
fn phase(p: &ProfileReport, leaf: &str) -> (u64, f64) {
    p.phases
        .iter()
        .filter(|e| e.path.rsplit('/').next() == Some(leaf))
        .fold((0, 0.0), |(n, ns), e| (n + e.count, ns + e.wall_ns as f64))
}

pub fn run(
    sim: Sim,
    seed: u64,
    seconds: u64,
    traced: bool,
    expected: &Expected,
    out: &mut Outcome,
) {
    let class = seed % SEED_CLASSES;
    let Some(&expect) = expected.get(&(sim.name().to_string(), class)) else {
        out.fail(format!(
            "no expected values for {} seed class {class}",
            sim.name()
        ));
        return;
    };

    let mut calib = host::Calibrator::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut shapes_full = Vec::new();
    let mut calib_ms = calib.measure_ms();
    for _ in 0..SETUPS {
        let t = Instant::now();
        shapes_full = shapes(sim, class, 1);
        round(&shapes(sim, class, WARMUP_DIVISOR), &mut SpanLog::new());
        let setup_s = t.elapsed().as_secs_f64();
        setups.push(setup_s * calib.factor_since(&mut calib_ms));
    }
    setups.sort_by(f64::total_cmp);
    out.e2e("setup_s", setups[SETUPS / 2]);

    let seconds = seconds as f64;
    let mut log = SpanLog::new();
    let mut base = window(
        &mut calib,
        &shapes_full,
        if traced { seconds / 2.0 } else { seconds },
        &mut log,
        expect,
        out,
    );
    out.attempted = base.runs();
    out.e2e("peak_rss_mb", base.first_round_rss_mb - calib.resident_mb());
    let n = base.round_ms.len();
    let round_events = expect.0 as f64;
    out.e2e(
        "events_per_s",
        round_events * 1e3 / base.round_ms.quantile(0.5),
    );
    out.e2e(
        "cpu_us_per_event",
        base.round_cpu_ms.quantile(0.5) * 1e3 / round_events,
    );
    out.note(format!(
        "window: {n} rounds of {} runs and {} events, {:.3} s wall, {:.3} s CPU \
         (uncalibrated: {:.0} events/s, {:.4} us CPU/event); \
         events_per_s and cpu_us_per_event use the median calibrated round",
        shapes_full.len(),
        expect.0,
        base.wall_s,
        base.cpu_s,
        base.events as f64 / base.wall_s,
        base.cpu_s * 1e6 / base.events as f64
    ));
    for (name, q) in [
        ("latency_p50_ms", 0.5),
        ("latency_p99_ms", TAIL_Q),
        ("latency_p999_ms", TAIL_Q),
    ] {
        out.e2e(name, base.round_ms.quantile(q));
        out.note(format!(
            "{name}: p{} of {n} rounds' calibrated wall time, {} beyond it",
            q * 100.0,
            beyond(n, q)
        ));
    }
    out.note(format!(
        "calibration: median {:.4} ms over {} calibrations, {:.4} ms on the reference host",
        calib.history.quantile(0.5),
        calib.history.len(),
        host::CALIB_REF_MS
    ));
    if !traced {
        return;
    }

    let _ = profile::take_report();
    profile::set_enabled(true);
    log.set_enabled(true);
    let tw = window(
        &mut calib,
        &shapes_full,
        seconds / 2.0,
        &mut log,
        expect,
        out,
    );
    log.set_enabled(false);
    profile::set_enabled(false);
    let prof = profile::take_report();
    out.attempted += tw.runs();
    out.trace_overhead(base.events as f64 / base.cpu_s, tw.events as f64 / tw.cpu_s);

    let events = prof.attributed_events().max(1) as f64;
    let root_ns = prof.root_wall_ns().max(1) as f64;
    let wheel_ns = phase(&prof, profile::WHEEL_PHASE).1;
    let dispatch_ns: f64 = prof
        .phases
        .iter()
        .filter(|p| p.is_dispatch_root())
        .map(|p| p.wall_ns as f64)
        .sum();
    let scoped_ns: f64 = prof
        .phases
        .iter()
        .filter(|p| p.depth() == 1 && p.path.starts_with("ev:"))
        .map(|p| p.wall_ns as f64)
        .sum();
    let (rx_count, rx_ns) = phase(&prof, "digest.rx_apply");
    let probe_ns = phase(&prof, "probe.measure").1;
    out.layer("netsim.engine.events", expect.0 as f64);
    out.layer("netsim.wheel.ns_per_event", wheel_ns / events);
    out.layer("netsim.dispatch.ns_per_event", dispatch_ns / events);
    out.layer("sstp.receiver.on_packet.ns", rx_ns / rx_count.max(1) as f64);
    out.layer("sstp.receiver.on_packet.share", rx_ns / root_ns);
    out.layer("sstp.session.probe.share", probe_ns / root_ns);
    let cold_free = prof.phases.iter().find(|p| p.path == "ev:cold-free");
    out.layer(
        "sstp.sender.cold_free.share",
        cold_free.map_or(0.0, |p| p.wall_ns as f64) / root_ns,
    );
    if let Some(first) = tw.rounds.first() {
        let (rx, applied) = first
            .runs
            .iter()
            .fold((0, 0), |a, r| (a.0 + r.rx.0, a.1 + r.rx.1));
        let (nacks, suppressed) = first
            .runs
            .iter()
            .fold((0, 0), |a, r| (a.0 + r.nacks.0, a.1 + r.nacks.1));
        out.layer(
            "sstp.receiver.useful_ratio",
            applied as f64 / rx.max(1) as f64,
        );
        out.layer(
            "sstp.sender.nack_suppressed_ratio",
            suppressed as f64 / nacks.max(1) as f64,
        );
    }

    let spans = log.totals();
    let span_s = |name: &str| spans.get(name).copied().unwrap_or_default();
    for (layer, span) in [
        ("protocol.open_loop.run_s", "protocol.open_loop.run"),
        ("protocol.two_queue.run_s", "protocol.two_queue.run"),
        ("protocol.feedback.run_s", "protocol.feedback.run"),
        ("sstp.session.run_s", "sstp.session.run"),
    ] {
        let t = span_s(span);
        out.layer(layer, t.total_s / t.count.max(1) as f64);
    }
    // Run spans minus the engine loop the profiler covered: the runner's
    // own set-up and report assembly, and the profiler's bookkeeping
    // between its scopes.
    let run_self_s = [
        "protocol.open_loop.run",
        "protocol.two_queue.run",
        "protocol.feedback.run",
        "sstp.session.run",
    ]
    .iter()
    .map(|n| span_s(n).self_s)
    .sum::<f64>()
        - root_ns / 1e9;
    let sender_ns = phase(&prof, "feedback.sender").1 + phase(&prof, "adapt.allocate").1;
    let receiver_ns = rx_ns + phase(&prof, "feedback.poll").1;
    out.layer("self_s.harness", span_s("harness.window").self_s);
    out.layer("self_s.netsim.wheel", wheel_ns / 1e9);
    out.layer("self_s.dispatch", (dispatch_ns - scoped_ns) / 1e9);
    out.layer("self_s.sstp.receiver", receiver_ns / 1e9);
    out.layer("self_s.sstp.sender", sender_ns / 1e9);
    match sim {
        Sim::Announce => out.layer("self_s.protocol", run_self_s),
        Sim::Session => out.layer("self_s.sstp.session", run_self_s + probe_ns / 1e9),
    }
    out.write_trace(
        &log,
        &prof.chrome_counter_events(),
        Some(prof.to_wall_jsonl(sim.name(), prof.attributed_events())),
    );
}
