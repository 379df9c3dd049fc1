//! `ss-benchmark`: end-to-end and per-layer measurements of the soft-state
//! simulator and the live SSTP runtime. See README.md for the workloads
//! and the metric table.
//!
//! ```text
//! ss-benchmark --workload <sim-announce|sim-session|rt-loopback> --seed N --seconds S --trace <0|1>
//!              [--expected FILE]
//! ss-benchmark --print-expected
//! ```
//!
//! Human-readable lines go to stdout first; the last line of stdout is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics untraced, the per-layer metrics traced). The
//! exit code is 1 when any correctness check fails and 2 on bad usage.

mod host;
mod rt;
mod sim;
mod stats;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics, with units. Every workload reports every one.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("events_per_s", "1/s"),
    ("cpu_us_per_event", "us"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("latency_p999_ms", "ms"),
];

/// Per-layer metrics, with units. A traced run reports every one; a
/// layer the workload never calls reports 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("host.nproc", "count"),
    ("host.wait_floor_ms", "ms"),
    ("host.cpu_s", "s"),
    ("netsim.engine.events", "count"),
    ("netsim.wheel.ns_per_event", "ns"),
    ("netsim.dispatch.ns_per_event", "ns"),
    ("protocol.open_loop.run_s", "s"),
    ("protocol.two_queue.run_s", "s"),
    ("protocol.feedback.run_s", "s"),
    ("sstp.session.run_s", "s"),
    ("sstp.receiver.on_packet.ns", "ns"),
    ("sstp.receiver.on_packet.share", "ratio"),
    ("sstp.session.probe.share", "ratio"),
    ("sstp.sender.cold_free.share", "ratio"),
    ("sstp.receiver.useful_ratio", "ratio"),
    ("sstp.sender.nack_suppressed_ratio", "ratio"),
    ("sstp.sender.update_us", "us"),
    ("runtime.poll.pub_us.p50", "us"),
    ("runtime.poll.pub_us.p99", "us"),
    ("runtime.poll.sub_us.p50", "us"),
    ("runtime.poll.sub_us.p99", "us"),
    ("runtime.poll.ns_per_session", "ns"),
    ("runtime.ns_per_datagram", "ns"),
    ("runtime.wait.us", "us"),
    ("runtime.wait.oversleep_us", "us"),
    ("runtime.ingress.datagrams", "count"),
    ("runtime.egress.datagrams", "count"),
    ("runtime.loss.injected", "count"),
    ("runtime.decode.errors", "count"),
    ("runtime.shed.cold", "count"),
    ("runtime.shed.hot", "count"),
    ("runtime.backpressure.drops", "count"),
    ("runtime.throttled", "count"),
    ("runtime.probe.sent", "count"),
    ("runtime.inbox.high_water", "count"),
    ("runtime.outbox.high_water", "count"),
    ("harness.generator_lag_max_ms", "ms"),
    ("harness.install_check_us", "us"),
    ("harness.trace_overhead", "ratio"),
    ("harness.untraced_events_per_cpu_s", "1/s"),
    ("harness.traced_events_per_cpu_s", "1/s"),
    ("self_s.harness", "s"),
    ("self_s.protocol", "s"),
    ("self_s.netsim.wheel", "s"),
    ("self_s.dispatch", "s"),
    ("self_s.sstp.session", "s"),
    ("self_s.sstp.receiver", "s"),
    ("self_s.sstp.sender", "s"),
    ("self_s.runtime.poll", "s"),
    ("self_s.runtime.wait", "s"),
];

const WORKLOADS: [&str; 3] = ["sim-announce", "sim-session", "rt-loopback"];

/// Stored `(events, fingerprint)` per sim workload and seed class.
pub type Expected = HashMap<(String, u64), (u64, u64)>;

fn parse_expected(text: &str) -> Result<Expected, String> {
    let mut out = Expected::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("expected-values line {}: {line:?}", no + 1);
        if f.len() != 4 {
            return Err(bad());
        }
        let class = f[1].parse().map_err(|_| bad())?;
        let events = f[2].parse().map_err(|_| bad())?;
        let fp = u64::from_str_radix(f[3], 16).map_err(|_| bad())?;
        out.insert((f[0].to_string(), class), (events, fp));
    }
    Ok(out)
}

/// What one workload run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    workload: &'static str,
    seed: u64,
}

impl Outcome {
    /// Records a failed correctness check.
    pub fn fail(&mut self, msg: String) {
        eprintln!("check failed: {msg}");
        self.errors.push(msg);
    }

    pub fn e2e(&mut self, name: &'static str, v: f64) {
        debug_assert!(END_TO_END.iter().any(|m| m.0 == name), "{name}");
        self.e2e.insert(name, v);
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|m| m.0 == name), "{name}");
        self.layer.insert(name, v);
    }

    /// A human-readable line printed before the JSON result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Events per CPU second untraced and traced, and the share of
    /// throughput the tracing cost.
    pub fn trace_overhead(&mut self, untraced: f64, traced: f64) {
        self.layer("harness.untraced_events_per_cpu_s", untraced);
        self.layer("harness.traced_events_per_cpu_s", traced);
        self.layer("harness.trace_overhead", (untraced - traced) / untraced);
    }

    /// Writes the traced window's spans as Chrome trace-event JSON, plus
    /// the profiler's wall-time phase JSONL when there is one, under
    /// `out/` in the benchmark directory.
    pub fn write_trace(
        &mut self,
        log: &trace::SpanLog,
        extra_events: &str,
        wall_jsonl: Option<String>,
    ) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let base = dir.join(format!("{}-seed{}", self.workload, self.seed));
        let mut written = Vec::new();
        let mut write = |path: PathBuf, body: &str| match std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, body))
        {
            Ok(()) => written.push(path.display().to_string()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        };
        write(
            base.with_extension("trace.json"),
            &log.to_chrome_json(extra_events),
        );
        if let Some(w) = wall_jsonl {
            write(base.with_extension("wall.jsonl"), &w);
        }
        self.note(format!("trace written: {}", written.join(", ")));
    }
}

struct Opts {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
    expected: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ss-benchmark --workload <{}> --seed N --seconds S --trace <0|1> [--expected FILE]\n       \
         ss-benchmark --print-expected",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Option<Opts> {
    let mut o = Opts {
        workload: "",
        seed: 0,
        seconds: 10,
        trace: false,
        expected: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next()?;
        match flag.as_str() {
            "--workload" => o.workload = WORKLOADS.iter().find(|w| *w == val)?,
            "--seed" => o.seed = val.parse().ok()?,
            "--seconds" => o.seconds = val.parse().ok().filter(|&s| s > 0)?,
            "--trace" => {
                o.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--expected" => o.expected = Some(PathBuf::from(val)),
            _ => return None,
        }
    }
    (!o.workload.is_empty()).then_some(o)
}

fn json_number(v: f64) -> String {
    // JSON has no NaN or infinity; a ratio over no work reads as 0.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--print-expected"] {
        sim::print_expected();
        return ExitCode::SUCCESS;
    }
    let Some(opts) = parse_args(&args) else {
        return usage();
    };
    let expected_text = match &opts.expected {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        },
        None => include_str!("../expected.txt").to_string(),
    };
    let expected = match parse_expected(&expected_text) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        e2e: BTreeMap::new(),
        layer: BTreeMap::new(),
        notes: Vec::new(),
        workload: opts.workload,
        seed: opts.seed,
    };
    let floor = match host::wait_floor() {
        Ok(f) => f.as_secs_f64() * 1e3,
        Err(e) => {
            eprintln!("cannot measure the socket-wait floor: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "# host: nproc {}, CPU time from {}, socket-wait floor {floor:.3} ms (1 ms requested)",
        host::nproc(),
        host::cpu_source()
    );
    out.layer("host.nproc", host::nproc() as f64);
    out.layer("host.wait_floor_ms", floor);

    let sim = match opts.workload {
        "sim-announce" => Some(sim::Sim::Announce),
        "sim-session" => Some(sim::Sim::Session),
        _ => None,
    };
    match sim {
        Some(s) => sim::run(s, opts.seed, opts.seconds, opts.trace, &expected, &mut out),
        None => {
            if let Err(e) = rt::run(opts.seed, opts.seconds, opts.trace, &mut out) {
                out.fail(format!("live runtime: {e}"));
            }
        }
    }
    out.layer("host.cpu_s", host::cpu_seconds());

    for line in &out.notes {
        println!("# {line}");
    }
    let (list, values): (&[(&str, &str)], _) = if opts.trace {
        (&PER_LAYER, &out.layer)
    } else {
        (&END_TO_END, &out.e2e)
    };
    let correct = out.errors.is_empty() && END_TO_END.iter().all(|(n, _)| out.e2e.contains_key(n));
    let mut metrics = String::new();
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        println!("{name:<36} {:>16} {unit}", json_number(v));
        if i > 0 {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(v)
        );
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
