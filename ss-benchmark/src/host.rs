//! Host facts recorded with every run: process CPU time, peak resident
//! memory, processor count and the measured socket-wait floor. Read from
//! `/proc`, since the workspace vendors no `libc` binding.

use crate::stats::Samples;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU seconds this process has used, user plus system.
///
/// `/proc/self/schedstat` gives nanoseconds but is all zeros on kernels
/// built without schedstats, so the tick-resolution fields of
/// `/proc/self/stat` are the fallback. Which source was used is printed
/// with the host facts.
pub fn cpu_seconds() -> f64 {
    schedstat_seconds().unwrap_or_else(stat_seconds)
}

/// Names the CPU-time source [`cpu_seconds`] reads on this host.
pub fn cpu_source() -> &'static str {
    if schedstat_seconds().is_some() {
        "/proc/self/schedstat"
    } else {
        "/proc/self/stat"
    }
}

fn schedstat_seconds() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    let ns: u64 = s.split_whitespace().next()?.parse().ok()?;
    (ns > 0).then(|| ns as f64 / 1e9)
}

fn stat_seconds() -> f64 {
    let s = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = &s[s.rfind(')').expect("stat has a command name") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let s = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = s
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median time a 1 ms `wait_for_datagram` on an idle loopback socket
/// actually blocks: the floor under any latency the live runtime can
/// reach when its loop sleeps. Five waits, so it costs about 40 ms on a
/// host with an 8 ms floor.
pub fn wait_floor() -> std::io::Result<Duration> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.set_nonblocking(true)?;
    let mut waits: Vec<Duration> = (0..5)
        .map(|_| {
            let t = Instant::now();
            sstp::runtime::wait::wait_for_datagram(&sock, Duration::from_millis(1))
                .map(|_| t.elapsed())
        })
        .collect::<std::io::Result<_>>()?;
    waits.sort();
    Ok(waits[waits.len() / 2])
}

/// Words in the calibration buffer: 16 MiB, four times one core's L2, so
/// the kernel lives in the last-level cache the host's tenants share, as
/// the simulators' tables do.
const CALIB_WORDS: usize = 1 << 21;
/// Random read-modify-writes per pass, and passes per calibration.
const CALIB_STEPS: u64 = 200_000;
const CALIB_PASSES: usize = 3;

/// What one calibration takes on the reference host (2 vCPUs of an Intel
/// Xeon, 4 MiB L2 per core, shared 105 MiB L3), in ms: about the median
/// there, where a run's median ranged from 2.5 to 4 ms with the host's load.
/// Calibrated times read as times on that host at its typical speed.
pub const CALIB_REF_MS: f64 = 2.8;

/// A fixed kernel that measures how fast the host runs this process right
/// now. The reference host is shared: its speed changes by up to 1.8×
/// for seconds to minutes with other tenants' load, and a CPU-bound
/// workload's wall and CPU time change with it. Timing the same fixed
/// work next to each measured piece of work gives the factor by which
/// that piece ran slow, [`Calibrator::factor_since`].
pub struct Calibrator {
    buf: Vec<u64>,
    state: u64,
    /// Every calibration's time, in ms.
    pub history: Samples,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut c = Calibrator {
            buf: vec![0; CALIB_WORDS],
            state: 0x9e37_79b9_7f4a_7c15,
            history: Samples::default(),
        };
        // The first pass faults the pages in; it is not a measurement.
        c.pass_ms();
        c
    }

    /// Runs the kernel (xorshift-addressed increments over the buffer)
    /// a few times and returns the shortest wall time in ms, so that a
    /// momentary stall does not read as a slow host.
    pub fn measure_ms(&mut self) -> f64 {
        let ms = (0..CALIB_PASSES)
            .map(|_| self.pass_ms())
            .fold(f64::INFINITY, f64::min);
        self.history.push(ms);
        ms
    }

    fn pass_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = self.state;
        for i in 0..CALIB_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = x as usize & (CALIB_WORDS - 1);
            self.buf[j] = self.buf[j].wrapping_add(i);
        }
        self.state = x;
        std::hint::black_box(&self.buf);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Resident size of the buffer, in MiB, which [`peak_rss_mb`] counts
    /// along with the program's own memory.
    pub fn resident_mb(&self) -> f64 {
        (CALIB_WORDS * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Runs the kernel and returns the factor that scales a time measured
    /// between the previous calibration, which took `before_ms`, and this
    /// one to the reference host at its typical speed. The two
    /// calibrations bracket the measured work, so a change of host speed
    /// during it is averaged.
    pub fn factor_since(&mut self, before_ms: &mut f64) -> f64 {
        let after = self.measure_ms();
        let f = CALIB_REF_MS * 2.0 / (*before_ms + after);
        *before_ms = after;
        f
    }
}
