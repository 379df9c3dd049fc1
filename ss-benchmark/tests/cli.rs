//! The benchmark's own checks: a one-second run of each workload emits
//! every metric `BENCHMARK.json` names, with its unit, and a wrong stored
//! event count makes the command fail.

use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["sim-announce", "sim-session", "rt-loopback"];

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ss-benchmark"))
        .args(args)
        .output()
        .expect("run ss-benchmark")
}

fn last_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{list}\""))
        .expect("metric list present");
    let section = &text[start..start + text[start..].find(']').expect("list closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("string closes")].to_string()
    };
    section
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = declared(list);
        assert!(!metrics.is_empty());
        for w in WORKLOADS {
            let out = run(&[
                "--workload",
                w,
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                trace,
            ]);
            let json = last_line(&out);
            assert!(
                out.status.success(),
                "{w} --trace {trace} failed: {}\n{json}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                json.starts_with("{\"correct\":true,\"attempted\":"),
                "{json}"
            );
            for (name, unit) in &metrics {
                let entry = format!("\"{name}\":{{\"value\":");
                let at = json
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                let rest = &json[at + entry.len()..];
                let close = rest.find('}').expect("entry closes");
                assert!(
                    rest[..=close].ends_with(&format!(",\"unit\":\"{unit}\"}}")),
                    "{w}: {name} lacks unit {unit}: {}",
                    &rest[..=close]
                );
            }
        }
    }
}

#[test]
fn wrong_stored_event_count_fails_the_run() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let good = std::fs::read_to_string(dir.join("expected.txt")).expect("read expected.txt");
    let wrong: String = good
        .lines()
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            if f.first() == Some(&"sim-announce") && f.get(1) == Some(&"0") {
                let events: u64 = f[2].parse().expect("event count");
                format!("{} {} {} {}\n", f[0], f[1], events + 1, f[3])
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    assert_ne!(wrong, good);
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrong_expected.txt");
    std::fs::write(&path, wrong).expect("write wrong expected values");
    let out = run(&[
        "--workload",
        "sim-announce",
        "--seed",
        "0",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--expected",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(last_line(&out).starts_with("{\"correct\":false"));
}
