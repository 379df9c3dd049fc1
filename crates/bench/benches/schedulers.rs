#![allow(missing_docs)] // criterion macros generate undocumented items
//! Scheduler hot-path benchmarks: one pick + unit charge, at hot/cold
//! scale (2 classes, the §4 setting) and at an application-class scale
//! (64 classes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ss_netsim::SimRng;
use ss_sched::{Drr, Lottery, Scheduler, Sfq, StrictPriority, Stride};

fn bench_policy(c: &mut Criterion, name: &str, make: fn() -> Box<dyn Scheduler>) {
    let mut group = c.benchmark_group("scheduler");
    for &classes in &[2usize, 64] {
        group.bench_with_input(BenchmarkId::new(name, classes), &classes, |b, &classes| {
            let mut s = make();
            for cl in 0..classes {
                s.set_weight(cl, (cl as u64 % 7) + 1);
                s.set_backlogged(cl, true);
            }
            let mut rng = SimRng::new(1);
            b.iter(|| {
                let cl = s.pick(&mut rng).expect("backlogged");
                s.charge(cl, 1);
                cl
            });
        });
    }
    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_policy(c, "lottery", || Box::new(Lottery::new()));
    bench_policy(c, "stride", || Box::new(Stride::new()));
    bench_policy(c, "sfq", || Box::new(Sfq::new()));
    bench_policy(c, "drr", || Box::new(Drr::new(1)));
    bench_policy(c, "priority", || Box::new(StrictPriority::new()));
}

criterion_group!(scheduler_benches, benches);
criterion_main!(scheduler_benches);
