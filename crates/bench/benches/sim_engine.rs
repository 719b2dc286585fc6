//! Micro-benchmark of the discrete-event engine: virtual events per second
//! on a contended mutual-exclusion workload (the cost of every experiment
//! in this crate), per event-scheduler implementation (binary heap,
//! timer wheel), plus the lazy-quorum large-N
//! configuration the wheel and the hot/cold protocol split exist for.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use qmx_bench::micro;
use qmx_sim::SchedulerKind;

const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Heap, SchedulerKind::Wheel];

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_engine");
    for n in [9usize, 25] {
        for kind in SCHEDULERS {
            // Calibrate: how many events does one configuration process?
            let events = micro::contended_sim_run_with(n, 20, kind);
            g.throughput(Throughput::Elements(events as u64));
            g.bench_function(format!("contended_n{n}_20rounds/{}", kind.label()), |b| {
                b.iter(|| micro::contended_sim_run_with(n, 20, kind))
            });
        }
    }
    g.finish();
}

fn bench_engine_large(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_engine_large");
    // Criterion runs many iterations, so the group stays at N = 10³; the
    // 10⁵ row lives in the benchjson trajectory where it runs a bounded
    // number of times.
    for kind in SCHEDULERS {
        let events = micro::large_n_sim_run(1_000, 50, kind);
        g.throughput(Throughput::Elements(events as u64));
        g.bench_function(format!("lazy_uncontended_n1000/{}", kind.label()), |b| {
            b.iter(|| micro::large_n_sim_run(1_000, 50, kind))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engine, bench_engine_large);
criterion_main!(benches);
