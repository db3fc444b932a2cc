//! Fused-replay benchmark: fused multi-tick replay vs a per-tick
//! `step()` loop.
//!
//! Drives the paper's trace-replay shape: a long constant-utilization
//! span where the fused path keeps chunk matrices hot and pays
//! plan/gather/scatter once per span.

use criterion::{criterion_group, criterion_main, Criterion};
use mercury::presets::{self, nodes};
use mercury::solver::{ClusterSolver, SolverConfig};

/// A warmed-up replicated cluster at 70% CPU on every machine.
fn steady_cluster(n: usize) -> ClusterSolver {
    let model = presets::validation_cluster(n);
    let mut s = ClusterSolver::new(&model, SolverConfig::default()).unwrap();
    s.set_threads(1);
    for i in 1..=n {
        s.set_utilization(&format!("machine{i}"), nodes::CPU, 0.7)
            .unwrap();
    }
    for _ in 0..20 {
        s.step(); // builds the batch plan
    }
    s
}

fn bench_replay_fused_vs_loop(c: &mut Criterion) {
    // The paper's replay shape: 10k ticks of constant utilization. One
    // iteration is the whole trace, so expect few, long samples.
    const TICKS: usize = 10_000;
    const MACHINES: usize = 256;
    let mut group = c.benchmark_group("replay_fused_vs_loop");
    group.sample_size(10);
    group.bench_function("per_tick_loop", |b| {
        let mut s = steady_cluster(MACHINES);
        b.iter(|| (0..TICKS).for_each(|_| s.step()));
    });
    group.bench_function("fused", |b| {
        let mut s = steady_cluster(MACHINES);
        b.iter(|| s.step_for(TICKS));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = bench_replay_fused_vs_loop
}
criterion_main!(benches);
