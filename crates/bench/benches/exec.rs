//! Layer bench: execution speed of the two back-ends, in instructions
//! (`ProcessStats::steps`) per second.
//!
//! The workload is one grid worker (so one thread and no border exchange)
//! run in process on a deterministic cluster with synchronous checkpoints:
//! the stencil's own instruction mix, with the checkpoint and external
//! calls a real run makes.  Each back-end counts its steps in its own unit
//! (an interpreter step is one FIR node, a bytecode step one instruction),
//! so compare each against itself across changes, not against the other.
//!
//! `cargo bench --bench exec` prints `… (x Melem/s)` per back-end, where an
//! element is one step.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use mojave_bench::run_grid_workers;
use mojave_core::BackendKind;
use mojave_grid::GridConfig;

const SEED: u64 = 7;

fn steps_per_second(c: &mut Criterion) {
    let config = GridConfig {
        workers: 1,
        rows_per_worker: 32,
        cols: 32,
        timesteps: 10,
        checkpoint_interval: 5,
    };
    let mut group = c.benchmark_group("exec/grid_worker_1x32x32x10");
    group.sample_size(10);
    for backend in [BackendKind::Bytecode, BackendKind::Interp] {
        // Step counts are deterministic: count once, then time.
        let steps: u64 = run_grid_workers(&config, backend, SEED)
            .iter()
            .map(|s| s.steps)
            .sum();
        group.throughput(Throughput::Elements(steps));
        group.bench_function(format!("{backend:?}"), |b| {
            b.iter(|| run_grid_workers(&config, backend, SEED))
        });
    }
    group.finish();
}

criterion_group!(benches, steps_per_second);
criterion_main!(benches);
