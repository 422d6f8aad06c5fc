//! Shared workload builders for the benchmark harness.
//!
//! Every experiment from the paper's Section 5 is regenerated by one of the
//! Criterion benches in `benches/`; this library holds the pieces they share
//! so the workloads are identical across experiments.

#![forbid(unsafe_code)]

use mojave_cluster::{Cluster, ClusterConfig, ClusterExternals, ClusterSink};
use mojave_core::{BackendKind, Machine, Process, ProcessConfig, ProcessStats, RunOutcome};
use mojave_grid::GridConfig;
use mojave_heap::{Heap, PtrIdx, Word};
use std::thread;

/// Populate a heap with array blocks until it holds roughly `target_bytes`
/// of live data; returns the pointers (the mutator's roots).
///
/// Block sizes mirror the paper's speculation experiment: a 200 KB heap made
/// of mid-sized data blocks whose mutation fraction can be controlled.
pub fn populate_heap(heap: &mut Heap, target_bytes: usize) -> Vec<PtrIdx> {
    let elems_per_block = 64; // 64 words = 512 payload bytes per block
    let mut ptrs = Vec::new();
    while heap.live_bytes() < target_bytes {
        let p = heap
            .alloc_array(elems_per_block, Word::Int(ptrs.len() as i64))
            .expect("allocation fits");
        ptrs.push(p);
    }
    ptrs
}

/// Mutate `percent` of the blocks (one word each), triggering copy-on-write
/// for exactly that fraction of the heap when a speculation is open.
pub fn mutate_percent(heap: &mut Heap, ptrs: &[PtrIdx], percent: usize) {
    let count = ptrs.len() * percent / 100;
    for (i, ptr) in ptrs.iter().take(count).enumerate() {
        heap.store(*ptr, (i % 64) as i64, Word::Int(-1))
            .expect("store succeeds");
    }
}

/// The grid-worker program used as the "realistic application" in the
/// migration experiments (the paper migrates the grid computation).
pub fn grid_worker_program(rows: usize, cols: usize) -> mojave_fir::Program {
    let config = GridConfig {
        workers: 1,
        rows_per_worker: rows,
        cols,
        timesteps: 4,
        checkpoint_interval: 2,
    };
    mojave_lang::compile_source(&mojave_grid::worker_source(&config)).expect("grid worker compiles")
}

/// Build a process carrying the grid program plus roughly `heap_bytes` of
/// live heap data, ready to be packed into a migration image.
pub fn process_with_heap(heap_bytes: usize, binary_migration: bool) -> (Process, Vec<Word>) {
    let program = grid_worker_program(16, 16);
    let config = ProcessConfig {
        binary_migration,
        ..ProcessConfig::default()
    };
    let mut process = Process::new(program, config).expect("program verifies");
    let ptrs = populate_heap(process.heap_mut(), heap_bytes);
    let roots: Vec<Word> = ptrs.into_iter().map(Word::Ptr).collect();
    (process, roots)
}

/// Run every worker of the grid `config` in process on `backend`: a
/// fault-free deterministic cluster seeded with `seed`, synchronous delta
/// checkpoints, one thread per worker.  Checks each worker's checksum
/// against the sequential reference and returns each worker's execution
/// statistics.
///
/// # Panics
/// Panics if a worker fails or computes a wrong checksum.
pub fn run_grid_workers(config: &GridConfig, backend: BackendKind, seed: u64) -> Vec<ProcessStats> {
    let program = mojave_lang::compile_source(&mojave_grid::worker_source(config))
        .expect("grid worker compiles");
    let reference = mojave_grid::reference_checksums(config);
    let cluster = Cluster::new(ClusterConfig::deterministic(config.workers, seed));
    thread::scope(|scope| {
        let handles: Vec<_> = (0..config.workers)
            .map(|worker| {
                let cluster = cluster.clone();
                let program = program.clone();
                let want = reference[worker];
                scope.spawn(move || {
                    let process_config = ProcessConfig {
                        backend,
                        machine: Machine::new(cluster.arch(worker)),
                        delta_checkpoints: true,
                        ..ProcessConfig::default()
                    };
                    let mut process = Process::new(program, process_config)
                        .expect("grid worker verifies")
                        .with_externals(Box::new(ClusterExternals::new(cluster.clone(), worker)))
                        .with_sink(Box::new(ClusterSink::new(cluster, worker)));
                    match process.run() {
                        Ok(RunOutcome::Exit(code)) => {
                            let got = code as f64 / 100.0;
                            assert!(
                                (got - want).abs() < 0.05,
                                "worker {worker}: checksum {got}, reference {want}"
                            );
                        }
                        other => panic!("worker {worker} ended with {other:?}"),
                    }
                    process.stats()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    })
}

/// A MojaveC source whose compiled size scales with `n` (used to measure the
/// recompilation cost as a function of program size).
pub fn synthetic_source(n: usize) -> String {
    let mut body = String::from("int main() {\n    int acc = 0;\n");
    for i in 0..n {
        body.push_str(&format!(
            "    for (int i{i} = 0; i{i} < 3; i{i} = i{i} + 1) {{ acc = acc + i{i} * {i}; }}\n"
        ));
    }
    body.push_str("    return acc;\n}\n");
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn populate_reaches_target_size() {
        let mut heap = Heap::new();
        let ptrs = populate_heap(&mut heap, 200 * 1024);
        assert!(heap.live_bytes() >= 200 * 1024);
        assert!(!ptrs.is_empty());
    }

    #[test]
    fn mutation_fraction_controls_cow_clones() {
        let mut heap = Heap::new();
        let ptrs = populate_heap(&mut heap, 64 * 1024);
        heap.spec_enter();
        mutate_percent(&mut heap, &ptrs, 50);
        let expected = ptrs.len() * 50 / 100;
        assert_eq!(heap.stats().cow_clones as usize, expected);
    }

    #[test]
    fn default_grid_worker_step_counts_are_pinned() {
        // Exact instructions executed by each worker of the default grid.
        // Execution changes must leave these alone: `ProcessStats::steps`
        // is what the benchmark divides execution time by.
        let steps = |backend| -> Vec<u64> {
            run_grid_workers(&GridConfig::default(), backend, 7)
                .iter()
                .map(|s| s.steps)
                .collect()
        };
        assert_eq!(steps(BackendKind::Bytecode), vec![389113, 431733, 387993]);
        assert_eq!(steps(BackendKind::Interp), vec![243791, 270091, 242931]);
    }

    #[test]
    fn synthetic_source_scales_and_compiles() {
        let small = mojave_lang::compile_source(&synthetic_source(2)).unwrap();
        let large = mojave_lang::compile_source(&synthetic_source(20)).unwrap();
        assert!(large.size() > small.size() * 5);
    }

    #[test]
    fn process_with_heap_packs() {
        let (mut process, roots) = process_with_heap(64 * 1024, false);
        let image = process.pack(0, Word::Fun(0), &roots).unwrap();
        // The live heap reaches the target; the wire image is far smaller
        // because the v5 slab compression collapses the small-int payload
        // (the delta filter turns constant runs into zero deltas, the LZ
        // pass folds the repeats).
        assert!(process.heap().live_bytes() >= 64 * 1024);
        assert!(!image.heap_image.is_empty());
        assert!(
            image.heap_image.len() < 16 * 1024,
            "compressed image stayed at {} bytes",
            image.heap_image.len()
        );
    }
}
