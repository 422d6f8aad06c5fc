//! The two grid workloads.
//!
//! * `stencil` — the paper's application in process on the wall clock,
//!   at a compute-bound size: interpreter execution dominates.
//! * `halo_served` — a deterministic grid over loopback TCP to two real
//!   `mcc node` processes, with thin strips and many steps, so the time
//!   goes to framed RPCs, the checkpoint pipeline and recovery; one node
//!   is killed after its first checkpoint and resurrected.

use crate::stats::{describe, mean, median, ratio};
use crate::{closed_loop, Args, Outcome};
use mojave_cluster::{
    Cluster, ClusterConfig, ClusterExternals, ClusterServer, ClusterSink, RemoteCluster,
};
use mojave_core::{
    DeliveryOutcome, ExtCall, Externals, Machine, MigrationImage, MigrationSink, PipelineStats,
    Process, ProcessConfig, ProcessStats, RunOutcome, RuntimeError, SnapshotPack,
};
use mojave_fir::{MigrateProtocol, Program};
use mojave_grid::{
    reference_checksums, run_grid_deterministic, run_grid_served, run_grid_with, worker_source,
    FailurePlan, GridConfig, GridOptions, GridReport,
};
use mojave_heap::{Heap, HeapStats, Word};
use mojave_obs::{EventKind, Level};
use mojave_wire::CodecSet;
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::process::{Command, Stdio};
use std::rc::Rc;
use std::thread;
use std::time::{Duration, Instant};

/// Two workers (the reference machine has two CPUs), 64 × 64 rows per
/// worker, 40 steps, a checkpoint every 10: about 1.5 s of interpretation
/// per run.
fn stencil_config(tiny: bool) -> GridConfig {
    if tiny {
        GridConfig {
            workers: 2,
            rows_per_worker: 4,
            cols: 8,
            timesteps: 4,
            checkpoint_interval: 2,
        }
    } else {
        GridConfig {
            workers: 2,
            rows_per_worker: 64,
            cols: 64,
            timesteps: 40,
            checkpoint_interval: 10,
        }
    }
}

/// Thin strips (2 rows × 8 cols) over 4000 steps: compute is negligible
/// and every step is several RPCs to the hub.
fn halo_config(tiny: bool) -> GridConfig {
    if tiny {
        GridConfig {
            workers: 2,
            rows_per_worker: 2,
            cols: 8,
            timesteps: 40,
            checkpoint_interval: 10,
        }
    } else {
        GridConfig {
            workers: 2,
            rows_per_worker: 2,
            cols: 8,
            timesteps: 4000,
            checkpoint_interval: 100,
        }
    }
}

/// `halo_served` kills node 1 after its first checkpoint.
const FAILURE: FailurePlan = FailurePlan {
    victim: 1,
    after_checkpoints: 1,
};

/// Round trips the traced `halo_served` run times against the hub.
const RPC_PROBES: usize = 200;

/// One set-up of a grid workload: compile the worker source, build every
/// worker process (verification and bytecode compilation), compute the
/// reference solution and, for a served grid, bind and close a hub.
/// Returns the compile time in ms.
fn grid_setup(config: &GridConfig, hub_seed: Option<u64>) -> Result<f64, String> {
    let source = worker_source(config);
    let compile = Instant::now();
    let program = mojave_lang::compile_source(&source).map_err(|e| e.to_string())?;
    let compile_ms = compile.elapsed().as_secs_f64() * 1e3;
    for _ in 0..config.workers {
        let process =
            Process::new(program.clone(), ProcessConfig::default()).map_err(|e| e.to_string())?;
        std::hint::black_box(process);
    }
    std::hint::black_box(reference_checksums(config));
    if let Some(seed) = hub_seed {
        let cluster = Cluster::new(ClusterConfig::deterministic(config.workers, seed));
        let server = ClusterServer::bind(cluster, "127.0.0.1:0").map_err(|e| e.to_string())?;
        drop(server);
    }
    Ok(compile_ms)
}

/// Check a grid report: checksums against the sequential reference, the
/// recovery flag, and (for deterministic runs) the replay digest.
fn verify(report: &GridReport, recovered: bool, digest: Option<&str>) -> Result<(), String> {
    if !report.is_correct() {
        return Err(format!(
            "checksums {:?} differ from the reference {:?}",
            report.worker_checksums, report.reference_checksums
        ));
    }
    if report.recovered_from_failure != recovered {
        return Err(format!(
            "recovered_from_failure = {}, expected {recovered}",
            report.recovered_from_failure
        ));
    }
    match digest {
        Some(want) if report.replay_digest() != want => Err(format!(
            "replay digest {} differs from the in-process oracle {want}",
            report.replay_digest()
        )),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// stencil
// ---------------------------------------------------------------------------

pub fn stencil(args: &Args) -> Outcome {
    let config = stencil_config(args.tiny);
    let mut out = Outcome::default();
    let mut solve = Vec::new();
    let mut pauses = Vec::new();
    let (mut stored, mut images) = (0u64, 0u64);
    let mut traced: Vec<TracedGrid> = Vec::new();
    let mut traced_solve = Vec::new();
    let setup = closed_loop(
        args,
        || grid_setup(&config, None),
        |trace| {
            let start = Instant::now();
            if trace {
                let result = traced_stencil_unit(&config);
                let elapsed = start.elapsed().as_secs_f64();
                if let Some(unit) = out.record(result) {
                    traced_solve.push(elapsed);
                    traced.push(unit);
                }
                return;
            }
            let result = run_grid_with(&config, None, GridOptions::default())
                .map_err(|e| e.to_string())
                .and_then(|report| verify(&report, false, None).map(|()| report));
            let elapsed = start.elapsed().as_secs_f64();
            if let Some(report) = out.record(result) {
                solve.push(elapsed);
                pauses.push(ratio(
                    report.checkpoint_pause_ns as f64 / 1e6,
                    report.checkpoints as f64,
                ));
                stored += report.checkpoint_stored_bytes;
                // Fault-free: every checkpoint name is written once, so the
                // store holds one image per checkpoint.
                images += report.checkpoints;
            }
        },
    );
    out.set_up(setup);

    out.set("solve_s", median(&solve));
    out.set("ckpt_pause_ms", median(&pauses));
    out.set("ckpt_stored_bytes", ratio(stored as f64, images as f64));
    out.notes.push(format!(
        "stencil: solve_s over {} untraced grid runs ({}), ckpt_pause_ms ({}); {} traced runs",
        solve.len(),
        describe(&solve),
        describe(&pauses),
        traced.len()
    ));
    if args.trace {
        traced_stencil_metrics(&mut out, &traced);
        out.set(
            "obs.trace_overhead",
            ratio(median(&traced_solve), median(&solve)),
        );
    }
    out
}

/// Time spent inside the cluster externals, by call.
#[derive(Debug, Default, Clone, Copy)]
struct ExtClock {
    send_ns: u64,
    send_calls: u64,
    recv_ns: u64,
    recv_calls: u64,
    other_ns: u64,
    other_calls: u64,
}

impl ExtClock {
    fn total_s(&self) -> f64 {
        (self.send_ns + self.recv_ns + self.other_ns) as f64 / 1e9
    }
}

/// [`ClusterExternals`] with a stopwatch around every call.
struct TimedExternals {
    inner: ClusterExternals,
    clock: Rc<RefCell<ExtClock>>,
}

impl Externals for TimedExternals {
    fn call(&mut self, call: ExtCall<'_>, heap: &mut Heap) -> Result<Word, RuntimeError> {
        let start = Instant::now();
        let result = self.inner.call(call, heap);
        let ns = start.elapsed().as_nanos() as u64;
        let mut guard = self.clock.borrow_mut();
        let clock = &mut *guard;
        let (total, calls) = match call.name {
            "msg_send" => (&mut clock.send_ns, &mut clock.send_calls),
            "msg_recv" => (&mut clock.recv_ns, &mut clock.recv_calls),
            _ => (&mut clock.other_ns, &mut clock.other_calls),
        };
        *total += ns;
        *calls += 1;
        result
    }

    fn roots(&self) -> Vec<Word> {
        self.inner.roots()
    }

    fn output(&self) -> &[String] {
        self.inner.output()
    }
}

/// [`ClusterSink`] timing the base negotiation, the one sink call that
/// happens outside the process's own checkpoint-pause stopwatch.
struct TimedSink {
    inner: ClusterSink,
    has_base_ns: Rc<Cell<u64>>,
}

impl MigrationSink for TimedSink {
    fn deliver(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        image: &MigrationImage,
    ) -> DeliveryOutcome {
        self.inner.deliver(protocol, target, image)
    }

    fn has_base(&self, base: &str, base_fingerprint: u64) -> bool {
        let start = Instant::now();
        let answer = self.inner.has_base(base, base_fingerprint);
        self.has_base_ns
            .set(self.has_base_ns.get() + start.elapsed().as_nanos() as u64);
        answer
    }

    fn accepted_codecs(&self) -> CodecSet {
        self.inner.accepted_codecs()
    }

    fn deliver_deferred(
        &mut self,
        protocol: MigrateProtocol,
        target: &str,
        pack: SnapshotPack,
    ) -> DeliveryOutcome {
        self.inner.deliver_deferred(protocol, target, pack)
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn pipeline_stats(&self) -> Option<PipelineStats> {
        self.inner.pipeline_stats()
    }
}

/// One worker of a traced grid run.
struct WorkerTrace {
    checksum: f64,
    run_s: f64,
    ext: ExtClock,
    has_base_s: f64,
    stats: ProcessStats,
    heap: HeapStats,
}

impl WorkerTrace {
    fn ckpt_s(&self) -> f64 {
        self.stats.checkpoint_pause_ns as f64 / 1e9 + self.has_base_s
    }

    /// `Process::run` minus the time inside the externals and the
    /// checkpoint path.
    fn exec_s(&self) -> f64 {
        self.run_s - self.ext.total_s() - self.ckpt_s()
    }
}

/// A traced grid run: the coordinator's fault-free wall-clock path,
/// rebuilt here so each worker's externals and sink can be timed.
struct TracedGrid {
    wall_s: f64,
    workers: Vec<WorkerTrace>,
    messages: u64,
    stored_bytes: u64,
    raw_bytes: u64,
}

fn traced_worker(cluster: Cluster, program: Program, worker: usize) -> Result<WorkerTrace, String> {
    // The coordinator's worker configuration for a fault-free,
    // synchronous-checkpoint, auto-codec run.
    let config = ProcessConfig {
        machine: Machine::new(cluster.arch(worker)),
        step_budget: Some(500_000_000),
        delta_checkpoints: true,
        ..ProcessConfig::default()
    };
    let ext = Rc::new(RefCell::new(ExtClock::default()));
    let has_base_ns = Rc::new(Cell::new(0));
    let mut process = Process::new(program, config)
        .map_err(|e| format!("worker {worker}: {e}"))?
        .with_externals(Box::new(TimedExternals {
            inner: ClusterExternals::new(cluster.clone(), worker),
            clock: Rc::clone(&ext),
        }))
        .with_sink(Box::new(TimedSink {
            inner: ClusterSink::new(cluster, worker),
            has_base_ns: Rc::clone(&has_base_ns),
        }));
    let start = Instant::now();
    let outcome = process.run();
    let run_s = start.elapsed().as_secs_f64();
    let code = match outcome {
        Ok(RunOutcome::Exit(code)) => code,
        Ok(other) => return Err(format!("worker {worker} ended with {other:?}")),
        Err(e) => return Err(format!("worker {worker} failed: {e}")),
    };
    let ext = *ext.borrow();
    Ok(WorkerTrace {
        checksum: code as f64 / 100.0,
        run_s,
        ext,
        has_base_s: has_base_ns.get() as f64 / 1e9,
        stats: process.stats(),
        heap: process.heap().stats(),
    })
}

fn traced_stencil_unit(config: &GridConfig) -> Result<TracedGrid, String> {
    let program = mojave_lang::compile_source(&worker_source(config)).map_err(|e| e.to_string())?;
    let mut cluster_config = ClusterConfig::new(config.workers);
    cluster_config.recv_timeout = Duration::from_millis(1_500);
    let cluster = Cluster::new(cluster_config);

    let start = Instant::now();
    let results: Vec<Result<WorkerTrace, String>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..config.workers)
            .map(|worker| {
                let cluster = cluster.clone();
                let program = program.clone();
                scope.spawn(move || traced_worker(cluster, program, worker))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("worker thread panicked".into()))
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let workers = results.into_iter().collect::<Result<Vec<_>, _>>()?;

    let reference = reference_checksums(config);
    let checksums: Vec<f64> = workers.iter().map(|w| w.checksum).collect();
    if checksums.len() != reference.len()
        || checksums
            .iter()
            .zip(&reference)
            .any(|(got, want)| (got - want).abs() >= 0.05)
    {
        return Err(format!(
            "traced run checksums {checksums:?} differ from the reference {reference:?}"
        ));
    }
    let store = cluster.store().stats();
    Ok(TracedGrid {
        wall_s,
        workers,
        messages: cluster.messages_sent(),
        stored_bytes: store.stored_bytes,
        raw_bytes: store.raw_bytes,
    })
}

fn per_unit(traced: &[TracedGrid], f: impl Fn(&TracedGrid) -> f64) -> Vec<f64> {
    traced.iter().map(f).collect()
}

fn summed(grid: &TracedGrid, f: impl Fn(&WorkerTrace) -> f64) -> f64 {
    grid.workers.iter().map(f).sum()
}

fn traced_stencil_metrics(out: &mut Outcome, traced: &[TracedGrid]) {
    let all = || traced.iter().flat_map(|g| &g.workers);
    let mean_summed = |f: &dyn Fn(&WorkerTrace) -> f64| mean(&per_unit(traced, |g| summed(g, f)));

    let exec = per_unit(traced, |g| summed(g, WorkerTrace::exec_s));
    let steps = per_unit(traced, |g| summed(g, |w| w.stats.steps as f64));
    out.set("core.exec_s", median(&exec));
    out.set("core.steps", mean(&steps));
    out.set(
        "core.steps_per_s",
        ratio(steps.iter().sum(), exec.iter().sum()),
    );

    let checkpoints: f64 = all().map(|w| w.stats.checkpoints as f64).sum();
    let pause_ms: f64 = all()
        .map(|w| w.stats.checkpoint_pause_ns as f64 / 1e6)
        .sum();
    let encode_ms: f64 = all()
        .map(|w| w.stats.checkpoint_encode_ns as f64 / 1e6)
        .sum();
    out.set("core.ckpt_pause_ms", ratio(pause_ms, checkpoints));
    out.set("core.ckpt_encode_ms", ratio(encode_ms, checkpoints));

    let per_call_us = |f: &dyn Fn(&ExtClock) -> (u64, u64)| {
        let (ns, calls) = all().fold((0, 0), |(n, c), w| {
            let (dn, dc) = f(&w.ext);
            (n + dn, c + dc)
        });
        ratio(ns as f64 / 1e3, calls as f64)
    };
    out.set(
        "cluster.send_us",
        per_call_us(&|c| (c.send_ns, c.send_calls)),
    );
    out.set(
        "cluster.recv_wait_us",
        per_call_us(&|c| (c.recv_ns, c.recv_calls)),
    );
    out.set(
        "cluster.ext_other_us",
        per_call_us(&|c| (c.other_ns, c.other_calls)),
    );

    out.set(
        "heap.minor_gcs",
        mean_summed(&|w| w.heap.minor_collections as f64),
    );
    out.set(
        "heap.major_gcs",
        mean_summed(&|w| w.heap.major_collections as f64),
    );
    out.set(
        "heap.cow_clones",
        mean_summed(&|w| w.heap.cow_clones as f64),
    );
    out.set(
        "heap.shared_payload_bytes",
        mean_summed(&|w| w.heap.shared_payload_bytes as f64),
    );
    out.set("grid.rollbacks", mean_summed(&|w| w.stats.rollbacks as f64));
    out.set(
        "grid.checkpoints",
        mean_summed(&|w| w.stats.checkpoints as f64),
    );
    out.set(
        "grid.delta_checkpoints",
        mean_summed(&|w| w.stats.delta_checkpoints as f64),
    );
    out.set(
        "grid.messages",
        mean(&per_unit(traced, |g| g.messages as f64)),
    );
    let stored: u64 = traced.iter().map(|g| g.stored_bytes).sum();
    let raw: u64 = traced.iter().map(|g| g.raw_bytes).sum();
    out.set("codec.stored_over_raw", ratio(stored as f64, raw as f64));

    // Attribution: each worker's share of the grid's wall time, averaged
    // over the (parallel) workers.  Whatever the workers' `Process::run`
    // calls do not cover — thread start, process construction, the wait
    // for the slower worker — is the unattributed remainder.
    let share = |f: &dyn Fn(&WorkerTrace) -> f64| {
        median(&per_unit(traced, |g| {
            ratio(summed(g, f), g.wall_s * g.workers.len() as f64)
        }))
    };
    let exec_frac = share(&|w| w.exec_s());
    let msg_frac = share(&|w| w.ext.total_s());
    let ckpt_frac = share(&|w| w.ckpt_s());
    let unattributed = 1.0 - share(&|w| w.run_s);
    out.set("attrib.exec_frac", exec_frac);
    out.set("attrib.msg_frac", msg_frac);
    out.set("attrib.ckpt_frac", ckpt_frac);
    out.set("attrib.unattributed_frac", unattributed);
    out.notes.push(format!(
        "stencil attribution over {} traced runs: exec {:.1}% + messaging {:.1}% + checkpoint \
         {:.1}% + unattributed {:.1}% of the grid wall time{}",
        traced.len(),
        exec_frac * 100.0,
        msg_frac * 100.0,
        ckpt_frac * 100.0,
        unattributed * 100.0,
        if unattributed <= 0.10 {
            ""
        } else {
            " (above the 10% target)"
        }
    ));
}

// ---------------------------------------------------------------------------
// halo_served
// ---------------------------------------------------------------------------

/// One served grid run and the hub-side facts read after it.
struct Served {
    report: GridReport,
    /// Wall time of `run_grid_served`: node spawn to the last report.
    solve_s: f64,
    frames: u64,
    bytes: u64,
    images: usize,
    rpc_us: f64,
}

/// Node processes of runs that failed: `run_grid_served` only waits for
/// its children when it succeeds, so these are stopped by hand.
struct Orphans(Vec<u32>);

impl Orphans {
    /// Kill every orphan that is still running and wait (up to 10 s) for
    /// each to end.  The processes were never waited on, so their pids
    /// stay reserved as zombies and cannot name another process.
    fn stop_all(&self) {
        let running = |pid: u32| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|stat| {
                    stat.rsplit(')')
                        .next()
                        .map(|s| !s.trim_start().starts_with('Z'))
                })
                .unwrap_or(false)
        };
        for &pid in &self.0 {
            if running(pid) {
                let _ = Command::new("kill")
                    .arg("-KILL")
                    .arg(pid.to_string())
                    .status();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.0.iter().any(|&pid| running(pid)) && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(20));
        }
    }
}

fn served_unit(
    config: &GridConfig,
    seed: u64,
    mcc: &Path,
    obs: Level,
    spawn_ms: &mut Vec<f64>,
    orphans: &mut Orphans,
) -> Result<Served, String> {
    let cluster = Cluster::new(ClusterConfig::deterministic(config.workers, seed));
    let server = ClusterServer::bind(cluster, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let options = GridOptions {
        async_checkpoints: true,
        obs,
        ..GridOptions::default()
    };
    let mut pids = Vec::new();
    let start = Instant::now();
    let result = run_grid_served(&server, config, Some(FAILURE), options, |node| {
        let start = Instant::now();
        let child = Command::new(mcc)
            .arg("node")
            .arg(&addr)
            .arg(node.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn();
        spawn_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if let Ok(child) = &child {
            pids.push(child.id());
        }
        child
    });
    let solve_s = start.elapsed().as_secs_f64();
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            orphans.0.extend(pids);
            return Err(e.to_string());
        }
    };
    let (mut frames, mut bytes) = (0, 0);
    for node in 0..config.workers as u32 {
        if let Some(link) = server.traffic(node) {
            frames += link.frames_sent() + link.frames_received();
            bytes += link.bytes_sent() + link.bytes_received();
        }
    }
    let images = server.cluster().store().stats().images;
    // The probe dials in after the run, so its frames are not counted
    // above.
    let rpc_us = if obs > Level::Off {
        probe_rpc(&addr)?
    } else {
        0.0
    };
    Ok(Served {
        report,
        solve_s,
        frames,
        bytes,
        images,
        rpc_us,
    })
}

/// Median round trip of the cheapest RPC (`Tick`) on a fresh connection
/// to the hub, in µs.
fn probe_rpc(addr: &str) -> Result<f64, String> {
    let remote = RemoteCluster::connect(addr, 0, CodecSet::all()).map_err(|e| e.to_string())?;
    let mut samples = Vec::with_capacity(RPC_PROBES);
    for _ in 0..RPC_PROBES {
        let start = Instant::now();
        remote.tick().map_err(|e| e.to_string())?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    remote.bye();
    Ok(median(&samples))
}

pub fn halo_served(args: &Args, mcc: &Path) -> Outcome {
    let config = halo_config(args.tiny);
    let mut out = Outcome::default();
    // The oracle: the same grid, failure plan and seed in one process.
    let oracle = run_grid_deterministic(&config, Some(FAILURE), args.seed)
        .map_err(|e| e.to_string())
        .and_then(|report| verify(&report, true, None).map(|()| report.replay_digest()));
    let oracle = match oracle {
        Ok(digest) => digest,
        Err(message) => {
            out.fail(format!("in-process oracle: {message}"));
            return out;
        }
    };

    let mut spawn_ms = Vec::new();
    let mut orphans = Orphans(Vec::new());
    let mut plain: Vec<Served> = Vec::new();
    let mut traced: Vec<Served> = Vec::new();
    let setup = closed_loop(
        args,
        || grid_setup(&config, Some(args.seed)),
        |trace| {
            let obs = if trace { Level::Trace } else { Level::Off };
            let result = served_unit(&config, args.seed, mcc, obs, &mut spawn_ms, &mut orphans)
                .and_then(|s| verify(&s.report, true, Some(&oracle)).map(|()| s));
            if let Some(served) = out.record(result) {
                if trace {
                    traced.push(served);
                } else {
                    plain.push(served);
                }
            }
        },
    );
    out.set_up(setup);
    orphans.stop_all();

    let solve: Vec<f64> = plain.iter().map(|s| s.solve_s).collect();
    let pauses: Vec<f64> = plain
        .iter()
        .map(|s| {
            ratio(
                s.report.checkpoint_pause_ns as f64 / 1e6,
                s.report.checkpoints as f64,
            )
        })
        .collect();
    let stored: u64 = plain.iter().map(|s| s.report.checkpoint_stored_bytes).sum();
    let images: usize = plain.iter().map(|s| s.images).sum();
    out.set("solve_s", median(&solve));
    out.set("ckpt_pause_ms", median(&pauses));
    out.set("ckpt_stored_bytes", ratio(stored as f64, images as f64));
    out.notes.push(format!(
        "halo_served: solve_s over {} untraced served runs ({}), ckpt_pause_ms ({}); {} traced runs; \
         oracle digest {oracle}",
        plain.len(),
        describe(&solve),
        describe(&pauses),
        traced.len()
    ));
    if args.trace {
        halo_metrics(&mut out, &config, &plain, &traced, &spawn_ms);
    }
    out
}

fn halo_metrics(
    out: &mut Outcome,
    config: &GridConfig,
    plain: &[Served],
    traced: &[Served],
    spawn_ms: &[f64],
) {
    // Counts come from the untraced runs (tracing adds its own frames);
    // node-side metrics and the RPC probe need the traced ones.
    let per_plain = |f: &dyn Fn(&Served) -> f64| mean(&plain.iter().map(f).collect::<Vec<_>>());
    let reports = || plain.iter().map(|s| &s.report);
    let checkpoints: f64 = reports().map(|r| r.checkpoints as f64).sum();
    out.set(
        "core.ckpt_pause_ms",
        ratio(
            reports().map(|r| r.checkpoint_pause_ns as f64 / 1e6).sum(),
            checkpoints,
        ),
    );
    out.set(
        "core.ckpt_encode_ms",
        ratio(
            reports().map(|r| r.checkpoint_encode_ns as f64 / 1e6).sum(),
            checkpoints,
        ),
    );
    out.set("grid.rollbacks", per_plain(&|s| s.report.rollbacks as f64));
    out.set(
        "grid.checkpoints",
        per_plain(&|s| s.report.checkpoints as f64),
    );
    out.set(
        "grid.delta_checkpoints",
        per_plain(&|s| s.report.delta_checkpoints as f64),
    );
    out.set(
        "grid.messages",
        per_plain(&|s| s.report.network_messages as f64),
    );
    let stored: u64 = reports().map(|r| r.checkpoint_stored_bytes).sum();
    let raw: u64 = reports().map(|r| r.checkpoint_raw_bytes).sum();
    out.set("codec.stored_over_raw", ratio(stored as f64, raw as f64));
    let frames = per_plain(&|s| s.frames as f64);
    out.set("transport.frames", frames);
    out.set("transport.bytes", per_plain(&|s| s.bytes as f64));
    out.set(
        "transport.frames_per_step",
        ratio(frames, (config.timesteps * config.workers) as f64),
    );
    out.set("mcc.spawn_ms", median(spawn_ms));

    let node_counter = |name: &str| {
        mean(
            &traced
                .iter()
                .map(|s| {
                    s.report
                        .node_obs
                        .iter()
                        .map(|o| o.metrics.counter(name) as f64)
                        .sum()
                })
                .collect::<Vec<_>>(),
        )
    };
    out.set("core.steps", node_counter("process.steps"));
    out.set("heap.minor_gcs", node_counter("heap.minor_collections"));
    out.set("heap.major_gcs", node_counter("heap.major_collections"));
    out.set("heap.cow_clones", node_counter("heap.cow_clones"));
    out.set(
        "runtime.pipeline_encode_ms",
        ratio(
            node_counter("pipeline.encode_ns") / 1e6,
            node_counter("pipeline.completed"),
        ),
    );
    out.set(
        "runtime.pipeline_pause_ms",
        ratio(
            node_counter("pipeline.pause_ns") / 1e6,
            node_counter("pipeline.submitted"),
        ),
    );
    let queue_max = traced
        .iter()
        .flat_map(|s| &s.report.node_obs)
        .map(|o| o.metrics.counter("pipeline.queue_depth_max"))
        .max()
        .unwrap_or(0);
    out.set("runtime.queue_depth_max", queue_max as f64);
    let reconnects: Vec<f64> = traced
        .iter()
        .map(|s| {
            s.report
                .node_obs
                .iter()
                .flat_map(|o| &o.events)
                .filter(|e| e.kind == EventKind::Reconnect)
                .count() as f64
        })
        .collect();
    out.set("transport.reconnects", mean(&reconnects));
    out.set(
        "transport.rpc_us",
        median(&traced.iter().map(|s| s.rpc_us).collect::<Vec<_>>()),
    );
    let traced_solve: Vec<f64> = traced.iter().map(|s| s.solve_s).collect();
    let plain_solve: Vec<f64> = plain.iter().map(|s| s.solve_s).collect();
    out.set(
        "obs.trace_overhead",
        ratio(median(&traced_solve), median(&plain_solve)),
    );
}
