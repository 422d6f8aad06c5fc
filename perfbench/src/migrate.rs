//! The `migrate` workload: the paper's migration and speculation
//! experiments, driven from Rust over the public APIs — no interpreter
//! and no sockets.
//!
//! The process is the grid-worker program carrying about 2 MiB of heap:
//! half the blocks hold seeded field floats (which compress poorly), half
//! small-int arrays (which compress well).  One round is
//!
//! 1. a full checkpoint — `Process::pack`, `to_bytes`, `CheckpointStore::put`;
//! 2. `DELTAS` times: `SPECS_PER_CHECKPOINT` speculation rounds (enter,
//!    seeded stores to 1–50% of the blocks, then commit, or roll back one
//!    time in four) followed by a delta checkpoint (`pack_delta`,
//!    `to_bytes`, `put`);
//! 3. a resume of the last checkpoint on a different-arch node —
//!    `CheckpointStore::load` (which resolves the delta), then
//!    `Process::from_image`.
//!
//! The resumed heap is compared with the source heap at that checkpoint,
//! by a digest over the roots, outside the timed operations.

use crate::stats::{describe, mean, median, p90, ratio};
use crate::{closed_loop, Args, Outcome};
use mojave_core::rng::SplitMix64;
use mojave_core::{Machine, MigrationImage, Process, ProcessConfig};
use mojave_fir::{typecheck, validate, ExternEnv, Program};
use mojave_grid::{worker_source, GridConfig};
use mojave_heap::{Heap, HeapConfig, HeapStats, PtrIdx, Word};
use std::time::{Duration, Instant};

/// Words per heap block: 512 payload bytes.
const BLOCK_WORDS: usize = 64;
/// Delta checkpoints after each full one.
const DELTAS: usize = 4;
/// Speculation rounds before each delta checkpoint.
const SPECS_PER_CHECKPOINT: usize = 3;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The grid worker the paper migrates, as its checkpoints carry it.
fn grid_worker_program() -> Result<Program, String> {
    let config = GridConfig {
        workers: 1,
        rows_per_worker: 16,
        cols: 16,
        timesteps: 4,
        checkpoint_interval: 2,
    };
    mojave_lang::compile_source(&worker_source(&config)).map_err(|e| e.to_string())
}

/// The process being checkpointed, its roots and the seeded generator
/// that drives its mutations.
struct Subject {
    process: Process,
    blocks: Vec<PtrIdx>,
    roots: Vec<Word>,
    rng: SplitMix64,
    /// A permutation of block indices; each speculation round takes a
    /// fresh random prefix of it.
    order: Vec<usize>,
}

fn float_value(rng: &mut SplitMix64) -> Word {
    Word::Float(rng.next_f64() * 1000.0 - 500.0)
}

fn int_value(rng: &mut SplitMix64) -> Word {
    Word::Int(rng.next_below(16) as i64)
}

/// Even blocks hold floats, odd blocks small ints.
fn value_for(block: usize, rng: &mut SplitMix64) -> Word {
    if block.is_multiple_of(2) {
        float_value(rng)
    } else {
        int_value(rng)
    }
}

/// Build the subject: compile the program, create the process and fill
/// its heap to `heap_bytes`.  Returns the subject and the compile time.
fn build(seed: u64, heap_bytes: usize) -> Result<(Subject, Duration), String> {
    let compile = Instant::now();
    let program = grid_worker_program()?;
    let compile_time = compile.elapsed();
    let mut process = Process::new(program, ProcessConfig::default()).map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::new(seed);
    let heap = process.heap_mut();
    let mut blocks = Vec::new();
    while heap.live_bytes() < heap_bytes {
        let block = blocks.len();
        let ptr = heap
            .alloc_array(BLOCK_WORDS as i64, Word::Int(0))
            .map_err(|e| e.to_string())?;
        for i in 0..BLOCK_WORDS {
            heap.store(ptr, i as i64, value_for(block, &mut rng))
                .map_err(|e| e.to_string())?;
        }
        blocks.push(ptr);
    }
    let roots = blocks.iter().copied().map(Word::Ptr).collect();
    let order = (0..blocks.len()).collect();
    Ok((
        Subject {
            process,
            blocks,
            roots,
            rng,
            order,
        },
        compile_time,
    ))
}

/// FNV-1a over the contents of the blocks `roots` point to: independent
/// of pointer numbering, so a resumed heap digests like its source.
fn digest(heap: &Heap, roots: &[Word]) -> Result<u64, String> {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for root in roots {
        let Word::Ptr(ptr) = root else {
            return Err(format!("root {root:?} is not a pointer"));
        };
        let len = heap.block_len(*ptr).map_err(|e| e.to_string())?;
        eat(&(len as u64).to_le_bytes());
        for i in 0..len {
            match heap.load(*ptr, i as i64).map_err(|e| e.to_string())? {
                Word::Float(f) => eat(&f.to_bits().to_le_bytes()),
                Word::Int(n) => eat(&n.to_le_bytes()),
                other => eat(format!("{other:?}").as_bytes()),
            }
        }
    }
    Ok(hash)
}

/// Timings and sizes of one round.
#[derive(Debug, Default)]
struct Round {
    solve: Duration,
    /// pack + to_bytes + put, per checkpoint (the full one first).
    checkpoints: Vec<Duration>,
    pack: Vec<Duration>,
    to_bytes: Vec<Duration>,
    put: Vec<Duration>,
    image_bytes: Vec<usize>,
    stored: u64,
    raw: u64,
    spec_rounds: Vec<Duration>,
    spec_enter: Vec<Duration>,
    spec_commit: Vec<Duration>,
    spec_rollback: Vec<Duration>,
    mutate: Vec<Duration>,
    resume: Duration,
    load: Duration,
    from_image: Duration,
    recompile: Duration,
    heap_decode: Duration,
    heap: HeapStats,
    /// Operations attempted (checkpoints, speculation rounds, resume).
    ops: u64,
}

impl Subject {
    /// One speculation round.  The stores are drawn before the clock
    /// starts.
    fn speculate(&mut self, round: &mut Round) -> Result<(), String> {
        let percent = 1 + self.rng.next_below(50) as usize;
        let count = (self.blocks.len() * percent / 100).max(1);
        let rollback = self.rng.next_below(4) == 0;
        let n = self.order.len();
        let mut stores = Vec::with_capacity(count);
        for i in 0..count {
            let j = i + self.rng.next_below((n - i) as u64) as usize;
            self.order.swap(i, j);
            let block = self.order[i];
            let index = self.rng.next_below(BLOCK_WORDS as u64) as i64;
            stores.push((self.blocks[block], index, value_for(block, &mut self.rng)));
        }

        let heap = self.process.heap_mut();
        let start = Instant::now();
        let level = heap.spec_enter();
        let entered = Instant::now();
        for (ptr, index, value) in stores {
            heap.store(ptr, index, value).map_err(|e| e.to_string())?;
        }
        let mutated = Instant::now();
        if rollback {
            heap.spec_rollback(level).map_err(|e| e.to_string())?;
        } else {
            heap.spec_commit(level).map_err(|e| e.to_string())?;
        }
        let end = Instant::now();
        round.spec_enter.push(entered - start);
        round.mutate.push(mutated - entered);
        if rollback {
            round.spec_rollback.push(end - mutated);
        } else {
            round.spec_commit.push(end - mutated);
        }
        round.spec_rounds.push(end - start);
        Ok(())
    }

    /// Pack (full, or delta against `base`), serialise and store one
    /// checkpoint; returns the packed image.
    fn checkpoint(
        &mut self,
        store: &mojave_core::CheckpointStore,
        label: usize,
        base: Option<(&str, u64)>,
        round: &mut Round,
    ) -> Result<MigrationImage, String> {
        let name = format!("m-{label}");
        let fun = Word::Fun(0);
        let start = Instant::now();
        let image = match base {
            None => self.process.pack(label as u32, fun, &self.roots),
            Some((base, fp)) => self
                .process
                .pack_delta(label as u32, fun, &self.roots, base, fp),
        }
        .map_err(|e| e.to_string())?;
        let packed = Instant::now();
        let bytes = image.to_bytes();
        let serialised = Instant::now();
        let len = bytes.len();
        store.put(&name, bytes);
        let end = Instant::now();
        round.pack.push(packed - start);
        round.to_bytes.push(serialised - packed);
        round.put.push(end - serialised);
        round.checkpoints.push(end - start);
        round.image_bytes.push(len);
        let (raw, stored) = store.image_sizes(&name).unwrap_or((len as u64, len as u64));
        round.raw += raw;
        round.stored += stored;
        Ok(image)
    }

    /// One round; `split` additionally times the resume's recompile and
    /// heap decode on their own (outside the timed resume).
    fn round(&mut self, split: bool) -> Result<Round, String> {
        let mut round = Round::default();
        let mut untimed = Duration::ZERO;
        let heap_before = self.process.heap().stats();
        let start = Instant::now();
        let store = mojave_core::CheckpointStore::new();

        round.ops += 1;
        let full = self.checkpoint(&store, 0, None, &mut round)?;
        self.process.heap_mut().mark_clean();
        let fingerprint = full.heap_image.fingerprint();
        for label in 1..=DELTAS {
            for _ in 0..SPECS_PER_CHECKPOINT {
                round.ops += 1;
                self.speculate(&mut round)?;
            }
            round.ops += 1;
            self.checkpoint(&store, label, Some(("m-0", fingerprint)), &mut round)?;
        }
        let last = format!("m-{DELTAS}");
        let verify = Instant::now();
        let want = digest(self.process.heap(), &self.roots)?;
        untimed += verify.elapsed();

        round.ops += 1;
        let resume = Instant::now();
        let image = store.load(&last).map_err(|e| e.to_string())?;
        let loaded = Instant::now();
        let env = image.migrate_env;
        let config = ProcessConfig {
            machine: Machine::risc(),
            ..ProcessConfig::default()
        };
        let resumed = Process::from_image(image, config).map_err(|e| e.to_string())?;
        let end = Instant::now();
        round.load = loaded - resume;
        round.from_image = end - loaded;
        round.resume = end - resume;

        let verify = Instant::now();
        let heap = resumed.heap();
        let env_len = heap.block_len(env).map_err(|e| e.to_string())?;
        let roots = (0..env_len)
            .map(|i| heap.load(env, i as i64))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let got = digest(heap, &roots)?;
        if got != want {
            return Err(format!(
                "resumed heap digest {got:016x} differs from the source's {want:016x}"
            ));
        }
        if split {
            let image = store.load(&last).map_err(|e| e.to_string())?;
            let (recompile, heap_decode) = split_resume(&image)?;
            round.recompile = recompile;
            round.heap_decode = heap_decode;
        }
        untimed += verify.elapsed();
        round.solve = start.elapsed() - untimed;
        round.heap = delta_stats(heap_before, self.process.heap().stats());
        Ok(round)
    }
}

/// The two halves of `Process::from_image`, timed apart: verifying and
/// recompiling the FIR, and decoding the heap.
fn split_resume(image: &MigrationImage) -> Result<(Duration, Duration), String> {
    let mojave_core::migrate::PackedCode::Fir(program) = &image.code else {
        return Err("checkpoint carries binary code, expected FIR".into());
    };
    let start = Instant::now();
    validate(program).map_err(|e| e.to_string())?;
    typecheck(program, &ExternEnv::standard()).map_err(|e| e.to_string())?;
    let bytecode = mojave_core::backend::compile_program(program).map_err(|e| e.to_string())?;
    let compiled = Instant::now();
    std::hint::black_box(bytecode);
    let heap = image
        .decode_heap(HeapConfig::default())
        .map_err(|e| e.to_string())?;
    let decoded = Instant::now();
    std::hint::black_box(heap);
    Ok((compiled - start, decoded - compiled))
}

fn delta_stats(before: HeapStats, after: HeapStats) -> HeapStats {
    HeapStats {
        minor_collections: after.minor_collections - before.minor_collections,
        major_collections: after.major_collections - before.major_collections,
        cow_clones: after.cow_clones - before.cow_clones,
        shared_payload_bytes: after.shared_payload_bytes - before.shared_payload_bytes,
        ..HeapStats::default()
    }
}

pub fn migrate(args: &Args) -> Outcome {
    let heap_bytes = if args.tiny { 64 << 10 } else { 2 << 20 };
    let mut out = Outcome::default();
    let mut subject = match build(args.seed, heap_bytes) {
        Ok((subject, _)) => subject,
        Err(message) => {
            out.fail(format!("set-up: {message}"));
            return out;
        }
    };

    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let setup = closed_loop(
        args,
        || build(args.seed, heap_bytes).map(|(_, c)| ms(c)),
        |trace| match subject.round(trace) {
            Ok(round) => {
                out.attempted += round.ops;
                if trace {
                    traced.push(round);
                } else {
                    plain.push(round);
                }
            }
            Err(message) => out.fail(message),
        },
    );
    out.set_up(setup);

    let solve: Vec<f64> = plain.iter().map(|r| r.solve.as_secs_f64()).collect();
    let pauses: Vec<f64> = plain
        .iter()
        .map(|r| ms(r.checkpoints.iter().sum::<Duration>()) / r.checkpoints.len() as f64)
        .collect();
    let stored: u64 = plain.iter().map(|r| r.stored).sum();
    let checkpoints: usize = plain.iter().map(|r| r.checkpoints.len()).sum();
    out.set("solve_s", median(&solve));
    out.set("ckpt_pause_ms", median(&pauses));
    out.set(
        "ckpt_stored_bytes",
        ratio(stored as f64, checkpoints as f64),
    );
    let rounds = if args.trace { &traced } else { &plain };
    let all = |f: &dyn Fn(&Round) -> Vec<Duration>| -> Vec<f64> {
        rounds.iter().flat_map(f).map(ms).collect()
    };
    let full = all(&|r| r.checkpoints[..1].to_vec());
    let delta = all(&|r| r.checkpoints[1..].to_vec());
    let resume = all(&|r| vec![r.resume]);
    let spec = all(&|r| r.spec_rounds.clone());
    out.notes.push(format!(
        "migrate: solve_s over {} untraced rounds ({}), ckpt_pause_ms ({}); {} traced rounds; over {} {} rounds: \
         full ckpt p50 {:.3} ms (n={}), delta p50 {:.3} / p90 {:.3} ms (n={}), resume p50 {:.3} ms \
         (n={}), spec round p50 {:.3} / p90 {:.3} ms (n={})",
        plain.len(),
        describe(&solve),
        describe(&pauses),
        traced.len(),
        rounds.len(),
        if args.trace { "traced" } else { "untraced" },
        median(&full),
        full.len(),
        median(&delta),
        p90(&delta),
        delta.len(),
        median(&resume),
        resume.len(),
        median(&spec),
        p90(&spec),
        spec.len(),
    ));
    if args.trace {
        out.set("migrate.ckpt_full_ms_p50", median(&full));
        out.set("migrate.ckpt_delta_ms_p50", median(&delta));
        out.set("migrate.ckpt_delta_ms_p90", p90(&delta));
        out.set("migrate.resume_ms_p50", median(&resume));
        out.set("migrate.spec_round_ms_p50", median(&spec));
        out.set("migrate.spec_round_ms_p90", p90(&spec));
        traced_metrics(&mut out, &traced);
        let traced_solve: Vec<f64> = traced.iter().map(|r| r.solve.as_secs_f64()).collect();
        out.set(
            "obs.trace_overhead",
            ratio(median(&traced_solve), median(&solve)),
        );
    }
    out
}

fn traced_metrics(out: &mut Outcome, traced: &[Round]) {
    let all = |f: &dyn Fn(&Round) -> Vec<Duration>| -> Vec<f64> {
        traced.iter().flat_map(f).map(ms).collect()
    };
    let us = |f: &dyn Fn(&Round) -> Vec<Duration>| median(&all(f)) * 1e3;
    out.set("core.pack_full_ms", median(&all(&|r| r.pack[..1].to_vec())));
    out.set(
        "core.pack_delta_ms",
        median(&all(&|r| r.pack[1..].to_vec())),
    );
    out.set("wire.to_bytes_ms", median(&all(&|r| r.to_bytes.clone())));
    out.set("cluster.store_put_ms", median(&all(&|r| r.put.clone())));
    out.set("cluster.store_load_ms", median(&all(&|r| vec![r.load])));
    out.set("core.from_image_ms", median(&all(&|r| vec![r.from_image])));
    out.set("core.recompile_ms", median(&all(&|r| vec![r.recompile])));
    out.set(
        "wire.heap_decode_ms",
        median(&all(&|r| vec![r.heap_decode])),
    );
    out.set("heap.spec_enter_us", us(&|r| r.spec_enter.clone()));
    out.set("heap.spec_commit_us", us(&|r| r.spec_commit.clone()));
    out.set("heap.spec_rollback_us", us(&|r| r.spec_rollback.clone()));
    out.set("heap.mutate_us", us(&|r| r.mutate.clone()));
    let checkpoints: Vec<f64> = all(&|r| r.checkpoints.clone());
    out.set("core.ckpt_pause_ms", mean(&checkpoints));
    out.set(
        "core.ckpt_encode_ms",
        mean(&all(&|r| {
            r.pack
                .iter()
                .zip(&r.to_bytes)
                .map(|(p, b)| *p + *b)
                .collect()
        })),
    );

    let sizes = |f: &dyn Fn(&Round) -> &[usize]| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|r| f(r).iter().map(|&n| n as f64))
            .collect()
    };
    out.set(
        "wire.full_image_bytes",
        mean(&sizes(&|r| &r.image_bytes[..1])),
    );
    out.set(
        "wire.delta_image_bytes",
        mean(&sizes(&|r| &r.image_bytes[1..])),
    );
    let stored: u64 = traced.iter().map(|r| r.stored).sum();
    let raw: u64 = traced.iter().map(|r| r.raw).sum();
    out.set("codec.stored_over_raw", ratio(stored as f64, raw as f64));

    let heap = |f: &dyn Fn(&HeapStats) -> u64| {
        mean(&traced.iter().map(|r| f(&r.heap) as f64).collect::<Vec<_>>())
    };
    out.set("heap.minor_gcs", heap(&|h| h.minor_collections));
    out.set("heap.major_gcs", heap(&|h| h.major_collections));
    out.set("heap.cow_clones", heap(&|h| h.cow_clones));
    out.set(
        "heap.shared_payload_bytes",
        heap(&|h| h.shared_payload_bytes),
    );
}
