//! A running Mojave process: heap + code + speculation state + externals,
//! with both execution back-ends and the migration/speculation control flow.

use crate::backend::{compile_program, BackendKind, BytecodeProgram, Const, Instr};
use crate::error::RuntimeError;
use crate::externals::{DefaultExternals, ExtCall, Externals};
use crate::machine::Machine;
use crate::migrate::{
    DeliveryOutcome, HeapImage, InMemorySink, MigrationImage, MigrationSink, PackedCode,
    SnapshotPack,
};
use crate::speculate::SpeculationManager;
use mojave_fir::{
    typecheck, validate, Atom, Binop, Expr, ExternEnv, FunId, MigrateProtocol, Program, Unop, VarId,
};
use mojave_heap::{BlockKind, Heap, HeapConfig, Word};
use mojave_obs::{EventKind, Recorder};
use mojave_wire::{CodecId, CodecSet, WireWriter};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Configuration of a [`Process`].
#[derive(Debug, Clone)]
pub struct ProcessConfig {
    /// Which back-end executes the program.
    pub backend: BackendKind,
    /// Heap configuration.
    pub heap: HeapConfig,
    /// Optional bound on executed instructions; `None` means unbounded.
    /// Used by tests and by the cluster's failure injection.
    pub step_budget: Option<u64>,
    /// The (simulated) machine this process runs on.
    pub machine: Machine,
    /// Whether `migrate` packs FIR (`false`, the default — the safe,
    /// architecture-independent protocol) or compiled bytecode (`true`,
    /// "binary" migration).
    pub binary_migration: bool,
    /// Run the FIR type checker and validator at construction time.
    pub verify: bool,
    /// Emit incremental (delta) checkpoint images when a base checkpoint is
    /// available on the sink: only the heap blocks dirtied since the last
    /// full checkpoint are shipped.  Off by default; `migrate://` and
    /// `suspend://` images are always full regardless.
    ///
    /// Deltas require **rotating checkpoint names** (like the grid's
    /// `grid-<id>-<step>`): a delta is never written under its own base's
    /// name, because storing it would replace the image it references — a
    /// program that checkpoints to one constant name keeps getting full
    /// images.
    pub delta_checkpoints: bool,
    /// With [`ProcessConfig::delta_checkpoints`], force a full checkpoint
    /// after this many consecutive deltas.  Deltas accumulate every block
    /// dirtied since the last *full* image, so this bounds both delta size
    /// growth and the work a loader does resolving a checkpoint.
    pub max_delta_chain: u32,
    /// Slab-compression codec for packed heap payloads (wire v5).
    ///
    /// `None` (the default) lets the encoder pick per slab — sample the
    /// slab, take the smallest encoding among what the sink advertises
    /// via [`MigrationSink::accepted_codecs`].  `Some(codec)` forces that
    /// codec (benchmarks and fixtures); if the sink does not accept it,
    /// the process falls back to [`CodecId::Raw`], which every sink
    /// accepts.
    pub heap_codec: Option<CodecId>,
    /// Take `checkpoint://` images **asynchronously**: the mutator only
    /// pays a zero-pause heap freeze (O(pointer-table) copy-on-write
    /// capture, [`mojave_heap::Heap::freeze`]) and hands the encode +
    /// delivery to the sink via [`MigrationSink::deliver_deferred`].
    /// With an `AsyncSink` (`mojave-runtime`) the expensive work runs on
    /// a pipeline worker thread concurrently with the mutator; with a
    /// plain sink the default trait method encodes inline, so the flag is
    /// always safe to set.
    ///
    /// Trade-offs: the pre-pack GC is skipped (dead blocks ride along
    /// until the next natural collection), delivery outcomes are
    /// optimistic (`Stored` is reported at submission; failures surface
    /// in [`crate::PipelineStats::failed`]), and `migrate://` /
    /// `suspend://` images remain synchronous (their outcome decides
    /// whether the process keeps running).
    pub async_checkpoints: bool,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        ProcessConfig {
            backend: BackendKind::Bytecode,
            heap: HeapConfig::default(),
            step_budget: None,
            machine: Machine::default(),
            binary_migration: false,
            verify: true,
            delta_checkpoints: false,
            max_delta_chain: 8,
            heap_codec: None,
            async_checkpoints: false,
        }
    }
}

/// Why a call to [`Process::run`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program halted with an exit value.
    Exit(i64),
    /// A `migrate://` migration succeeded; the process now runs on the
    /// target machine and the local copy has terminated.
    MigratedAway {
        /// The migration target (node name).
        target: String,
    },
    /// A `suspend://` migration wrote the process image and terminated it.
    Suspended {
        /// The checkpoint name the image was stored under.
        target: String,
    },
}

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// Instructions (interpreter steps or bytecode instructions) executed.
    pub steps: u64,
    /// `speculate` operations performed.
    pub speculations: u64,
    /// `commit` operations performed.
    pub commits: u64,
    /// `rollback` operations performed.
    pub rollbacks: u64,
    /// Checkpoints successfully written.
    pub checkpoints: u64,
    /// Of those, how many were incremental (delta) images.
    pub delta_checkpoints: u64,
    /// Migration attempts (any protocol).
    pub migration_attempts: u64,
    /// Migration attempts that failed and fell back to local execution.
    pub migration_failures: u64,
    /// Nanoseconds the mutator was blocked by checkpointing: the full
    /// pack + deliver time on the synchronous path, or just the heap
    /// freeze + submission on the asynchronous path.
    pub checkpoint_pause_ns: u64,
    /// Nanoseconds spent encoding checkpoint images — on the mutator for
    /// synchronous checkpoints, on pipeline workers (collected at
    /// [`Process::run`] exit) for asynchronous ones.
    pub checkpoint_encode_ns: u64,
}

/// The heap-payload fingerprint of the last full checkpoint — the value a
/// delta image must pin its base with.  Synchronous checkpoints know it
/// immediately; asynchronous ones learn it once the pipeline worker has
/// encoded the image (the [`OnceLock`] is filled by
/// [`SnapshotPack::into_image`]).  Until then the process simply emits
/// full images — never a delta against an unpinned base.
#[derive(Debug, Clone)]
enum BaseFingerprint {
    /// Known at checkpoint time (synchronous pack).
    Known(u64),
    /// Will be filled by the deferred encoder.
    Pending(Arc<OnceLock<u64>>),
}

impl BaseFingerprint {
    fn get(&self) -> Option<u64> {
        match self {
            BaseFingerprint::Known(fp) => Some(*fp),
            BaseFingerprint::Pending(slot) => slot.get().copied(),
        }
    }
}

/// Where control goes after a function body finishes executing.
#[derive(Debug, Clone)]
enum Transfer {
    /// A tail call, from the interpreter only: the bytecode VM runs its
    /// tail calls inside its dispatch loop.
    Call {
        target: Word,
        args: Vec<Word>,
    },
    Halt(i64),
    Speculate {
        fun: Word,
        args: Vec<Word>,
    },
    Commit {
        level: i64,
        fun: Word,
        args: Vec<Word>,
    },
    Rollback {
        level: i64,
        code: i64,
    },
    Migrate {
        label: u32,
        target: String,
        fun: Word,
        args: Vec<Word>,
    },
}

/// A running Mojave process.
pub struct Process {
    program: Option<Program>,
    /// Compiled code, shared with the VM for the length of a run so
    /// execution never copies a function's instructions.
    bytecode: Option<Arc<BytecodeProgram>>,
    /// The bytecode VM's one register file, reused across calls; while a
    /// function runs it holds exactly that function's frame.
    vm_regs: Vec<Word>,
    /// Scratch buffer the VM copies call and external arguments through.
    vm_args: Vec<Word>,
    heap: Heap,
    spec: SpeculationManager,
    externals: Box<dyn Externals>,
    sink: Box<dyn MigrationSink>,
    config: ProcessConfig,
    stats: ProcessStats,
    /// The next continuation to run (entry point, or the resume point of an
    /// unpacked image).
    pending: Option<(Word, Vec<Word>)>,
    extern_env: ExternEnv,
    /// Name and heap-payload fingerprint of the last *full* checkpoint this
    /// process stored — the base candidate for delta checkpoints.
    checkpoint_base: Option<(String, BaseFingerprint)>,
    /// Consecutive delta checkpoints emitted against `checkpoint_base`.
    deltas_since_full: u32,
    /// Pipeline encode time already folded into
    /// [`ProcessStats::checkpoint_encode_ns`], so repeated flushes add
    /// only the delta.
    encode_ns_reported: u64,
    /// Cached code section for snapshot packs.  The code is immutable for
    /// the process lifetime, so the (potentially large) program clone is
    /// paid once; every subsequent zero-pause pack shares it.
    packed_code_cache: Option<Arc<PackedCode>>,
    /// Flight recorder for checkpoint/deliver events (shared with the
    /// heap's recorder when set through [`Process::with_recorder`]).
    recorder: Recorder,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("backend", &self.config.backend)
            .field("machine", &self.config.machine)
            .field("steps", &self.stats.steps)
            .field("spec_depth", &self.heap.spec_depth())
            .finish()
    }
}

impl Process {
    /// Create a process from an FIR program with default configuration,
    /// externals and sink.
    ///
    /// # Panics
    /// Panics if the program fails validation or type checking; use
    /// [`Process::new`] to handle those errors.
    pub fn from_program(program: Program) -> Self {
        Process::new(program, ProcessConfig::default()).expect("program verifies")
    }

    /// Create a process from an FIR program.
    pub fn new(program: Program, config: ProcessConfig) -> Result<Self, RuntimeError> {
        let extern_env = ExternEnv::standard();
        if config.verify {
            validate(&program)?;
            typecheck(&program, &extern_env)?;
        }
        let bytecode = match config.backend {
            BackendKind::Bytecode => {
                Some(Arc::new(compile_program(&program).map_err(|e| {
                    RuntimeError::MigrationRejected(e.to_string())
                })?))
            }
            BackendKind::Interp => None,
        };
        let entry = Word::Fun(program.entry.0);
        Ok(Process {
            program: Some(program),
            bytecode,
            vm_regs: Vec::new(),
            vm_args: Vec::new(),
            heap: Heap::with_config(config.heap),
            spec: SpeculationManager::new(),
            externals: Box::new(DefaultExternals::default()),
            sink: Box::new(InMemorySink::new()),
            config,
            stats: ProcessStats::default(),
            pending: Some((entry, Vec::new())),
            extern_env,
            checkpoint_base: None,
            deltas_since_full: 0,
            encode_ns_reported: 0,
            packed_code_cache: None,
            recorder: Recorder::disabled(),
        })
    }

    /// Unpack a migration/checkpoint image into a runnable process
    /// (paper §4.2.2: the FIR is type-checked and recompiled before
    /// execution resumes).
    pub fn from_image(image: MigrationImage, config: ProcessConfig) -> Result<Self, RuntimeError> {
        let extern_env = ExternEnv::standard();
        let (program, bytecode) = match &image.code {
            PackedCode::Fir(program) => {
                // The safety step: verify before running foreign code.
                validate(program)?;
                typecheck(program, &extern_env)?;
                let bytecode = match config.backend {
                    BackendKind::Bytecode => {
                        Some(Arc::new(compile_program(program).map_err(|e| {
                            RuntimeError::MigrationRejected(e.to_string())
                        })?))
                    }
                    BackendKind::Interp => None,
                };
                (Some(program.clone()), bytecode)
            }
            PackedCode::Binary { arch, bytecode } => {
                if !config
                    .machine
                    .binary_compatible(&Machine::new(arch.clone()))
                {
                    return Err(RuntimeError::MigrationRejected(format!(
                        "binary image for `{arch}` cannot run on `{}`",
                        config.machine
                    )));
                }
                if config.backend == BackendKind::Interp {
                    return Err(RuntimeError::MigrationRejected(
                        "the interpreter backend needs FIR, but the image is binary".into(),
                    ));
                }
                (None, Some(Arc::new(bytecode.clone())))
            }
        };
        let heap = image.decode_heap(config.heap)?;
        // Recover the live variables from the migrate environment.
        let env_len = heap.block_len(image.migrate_env)?;
        if heap.block_kind(image.migrate_env)? != BlockKind::MigrateEnv {
            return Err(RuntimeError::MigrationRejected(
                "migrate_env does not point at a MigrateEnv block".into(),
            ));
        }
        let mut args = Vec::with_capacity(env_len);
        for i in 0..env_len {
            args.push(heap.load(image.migrate_env, i as i64)?);
        }
        Ok(Process {
            program,
            bytecode,
            vm_regs: Vec::new(),
            vm_args: Vec::new(),
            heap,
            spec: SpeculationManager::new(),
            externals: Box::new(DefaultExternals::default()),
            sink: Box::new(InMemorySink::new()),
            config,
            stats: ProcessStats::default(),
            pending: Some((image.resume_fun, args)),
            extern_env,
            checkpoint_base: None,
            deltas_since_full: 0,
            encode_ns_reported: 0,
            packed_code_cache: None,
            recorder: Recorder::disabled(),
        })
    }

    /// Replace the externals implementation (builder style).
    pub fn with_externals(mut self, externals: Box<dyn Externals>) -> Self {
        self.externals = externals;
        self
    }

    /// Replace the migration sink (builder style).
    pub fn with_sink(mut self, sink: Box<dyn MigrationSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Register additional external signatures (for programs using
    /// cluster-provided externals beyond the standard set).
    pub fn with_extern_env(mut self, env: ExternEnv) -> Self {
        self.extern_env = env;
        self
    }

    /// Attach a flight recorder (builder style).  The same recorder is
    /// handed to the heap, so checkpoint spans, GC, freeze and
    /// speculation events all land in one stream.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.heap.set_recorder(recorder.clone());
        self.recorder = recorder;
        self
    }

    /// The attached flight recorder (disabled unless set through
    /// [`Process::with_recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Fold the scattered per-layer stats structs ([`ProcessStats`],
    /// heap stats, pipeline stats) into the recorder's metrics registry
    /// under one namespace, so a single snapshot exports everything.
    /// No-op below the `Metrics` level.
    pub fn export_metrics(&self) {
        if !self.recorder.metrics_on() {
            return;
        }
        let registry = self.recorder.registry();
        let s = self.stats;
        registry.counter_set("process.steps", s.steps);
        registry.counter_set("process.speculations", s.speculations);
        registry.counter_set("process.commits", s.commits);
        registry.counter_set("process.rollbacks", s.rollbacks);
        registry.counter_set("process.checkpoints", s.checkpoints);
        registry.counter_set("process.delta_checkpoints", s.delta_checkpoints);
        registry.counter_set("process.migration_attempts", s.migration_attempts);
        registry.counter_set("process.migration_failures", s.migration_failures);
        registry.counter_set("process.checkpoint_pause_ns", s.checkpoint_pause_ns);
        registry.counter_set("process.checkpoint_encode_ns", s.checkpoint_encode_ns);
        let h = self.heap.stats();
        registry.counter_set("heap.blocks_allocated", h.blocks_allocated);
        registry.counter_set("heap.bytes_allocated", h.bytes_allocated);
        registry.counter_set("heap.minor_collections", h.minor_collections);
        registry.counter_set("heap.major_collections", h.major_collections);
        registry.counter_set("heap.cow_clones", h.cow_clones);
        registry.counter_set("heap.snapshots_frozen", h.snapshots_frozen);
        if let Some(p) = self.sink.pipeline_stats() {
            registry.counter_set("pipeline.submitted", p.submitted);
            registry.counter_set("pipeline.completed", p.completed);
            registry.counter_set("pipeline.coalesced", p.coalesced);
            registry.counter_set("pipeline.failed", p.failed);
            registry.counter_set("pipeline.queue_depth_max", p.queue_depth_max as u64);
            registry.counter_set("pipeline.bytes_raw", p.bytes_raw);
            registry.counter_set("pipeline.bytes_stored", p.bytes_stored);
            registry.counter_set("pipeline.pause_ns", p.pause_ns);
            registry.counter_set("pipeline.encode_ns", p.encode_ns);
        }
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> ProcessStats {
        self.stats
    }

    /// The heap (for tests, diagnostics and the bench harness).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable heap access (used by benchmarks that pre-populate state).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// The FIR program, if this process still carries one (binary-resumed
    /// processes do not).
    pub fn program(&self) -> Option<&Program> {
        self.program.as_ref()
    }

    /// The compiled bytecode, if the bytecode backend is in use.
    pub fn bytecode(&self) -> Option<&BytecodeProgram> {
        self.bytecode.as_deref()
    }

    /// Lines the program printed so far.
    pub fn output(&self) -> &[String] {
        self.externals.output()
    }

    /// The process configuration.
    pub fn config(&self) -> &ProcessConfig {
        &self.config
    }

    /// The externals (for tests that inspect e.g. the object store).
    pub fn externals(&self) -> &dyn Externals {
        self.externals.as_ref()
    }

    // ------------------------------------------------------------------
    // The run loop
    // ------------------------------------------------------------------

    /// Run the process until it halts, migrates away or suspends.
    ///
    /// Before returning — on success *and* on error — any asynchronous
    /// checkpoint pipeline behind the sink is flushed
    /// ([`MigrationSink::flush`]), so every checkpoint this run reported
    /// as stored is durably resolvable (a resurrection daemon reads them
    /// right after the worker thread exits), and the workers' encode time
    /// is folded into [`ProcessStats::checkpoint_encode_ns`].
    pub fn run(&mut self) -> Result<RunOutcome, RuntimeError> {
        let result = self.run_loop();
        self.sink.flush();
        if let Some(pipeline) = self.sink.pipeline_stats() {
            let delta = pipeline.encode_ns.saturating_sub(self.encode_ns_reported);
            self.stats.checkpoint_encode_ns += delta;
            self.encode_ns_reported = pipeline.encode_ns;
        }
        result
    }

    fn run_loop(&mut self) -> Result<RunOutcome, RuntimeError> {
        let (mut fun, mut args) = self
            .pending
            .take()
            .unwrap_or((Word::Fun(self.entry_id()?), Vec::new()));
        loop {
            let transfer = match self.config.backend {
                BackendKind::Interp => self.interp_call(fun, args)?,
                BackendKind::Bytecode => self.vm_call(fun, args)?,
            };
            match transfer {
                Transfer::Call { target, args: a } => {
                    fun = target;
                    args = a;
                }
                Transfer::Halt(v) => return Ok(RunOutcome::Exit(v)),
                Transfer::Speculate { fun: f, args: a } => {
                    let level = self.heap.spec_enter();
                    let mgr_level = self.spec.enter(f, a.clone());
                    debug_assert_eq!(level, mgr_level);
                    self.stats.speculations += 1;
                    let mut full = Vec::with_capacity(a.len() + 1);
                    // On entry the code parameter is the (positive) level id,
                    // so programs can use it like Figure 1's `specid`.
                    full.push(Word::Int(level as i64));
                    full.extend(a);
                    fun = f;
                    args = full;
                }
                Transfer::Commit {
                    level,
                    fun: f,
                    args: a,
                } => {
                    let lvl = self.valid_level(level)?;
                    self.heap.spec_commit(lvl)?;
                    self.spec.commit(lvl);
                    self.stats.commits += 1;
                    fun = f;
                    args = a;
                }
                Transfer::Rollback { level, code } => {
                    let lvl = self.valid_level(level)?;
                    self.heap.spec_rollback(lvl)?;
                    let entry =
                        self.spec
                            .rollback(lvl)
                            .ok_or(RuntimeError::BadSpeculationLevel {
                                level,
                                open: self.spec.depth(),
                            })?;
                    self.stats.rollbacks += 1;
                    // Retry semantics: the level is immediately re-entered and
                    // the saved continuation called with the new code.
                    let new_level = self.heap.spec_enter();
                    let mgr_level = self.spec.reenter(entry.clone());
                    debug_assert_eq!(new_level, mgr_level);
                    let mut full = Vec::with_capacity(entry.args.len() + 1);
                    full.push(Word::Int(code));
                    full.extend(entry.args.iter().copied());
                    fun = entry.fun;
                    args = full;
                }
                Transfer::Migrate {
                    label,
                    target,
                    fun: f,
                    args: a,
                } => {
                    self.stats.migration_attempts += 1;
                    let (protocol, dest) = MigrateProtocol::parse_target(&target)
                        .ok_or_else(|| RuntimeError::BadMigrationTarget(target.clone()))?;
                    // Base-image negotiation: a checkpoint becomes a delta
                    // only when deltas are enabled, the chain is not
                    // exhausted, the base's fingerprint is already known
                    // (an asynchronous full checkpoint pins it once its
                    // worker has encoded the image), and the sink still
                    // has the base image.
                    let delta_base = if protocol == MigrateProtocol::Checkpoint
                        && self.config.delta_checkpoints
                        && self.deltas_since_full < self.config.max_delta_chain
                    {
                        // Never delta against the name being written: the
                        // store would replace the base with the delta that
                        // references it.
                        self.checkpoint_base.as_ref().and_then(|(base, fp)| {
                            let fp = fp.get()?;
                            (base != dest && self.sink.has_base(base, fp))
                                .then(|| (base.clone(), fp))
                        })
                    } else {
                        None
                    };
                    let asynchronous =
                        self.config.async_checkpoints && protocol == MigrateProtocol::Checkpoint;
                    self.recorder.record(
                        EventKind::CheckpointBegin,
                        label as u64,
                        asynchronous as u64,
                    );
                    let pause_start = Instant::now();
                    let outcome = if asynchronous {
                        let mut pack = self.pack_snapshot(
                            label,
                            f,
                            &a,
                            delta_base.as_ref().map(|(b, fp)| (b.as_str(), *fp)),
                        )?;
                        if delta_base.is_none() && self.config.delta_checkpoints {
                            // The frozen state is the new delta base, even
                            // though its fingerprint is not known yet: the
                            // clean point is declared *at the freeze*, and
                            // the pending slot is filled by the deferred
                            // encoder.  If the delivery later fails, the
                            // base name never appears on the sink and
                            // `has_base` keeps answering false — the
                            // process just emits full images.
                            let slot = Arc::new(OnceLock::new());
                            pack.fingerprint_slot = Some(slot.clone());
                            self.checkpoint_base =
                                Some((dest.to_owned(), BaseFingerprint::Pending(slot)));
                            self.deltas_since_full = 0;
                            self.heap.mark_clean();
                        }
                        self.sink.deliver_deferred(protocol, dest, pack)
                    } else {
                        let image = match &delta_base {
                            Some((base, fingerprint)) => {
                                self.pack_delta(label, f, &a, base, *fingerprint)?
                            }
                            None => self.pack(label, f, &a)?,
                        };
                        if protocol == MigrateProtocol::Checkpoint {
                            // On the synchronous path the mutator pays the
                            // encode itself.
                            self.stats.checkpoint_encode_ns +=
                                pause_start.elapsed().as_nanos() as u64;
                        }
                        if self.recorder.tracing() {
                            let (raw, stored) = image.heap_payload_wire_stats();
                            self.recorder.record(EventKind::Encode, raw, stored);
                            self.recorder.record(
                                EventKind::CodecChosen,
                                self.config.heap_codec.map_or(0xFF, |c| c as u64),
                                stored,
                            );
                        }
                        let outcome = self.sink.deliver(protocol, dest, &image);
                        if self.recorder.tracing() {
                            self.recorder.record(
                                EventKind::Deliver,
                                outcome.obs_code(),
                                image.heap_payload_wire_stats().1,
                            );
                        }
                        if outcome == DeliveryOutcome::Stored
                            && protocol == MigrateProtocol::Checkpoint
                            && delta_base.is_none()
                            && self.config.delta_checkpoints
                        {
                            // The stored full image is the new base: dirty
                            // tracking restarts (and arms) from this state,
                            // and the fingerprint pins the base content
                            // future deltas will be resolved against.  With
                            // deltas disabled, none of this is paid.
                            self.checkpoint_base = Some((
                                dest.to_owned(),
                                BaseFingerprint::Known(image.heap_image.fingerprint()),
                            ));
                            self.deltas_since_full = 0;
                            self.heap.mark_clean();
                        }
                        outcome
                    };
                    if protocol == MigrateProtocol::Checkpoint {
                        self.stats.checkpoint_pause_ns += pause_start.elapsed().as_nanos() as u64;
                    }
                    self.recorder.record(
                        EventKind::CheckpointEnd,
                        label as u64,
                        outcome.obs_code(),
                    );
                    match (protocol, outcome) {
                        (MigrateProtocol::Migrate, DeliveryOutcome::Migrated) => {
                            return Ok(RunOutcome::MigratedAway {
                                target: dest.to_owned(),
                            })
                        }
                        (MigrateProtocol::Suspend, DeliveryOutcome::Stored) => {
                            return Ok(RunOutcome::Suspended {
                                target: dest.to_owned(),
                            })
                        }
                        (MigrateProtocol::Checkpoint, DeliveryOutcome::Stored) => {
                            self.stats.checkpoints += 1;
                            if delta_base.is_some() {
                                self.stats.delta_checkpoints += 1;
                                self.deltas_since_full += 1;
                            }
                            fun = f;
                            args = a;
                        }
                        (MigrateProtocol::Checkpoint, DeliveryOutcome::Superseded) => {
                            // Coalesced away by a newer checkpoint under
                            // backpressure: not a failure, and not a reason
                            // to fall back to full images — the sink is
                            // healthy and a strictly newer checkpoint
                            // covers this state.  The delta base and chain
                            // position stay exactly as they were.
                            fun = f;
                            args = a;
                        }
                        (_, DeliveryOutcome::Failed(_)) => {
                            // The process is indifferent to failed migration:
                            // it continues on the source machine.
                            self.stats.migration_failures += 1;
                            fun = f;
                            args = a;
                        }
                        // A sink answering with the "wrong" success kind
                        // (e.g. Stored for migrate://) still lets the process
                        // continue locally.
                        (_, _) => {
                            fun = f;
                            args = a;
                        }
                    }
                }
            }
        }
    }

    fn entry_id(&self) -> Result<u32, RuntimeError> {
        if let Some(program) = &self.program {
            Ok(program.entry.0)
        } else if let Some(bc) = &self.bytecode {
            Ok(bc.entry)
        } else {
            Err(RuntimeError::MigrationRejected(
                "process has neither FIR nor bytecode".into(),
            ))
        }
    }

    fn valid_level(&self, level: i64) -> Result<usize, RuntimeError> {
        let depth = self.heap.spec_depth();
        if level >= 1 && level as usize <= depth {
            Ok(level as usize)
        } else {
            Err(RuntimeError::BadSpeculationLevel { level, open: depth })
        }
    }

    // ------------------------------------------------------------------
    // Packing (the migration `pack` operation)
    // ------------------------------------------------------------------

    /// Capture the entire process state into a [`MigrationImage`].
    ///
    /// `fun` and `args` are the continuation that execution resumes with;
    /// the args are exactly the live variables across the migration point
    /// and are stored into a fresh `migrate_env` block.
    pub fn pack(
        &mut self,
        label: u32,
        fun: Word,
        args: &[Word],
    ) -> Result<MigrationImage, RuntimeError> {
        self.pack_with(label, fun, args, None)
    }

    /// Like [`Process::pack`], but the heap payload is an incremental delta
    /// against the full checkpoint named `base` (whose heap payload hashes
    /// to `base_fingerprint`): only blocks dirtied since the heap was last
    /// [`mojave_heap::Heap::mark_clean`]ed are encoded.
    ///
    /// The caller is responsible for `base` actually being that clean
    /// point; the checkpoint flow in [`Process::run`] maintains this
    /// invariant (and negotiates availability via
    /// [`MigrationSink::has_base`]).
    pub fn pack_delta(
        &mut self,
        label: u32,
        fun: Word,
        args: &[Word],
        base: &str,
        base_fingerprint: u64,
    ) -> Result<MigrationImage, RuntimeError> {
        self.pack_with(label, fun, args, Some((base, base_fingerprint)))
    }

    fn pack_with(
        &mut self,
        label: u32,
        fun: Word,
        args: &[Word],
        delta_base: Option<(&str, u64)>,
    ) -> Result<MigrationImage, RuntimeError> {
        if delta_base.is_some() && !self.heap.dirty_tracking_armed() {
            return Err(RuntimeError::MigrationRejected(
                "delta pack requested but no full checkpoint established a clean point".into(),
            ));
        }
        // "The pack operation first performs garbage collection on the heap."
        let mut roots: Vec<Word> = Vec::with_capacity(args.len() + 8);
        roots.extend_from_slice(args);
        roots.push(fun);
        roots.extend(self.spec.roots());
        roots.extend(self.externals.roots());
        self.heap.gc_major(&roots);

        let migrate_env = self.heap.alloc_migrate_env(args.to_vec())?;
        // Codec negotiation: the sink advertises what it accepts; the
        // configured preference narrows that (falling back to Raw — which
        // every sink accepts — when the preference is not advertised), and
        // the slab encoder picks the smallest encoding within the set.
        // A sink advertising *only* Raw is a pre-v5 runtime (the trait
        // default): it receives the batched v4 layout — and version — it
        // can actually decode, not v5 frames it would reject at the
        // header.
        let accepted = self.sink.accepted_codecs();
        let legacy_sink = accepted == CodecSet::raw_only();
        let allowed = match self.config.heap_codec {
            Some(codec) if accepted.contains(codec) => CodecSet::only(codec),
            Some(_) => CodecSet::only(CodecId::Raw),
            None => accepted,
        };
        let heap_image = match delta_base {
            None => {
                let mut w = WireWriter::with_capacity(self.heap.live_bytes() + 256);
                if legacy_sink {
                    self.heap.encode_image(&mut w);
                } else {
                    self.heap.encode_image_compressed(&mut w, allowed);
                }
                HeapImage::Full(w.into_bytes())
            }
            Some((base, base_fingerprint)) => {
                let mut w = WireWriter::new();
                if legacy_sink {
                    self.heap.encode_delta_image(&mut w);
                } else {
                    self.heap.encode_delta_image_compressed(&mut w, allowed);
                }
                HeapImage::Delta {
                    base: base.to_owned(),
                    base_fingerprint,
                    bytes: w.into_bytes(),
                }
            }
        };

        let code = self.packed_code()?;

        Ok(MigrationImage {
            format_version: if legacy_sink {
                mojave_wire::BATCHED_VERSION
            } else {
                mojave_wire::FORMAT_VERSION
            },
            source_arch: self.config.machine.arch().to_owned(),
            code,
            heap_image,
            migrate_env,
            resume_fun: fun,
            label,
            open_speculations: self.heap.spec_depth() as u32,
        })
    }

    /// The code section a pack ships: the FIR program, or compiled
    /// bytecode under [`ProcessConfig::binary_migration`].
    fn packed_code(&self) -> Result<PackedCode, RuntimeError> {
        if self.config.binary_migration {
            let bytecode = match &self.bytecode {
                Some(bc) => BytecodeProgram::clone(bc),
                None => {
                    let program = self
                        .program
                        .as_ref()
                        .ok_or_else(|| RuntimeError::MigrationRejected("no code to pack".into()))?;
                    compile_program(program)
                        .map_err(|e| RuntimeError::MigrationRejected(e.to_string()))?
                }
            };
            Ok(PackedCode::Binary {
                arch: self.config.machine.arch().to_owned(),
                bytecode,
            })
        } else {
            let program = self.program.as_ref().ok_or_else(|| {
                RuntimeError::MigrationRejected(
                    "FIR migration requested but this process only carries bytecode".into(),
                )
            })?;
            Ok(PackedCode::Fir(program.clone()))
        }
    }

    /// The asynchronous counterpart of [`Process::pack`]: capture the
    /// process state as a [`SnapshotPack`] whose heap half is a
    /// **zero-pause** [`mojave_heap::HeapSnapshot`] — O(pointer-table)
    /// copy-on-write freeze instead of a full encode.  The expensive
    /// encode is deferred to [`SnapshotPack::into_image`], which a
    /// pipeline worker runs concurrently with the mutator.
    ///
    /// Differences from the synchronous pack, by design:
    ///
    /// * **No pre-pack GC** — the paper's pack garbage-collects first,
    ///   which is O(heap) mutator time; here dead blocks ride along in
    ///   the image and are reclaimed by the next natural collection.
    /// * The codec negotiation (sink's accepted codecs ∩ configured
    ///   preference, legacy-sink downgrade to the batched v4 layout) is
    ///   resolved *now* and recorded in the pack, so the worker needs no
    ///   access to the process.
    pub fn pack_snapshot(
        &mut self,
        label: u32,
        fun: Word,
        args: &[Word],
        delta_base: Option<(&str, u64)>,
    ) -> Result<SnapshotPack, RuntimeError> {
        if delta_base.is_some() && !self.heap.dirty_tracking_armed() {
            return Err(RuntimeError::MigrationRejected(
                "delta pack requested but no full checkpoint established a clean point".into(),
            ));
        }
        let migrate_env = self.heap.alloc_migrate_env(args.to_vec())?;
        let accepted = self.sink.accepted_codecs();
        let legacy_sink = accepted == CodecSet::raw_only();
        let allowed = match self.config.heap_codec {
            Some(codec) if accepted.contains(codec) => CodecSet::only(codec),
            Some(_) => CodecSet::only(CodecId::Raw),
            None => accepted,
        };
        let code = match &self.packed_code_cache {
            Some(code) => Arc::clone(code),
            None => {
                let code = Arc::new(self.packed_code()?);
                self.packed_code_cache = Some(Arc::clone(&code));
                code
            }
        };
        let freeze_start = Instant::now();
        let heap = self.heap.freeze();
        let freeze_ns = freeze_start.elapsed().as_nanos() as u64;
        Ok(SnapshotPack {
            format_version: if legacy_sink {
                mojave_wire::BATCHED_VERSION
            } else {
                mojave_wire::FORMAT_VERSION
            },
            source_arch: self.config.machine.arch().to_owned(),
            code,
            heap,
            delta_base: delta_base.map(|(base, fp)| (base.to_owned(), fp)),
            migrate_env,
            resume_fun: fun,
            label,
            open_speculations: self.heap.spec_depth() as u32,
            allowed,
            legacy_sink,
            freeze_ns,
            fingerprint_slot: None,
        })
    }

    // ------------------------------------------------------------------
    // Shared evaluation helpers
    // ------------------------------------------------------------------

    fn bump_step(&mut self) -> Result<(), RuntimeError> {
        self.stats.steps += 1;
        if let Some(budget) = self.config.step_budget {
            if self.stats.steps > budget {
                return Err(RuntimeError::StepBudgetExhausted { budget });
            }
        }
        Ok(())
    }

    fn gc_roots(&self, live: &[Word]) -> Vec<Word> {
        let mut roots = Vec::with_capacity(live.len() + 16);
        roots.extend_from_slice(live);
        roots.extend(self.spec.roots());
        roots.extend(self.externals.roots());
        roots
    }

    /// Resolve a callee word into a function index plus, for a closure,
    /// the environment argument the callee receives ahead of the call's own
    /// arguments.
    fn resolve_callee(&self, target: Word) -> Result<(u32, Option<Word>), RuntimeError> {
        match target {
            Word::Fun(id) => Ok((id, None)),
            Word::Ptr(p) => {
                let block = self.heap.block(p)?;
                if block.header.kind != BlockKind::Closure {
                    return Err(RuntimeError::NotCallable(format!(
                        "block {p} of kind {:?}",
                        block.header.kind
                    )));
                }
                match block.as_words().and_then(|w| w.first()) {
                    Some(Word::Fun(id)) => Ok((*id, Some(Word::Ptr(p)))),
                    _ => Err(RuntimeError::NotCallable(format!(
                        "closure {p} has no function slot"
                    ))),
                }
            }
            other => Err(RuntimeError::NotCallable(other.kind_name().to_owned())),
        }
    }

    fn arity_mismatch(name: &str, fun: u32, expected: usize, found: usize) -> RuntimeError {
        RuntimeError::ArityMismatch {
            callee: format!("{name} (f{fun})"),
            expected,
            found,
        }
    }

    fn eval_unop(&self, op: Unop, w: Word) -> Result<Word, RuntimeError> {
        let mismatch = |expected: &'static str, found: Word| RuntimeError::KindMismatch {
            expected,
            found: found.kind_name(),
            context: "unary operator",
        };
        Ok(match (op, w) {
            (Unop::Neg, Word::Int(v)) => Word::Int(v.wrapping_neg()),
            (Unop::FNeg, Word::Float(v)) => Word::Float(-v),
            (Unop::Not, Word::Bool(v)) => Word::Bool(!v),
            (Unop::BNot, Word::Int(v)) => Word::Int(!v),
            (Unop::FloatOfInt, Word::Int(v)) => Word::Float(v as f64),
            (Unop::IntOfFloat, Word::Float(v)) => Word::Int(v as i64),
            (Unop::IntOfChar, Word::Char(c)) => Word::Int(c as i64),
            (Unop::CharOfInt, Word::Int(v)) => Word::Char(
                u32::try_from(v)
                    .ok()
                    .and_then(char::from_u32)
                    .unwrap_or('\u{FFFD}'),
            ),
            (Unop::Neg | Unop::BNot | Unop::FloatOfInt | Unop::CharOfInt, w) => {
                return Err(mismatch("int", w))
            }
            (Unop::FNeg | Unop::IntOfFloat, w) => return Err(mismatch("float", w)),
            (Unop::Not, w) => return Err(mismatch("bool", w)),
            (Unop::IntOfChar, w) => return Err(mismatch("char", w)),
        })
    }

    fn eval_binop(&self, op: Binop, a: Word, b: Word) -> Result<Word, RuntimeError> {
        use Binop::*;
        let bad = || RuntimeError::KindMismatch {
            expected: "matching numeric operands",
            found: "mismatched operands",
            context: "binary operator",
        };
        Ok(match (op, a, b) {
            (Add, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_add(y)),
            (Sub, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_sub(y)),
            (Mul, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_mul(y)),
            (Div, Word::Int(_), Word::Int(0)) | (Rem, Word::Int(_), Word::Int(0)) => {
                return Err(RuntimeError::DivisionByZero)
            }
            (Div, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_div(y)),
            (Rem, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_rem(y)),
            (Add, Word::Float(x), Word::Float(y)) => Word::Float(x + y),
            (Sub, Word::Float(x), Word::Float(y)) => Word::Float(x - y),
            (Mul, Word::Float(x), Word::Float(y)) => Word::Float(x * y),
            (Div, Word::Float(x), Word::Float(y)) => Word::Float(x / y),
            (BAnd, Word::Int(x), Word::Int(y)) => Word::Int(x & y),
            (BOr, Word::Int(x), Word::Int(y)) => Word::Int(x | y),
            (BXor, Word::Int(x), Word::Int(y)) => Word::Int(x ^ y),
            (BAnd, Word::Bool(x), Word::Bool(y)) => Word::Bool(x && y),
            (BOr, Word::Bool(x), Word::Bool(y)) => Word::Bool(x || y),
            (BXor, Word::Bool(x), Word::Bool(y)) => Word::Bool(x ^ y),
            (Shl, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_shl(y as u32)),
            (Shr, Word::Int(x), Word::Int(y)) => Word::Int(x.wrapping_shr(y as u32)),
            (Eq, x, y) => Word::Bool(x.bitwise_eq(&y)),
            (Ne, x, y) => Word::Bool(!x.bitwise_eq(&y)),
            (Lt, Word::Int(x), Word::Int(y)) => Word::Bool(x < y),
            (Le, Word::Int(x), Word::Int(y)) => Word::Bool(x <= y),
            (Gt, Word::Int(x), Word::Int(y)) => Word::Bool(x > y),
            (Ge, Word::Int(x), Word::Int(y)) => Word::Bool(x >= y),
            (Lt, Word::Float(x), Word::Float(y)) => Word::Bool(x < y),
            (Le, Word::Float(x), Word::Float(y)) => Word::Bool(x <= y),
            (Gt, Word::Float(x), Word::Float(y)) => Word::Bool(x > y),
            (Ge, Word::Float(x), Word::Float(y)) => Word::Bool(x >= y),
            (Lt, Word::Char(x), Word::Char(y)) => Word::Bool(x < y),
            (Le, Word::Char(x), Word::Char(y)) => Word::Bool(x <= y),
            (Gt, Word::Char(x), Word::Char(y)) => Word::Bool(x > y),
            (Ge, Word::Char(x), Word::Char(y)) => Word::Bool(x >= y),
            _ => return Err(bad()),
        })
    }

    fn call_extern(&mut self, name: &str, args: &[Word]) -> Result<Word, RuntimeError> {
        self.externals.call(ExtCall { name, args }, &mut self.heap)
    }

    fn word_as_int(w: Word, context: &'static str) -> Result<i64, RuntimeError> {
        w.as_int().ok_or(RuntimeError::KindMismatch {
            expected: "int",
            found: w.kind_name(),
            context,
        })
    }

    fn word_as_bool(w: Word, context: &'static str) -> Result<bool, RuntimeError> {
        w.as_bool().ok_or(RuntimeError::KindMismatch {
            expected: "bool",
            found: w.kind_name(),
            context,
        })
    }

    fn word_as_ptr(w: Word, context: &'static str) -> Result<mojave_heap::PtrIdx, RuntimeError> {
        w.as_ptr().ok_or(RuntimeError::KindMismatch {
            expected: "ptr",
            found: w.kind_name(),
            context,
        })
    }

    fn word_as_str(&self, w: Word, context: &'static str) -> Result<String, RuntimeError> {
        let p = Self::word_as_ptr(w, context)?;
        Ok(self.heap.str_value(p)?)
    }

    // ------------------------------------------------------------------
    // The FIR interpreter backend
    // ------------------------------------------------------------------

    fn interp_call(&mut self, target: Word, mut args: Vec<Word>) -> Result<Transfer, RuntimeError> {
        let (fun_id, env) = self.resolve_callee(target)?;
        if let Some(env) = env {
            args.insert(0, env);
        }
        let program = self
            .program
            .as_ref()
            .ok_or(RuntimeError::MigrationRejected(
                "interpreter backend requires the FIR program".into(),
            ))?;
        let fun = program
            .fun(FunId(fun_id))
            .ok_or(RuntimeError::UnknownFunction(fun_id))?;
        if fun.params.len() != args.len() {
            return Err(Self::arity_mismatch(
                "interp call",
                fun_id,
                fun.params.len(),
                args.len(),
            ));
        }
        let mut env: HashMap<VarId, Word> = HashMap::with_capacity(args.len() * 2);
        for ((var, _ty), value) in fun.params.iter().zip(args) {
            env.insert(*var, value);
        }
        // Clone the body so `self` is free for mutation during execution.
        // Function bodies are shared-immutable in spirit; the clone cost is
        // paid once per call and keeps the interpreter simple and safe.
        let body = fun.body.clone();
        self.interp_expr(body, env)
    }

    fn atom_value(
        &mut self,
        env: &HashMap<VarId, Word>,
        atom: &Atom,
    ) -> Result<Word, RuntimeError> {
        Ok(match atom {
            Atom::Unit => Word::Unit,
            Atom::Int(v) => Word::Int(*v),
            Atom::Float(v) => Word::Float(*v),
            Atom::Bool(v) => Word::Bool(*v),
            Atom::Char(c) => Word::Char(*c),
            Atom::Str(s) => Word::Ptr(self.heap.alloc_str(s)?),
            Atom::Var(v) => *env.get(v).ok_or(RuntimeError::UnboundVar(v.0))?,
            Atom::Fun(f) => Word::Fun(f.0),
        })
    }

    fn atom_values(
        &mut self,
        env: &HashMap<VarId, Word>,
        atoms: &[Atom],
    ) -> Result<Vec<Word>, RuntimeError> {
        atoms.iter().map(|a| self.atom_value(env, a)).collect()
    }

    fn interp_expr(
        &mut self,
        mut expr: Expr,
        mut env: HashMap<VarId, Word>,
    ) -> Result<Transfer, RuntimeError> {
        loop {
            self.bump_step()?;
            expr = match expr {
                Expr::LetAtom {
                    dst, atom, body, ..
                } => {
                    let w = self.atom_value(&env, &atom)?;
                    env.insert(dst, w);
                    *body
                }
                Expr::LetUnop { dst, op, arg, body } => {
                    let w = self.atom_value(&env, &arg)?;
                    env.insert(dst, self.eval_unop(op, w)?);
                    *body
                }
                Expr::LetBinop {
                    dst,
                    op,
                    lhs,
                    rhs,
                    body,
                } => {
                    let a = self.atom_value(&env, &lhs)?;
                    let b = self.atom_value(&env, &rhs)?;
                    env.insert(dst, self.eval_binop(op, a, b)?);
                    *body
                }
                Expr::LetAlloc {
                    dst,
                    len,
                    init,
                    body,
                    ..
                } => {
                    let len = Self::word_as_int(self.atom_value(&env, &len)?, "alloc length")?;
                    let init = self.atom_value(&env, &init)?;
                    self.collect_if_needed(&env);
                    let ptr = self.heap.alloc_array(len, init)?;
                    env.insert(dst, Word::Ptr(ptr));
                    *body
                }
                Expr::LetAllocRaw { dst, size, body } => {
                    let size = Self::word_as_int(self.atom_value(&env, &size)?, "raw alloc size")?;
                    self.collect_if_needed(&env);
                    let ptr = self.heap.alloc_raw(size)?;
                    env.insert(dst, Word::Ptr(ptr));
                    *body
                }
                Expr::LetTuple { dst, args, body } => {
                    let words = self.atom_values(&env, &args)?;
                    self.collect_if_needed(&env);
                    let ptr = self.heap.alloc_tuple(words)?;
                    env.insert(dst, Word::Ptr(ptr));
                    *body
                }
                Expr::LetClosure {
                    dst,
                    fun,
                    captured,
                    body,
                    ..
                } => {
                    let words = self.atom_values(&env, &captured)?;
                    self.collect_if_needed(&env);
                    let ptr = self.heap.alloc_closure(fun.0, words)?;
                    env.insert(dst, Word::Ptr(ptr));
                    *body
                }
                Expr::LetLoad {
                    dst,
                    ptr,
                    index,
                    body,
                    ..
                } => {
                    let p = Self::word_as_ptr(self.atom_value(&env, &ptr)?, "load pointer")?;
                    let i = Self::word_as_int(self.atom_value(&env, &index)?, "load index")?;
                    env.insert(dst, self.heap.load(p, i)?);
                    *body
                }
                Expr::Store {
                    ptr,
                    index,
                    value,
                    body,
                } => {
                    let p = Self::word_as_ptr(self.atom_value(&env, &ptr)?, "store pointer")?;
                    let i = Self::word_as_int(self.atom_value(&env, &index)?, "store index")?;
                    let v = self.atom_value(&env, &value)?;
                    self.heap.store(p, i, v)?;
                    *body
                }
                Expr::LetLoadRaw {
                    dst,
                    width,
                    ptr,
                    offset,
                    body,
                } => {
                    let p = Self::word_as_ptr(self.atom_value(&env, &ptr)?, "raw load pointer")?;
                    let o = Self::word_as_int(self.atom_value(&env, &offset)?, "raw load offset")?;
                    env.insert(dst, Word::Int(self.heap.load_raw(p, o, width)?));
                    *body
                }
                Expr::StoreRaw {
                    width,
                    ptr,
                    offset,
                    value,
                    body,
                } => {
                    let p = Self::word_as_ptr(self.atom_value(&env, &ptr)?, "raw store pointer")?;
                    let o = Self::word_as_int(self.atom_value(&env, &offset)?, "raw store offset")?;
                    let v = Self::word_as_int(self.atom_value(&env, &value)?, "raw store value")?;
                    self.heap.store_raw(p, o, width, v)?;
                    *body
                }
                Expr::LetLen { dst, ptr, body } => {
                    let p = Self::word_as_ptr(self.atom_value(&env, &ptr)?, "length pointer")?;
                    env.insert(dst, Word::Int(self.heap.block_len(p)? as i64));
                    *body
                }
                Expr::LetExt {
                    dst,
                    name,
                    args,
                    body,
                    ..
                } => {
                    let words = self.atom_values(&env, &args)?;
                    let result = self.call_extern(&name, &words)?;
                    env.insert(dst, result);
                    *body
                }
                Expr::If { cond, then_, else_ } => {
                    let c = Self::word_as_bool(self.atom_value(&env, &cond)?, "if condition")?;
                    if c {
                        *then_
                    } else {
                        *else_
                    }
                }
                Expr::TailCall { target, args } => {
                    let t = self.atom_value(&env, &target)?;
                    let a = self.atom_values(&env, &args)?;
                    return Ok(Transfer::Call { target: t, args: a });
                }
                Expr::Halt { value } => {
                    let v = Self::word_as_int(self.atom_value(&env, &value)?, "halt value")?;
                    return Ok(Transfer::Halt(v));
                }
                Expr::Migrate {
                    label,
                    target,
                    fun,
                    args,
                } => {
                    let t = self.atom_value(&env, &target)?;
                    let target_str = self.word_as_str(t, "migrate target")?;
                    let f = self.atom_value(&env, &fun)?;
                    let a = self.atom_values(&env, &args)?;
                    return Ok(Transfer::Migrate {
                        label: label.0,
                        target: target_str,
                        fun: f,
                        args: a,
                    });
                }
                Expr::Speculate { fun, args } => {
                    let f = self.atom_value(&env, &fun)?;
                    let a = self.atom_values(&env, &args)?;
                    return Ok(Transfer::Speculate { fun: f, args: a });
                }
                Expr::Commit { level, fun, args } => {
                    let l = Self::word_as_int(self.atom_value(&env, &level)?, "commit level")?;
                    let f = self.atom_value(&env, &fun)?;
                    let a = self.atom_values(&env, &args)?;
                    return Ok(Transfer::Commit {
                        level: l,
                        fun: f,
                        args: a,
                    });
                }
                Expr::Rollback { level, code } => {
                    let l = Self::word_as_int(self.atom_value(&env, &level)?, "rollback level")?;
                    let c = Self::word_as_int(self.atom_value(&env, &code)?, "rollback code")?;
                    return Ok(Transfer::Rollback { level: l, code: c });
                }
            };
        }
    }

    fn collect_if_needed(&mut self, env: &HashMap<VarId, Word>) {
        let live: Vec<Word> = env.values().copied().collect();
        let roots = self.gc_roots(&live);
        self.heap.maybe_gc(&roots);
    }

    // ------------------------------------------------------------------
    // The bytecode VM backend
    // ------------------------------------------------------------------

    /// Run the bytecode VM from `target(args)` until a transfer that needs
    /// [`Process::run_loop`]: tail calls stay inside [`Process::vm_exec`].
    fn vm_call(&mut self, target: Word, args: Vec<Word>) -> Result<Transfer, RuntimeError> {
        let (fun_id, env) = self.resolve_callee(target)?;
        let bc = self
            .bytecode
            .clone()
            .ok_or(RuntimeError::MigrationRejected(
                "bytecode backend selected but no compiled code present".into(),
            ))?;
        // The register file and argument buffer move out of `self` for the
        // run so the loop can borrow them alongside `&mut self`, and move
        // back on every exit, errors included.
        let mut regs = std::mem::take(&mut self.vm_regs);
        let mut scratch = std::mem::take(&mut self.vm_args);
        scratch.clear();
        scratch.extend(env);
        scratch.extend_from_slice(&args);
        let result = self.vm_exec(&bc, fun_id, &mut regs, &mut scratch);
        self.vm_regs = regs;
        self.vm_args = scratch;
        result
    }

    /// Enter function `fun_id` with `args`: check its arity, reset the
    /// register file to exactly the new frame (arguments first, the rest
    /// `Unit`, so no word of an earlier frame survives to become a GC root)
    /// and return the code to run from pc 0.
    fn vm_enter<'p>(
        bc: &'p BytecodeProgram,
        fun_id: u32,
        regs: &mut Vec<Word>,
        args: &[Word],
    ) -> Result<&'p [Instr], RuntimeError> {
        let fun = bc
            .funs
            .get(fun_id as usize)
            .ok_or(RuntimeError::UnknownFunction(fun_id))?;
        let nparams = fun.nparams as usize;
        if nparams != args.len() {
            return Err(Self::arity_mismatch("vm call", fun_id, nparams, args.len()));
        }
        regs.clear();
        regs.extend_from_slice(args);
        regs.resize((fun.nregs as usize).max(args.len()), Word::Unit);
        Ok(&fun.code)
    }

    /// The dispatch loop.  `regs` is the current frame's register file;
    /// `args` is scratch space for call and external arguments.
    fn vm_exec(
        &mut self,
        bc: &BytecodeProgram,
        fun_id: u32,
        regs: &mut Vec<Word>,
        args: &mut Vec<Word>,
    ) -> Result<Transfer, RuntimeError> {
        let reg = |regs: &[Word], r: u32| -> Word { regs[r as usize] };
        let gather = |regs: &[Word], rs: &[u32]| -> Vec<Word> {
            rs.iter().map(|r| regs[*r as usize]).collect()
        };
        let mut code = Self::vm_enter(bc, fun_id, regs, args)?;
        let mut pc = 0usize;
        loop {
            self.bump_step()?;
            let instr = code.get(pc).ok_or_else(|| {
                RuntimeError::MigrationRejected(
                    "program counter ran off the end of the function".into(),
                )
            })?;
            pc += 1;
            match instr {
                Instr::Const { dst, value } => {
                    let w = match value {
                        Const::Unit => Word::Unit,
                        Const::Int(v) => Word::Int(*v),
                        Const::Float(v) => Word::Float(*v),
                        Const::Bool(v) => Word::Bool(*v),
                        Const::Char(c) => Word::Char(*c),
                        Const::Str(s) => Word::Ptr(self.heap.alloc_str(s)?),
                    };
                    regs[*dst as usize] = w;
                }
                Instr::FunRef { dst, fun } => regs[*dst as usize] = Word::Fun(*fun),
                Instr::Move { dst, src } => regs[*dst as usize] = reg(regs, *src),
                Instr::Unop { dst, op, src } => {
                    regs[*dst as usize] = self.eval_unop(*op, reg(regs, *src))?
                }
                Instr::Binop { dst, op, lhs, rhs } => {
                    regs[*dst as usize] = self.eval_binop(*op, reg(regs, *lhs), reg(regs, *rhs))?
                }
                Instr::Alloc { dst, len, init } => {
                    let len = Self::word_as_int(reg(regs, *len), "alloc length")?;
                    let init = reg(regs, *init);
                    let roots = self.gc_roots(regs);
                    self.heap.maybe_gc(&roots);
                    regs[*dst as usize] = Word::Ptr(self.heap.alloc_array(len, init)?);
                }
                Instr::AllocRaw { dst, size } => {
                    let size = Self::word_as_int(reg(regs, *size), "raw alloc size")?;
                    let roots = self.gc_roots(regs);
                    self.heap.maybe_gc(&roots);
                    regs[*dst as usize] = Word::Ptr(self.heap.alloc_raw(size)?);
                }
                Instr::Tuple { dst, args } => {
                    let words = gather(regs, args);
                    let roots = self.gc_roots(regs);
                    self.heap.maybe_gc(&roots);
                    regs[*dst as usize] = Word::Ptr(self.heap.alloc_tuple(words)?);
                }
                Instr::Closure { dst, fun, captured } => {
                    let words = gather(regs, captured);
                    let roots = self.gc_roots(regs);
                    self.heap.maybe_gc(&roots);
                    regs[*dst as usize] = Word::Ptr(self.heap.alloc_closure(*fun, words)?);
                }
                Instr::Load { dst, ptr, index } => {
                    let p = Self::word_as_ptr(reg(regs, *ptr), "load pointer")?;
                    let i = Self::word_as_int(reg(regs, *index), "load index")?;
                    regs[*dst as usize] = self.heap.load(p, i)?;
                }
                Instr::Store { ptr, index, value } => {
                    let p = Self::word_as_ptr(reg(regs, *ptr), "store pointer")?;
                    let i = Self::word_as_int(reg(regs, *index), "store index")?;
                    self.heap.store(p, i, reg(regs, *value))?;
                }
                Instr::LoadRaw {
                    dst,
                    width,
                    ptr,
                    offset,
                } => {
                    let p = Self::word_as_ptr(reg(regs, *ptr), "raw load pointer")?;
                    let o = Self::word_as_int(reg(regs, *offset), "raw load offset")?;
                    regs[*dst as usize] = Word::Int(self.heap.load_raw(p, o, *width)?);
                }
                Instr::StoreRaw {
                    width,
                    ptr,
                    offset,
                    value,
                } => {
                    let p = Self::word_as_ptr(reg(regs, *ptr), "raw store pointer")?;
                    let o = Self::word_as_int(reg(regs, *offset), "raw store offset")?;
                    let v = Self::word_as_int(reg(regs, *value), "raw store value")?;
                    self.heap.store_raw(p, o, *width, v)?;
                }
                Instr::Len { dst, ptr } => {
                    let p = Self::word_as_ptr(reg(regs, *ptr), "length pointer")?;
                    regs[*dst as usize] = Word::Int(self.heap.block_len(p)? as i64);
                }
                Instr::Ext {
                    dst,
                    name,
                    args: rs,
                } => {
                    args.clear();
                    args.extend(rs.iter().map(|r| regs[*r as usize]));
                    regs[*dst as usize] = self.call_extern(name.as_str(), args)?;
                }
                Instr::JumpIfFalse { cond, target } => {
                    let c = Self::word_as_bool(reg(regs, *cond), "branch condition")?;
                    if !c {
                        pc = *target;
                    }
                }
                Instr::Jump { target } => pc = *target,
                Instr::TailCall { target, args: rs } => {
                    let (callee, env) = self.resolve_callee(reg(regs, *target))?;
                    args.clear();
                    args.extend(env);
                    args.extend(rs.iter().map(|r| regs[*r as usize]));
                    code = Self::vm_enter(bc, callee, regs, args)?;
                    pc = 0;
                }
                Instr::TailCallDirect { fun, args: rs } => {
                    args.clear();
                    args.extend(rs.iter().map(|r| regs[*r as usize]));
                    code = Self::vm_enter(bc, *fun, regs, args)?;
                    pc = 0;
                }
                Instr::Halt { value } => {
                    return Ok(Transfer::Halt(Self::word_as_int(
                        reg(regs, *value),
                        "halt value",
                    )?))
                }
                Instr::Migrate {
                    label,
                    target,
                    fun,
                    args,
                } => {
                    let target_str = self.word_as_str(reg(regs, *target), "migrate target")?;
                    return Ok(Transfer::Migrate {
                        label: *label,
                        target: target_str,
                        fun: reg(regs, *fun),
                        args: gather(regs, args),
                    });
                }
                Instr::Speculate { fun, args } => {
                    return Ok(Transfer::Speculate {
                        fun: reg(regs, *fun),
                        args: gather(regs, args),
                    })
                }
                Instr::Commit { level, fun, args } => {
                    return Ok(Transfer::Commit {
                        level: Self::word_as_int(reg(regs, *level), "commit level")?,
                        fun: reg(regs, *fun),
                        args: gather(regs, args),
                    })
                }
                Instr::Rollback { level, code } => {
                    return Ok(Transfer::Rollback {
                        level: Self::word_as_int(reg(regs, *level), "rollback level")?,
                        code: Self::word_as_int(reg(regs, *code), "rollback code")?,
                    })
                }
            }
        }
    }
}
