//! The public pack entry points' contracts.
//!
//! * A delta pack needs a clean point ([`mojave_heap::Heap::mark_clean`]).
//!   Without one, [`Process::pack_delta`] and [`Process::pack_snapshot`]
//!   with a base reject the migration; neither panics.
//! * The `CodecChosen` flight-recorder event of a synchronous checkpoint
//!   names the codec set negotiated with the sink, not the configured
//!   preference.

use mojave_core::{
    DeliveryOutcome, InMemorySink, MigrationImage, MigrationSink, Process, ProcessConfig,
    RunOutcome, RuntimeError,
};
use mojave_fir::builder::{term, ProgramBuilder};
use mojave_fir::{Atom, MigrateProtocol, Program, Ty};
use mojave_heap::Word;
use mojave_obs::{EventKind, Level, Recorder};
use mojave_wire::CodecId;

/// `main() { checkpoint("ck"); after(5) }` with `after(x) { halt x }`.
fn checkpoint_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let (after, params) = pb.declare("after", &[("x", Ty::Int)]);
    pb.define(after, term::halt(params[0]));
    let (main, _) = pb.declare("main", &[]);
    let label = pb.label();
    pb.define(
        main,
        term::migrate(
            label,
            Atom::Str("checkpoint://ck".into()),
            after,
            vec![Atom::Int(5)],
        ),
    );
    pb.set_entry(main);
    pb.finish()
}

/// A sink that leaves `accepted_codecs` at its trait default: Raw only.
struct RawOnlySink;

impl MigrationSink for RawOnlySink {
    fn deliver(
        &mut self,
        _protocol: MigrateProtocol,
        _target: &str,
        _image: &MigrationImage,
    ) -> DeliveryOutcome {
        DeliveryOutcome::Stored
    }
}

#[test]
fn delta_packs_without_a_clean_point_are_rejected() {
    let mut process = Process::new(checkpoint_program(), ProcessConfig::default()).unwrap();
    assert!(!process.heap().dirty_tracking_armed());
    let env = [Word::Int(5)];

    let err = process
        .pack_delta(0, Word::Fun(0), &env, "ck", 0)
        .unwrap_err();
    assert!(matches!(err, RuntimeError::MigrationRejected(_)), "{err:?}");
    let err = process
        .pack_snapshot(0, Word::Fun(0), &env, Some(("ck", 0)))
        .unwrap_err();
    assert!(matches!(err, RuntimeError::MigrationRejected(_)), "{err:?}");

    // With a clean point both succeed and produce deltas.
    process.heap_mut().mark_clean();
    let image = process.pack_delta(0, Word::Fun(0), &env, "ck", 0).unwrap();
    assert_eq!(image.heap_image.base(), Some("ck"));
    let pack = process
        .pack_snapshot(0, Word::Fun(0), &env, Some(("ck", 0)))
        .unwrap();
    assert!(pack.into_image().unwrap().heap_image.is_delta());
}

/// Run [`checkpoint_program`] traced, delivering to `sink`, and return
/// the first payload word of its one `CodecChosen` event.
fn codec_chosen(heap_codec: Option<CodecId>, sink: Box<dyn MigrationSink>) -> u64 {
    let recorder = Recorder::new(0, Level::Trace);
    let config = ProcessConfig {
        heap_codec,
        ..ProcessConfig::default()
    };
    let mut process = Process::new(checkpoint_program(), config)
        .unwrap()
        .with_sink(sink)
        .with_recorder(recorder.clone());
    assert_eq!(process.run().unwrap(), RunOutcome::Exit(5));
    let chosen: Vec<u64> = recorder
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::CodecChosen)
        .map(|e| e.a)
        .collect();
    assert_eq!(chosen.len(), 1, "one checkpoint, one event");
    chosen[0]
}

#[test]
fn codec_chosen_reports_the_negotiated_codec() {
    // The sink does not accept the configured codec: the pack falls back
    // to Raw, and the event must say so.
    assert_eq!(
        codec_chosen(Some(CodecId::Lz), Box::new(RawOnlySink)),
        CodecId::Raw as u64
    );
    // Accepted preference: that codec.  No preference: auto (0xFF).
    assert_eq!(
        codec_chosen(Some(CodecId::Lz), Box::new(InMemorySink::new())),
        CodecId::Lz as u64
    );
    assert_eq!(codec_chosen(None, Box::new(InMemorySink::new())), 0xFF);
}
