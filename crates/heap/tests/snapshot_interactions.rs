//! Snapshot × speculation × GC interaction tests.
//!
//! A [`HeapSnapshot`](mojave_heap::HeapSnapshot) owns its frozen records,
//! so every interaction with the live heap's machinery is *documented safe
//! behavior*, never a panic:
//!
//! * freezing inside an open speculation level captures the speculative
//!   state; later commits and rollbacks do not disturb the snapshot;
//! * GC — minor, major, compaction, slot reuse — may run while a snapshot
//!   is live: freed blocks survive inside the snapshot, and compaction
//!   never invalidates it (the snapshot holds blocks, not slots);
//! * a snapshot without a clean point refuses delta encoding with the
//!   precise [`HeapError::NoCleanPoint`] error.
//!
//! Each test checks two properties of the snapshot's image: *isolation*
//! (its bytes do not change when the heap is mutated after the freeze)
//! and the *round trip* (it decodes to the heap as it was at the freeze).

use mojave_heap::{Heap, HeapConfig, HeapError, HeapSnapshot, Word};
use mojave_wire::{CodecSet, WireReader, WireWriter};

fn snap_image(snap: &HeapSnapshot) -> Vec<u8> {
    let mut w = WireWriter::new();
    snap.encode_image(&mut w, CodecSet::all());
    w.into_bytes()
}

/// Freeze `heap` and encode the snapshot before the mutator runs again —
/// the image a synchronous checkpoint at this point ships.  Asserts the
/// round trip: the image decodes to the heap as it is now.
fn freeze(heap: &mut Heap) -> (HeapSnapshot, Vec<u8>) {
    let at_freeze = heap.snapshot();
    let snap = heap.freeze();
    let image = snap_image(&snap);
    let decoded =
        Heap::decode_image_compressed(&mut WireReader::new(&image), HeapConfig::default()).unwrap();
    assert_eq!(
        decoded.snapshot(),
        at_freeze,
        "image decodes to the frozen heap"
    );
    (snap, image)
}

#[test]
fn snapshot_inside_open_speculation_captures_speculative_state() {
    let mut heap = Heap::new();
    let arr = heap.alloc_array(4, Word::Int(0)).unwrap();
    let level = heap.spec_enter();
    heap.store(arr, 0, Word::Int(42)).unwrap();

    // The freeze sees the speculative value (the current clone)…
    let (snap, want) = freeze(&mut heap);

    // …and the rollback that later reverts the heap leaves it untouched.
    heap.spec_rollback(level).unwrap();
    assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(0));
    assert_eq!(snap_image(&snap), want);

    let decoded = Heap::decode_image_compressed(
        &mut WireReader::new(&snap_image(&snap)),
        HeapConfig::default(),
    )
    .unwrap();
    assert_eq!(decoded.load(arr, 0).unwrap(), Word::Int(42));
}

#[test]
fn rollback_and_commit_while_snapshot_is_live() {
    let mut heap = Heap::new();
    let arr = heap.alloc_array(8, Word::Int(1)).unwrap();
    let (snap, want) = freeze(&mut heap);

    // A full speculative episode after the freeze: enter, mutate,
    // allocate, roll back; then another that commits.
    let level = heap.spec_enter();
    heap.store(arr, 3, Word::Int(-3)).unwrap();
    let temp = heap.alloc_array(16, Word::Int(9)).unwrap();
    heap.spec_rollback(level).unwrap();
    assert!(heap.load(temp, 0).is_err());

    let level = heap.spec_enter();
    heap.store(arr, 5, Word::Int(55)).unwrap();
    heap.spec_commit(level).unwrap();
    assert_eq!(heap.load(arr, 5).unwrap(), Word::Int(55));

    // The snapshot still encodes the pre-episode state, byte for byte.
    assert_eq!(snap_image(&snap), want);
}

#[test]
fn gc_while_snapshot_is_live_is_safe_and_documented() {
    // Tight thresholds so collections actually fire.
    let mut heap = Heap::with_config(HeapConfig {
        minor_threshold_bytes: 4 * 1024,
        major_threshold_bytes: 64 * 1024,
        max_alloc: 1 << 20,
    });
    let keep = heap.alloc_array(8, Word::Int(7)).unwrap();
    let garbage = heap.alloc_array(64, Word::Int(8)).unwrap();
    let (snap, want) = freeze(&mut heap);

    // Major GC with only `keep` rooted: `garbage` is freed from the live
    // heap (its payload survives inside the snapshot), survivors are
    // compacted to new slots.  The snapshot never looks at slots, so
    // nothing dangles.
    heap.gc_major(&[Word::Ptr(keep)]);
    assert!(
        heap.load(garbage, 0).is_err(),
        "collected from the live heap"
    );
    assert_eq!(snap_image(&snap), want, "frozen payloads survive the GC");

    // Minor collections and promotions after the freeze are equally
    // invisible to the snapshot.
    for i in 0..64 {
        heap.alloc_array(16, Word::Int(i)).unwrap();
    }
    heap.gc_minor(&[Word::Ptr(keep)]);
    assert_eq!(snap_image(&snap), want);

    // The frozen image decodes to the freeze-time state, garbage included.
    let decoded = Heap::decode_image_compressed(
        &mut WireReader::new(&snap_image(&snap)),
        HeapConfig::default(),
    )
    .unwrap();
    assert_eq!(decoded.load(garbage, 0).unwrap(), Word::Int(8));
}

#[test]
fn pointer_index_reuse_after_the_freeze_does_not_leak_into_the_snapshot() {
    let mut heap = Heap::new();
    let keep = heap.alloc_array(4, Word::Int(1)).unwrap();
    let doomed = heap.alloc_array(4, Word::Int(2)).unwrap();
    let (snap, want) = freeze(&mut heap);

    // Collect `doomed`, then allocate until its pointer index is reused
    // with different content.
    heap.gc_major(&[Word::Ptr(keep)]);
    let reused = heap.alloc_array(4, Word::Int(99)).unwrap();
    assert_eq!(reused, doomed, "table entry is recycled");
    assert_eq!(heap.load(reused, 0).unwrap(), Word::Int(99));

    // The snapshot still ships the original block under that index.
    assert_eq!(snap_image(&snap), want);
    let decoded = Heap::decode_image_compressed(
        &mut WireReader::new(&snap_image(&snap)),
        HeapConfig::default(),
    )
    .unwrap();
    assert_eq!(decoded.load(doomed, 0).unwrap(), Word::Int(2));
}

#[test]
fn multiple_snapshots_are_independent() {
    let mut heap = Heap::new();
    let arr = heap.alloc_array(4, Word::Int(0)).unwrap();
    let snap0 = heap.freeze();
    heap.store(arr, 0, Word::Int(1)).unwrap();
    let snap1 = heap.freeze();
    heap.store(arr, 0, Word::Int(2)).unwrap();

    let decode = |bytes: Vec<u8>| {
        Heap::decode_image_compressed(&mut WireReader::new(&bytes), HeapConfig::default()).unwrap()
    };
    assert_eq!(
        decode(snap_image(&snap0)).load(arr, 0).unwrap(),
        Word::Int(0)
    );
    assert_eq!(
        decode(snap_image(&snap1)).load(arr, 0).unwrap(),
        Word::Int(1)
    );
    assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(2));
    assert_eq!(heap.stats().snapshots_frozen, 2);
}

#[test]
fn snapshot_encodes_on_another_thread_while_the_mutator_races() {
    let mut heap = Heap::new();
    let mut ptrs = Vec::new();
    for i in 0..512 {
        ptrs.push(heap.alloc_array(32, Word::Int(i)).unwrap());
    }
    let (snap, want) = freeze(&mut heap);

    // Encode off-thread while this thread rewrites every block — the
    // exact overlap the asynchronous checkpoint pipeline relies on.  A
    // local clone keeps the payloads shared for the whole mutation loop
    // (the encoder may finish and drop its snapshot at any point), so the
    // un-sharing copy count below is deterministic.
    let keeper = snap.clone();
    let encoder = std::thread::spawn(move || snap_image(&snap));
    for (i, ptr) in ptrs.iter().enumerate() {
        heap.store(*ptr, (i % 32) as i64, Word::Int(-1)).unwrap();
    }
    let got = encoder.join().expect("encoder thread");
    assert_eq!(got, want);
    // Every block the mutator touched paid its deferred copy exactly once.
    assert_eq!(heap.stats().shared_payload_copies, ptrs.len() as u64);
    drop(keeper);
}

#[test]
fn delta_from_untracked_snapshot_is_a_precise_error() {
    let mut heap = Heap::new();
    heap.alloc_array(4, Word::Int(0)).unwrap();
    let snap = heap.freeze();
    assert!(!snap.delta_capable());
    let mut w = WireWriter::new();
    assert_eq!(
        snap.encode_delta_image(&mut w, CodecSet::all())
            .unwrap_err(),
        HeapError::NoCleanPoint
    );
}
