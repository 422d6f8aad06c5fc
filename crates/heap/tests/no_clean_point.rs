//! Direct coverage of the `HeapError::NoCleanPoint` contract.
//!
//! Delta encoding is only meaningful relative to a clean point
//! ([`Heap::mark_clean`]).  Without one,
//! [`HeapSnapshot::encode_delta_image`](mojave_heap::HeapSnapshot::encode_delta_image)
//! returns `Err(HeapError::NoCleanPoint)`: the pipeline worker consuming
//! the snapshot must fail that delivery precisely, not die.  The process
//! level (`Process::pack_delta`, `Process::pack_snapshot`) turns the same
//! condition into a rejected migration; `mojave-core` tests that.

use mojave_heap::{Heap, HeapConfig, HeapError, Word};
use mojave_wire::{CodecSet, WireReader, WireWriter};

#[test]
fn snapshot_without_clean_point_refuses_delta_encoding() {
    let mut heap = Heap::new();
    heap.alloc_array(4, Word::Int(7)).unwrap();
    let snap = heap.freeze();

    let mut w = WireWriter::new();
    for allowed in [CodecSet::all(), CodecSet::raw_only()] {
        assert_eq!(
            snap.encode_delta_image(&mut w, allowed),
            Err(HeapError::NoCleanPoint)
        );
    }
    // No failed attempt may leave partial output behind.
    assert!(w.into_bytes().is_empty());
}

#[test]
fn no_clean_point_display_names_the_missing_call() {
    // The pipeline surfaces this text verbatim in delivery failures, so
    // it must point the operator at the fix.
    let msg = HeapError::NoCleanPoint.to_string();
    assert_eq!(
        msg,
        "delta encode requested but no clean point was established (mark_clean)"
    );
}

#[test]
fn snapshot_after_mark_clean_encodes_deltas() {
    let mut heap = Heap::new();
    let arr = heap.alloc_array(4, Word::Int(0)).unwrap();
    heap.mark_clean();
    heap.store(arr, 2, Word::Int(41)).unwrap();
    let snap = heap.freeze();

    for allowed in [CodecSet::all(), CodecSet::raw_only()] {
        let mut w = WireWriter::new();
        snap.encode_delta_image(&mut w, allowed).unwrap();
        assert!(!w.into_bytes().is_empty());
    }
}

#[test]
fn decoded_heaps_start_without_a_clean_point() {
    // Dirty tracking is runtime state, not wire state: a resurrected heap
    // must re-establish its own clean point before taking deltas, because
    // the resurrecting node holds no base image.
    let mut heap = Heap::new();
    heap.alloc_array(4, Word::Int(7)).unwrap();
    heap.mark_clean();
    assert!(heap.dirty_tracking_armed());

    let mut w = WireWriter::new();
    heap.freeze().encode_image(&mut w, CodecSet::all());
    let bytes = w.into_bytes();

    let mut decoded =
        Heap::decode_image_compressed(&mut WireReader::new(&bytes), HeapConfig::default()).unwrap();
    assert!(!decoded.dirty_tracking_armed());
    decoded.mark_clean();
    assert!(decoded.dirty_tracking_armed());
}
