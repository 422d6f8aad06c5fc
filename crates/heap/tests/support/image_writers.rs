//! Test-only writers for the pre-v5 heap payload layouts.
//!
//! The library writes v5 slab payloads only (`HeapSnapshot::encode_image`
//! and `HeapSnapshot::encode_delta_image`), but it still *reads* v1
//! (per-word) and v4 (batched) payloads.  These writers keep those
//! decoders covered on arbitrary heaps.  They use public API only: the
//! pointer table, [`Heap::block`], `WireCodec for Block` (the v1 block
//! layout) and `Word::to_raw` (the v4 tag/payload slabs).
//!
//! Shared by the heap crate's unit and integration tests and by the core
//! crate's tests (each includes this file with `#[path]`), so not every
//! includer uses every writer.
#![allow(dead_code)]

use mojave_heap::{Block, BlockData, Heap, PtrIdx};
use mojave_wire::{CodecSet, WireCodec, WireWriter};
use std::collections::HashMap;

/// The live `(index, block)` records of `heap`, ascending by pointer index.
fn live_records(heap: &Heap) -> Vec<(PtrIdx, &Block)> {
    heap.pointer_table()
        .iter_used()
        .map(|(idx, _)| (idx, heap.block(idx).expect("used entry holds a block")))
        .collect()
}

/// Write one block in the v4 batched layout: header, then a tag slab and a
/// payload slab for word blocks, or the byte slab for byte blocks.
pub fn write_v4_block(w: &mut WireWriter, block: &Block) {
    w.write_uvarint(block.header.index.0 as u64);
    block.header.kind.encode(w);
    match &block.data {
        BlockData::Words(words) => {
            let (tags, payloads): (Vec<u8>, Vec<u64>) =
                words.iter().map(|word| word.to_raw()).unzip();
            w.write_bytes(&tags);
            w.write_words(&payloads);
        }
        BlockData::Bytes(bytes) => w.write_bytes(bytes),
    }
}

fn write_v1_block(w: &mut WireWriter, block: &Block) {
    block.encode(w);
}

/// Table capacity, record count, then `(index, block)` records.
fn full_image(heap: &Heap, write_block: fn(&mut WireWriter, &Block)) -> Vec<u8> {
    let records = live_records(heap);
    let mut w = WireWriter::new();
    w.write_usize(heap.pointer_table().capacity());
    w.write_usize(records.len());
    for (idx, block) in records {
        w.write_uvarint(idx.0 as u64);
        write_block(&mut w, block);
    }
    w.into_bytes()
}

/// A full v1 (per-word) heap payload of `heap`.
pub fn v1_image(heap: &Heap) -> Vec<u8> {
    full_image(heap, write_v1_block)
}

/// A full v4 (batched) heap payload of `heap`.
pub fn v4_image(heap: &Heap) -> Vec<u8> {
    full_image(heap, write_v4_block)
}

/// A v4 delta payload taking the state `base` (a [`Heap::snapshot`]) to
/// `heap`: every live block whose content is new or changed, then every
/// index of `base` that is no longer live.  Computed by comparing values,
/// not from the heap's dirty tracking, so it is the smallest correct delta.
pub fn v4_delta(base: &HashMap<u32, BlockData>, heap: &Heap) -> Vec<u8> {
    let changed: Vec<(PtrIdx, &Block)> = live_records(heap)
        .into_iter()
        .filter(|(idx, block)| base.get(&idx.0) != Some(&block.data))
        .collect();
    let mut freed: Vec<u32> = base
        .keys()
        .copied()
        .filter(|idx| !heap.pointer_table().is_valid(PtrIdx(*idx)))
        .collect();
    freed.sort_unstable();

    let mut w = WireWriter::new();
    w.write_usize(heap.pointer_table().capacity());
    w.write_usize(changed.len());
    for (idx, block) in changed {
        w.write_uvarint(idx.0 as u64);
        write_v4_block(&mut w, block);
    }
    w.write_usize(freed.len());
    for idx in freed {
        w.write_uvarint(idx as u64);
    }
    w.into_bytes()
}

/// A full v5 payload of `heap` as it is now: freeze, then encode.
pub fn v5_image(heap: &mut Heap, allowed: CodecSet) -> Vec<u8> {
    let mut w = WireWriter::new();
    heap.freeze().encode_image(&mut w, allowed);
    w.into_bytes()
}

/// A v5 delta payload of `heap` against its last clean point.
///
/// # Panics
/// Panics if `heap` has no clean point ([`Heap::mark_clean`]).
pub fn v5_delta(heap: &mut Heap, allowed: CodecSet) -> Vec<u8> {
    let mut w = WireWriter::new();
    heap.freeze()
        .encode_delta_image(&mut w, allowed)
        .expect("heap has a clean point");
    w.into_bytes()
}
