//! Heap snapshots: the one writer of heap images.
//!
//! [`Heap::freeze`](crate::Heap::freeze) captures the program-visible heap
//! state as an owned [`HeapSnapshot`] in O(pointer-table) time: block
//! payloads are reference-counted, so the freeze clones pointers rather
//! than bytes, and the mutator's first subsequent write to each shared
//! block pays that block's copy lazily — the same copy-on-write discipline
//! speculation levels use (paper §4.3), opened outward so a *checkpoint*
//! no longer stops the world.
//!
//! Every heap image is written from a snapshot, in the v5 slab layout
//! (see `docs/WIRE_FORMAT.md`).  A synchronous checkpoint freezes and
//! encodes at once, before the mutator resumes, so it never pays a
//! copy-on-write copy.  An asynchronous one sends the snapshot — it is
//! `Send` — to a pipeline worker thread (`mojave-runtime`), which runs
//! the expensive half (codec choice, slab staging, compression, sink
//! delivery) while the mutator keeps running.  Either way the image is
//! the heap as it was at the freeze.

use crate::block::{Block, BlockData};
use crate::error::HeapError;
use crate::pointer_table::PtrIdx;
use mojave_wire::{choose_bytes, choose_words, CodecSet, WireCodec, WireWriter};

/// An immutable, owned capture of the program-visible heap state at one
/// instant, produced by [`Heap::freeze`](crate::Heap::freeze).
///
/// The capture cost is O(live blocks) pointer work; payload bytes are
/// shared with the live heap until the mutator rewrites them.  Encoding a
/// snapshot produces the same bytes whenever it runs: mutations after the
/// freeze never reach it.
#[derive(Debug, Clone)]
pub struct HeapSnapshot {
    /// Pointer-table capacity at the freeze point.
    capacity: usize,
    /// Frozen `(index, block)` records, ascending by pointer index —
    /// payloads are `Arc`-shared with the live heap (copy-on-write).
    records: Vec<(PtrIdx, Block)>,
    /// Dirty live pointer indices at the freeze point (ascending), for
    /// delta encoding.  Always a subset of `records`' indices.
    dirty: Vec<PtrIdx>,
    /// Pointer indices freed since the last clean point (ascending).
    freed: Vec<PtrIdx>,
    /// Whether dirty tracking was armed when the snapshot was taken — if
    /// not, the snapshot has no clean point and cannot encode deltas.
    tracking: bool,
    /// Sum of frozen block byte sizes (payload + header overhead).
    live_bytes: usize,
}

impl HeapSnapshot {
    pub(crate) fn new(
        capacity: usize,
        records: Vec<(PtrIdx, Block)>,
        dirty: Vec<PtrIdx>,
        freed: Vec<PtrIdx>,
        tracking: bool,
    ) -> Self {
        let live_bytes = records.iter().map(|(_, b)| b.byte_size()).sum();
        HeapSnapshot {
            capacity,
            records,
            dirty,
            freed,
            tracking,
            live_bytes,
        }
    }

    /// Pointer-table capacity at the freeze point.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of frozen blocks.
    pub fn block_count(&self) -> usize {
        self.records.len()
    }

    /// Bytes held by the frozen blocks (payload + per-block overhead).
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Number of dirty blocks the snapshot would ship in a delta image.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Number of freed-index fixups the snapshot would ship in a delta.
    pub fn freed_count(&self) -> usize {
        self.freed.len()
    }

    /// Whether the heap had a clean point ([`crate::Heap::mark_clean`])
    /// when frozen, i.e. whether [`HeapSnapshot::encode_delta_image`] can
    /// succeed.
    pub fn delta_capable(&self) -> bool {
        self.tracking
    }

    /// Serialise the frozen state as a full v5 heap payload: table
    /// capacity, record count, then every frozen block in the four
    /// compressed slab frames.  The word-payload codec is picked from
    /// `allowed` by [`mojave_wire::choose_words`] (sample the slab, take
    /// the smallest encoding); pass [`CodecSet::only`] to force one, or
    /// [`CodecSet::raw_only`] when the receiving sink negotiated no
    /// compression.
    pub fn encode_image(&self, w: &mut WireWriter, allowed: CodecSet) {
        let records: Vec<(PtrIdx, &Block)> =
            self.records.iter().map(|(idx, b)| (*idx, b)).collect();
        encode_records_slab(w, self.capacity, &records, allowed);
    }

    /// Serialise only what changed between the last clean point
    /// ([`crate::Heap::mark_clean`]) and the freeze as a v5 delta payload:
    /// table capacity, the dirty blocks in the same slab frames as
    /// [`HeapSnapshot::encode_image`], then the freed-index fixups.
    /// Applying it to the base image with
    /// [`crate::Heap::decode_delta_image`] reconstructs the frozen heap.
    ///
    /// Errors with [`HeapError::NoCleanPoint`] if dirty tracking was not
    /// armed when the snapshot was taken (there is no base to be relative
    /// to) — an error, not a panic, because the pipeline worker consuming
    /// the snapshot must fail the delivery precisely rather than die.
    pub fn encode_delta_image(
        &self,
        w: &mut WireWriter,
        allowed: CodecSet,
    ) -> Result<(), HeapError> {
        if !self.tracking {
            return Err(HeapError::NoCleanPoint);
        }
        // `dirty` is sorted and a subset of `records`, so each lookup is a
        // binary search.
        let records: Vec<(PtrIdx, &Block)> = self
            .dirty
            .iter()
            .map(|ptr| {
                let at = self
                    .records
                    .binary_search_by_key(ptr, |(idx, _)| *idx)
                    .expect("dirty index frozen in the snapshot");
                (*ptr, &self.records[at].1)
            })
            .collect();
        encode_records_slab(w, self.capacity, &records, allowed);
        // Sorted, so identical states produce identical images.
        w.write_usize(self.freed.len());
        for ptr in &self.freed {
            w.write_uvarint(ptr.0 as u64);
        }
        Ok(())
    }
}

/// Write the table capacity and the record count, then gather `records`
/// into the four v5 slabs and write them as compressed frames: meta
/// (index, kind, length per record), word tags, word payloads, byte
/// payloads.  Shared by full and delta encoding.
///
/// Hot-path shape: one sizing pass (which also emits the meta slab),
/// the word codec chosen from a staged *prefix sample* only, then one
/// fused staging pass — when the delta-varint filter wins, payload
/// words stream straight through [`mojave_wire::VarintStream`] and the
/// 8-bytes-per-word `u64` slab is never materialised.
fn encode_records_slab(
    w: &mut WireWriter,
    capacity: usize,
    records: &[(PtrIdx, &Block)],
    allowed: CodecSet,
) {
    // Staging exactly the codec crate's choice-sample prefix makes
    // the sampled choice identical to a choice over the full slab.
    use mojave_wire::CHOICE_SAMPLE_WORDS;

    w.write_usize(capacity);
    w.write_usize(records.len());

    let mut meta = WireWriter::new();
    let mut word_total = 0usize;
    let mut byte_total = 0usize;
    for (idx, block) in records {
        meta.write_uvarint(idx.0 as u64);
        block.header.kind.encode(&mut meta);
        meta.write_usize(block.len());
        match &block.data {
            BlockData::Words(words) => word_total += words.len(),
            BlockData::Bytes(bytes) => byte_total += bytes.len(),
        }
    }

    let mut sample: Vec<u64> = Vec::with_capacity(word_total.min(CHOICE_SAMPLE_WORDS));
    'sample: for (_, block) in records {
        if let BlockData::Words(words) = &block.data {
            for word in words.iter() {
                if sample.len() == CHOICE_SAMPLE_WORDS {
                    break 'sample;
                }
                sample.push(word.to_raw().1);
            }
        }
    }
    let word_codec = choose_words(&sample, allowed);
    drop(sample);

    w.write_byte_frame(meta.as_bytes(), choose_bytes(meta.as_bytes(), allowed));
    let mut tags: Vec<u8> = Vec::with_capacity(word_total);
    let mut raw: Vec<u8> = Vec::with_capacity(byte_total);
    match word_codec {
        mojave_wire::CodecId::Varint | mojave_wire::CodecId::VarintLz => {
            let mut varint: Vec<u8> = Vec::with_capacity(word_total * 2 + 16);
            let mut stream = mojave_wire::VarintStream::new();
            for (_, block) in records {
                match &block.data {
                    BlockData::Words(words) => {
                        for word in words.iter() {
                            let (tag, value) = word.to_raw();
                            tags.push(tag);
                            stream.push(value, &mut varint);
                        }
                    }
                    BlockData::Bytes(bytes) => raw.extend_from_slice(bytes),
                }
            }
            w.write_byte_frame(&tags, choose_bytes(&tags, allowed));
            if word_codec == mojave_wire::CodecId::VarintLz {
                let mut folded = Vec::new();
                mojave_wire::compress_lz_bytes(&varint, &mut folded);
                w.write_word_frame_parts(word_total, word_codec, &folded);
            } else {
                w.write_word_frame_parts(word_total, word_codec, &varint);
            }
        }
        mojave_wire::CodecId::Raw | mojave_wire::CodecId::Lz => {
            let mut payload: Vec<u64> = Vec::with_capacity(word_total);
            for (_, block) in records {
                match &block.data {
                    BlockData::Words(words) => {
                        for word in words.iter() {
                            let (tag, value) = word.to_raw();
                            tags.push(tag);
                            payload.push(value);
                        }
                    }
                    BlockData::Bytes(bytes) => raw.extend_from_slice(bytes),
                }
            }
            w.write_byte_frame(&tags, choose_bytes(&tags, allowed));
            w.write_word_frame(&payload, word_codec);
        }
    }
    w.write_byte_frame(&raw, choose_bytes(&raw, allowed));
}

#[cfg(test)]
mod tests {
    use crate::{Heap, HeapConfig, HeapError, ImageCodec, Word};
    use mojave_wire::{CodecSet, WireReader, WireWriter};

    fn bytes_of(f: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
        let mut w = WireWriter::new();
        f(&mut w);
        w.into_bytes()
    }

    #[test]
    fn snapshot_images_match_stop_the_world_images() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(8, Word::Int(3)).unwrap();
        let s = heap.alloc_str("frozen").unwrap();
        heap.alloc_tuple(vec![Word::Ptr(a), Word::Ptr(s)]).unwrap();

        // Encoded before the mutator resumes, the image is what a
        // synchronous checkpoint at the freeze would ship.
        let at_freeze = heap.snapshot();
        let snap = heap.freeze();
        let stop_the_world = bytes_of(|w| snap.encode_image(w, CodecSet::all()));

        // Mutations after the freeze must not leak into the snapshot.
        heap.store(a, 0, Word::Int(-1)).unwrap();
        heap.alloc_array(64, Word::Int(9)).unwrap();

        let late = bytes_of(|w| snap.encode_image(w, CodecSet::all()));
        assert_eq!(late, stop_the_world);
        let back =
            Heap::decode_image_compressed(&mut WireReader::new(&late), HeapConfig::default())
                .unwrap();
        assert_eq!(back.snapshot(), at_freeze);
        assert_eq!(snap.block_count(), 3);
        assert!(snap.live_bytes() > 0);
        assert_eq!(heap.stats().snapshots_frozen, 1);
        // Exactly one block was un-shared by the post-freeze store.
        assert_eq!(heap.stats().shared_payload_copies, 1);
    }

    #[test]
    fn snapshot_delta_matches_and_requires_clean_point() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(4, Word::Int(1)).unwrap();
        let doomed = heap.alloc_array(2, Word::Int(2)).unwrap();

        // No clean point: delta encode is a precise error.
        let snap = heap.freeze();
        assert!(!snap.delta_capable());
        let mut w = WireWriter::new();
        assert_eq!(
            snap.encode_delta_image(&mut w, CodecSet::all())
                .unwrap_err(),
            HeapError::NoCleanPoint
        );

        heap.mark_clean();
        let base = bytes_of(|w| heap.freeze().encode_image(w, CodecSet::all()));
        heap.store(a, 1, Word::Int(7)).unwrap();
        heap.free_block(doomed);
        let at_freeze = heap.snapshot();
        let snap = heap.freeze();
        assert_eq!(snap.dirty_count(), 1);
        assert_eq!(snap.freed_count(), 1);
        let delta = |snap: &crate::HeapSnapshot| {
            bytes_of(|w| snap.encode_delta_image(w, CodecSet::all()).unwrap())
        };
        let stop_the_world = delta(&snap);

        heap.store(a, 2, Word::Int(8)).unwrap();
        let late = delta(&snap);
        assert_eq!(late, stop_the_world);
        let back = Heap::decode_delta_image(
            &mut WireReader::new(&base),
            &mut WireReader::new(&late),
            ImageCodec::Slab,
            ImageCodec::Slab,
            HeapConfig::default(),
        )
        .unwrap();
        assert_eq!(back.snapshot(), at_freeze);
    }
}
