//! The heap proper: allocation, checked access, copy-on-write speculation
//! and (in [`crate::gc`]) garbage collection.

use crate::block::{Block, BlockData, BlockKind, Generation};
use crate::cow::SpecLevelRecord;
use crate::error::HeapError;
use crate::pointer_table::{PointerTable, PtrIdx};
use crate::stats::HeapStats;
use crate::word::Word;
use mojave_wire::{FrameStats, WireCodec, WireError, WireReader};
use std::collections::{HashMap, HashSet};

/// Which block codec a heap image payload uses — selected by the image's
/// wire format version (`mojave-core` maps versions to codecs).  Only
/// [`ImageCodec::Slab`] is still written; the others decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageCodec {
    /// v1 images (decode only): one varint-encoded record per word.
    PerWord,
    /// v4 images (decode only): batched per-block tag/payload slabs,
    /// uncompressed.
    Batched,
    /// v5 images: structure-of-arrays slabs in codec-tagged compressed
    /// frames (see `mojave-codec`).
    Slab,
}

/// Wire statistics of a v5 heap payload: what the slab frames claim
/// uncompressed vs. what the payload occupies on the wire.  Computed by
/// [`image_payload_stats`] without decompressing anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PayloadWireStats {
    /// Payload size if every slab frame were stored raw.
    pub raw_bytes: u64,
    /// Actual payload size on the wire.
    pub stored_bytes: u64,
}

/// Walk a v5 heap payload (full image when `delta` is false, delta image
/// otherwise) and report its raw-vs-stored wire statistics.  Only frame
/// headers are read — nothing is decompressed — so checkpoint stores can
/// account compression per `put` at negligible cost.
pub fn image_payload_stats(bytes: &[u8], delta: bool) -> Result<PayloadWireStats, WireError> {
    let mut r = WireReader::new(bytes);
    r.read_usize()?; // table capacity
    r.read_usize()?; // used / dirty record count
    let mut frames = FrameStats::default();
    frames.add(r.skip_byte_frame()?); // meta
    frames.add(r.skip_byte_frame()?); // tag slab
    frames.add(r.skip_word_frame()?); // word payload slab
    frames.add(r.skip_byte_frame()?); // byte payload slab
    if delta {
        let freed = r.read_usize()?;
        for _ in 0..freed {
            r.read_uvarint()?;
        }
    }
    if !r.is_empty() {
        return Err(WireError::TrailingBytes {
            remaining: r.remaining(),
        });
    }
    let stored = bytes.len() as u64;
    Ok(PayloadWireStats {
        raw_bytes: stored - frames.stored_bytes + frames.raw_bytes,
        stored_bytes: stored,
    })
}

/// Per-block bookkeeping overhead in bytes: the header (index, kind,
/// generation, mark) plus the pointer-table entry.  The paper reports "in
/// excess of 12 bytes per block, including the pointer table" for the IA32
/// runtime; the canonical format uses 16.
pub const HEADER_OVERHEAD_BYTES: usize = 16;

/// Tunable heap parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapConfig {
    /// Young-generation size that triggers a minor collection.
    pub minor_threshold_bytes: usize,
    /// Live-heap size that triggers a major collection.
    pub major_threshold_bytes: usize,
    /// Largest allowed single allocation, in elements or bytes.
    pub max_alloc: usize,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            minor_threshold_bytes: 256 * 1024,
            major_threshold_bytes: 8 * 1024 * 1024,
            max_alloc: 1 << 28,
        }
    }
}

/// The Mojave runtime heap.
///
/// See the crate-level documentation for the overall design.  All access is
/// checked; none of the operations panic on malformed input from the program
/// under execution (they return [`HeapError`], which the backend turns into
/// a trap).
#[derive(Debug, Clone, Default)]
pub struct Heap {
    /// Block store.  A `None` is a free slot awaiting reuse or compaction.
    pub(crate) blocks: Vec<Option<Block>>,
    /// Free slots available for reuse.
    pub(crate) free_slots: Vec<usize>,
    /// The pointer table.
    pub(crate) table: PointerTable,
    /// Slots of old-generation blocks that may contain pointers to young
    /// blocks (the minor-collection remembered set, maintained by the write
    /// barrier in [`Heap::store`]).
    pub(crate) remembered: HashSet<usize>,
    /// Open speculation levels, oldest first (level 1 is index 0).
    pub(crate) spec_levels: Vec<SpecLevelRecord>,
    /// Configuration.
    pub(crate) config: HeapConfig,
    /// Statistics.
    pub(crate) stats: HeapStats,
    /// Bytes held by live blocks (approximate; maintained incrementally).
    pub(crate) live_bytes: usize,
    /// Bytes allocated into the young generation since the last collection.
    pub(crate) young_bytes: usize,
    /// Whether dirty tracking is armed.  Off until the first
    /// [`Heap::mark_clean`], so heaps that never take delta checkpoints
    /// pay one branch per store instead of a hash insert.
    pub(crate) tracking: bool,
    /// Pointer indices whose block content may have diverged from the last
    /// clean point ([`Heap::mark_clean`]): every allocation and every
    /// successful mutation inserts here.  Rollbacks keep entries even when
    /// they restore the original content — the set is a conservative
    /// over-approximation, which keeps delta images correct.
    pub(crate) dirty: HashSet<PtrIdx>,
    /// Pointer indices freed since the last clean point and not since
    /// reallocated — the pointer-table fixups a delta image must ship.
    pub(crate) freed_since_clean: HashSet<PtrIdx>,
    /// Flight recorder for GC, freeze and speculation events.  Disabled
    /// by default (one-branch cost); cloned shares between heap, process
    /// and pipeline.
    pub(crate) recorder: mojave_obs::Recorder,
}

impl Heap {
    /// Create a heap with the default configuration.
    pub fn new() -> Self {
        Heap::with_config(HeapConfig::default())
    }

    /// Create a heap with an explicit configuration.
    pub fn with_config(config: HeapConfig) -> Self {
        Heap {
            config,
            ..Heap::default()
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Attach a flight recorder: GC, freeze and speculation events flow
    /// into it.  The default recorder is disabled and costs one branch.
    pub fn set_recorder(&mut self, recorder: mojave_obs::Recorder) {
        self.recorder = recorder;
    }

    /// The attached flight recorder (disabled unless
    /// [`Heap::set_recorder`] was called).
    pub fn recorder(&self) -> &mojave_obs::Recorder {
        &self.recorder
    }

    /// The heap configuration.
    pub fn config(&self) -> HeapConfig {
        self.config
    }

    /// Number of live blocks.
    pub fn live_blocks(&self) -> usize {
        self.table.live()
    }

    /// Approximate bytes held by live blocks (payload + per-block overhead).
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Bytes allocated into the young generation since the last collection.
    pub fn young_bytes(&self) -> usize {
        self.young_bytes
    }

    /// Number of currently open speculation levels.
    pub fn spec_depth(&self) -> usize {
        self.spec_levels.len()
    }

    /// The open speculation records (oldest first), for diagnostics.
    pub fn spec_records(&self) -> &[SpecLevelRecord] {
        &self.spec_levels
    }

    /// Read-only access to the pointer table.
    pub fn pointer_table(&self) -> &PointerTable {
        &self.table
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    fn check_size(&self, n: i64) -> Result<usize, HeapError> {
        if n < 0 {
            return Err(HeapError::NegativeSize(n));
        }
        let n = n as usize;
        if n > self.config.max_alloc {
            return Err(HeapError::AllocTooLarge {
                requested: n as i64,
                limit: self.config.max_alloc,
            });
        }
        Ok(n)
    }

    fn take_slot(&mut self) -> usize {
        if let Some(slot) = self.free_slots.pop() {
            slot
        } else {
            self.blocks.push(None);
            self.blocks.len() - 1
        }
    }

    fn install_block(&mut self, kind: BlockKind, data: BlockData) -> PtrIdx {
        let slot = self.take_slot();
        let idx = self.table.allocate(slot);
        let block = Block {
            header: crate::block::BlockHeader {
                index: idx,
                kind,
                generation: Generation::Young,
                marked: false,
            },
            data,
        };
        let size = block.byte_size();
        self.blocks[slot] = Some(block);
        self.live_bytes += size;
        self.young_bytes += size;
        self.stats.blocks_allocated += 1;
        self.stats.bytes_allocated += size as u64;
        if self.tracking {
            self.dirty.insert(idx);
            self.freed_since_clean.remove(&idx);
        }
        if let Some(top) = self.spec_levels.last_mut() {
            top.note_allocation(idx);
        }
        idx
    }

    /// Allocate an array of `len` words, each initialised to `init`.
    pub fn alloc_array(&mut self, len: i64, init: Word) -> Result<PtrIdx, HeapError> {
        let len = self.check_size(len)?;
        Ok(self.install_block(BlockKind::Array, BlockData::words(vec![init; len])))
    }

    /// Allocate a tuple holding the given words.
    pub fn alloc_tuple(&mut self, words: Vec<Word>) -> Result<PtrIdx, HeapError> {
        self.check_size(words.len() as i64)?;
        Ok(self.install_block(BlockKind::Tuple, BlockData::words(words)))
    }

    /// Allocate a closure block: element 0 is the function index, the rest
    /// are the captured environment.
    pub fn alloc_closure(&mut self, fun: u32, captured: Vec<Word>) -> Result<PtrIdx, HeapError> {
        let mut words = Vec::with_capacity(captured.len() + 1);
        words.push(Word::Fun(fun));
        words.extend(captured);
        Ok(self.install_block(BlockKind::Closure, BlockData::words(words)))
    }

    /// Allocate the migrate environment block (paper §4.2.2).
    pub fn alloc_migrate_env(&mut self, words: Vec<Word>) -> Result<PtrIdx, HeapError> {
        Ok(self.install_block(BlockKind::MigrateEnv, BlockData::words(words)))
    }

    /// Allocate a zero-filled raw block of `size` bytes.
    pub fn alloc_raw(&mut self, size: i64) -> Result<PtrIdx, HeapError> {
        let size = self.check_size(size)?;
        Ok(self.install_block(BlockKind::Raw, BlockData::bytes(vec![0; size])))
    }

    /// Allocate an immutable string block.
    pub fn alloc_str(&mut self, s: &str) -> Result<PtrIdx, HeapError> {
        self.check_size(s.len() as i64)?;
        Ok(self.install_block(BlockKind::Str, BlockData::bytes(s.as_bytes().to_vec())))
    }

    // ------------------------------------------------------------------
    // Checked access
    // ------------------------------------------------------------------

    fn slot_of(&self, ptr: PtrIdx) -> Result<usize, HeapError> {
        self.table.lookup(ptr).ok_or(HeapError::InvalidPointer(ptr))
    }

    /// Borrow a block.
    pub fn block(&self, ptr: PtrIdx) -> Result<&Block, HeapError> {
        let slot = self.slot_of(ptr)?;
        self.blocks[slot]
            .as_ref()
            .ok_or(HeapError::InvalidPointer(ptr))
    }

    fn block_mut_unchecked(&mut self, slot: usize) -> &mut Block {
        self.blocks[slot]
            .as_mut()
            .expect("slot referenced by pointer table holds a block")
    }

    /// The kind of the block `ptr` refers to.
    pub fn block_kind(&self, ptr: PtrIdx) -> Result<BlockKind, HeapError> {
        Ok(self.block(ptr)?.header.kind)
    }

    /// Number of addressable elements (words or bytes) of the block.
    pub fn block_len(&self, ptr: PtrIdx) -> Result<usize, HeapError> {
        Ok(self.block(ptr)?.len())
    }

    /// Read a word from a word-addressed block.
    pub fn load(&self, ptr: PtrIdx, index: i64) -> Result<Word, HeapError> {
        let block = self.block(ptr)?;
        let words = block.as_words().ok_or(HeapError::KindMismatch {
            ptr,
            kind: block.header.kind,
            access: "word load",
        })?;
        let len = words.len();
        if index < 0 || index as usize >= len {
            return Err(HeapError::OutOfBounds { ptr, index, len });
        }
        Ok(words[index as usize])
    }

    /// Write a word into a word-addressed block, performing copy-on-write if
    /// a speculation is open and maintaining the minor-GC write barrier.
    pub fn store(&mut self, ptr: PtrIdx, index: i64, value: Word) -> Result<(), HeapError> {
        // Validate before mutating anything.
        {
            let block = self.block(ptr)?;
            if block.header.kind == BlockKind::Str {
                return Err(HeapError::ImmutableBlock(ptr));
            }
            let words = block.as_words().ok_or(HeapError::KindMismatch {
                ptr,
                kind: block.header.kind,
                access: "word store",
            })?;
            let len = words.len();
            if index < 0 || index as usize >= len {
                return Err(HeapError::OutOfBounds { ptr, index, len });
            }
        }
        self.cow_before_write(ptr)?;
        self.note_mutated(ptr);
        let slot = self.slot_of(ptr)?;
        self.note_unshare(slot);
        let is_old = {
            let block = self.block_mut_unchecked(slot);
            block.data.words_mut()[index as usize] = value;
            block.header.generation == Generation::Old
        };
        // Write barrier: an old block now (possibly) references a young one.
        if is_old && value.is_ptr() {
            self.remembered.insert(slot);
        }
        Ok(())
    }

    fn check_raw_access(
        &self,
        ptr: PtrIdx,
        offset: i64,
        width: u8,
        write: bool,
    ) -> Result<usize, HeapError> {
        if !matches!(width, 1 | 4 | 8) {
            return Err(HeapError::BadWidth(width));
        }
        let block = self.block(ptr)?;
        if write && block.header.kind == BlockKind::Str {
            return Err(HeapError::ImmutableBlock(ptr));
        }
        let bytes = block.as_bytes().ok_or(HeapError::KindMismatch {
            ptr,
            kind: block.header.kind,
            access: "raw access",
        })?;
        let len = bytes.len();
        if offset < 0 || offset as usize + width as usize > len {
            return Err(HeapError::OutOfBounds {
                ptr,
                index: offset,
                len,
            });
        }
        Ok(offset as usize)
    }

    /// Read `width` bytes (1, 4 or 8) little-endian from a raw block,
    /// zero-extended.
    pub fn load_raw(&self, ptr: PtrIdx, offset: i64, width: u8) -> Result<i64, HeapError> {
        let off = self.check_raw_access(ptr, offset, width, false)?;
        let bytes = self.block(ptr)?.as_bytes().expect("validated raw block");
        let mut buf = [0u8; 8];
        buf[..width as usize].copy_from_slice(&bytes[off..off + width as usize]);
        Ok(i64::from_le_bytes(buf))
    }

    /// Write the low `width` bytes of `value` little-endian into a raw block.
    pub fn store_raw(
        &mut self,
        ptr: PtrIdx,
        offset: i64,
        width: u8,
        value: i64,
    ) -> Result<(), HeapError> {
        let off = self.check_raw_access(ptr, offset, width, true)?;
        self.cow_before_write(ptr)?;
        self.note_mutated(ptr);
        let slot = self.slot_of(ptr)?;
        self.note_unshare(slot);
        let bytes = self.block_mut_unchecked(slot).data.bytes_mut();
        let le = value.to_le_bytes();
        bytes[off..off + width as usize].copy_from_slice(&le[..width as usize]);
        Ok(())
    }

    /// Copy `len` bytes between raw blocks (used by the object-store
    /// externals of the Transfer example).
    pub fn copy_raw(&mut self, src: PtrIdx, dst: PtrIdx, len: usize) -> Result<(), HeapError> {
        let data: Vec<u8> = {
            let block = self.block(src)?;
            let bytes = block.as_bytes().ok_or(HeapError::KindMismatch {
                ptr: src,
                kind: block.header.kind,
                access: "raw copy source",
            })?;
            if bytes.len() < len {
                return Err(HeapError::OutOfBounds {
                    ptr: src,
                    index: len as i64,
                    len: bytes.len(),
                });
            }
            bytes[..len].to_vec()
        };
        {
            let block = self.block(dst)?;
            let bytes = block.as_bytes().ok_or(HeapError::KindMismatch {
                ptr: dst,
                kind: block.header.kind,
                access: "raw copy destination",
            })?;
            if bytes.len() < len {
                return Err(HeapError::OutOfBounds {
                    ptr: dst,
                    index: len as i64,
                    len: bytes.len(),
                });
            }
        }
        self.cow_before_write(dst)?;
        self.note_mutated(dst);
        let slot = self.slot_of(dst)?;
        self.note_unshare(slot);
        self.block_mut_unchecked(slot).data.bytes_mut()[..len].copy_from_slice(&data);
        Ok(())
    }

    /// Read a string block's contents.
    pub fn str_value(&self, ptr: PtrIdx) -> Result<String, HeapError> {
        let block = self.block(ptr)?;
        match (block.header.kind, block.as_bytes()) {
            (BlockKind::Str, Some(bytes)) => Ok(String::from_utf8_lossy(bytes).into_owned()),
            _ => Err(HeapError::KindMismatch {
                ptr,
                kind: block.header.kind,
                access: "string read",
            }),
        }
    }

    // ------------------------------------------------------------------
    // Speculation: copy-on-write, commit and rollback (paper §4.3)
    // ------------------------------------------------------------------

    /// Clone-before-write when a speculation level is open.
    ///
    /// The *original* block stays at its slot and is recorded in the current
    /// level's checkpoint record; the clone becomes the block the pointer
    /// table refers to, so subsequent reads and writes see the new copy.
    fn cow_before_write(&mut self, ptr: PtrIdx) -> Result<(), HeapError> {
        let needs_cow = match self.spec_levels.last() {
            None => false,
            Some(top) => !top.has_saved(ptr) && !top.was_allocated_here(ptr),
        };
        if !needs_cow {
            return Ok(());
        }
        let orig_slot = self.slot_of(ptr)?;
        let clone = self.blocks[orig_slot]
            .as_ref()
            .expect("slot referenced by pointer table holds a block")
            .clone();
        let size = clone.byte_size();
        let clone_slot = self.take_slot();
        self.blocks[clone_slot] = Some(clone);
        self.table.relocate(ptr, clone_slot);
        self.live_bytes += size;
        self.young_bytes += size;
        self.stats.cow_clones += 1;
        self.stats.cow_bytes += size as u64;
        self.spec_levels
            .last_mut()
            .expect("speculation level present")
            .saved
            .insert(ptr, orig_slot);
        Ok(())
    }

    /// Enter a new speculation level; returns its 1-based level number.
    pub fn spec_enter(&mut self) -> usize {
        self.spec_levels.push(SpecLevelRecord::default());
        self.stats.speculations_entered += 1;
        self.recorder.record(
            mojave_obs::EventKind::SpecEnter,
            self.spec_levels.len() as u64,
            0,
        );
        self.spec_levels.len()
    }

    fn check_level(&self, level: usize) -> Result<(), HeapError> {
        if level == 0 || level > self.spec_levels.len() {
            Err(HeapError::NoSuchSpeculation {
                level,
                open: self.spec_levels.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Commit speculation level `level` (1-based), folding its changes into
    /// the enclosing level, or making them permanent if it is the oldest
    /// level.  Commits may happen out of order (paper §2).
    pub fn spec_commit(&mut self, level: usize) -> Result<(), HeapError> {
        self.check_level(level)?;
        let record = self.spec_levels.remove(level - 1);
        if level == 1 {
            // Changes become permanent: the preserved originals are no longer
            // needed for any rollback.
            for (_, slot) in record.saved {
                self.discard_slot(slot);
            }
        } else {
            let parent = &mut self.spec_levels[level - 2];
            let discard = parent.absorb(record);
            for slot in discard {
                self.discard_slot(slot);
            }
        }
        self.stats.speculations_committed += 1;
        self.recorder
            .record(mojave_obs::EventKind::SpecCommit, level as u64, 0);
        Ok(())
    }

    /// Roll back to speculation level `level` (1-based): abort that level and
    /// every younger level, restoring the heap to its state at the moment
    /// `level` was entered.
    pub fn spec_rollback(&mut self, level: usize) -> Result<(), HeapError> {
        self.check_level(level)?;
        // Process newest levels first so that the oldest preserved copy of a
        // block is the one left standing.
        while self.spec_levels.len() >= level {
            let record = self.spec_levels.pop().expect("level count checked");
            for (ptr, orig_slot) in &record.saved {
                if let Some(cur_slot) = self.table.lookup(*ptr) {
                    if cur_slot != *orig_slot {
                        self.discard_slot(cur_slot);
                    }
                    self.table.relocate(*ptr, *orig_slot);
                    // The restore changes the block's visible content, so it
                    // diverges from any clean point declared while the level
                    // was open.
                    self.note_mutated(*ptr);
                }
            }
            // Blocks allocated inside the aborted level never existed as far
            // as the restored state is concerned.
            for ptr in &record.allocated {
                if let Some(slot) = self.table.free(*ptr) {
                    self.discard_slot(slot);
                    self.note_freed(*ptr);
                }
            }
        }
        self.stats.speculations_rolled_back += 1;
        self.recorder
            .record(mojave_obs::EventKind::SpecAbort, level as u64, 0);
        Ok(())
    }

    /// Free a slot's block without touching the pointer table (the table
    /// entry either already points elsewhere or has been freed by the
    /// caller).
    fn discard_slot(&mut self, slot: usize) {
        if let Some(block) = self.blocks[slot].take() {
            self.live_bytes = self.live_bytes.saturating_sub(block.byte_size());
            self.free_slots.push(slot);
            self.remembered.remove(&slot);
        }
    }

    /// Free a block and its pointer-table entry (used by the collector).
    pub(crate) fn free_block(&mut self, ptr: PtrIdx) {
        if let Some(slot) = self.table.free(ptr) {
            self.discard_slot(slot);
            self.note_freed(ptr);
            self.stats.blocks_collected += 1;
        }
    }

    /// Record that `ptr`'s content may have changed (no-op until tracking
    /// is armed by the first [`Heap::mark_clean`]).
    fn note_mutated(&mut self, ptr: PtrIdx) {
        if self.tracking {
            self.dirty.insert(ptr);
        }
    }

    /// Account the deferred copy-on-write byte copy the next mutation of
    /// `slot` will pay because its payload is shared — with a speculation
    /// clone or with a live [`crate::HeapSnapshot`].  Called just before
    /// the mutation paths take `words_mut`/`bytes_mut`.
    fn note_unshare(&mut self, slot: usize) {
        if let Some(block) = self.blocks[slot].as_ref() {
            if block.data.is_shared() {
                self.stats.shared_payload_copies += 1;
                self.stats.shared_payload_bytes += block.data.byte_size() as u64;
            }
        }
    }

    /// Record that `ptr`'s table entry was released: the index joins the
    /// delta fixup set and stops being dirty (a freed block has no content
    /// to ship).
    fn note_freed(&mut self, ptr: PtrIdx) {
        if self.tracking {
            self.dirty.remove(&ptr);
            self.freed_since_clean.insert(ptr);
        }
    }

    // ------------------------------------------------------------------
    // Dirty tracking (incremental checkpoint deltas)
    // ------------------------------------------------------------------

    /// Declare the current heap state *clean*: subsequent mutations,
    /// allocations and frees are tracked relative to this point, and a
    /// delta image ([`crate::HeapSnapshot::encode_delta_image`]) ships
    /// exactly that tracked set.
    ///
    /// The first call **arms** dirty tracking — before it, mutation paths
    /// skip the bookkeeping entirely, so heaps that never take delta
    /// checkpoints pay a single branch per store.
    ///
    /// The caller must pair this with durably storing a full image of the
    /// current state (the delta's base); `mojave-core` does so when a full
    /// checkpoint is stored.
    pub fn mark_clean(&mut self) {
        self.tracking = true;
        self.dirty.clear();
        self.freed_since_clean.clear();
    }

    /// Whether dirty tracking has been armed by a [`Heap::mark_clean`],
    /// i.e. whether a delta image has a clean point to be relative to.
    pub fn dirty_tracking_armed(&self) -> bool {
        self.tracking
    }

    /// Number of live blocks whose content may differ from the last clean
    /// point.
    pub fn dirty_count(&self) -> usize {
        self.dirty
            .iter()
            .filter(|p| self.table.lookup(**p).is_some())
            .count()
    }

    /// Number of pointer indices freed since the last clean point.
    pub fn freed_count(&self) -> usize {
        self.freed_since_clean.len()
    }

    // ------------------------------------------------------------------
    // Snapshots (used by tests to prove rollback exactness)
    // ------------------------------------------------------------------

    /// A value snapshot of every block reachable through the pointer table,
    /// keyed by pointer index.  Two snapshots compare equal iff the program-
    /// visible heap state is identical.
    pub fn snapshot(&self) -> HashMap<u32, BlockData> {
        self.table
            .iter_used()
            .filter_map(|(idx, slot)| self.blocks[slot].as_ref().map(|b| (idx.0, b.data.clone())))
            .collect()
    }

    /// Freeze the current program-visible heap state into an owned,
    /// thread-safe [`crate::HeapSnapshot`] in **O(pointer-table)** time.
    ///
    /// Every heap image is encoded from a snapshot (paper §4.3's
    /// copy-on-write machinery turned outward): block payloads are
    /// reference-counted, so the freeze clones pointers, not bytes.  A
    /// synchronous checkpoint encodes and drops the snapshot before the
    /// mutator resumes; an asynchronous one hands it to a pipeline worker
    /// and resumes at once, and the first subsequent write to each
    /// still-shared block pays that block's copy lazily
    /// ([`HeapStats::shared_payload_copies`] counts them), exactly like the
    /// first write inside a speculation level.
    ///
    /// The snapshot also captures the dirty/freed tracking state, so it
    /// can encode the delta since the last [`Heap::mark_clean`] too.
    ///
    /// Interactions (all safe, by construction — the snapshot owns its
    /// records and never looks back at the heap):
    ///
    /// * **Speculation**: freezing inside an open level captures the
    ///   speculative (current-clone) state; a later rollback or commit
    ///   does not disturb the snapshot.
    /// * **GC**: collections may run while a snapshot is live.  Freeing a
    ///   block drops the heap's reference; the snapshot's reference keeps
    ///   the frozen payload alive.  Compaction moves slots, which the
    ///   snapshot never consults.
    /// * **Multiple snapshots** may be live at once; each is independent.
    pub fn freeze(&mut self) -> crate::HeapSnapshot {
        self.stats.snapshots_frozen += 1;
        let records: Vec<(PtrIdx, Block)> = self
            .table
            .iter_used()
            .map(|(idx, slot)| {
                (
                    idx,
                    self.blocks[slot]
                        .as_ref()
                        .expect("used table entry points at a block")
                        .clone(),
                )
            })
            .collect();
        let mut dirty: Vec<PtrIdx> = self
            .dirty
            .iter()
            .copied()
            .filter(|p| self.table.lookup(*p).is_some())
            .collect();
        dirty.sort();
        let mut freed: Vec<PtrIdx> = self.freed_since_clean.iter().copied().collect();
        freed.sort();
        self.recorder.record(
            mojave_obs::EventKind::Freeze,
            records.len() as u64,
            self.live_bytes as u64,
        );
        crate::HeapSnapshot::new(self.table.capacity(), records, dirty, freed, self.tracking)
    }

    // ------------------------------------------------------------------
    // Migration image (paper §4.2.2: pack / unpack of heap + pointer table)
    // ------------------------------------------------------------------

    /// Rebuild a heap from a v4 (batched) full image.
    ///
    /// Pointer indices are preserved exactly (heap words contain indices, so
    /// identity must survive the round trip); slots are assigned fresh.
    pub fn decode_image(r: &mut WireReader<'_>, config: HeapConfig) -> Result<Heap, WireError> {
        let (capacity, blocks) = Heap::parse_blocks(r, true)?;
        Heap::build_from_blocks(capacity, blocks, config)
    }

    /// Rebuild a heap from a legacy v1 (per-word) full image — see
    /// [`mojave_wire::MIN_SUPPORTED_VERSION`].
    pub fn decode_image_legacy(
        r: &mut WireReader<'_>,
        config: HeapConfig,
    ) -> Result<Heap, WireError> {
        let (capacity, blocks) = Heap::parse_blocks(r, false)?;
        Heap::build_from_blocks(capacity, blocks, config)
    }

    /// Rebuild a heap from a v5 (slab) full image, as
    /// [`crate::HeapSnapshot::encode_image`] writes it.
    pub fn decode_image_compressed(
        r: &mut WireReader<'_>,
        config: HeapConfig,
    ) -> Result<Heap, WireError> {
        let (capacity, blocks) = Heap::parse_blocks_slab(r)?;
        Heap::build_from_blocks(capacity, blocks, config)
    }

    /// Decode `count` v5 slab records (the four compressed frames) back
    /// into blocks, in record order.  Every slab length cross-check —
    /// tags vs. payload words, declared block lengths vs. slab sizes —
    /// is a precise [`WireError`], and nothing is allocated beyond what
    /// the decompressed slabs actually hold.
    fn parse_records_slab(
        r: &mut WireReader<'_>,
        count: usize,
    ) -> Result<Vec<(u32, Block)>, WireError> {
        let meta = r.read_byte_frame()?;
        let tags = r.read_byte_frame()?;
        let mut payload: Vec<u64> = Vec::new();
        r.read_word_frame_into(&mut payload)?;
        let raw = r.read_byte_frame()?;
        if tags.len() != payload.len() {
            return Err(WireError::Invalid(format!(
                "heap image has {} word tags but {} word payloads",
                tags.len(),
                payload.len()
            )));
        }

        let mut mr = WireReader::new(&meta);
        let mut records = Vec::with_capacity(count.min(1 << 16));
        let mut word_off = 0usize;
        let mut byte_off = 0usize;
        for _ in 0..count {
            let idx = mr.read_uvarint()? as u32;
            let kind = BlockKind::decode(&mut mr)?;
            let len = mr.read_usize()?;
            let data = if kind.is_words() {
                if len > tags.len() - word_off {
                    return Err(WireError::Invalid(format!(
                        "block {idx} claims {len} words but the slab holds {}",
                        tags.len() - word_off
                    )));
                }
                let mut words = Vec::with_capacity(len);
                for k in word_off..word_off + len {
                    words.push(Word::from_raw(tags[k], payload[k])?);
                }
                word_off += len;
                BlockData::words(words)
            } else {
                if len > raw.len() - byte_off {
                    return Err(WireError::Invalid(format!(
                        "block {idx} claims {len} bytes but the slab holds {}",
                        raw.len() - byte_off
                    )));
                }
                let bytes = raw[byte_off..byte_off + len].to_vec();
                byte_off += len;
                BlockData::bytes(bytes)
            };
            records.push((
                idx,
                Block {
                    header: crate::block::BlockHeader {
                        index: PtrIdx(idx),
                        kind,
                        generation: Generation::Old,
                        marked: false,
                    },
                    data,
                },
            ));
        }
        if !mr.is_empty() {
            return Err(WireError::TrailingBytes {
                remaining: mr.remaining(),
            });
        }
        if word_off != tags.len() || byte_off != raw.len() {
            return Err(WireError::Invalid(format!(
                "heap image slabs hold more data than the records claim \
                 ({} words, {} bytes unclaimed)",
                tags.len() - word_off,
                raw.len() - byte_off
            )));
        }
        Ok(records)
    }

    /// Decode the `(capacity, index → block)` map of a v5 full image,
    /// with the same duplicate/bound checks as the v1/v4 parser.
    fn parse_blocks_slab(
        r: &mut WireReader<'_>,
    ) -> Result<(usize, HashMap<u32, Block>), WireError> {
        let capacity = Heap::check_capacity(r.read_usize()?)?;
        let used = r.read_usize()?;
        if used > capacity {
            return Err(WireError::Invalid(format!(
                "heap image claims {used} used entries but a table of {capacity}"
            )));
        }
        let records = Heap::parse_records_slab(r, used)?;
        let mut blocks: HashMap<u32, Block> = HashMap::with_capacity(used.min(1 << 16));
        for (idx, block) in records {
            if blocks.insert(idx, block).is_some() {
                return Err(WireError::Invalid(format!(
                    "duplicate pointer index {idx} in heap image"
                )));
            }
        }
        Ok((capacity, blocks))
    }

    /// Dispatch on an image's block codec (the caller maps the wire
    /// format version to an [`ImageCodec`]).
    fn parse_blocks_any(
        r: &mut WireReader<'_>,
        codec: ImageCodec,
    ) -> Result<(usize, HashMap<u32, Block>), WireError> {
        match codec {
            ImageCodec::PerWord => Heap::parse_blocks(r, false),
            ImageCodec::Batched => Heap::parse_blocks(r, true),
            ImageCodec::Slab => Heap::parse_blocks_slab(r),
        }
    }

    /// Rebuild a heap from a base image plus a delta against it (v5 deltas
    /// are written by [`crate::HeapSnapshot::encode_delta_image`]; v4
    /// deltas still decode).
    ///
    /// `base_codec` / `delta_codec` select each payload's block codec (the
    /// caller maps wire format versions — a v5 delta may resolve against a
    /// v4 or even v1 base).  Freed indices unknown to the base are ignored
    /// — they belong to blocks allocated *and* freed between the two
    /// images.
    pub fn decode_delta_image(
        base: &mut WireReader<'_>,
        delta: &mut WireReader<'_>,
        base_codec: ImageCodec,
        delta_codec: ImageCodec,
        config: HeapConfig,
    ) -> Result<Heap, WireError> {
        let (_, mut blocks) = Heap::parse_blocks_any(base, base_codec)?;
        let capacity = Heap::check_capacity(delta.read_usize()?)?;
        let dirty = delta.read_usize()?;
        let mut seen: HashSet<u32> = HashSet::with_capacity(dirty.min(1 << 16));
        match delta_codec {
            ImageCodec::PerWord => {
                return Err(WireError::Invalid(
                    "v1 images cannot carry delta heap payloads".into(),
                ))
            }
            ImageCodec::Batched => {
                for _ in 0..dirty {
                    let idx = delta.read_uvarint()? as u32;
                    let block = Block::decode_batched(delta)?;
                    if block.header.index.0 != idx {
                        return Err(WireError::Invalid(format!(
                            "delta block header index {} does not match record index {idx}",
                            block.header.index.0
                        )));
                    }
                    // Overwriting a *base* entry is the point of a delta;
                    // two delta records for one index is corruption
                    // (order-dependent decode).
                    if !seen.insert(idx) {
                        return Err(WireError::Invalid(format!(
                            "duplicate pointer index {idx} in delta image"
                        )));
                    }
                    blocks.insert(idx, block);
                }
            }
            ImageCodec::Slab => {
                for (idx, block) in Heap::parse_records_slab(delta, dirty)? {
                    if !seen.insert(idx) {
                        return Err(WireError::Invalid(format!(
                            "duplicate pointer index {idx} in delta image"
                        )));
                    }
                    blocks.insert(idx, block);
                }
            }
        }
        let freed = delta.read_usize()?;
        for _ in 0..freed {
            let idx = delta.read_uvarint()? as u32;
            blocks.remove(&idx);
        }
        Heap::build_from_blocks(capacity, blocks, config)
    }

    /// Bound the pointer-table capacity an image may declare.  Images come
    /// from untrusted peers; an absurd capacity must fail fast rather than
    /// drive the table rebuild loop into gigabytes of allocation (and a
    /// capacity above `u32::MAX` would silently truncate, decoding every
    /// block into the void).
    fn check_capacity(capacity: usize) -> Result<usize, WireError> {
        /// Far above any real workload (the paper's heaps hold a few
        /// thousand blocks) and far below address-space exhaustion.
        const MAX_TABLE_CAPACITY: usize = 1 << 24;
        if capacity > MAX_TABLE_CAPACITY {
            return Err(WireError::LengthOverflow {
                context: "pointer-table capacity",
                len: capacity as u64,
            });
        }
        Ok(capacity)
    }

    /// Decode the `(capacity, index → block)` map shared by full and delta
    /// images, validating index agreement and rejecting duplicates.
    fn parse_blocks(
        r: &mut WireReader<'_>,
        batched: bool,
    ) -> Result<(usize, HashMap<u32, Block>), WireError> {
        let capacity = Heap::check_capacity(r.read_usize()?)?;
        let used = r.read_usize()?;
        if used > capacity {
            return Err(WireError::Invalid(format!(
                "heap image claims {used} used entries but a table of {capacity}"
            )));
        }
        let mut blocks: HashMap<u32, Block> = HashMap::with_capacity(used.min(1 << 16));
        for _ in 0..used {
            let idx = r.read_uvarint()? as u32;
            let block = if batched {
                Block::decode_batched(r)?
            } else {
                Block::decode(r)?
            };
            if block.header.index.0 != idx {
                return Err(WireError::Invalid(format!(
                    "block header index {} does not match table index {idx}",
                    block.header.index.0
                )));
            }
            if blocks.insert(idx, block).is_some() {
                return Err(WireError::Invalid(format!(
                    "duplicate pointer index {idx} in heap image"
                )));
            }
        }
        Ok((capacity, blocks))
    }

    /// Materialise a heap whose used pointer indices land exactly where the
    /// image says: allocate table entries `0..capacity` in order, then free
    /// the unused ones.  The result starts clean (its own image is its
    /// base) but with dirty tracking disarmed — a resurrected process only
    /// starts paying the bookkeeping once it takes a full checkpoint.
    fn build_from_blocks(
        capacity: usize,
        mut blocks: HashMap<u32, Block>,
        config: HeapConfig,
    ) -> Result<Heap, WireError> {
        if let Some(max_index) = blocks.keys().max().copied() {
            if max_index as usize >= capacity {
                return Err(WireError::Invalid(format!(
                    "pointer index {max_index} exceeds declared table capacity {capacity}"
                )));
            }
        }
        let mut heap = Heap::with_config(config);
        let mut to_free = Vec::new();
        for i in 0..capacity as u32 {
            if let Some(block) = blocks.remove(&i) {
                let slot = heap.take_slot();
                let idx = heap.table.allocate(slot);
                debug_assert_eq!(idx.0, i);
                let size = block.byte_size();
                heap.blocks[slot] = Some(Block {
                    header: crate::block::BlockHeader {
                        index: idx,
                        kind: block.header.kind,
                        generation: Generation::Old,
                        marked: false,
                    },
                    data: block.data,
                });
                heap.live_bytes += size;
                heap.stats.blocks_allocated += 1;
                heap.stats.bytes_allocated += size as u64;
            } else {
                let slot = heap.take_slot();
                let idx = heap.table.allocate(slot);
                debug_assert_eq!(idx.0, i);
                to_free.push((idx, slot));
            }
        }
        for (idx, slot) in to_free {
            heap.table.free(idx);
            heap.blocks[slot] = None;
            heap.free_slots.push(slot);
        }
        Ok(heap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image_writers::{v1_image, v4_delta, v4_image, v5_delta, v5_image, write_v4_block};
    use mojave_wire::{CodecSet, WireWriter};

    #[test]
    fn alloc_load_store_roundtrip() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(4, Word::Int(0)).unwrap();
        assert_eq!(heap.block_len(arr).unwrap(), 4);
        heap.store(arr, 2, Word::Float(1.5)).unwrap();
        assert_eq!(heap.load(arr, 2).unwrap(), Word::Float(1.5));
        assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(0));
    }

    #[test]
    fn bounds_and_pointer_validation() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(2, Word::Int(0)).unwrap();
        assert!(matches!(
            heap.load(arr, 5),
            Err(HeapError::OutOfBounds { .. })
        ));
        assert!(matches!(
            heap.load(arr, -1),
            Err(HeapError::OutOfBounds { .. })
        ));
        assert!(matches!(
            heap.load(PtrIdx(99), 0),
            Err(HeapError::InvalidPointer(_))
        ));
        assert!(matches!(
            heap.store(arr, 9, Word::Int(1)),
            Err(HeapError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn negative_and_oversized_allocations_rejected() {
        let mut heap = Heap::with_config(HeapConfig {
            max_alloc: 100,
            ..HeapConfig::default()
        });
        assert!(matches!(
            heap.alloc_array(-1, Word::Unit),
            Err(HeapError::NegativeSize(-1))
        ));
        assert!(matches!(
            heap.alloc_raw(101),
            Err(HeapError::AllocTooLarge { .. })
        ));
    }

    #[test]
    fn raw_block_little_endian_access() {
        let mut heap = Heap::new();
        let buf = heap.alloc_raw(16).unwrap();
        heap.store_raw(buf, 0, 8, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(heap.load_raw(buf, 0, 1).unwrap(), 0x08);
        assert_eq!(heap.load_raw(buf, 0, 4).unwrap(), 0x0506_0708);
        assert_eq!(heap.load_raw(buf, 0, 8).unwrap(), 0x0102_0304_0506_0708);
        // Width and bounds checks.
        assert!(matches!(
            heap.load_raw(buf, 0, 3),
            Err(HeapError::BadWidth(3))
        ));
        assert!(matches!(
            heap.load_raw(buf, 12, 8),
            Err(HeapError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn strings_are_immutable() {
        let mut heap = Heap::new();
        let s = heap.alloc_str("constant").unwrap();
        assert_eq!(heap.str_value(s).unwrap(), "constant");
        assert!(matches!(
            heap.store_raw(s, 0, 1, 0),
            Err(HeapError::ImmutableBlock(_))
        ));
    }

    #[test]
    fn kind_mismatch_detected() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(2, Word::Int(0)).unwrap();
        let raw = heap.alloc_raw(8).unwrap();
        assert!(matches!(
            heap.load_raw(arr, 0, 4),
            Err(HeapError::KindMismatch { .. })
        ));
        assert!(matches!(
            heap.load(raw, 0),
            Err(HeapError::KindMismatch { .. })
        ));
    }

    #[test]
    fn copy_raw_between_blocks() {
        let mut heap = Heap::new();
        let a = heap.alloc_raw(8).unwrap();
        let b = heap.alloc_raw(8).unwrap();
        heap.store_raw(a, 0, 8, 42).unwrap();
        heap.copy_raw(a, b, 8).unwrap();
        assert_eq!(heap.load_raw(b, 0, 8).unwrap(), 42);
    }

    #[test]
    fn speculation_rollback_restores_exact_state() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(8, Word::Int(1)).unwrap();
        let tup = heap
            .alloc_tuple(vec![Word::Int(10), Word::Ptr(arr)])
            .unwrap();
        let before = heap.snapshot();

        let level = heap.spec_enter();
        assert_eq!(level, 1);
        heap.store(arr, 0, Word::Int(99)).unwrap();
        heap.store(tup, 0, Word::Int(77)).unwrap();
        let extra = heap.alloc_array(4, Word::Int(5)).unwrap();
        heap.store(tup, 1, Word::Ptr(extra)).unwrap();
        assert_ne!(heap.snapshot(), before);

        heap.spec_rollback(level).unwrap();
        assert_eq!(heap.snapshot(), before);
        assert_eq!(heap.spec_depth(), 0);
        // The speculative allocation is gone.
        assert!(heap.load(extra, 0).is_err());
    }

    #[test]
    fn speculation_commit_keeps_changes() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(4, Word::Int(0)).unwrap();
        let level = heap.spec_enter();
        heap.store(arr, 1, Word::Int(11)).unwrap();
        heap.spec_commit(level).unwrap();
        assert_eq!(heap.spec_depth(), 0);
        assert_eq!(heap.load(arr, 1).unwrap(), Word::Int(11));
        assert_eq!(heap.stats().cow_clones, 1);
    }

    #[test]
    fn nested_rollback_restores_outer_level_state() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(1, Word::Int(0)).unwrap();
        let l1 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(1)).unwrap();
        let state_after_l1_write = heap.snapshot();
        let l2 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(2)).unwrap();
        // Roll back only the inner level: the value written in level 1 stays.
        heap.spec_rollback(l2).unwrap();
        assert_eq!(heap.snapshot(), state_after_l1_write);
        assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(1));
        // Roll back the outer level: back to the original value.
        heap.spec_rollback(l1).unwrap();
        assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(0));
    }

    #[test]
    fn rollback_to_outer_level_aborts_inner_levels_too() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(1, Word::Int(0)).unwrap();
        let before = heap.snapshot();
        let l1 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(1)).unwrap();
        let _l2 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(2)).unwrap();
        let _l3 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(3)).unwrap();
        heap.spec_rollback(l1).unwrap();
        assert_eq!(heap.snapshot(), before);
        assert_eq!(heap.spec_depth(), 0);
    }

    #[test]
    fn out_of_order_commit_then_rollback() {
        // Commit level 1 while level 2 is still open (the grid loop does the
        // opposite order, but §4.3.1 allows commits out of order), then roll
        // back level 1 — which after the renumbering is the old level 2.
        let mut heap = Heap::new();
        let arr = heap.alloc_array(1, Word::Int(0)).unwrap();
        let l1 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(1)).unwrap();
        let _l2 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(2)).unwrap();
        // Commit the oldest level: its write (value 1) becomes permanent.
        heap.spec_commit(l1).unwrap();
        assert_eq!(heap.spec_depth(), 1);
        assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(2));
        // Rolling back the remaining level restores the committed state.
        heap.spec_rollback(1).unwrap();
        assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(1));
    }

    #[test]
    fn commit_inner_then_rollback_outer_restores_original() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(1, Word::Int(0)).unwrap();
        let before = heap.snapshot();
        let l1 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(1)).unwrap();
        let l2 = heap.spec_enter();
        heap.store(arr, 0, Word::Int(2)).unwrap();
        heap.spec_commit(l2).unwrap();
        assert_eq!(heap.load(arr, 0).unwrap(), Word::Int(2));
        heap.spec_rollback(l1).unwrap();
        assert_eq!(heap.snapshot(), before);
    }

    #[test]
    fn invalid_speculation_levels_rejected() {
        let mut heap = Heap::new();
        assert!(matches!(
            heap.spec_commit(1),
            Err(HeapError::NoSuchSpeculation { .. })
        ));
        heap.spec_enter();
        assert!(matches!(
            heap.spec_rollback(2),
            Err(HeapError::NoSuchSpeculation { .. })
        ));
        assert!(matches!(
            heap.spec_rollback(0),
            Err(HeapError::NoSuchSpeculation { .. })
        ));
    }

    #[test]
    fn cow_only_clones_once_per_level() {
        let mut heap = Heap::new();
        let arr = heap.alloc_array(128, Word::Int(0)).unwrap();
        heap.spec_enter();
        for i in 0..128 {
            heap.store(arr, i, Word::Int(i)).unwrap();
        }
        assert_eq!(heap.stats().cow_clones, 1);
        heap.spec_enter();
        heap.store(arr, 0, Word::Int(-1)).unwrap();
        heap.store(arr, 1, Word::Int(-2)).unwrap();
        assert_eq!(heap.stats().cow_clones, 2);
    }

    #[test]
    fn blocks_allocated_in_speculation_need_no_cow() {
        let mut heap = Heap::new();
        heap.spec_enter();
        let arr = heap.alloc_array(16, Word::Int(0)).unwrap();
        heap.store(arr, 3, Word::Int(3)).unwrap();
        assert_eq!(heap.stats().cow_clones, 0);
        heap.spec_rollback(1).unwrap();
        assert!(heap.load(arr, 0).is_err());
    }

    #[test]
    fn image_roundtrip_preserves_pointer_identity() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(3, Word::Int(7)).unwrap();
        let s = heap.alloc_str("hello").unwrap();
        let t = heap
            .alloc_tuple(vec![Word::Ptr(a), Word::Ptr(s), Word::Float(2.5)])
            .unwrap();
        // Free a block so the table has a hole, then allocate another.
        let tmp = heap.alloc_raw(64).unwrap();
        heap.free_block(tmp);
        let b = heap.alloc_array(2, Word::Int(1)).unwrap();

        let bytes = v4_image(&heap);
        let mut r = WireReader::new(&bytes);
        let back = Heap::decode_image(&mut r, HeapConfig::default()).unwrap();
        assert!(r.is_empty());

        assert_eq!(back.load(a, 0).unwrap(), Word::Int(7));
        assert_eq!(back.str_value(s).unwrap(), "hello");
        assert_eq!(back.load(t, 0).unwrap(), Word::Ptr(a));
        assert_eq!(back.load(t, 2).unwrap(), Word::Float(2.5));
        assert_eq!(back.load(b, 1).unwrap(), Word::Int(1));
        assert_eq!(back.live_blocks(), heap.live_blocks());
    }

    /// Build a heap with a few blocks, a table hole and cross-references —
    /// the shape the image codecs must preserve.
    fn populated_heap() -> (Heap, PtrIdx, PtrIdx, PtrIdx) {
        let mut heap = Heap::new();
        let a = heap.alloc_array(3, Word::Int(7)).unwrap();
        let s = heap.alloc_str("hello").unwrap();
        let t = heap
            .alloc_tuple(vec![Word::Ptr(a), Word::Ptr(s), Word::Float(2.5)])
            .unwrap();
        let tmp = heap.alloc_raw(64).unwrap();
        heap.free_block(tmp);
        (heap, a, s, t)
    }

    #[test]
    fn legacy_image_roundtrip_still_decodes() {
        let (heap, a, s, t) = populated_heap();
        let bytes = v1_image(&heap);
        let mut r = WireReader::new(&bytes);
        let back = Heap::decode_image_legacy(&mut r, HeapConfig::default()).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.load(a, 0).unwrap(), Word::Int(7));
        assert_eq!(back.str_value(s).unwrap(), "hello");
        assert_eq!(back.load(t, 1).unwrap(), Word::Ptr(s));
        assert_eq!(back.live_blocks(), heap.live_blocks());
    }

    #[test]
    fn batched_and_legacy_images_decode_to_equal_heaps() {
        let (heap, ..) = populated_heap();
        let b1 = v4_image(&heap);
        let b2 = v1_image(&heap);
        let h1 = Heap::decode_image(&mut WireReader::new(&b1), HeapConfig::default()).unwrap();
        let h2 =
            Heap::decode_image_legacy(&mut WireReader::new(&b2), HeapConfig::default()).unwrap();
        assert_eq!(h1.snapshot(), h2.snapshot());
        assert_eq!(h1.snapshot(), heap.snapshot());
    }

    #[test]
    fn compressed_image_roundtrip_matches_batched() {
        let (mut heap, a, s, t) = populated_heap();
        for allowed in [
            CodecSet::all(),
            CodecSet::raw_only(),
            CodecSet::only(mojave_wire::CodecId::Varint),
            CodecSet::only(mojave_wire::CodecId::Lz),
            CodecSet::only(mojave_wire::CodecId::VarintLz),
        ] {
            let bytes = v5_image(&mut heap, allowed);
            let mut r = WireReader::new(&bytes);
            let back = Heap::decode_image_compressed(&mut r, HeapConfig::default()).unwrap();
            assert!(r.is_empty());
            assert_eq!(back.snapshot(), heap.snapshot(), "{allowed:?}");
            assert_eq!(back.load(a, 0).unwrap(), Word::Int(7));
            assert_eq!(back.str_value(s).unwrap(), "hello");
            assert_eq!(back.load(t, 1).unwrap(), Word::Ptr(s));
        }
    }

    #[test]
    fn compressed_images_shrink_small_int_heaps_below_per_word_size() {
        // The byte claim behind wire v5: on a small-int heap the
        // compressed slab layout beats even the v1 varint encoding.
        let mut heap = Heap::new();
        for i in 0..200 {
            heap.alloc_array(64, Word::Int(i % 50)).unwrap();
        }
        let (v1, v4, v5) = (
            v1_image(&heap).len(),
            v4_image(&heap).len(),
            v5_image(&mut heap, CodecSet::all()).len(),
        );
        assert!(v4 > v1, "batched trades bytes for speed: {v4} vs {v1}");
        assert!(v5 < v1, "compressed must beat v1 varints: {v5} vs {v1}");
        assert!(v5 * 8 < v4, "compressed ≥8× below batched: {v5} vs {v4}");
    }

    #[test]
    fn compressed_delta_roundtrip_including_mixed_base_codecs() {
        let (mut heap, a, _s, t) = populated_heap();
        // Base in v4 batched *and* v5 compressed form: a v5 delta must
        // resolve against either.
        let base_batched = v4_image(&heap);
        let base_slab = v5_image(&mut heap, CodecSet::all());
        heap.mark_clean();

        heap.store(a, 0, Word::Int(-9)).unwrap();
        let fresh = heap.alloc_array(5, Word::Int(3)).unwrap();
        heap.store(t, 2, Word::Ptr(fresh)).unwrap();
        heap.free_block(a);

        let delta_bytes = v5_delta(&mut heap, CodecSet::all());

        for (base_bytes, base_codec) in [
            (&base_batched, ImageCodec::Batched),
            (&base_slab, ImageCodec::Slab),
        ] {
            let back = Heap::decode_delta_image(
                &mut WireReader::new(base_bytes),
                &mut WireReader::new(&delta_bytes),
                base_codec,
                ImageCodec::Slab,
                HeapConfig::default(),
            )
            .unwrap();
            assert_eq!(back.snapshot(), heap.snapshot());
            assert!(back.load(a, 0).is_err(), "freed block stays freed");
            assert_eq!(back.load(fresh, 4).unwrap(), Word::Int(3));
        }
    }

    #[test]
    fn compressed_image_with_corrupted_slabs_rejected() {
        let (mut heap, ..) = populated_heap();
        let bytes = v5_image(&mut heap, CodecSet::all());

        // Truncations anywhere must be precise errors, never panics.
        for cut in [bytes.len() - 1, bytes.len() / 2, 5] {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(Heap::decode_image_compressed(&mut r, HeapConfig::default()).is_err());
        }

        // A record count that disagrees with the slab content.
        let mut w = WireWriter::new();
        w.write_usize(4); // capacity
        w.write_usize(2); // claims two records…
        let mut meta = WireWriter::new();
        meta.write_uvarint(0);
        BlockKind::Array.encode(&mut meta);
        meta.write_usize(1);
        w.write_byte_frame(meta.as_bytes(), mojave_wire::CodecId::Raw); // …meta holds one
        w.write_byte_frame(&[1], mojave_wire::CodecId::Raw);
        w.write_word_frame(&[5], mojave_wire::CodecId::Raw);
        w.write_byte_frame(&[], mojave_wire::CodecId::Raw);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(Heap::decode_image_compressed(&mut r, HeapConfig::default()).is_err());

        // Slabs holding more data than the records claim.
        let mut w = WireWriter::new();
        w.write_usize(4);
        w.write_usize(1);
        let mut meta = WireWriter::new();
        meta.write_uvarint(0);
        BlockKind::Array.encode(&mut meta);
        meta.write_usize(1);
        w.write_byte_frame(meta.as_bytes(), mojave_wire::CodecId::Raw);
        w.write_byte_frame(&[1, 1], mojave_wire::CodecId::Raw); // two words staged
        w.write_word_frame(&[5, 6], mojave_wire::CodecId::Raw);
        w.write_byte_frame(&[], mojave_wire::CodecId::Raw);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Heap::decode_image_compressed(&mut r, HeapConfig::default()).unwrap_err(),
            WireError::Invalid(_)
        ));
    }

    #[test]
    fn payload_stats_reflect_compression() {
        let mut heap = Heap::new();
        for i in 0..100 {
            heap.alloc_array(64, Word::Int(i)).unwrap();
        }
        let bytes = v5_image(&mut heap, CodecSet::all());
        let stats = crate::heap::image_payload_stats(&bytes, false).unwrap();
        assert_eq!(stats.stored_bytes, bytes.len() as u64);
        assert!(
            stats.raw_bytes > stats.stored_bytes * 4,
            "small-int heap must compress ≥4×: raw {} stored {}",
            stats.raw_bytes,
            stats.stored_bytes
        );

        // Raw-only images report ~no savings.
        let bytes = v5_image(&mut heap, CodecSet::raw_only());
        let stats = crate::heap::image_payload_stats(&bytes, false).unwrap();
        assert_eq!(stats.raw_bytes, stats.stored_bytes);

        // Delta payloads walk the freed tail too.
        heap.mark_clean();
        let doomed = heap.alloc_array(2, Word::Int(1)).unwrap();
        heap.free_block(doomed);
        let bytes = v5_delta(&mut heap, CodecSet::all());
        assert!(crate::heap::image_payload_stats(&bytes, true).is_ok());
        assert!(crate::heap::image_payload_stats(&bytes, false).is_err());
    }

    #[test]
    fn dirty_tracking_follows_mutations_allocs_and_frees() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(4, Word::Int(0)).unwrap();
        let b = heap.alloc_raw(16).unwrap();
        heap.mark_clean();
        assert_eq!(heap.dirty_count(), 0);
        assert_eq!(heap.freed_count(), 0);

        heap.store(a, 1, Word::Int(5)).unwrap();
        heap.store(a, 2, Word::Int(6)).unwrap(); // same block: still one entry
        assert_eq!(heap.dirty_count(), 1);
        heap.store_raw(b, 0, 8, 42).unwrap();
        assert_eq!(heap.dirty_count(), 2);

        let c = heap.alloc_array(2, Word::Int(1)).unwrap();
        assert_eq!(heap.dirty_count(), 3);
        heap.free_block(c);
        // Allocated and freed within the window: no content, no fixup a
        // base image could know about — but the index is reported freed.
        assert_eq!(heap.dirty_count(), 2);
        heap.free_block(a);
        assert!(heap.freed_count() >= 1);
        assert_eq!(heap.dirty_count(), 1);
    }

    #[test]
    fn delta_image_reconstructs_exact_heap() {
        let (mut heap, a, _s, t) = populated_heap();
        let base_bytes = v4_image(&heap);
        let base_state = heap.snapshot();
        heap.mark_clean();

        // Mutate: overwrite, allocate, free, re-point.
        heap.store(a, 0, Word::Int(-9)).unwrap();
        let fresh = heap.alloc_array(5, Word::Int(3)).unwrap();
        heap.store(t, 2, Word::Ptr(fresh)).unwrap();
        heap.free_block(a);

        // The tracked v5 delta and a v4 delta of the same change both
        // resolve against the v4 base.
        let v5 = v5_delta(&mut heap, CodecSet::all());
        let v4 = v4_delta(&base_state, &heap);
        // The delta is smaller than a full image of the same heap.
        assert!(v5.len() < v5_image(&mut heap, CodecSet::all()).len() + 16);

        for (delta_bytes, delta_codec) in [(&v5, ImageCodec::Slab), (&v4, ImageCodec::Batched)] {
            let back = Heap::decode_delta_image(
                &mut WireReader::new(&base_bytes),
                &mut WireReader::new(delta_bytes),
                ImageCodec::Batched,
                delta_codec,
                HeapConfig::default(),
            )
            .unwrap();
            assert_eq!(back.snapshot(), heap.snapshot());
            assert!(back.load(a, 0).is_err(), "freed block stays freed");
            assert_eq!(back.load(fresh, 4).unwrap(), Word::Int(3));
            assert_eq!(back.load(t, 2).unwrap(), Word::Ptr(fresh));
        }
    }

    #[test]
    fn delta_after_rollback_ships_restored_blocks() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(2, Word::Int(1)).unwrap();
        let level = heap.spec_enter();
        heap.store(a, 0, Word::Int(2)).unwrap();

        // Clean point taken while the speculation is open.
        let base_bytes = v5_image(&mut heap, CodecSet::all());
        heap.mark_clean();

        // The rollback reverts `a` — it must re-enter the dirty set or the
        // delta would silently miss the restored content.
        heap.spec_rollback(level).unwrap();
        let delta_bytes = v5_delta(&mut heap, CodecSet::all());

        let back = Heap::decode_delta_image(
            &mut WireReader::new(&base_bytes),
            &mut WireReader::new(&delta_bytes),
            ImageCodec::Slab,
            ImageCodec::Slab,
            HeapConfig::default(),
        )
        .unwrap();
        assert_eq!(back.load(a, 0).unwrap(), Word::Int(1));
        assert_eq!(back.snapshot(), heap.snapshot());
    }

    #[test]
    fn empty_delta_is_tiny_and_reconstructs_base() {
        let (mut heap, ..) = populated_heap();
        let base_bytes = v4_image(&heap);
        let base_state = heap.snapshot();
        heap.mark_clean();

        // No changes: a v4 delta is a few header bytes; the tracked v5
        // delta is its three counts plus four empty slab frames (raw
        // length, codec id, empty payload: 3 bytes each).
        let v4 = v4_delta(&base_state, &heap);
        assert!(v4.len() <= 8, "no changes → a few header bytes");
        let v5 = v5_delta(&mut heap, CodecSet::all());
        assert_eq!(v5.len(), 3 + 4 * 3, "no changes → counts and empty frames");

        for (delta_bytes, delta_codec) in [(&v4, ImageCodec::Batched), (&v5, ImageCodec::Slab)] {
            let back = Heap::decode_delta_image(
                &mut WireReader::new(&base_bytes),
                &mut WireReader::new(delta_bytes),
                ImageCodec::Batched,
                delta_codec,
                HeapConfig::default(),
            )
            .unwrap();
            assert_eq!(back.snapshot(), heap.snapshot());
        }
    }

    #[test]
    fn image_with_absurd_capacity_rejected_before_allocation() {
        // Full image claiming a gigantic pointer table.
        let mut w = WireWriter::new();
        w.write_usize(1 << 40);
        w.write_usize(0);
        let bytes = w.into_bytes();
        assert!(matches!(
            Heap::decode_image(&mut WireReader::new(&bytes), HeapConfig::default()).unwrap_err(),
            WireError::LengthOverflow { .. }
        ));

        // Delta declaring the same against a legitimate base.
        let (heap, ..) = populated_heap();
        let base_bytes = v4_image(&heap);
        let mut w = WireWriter::new();
        w.write_usize(1 << 40);
        w.write_usize(0);
        w.write_usize(0);
        let delta_bytes = w.into_bytes();
        assert!(matches!(
            Heap::decode_delta_image(
                &mut WireReader::new(&base_bytes),
                &mut WireReader::new(&delta_bytes),
                ImageCodec::Batched,
                ImageCodec::Batched,
                HeapConfig::default(),
            )
            .unwrap_err(),
            WireError::LengthOverflow { .. }
        ));
    }

    #[test]
    fn delta_with_duplicate_records_rejected() {
        let (heap, a, ..) = populated_heap();
        let base_bytes = v4_image(&heap);

        // Two dirty records for the same index: order-dependent decode is
        // corruption, not a tolerated overwrite.
        let mut w = WireWriter::new();
        w.write_usize(heap.pointer_table().capacity());
        w.write_usize(2);
        for value in [1i64, 2] {
            w.write_uvarint(a.0 as u64);
            write_v4_block(
                &mut w,
                &Block::words(a, BlockKind::Array, vec![Word::Int(value)]),
            );
        }
        w.write_usize(0);
        let delta_bytes = w.into_bytes();
        assert!(matches!(
            Heap::decode_delta_image(
                &mut WireReader::new(&base_bytes),
                &mut WireReader::new(&delta_bytes),
                ImageCodec::Batched,
                ImageCodec::Batched,
                HeapConfig::default(),
            )
            .unwrap_err(),
            WireError::Invalid(_)
        ));
    }

    #[test]
    fn image_with_bad_index_rejected() {
        let mut w = WireWriter::new();
        w.write_usize(1); // capacity 1
        w.write_usize(1); // one used entry
        w.write_uvarint(5); // index 5 out of range
        Block::words(PtrIdx(5), BlockKind::Array, vec![]).encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert!(Heap::decode_image(&mut r, HeapConfig::default()).is_err());
    }

    #[test]
    fn stats_track_allocation() {
        let mut heap = Heap::new();
        heap.alloc_array(10, Word::Int(0)).unwrap();
        heap.alloc_raw(100).unwrap();
        let stats = heap.stats();
        assert_eq!(stats.blocks_allocated, 2);
        assert!(stats.bytes_allocated >= 180);
        assert_eq!(heap.live_blocks(), 2);
    }
}
