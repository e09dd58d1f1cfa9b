//! Register-bank storage backends for the step-machine engine.
//!
//! The engine's register bank was historically a `Vec<Word>` — one enum
//! word per register, with [`Word::Snap`] variants holding an `Arc` to
//! the snapshot record. That representation is kept as [`ArcBank`] (the
//! differential oracle), and [`SlabBank`] is the mega-scale backend:
//! registers are [`SlabEntry`]s — `Copy` payloads with the common small
//! variants (`Null`/`Int`/`Pair`) inlined and snapshot records referenced
//! by an `(index, generation)` handle into contiguous slab storage. A
//! steady-state grant on an inline word is a plain 24-byte store with no
//! drop glue and no refcount traffic; only snapshot-bearing registers
//! touch the slab. A `SlabEntry` is the same size as a `Word` (24 bytes:
//! `Pair(u64, u64)` plus the tag), so the slab saves drop glue and
//! refcounts, not register memory.
//!
//! Both banks pay only for the registers a run touches, in time and in
//! memory:
//!
//! * **Materialize on first write.** Sizing a bank to `n` registers
//!   reserves capacity for all `n` but writes none of them. The bank
//!   materializes the prefix up to the highest register written since
//!   it was sized; a write past the prefix extends it with nulls inside
//!   the reserved capacity (never reallocating), and every register
//!   past it reads as null. The adaptive objects — store&collect's
//!   O(n²) registers, the deposit arena — touch a contention-sized
//!   prefix, so the untouched reserved pages are never faulted in.
//! * **Dirty reset.** One dirty bit per register, set by `write`. A
//!   per-trial [`RegisterBank::reset`] to an unchanged size nulls only
//!   the marked registers — O(registers written last trial), plus a
//!   scan of one bit per materialized register — instead of rewriting
//!   the whole bank.
//!
//! Handle lifecycle invariants (asserted in debug builds):
//!
//! * a handle is minted by [`SlabBank::write`] installing a `Snap` word
//!   and stays valid until that register is overwritten or the bank is
//!   reset;
//! * freeing a slot bumps its generation, so a stale handle can never
//!   alias a recycled slot;
//! * the slot's `Arc<SnapRecord>` is dropped at free time — the same
//!   moment the displaced `Word` of an [`ArcBank`] would drop — so the
//!   snapshot arena's uniqueness-based record recycling behaves
//!   identically on both backends (this is what makes slab-vs-Arc trials
//!   bit-identical; see `tests/pooled_determinism.rs`).
//!
//! Both backends implement [`RegisterBank`], the storage interface of
//! `exsel_sim::StepEngine`.

use crate::mem::RegId;
use crate::word::Word;

/// Borrowed result of reading a never-written / nulled register.
static NULL_WORD: Word = Word::Null;

/// A bank's register cells, materialized on first write. A
/// size-changing [`Cells::reset`] sets the logical size and reserves
/// capacity for every register but writes none of them: `cells` holds
/// only the prefix up to the highest register written since, and every
/// register past it reads as null. A write past the prefix extends it
/// with nulls inside the reserved capacity, so it never reallocates,
/// and the reserved pages past the prefix are never touched.
///
/// One dirty bit per register marks the cells written since the last
/// reset. A bitmap rather than a list because a trial may re-write the
/// same register any number of times (the altruistic deposit re-writes
/// `Null` into its help cells) — the bitmap's size is bounded by the
/// bank's and needs no allocation in steady state.
#[derive(Debug, Default)]
struct Cells<T> {
    /// The materialized prefix; `T::default()` is the null register.
    cells: Vec<T>,
    /// Logical number of registers.
    len: usize,
    /// One bit per register, set by [`Cells::write`].
    dirty: Vec<u64>,
}

impl<T: Default> Cells<T> {
    /// Re-initializes to `len` null registers. An unchanged size nulls
    /// only the marked registers, in ascending order, keeping the
    /// prefix; a size change drops the prefix and reserves room for
    /// all `len` registers without writing any.
    fn reset(&mut self, len: usize) {
        if len == self.len {
            // Marks lie inside the prefix: only a write sets one.
            let words = self.cells.len().div_ceil(64);
            for (w, word) in self.dirty[..words].iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    self.cells[w * 64 + bits.trailing_zeros() as usize] = T::default();
                    bits &= bits - 1;
                }
            }
        } else {
            self.cells.clear();
            self.cells.reserve_exact(len);
            self.len = len;
            self.dirty.clear();
            self.dirty.resize(len.div_ceil(64), 0);
        }
    }

    /// The materialized cell of `reg`, `None` past the prefix (a null
    /// register).
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    #[inline]
    fn get(&self, reg: usize) -> Option<&T> {
        let cell = self.cells.get(reg);
        if cell.is_none() {
            self.check(reg);
        }
        cell
    }

    /// The cell of `reg`, materialized and marked dirty, for the caller
    /// to overwrite.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    #[inline]
    fn write(&mut self, reg: usize) -> &mut T {
        if reg >= self.cells.len() {
            self.check(reg);
            self.cells.resize_with(reg + 1, T::default);
        }
        self.dirty[reg / 64] |= 1 << (reg % 64);
        &mut self.cells[reg]
    }

    fn check(&self, reg: usize) {
        assert!(
            reg < self.len,
            "register {reg} out of range ({} registers)",
            self.len
        );
    }
}

/// Storage interface of the step-machine engine's register bank.
///
/// `read` takes `&mut self` so implementations may decode into an
/// internal scratch cell; the returned borrow is only required to live
/// until the next bank operation (the engine hands it straight to
/// `StepMachine::advance`).
pub trait RegisterBank {
    /// Re-initializes the bank to `num_registers` null registers,
    /// keeping allocated capacity (called by the engine's per-trial
    /// reset).
    fn reset(&mut self, num_registers: usize);

    /// Number of registers.
    fn len(&self) -> usize;

    /// Whether the bank has no registers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current word of `reg`, borrowed for immediate consumption.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    fn read(&mut self, reg: RegId) -> &Word;

    /// Installs `word` in `reg`. The displaced value is dropped after
    /// the new one is in place (assignment semantics).
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    fn write(&mut self, reg: RegId, word: Word);

    /// Materializes the current word of `reg` — the inspection path for
    /// post-trial audits and differential comparisons, available without
    /// `&mut` access.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    fn load(&self, reg: RegId) -> Word;
}

/// The historical register bank: one [`Word`] per register. Reads
/// borrow the word in place; writes are enum assignments (drop glue runs
/// on the displaced word). Kept as the differential oracle for
/// [`SlabBank`].
#[derive(Debug, Default)]
pub struct ArcBank {
    words: Cells<Word>,
}

impl ArcBank {
    /// An empty bank; size it with [`RegisterBank::reset`].
    #[must_use]
    pub fn new() -> Self {
        ArcBank::default()
    }

    /// The materialized register words as a slice, indexed by
    /// [`RegId`] — the post-trial inspection path occupancy audits use.
    /// The slice ends at the highest register written since the bank
    /// was last sized; every register past its end is null.
    #[must_use]
    pub fn words(&self) -> &[Word] {
        &self.words.cells
    }
}

impl RegisterBank for ArcBank {
    fn reset(&mut self, num_registers: usize) {
        // Only written registers can be non-null; nulling them in
        // ascending order drops displaced words in the order a full
        // clear would.
        self.words.reset(num_registers);
    }

    fn len(&self) -> usize {
        self.words.len
    }

    fn read(&mut self, reg: RegId) -> &Word {
        self.words.get(reg.0).unwrap_or(&NULL_WORD)
    }

    fn write(&mut self, reg: RegId, word: Word) {
        *self.words.write(reg.0) = word;
    }

    fn load(&self, reg: RegId) -> Word {
        self.words.get(reg.0).cloned().unwrap_or_default()
    }
}

/// One register of a [`SlabBank`]: the small [`Word`] variants inlined
/// (24 bytes like a `Word`, but `Copy`, no drop glue), snapshot records
/// as generation-tagged handles into the bank's slot storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum SlabEntry {
    /// The initial "empty" register contents.
    #[default]
    Null,
    /// Inlined [`Word::Int`].
    Int(u64),
    /// Inlined [`Word::Pair`].
    Pair(u64, u64),
    /// Handle to a [`Word::Snap`] parked in slot storage. `gen` must
    /// match the slot's current generation — a mismatch means the handle
    /// outlived its slot (a lifecycle bug, caught in debug builds).
    Snap { slot: u32, gen: u32 },
}

/// One slot of the slab's snapshot-record storage.
#[derive(Debug)]
struct SnapSlot {
    /// Generation tag; bumped every time the slot is freed so stale
    /// handles can never alias a recycled slot.
    gen: u32,
    /// The parked word ([`Word::Snap`] while the slot is live,
    /// [`Word::Null`] while it sits on the free list).
    word: Word,
}

/// The mega-scale register bank: contiguous `Copy` entries with inline
/// small payloads, snapshot records behind `(index, generation)` handles
/// into slab slots. See the module docs for the lifecycle invariants.
#[derive(Debug, Default)]
pub struct SlabBank {
    entries: Cells<SlabEntry>,
    slots: Vec<SnapSlot>,
    /// Indices of free slots, reused LIFO.
    free: Vec<u32>,
    /// Decode cell for borrowing inline entries as `&Word`.
    scratch: Word,
    /// Currently live (snapshot-holding) slots.
    live: usize,
    /// High-water mark of `live` since construction.
    peak_live: usize,
    /// Registers currently holding a non-null entry (inline or slab).
    occupied: usize,
    /// High-water mark of `occupied` since construction.
    peak_occupied: usize,
}

impl SlabBank {
    /// An empty bank; size it with [`RegisterBank::reset`].
    #[must_use]
    pub fn new() -> Self {
        SlabBank::default()
    }

    /// Slots currently holding a snapshot record.
    #[must_use]
    pub fn live_slots(&self) -> usize {
        self.live
    }

    /// High-water mark of [`SlabBank::live_slots`] since construction
    /// (reset does not clear it — it tracks the slab's real footprint
    /// across a sweep).
    #[must_use]
    pub fn peak_slots(&self) -> usize {
        self.peak_live
    }

    /// Slots ever allocated (live + free); the slab's capacity
    /// footprint.
    #[must_use]
    pub fn allocated_slots(&self) -> usize {
        self.slots.len()
    }

    /// Registers currently holding a non-null word — inline `Int`/`Pair`
    /// entries included, not just slab-parked snapshot records. This is
    /// the occupancy the mega-scale telemetry reports: algorithms whose
    /// registers only ever hold integers (the majority sweep) have
    /// `live_slots() == 0` forever, but their real footprint is here.
    #[must_use]
    pub fn live_entries(&self) -> usize {
        self.occupied
    }

    /// High-water mark of [`SlabBank::live_entries`] since construction
    /// (reset does not clear it — like [`SlabBank::peak_slots`], it
    /// tracks the real footprint across a sweep).
    #[must_use]
    pub fn peak_entries(&self) -> usize {
        self.peak_occupied
    }

    /// Registers materialized since the bank was last sized: the prefix
    /// up to the highest register written (see the module docs). The
    /// bank's register memory is this many entries, not
    /// [`RegisterBank::len`].
    #[must_use]
    pub fn materialized(&self) -> usize {
        self.entries.cells.len()
    }

    /// Pre-seeds the slab's snapshot-slot storage so at least
    /// `snap_slots` slots exist (live or free). Slots otherwise grow
    /// lazily on the first `Snap` write each; a harness that promises a
    /// zero-allocation steady state (the sharded service runs build one
    /// bank per shard) reserves its per-bank high-water up front so the
    /// slot vector never grows mid-run. Reserved slots survive
    /// [`RegisterBank::reset`], which rebuilds the free list over every
    /// allocated slot.
    pub fn reserve_slots(&mut self, snap_slots: usize) {
        while self.slots.len() < snap_slots {
            let slot = u32::try_from(self.slots.len()).expect("slab slot index fits u32");
            self.slots.push(SnapSlot {
                gen: 0,
                word: Word::Null,
            });
            self.free.push(slot);
        }
    }

    /// The entry of `reg`; null past the materialized prefix.
    fn entry(&self, reg: RegId) -> SlabEntry {
        self.entries.get(reg.0).copied().unwrap_or_default()
    }

    /// Parks `word` in a slot and returns its handle.
    fn alloc_slot(&mut self, word: Word) -> (u32, u32) {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.word.is_null(), "free slot still holds a record");
            s.word = word;
            (slot, s.gen)
        } else {
            let slot = u32::try_from(self.slots.len()).expect("slab slot index fits u32");
            self.slots.push(SnapSlot { gen: 0, word });
            (slot, 0)
        }
    }

    /// Releases a slot: drops its record **now** (matching the drop a
    /// `Vec<Word>` assignment would perform), bumps the generation and
    /// returns the slot to the free list.
    fn free_slot(&mut self, slot: u32, gen: u32) {
        let s = &mut self.slots[slot as usize];
        debug_assert_eq!(s.gen, gen, "stale slab handle freed");
        s.word = Word::Null;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
    }
}

impl RegisterBank for SlabBank {
    fn reset(&mut self, num_registers: usize) {
        self.entries.reset(num_registers);
        // Free every slot (dropping parked records) and rebuild the free
        // list in slot order — deterministic, and capacity-preserving so
        // steady-state sweeps allocate nothing.
        self.free.clear();
        for (i, s) in self.slots.iter_mut().enumerate() {
            if !s.word.is_null() {
                s.word = Word::Null;
                s.gen = s.gen.wrapping_add(1);
            }
            self.free.push(i as u32);
        }
        self.live = 0;
        self.occupied = 0;
        self.scratch = Word::Null;
    }

    fn len(&self) -> usize {
        self.entries.len
    }

    fn read(&mut self, reg: RegId) -> &Word {
        match self.entry(reg) {
            SlabEntry::Null => &NULL_WORD,
            SlabEntry::Int(v) => {
                self.scratch = Word::Int(v);
                &self.scratch
            }
            SlabEntry::Pair(a, b) => {
                self.scratch = Word::Pair(a, b);
                &self.scratch
            }
            SlabEntry::Snap { slot, gen } => {
                let s = &self.slots[slot as usize];
                debug_assert_eq!(s.gen, gen, "stale slab handle read");
                &s.word
            }
        }
    }

    fn write(&mut self, reg: RegId, word: Word) {
        let old = self.entry(reg);
        let new = match word {
            Word::Null => SlabEntry::Null,
            Word::Int(v) => SlabEntry::Int(v),
            Word::Pair(a, b) => SlabEntry::Pair(a, b),
            snap @ Word::Snap(_) => {
                let (slot, gen) = self.alloc_slot(snap);
                SlabEntry::Snap { slot, gen }
            }
        };
        *self.entries.write(reg.0) = new;
        match (old == SlabEntry::Null, new == SlabEntry::Null) {
            (true, false) => {
                self.occupied += 1;
                self.peak_occupied = self.peak_occupied.max(self.occupied);
            }
            (false, true) => self.occupied -= 1,
            _ => {}
        }
        // Drop the displaced record only after the new word is in place —
        // assignment semantics, keeping arena recycling in lock-step with
        // the Arc bank.
        if let SlabEntry::Snap { slot, gen } = old {
            self.free_slot(slot, gen);
        }
    }

    fn load(&self, reg: RegId) -> Word {
        match self.entry(reg) {
            SlabEntry::Null => Word::Null,
            SlabEntry::Int(v) => Word::Int(v),
            SlabEntry::Pair(a, b) => Word::Pair(a, b),
            SlabEntry::Snap { slot, gen } => {
                let s = &self.slots[slot as usize];
                debug_assert_eq!(s.gen, gen, "stale slab handle loaded");
                s.word.clone()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::SnapRecord;
    use std::sync::Arc;

    fn snap_word(seq: u64) -> Word {
        Word::Snap(Arc::new(SnapRecord {
            seq,
            value: Word::Int(seq),
            view: vec![Word::Null; 2].into(),
        }))
    }

    #[test]
    fn inline_words_roundtrip_on_both_banks() {
        let words = [Word::Null, Word::Int(7), Word::Pair(3, 4)];
        let mut arc = ArcBank::new();
        let mut slab = SlabBank::new();
        arc.reset(words.len());
        slab.reset(words.len());
        for (i, w) in words.iter().enumerate() {
            arc.write(RegId(i), w.clone());
            slab.write(RegId(i), w.clone());
        }
        for (i, w) in words.iter().enumerate() {
            assert_eq!(arc.read(RegId(i)), w);
            assert_eq!(slab.read(RegId(i)), w);
            assert_eq!(arc.load(RegId(i)), *w);
            assert_eq!(slab.load(RegId(i)), *w);
        }
        assert_eq!(slab.live_slots(), 0, "inline words must not touch slots");
    }

    #[test]
    fn snap_words_share_the_parked_arc() {
        let mut slab = SlabBank::new();
        slab.reset(1);
        let w = snap_word(5);
        let rec = w.as_snap().unwrap().clone();
        slab.write(RegId(0), w);
        assert_eq!(slab.live_slots(), 1);
        // The read borrow is the parked Arc itself, not a clone.
        let read = slab.read(RegId(0)).as_snap().unwrap();
        assert!(Arc::ptr_eq(read, &rec));
        assert_eq!(Arc::strong_count(&rec), 2); // ours + the slab's
    }

    #[test]
    fn overwriting_a_snap_frees_its_slot_and_bumps_the_generation() {
        let mut slab = SlabBank::new();
        slab.reset(2);
        let first = snap_word(1);
        let rec = first.as_snap().unwrap().clone();
        slab.write(RegId(0), first);
        assert_eq!(Arc::strong_count(&rec), 2);

        slab.write(RegId(0), Word::Int(9));
        assert_eq!(Arc::strong_count(&rec), 1, "displaced record dropped");
        assert_eq!(slab.live_slots(), 0);

        // The freed slot is recycled under a new generation.
        slab.write(RegId(1), snap_word(2));
        assert_eq!(slab.allocated_slots(), 1, "slot recycled, not grown");
        assert_eq!(slab.live_slots(), 1);
        assert_eq!(slab.peak_slots(), 1);
    }

    #[test]
    fn reset_frees_slots_but_keeps_capacity() {
        let mut slab = SlabBank::new();
        slab.reset(3);
        for i in 0..3 {
            slab.write(RegId(i), snap_word(i as u64));
        }
        assert_eq!(slab.live_slots(), 3);
        slab.reset(3);
        assert_eq!(slab.live_slots(), 0);
        assert_eq!(slab.allocated_slots(), 3);
        assert_eq!(slab.peak_slots(), 3, "peak survives reset");
        assert!(slab.load(RegId(0)).is_null());
        // Steady state: the same trial shape reuses the same slots.
        for i in 0..3 {
            slab.write(RegId(i), snap_word(10 + i as u64));
        }
        assert_eq!(slab.allocated_slots(), 3);
    }

    #[test]
    fn entry_occupancy_counts_inline_words() {
        let mut slab = SlabBank::new();
        slab.reset(4);
        assert_eq!(slab.live_entries(), 0);
        slab.write(RegId(0), Word::Int(1));
        slab.write(RegId(1), Word::Pair(2, 3));
        slab.write(RegId(2), snap_word(9));
        assert_eq!(slab.live_entries(), 3);
        assert_eq!(slab.peak_entries(), 3);
        assert_eq!(slab.live_slots(), 1, "only the snap touches slots");
        // Overwrite in place: occupancy unchanged.
        slab.write(RegId(0), Word::Int(7));
        assert_eq!(slab.live_entries(), 3);
        // Nulling a register releases its occupancy.
        slab.write(RegId(1), Word::Null);
        assert_eq!(slab.live_entries(), 2);
        assert_eq!(slab.peak_entries(), 3, "peak is a high-water mark");
        // Reset clears live occupancy, peak survives (sweep footprint).
        slab.reset(4);
        assert_eq!(slab.live_entries(), 0);
        assert_eq!(slab.peak_entries(), 3);
    }

    #[test]
    fn reserved_slots_preempt_lazy_growth_and_survive_reset() {
        let mut slab = SlabBank::new();
        slab.reset(4);
        slab.reserve_slots(3);
        assert_eq!(slab.allocated_slots(), 3);
        assert_eq!(slab.live_slots(), 0);
        // Writes park records in the reserved slots without growing.
        for i in 0..3 {
            slab.write(RegId(i), snap_word(i as u64));
        }
        assert_eq!(slab.allocated_slots(), 3);
        assert_eq!(slab.live_slots(), 3);
        // Reset keeps the reserved capacity; a smaller reserve is a
        // no-op on an already-large slab.
        slab.reset(4);
        slab.reserve_slots(2);
        assert_eq!(slab.allocated_slots(), 3);
        for i in 0..3 {
            slab.write(RegId(i), snap_word(10 + i as u64));
        }
        assert_eq!(slab.allocated_slots(), 3, "steady state must not grow");
    }

    #[test]
    fn entries_are_word_sized() {
        // `Pair(u64, u64)` plus the tag on both sides: the slab bank
        // saves drop glue and refcounts, not register memory.
        assert_eq!(std::mem::size_of::<Word>(), 24);
        assert_eq!(std::mem::size_of::<SlabEntry>(), 24);
    }

    /// One trial's writes: `Int`, `Pair` and a `Snap`, then a `Null`
    /// re-write of a written register (the help-cell pattern). Returns
    /// the parked snapshot record.
    fn mixed_trial(bank: &mut impl RegisterBank) -> Arc<SnapRecord> {
        let snap = snap_word(3);
        let rec = snap.as_snap().unwrap().clone();
        bank.write(RegId(1), Word::Int(1));
        bank.write(RegId(64), Word::Pair(2, 3));
        bank.write(RegId(65), snap);
        bank.write(RegId(1), Word::Null);
        bank.write(RegId(99), Word::Int(4));
        bank.write(RegId(99), Word::Null);
        rec
    }

    /// Reset to an unchanged size nulls every register, drops the
    /// displaced record and clears the marks; a size change resizes the
    /// map along with the bank.
    fn dirty_reset_restores_a_null_bank<B: RegisterBank + Default>(dirty: fn(&B) -> &[u64]) {
        let mut bank = B::default();
        bank.reset(100);
        let rec = mixed_trial(&mut bank);
        // Registers 1 | 64, 65, 99: marked even where nulled again.
        assert_eq!(dirty(&bank), [1 << 1, 1 << (99 - 64) | 0b11]);
        bank.reset(100);
        assert_eq!(bank.len(), 100);
        assert!((0..100).all(|r| bank.load(RegId(r)).is_null()));
        assert_eq!(Arc::strong_count(&rec), 1, "displaced record dropped");
        assert_eq!(dirty(&bank), [0, 0]);

        // A size change takes the full path and resizes the map.
        bank.write(RegId(7), Word::Int(7));
        bank.reset(130);
        assert_eq!(bank.len(), 130);
        assert!((0..130).all(|r| bank.load(RegId(r)).is_null()));
        assert_eq!(dirty(&bank), [0, 0, 0]);
        bank.write(RegId(129), Word::Int(9));
        bank.reset(130);
        assert!(bank.load(RegId(129)).is_null());
        bank.reset(5);
        assert_eq!(bank.len(), 5);
        assert_eq!(dirty(&bank), [0]);
    }

    #[test]
    fn dirty_reset_restores_a_null_arc_bank() {
        dirty_reset_restores_a_null_bank::<ArcBank>(|b| &b.words.dirty);
    }

    #[test]
    fn dirty_reset_restores_a_null_slab_bank() {
        dirty_reset_restores_a_null_bank::<SlabBank>(|b| &b.entries.dirty);

        // Slab bookkeeping after a dirty reset matches a full one: no
        // live slot or entry, and the freed slot comes back first under
        // a bumped generation.
        let mut slab = SlabBank::new();
        slab.reset(100);
        mixed_trial(&mut slab);
        assert_eq!(slab.live_entries(), 2);
        assert_eq!(slab.live_slots(), 1);
        slab.reset(100);
        assert_eq!(slab.live_slots(), 0);
        assert_eq!(slab.live_entries(), 0);
        slab.write(RegId(0), snap_word(5));
        assert_eq!(slab.entries.cells[0], SlabEntry::Snap { slot: 0, gen: 1 });
        assert_eq!(slab.allocated_slots(), 1);
    }

    /// A bank's materialized cells: (prefix length, buffer address,
    /// capacity).
    fn arc_cells(b: &ArcBank) -> (usize, *const Word, usize) {
        let c = &b.words.cells;
        (c.len(), c.as_ptr(), c.capacity())
    }

    fn slab_cells(b: &SlabBank) -> (usize, *const SlabEntry, usize) {
        let c = &b.entries.cells;
        (c.len(), c.as_ptr(), c.capacity())
    }

    /// Sizing reserves every register but materializes none; writes
    /// grow the prefix in place; registers past it read as null; a
    /// same-size reset keeps the prefix and nulls it, a size change
    /// drops it.
    fn registers_materialize_on_first_write<B: RegisterBank + Default, T>(
        cells: fn(&B) -> (usize, *const T, usize),
    ) {
        let mut bank = B::default();
        bank.reset(1000);
        let (prefix, ptr, cap) = cells(&bank);
        assert_eq!(prefix, 0, "a fresh reset materializes nothing");
        assert!(cap >= 1000, "capacity reserved for every register");
        assert_eq!(bank.len(), 1000);
        assert!(bank.read(RegId(999)).is_null());
        assert!(bank.load(RegId(500)).is_null());

        bank.write(RegId(3), Word::Int(3));
        assert_eq!(cells(&bank).0, 4);
        // Far past the prefix: the gap fills with nulls, in place.
        bank.write(RegId(900), Word::Pair(9, 0));
        assert_eq!(
            cells(&bank),
            (901, ptr, cap),
            "prefix grew without reallocating"
        );
        assert_eq!(bank.load(RegId(3)), Word::Int(3));
        assert!((4..900).all(|r| bank.load(RegId(r)).is_null()));
        assert_eq!(*bank.read(RegId(900)), Word::Pair(9, 0));
        assert!(bank.read(RegId(901)).is_null());
        assert!(bank.load(RegId(999)).is_null());

        bank.reset(1000);
        assert_eq!(
            cells(&bank),
            (901, ptr, cap),
            "same-size reset keeps the prefix"
        );
        assert!((0..1000).all(|r| bank.load(RegId(r)).is_null()));

        bank.reset(2000);
        let (prefix, _, cap) = cells(&bank);
        assert_eq!(prefix, 0, "a size change drops the prefix");
        assert!(cap >= 2000);
        assert_eq!(bank.len(), 2000);
        assert!(bank.load(RegId(1999)).is_null());
    }

    #[test]
    fn arc_bank_materializes_on_first_write() {
        registers_materialize_on_first_write(arc_cells);
    }

    #[test]
    fn slab_bank_materializes_on_first_write() {
        registers_materialize_on_first_write(slab_cells);
    }

    /// A bank of 8 registers with register 2 materialized: index 8 is
    /// past both the prefix and the logical size.
    fn sized<B: RegisterBank + Default>() -> B {
        let mut bank = B::default();
        bank.reset(8);
        bank.write(RegId(2), Word::Int(1));
        bank
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arc_read_past_the_size_panics() {
        sized::<ArcBank>().read(RegId(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arc_load_past_the_size_panics() {
        sized::<ArcBank>().load(RegId(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arc_write_past_the_size_panics() {
        sized::<ArcBank>().write(RegId(8), Word::Int(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slab_read_past_the_size_panics() {
        sized::<SlabBank>().read(RegId(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slab_load_past_the_size_panics() {
        sized::<SlabBank>().load(RegId(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slab_write_past_the_size_panics() {
        sized::<SlabBank>().write(RegId(8), snap_word(1));
    }

    #[test]
    fn load_matches_read_for_snap_entries() {
        let mut slab = SlabBank::new();
        slab.reset(1);
        let w = snap_word(8);
        slab.write(RegId(0), w.clone());
        assert_eq!(slab.load(RegId(0)), w);
        assert_eq!(*slab.read(RegId(0)), w);
    }
}
