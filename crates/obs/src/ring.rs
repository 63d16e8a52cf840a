//! The one lock-free ring the flight recorder and the span ring both
//! record into: a fixed number of slots, each holding `W` `u64` payload
//! words behind a per-slot seqlock.
//!
//! One `fetch_add` claims a sequence number (from 1) and with it the
//! slot `(seq - 1) % capacity`; the writer invalidates the slot
//! (`seq = 0`), stores the payload, then publishes `seq`. A reader
//! that sees the same nonzero `seq` on both sides of its payload
//! loads saw a consistent entry; anything else is a slot caught
//! mid-overwrite and is skipped. The ring holds the most recent
//! `capacity` entries; older ones fall off the front while sequence
//! numbers keep counting.
//!
//! The payload words are `Relaxed` atomics, so the two fences carry
//! the ordering (Boehm, "Can Seqlocks Get Along with Programming
//! Language Memory Models?", MSPC '12): the writer's `Release` fence
//! keeps its payload stores after the invalidation, and the reader's
//! `Acquire` fence keeps its payload loads before the re-check of
//! `seq`. Without them a weakly ordered CPU can let a torn slot pass
//! as consistent; on x86 both are compiler barriers only.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One seqlock-published slot. `seq == 0` means empty or mid-write.
#[derive(Debug)]
struct Slot<const W: usize> {
    seq: AtomicU64,
    words: [AtomicU64; W],
}

impl<const W: usize> Slot<W> {
    fn empty() -> Self {
        Self {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// A consistent `(seq, payload)`, or `None` if the slot is empty
    /// or a writer raced the read.
    fn read(&self) -> Option<(u64, [u64; W])> {
        let before = self.seq.load(Ordering::Acquire);
        if before == 0 {
            return None;
        }
        let words = std::array::from_fn(|i| self.words[i].load(Ordering::Relaxed));
        fence(Ordering::Acquire);
        (self.seq.load(Ordering::Relaxed) == before).then_some((before, words))
    }
}

/// A fixed-capacity ring of `W`-word entries. Capacity 0 records
/// nothing: [`Ring::push`] is an early return.
#[derive(Debug)]
pub(crate) struct Ring<const W: usize> {
    next_seq: AtomicU64,
    slots: Box<[Slot<W>]>,
}

impl<const W: usize> Ring<W> {
    /// A ring retaining the most recent `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            next_seq: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
        }
    }

    /// The retention capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Appends one entry, evicting the oldest at capacity; returns
    /// whether this claim evicted one. Lock-free: one `fetch_add`
    /// claims the slot, the seqlock publishes it.
    pub(crate) fn push(&self, words: [u64; W]) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = &self.slots[(seq - 1) as usize % self.slots.len()];
        slot.seq.store(0, Ordering::Relaxed); // Invalidate for readers.
        fence(Ordering::Release);
        for (word, value) in slot.words.iter().zip(words) {
            word.store(value, Ordering::Relaxed);
        }
        slot.seq.store(seq, Ordering::Release);
        seq > self.slots.len() as u64
    }

    /// The retained entries with `seq >= since`, in sequence order.
    /// Concurrent with writers, entries caught mid-overwrite are
    /// skipped; at quiescence the dump is exact.
    pub(crate) fn dump_since(&self, since: u64) -> Vec<(u64, [u64; W])> {
        let mut entries: Vec<(u64, [u64; W])> = self
            .slots
            .iter()
            .filter_map(Slot::read)
            .filter(|&(seq, _)| seq >= since)
            .collect();
        entries.sort_by_key(|&(seq, _)| seq);
        entries
    }

    /// Total entries ever recorded (including evicted ones).
    pub(crate) fn recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn a_reader_racing_one_writer_never_sees_a_torn_entry() {
        // Every word of entry `seq` is `seq`: a dump that mixes two
        // writes into one entry shows up as unequal words. A single
        // writer laps a 4-slot ring, so the reader keeps meeting
        // slots mid-overwrite.
        let ring: Ring<8> = Ring::new(4);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for seq in 1..=200_000u64 {
                    ring.push([seq; 8]);
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                for (seq, words) in ring.dump_since(0) {
                    assert_eq!(words, [seq; 8], "a torn entry passed as consistent");
                }
            }
        });
        assert_eq!(ring.recorded(), 200_000);
        let last: Vec<u64> = ring.dump_since(0).iter().map(|&(seq, _)| seq).collect();
        assert_eq!(last, [199_997, 199_998, 199_999, 200_000]);
    }
}
