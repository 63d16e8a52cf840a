//! The one lock-free ring the flight recorder and the span ring both
//! record into: a fixed number of slots, each holding `W` `u64` payload
//! words behind a per-slot seqlock.
//!
//! One `fetch_add` draws a sequence number (from 1) and with it the
//! slot `(seq - 1) % capacity`. The writer claims the slot with one
//! compare-and-swap of its `seq`, from empty (0) or from an older
//! published entry to [`WRITING`], stores the payload, then publishes
//! `seq`. Two writers a lap or more apart draw the same slot; the CAS
//! lets only one of them hold it, so their payload stores never
//! interleave. A writer that finds the slot mid-write, or already
//! holding a newer entry, drops its own entry; it is lost, as an
//! evicted one is, and [`Ring::lost`] counts both from the sequence
//! number alone, with no write of its own. A reader that sees the same published `seq` on both
//! sides of its payload loads saw a consistent entry; anything else is
//! a slot caught mid-write and is skipped. The ring holds the most
//! recent `capacity` entries, less any dropped; older ones fall off
//! the front while sequence numbers keep counting.
//!
//! The payload words are `Relaxed` atomics, so the two fences carry
//! the ordering (Boehm, "Can Seqlocks Get Along with Programming
//! Language Memory Models?", MSPC '12): the writer's `Release` fence
//! keeps its payload stores after the claim, and the reader's
//! `Acquire` fence keeps its payload loads before the re-check of
//! `seq`. Without them a weakly ordered CPU can let a torn slot pass
//! as consistent; on x86 both are compiler barriers only. The claim
//! itself is an `Acquire` CAS that reads the previous writer's
//! `Release` publish, so the new payload stores come after the old
//! ones.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// A slot's `seq` while a writer holds it; sequence numbers never
/// reach the top bit.
const WRITING: u64 = 1 << 63;

/// One seqlock-published slot. `seq` is 0 while empty, [`WRITING`]
/// while claimed, and the entry's sequence number once published.
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
        if before == 0 || before == WRITING {
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

    /// Appends one entry, evicting the oldest at capacity, or drops
    /// it if another writer holds its slot. Lock-free: one `fetch_add`
    /// draws the slot, one CAS claims it, the seqlock publishes it.
    pub(crate) fn push(&self, words: [u64; W]) {
        if self.slots.is_empty() {
            return;
        }
        let Some(claim) = self.claim(self.draw()) else {
            return;
        };
        for (i, value) in words.into_iter().enumerate() {
            claim.store(i, value);
        }
        claim.publish();
    }

    /// The next sequence number.
    fn draw(&self) -> u64 {
        self.next_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Holds `seq`'s slot for its writer, or `None` if another writer
    /// holds it or has already published a newer entry there.
    fn claim(&self, seq: u64) -> Option<Claim<'_, W>> {
        let capacity = self.slots.len();
        // A mask where it can be (the default capacities), a division
        // otherwise.
        let at = if capacity.is_power_of_two() {
            (seq - 1) as usize & (capacity - 1)
        } else {
            (seq - 1) as usize % capacity
        };
        let slot = &self.slots[at];
        // Expect the entry one lap back, so the usual claim is one CAS
        // with no load before it.
        let mut held = seq.saturating_sub(capacity as u64);
        loop {
            match slot.seq.compare_exchange_weak(
                held,
                WRITING,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) if now == WRITING || now > seq => return None,
                Err(now) => held = now,
            }
        }
        fence(Ordering::Release);
        Some(Claim { slot, seq })
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

    /// Total entries ever recorded (including evicted and dropped ones).
    pub(crate) fn recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Entries lost, evicted or dropped: recorded − retained, exact at
    /// quiescence, where every slot drawn holds a published entry (a
    /// writer that drops its own met one that publishes).
    pub(crate) fn lost(&self) -> u64 {
        let recorded = self.recorded();
        recorded - recorded.min(self.capacity() as u64)
    }
}

/// A slot held by one writer, from its claim to its publish.
struct Claim<'a, const W: usize> {
    slot: &'a Slot<W>,
    seq: u64,
}

impl<const W: usize> Claim<'_, W> {
    fn store(&self, i: usize, value: u64) {
        self.slot.words[i].store(value, Ordering::Relaxed);
    }

    fn publish(self) {
        self.slot.seq.store(self.seq, Ordering::Release);
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

    #[test]
    fn writers_a_lap_apart_never_interleave_in_one_slot() {
        // On a one-slot ring every writer draws the same slot. The
        // first is preempted between its first and second word; the
        // second runs start to finish in the gap, then the first
        // resumes. Sharing the slot would publish `(1, [2, 1])`.
        let ring: Ring<2> = Ring::new(1);
        let (first, second) = (ring.draw(), ring.draw());
        let first = ring.claim(first).expect("an empty slot");
        first.store(0, 1);
        if let Some(second) = ring.claim(second) {
            second.store(0, 2);
            second.store(1, 2);
            second.publish();
        }
        first.store(1, 1);
        first.publish();
        assert_eq!(ring.dump_since(0), [(1, [1, 1])], "the late writer dropped");

        // A writer that draws before a newer one but claims after it
        // publishes finds the newer entry and drops its own.
        let (older, newer) = (ring.draw(), ring.draw());
        let claim = ring.claim(newer).expect("slot published");
        claim.store(0, 4);
        claim.store(1, 4);
        claim.publish();
        assert!(ring.claim(older).is_none(), "a newer entry stands");
        assert_eq!(ring.dump_since(0), [(4, [4, 4])]);
        // Every entry is lost once: evicted or dropped.
        ring.push([5, 5]);
        assert_eq!(ring.dump_since(0), [(5, [5, 5])]);
        assert_eq!(ring.recorded(), 5);
        assert_eq!(
            ring.lost(),
            ring.recorded() - ring.dump_since(0).len() as u64
        );
        assert_eq!(ring.lost(), 4);
    }
}
