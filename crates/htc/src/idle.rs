//! The pool's idle order index: every idle job keyed by
//! `(submitted_at, JobId)`, with a rank query.
//!
//! The autoscale signal reads wait percentiles every control tick, and a
//! wait is `now − submitted_at`, so the k-th shortest wait is set by the
//! k-th latest submission time. Keeping idle jobs in submission-time
//! order makes each percentile a rank lookup instead of a walk over the
//! queue.
//!
//! The key is the time, not the id: `CondorPool::submit` takes `now` from
//! its caller and does not require it to be monotone, so id order and
//! time order can disagree. Ties in time break on the id, which makes
//! every key unique.
//!
//! Layout: a list of sorted blocks. Concatenated, the blocks are the
//! sorted sequence of keys. A block splits in half when it reaches
//! [`BLOCK`] entries, and two neighbours merge when together they hold at
//! most half a block, so any two adjacent blocks hold more than
//! `BLOCK / 2` keys and there are at most `4 · len / BLOCK + 1` blocks.
//! Insert and remove cost a binary search over block bounds, one inside
//! the block and a shift of at most [`BLOCK`] entries; a rank query walks
//! the block lengths. The one block left when the queue empties stays
//! allocated: a queue that goes 0 → 1 → 0 on every cycle never touches
//! the allocator.

use cumulus_simkit::time::SimTime;

use crate::job::JobId;

/// Most entries a block holds; reaching it splits the block in half.
const BLOCK: usize = 256;

/// One idle job's position: submission time, then id.
type Key = (SimTime, JobId);

/// Idle jobs in ascending `(submitted_at, JobId)` order.
#[derive(Debug, Default)]
pub(crate) struct IdleOrder {
    /// Sorted, non-overlapping blocks in ascending order. Only a sole
    /// block may be empty.
    blocks: Vec<Vec<Key>>,
    /// Keys across all blocks.
    len: usize,
}

impl IdleOrder {
    /// Keys held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The block that holds `key`, or that an insert of `key` belongs in:
    /// the first whose last key is not below `key`, else the last block.
    fn block_of(&self, key: &Key) -> usize {
        let b = self
            .blocks
            .partition_point(|block| block.last().is_some_and(|last| last < key));
        b.min(self.blocks.len().saturating_sub(1))
    }

    /// Add `key`, which must not be present.
    pub(crate) fn insert(&mut self, key: Key) {
        if self.blocks.is_empty() {
            self.blocks.push(Vec::with_capacity(BLOCK));
        }
        let b = self.block_of(&key);
        let block = &mut self.blocks[b];
        let pos = block
            .binary_search(&key)
            .expect_err("an idle job is indexed once");
        block.insert(pos, key);
        if block.len() == BLOCK {
            let mut tail = Vec::with_capacity(BLOCK);
            tail.extend(block.drain(BLOCK / 2..));
            self.blocks.insert(b + 1, tail);
        }
        self.len += 1;
    }

    /// Drop `key`, which must be present.
    pub(crate) fn remove(&mut self, key: Key) {
        let mut b = self.block_of(&key);
        let block = &mut self.blocks[b];
        let pos = block
            .binary_search(&key)
            .expect("an idle job is indexed until it leaves the idle set");
        block.remove(pos);
        self.len -= 1;
        if b > 0 && self.blocks[b - 1].len() + self.blocks[b].len() <= BLOCK / 2 {
            let merged = self.blocks.remove(b);
            b -= 1;
            self.blocks[b].extend(merged);
        }
        if b + 1 < self.blocks.len() && self.blocks[b].len() + self.blocks[b + 1].len() <= BLOCK / 2
        {
            let merged = self.blocks.remove(b + 1);
            self.blocks[b].extend(merged);
        }
        if self.blocks[b].is_empty() && self.blocks.len() > 1 {
            self.blocks.remove(b);
        }
    }

    /// The submission time at ascending rank `k` (0 = earliest), or
    /// `None` when `k` is not below [`len`](IdleOrder::len).
    pub(crate) fn submitted_at_rank(&self, mut k: usize) -> Option<SimTime> {
        for block in &self.blocks {
            match block.get(k) {
                Some(&(at, _)) => return Some(at),
                None => k -= block.len(),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulus_simkit::rng::RngStream;
    use cumulus_simkit::time::SimDuration;

    fn key(secs: u64, id: u64) -> Key {
        (SimTime::ZERO + SimDuration::from_secs(secs), JobId(id))
    }

    /// The index against a sorted `Vec` reference: same length, same time
    /// at every rank, nothing past the end, and the block invariants.
    fn check(order: &IdleOrder, reference: &[Key]) {
        assert_eq!(order.len(), reference.len());
        for (k, &(at, _)) in reference.iter().enumerate() {
            assert_eq!(order.submitted_at_rank(k), Some(at), "rank {k}");
        }
        assert_eq!(order.submitted_at_rank(reference.len()), None);
        let flat: Vec<Key> = order.blocks.iter().flatten().copied().collect();
        assert_eq!(flat, reference, "blocks concatenate to the sorted keys");
        assert!(order.blocks.iter().all(|b| b.len() < BLOCK));
        if order.blocks.len() > 1 {
            for pair in order.blocks.windows(2) {
                assert!(pair[0].len() + pair[1].len() > BLOCK / 2, "unmerged pair");
            }
        }
    }

    #[test]
    fn random_inserts_and_removes_match_a_sorted_reference() {
        for case in 0..8 {
            let mut rng = RngStream::derive(case, "idle-order/reference");
            let mut order = IdleOrder::default();
            let mut reference: Vec<Key> = Vec::new();
            let mut next_id = 0;
            for step in 0..6_000 {
                // Grow for the first half, shrink for the second, so the
                // index splits into many blocks and merges back to one.
                let grow = if step < 3_000 { 0.7 } else { 0.3 };
                if reference.is_empty() || rng.chance(grow) {
                    next_id += 1;
                    // Few distinct times, so equal times are common, and
                    // they are not monotone in the id.
                    let k = key(rng.uniform_int(0, 200), next_id);
                    order.insert(k);
                    let pos = reference.binary_search(&k).unwrap_err();
                    reference.insert(pos, k);
                } else {
                    let at = rng.uniform_int(0, reference.len() as u64 - 1) as usize;
                    order.remove(reference.remove(at));
                }
                if step % 97 == 0 {
                    check(&order, &reference);
                }
            }
            check(&order, &reference);
        }
    }

    #[test]
    fn fifo_churn_keeps_one_allocated_block() {
        let mut order = IdleOrder::default();
        for id in 0..1_000 {
            order.insert(key(id, id));
            assert_eq!(order.submitted_at_rank(0), Some(key(id, id).0));
            order.remove(key(id, id));
            assert_eq!(order.len(), 0);
            assert_eq!(order.blocks.len(), 1, "the emptied block is kept");
            assert!(order.blocks[0].capacity() >= BLOCK);
        }
        assert_eq!(order.submitted_at_rank(0), None);
    }
}
