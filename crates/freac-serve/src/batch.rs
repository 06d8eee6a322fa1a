//! The batch coalescer: packing compatible queued requests into lanes.

use crate::queue::{AdmissionQueue, Queued};

/// Removes the scheduler-chosen `anchor` request from `queue` plus up to
/// `cap - 1` compatible companions, oldest-first, preserving the order of
/// everything left behind.
///
/// Compatibility is per-request, not per-kernel: the queue already holds a
/// single kernel, but an `exclusive` request demands a dispatch of its
/// own (one lane, timed as single-lane folded execution). So:
///
/// * an exclusive anchor returns a batch of exactly one;
/// * a batchable anchor coalesces with other batchable requests (exclusive
///   companions are skipped over, keeping their queue position).
///
/// The returned order — anchor first, then companions oldest-first — is
/// the lane order of the dispatch, which makes lane assignment a pure
/// function of queue state.
///
/// Companions drain in a single stable pass
/// ([`AdmissionQueue::drain_batchable_into`]): the whole take is
/// O(queue length), not O(queue × cap) — it used to call
/// [`AdmissionQueue::remove_at`] once per companion, which went quadratic
/// exactly when queues were deep and lanes wide.
///
/// # Panics
///
/// Panics if `anchor` is out of range or `cap` is zero.
pub fn take_batch<T: Queued>(queue: &mut AdmissionQueue<T>, anchor: usize, cap: usize) -> Vec<T> {
    assert!(cap >= 1, "batch capacity must be at least 1");
    let anchor_req = queue.remove_at(anchor);
    let mut batch = vec![anchor_req];
    if batch[0].request().exclusive {
        return batch;
    }
    queue.drain_batchable_into(cap - 1, &mut batch);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ShedPolicy;
    use crate::request::Request;

    fn queue_with(reqs: Vec<Request>) -> AdmissionQueue {
        let mut q = AdmissionQueue::new(64);
        for r in reqs {
            q.admit(r, ShedPolicy::RejectNew);
        }
        q
    }

    fn req(seq: u64, exclusive: bool) -> Request {
        let mut r = Request::new("t", seq, "k", seq, 0);
        r.exclusive = exclusive;
        r
    }

    #[test]
    fn coalesces_up_to_capacity_in_queue_order() {
        let mut q = queue_with((0..6).map(|s| req(s, false)).collect());
        let batch = take_batch(&mut q, 0, 4);
        let seqs: Vec<u64> = batch.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.get(0).unwrap().seq, 4);
    }

    #[test]
    fn mid_queue_anchor_leads_the_batch() {
        let mut q = queue_with((0..4).map(|s| req(s, false)).collect());
        let batch = take_batch(&mut q, 2, 3);
        let seqs: Vec<u64> = batch.iter().map(|r| r.seq).collect();
        // Anchor 2 first, then the remaining oldest-first.
        assert_eq!(seqs, vec![2, 0, 1]);
        assert_eq!(q.get(0).unwrap().seq, 3);
    }

    #[test]
    fn exclusive_anchor_rides_alone() {
        let mut q = queue_with(vec![req(0, true), req(1, false)]);
        let batch = take_batch(&mut q, 0, 64);
        assert_eq!(batch.len(), 1);
        assert!(batch[0].exclusive);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn exclusive_companions_are_skipped_in_place() {
        let mut q = queue_with(vec![
            req(0, false),
            req(1, true),
            req(2, false),
            req(3, true),
        ]);
        let batch = take_batch(&mut q, 0, 64);
        let seqs: Vec<u64> = batch.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 2]);
        let left: Vec<u64> = q.iter().map(|r| r.seq).collect();
        assert_eq!(left, vec![1, 3]);
    }

    /// The pre-drain semantics, spelled out naively: anchor first, then
    /// batchable companions oldest-first, leftovers in original order.
    fn naive_take(mut items: Vec<Request>, anchor: usize, cap: usize) -> (Vec<u64>, Vec<u64>) {
        let anchor_req = items.remove(anchor);
        let exclusive = anchor_req.exclusive;
        let mut batch = vec![anchor_req.seq];
        let mut left = Vec::new();
        for r in items {
            if !exclusive && batch.len() < cap && !r.exclusive {
                batch.push(r.seq);
            } else {
                left.push(r.seq);
            }
        }
        (batch, left)
    }

    #[test]
    fn deep_queue_drain_preserves_batch_and_leftover_order() {
        // A deep queue (well past any dispatch cap) with interleaved
        // exclusives, anchors at several depths: the single-pass drain
        // must reproduce the naive per-element semantics exactly.
        let depth = 3_000u64;
        let make = |anchor_excl: bool| -> Vec<Request> {
            (0..depth)
                .map(|s| req(s, s % 7 == 3 || (s == 100 && anchor_excl)))
                .collect()
        };
        for &(anchor, cap) in &[(0usize, 512usize), (100, 512), (2_500, 64), (0, 1)] {
            let items = make(false);
            let mut q = AdmissionQueue::new(depth as usize);
            for r in items.clone() {
                q.admit(r, ShedPolicy::RejectNew);
            }
            let batch: Vec<u64> = take_batch(&mut q, anchor, cap)
                .iter()
                .map(|r| r.seq)
                .collect();
            let left: Vec<u64> = q.iter().map(|r| r.seq).collect();
            let (nb, nl) = naive_take(items, anchor, cap);
            assert_eq!(
                batch, nb,
                "batch order diverged (anchor {anchor}, cap {cap})"
            );
            assert_eq!(
                left, nl,
                "leftover order diverged (anchor {anchor}, cap {cap})"
            );
        }
        // Exclusive anchor deep in a deep queue still rides alone.
        let items = make(true);
        let mut q = AdmissionQueue::new(depth as usize);
        for r in items.clone() {
            q.admit(r, ShedPolicy::RejectNew);
        }
        let batch = take_batch(&mut q, 100, 512);
        assert_eq!(batch.len(), 1);
        assert_eq!(q.len(), depth as usize - 1);
        let (nb, nl) = naive_take(items, 100, 512);
        assert_eq!(batch[0].seq, nb[0]);
        assert_eq!(q.iter().map(|r| r.seq).collect::<Vec<_>>(), nl);
    }

    #[test]
    fn capacity_one_is_single_lane() {
        let mut q = queue_with((0..3).map(|s| req(s, false)).collect());
        let batch = take_batch(&mut q, 0, 1);
        assert_eq!(batch.len(), 1);
        assert_eq!(q.len(), 2);
    }
}
