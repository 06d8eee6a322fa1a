//! Bounded per-kernel admission queues with explicit shed policies.

use std::collections::VecDeque;

use crate::request::Request;

/// What to do when a request arrives at a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Refuse the arriving request (classic tail drop). Favors requests
    /// already accepted — latency of queued work is unaffected.
    RejectNew,
    /// Admit the arrival and shed the oldest queued request instead.
    /// Favors fresh traffic — bounds staleness under sustained overload.
    DropOldest,
}

/// Result of offering a request to a queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitResult<T = Request> {
    /// Accepted; queue had room.
    Admitted,
    /// Accepted, displacing the returned oldest request
    /// ([`ShedPolicy::DropOldest`]).
    Displaced(T),
    /// Refused; the returned request bounced ([`ShedPolicy::RejectNew`]).
    Rejected(T),
}

/// A queue entry: a [`Request`], possibly carrying engine-side
/// annotations (the server queues requests together with their interned
/// tenant and kernel ids).
pub trait Queued {
    /// The request this entry carries.
    fn request(&self) -> &Request;
}

impl Queued for Request {
    fn request(&self) -> &Request {
        self
    }
}

/// A bounded FIFO of requests for one kernel.
///
/// Requests are admitted in canonical arrival order (the engine drains its
/// pending queue by [`Request::order_key`]), so the queue is always sorted
/// by that key and index 0 is the oldest queued request.
#[derive(Debug, Clone)]
pub struct AdmissionQueue<T = Request> {
    depth: usize,
    items: VecDeque<T>,
}

impl<T: Queued> AdmissionQueue<T> {
    /// A queue holding at most `depth` requests (`depth >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero — a zero-depth queue could never serve.
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 1, "admission queue depth must be at least 1");
        AdmissionQueue {
            depth,
            items: VecDeque::new(),
        }
    }

    /// Configured bound.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Queued requests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Queued requests oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// The request at `idx` (0 = oldest).
    pub fn get(&self, idx: usize) -> Option<&T> {
        self.items.get(idx)
    }

    /// Offers `req`; applies `policy` when full.
    pub fn admit(&mut self, req: T, policy: ShedPolicy) -> AdmitResult<T> {
        if self.items.len() < self.depth {
            self.items.push_back(req);
            return AdmitResult::Admitted;
        }
        match policy {
            ShedPolicy::RejectNew => AdmitResult::Rejected(req),
            ShedPolicy::DropOldest => {
                let victim = self.items.pop_front().expect("full queue is non-empty");
                self.items.push_back(req);
                AdmitResult::Displaced(victim)
            }
        }
    }

    /// Removes and returns the request at `idx`, preserving the order of
    /// the rest.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn remove_at(&mut self, idx: usize) -> T {
        self.items.remove(idx).expect("index in range")
    }

    /// Removes and returns the newest queued request — the work-stealing
    /// victim, chosen to disturb the head-of-line service order least.
    pub fn pop_newest(&mut self) -> Option<T> {
        self.items.pop_back()
    }

    /// Removes up to `cap` non-exclusive requests oldest-first in one
    /// stable pass, appending them to `batch`; every request left behind
    /// (exclusives, and the overflow past `cap`) keeps its relative
    /// order. O(queue length), independent of `cap` — the coalescer calls
    /// this once per dispatch instead of one `remove_at` per companion.
    pub fn drain_batchable_into(&mut self, cap: usize, batch: &mut Vec<T>) {
        if cap == 0 || self.items.is_empty() {
            return;
        }
        let mut kept = VecDeque::with_capacity(self.items.len());
        let mut taken = 0usize;
        for r in self.items.drain(..) {
            if taken < cap && !r.request().exclusive {
                batch.push(r);
                taken += 1;
            } else {
                kept.push_back(r);
            }
        }
        self.items = kept;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(seq: u64, arrival: u64) -> Request {
        Request::new("t", seq, "k", arrival, 0)
    }

    #[test]
    fn reject_new_bounces_the_arrival() {
        let mut q = AdmissionQueue::new(2);
        assert_eq!(
            q.admit(req(0, 0), ShedPolicy::RejectNew),
            AdmitResult::Admitted
        );
        assert_eq!(
            q.admit(req(1, 1), ShedPolicy::RejectNew),
            AdmitResult::Admitted
        );
        match q.admit(req(2, 2), ShedPolicy::RejectNew) {
            AdmitResult::Rejected(r) => assert_eq!(r.seq, 2),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.get(0).unwrap().seq, 0);
    }

    #[test]
    fn drop_oldest_displaces_the_head() {
        let mut q = AdmissionQueue::new(2);
        q.admit(req(0, 0), ShedPolicy::DropOldest);
        q.admit(req(1, 1), ShedPolicy::DropOldest);
        match q.admit(req(2, 2), ShedPolicy::DropOldest) {
            AdmitResult::Displaced(victim) => assert_eq!(victim.seq, 0),
            other => panic!("expected displacement, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.get(0).unwrap().seq, 1);
        assert_eq!(q.get(1).unwrap().seq, 2);
    }

    #[test]
    fn remove_at_preserves_order() {
        let mut q = AdmissionQueue::new(8);
        for s in 0..4 {
            q.admit(req(s, s), ShedPolicy::RejectNew);
        }
        let taken = q.remove_at(1);
        assert_eq!(taken.seq, 1);
        let rest: Vec<u64> = q.iter().map(|r| r.seq).collect();
        assert_eq!(rest, vec![0, 2, 3]);
    }

    #[test]
    fn pop_newest_takes_the_back() {
        let mut q = AdmissionQueue::new(8);
        for s in 0..3 {
            q.admit(req(s, s), ShedPolicy::RejectNew);
        }
        assert_eq!(q.pop_newest().unwrap().seq, 2);
        assert_eq!(q.pop_newest().unwrap().seq, 1);
        let rest: Vec<u64> = q.iter().map(|r| r.seq).collect();
        assert_eq!(rest, vec![0]);
        q.pop_newest();
        assert!(q.pop_newest().is_none());
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_depth_is_rejected() {
        AdmissionQueue::<Request>::new(0);
    }
}
