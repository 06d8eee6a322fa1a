//! The arrival queue shared by the server and the cluster router.
//!
//! Arrivals leave in canonical [`Request::order_key`] order. Open-loop
//! traces are generated already sorted by that key, so almost every push
//! lands at the back of a sorted run (a `VecDeque`, O(1) per request); only
//! out-of-order pushes — closed-loop follow-ups, retries, stolen requests
//! — go to a min-heap. A pop takes the smaller of the two heads. Keys are
//! unique (servers and clusters refuse duplicate `(tenant, seq, retries)`
//! identities), so the pop order is exactly that of one min-heap holding
//! every arrival.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use crate::error::ServeError;
use crate::queue::Queued;
use crate::request::Request;

/// The dense id the next tenant or kernel registration gets: the count
/// registered before it.
///
/// # Errors
///
/// Rejects a registration that would need an id past `u32::MAX`.
pub(crate) fn next_id(registered: usize) -> Result<u32, ServeError> {
    u32::try_from(registered).map_err(|_| {
        ServeError::BadConfig(format!(
            "at most {} tenants or kernels can register",
            u64::from(u32::MAX) + 1
        ))
    })
}

/// A submitted request with its interned tenant and kernel ids. Ordered by
/// the request's canonical key, never by the ids (ids follow registration
/// order, the key follows names).
#[derive(Debug)]
pub(crate) struct Pending {
    /// Dense tenant id (registration order).
    pub(crate) tenant: u32,
    /// Dense kernel id (registration order).
    pub(crate) kernel: u32,
    /// The request itself.
    pub(crate) req: Request,
}

impl Queued for Pending {
    fn request(&self) -> &Request {
        &self.req
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        self.req.order_key().cmp(&other.req.order_key())
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

/// Not-yet-admitted arrivals, popped smallest [`Request::order_key`]
/// first.
#[derive(Debug, Default)]
pub(crate) struct PendingQueue {
    /// In-order pushes, ascending.
    run: VecDeque<Pending>,
    /// Pushes that arrived below the run's tail.
    heap: BinaryHeap<Reverse<Pending>>,
}

impl PendingQueue {
    /// Adds an arrival.
    pub(crate) fn push(&mut self, p: Pending) {
        if self.run.back().is_none_or(|last| *last <= p) {
            self.run.push_back(p);
        } else {
            self.heap.push(Reverse(p));
        }
    }

    /// The next arrival, without removing it.
    pub(crate) fn peek(&self) -> Option<&Pending> {
        match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(Reverse(h))) => Some(if h < r { h } else { r }),
            (r, h) => r.or(h.map(|Reverse(h)| h)),
        }
    }

    /// Removes and returns the next arrival.
    pub(crate) fn pop(&mut self) -> Option<Pending> {
        let from_heap = match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(Reverse(h))) => h < r,
            (None, _) => true,
            (Some(_), None) => false,
        };
        if from_heap {
            self.heap.pop().map(|Reverse(p)| p)
        } else {
            self.run.pop_front()
        }
    }

    /// Arrivals waiting.
    pub(crate) fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freac_rand::Rng64;
    use std::collections::BTreeSet;

    /// Tenant names with ids in reverse name order, so an ordering that
    /// leaked ids instead of names would fail.
    const TENANTS: [&str; 3] = ["carol", "bob", "alice"];

    fn pending(tenant: u32, seq: u64, retries: u32, arrival: u64) -> Pending {
        let mut req = Request::new(TENANTS[tenant as usize], seq, "k", arrival, seq);
        req.retries = retries;
        Pending {
            tenant,
            kernel: 0,
            req,
        }
    }

    fn identity(p: &Pending) -> (String, u64, u32) {
        (p.req.tenant.clone(), p.req.seq, p.req.retries)
    }

    #[test]
    fn pops_in_the_order_of_a_single_min_heap() {
        // The named oracle: a plain `BinaryHeap<Reverse<Pending>>` fed the
        // same pushes. Arrivals are drawn from a narrow window so equal
        // arrivals across tenants are common, and some pushes are retries
        // of an already-pushed `seq`.
        for case in 0..200u64 {
            let mut rng = Rng64::new(0x9e57_0000 ^ case);
            let mut fast = PendingQueue::default();
            let mut oracle: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();
            let mut used: BTreeSet<(u32, u64, u32)> = BTreeSet::new();
            let mut pushed: Vec<(u32, u64, u32)> = Vec::new();
            let mut clock = 0u64;
            let mut next_seq = [0u64; 3];
            for _ in 0..rng.range_u64(1, 300) {
                match rng.below(10) {
                    // In order: at or after everything pushed so far.
                    0..=4 => {
                        clock += rng.below(3);
                        let t = rng.below(3) as u32;
                        let seq = next_seq[t as usize];
                        next_seq[t as usize] += 1;
                        used.insert((t, seq, 0));
                        pushed.push((t, seq, 0));
                        fast.push(pending(t, seq, 0, clock));
                        oracle.push(Reverse(pending(t, seq, 0, clock)));
                    }
                    // Out of order: a retry of an earlier identity, or a
                    // fresh request, arriving anywhere up to the clock.
                    5..=6 => {
                        let at = rng.below(clock + 1);
                        let (t, seq, retries) = if !pushed.is_empty() && rng.bool() {
                            let &(t, seq, _) = rng.pick(&pushed);
                            let mut retries = 1;
                            while used.contains(&(t, seq, retries)) {
                                retries += 1;
                            }
                            (t, seq, retries)
                        } else {
                            let t = rng.below(3) as u32;
                            let seq = next_seq[t as usize];
                            next_seq[t as usize] += 1;
                            (t, seq, 0)
                        };
                        used.insert((t, seq, retries));
                        pushed.push((t, seq, retries));
                        fast.push(pending(t, seq, retries, at));
                        oracle.push(Reverse(pending(t, seq, retries, at)));
                    }
                    _ => {
                        let got = fast.pop().map(|p| identity(&p));
                        let want = oracle.pop().map(|Reverse(p)| identity(&p));
                        assert_eq!(got, want, "case {case}: pop diverged");
                    }
                }
                assert_eq!(fast.len(), oracle.len(), "case {case}: length diverged");
                assert_eq!(
                    fast.peek().map(identity),
                    oracle.peek().map(|Reverse(p)| identity(p)),
                    "case {case}: peek diverged"
                );
            }
            while let Some(Reverse(want)) = oracle.pop() {
                let got = fast.pop().expect("same length as the oracle");
                assert_eq!(
                    identity(&got),
                    identity(&want),
                    "case {case}: drain diverged"
                );
            }
            assert!(fast.pop().is_none());
        }
    }

    #[test]
    fn ties_break_by_tenant_name_then_seq_then_retries() {
        let mut q = PendingQueue::default();
        // Pushed in id order (carol, bob, alice) at one instant: the run
        // holds only carol; bob and alice go to the heap.
        q.push(pending(0, 0, 0, 5));
        q.push(pending(1, 0, 0, 5));
        q.push(pending(2, 1, 0, 5));
        q.push(pending(2, 0, 1, 5));
        q.push(pending(2, 0, 0, 5));
        let order: Vec<(String, u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|p| identity(&p))
            .collect();
        let want = [
            ("alice", 0, 0),
            ("alice", 0, 1),
            ("alice", 1, 0),
            ("bob", 0, 0),
            ("carol", 0, 0),
        ];
        let want: Vec<(String, u64, u32)> =
            want.iter().map(|&(t, s, r)| (t.to_owned(), s, r)).collect();
        assert_eq!(order, want);
    }
}
