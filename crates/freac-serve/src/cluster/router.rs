//! Kernel-affinity request routing across shards.
//!
//! The mapping/plan cache is the placement signal: a shard that served a
//! kernel recently still holds its bitstream, so routing the kernel's
//! traffic back there skips `reconfig_cost`. The router realizes this with
//! rendezvous hashing — each kernel gets a stable shard ranking derived
//! only from `(kernel name, shard index)`, so placement is independent of
//! registration order, request order, and shard enumeration order.

use freac_rand::{seed_from_name, Rng64};

/// How the cluster picks a home shard for each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Requests cycle through shards regardless of kernel — the placement
    /// baseline affinity routing is gated against.
    RoundRobin,
    /// Rendezvous-hashed kernel affinity: a request goes to the first
    /// shard in its kernel's ranking whose backlog is below `spill_depth`,
    /// falling back to the least-backlogged ranked shard when all are
    /// saturated. One kernel's traffic concentrates where its bitstream is
    /// already resident, so only spill traffic pays reconfiguration.
    KernelAffinity {
        /// Backlog at which a kernel's traffic starts spilling to the
        /// next shard in its ranking.
        spill_depth: usize,
    },
}

/// The routing state machine. Deterministic: rankings are a pure function
/// of kernel names and the shard count, and the round-robin cursor advances
/// once per routed request.
pub(crate) struct Router {
    policy: RoutePolicy,
    shards: usize,
    rr_cursor: usize,
    /// Per kernel id (the order of [`Router::add_kernel`] calls): its
    /// rendezvous ranking over the `self.shards` indices.
    rankings: Vec<Vec<usize>>,
}

impl Router {
    pub(crate) fn new(policy: RoutePolicy, shards: usize) -> Self {
        assert!(shards >= 1, "a cluster routes to at least one shard");
        Router {
            policy,
            shards,
            rr_cursor: 0,
            rankings: Vec::new(),
        }
    }

    /// Registers a kernel under the next dense id and computes its
    /// rendezvous ranking: shard indices sorted by descending
    /// per-`(kernel name, shard)` hash score (ascending index on score
    /// ties).
    pub(crate) fn add_kernel(&mut self, name: &str) {
        let seed = seed_from_name(name);
        let score = |i: usize| {
            let lane = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Rng64::new(seed ^ lane).next_u64()
        };
        let mut ranking: Vec<usize> = (0..self.shards).collect();
        ranking.sort_by_key(|&i| (std::cmp::Reverse(score(i)), i));
        self.rankings.push(ranking);
    }

    /// The shard the next request for kernel id `kernel` should land on,
    /// given each shard's current backlog.
    pub(crate) fn route(&mut self, kernel: usize, backlogs: &[usize]) -> usize {
        debug_assert_eq!(backlogs.len(), self.shards);
        match self.policy {
            RoutePolicy::RoundRobin => {
                let s = self.rr_cursor;
                self.rr_cursor = (self.rr_cursor + 1) % self.shards;
                s
            }
            RoutePolicy::KernelAffinity { spill_depth } => {
                let ranking = &self.rankings[kernel];
                for &s in ranking {
                    if backlogs[s] < spill_depth {
                        return s;
                    }
                }
                // Everything saturated: least-backlogged shard, ranking
                // order breaking ties.
                let mut best = ranking[0];
                for &s in &ranking[1..] {
                    if backlogs[s] < backlogs[best] {
                        best = s;
                    }
                }
                best
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A router with `kernels` registered; ids are list positions.
    fn router(policy: RoutePolicy, shards: usize, kernels: &[&str]) -> Router {
        let mut r = Router::new(policy, shards);
        for k in kernels {
            r.add_kernel(k);
        }
        r
    }

    #[test]
    fn round_robin_cycles_all_shards() {
        let mut r = router(RoutePolicy::RoundRobin, 3, &["any"]);
        let picks: Vec<usize> = (0..7).map(|_| r.route(0, &[0, 0, 0])).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn affinity_is_stable_and_kernel_dependent() {
        let names = ["aes", "gemm", "fft", "kmp", "nw", "sort", "conv"];
        let mut r = router(RoutePolicy::KernelAffinity { spill_depth: 8 }, 4, &names);
        let home_aes = r.route(0, &[0, 0, 0, 0]);
        // Same kernel keeps routing home while under the spill depth.
        for _ in 0..10 {
            assert_eq!(r.route(0, &[2, 2, 2, 2]), home_aes);
        }
        // Distinct kernels spread: across the paper's kernel names at
        // least two distinct home shards appear.
        let homes: std::collections::BTreeSet<usize> = (0..names.len())
            .map(|k| r.route(k, &[0, 0, 0, 0]))
            .collect();
        assert!(
            homes.len() >= 2,
            "all kernels hashed to one shard: {homes:?}"
        );
    }

    #[test]
    fn placement_depends_on_names_not_registration_order() {
        let names = ["aes", "gemm", "fft", "kmp", "nw", "sort", "conv"];
        let mut fwd = router(RoutePolicy::KernelAffinity { spill_depth: 8 }, 4, &names);
        let mut rev_names = names;
        rev_names.reverse();
        let mut rev = router(
            RoutePolicy::KernelAffinity { spill_depth: 8 },
            4,
            &rev_names,
        );
        for (k, _) in names.iter().enumerate() {
            let backlogs = [0, 0, 0, 0];
            assert_eq!(
                fwd.route(k, &backlogs),
                rev.route(names.len() - 1 - k, &backlogs)
            );
        }
    }

    #[test]
    fn affinity_spills_down_the_ranking_when_home_is_deep() {
        let mut r = router(RoutePolicy::KernelAffinity { spill_depth: 4 }, 3, &["gemm"]);
        let home = r.route(0, &[0, 0, 0]);
        let mut backlogs = vec![0usize; 3];
        backlogs[home] = 4; // at the spill depth: no longer eligible
        let spill = r.route(0, &backlogs);
        assert_ne!(spill, home, "saturated home must spill");
        // Fully saturated: the least-backlogged shard wins.
        let mut all_deep = vec![9usize; 3];
        all_deep[spill] = 7;
        assert_eq!(r.route(0, &all_deep), spill);
    }

    #[test]
    fn single_shard_always_routes_to_zero() {
        let kernels = ["aes", "gemm"];
        let mut rr = router(RoutePolicy::RoundRobin, 1, &kernels);
        let mut aff = router(RoutePolicy::KernelAffinity { spill_depth: 1 }, 1, &kernels);
        for k in 0..kernels.len() {
            assert_eq!(rr.route(k, &[100]), 0);
            assert_eq!(aff.route(k, &[100]), 0);
        }
    }
}
