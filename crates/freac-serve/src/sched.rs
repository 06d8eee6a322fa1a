//! The slice scheduler: which queued request anchors the next dispatch.
//!
//! The scheduler sees every queued request across the per-kernel admission
//! queues and picks one *anchor*; the batch coalescer then packs
//! compatible companions around it. Queues and tenants are `Vec`s indexed
//! by dense ids, which follow registration order, so every comparison
//! here goes through names instead: requests compare by their borrowed
//! [`order_key`](crate::request::Request::order_key) (unique per server), tenants by `(virtual work,
//! name)`. The pick is therefore a pure function of queue and tenant
//! state — independent of tenant enumeration, registration, or submission
//! order.

use freac_sim::Time;

use crate::pending::Pending;
use crate::queue::AdmissionQueue;

/// Scheduling policy for anchor selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Globally oldest request first.
    Fifo,
    /// Weighted fair share: serve the tenant with the least virtual
    /// service accrued (service charged as `ps / weight`), oldest of that
    /// tenant's requests first. Kernel-swap reconfiguration is charged to
    /// the tenant whose anchor forced the swap; cold-start setup is not
    /// charged to anyone.
    WeightedFair,
    /// Earliest absolute deadline first; requests without deadlines rank
    /// after all deadlined ones, oldest first.
    DeadlineAware,
}

/// Virtual-work fixed-point scale: one picosecond of service at weight 1
/// accrues this many virtual-work units, so integer division by large
/// weights keeps sub-unit resolution.
pub(crate) const VWORK_SCALE: u128 = 1 << 20;

/// Per-tenant scheduling state.
#[derive(Debug, Clone)]
pub(crate) struct TenantState {
    /// Tenant name: the fair-share tie-break.
    pub name: String,
    /// Fair-share weight (>= 1); higher weight means more service.
    pub weight: u64,
    /// Virtual service accrued: `Σ charged_ps * VWORK_SCALE / weight`.
    pub vwork: u128,
}

impl TenantState {
    /// A tenant with nothing charged yet.
    pub fn new(name: &str, weight: u64) -> Self {
        TenantState {
            name: name.to_owned(),
            weight,
            vwork: 0,
        }
    }

    /// Charges `amount_ps` of service against the tenant's weight.
    pub fn charge(&mut self, amount_ps: Time) {
        self.vwork += u128::from(amount_ps) * VWORK_SCALE / u128::from(self.weight);
    }
}

/// Picks the anchor `(kernel id, queue index)` for the next dispatch, or
/// `None` when nothing is queued. `queues` and `tenants` are indexed by
/// the ids the queued entries carry.
pub(crate) fn pick(
    policy: SchedPolicy,
    queues: &[AdmissionQueue<Pending>],
    tenants: &[TenantState],
) -> Option<(usize, usize)> {
    let all = || {
        queues
            .iter()
            .enumerate()
            .flat_map(|(k, q)| q.iter().enumerate().map(move |(i, p)| (k, i, p)))
    };
    match policy {
        SchedPolicy::Fifo => all()
            .min_by(|(_, _, a), (_, _, b)| a.req.order_key().cmp(&b.req.order_key()))
            .map(|(k, i, _)| (k, i)),
        SchedPolicy::DeadlineAware => {
            fn key(p: &Pending) -> (Time, (Time, &str, u64, u32)) {
                (p.req.deadline_ps.unwrap_or(Time::MAX), p.req.order_key())
            }
            all()
                .min_by(|(_, _, a), (_, _, b)| key(a).cmp(&key(b)))
                .map(|(k, i, _)| (k, i))
        }
        SchedPolicy::WeightedFair => {
            // Oldest queued request of each tenant with anything pending.
            let mut best: Vec<Option<(usize, usize, &Pending)>> = vec![None; tenants.len()];
            for (k, i, p) in all() {
                let slot = &mut best[p.tenant as usize];
                if slot.is_none_or(|(_, _, old)| p.req.order_key() < old.req.order_key()) {
                    *slot = Some((k, i, p));
                }
            }
            // Least virtual service wins; ties break by tenant name, which
            // is deterministic because tenant names are unique.
            best.iter()
                .enumerate()
                .filter_map(|(t, b)| b.map(|(k, i, _)| (&tenants[t], k, i)))
                .min_by(|(a, _, _), (b, _, _)| (a.vwork, &a.name).cmp(&(b.vwork, &b.name)))
                .map(|(_, k, i)| (k, i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ShedPolicy;
    use crate::request::Request;

    /// Tenant and kernel ids are positions in these lists; the ids run
    /// against name order so a pick that leaked ids would show.
    const TENANTS: [&str; 3] = ["c", "b", "a"];
    const KERNELS: [&str; 2] = ["k2", "k1"];

    fn id(names: &[&str], name: &str) -> u32 {
        names.iter().position(|n| *n == name).expect("known name") as u32
    }

    fn setup(reqs: Vec<Request>) -> Vec<AdmissionQueue<Pending>> {
        let mut queues: Vec<AdmissionQueue<Pending>> =
            KERNELS.iter().map(|_| AdmissionQueue::new(64)).collect();
        for req in reqs {
            let kernel = id(&KERNELS, &req.kernel);
            let p = Pending {
                tenant: id(&TENANTS, &req.tenant),
                kernel,
                req,
            };
            queues[kernel as usize].admit(p, ShedPolicy::RejectNew);
        }
        queues
    }

    fn tenants(weights: &[u64; 3]) -> Vec<TenantState> {
        TENANTS
            .iter()
            .zip(weights)
            .map(|(n, &w)| TenantState::new(n, w))
            .collect()
    }

    fn req(tenant: &str, seq: u64, kernel: &str, arrival: Time) -> Request {
        Request::new(tenant, seq, kernel, arrival, 0)
    }

    fn k(name: &str) -> usize {
        id(&KERNELS, name) as usize
    }

    #[test]
    fn fifo_takes_the_globally_oldest() {
        let queues = setup(vec![
            req("b", 0, "k2", 20),
            req("a", 0, "k1", 10),
            req("a", 1, "k1", 30),
        ]);
        let t = tenants(&[1, 1, 1]);
        assert_eq!(pick(SchedPolicy::Fifo, &queues, &t), Some((k("k1"), 0)));
    }

    #[test]
    fn fifo_ties_break_by_tenant_name_not_id() {
        let queues = setup(vec![req("c", 0, "k2", 10), req("a", 0, "k1", 10)]);
        let t = tenants(&[1, 1, 1]);
        assert_eq!(pick(SchedPolicy::Fifo, &queues, &t), Some((k("k1"), 0)));
    }

    #[test]
    fn deadline_aware_prefers_the_tightest_deadline() {
        let mut late = req("a", 0, "k1", 0);
        late.deadline_ps = Some(5_000);
        let mut tight = req("b", 0, "k2", 10);
        tight.deadline_ps = Some(1_000);
        let none = req("c", 0, "k1", 1);
        let queues = setup(vec![late, tight, none]);
        let t = tenants(&[1, 1, 1]);
        // k2 holds the tight deadline even though k1 has older arrivals.
        assert_eq!(
            pick(SchedPolicy::DeadlineAware, &queues, &t),
            Some((k("k2"), 0))
        );
    }

    #[test]
    fn weighted_fair_serves_the_least_served_tenant() {
        let queues = setup(vec![req("a", 0, "k1", 0), req("b", 0, "k2", 1)]);
        let mut t = tenants(&[1, 1, 1]);
        t[id(&TENANTS, "a") as usize].charge(1_000);
        // Tenant b has accrued nothing, so its request anchors next.
        assert_eq!(
            pick(SchedPolicy::WeightedFair, &queues, &t),
            Some((k("k2"), 0))
        );
    }

    #[test]
    fn weighted_fair_ties_break_by_tenant_name_not_id() {
        // Equal virtual work: "a" (the highest id) wins on name, even
        // though its request is the younger one.
        let queues = setup(vec![req("c", 0, "k2", 0), req("a", 0, "k1", 5)]);
        let t = tenants(&[1, 1, 1]);
        assert_eq!(
            pick(SchedPolicy::WeightedFair, &queues, &t),
            Some((k("k1"), 0))
        );
    }

    #[test]
    fn charge_scales_inversely_with_weight() {
        let mut heavy = TenantState::new("heavy", 8);
        let mut light = TenantState::new("light", 1);
        heavy.charge(1_000);
        light.charge(1_000);
        assert_eq!(heavy.vwork * 8, light.vwork);
    }

    #[test]
    fn empty_queues_yield_no_pick() {
        let queues: Vec<AdmissionQueue<Pending>> = Vec::new();
        let t = tenants(&[1, 1, 1]);
        assert_eq!(pick(SchedPolicy::Fifo, &queues, &t), None);
    }
}
