//! Tenant and request identities for the multi-tenant service front-end.
//!
//! The assembly-as-a-service layer (`locassm-service`) accepts
//! contig-extension requests from many concurrent clients. Everything it
//! does — admission, fair-share scheduling, fault injection, replay —
//! keys off two small identity types that belong with the algorithmic
//! core, not the service: a [`TenantId`] naming the client, and a
//! [`RequestId`] naming one request *deterministically* (tenant plus a
//! per-tenant sequence number, packable into a single `u64`).
//!
//! Determinism is the whole design: a request's id is a pure function of
//! who submitted it and how many requests that tenant submitted before
//! it. No clocks, no randomness — so a recorded workload replays with
//! identical ids, and a fault plan seeded against a request uid keeps
//! naming the same request across re-enqueues and re-runs.

use std::fmt;

/// A service tenant (client) identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// A deterministic request identity: the submitting tenant plus that
/// tenant's 0-based submission sequence number.
///
/// The pair packs losslessly into a `u64` ([`RequestId::uid`]): tenant in
/// the high 32 bits, sequence in the low 32. The packed form is what the
/// fault-injection layer targets (`simt::FaultPlan` victim ids are
/// `u64`s), so "inject a fault into tenant 3's fifth request" is
/// expressible without knowing which batch slot that request will occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// 0-based submission sequence number within the tenant.
    pub seq: u32,
}

impl RequestId {
    /// Construct from tenant and per-tenant sequence number.
    pub fn new(tenant: TenantId, seq: u32) -> Self {
        RequestId { tenant, seq }
    }

    /// The packed `u64` form: tenant in the high 32 bits, sequence in the
    /// low 32. Strictly monotone in `(tenant, seq)` order, so sorting by
    /// uid is sorting by submission identity.
    pub fn uid(&self) -> u64 {
        ((self.tenant.0 as u64) << 32) | self.seq as u64
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/req-{}", self.tenant, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uid_round_trips_and_orders() {
        for (t, s) in [(0u32, 0u32), (1, 0), (0, 1), (7, 42), (u32::MAX, u32::MAX)] {
            let uid = RequestId::new(TenantId(t), s).uid();
            assert_eq!(((uid >> 32) as u32, uid as u32), (t, s));
        }
        // uid order == (tenant, seq) lexicographic order.
        let a = RequestId::new(TenantId(1), u32::MAX);
        let b = RequestId::new(TenantId(2), 0);
        assert!(a.uid() < b.uid());
        assert!(a < b);
    }

    #[test]
    fn display_is_stable() {
        let id = RequestId::new(TenantId(3), 5);
        assert_eq!(id.to_string(), "tenant-3/req-5");
        assert_eq!(TenantId(3).to_string(), "tenant-3");
    }
}
