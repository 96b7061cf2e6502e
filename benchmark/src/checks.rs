//! What makes an operation correct: one digest per simulation, and the
//! conservation laws every report must satisfy.

use crate::adapter::{self as a, Facts};

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The identity of a repetition: events, per-link forwarded and dropped,
/// per-flow delivered/duplicate/drop totals and the churn counters of
/// every operation, in order. Two runs of the same simulation agree on it
/// whatever queue, dispatch mode, tracer or shard count ran them. A probe
/// may add telemetry-only events (CSFQ's sampling timer is armed only
/// under one), so a probed run is compared with `events` left out.
pub fn sim_digest(ops: &[Facts], events: bool) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for f in ops {
        h.word(if events { f.events } else { 0 });
        h.word(f.links.len() as u64);
        f.links.iter().flatten().for_each(|&w| h.word(w));
        h.word(f.flows.len() as u64);
        f.flows.iter().flatten().for_each(|&w| h.word(w));
        f.churn.iter().flatten().for_each(|&w| h.word(w));
    }
    h.0
}

/// The conservation laws `f` breaks, one line each; empty when it holds.
pub fn conservation(f: &Facts, link_bytes_per_sec: f64) -> Vec<String> {
    let mut broken = Vec::new();
    // One packet may straddle the horizon.
    let budget = link_bytes_per_sec * f.horizon_secs + 1500.0;
    for (i, l) in f.links.iter().enumerate() {
        let carried = l[a::LINK_FORWARDED_BYTES];
        if carried as f64 > budget {
            broken.push(format!(
                "{}: link {i} carried {carried} bytes, capacity allows {budget:.0}",
                f.label
            ));
        }
    }
    let delivered: u64 = f.flows.iter().map(|fl| fl[a::FLOW_DELIVERED]).sum();
    if delivered > f.final_hop_pkts {
        broken.push(format!(
            "{}: {delivered} packets delivered but only {} left a final hop",
            f.label, f.final_hop_pkts
        ));
    }
    if let Some(c) = f.churn {
        let (arrivals, retired) = (c[a::CHURN_ARRIVALS], c[a::CHURN_RETIRED]);
        let (completed, stale) = (c[a::CHURN_COMPLETED], c[a::CHURN_STALE_EVENTS]);
        if retired > arrivals || completed > retired {
            broken.push(format!(
                "{}: churn counts out of order: {arrivals} arrivals, {retired} retired, \
                 {completed} completed",
                f.label
            ));
        }
        if stale != 0 {
            broken.push(format!("{}: {stale} stale events", f.label));
        }
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts() -> Facts {
        Facts {
            label: "t".into(),
            horizon_secs: 1.0,
            events: 10,
            links: vec![[5, 5000, 0]],
            final_hop_pkts: 5,
            flows: vec![[5, 0, 0, 0, 0]],
            churn: Some([3, 2, 1, 2, 2, 0]),
            ..Facts::default()
        }
    }

    #[test]
    fn digest_sees_every_count() {
        let base = sim_digest(&[facts()], true);
        assert_eq!(base, sim_digest(&[facts()], true));
        let mut f = facts();
        f.flows[0][1] = 1;
        assert_ne!(base, sim_digest(&[f], true));
        let mut f = facts();
        f.churn = Some([3, 2, 1, 2, 3, 0]);
        assert_ne!(base, sim_digest(&[f], true));
        assert_ne!(base, sim_digest(&[facts(), facts()], true));
        let mut f = facts();
        f.events += 1;
        assert_ne!(base, sim_digest(std::slice::from_ref(&f), true));
        assert_eq!(sim_digest(&[facts()], false), sim_digest(&[f], false));
    }

    #[test]
    fn conservation_flags_each_law() {
        assert!(conservation(&facts(), 500_000.0).is_empty());
        assert_eq!(
            conservation(&facts(), 1000.0).len(),
            1,
            "link over capacity"
        );
        let mut f = facts();
        f.flows[0][0] = 6;
        assert_eq!(
            conservation(&f, 500_000.0).len(),
            1,
            "delivered > forwarded"
        );
        f = facts();
        f.churn = Some([3, 4, 1, 2, 2, 7]);
        assert_eq!(
            conservation(&f, 500_000.0).len(),
            2,
            "retired > arrivals, stale"
        );
    }
}
