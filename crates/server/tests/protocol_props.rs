//! Property tests for the decision-event wire encoding — the payload the
//! observability stack ships three ways (`trace`, `journal`, and pushed
//! `events` frames), so a lossy encode/decode here silently corrupts every
//! downstream consumer (`bep-top`, the benches, CI smoke greps).
//!
//! Invariants:
//! * **event round-trip** — an arbitrary [`DecisionEvent`] (template hash
//!   across the full `u64` range, including top-bit-set values that do not
//!   fit a signed JSON integer; arbitrary span summaries) survives
//!   `to_wire`/`from_wire` bit-exactly, and the hash rides as a 16-digit
//!   hex string;
//! * **label round-trips** — `CacheTier::from_label` and
//!   `Verdict::from_label` invert `label()` for every variant, through the
//!   wire, not just in memory;
//! * **stream frames** — `subscribe` requests and pushed `events`
//!   responses round-trip with their cumulative drop counts intact.

use bep_core::{CacheTier, DecisionEvent, SpanSummary, Verdict, PHASE_COUNT};
use bep_server::{Request, Response};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const TIERS: [CacheTier; 6] = [
    CacheTier::TemplateCache,
    CacheTier::SessionCache,
    CacheTier::DenyCache,
    CacheTier::TemplateProof,
    CacheTier::ConcreteProof,
    CacheTier::Uncached,
];

const VERDICTS: [Verdict; 2] = [Verdict::Allowed, Verdict::Blocked];

/// Strategy for an arbitrary event. Built from two tuple strategies (the
/// stub's tuples cap at eight slots) mapped into the struct.
fn arb_event() -> impl Strategy<Value = DecisionEvent> {
    // Every u64 but the hash rides as a signed JSON integer, so the
    // wire's domain is 0..2^63; the hash alone takes the hex path and
    // covers the full range.
    let wire_u64 = || 0u64..=i64::MAX as u64;
    let core = (
        wire_u64(),   // seq
        wire_u64(),   // session
        any::<u64>(), // template_hash, full range
        proptest::sample::select(VERDICTS.to_vec()),
        proptest::sample::select(TIERS.to_vec()),
        any::<bool>(), // negative_template_hit
        wire_u64(),    // total_ns
        proptest::collection::vec(wire_u64(), PHASE_COUNT..=PHASE_COUNT),
    );
    let span = (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
    );
    (core, span).prop_map(|(core, span)| {
        let (seq, session, template_hash, verdict, tier, neg, total_ns, phases) = core;
        let (rw, cc, hn, hb, cr, cf) = span;
        let mut phase_ns = [0u64; PHASE_COUNT];
        phase_ns.copy_from_slice(&phases);
        DecisionEvent {
            seq,
            session,
            template_hash,
            verdict,
            tier,
            negative_template_hit: neg,
            total_ns,
            phase_ns,
            span: SpanSummary {
                rewrite_iterations: rw,
                containment_checks: cc,
                hom_nodes: hn,
                hom_backtracks: hb,
                cert_replays: cr,
                cert_fallbacks: cf,
            },
        }
    })
}

proptest! {
    #[test]
    fn decision_events_survive_the_wire(ev in arb_event(), published in 0u64..=i64::MAX as u64, evicted in 0u64..=i64::MAX as u64) {
        let resp = Response::Journal {
            events: vec![ev],
            published,
            evicted,
        };
        let wire = resp.to_wire();
        // The hash must ride as exactly its 16-digit hex rendering — a
        // signed-integer encoding would corrupt top-bit-set hashes.
        prop_assert!(
            wire.contains(&format!("{:016x}", ev.template_hash)),
            "hash not hex-encoded in {wire}"
        );
        prop_assert_eq!(Response::from_wire(&wire).unwrap(), resp);
    }

    #[test]
    fn events_frames_round_trip_with_drop_counts(evs in proptest::collection::vec(arb_event(), 0..4), dropped in 0u64..=i64::MAX as u64) {
        let resp = Response::Events { events: evs, dropped };
        prop_assert_eq!(Response::from_wire(&resp.to_wire()).unwrap(), resp.clone());
    }

    #[test]
    fn subscribe_requests_round_trip(after in 0u64..=i64::MAX as u64) {
        let req = Request::Subscribe { after };
        prop_assert_eq!(Request::from_wire(&req.to_wire()).unwrap(), req);
    }

    #[test]
    fn tier_labels_invert_through_the_wire(tier in proptest::sample::select(TIERS.to_vec())) {
        prop_assert_eq!(CacheTier::from_label(tier.label()), Some(tier));
        let mut ev = arb_fixed();
        ev.tier = tier;
        let resp = Response::Events { events: vec![ev], dropped: 0 };
        let Response::Events { events, .. } = Response::from_wire(&resp.to_wire()).unwrap() else {
            return Err(TestCaseError::fail("wrong tag"));
        };
        prop_assert_eq!(events[0].tier, tier);
    }

    #[test]
    fn verdict_labels_invert_through_the_wire(verdict in proptest::sample::select(VERDICTS.to_vec())) {
        prop_assert_eq!(Verdict::from_label(verdict.label()), Some(verdict));
        let mut ev = arb_fixed();
        ev.verdict = verdict;
        let resp = Response::Events { events: vec![ev], dropped: 0 };
        let Response::Events { events, .. } = Response::from_wire(&resp.to_wire()).unwrap() else {
            return Err(TestCaseError::fail("wrong tag"));
        };
        prop_assert_eq!(events[0].verdict, verdict);
    }
}

/// A fixed valid event for the label tests to mutate.
fn arb_fixed() -> DecisionEvent {
    DecisionEvent {
        seq: 1,
        session: 2,
        template_hash: 0x8000_0000_dead_beef,
        verdict: Verdict::Allowed,
        tier: CacheTier::Uncached,
        negative_template_hit: false,
        total_ns: 3,
        phase_ns: [0; PHASE_COUNT],
        span: SpanSummary::default(),
    }
}

#[test]
fn unknown_labels_refuse_to_decode() {
    for bad in [
        r#"{"t":"events","events":[{"seq":1,"session":2,"hash":"ff","verdict":"maybe","tier":"uncached","neg":false,"total_ns":3,"phases":[]}],"dropped":0}"#,
        r#"{"t":"events","events":[{"seq":1,"session":2,"hash":"ff","verdict":"allowed","tier":"warp-cache","neg":false,"total_ns":3,"phases":[]}],"dropped":0}"#,
        r#"{"t":"events","events":[{"seq":1,"session":2,"hash":"xyzzy","verdict":"allowed","tier":"uncached","neg":false,"total_ns":3,"phases":[]}],"dropped":0}"#,
    ] {
        assert!(Response::from_wire(bad).is_err(), "{bad} should not decode");
    }
}
