//! Byte-accurate heap accounting.
//!
//! Bounding the proxy's memory (trace compaction, cache eviction — the
//! roadmap's "bounded memory" line) needs a measurement substrate first:
//! every retaining component answers *how many heap bytes do you hold
//! right now*, and the proxy exports the answers as
//! `bep_mem_bytes{component=...}` gauges plus a per-session state-size
//! histogram recorded when sessions end.
//!
//! [`HeapUsage::heap_bytes`] counts bytes *owned on the heap* beyond the
//! value's own `size_of` footprint — `Vec`/`String` capacities (not
//! lengths: capacity is what the allocator actually holds), map tables,
//! and transitively owned structures. Shared `Arc` payloads are counted
//! at each holder (a deliberate over-approximation: eviction decisions
//! care about what a component *keeps alive*, and double-counting shared
//! plans is both rare and conservative). Opaque foreign types (parsed
//! statements) are approximated by their source text, and the
//! approximation is documented at the implementation site.
//!
//! A component answers by walking itself when asked: a gauge refresh, a
//! session's end. The one running account is a [`crate::BoundedCache`]'s
//! resident bytes, which its byte budget is enforced against at every
//! insert; each entry is weighed once, when it is inserted.

use std::mem::size_of;

use qlogic::{Atom, Comparison, Cq, Term};
use sqlir::Value;

/// A component that can report its current heap footprint.
pub trait HeapUsage {
    /// Heap bytes currently owned (excluding `size_of::<Self>()` itself).
    fn heap_bytes(&self) -> usize;
}

/// Heap bytes owned by one atom: its argument vector.
pub fn atom_heap_bytes(a: &Atom) -> usize {
    a.args.capacity() * size_of::<Term>()
}

/// Heap bytes owned by a conjunctive query: head terms, atoms with their
/// argument vectors, and comparisons. Terms are `Copy` (16 bytes), so a
/// CQ's footprint is exactly its vector capacities.
pub fn cq_heap_bytes(q: &Cq) -> usize {
    q.head.capacity() * size_of::<Term>()
        + q.atoms.capacity() * size_of::<Atom>()
        + q.atoms.iter().map(atom_heap_bytes).sum::<usize>()
        + q.comparisons.capacity() * size_of::<Comparison>()
}

/// Heap bytes owned by one SQL value: a string longer than
/// [`sqlir::text::INLINE_CAP`] bytes owns its length, and a shorter one
/// nothing.
pub fn value_heap_bytes(v: &Value) -> usize {
    match v {
        Value::Str(s) => s.heap_bytes(),
        _ => 0,
    }
}

/// Heap bytes owned by a `(name, value)` binding list.
pub fn bindings_heap_bytes(bindings: &[(String, Value)]) -> usize {
    std::mem::size_of_val(bindings)
        + bindings
            .iter()
            .map(|(k, v)| k.capacity() + value_heap_bytes(v))
            .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlogic::Term;

    #[test]
    fn cq_bytes_scale_with_body_size() {
        let small = Cq::new(
            vec![Term::var("x")],
            vec![Atom::new("R", vec![Term::var("x")])],
            vec![],
        );
        let big = Cq::new(
            vec![Term::var("x")],
            (0..16)
                .map(|i| {
                    Atom::new(
                        "R",
                        vec![Term::var("x"), Term::int(i), Term::var(format!("y{i}"))],
                    )
                })
                .collect(),
            vec![],
        );
        assert!(cq_heap_bytes(&small) > 0);
        assert!(cq_heap_bytes(&big) > 4 * cq_heap_bytes(&small));
    }

    #[test]
    fn bindings_count_string_payloads() {
        let none: &[(String, Value)] = &[];
        assert_eq!(bindings_heap_bytes(none), 0);
        let b = vec![("MyUId".to_string(), Value::Int(1))];
        let with_str = vec![(
            "MyUId".to_string(),
            Value::Str("a-reasonably-long-session-token".into()),
        )];
        assert!(bindings_heap_bytes(&with_str) > bindings_heap_bytes(&b));
    }

    #[test]
    fn a_short_string_owns_no_heap_and_a_long_one_its_length() {
        let short = "x".repeat(sqlir::text::INLINE_CAP);
        let long = "x".repeat(sqlir::text::INLINE_CAP + 1);
        assert_eq!(value_heap_bytes(&Value::str(short.as_str())), 0);
        assert_eq!(value_heap_bytes(&Value::str(long.as_str())), long.len());
        assert_eq!(value_heap_bytes(&Value::Int(7)), 0);
    }
}
