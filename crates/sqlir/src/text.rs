//! [`Text`], the string payload of [`Value::Str`](crate::Value::Str).
//!
//! A proxy keeps every value a session observes, and almost every string
//! cell a web application stores is short: a user name, a title, a status.
//! A `String` per cell is a 24-byte header plus a heap allocation however
//! short the text. A [`Text`] of at most [`INLINE_CAP`] bytes is stored in
//! the header itself, and only a longer one owns a `Box<str>`.
//!
//! 22 is what fits for free: a `Box<str>` is 16 bytes, and the enum around
//! it is 24 with its tag. The inline variant uses the remaining 23 bytes as
//! a length byte and 22 bytes of text. So `Text` and [`Value`] stay 24
//! bytes, the size `Value` had with a `String` (both are checked at compile
//! time), and no row, binding or trace entry grows.
//!
//! A `Text` is its string: `Eq`, `Ord`, `Hash`, `Debug` and `Display` are
//! those of `str`, whichever variant holds the bytes, so every hash-ordered
//! output and every printed value is what it was with a `String`.
//!
//! [`Value`]: crate::Value

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// The longest string a [`Text`] stores inline, in bytes.
pub const INLINE_CAP: usize = 22;

/// An immutable UTF-8 string that keeps up to [`INLINE_CAP`] bytes inline
/// (see the module docs).
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the text, valid UTF-8; the rest is zero.
    Inline { len: u8, bytes: [u8; INLINE_CAP] },
    /// A text longer than [`INLINE_CAP`] bytes.
    Heap(Box<str>),
}

const _: () = assert!(std::mem::size_of::<Text>() == 24);

impl Text {
    /// The text as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("an inline text is copied from a str"),
            Repr::Heap(s) => s,
        }
    }

    /// The text's UTF-8 bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// `true` for the empty string.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the text is stored inline: exactly when it is at most
    /// [`INLINE_CAP`] bytes long.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// Heap bytes the text owns: 0 inline, its length otherwise.
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Heap(s) => s.len(),
        }
    }

    /// Formats `args` into a text, with no intermediate `String` when the
    /// result fits inline: `Text::format(format_args!("user{i}"))`.
    pub fn format(args: fmt::Arguments<'_>) -> Text {
        let mut w = Writer::default();
        fmt::write(&mut w, args).expect("a Text writer never fails");
        match w.spill {
            Some(s) => Text::from(s),
            None => Text(Repr::Inline {
                len: w.len,
                bytes: w.bytes,
            }),
        }
    }

    /// The inline form of `s`, if it fits.
    fn inline(s: &str) -> Option<Text> {
        if s.len() > INLINE_CAP {
            return None;
        }
        let mut bytes = [0; INLINE_CAP];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Some(Text(Repr::Inline {
            len: s.len() as u8,
            bytes,
        }))
    }
}

/// [`Text::format`]'s sink: inline bytes until they overflow, then a
/// `String`.
#[derive(Default)]
struct Writer {
    len: u8,
    bytes: [u8; INLINE_CAP],
    spill: Option<String>,
}

impl fmt::Write for Writer {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let at = usize::from(self.len);
        match &mut self.spill {
            Some(spill) => spill.push_str(s),
            None if at + s.len() <= INLINE_CAP => {
                self.bytes[at..at + s.len()].copy_from_slice(s.as_bytes());
                self.len += s.len() as u8;
            }
            None => {
                let head = std::str::from_utf8(&self.bytes[..at]).expect("whole strs written");
                self.spill = Some([head, s].concat());
            }
        }
        Ok(())
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        Text::inline(s).unwrap_or_else(|| Text(Repr::Heap(s.into())))
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        Text::inline(&s).unwrap_or_else(|| Text(Repr::Heap(s.into_boxed_str())))
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    /// `str`'s order: bytewise.
    fn cmp(&self, other: &Text) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    /// Strings on both sides of the inline bound, ASCII and multi-byte:
    /// `"é"` is two bytes, so 21 ASCII bytes and an `é` end at byte 23 —
    /// the char straddles byte 22 and the text goes to the heap.
    fn samples() -> Vec<String> {
        let mut v: Vec<String> = (0..=30).map(|n| "x".repeat(n)).collect();
        v.extend([
            format!("{}é", "a".repeat(20)),
            format!("{}é", "a".repeat(21)),
            "☃".repeat(7),
            "☃".repeat(8),
            "it's".into(),
            "party".into(),
            "b".into(),
            "ab".into(),
            "\u{0}".into(),
        ]);
        v
    }

    fn hash_of(x: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn every_str_round_trips() {
        for s in samples() {
            assert_eq!(Text::from(s.as_str()).as_str(), s);
            assert_eq!(Text::from(s.clone()).as_str(), s);
            assert_eq!(Text::format(format_args!("{s}")).as_str(), s);
            assert_eq!(Text::from(s.as_str()).len(), s.len());
        }
        // Formatting that overflows the inline bytes part-way.
        let t = Text::format(format_args!(
            "{}-{}-{}",
            "a".repeat(10),
            "b".repeat(10),
            "c"
        ));
        assert_eq!(
            t.as_str(),
            format!("{}-{}-c", "a".repeat(10), "b".repeat(10))
        );
    }

    #[test]
    fn a_text_is_inline_exactly_when_it_fits() {
        for s in samples() {
            let inline = s.len() <= INLINE_CAP;
            for t in [
                Text::from(s.as_str()),
                Text::from(s.clone()),
                Text::format(format_args!("{s}")),
            ] {
                assert_eq!(t.is_inline(), inline, "{s:?} ({} bytes)", s.len());
                assert_eq!(t.heap_bytes(), if inline { 0 } else { s.len() });
            }
        }
        let straddling = format!("{}é", "a".repeat(21));
        assert_eq!(straddling.len(), 23);
        assert!(!Text::from(straddling.as_str()).is_inline());
    }

    #[test]
    fn the_traits_are_the_strings() {
        let all = samples();
        for a in &all {
            let ta = Text::from(a.as_str());
            assert_eq!(hash_of(&ta), hash_of(a), "{a:?}");
            assert_eq!(format!("{ta:?}"), format!("{a:?}"));
            assert_eq!(format!("{ta}"), format!("{a}"));
            assert_eq!(format!("[{ta:>8}]"), format!("[{a:>8}]"));
            for b in &all {
                let tb = Text::from(b.as_str());
                assert_eq!(ta == tb, a == b, "{a:?} == {b:?}");
                assert_eq!(ta.cmp(&tb), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }
}
