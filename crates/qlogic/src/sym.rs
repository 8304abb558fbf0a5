//! A global, lock-free-readable symbol interner.
//!
//! Every identifier the logic core touches — variable names, relation names,
//! parameter names, string constants — is interned once into a process-wide
//! append-only table and from then on handled as a [`Sym`]: a `Copy` 4-byte
//! ticket. Equality is a register compare, hashing hashes a `u32`, and the
//! homomorphism search path never clones a heap string.
//!
//! # Layout
//!
//! The id → string direction is a chunked array: chunk *i* holds `64 << i`
//! slots, so 27 chunks cover the whole `u32` id space while an id resolves to
//! its slot with two shifts and no bounds search. Chunks are allocated on
//! demand and published with a CAS; slots are `AtomicPtr<String>` written
//! once (release) and read lock-free (acquire). Nothing is ever moved or
//! freed, so a resolved `&'static str` stays valid for the process lifetime.
//!
//! The string → id direction is 16 writer shards, each a mutex around a
//! `HashMap<&'static str, u32>`. Only interning new-or-unknown strings takes
//! a lock; [`Sym::as_str`] never does.
//!
//! # Ordering
//!
//! `Ord` compares the *resolved strings*, not the ids. This is deliberate:
//! the pre-interning representation ordered terms by their string names, and
//! every `BTreeMap`/`BTreeSet` iteration order, comparison normalization, and
//! printed trace in the workspace depends on that order. Interning is a
//! representation change, not a semantics change — so `Sym` keeps the
//! observable order and pays the string compare only where an order is
//! actually requested. `Eq`/`Hash` use the id (sound because the table is
//! canonical: equal strings always intern to the same id).

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

/// Writer-side shard count (power of two).
const SHARDS: usize = 16;
/// log2 of the first chunk's capacity: chunk `i` holds `64 << i` slots.
const FIRST_CHUNK_BITS: u32 = 6;
/// 27 doubling chunks cover `64 * (2^27 - 1) > u32::MAX` ids.
const NUM_CHUNKS: usize = 27;

/// id → string chunks. Each entry points at a heap array of
/// `AtomicPtr<String>` slots, published once via CAS.
static CHUNKS: [AtomicPtr<AtomicPtr<String>>; NUM_CHUNKS] =
    [const { AtomicPtr::new(ptr::null_mut()) }; NUM_CHUNKS];

/// Next unassigned id.
static NEXT_ID: AtomicU32 = AtomicU32::new(0);

/// string → id shards (write path only).
static SHARD_MAPS: OnceLock<Vec<Mutex<HashMap<&'static str, u32>>>> = OnceLock::new();

fn shards() -> &'static [Mutex<HashMap<&'static str, u32>>] {
    SHARD_MAPS.get_or_init(|| (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect())
}

/// FNV-1a over the bytes; cheap, deterministic shard selection.
fn shard_index(s: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) & (SHARDS - 1)
}

/// Maps an id to its (chunk, offset) coordinates.
#[inline]
fn locate(id: u32) -> (usize, usize) {
    let shifted = u64::from(id) + (1 << FIRST_CHUNK_BITS);
    let k = 63 - shifted.leading_zeros() as u64; // floor(log2(shifted))
    let chunk = (k - u64::from(FIRST_CHUNK_BITS)) as usize;
    let offset = (shifted - (1u64 << k)) as usize;
    (chunk, offset)
}

/// Returns chunk `c`'s slot array, allocating and publishing it if absent.
fn chunk_ptr(c: usize) -> *mut AtomicPtr<String> {
    let p = CHUNKS[c].load(Ordering::Acquire);
    if !p.is_null() {
        return p;
    }
    let cap = 1usize << (FIRST_CHUNK_BITS as usize + c);
    let fresh: Box<[AtomicPtr<String>]> =
        (0..cap).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
    let fresh = Box::into_raw(fresh) as *mut AtomicPtr<String>;
    match CHUNKS[c].compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => fresh,
        Err(winner) => {
            // Lost the race; free ours and use the published chunk.
            unsafe { drop(Box::from_raw(ptr::slice_from_raw_parts_mut(fresh, cap))) };
            winner
        }
    }
}

/// Interns a string, returning its stable [`Sym`].
///
/// Equal strings always return the same id: the shard lock serializes all
/// writers for a given string (same string → same shard), and the slot store
/// (release) happens before the map insert, so any thread that finds the id
/// in the map — or receives the `Sym` through any synchronizing edge — can
/// resolve it lock-free.
pub fn intern(s: &str) -> Sym {
    let shard = &shards()[shard_index(s)];
    let mut map = shard.lock().unwrap();
    if let Some(&id) = map.get(s) {
        return Sym(id);
    }
    let owned: &'static String = Box::leak(Box::new(String::from(s)));
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    assert!(id < u32::MAX, "symbol interner exhausted");
    let (c, off) = locate(id);
    let chunk = chunk_ptr(c);
    unsafe {
        (*chunk.add(off)).store(owned as *const String as *mut String, Ordering::Release);
    }
    map.insert(owned.as_str(), id);
    Sym(id)
}

/// Resolves an id minted by [`intern`].
fn resolve(id: u32) -> &'static str {
    let (c, off) = locate(id);
    let chunk = CHUNKS[c].load(Ordering::Acquire);
    debug_assert!(!chunk.is_null(), "Sym resolved before its chunk published");
    let p = unsafe { (*chunk.add(off)).load(Ordering::Acquire) };
    debug_assert!(!p.is_null(), "Sym resolved before its slot published");
    unsafe { (*p).as_str() }
}

/// An interned symbol: a `Copy` handle to a process-lifetime string.
///
/// Construct with [`Sym::new`] / [`intern`] / `From<&str>`; resolve with
/// [`Sym::as_str`] (lock-free) or `Display`. See the module docs for why
/// `Ord` is by string while `Eq`/`Hash` are by id.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Sym(u32);

impl Sym {
    /// Interns `s` (or finds it) and returns its symbol.
    pub fn new(s: &str) -> Sym {
        intern(s)
    }

    /// The interned string. Lock-free; valid for the process lifetime.
    #[inline]
    pub fn as_str(self) -> &'static str {
        resolve(self.0)
    }

    /// The raw id — dense, starting at 0, stable for the process lifetime.
    #[inline]
    pub fn id(self) -> u32 {
        self.0
    }
}

impl Hash for Sym {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Prints like the String it replaced, so derived Debug output of
        // terms and atoms is unchanged by the interning refactor.
        write!(f, "{:?}", self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        intern(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Sym {
        intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Sym {
        intern(&s)
    }
}

impl PartialEq<str> for Sym {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Sym {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Sym {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Sym> for str {
    fn eq(&self, other: &Sym) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Sym> for &str {
    fn eq(&self, other: &Sym) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Sym> for String {
    fn eq(&self, other: &Sym) -> bool {
        self.as_str() == other.as_str()
    }
}

/// Anything that can name a symbol: `Sym` itself (free), or any string-like
/// (interned on use). Lets shim APIs accept both old and new spellings.
pub trait ToSym {
    /// The symbol for this name.
    fn to_sym(&self) -> Sym;
}

impl ToSym for Sym {
    #[inline]
    fn to_sym(&self) -> Sym {
        *self
    }
}

impl ToSym for str {
    fn to_sym(&self) -> Sym {
        intern(self)
    }
}

impl ToSym for String {
    fn to_sym(&self) -> Sym {
        intern(self)
    }
}

impl<T: ToSym + ?Sized> ToSym for &T {
    #[inline]
    fn to_sym(&self) -> Sym {
        (**self).to_sym()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn interning_is_canonical() {
        let a = Sym::new("hello");
        let b = Sym::new("hello");
        let c = Sym::new("world");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "hello");
        assert_eq!(c.as_str(), "world");
    }

    #[test]
    fn order_is_by_string_not_id() {
        // Intern in reverse-lexicographic order so ids disagree with strings.
        let z = Sym::new("zzz·order");
        let a = Sym::new("aaa·order");
        assert!(a < z);
        assert!(z > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn mixed_string_comparisons() {
        let s = Sym::new("Events");
        assert!(s == "Events");
        assert!("Events" == s);
        assert!(s == "Events");
        assert!(s != "Attendance");
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        // Exhaustive over the first chunks plus spot checks far out.
        let mut expect_chunk = 0usize;
        let mut remaining = 64usize;
        for id in 0u32..10_000 {
            let (c, off) = locate(id);
            assert_eq!(c, expect_chunk, "id {id}");
            assert!(off < (64usize << c), "id {id}");
            remaining -= 1;
            if remaining == 0 {
                expect_chunk += 1;
                remaining = 64 << expect_chunk;
            }
        }
        let (c, off) = locate(u32::MAX);
        assert!(c < NUM_CHUNKS);
        assert!(off < (64usize << c));
    }

    /// The satellite concurrency hammer: many writer threads interning
    /// overlapping string sets while reader threads resolve continuously.
    /// Asserts ids are stable, never duplicated for equal strings, and
    /// readable lock-free while writers insert.
    #[test]
    fn hammer_concurrent_intern_and_resolve() {
        const WRITERS: usize = 4;
        const READERS: usize = 2;
        const NAMES: usize = 2_000;
        let names: Arc<Vec<String>> =
            Arc::new((0..NAMES).map(|i| format!("hammer·{}", i)).collect());
        let stop = Arc::new(AtomicBool::new(false));

        let mut writer_handles = Vec::new();
        for w in 0..WRITERS {
            let names = Arc::clone(&names);
            writer_handles.push(std::thread::spawn(move || {
                let mut ids = vec![0u32; NAMES];
                // Each writer walks the set in a different order (strides
                // coprime to NAMES, so every index is visited); all writers
                // must agree on every id.
                let stride = [1usize, 3, 7, 9][w];
                for round in 0..3 {
                    for i in 0..NAMES {
                        let i = (i * stride + round * 7) % NAMES;
                        let sym = intern(&names[i]);
                        assert_eq!(sym.as_str(), names[i], "round-trip");
                        if ids[i] == 0 {
                            ids[i] = sym.id() + 1; // +1: distinguish unset
                        } else {
                            assert_eq!(ids[i], sym.id() + 1, "id must be stable");
                        }
                    }
                }
                ids
            }));
        }

        let mut reader_handles = Vec::new();
        for _ in 0..READERS {
            let names = Arc::clone(&names);
            let stop = Arc::clone(&stop);
            reader_handles.push(std::thread::spawn(move || {
                // Re-intern (mostly hits) and resolve while writers run:
                // every resolution must round-trip, never tear, never block.
                // One pass completes before `stop` is first read: a reader
                // first scheduled after the writers finished still resolves.
                let mut seen = 0usize;
                loop {
                    for name in names.iter().take(256) {
                        let sym = intern(name);
                        assert_eq!(sym.as_str(), name);
                        seen += 1;
                    }
                    if stop.load(Ordering::Relaxed) {
                        break seen;
                    }
                }
            }));
        }

        let all_ids: Vec<Vec<u32>> = writer_handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        stop.store(true, Ordering::Relaxed);
        for h in reader_handles {
            assert!(h.join().unwrap() > 0);
        }

        // Every writer observed the same id for every name (no duplicates).
        for ids in &all_ids[1..] {
            assert_eq!(ids, &all_ids[0]);
        }
        // Ids are distinct across distinct names.
        let uniq: HashSet<u32> = all_ids[0].iter().copied().collect();
        assert_eq!(uniq.len(), NAMES);
        // And they all still resolve after the dust settles.
        for (i, name) in names.iter().enumerate() {
            assert_eq!(intern(name).id() + 1, all_ids[0][i]);
        }
    }
}
