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
//! demand and published with a CAS; a slot points at the symbol's *text* —
//! a 4-byte length and the UTF-8 bytes — written once (release) and read
//! lock-free (acquire). Texts are packed end to end into leaked blocks, one
//! open block per writer shard. Nothing is ever moved or freed, so a
//! resolved `&'static str` stays valid for the process lifetime.
//!
//! The string → id direction is 16 writer shards, each a mutex around a
//! set of ids that hash and compare as the strings they resolve to
//! (`ById`) — the text is stored once, not again as a key. Only interning
//! new-or-unknown strings takes a lock; [`Sym::as_str`] never does.
//!
//! A long-lived proxy interns every distinct string cell it has witnessed,
//! so the bytes per symbol are resident memory that grows with traffic:
//! about `len + 4` of text, 8 of slot and 5 of set entry (before the
//! tables' growth slack), where a boxed `String`, its buffer and a
//! `(&str, u32)` map entry came to about three times that.
//! [`resident_bytes`] reports the total.
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
//!
//! # Scratch symbols
//!
//! A containment check renames its inputs apart and the chase invents
//! labeled nulls; both need symbols that are merely *distinct*, live for one
//! call, and never escape it. Spelling each through `format!` and the
//! writer shards costs more than the reasoning it serves, so a block of
//! names is reserved for them: [`Sym::scratch`]`(k)` is the symbol `·k`,
//! interned the first time it is asked for and read from a fixed table ever
//! after (no lock, no allocation); [`Fresh`] hands them out in order. The
//! parsers cannot produce a `·`, so no user name lands in the block. A
//! scratch symbol means nothing outside the call that drew it — two calls,
//! concurrent or not, reuse the same ones.
//!
//! # Skolem symbols
//!
//! A query trace names the labeled nulls it mints `sk1`, `sk2`, … with a
//! counter per trace, and mints one for every unknown cell of every row
//! it witnesses. [`Sym::skolem`]`(k)` is the symbol `sk{k}` — the very
//! one `intern(&format!("sk{k}"))` returns, so names, order and printed
//! facts are unchanged — read from a second fixed table for the first
//! few thousand `k`, as the scratch symbols are. Unlike those, a Skolem
//! symbol is an ordinary name: it outlives the call and a parser can
//! spell it.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Writer-side shard count (power of two).
const SHARDS: usize = 16;
/// log2 of the first chunk's capacity: chunk `i` holds `64 << i` slots.
const FIRST_CHUNK_BITS: u32 = 6;
/// 27 doubling chunks cover `64 * (2^27 - 1) > u32::MAX` ids.
const NUM_CHUNKS: usize = 27;

/// id → text chunks. Each entry points at a heap array of slots, published
/// once via CAS; a slot points at a text laid out by [`Shard::store`].
static CHUNKS: [AtomicPtr<AtomicPtr<u8>>; NUM_CHUNKS] =
    [const { AtomicPtr::new(ptr::null_mut()) }; NUM_CHUNKS];

/// Next unassigned id.
static NEXT_ID: AtomicU32 = AtomicU32::new(0);

/// Bytes per text block. A text longer than a quarter of one gets an
/// allocation of its own, so a block's abandoned tail stays small.
const BLOCK: usize = 32 * 1024;

/// Bytes of text stored so far: `4 + len` per symbol ([`Shard::store`]).
static TEXT_BYTES: AtomicUsize = AtomicUsize::new(0);

/// An interned id inside a shard's set, standing for the string it
/// resolves to: hashed as that string and findable by it (`Borrow<str>`),
/// so the set needs no copy of the text. Two ids are equal exactly when
/// their strings are — the table is canonical — which is what `Borrow`
/// requires.
#[derive(PartialEq, Eq)]
struct ById(u32);

impl Hash for ById {
    fn hash<H: Hasher>(&self, state: &mut H) {
        resolve(self.0).hash(state);
    }
}

impl Borrow<str> for ById {
    fn borrow(&self) -> &str {
        resolve(self.0)
    }
}

/// One writer shard: the ids of the strings that hash to it, and the unused
/// tail of its open text block.
#[derive(Default)]
struct Shard {
    ids: HashSet<ById>,
    room: &'static mut [u8],
}

impl Shard {
    /// Copies `s` into leaked storage as `[len: u32][bytes]` and returns
    /// the address of the length.
    fn store(&mut self, s: &str) -> *mut u8 {
        let len = u32::try_from(s.len()).expect("interned string under 4 GiB");
        let need = 4 + s.len();
        let text = if need > BLOCK / 4 {
            Box::leak(vec![0u8; need].into_boxed_slice())
        } else {
            if need > self.room.len() {
                self.room = Box::leak(vec![0u8; BLOCK].into_boxed_slice());
            }
            let (text, rest) = std::mem::take(&mut self.room).split_at_mut(need);
            self.room = rest;
            text
        };
        text[..4].copy_from_slice(&len.to_ne_bytes());
        text[4..].copy_from_slice(s.as_bytes());
        TEXT_BYTES.fetch_add(need, Ordering::Relaxed);
        text.as_mut_ptr()
    }
}

/// string → id shards (write path only).
static SHARDS_BY_HASH: OnceLock<Vec<Mutex<Shard>>> = OnceLock::new();

fn shards() -> &'static [Mutex<Shard>] {
    SHARDS_BY_HASH.get_or_init(|| (0..SHARDS).map(|_| Mutex::default()).collect())
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
fn chunk_ptr(c: usize) -> *mut AtomicPtr<u8> {
    let p = CHUNKS[c].load(Ordering::Acquire);
    if !p.is_null() {
        return p;
    }
    let cap = 1usize << (FIRST_CHUNK_BITS as usize + c);
    let fresh: Box<[AtomicPtr<u8>]> = (0..cap).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
    let fresh = Box::into_raw(fresh) as *mut AtomicPtr<u8>;
    match CHUNKS[c].compare_exchange(ptr::null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => fresh,
        Err(winner) => {
            // Lost the race; free ours and use the published chunk.
            // SAFETY: `fresh` is the boxed slice of `cap` slots leaked just
            // above, and the failed CAS published it to nobody.
            unsafe { drop(Box::from_raw(ptr::slice_from_raw_parts_mut(fresh, cap))) };
            winner
        }
    }
}

/// Size of the scratch block ([`Sym::scratch`]); a call that needs more
/// symbols than this pays the interner for the excess.
const SCRATCH: usize = 1 << 12;

/// Ids of the scratch symbols already interned (`u32::MAX`: not yet).
static SCRATCH_IDS: [AtomicU32; SCRATCH] = [const { AtomicU32::new(u32::MAX) }; SCRATCH];

/// Size of the Skolem block ([`Sym::skolem`]); past it, a Skolem pays the
/// interner.
const SKOLEMS: usize = 1 << 12;

/// Ids of the Skolem symbols already interned (`u32::MAX`: not yet).
static SKOLEM_IDS: [AtomicU32; SKOLEMS] = [const { AtomicU32::new(u32::MAX) }; SKOLEMS];

/// The `k`-th symbol of a fixed block: interned from `spell()` on first
/// use and read from `table` lock-free ever after; past the table's end,
/// interned every time.
fn tabled(table: &[AtomicU32], k: u64, spell: impl FnOnce() -> String) -> Sym {
    let Some(slot) = usize::try_from(k).ok().and_then(|k| table.get(k)) else {
        return intern(&spell());
    };
    // Acquire/release: whoever reads the id here may resolve it.
    match slot.load(Ordering::Acquire) {
        u32::MAX => {
            let sym = intern(&spell());
            slot.store(sym.0, Ordering::Release);
            sym
        }
        id => Sym(id),
    }
}

/// Interns a string, returning its stable [`Sym`].
///
/// Equal strings always return the same id: the shard lock serializes all
/// writers for a given string (same string → same shard), and the slot store
/// (release) happens before the id joins the set, so any thread that finds
/// the id there — or receives the `Sym` through any synchronizing edge — can
/// resolve it lock-free.
pub fn intern(s: &str) -> Sym {
    let mut shard = shards()[shard_index(s)].lock().unwrap();
    if let Some(found) = shard.ids.get(s) {
        return Sym(found.0);
    }
    let text = shard.store(s);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    assert!(id < u32::MAX, "symbol interner exhausted");
    let (c, off) = locate(id);
    let chunk = chunk_ptr(c);
    // SAFETY: `chunk` is chunk `c`'s live slot array and `off` lies inside
    // it (`locate`); slots are atomics, so a shared write is sound.
    unsafe { (*chunk.add(off)).store(text, Ordering::Release) };
    // Hashes by resolving `id`: the slot is published, on this thread.
    shard.ids.insert(ById(id));
    Sym(id)
}

/// Resident bytes of the interner, which only grow: the text of every
/// symbol (`4 + len` each, as stored; the unwritten tail of an open block
/// is not counted), the published id → text chunks, and the writer
/// shards' sets (an id and a control byte per slot of usable capacity;
/// the sets' bucket arrays are up to an eighth larger). Takes each shard
/// lock in turn.
pub fn resident_bytes() -> usize {
    let slot = std::mem::size_of::<AtomicPtr<u8>>();
    let chunks: usize = (CHUNKS.iter().enumerate())
        .filter(|(_, c)| !c.load(Ordering::Acquire).is_null())
        .map(|(c, _)| slot << (FIRST_CHUNK_BITS as usize + c))
        .sum();
    let capacity: usize = (shards().iter())
        .map(|s| s.lock().expect("interner shard poisoned").ids.capacity())
        .sum();
    let sets = capacity * (std::mem::size_of::<ById>() + 1);
    TEXT_BYTES.load(Ordering::Relaxed) + chunks + sets
}

/// Resolves an id minted by [`intern`].
fn resolve(id: u32) -> &'static str {
    let (c, off) = locate(id);
    let chunk = CHUNKS[c].load(Ordering::Acquire);
    debug_assert!(!chunk.is_null(), "Sym resolved before its chunk published");
    // SAFETY: an id exists only after `intern` published its chunk and
    // stored its slot (release; acquired here and above). The slot points
    // at `[len: u32][len bytes of UTF-8]` copied from a `&str` by
    // `Shard::store` into leaked memory nobody writes again.
    unsafe {
        let text = (*chunk.add(off)).load(Ordering::Acquire);
        debug_assert!(!text.is_null(), "Sym resolved before its slot published");
        let len = u32::from_ne_bytes(*text.cast::<[u8; 4]>()) as usize;
        std::str::from_utf8_unchecked(std::slice::from_raw_parts(text.add(4), len))
    }
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

    /// The `k`-th scratch symbol (module docs): distinct for distinct `k`,
    /// and from every name a parser can produce.
    pub fn scratch(k: usize) -> Sym {
        tabled(&SCRATCH_IDS, k as u64, || format!("·{k}"))
    }

    /// The Skolem symbol `sk{k}` (module docs): equal to
    /// `Sym::new(&format!("sk{k}"))`, without the `format!` or the shard
    /// lock once drawn.
    pub fn skolem(k: u64) -> Sym {
        tabled(&SKOLEM_IDS, k, || format!("sk{k}"))
    }
}

/// Hands out the scratch symbols in order, for one call's renaming and
/// nulls.
#[derive(Debug, Default)]
pub struct Fresh(usize);

impl Fresh {
    /// A scratch symbol this `Fresh` has not returned before.
    pub fn next_sym(&mut self) -> Sym {
        self.0 += 1;
        Sym::scratch(self.0 - 1)
    }
}

/// A multiply-rotate hasher (the `FxHasher` recipe) for maps and indexes
/// keyed by symbols and terms inside one call: a few cycles per word where
/// SipHash spends tens, and no defence against chosen keys — so not for
/// anything keyed by text a client sends.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` over [`WordHasher`].
pub(crate) type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

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
    fn resident_bytes_count_every_new_text() {
        let before = resident_bytes();
        let texts: Vec<String> = (0..500)
            .map(|i| format!("resident-bytes-probe-{i}"))
            .collect();
        for t in &texts {
            Sym::new(t);
        }
        // Other tests intern concurrently; the figure only grows.
        let grown = resident_bytes() - before;
        let stored: usize = texts.iter().map(|t| 4 + t.len()).sum();
        assert!(grown >= stored, "grew {grown} for {stored} bytes of text");
    }

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
    fn texts_of_every_size_round_trip_across_blocks() {
        // Empty, multi-byte, exactly around the own-allocation threshold,
        // far past a block, and enough small ones to open several blocks.
        let long = |n: usize| "é".repeat(n / 2);
        let mut texts = vec![String::new(), "naïve·text".to_string()];
        texts.extend([BLOCK / 4 - 6, BLOCK / 4 - 4, BLOCK / 4, 3 * BLOCK].map(long));
        texts.extend((0..3 * BLOCK / 24).map(|i| format!("block·filler·{i:08}")));
        let syms: Vec<Sym> = texts.iter().map(|t| intern(t)).collect();
        for (text, sym) in texts.iter().zip(&syms) {
            assert_eq!(sym.as_str(), text);
            assert_eq!(intern(text), *sym, "found again by its text");
        }
        let distinct: HashSet<u32> = syms.iter().map(|s| s.id()).collect();
        assert_eq!(distinct.len(), texts.len());
    }

    #[test]
    fn scratch_symbols_are_stable_distinct_and_unparseable() {
        let mut fresh = Fresh::default();
        let drawn: Vec<Sym> = (0..SCRATCH + 3).map(|_| fresh.next_sym()).collect();
        let uniq: HashSet<Sym> = drawn.iter().copied().collect();
        assert_eq!(uniq.len(), drawn.len());
        for (k, sym) in drawn.iter().enumerate() {
            // Inside the table and past its end, first draw and second.
            assert_eq!(*sym, Sym::scratch(k));
            assert_eq!(sym.as_str(), format!("·{k}"));
        }
        assert_eq!(Fresh::default().next_sym(), drawn[0], "every call restarts");
    }

    #[test]
    fn skolem_symbols_are_the_interned_spellings() {
        let ks = [0, 1, SKOLEMS as u64 - 1, SKOLEMS as u64, 1_000_000];
        for k in ks {
            let name = format!("sk{k}");
            // First draw (interns), second draw (the table), and the
            // spelling interned directly all name one symbol.
            let drawn = Sym::skolem(k);
            assert_eq!(drawn, Sym::new(&name), "k = {k}");
            assert_eq!(Sym::skolem(k), drawn);
            assert_eq!(drawn.as_str(), name);
        }
        // A `k` drawn first by several threads at once: they agree.
        let k = 2_345;
        let drawn: Vec<Sym> = (0..4)
            .map(|_| std::thread::spawn(move || Sym::skolem(k)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        assert!(drawn.iter().all(|s| *s == Sym::new("sk2345")), "{drawn:?}");
        assert_eq!(Sym::skolem(k), drawn[0]);
    }

    #[test]
    fn word_hasher_separates_nearby_keys() {
        let hash = |t: (u32, u64)| {
            let mut h = WordHasher::default();
            t.hash(&mut h);
            h.finish()
        };
        let hashes: HashSet<u64> = (0..64u32)
            .flat_map(|a| (0..64u64).map(move |b| (a, b)))
            .map(hash)
            .collect();
        assert_eq!(hashes.len(), 64 * 64);
        let mut bytes = WordHasher::default();
        bytes.write(b"nine bytes");
        assert_ne!(bytes.finish(), WordHasher::default().finish());
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
