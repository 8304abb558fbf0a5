//! Warm-start snapshots: persisted template verdicts, verification-gated.
//!
//! A cold proxy pays one symbolic proof per distinct template before it
//! reaches steady-state throughput. This module serializes the plan
//! cache's compiled certificates and verdicts to a versioned, checksummed
//! file at drain time, and re-installs them on the next start — after
//! pushing every entry back through the *same mutual-containment check
//! certificate replay uses*. The gate is the point: a snapshot is a hint,
//! never an authority. A corrupt file, a format-version bump, a changed
//! policy fingerprint, or a single entry whose certificate no longer
//! verifies all degrade to a cold start (whole-file or per-entry), never
//! to a wrong decision.
//!
//! Symbols are interner ids and thus process-local, so everything is
//! serialized by *name* and re-interned at load; the policy fingerprint
//! likewise hashes the canonical `Display` rendering of each view, never
//! ids. The file layout is length-prefixed little-endian with a trailing
//! FNV-1a checksum over every preceding byte:
//!
//! ```text
//! magic "BEPSNAP1" | version u32 | policy_fp u64 | entry_count u32
//!   entry*: sql str | verdict u8 (0 undecidable, 1 allowed)
//!           [cert_count u32, cert*: rewriting Cq | has_expansion u8]
//! checksum u64
//! ```
//!
//! Expansions are *not* stored: they are recomputed over the live policy
//! at load, which both shrinks the file and guarantees the verified
//! expansion is internally consistent with the views actually in force.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use qlogic::{intern, Atom, CVal, CmpOp, Comparison, Cq, Term};

use crate::checker::ComplianceChecker;
use crate::error::CoreError;
use crate::obs::template_hash;
use crate::plan::{compile_plan, Certificate, SelectPlan, TemplatePlan, TemplateVerdict};

/// Snapshot format version; bump on any layout change.
const VERSION: u32 = 1;
/// File magic (8 bytes).
const MAGIC: &[u8; 8] = b"BEPSNAP1";

/// Why a snapshot failed to load or save. Every load-side variant means
/// "cold start", never "wrong decision" — the caller logs it and serves
/// traffic unwarmed.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error reading or writing the snapshot.
    Io(io::Error),
    /// The file is not a snapshot, or is truncated/garbled.
    Corrupt(String),
    /// The trailing checksum does not match the bytes read.
    ChecksumMismatch,
    /// The file was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// The policy fingerprint differs: the snapshot was taken under a
    /// different policy, so none of its verdicts may be trusted wholesale.
    PolicyMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Corrupt(m) => write!(f, "snapshot corrupt: {m}"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::VersionMismatch { found } => {
                write!(f, "snapshot format version {found} (expected {VERSION})")
            }
            SnapshotError::PolicyMismatch => {
                write!(f, "snapshot policy fingerprint mismatch")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// Outcome of a successful save.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotSaveReport {
    /// Template entries written.
    pub entries: usize,
    /// File size in bytes.
    pub bytes: u64,
}

/// Outcome of a successful (possibly partially rejected) load.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotLoadReport {
    /// Entries that passed the verification gate and were installed.
    pub loaded: usize,
    /// Entries rejected by the gate (skipped; those templates start cold).
    pub rejected: usize,
    /// File size in bytes.
    pub bytes: u64,
}

/// FNV-1a, the repo's standing content hash.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of the active policy: FNV-1a over each view's name, SQL,
/// and the canonical rendering of its CQ (symbol *names*, never interner
/// ids, so the fingerprint is stable across processes).
pub fn policy_fingerprint(checker: &ComplianceChecker) -> u64 {
    let mut h = Fnv::new();
    for v in checker.policy().views() {
        h.write(v.name.as_bytes());
        h.write(&[0]);
        h.write(v.sql.as_bytes());
        h.write(&[0]);
        h.write(format!("{}", v.cq).as_bytes());
        h.write(&[0xff]);
    }
    h.finish()
}

// ---- byte-level writer ------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        let mut e = Enc { buf: Vec::new() };
        e.buf.extend_from_slice(MAGIC);
        e
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn term(&mut self, t: &Term) {
        match t {
            Term::Var(s) => {
                self.u8(0);
                self.str(s.as_str());
            }
            Term::Param(s) => {
                self.u8(1);
                self.str(s.as_str());
            }
            Term::Const(c) => {
                self.u8(2);
                match c {
                    CVal::Null => self.u8(0),
                    CVal::Int(i) => {
                        self.u8(1);
                        self.i64(*i);
                    }
                    CVal::Str(s) => {
                        self.u8(2);
                        self.str(s.as_str());
                    }
                    CVal::Bool(b) => {
                        self.u8(3);
                        self.u8(*b as u8);
                    }
                }
            }
        }
    }
    fn cq(&mut self, q: &Cq) {
        match q.name {
            Some(n) => {
                self.u8(1);
                self.str(n.as_str());
            }
            None => self.u8(0),
        }
        self.u32(q.head.len() as u32);
        for t in &q.head {
            self.term(t);
        }
        self.u32(q.atoms.len() as u32);
        for a in &q.atoms {
            self.str(a.relation.as_str());
            self.u32(a.args.len() as u32);
            for t in &a.args {
                self.term(t);
            }
        }
        self.u32(q.comparisons.len() as u32);
        for c in &q.comparisons {
            self.term(&c.lhs);
            self.u8(cmp_op_code(c.op));
            self.term(&c.rhs);
        }
    }
    fn seal(mut self) -> Vec<u8> {
        let mut h = Fnv::new();
        h.write(&self.buf);
        let sum = h.finish();
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

fn cmp_op_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_op_of(code: u8) -> Result<CmpOp, SnapshotError> {
    Ok(match code {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        other => return Err(SnapshotError::Corrupt(format!("bad cmp op {other}"))),
    })
}

// ---- byte-level reader ------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SnapshotError::Corrupt("truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| SnapshotError::Corrupt("non-utf8 string".into()))
    }
    fn term(&mut self) -> Result<Term, SnapshotError> {
        Ok(match self.u8()? {
            0 => Term::Var(intern(self.str()?)),
            1 => Term::Param(intern(self.str()?)),
            2 => Term::Const(match self.u8()? {
                0 => CVal::Null,
                1 => CVal::Int(self.i64()?),
                2 => CVal::Str(intern(self.str()?)),
                3 => CVal::Bool(self.u8()? != 0),
                other => return Err(SnapshotError::Corrupt(format!("bad const tag {other}"))),
            }),
            other => return Err(SnapshotError::Corrupt(format!("bad term tag {other}"))),
        })
    }
    fn cq(&mut self) -> Result<Cq, SnapshotError> {
        let name = match self.u8()? {
            0 => None,
            1 => Some(intern(self.str()?)),
            other => return Err(SnapshotError::Corrupt(format!("bad name tag {other}"))),
        };
        let nh = self.u32()? as usize;
        let mut head = Vec::with_capacity(nh.min(1024));
        for _ in 0..nh {
            head.push(self.term()?);
        }
        let na = self.u32()? as usize;
        let mut atoms = Vec::with_capacity(na.min(1024));
        for _ in 0..na {
            let rel = intern(self.str()?);
            let nargs = self.u32()? as usize;
            let mut args = Vec::with_capacity(nargs.min(1024));
            for _ in 0..nargs {
                args.push(self.term()?);
            }
            atoms.push(Atom {
                relation: rel,
                args,
            });
        }
        let nc = self.u32()? as usize;
        let mut comparisons = Vec::with_capacity(nc.min(1024));
        for _ in 0..nc {
            let lhs = self.term()?;
            let op = cmp_op_of(self.u8()?)?;
            let rhs = self.term()?;
            comparisons.push(Comparison::new(lhs, op, rhs));
        }
        let mut q = Cq::new(head, atoms, comparisons);
        q.name = name;
        Ok(q)
    }
}

/// One deserialized (unverified) snapshot entry.
struct RawEntry {
    sql: String,
    /// `None` = undecidable verdict; `Some` = allowed with these
    /// per-disjunct `(rewriting, has_expansion)` certificates.
    certs: Option<Vec<(Cq, bool)>>,
}

/// Serializes every compiled `SELECT` plan's template verdict. The write
/// is atomic (`path.tmp` then rename), so a crash mid-save leaves any
/// previous snapshot intact.
pub fn save_snapshot_file(
    checker: &ComplianceChecker,
    plans: &[Arc<TemplatePlan>],
    path: &Path,
) -> Result<SnapshotSaveReport, SnapshotError> {
    let mut enc = Enc::new();
    enc.u32(VERSION);
    enc.u64(policy_fingerprint(checker));
    let entries: Vec<(&str, &SelectPlan)> = plans
        .iter()
        .filter_map(|p| Some((p.sql(), p.select()?)))
        .collect();
    enc.u32(entries.len() as u32);
    for &(sql, sp) in &entries {
        enc.str(sql);
        match &sp.template {
            TemplateVerdict::Undecidable => enc.u8(0),
            TemplateVerdict::Allowed(certs) => {
                enc.u8(1);
                enc.u32(certs.len() as u32);
                for c in certs {
                    enc.cq(&c.rewriting);
                    enc.u8(c.expansion.is_some() as u8);
                }
            }
        }
    }
    let bytes = enc.seal();
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(SnapshotSaveReport {
        entries: entries.len(),
        bytes: bytes.len() as u64,
    })
}

/// Reads, integrity-checks, and *verification-gates* a snapshot.
///
/// Whole-file gates (magic, version, checksum, policy fingerprint) reject
/// with a typed error — the caller cold-starts. Per-entry gates re-derive
/// the template's translation from the live checker and re-prove each
/// stored certificate with the same mutual-containment check certificate
/// replay uses ([`ComplianceChecker::replay_certificate`] semantics);
/// entries that fail are skipped and counted, never installed. Returns
/// the verified plans (ready for `PlanCache::insert_compiled`) and the
/// rejected count.
pub fn load_snapshot_file(
    checker: &ComplianceChecker,
    path: &Path,
) -> Result<(Vec<Arc<TemplatePlan>>, SnapshotLoadReport), SnapshotError> {
    let bytes = fs::read(path)?;
    if bytes.len() < MAGIC.len() + 4 + 8 + 4 + 8 {
        return Err(SnapshotError::Corrupt("file too short".into()));
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored_sum = u64::from_le_bytes(sum_bytes.try_into().unwrap());
    let mut h = Fnv::new();
    h.write(body);
    if h.finish() != stored_sum {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let mut d = Dec { buf: body, pos: 0 };
    if d.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::Corrupt("bad magic".into()));
    }
    let version = d.u32()?;
    if version != VERSION {
        return Err(SnapshotError::VersionMismatch { found: version });
    }
    if d.u64()? != policy_fingerprint(checker) {
        return Err(SnapshotError::PolicyMismatch);
    }
    let count = d.u32()? as usize;
    let mut raw = Vec::with_capacity(count.min(65_536));
    for _ in 0..count {
        let sql = d.str()?.to_string();
        let certs = match d.u8()? {
            0 => None,
            1 => {
                let n = d.u32()? as usize;
                let mut cs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let rw = d.cq()?;
                    let has_expansion = d.u8()? != 0;
                    cs.push((rw, has_expansion));
                }
                Some(cs)
            }
            other => return Err(SnapshotError::Corrupt(format!("bad verdict tag {other}"))),
        };
        raw.push(RawEntry { sql, certs });
    }
    if d.pos != body.len() {
        return Err(SnapshotError::Corrupt("trailing bytes".into()));
    }

    let mut report = SnapshotLoadReport {
        bytes: bytes.len() as u64,
        ..SnapshotLoadReport::default()
    };
    let mut plans = Vec::with_capacity(raw.len());
    for entry in raw {
        match verify_entry(checker, &entry) {
            Some(plan) => {
                plans.push(Arc::new(plan));
                report.loaded += 1;
            }
            None => report.rejected += 1,
        }
    }
    Ok((plans, report))
}

/// The per-entry verification gate. `None` = reject (cold-start this
/// template); `Some` = a freshly compiled plan with the re-verified
/// verdict installed.
fn verify_entry(checker: &ComplianceChecker, entry: &RawEntry) -> Option<TemplatePlan> {
    let hash = template_hash(&entry.sql);
    // Recompile parse/translate/prune from the live checker — the snapshot
    // contributes only the *verdict*, everything else is current truth.
    let plan = compile_plan(checker, &entry.sql, hash, false, &mut |_| {});
    let sp = plan.select()?;
    let verdict = match &entry.certs {
        // An undecidable verdict is cost-only (the concrete path still
        // decides every request), so with the policy fingerprint already
        // matched it installs without further proof.
        None => TemplateVerdict::Undecidable,
        Some(stored) => {
            let disjuncts = sp.translation.as_ref().ok()?;
            if disjuncts.len() != stored.len() {
                return None;
            }
            let mut certs = Vec::with_capacity(stored.len());
            for (d, (rw, has_expansion)) in disjuncts.iter().zip(stored) {
                if *has_expansion {
                    // Recompute the expansion over the views actually in
                    // force, then demand mutual containment with the live
                    // disjunct — exactly the certificate-replay check.
                    let views = checker.policy().symbolic_subset(&d.view_indices);
                    let expansion = qlogic::expand(rw, &views).ok()?;
                    checker.replay_certificate(&d.template, rw.clone(), &expansion, &[])?;
                    certs.push(Certificate {
                        rewriting: rw.clone(),
                        expansion: Some(expansion),
                    });
                } else {
                    // Unsatisfiability certificate: the disjunct itself
                    // must still be unsatisfiable.
                    if qlogic::satisfiable(&d.template) {
                        return None;
                    }
                    certs.push(Certificate {
                        rewriting: rw.clone(),
                        expansion: None,
                    });
                }
            }
            TemplateVerdict::Allowed(certs)
        }
    };
    Some(plan.with_template_verdict(verdict))
}

/// Convenience: `Io(NotFound)` recognizer so callers can distinguish "no
/// snapshot yet" (silent cold start) from real failures (warn).
pub fn is_not_found(e: &SnapshotError) -> bool {
    matches!(e, SnapshotError::Io(io) if io.kind() == io::ErrorKind::NotFound)
}

impl From<SnapshotError> for CoreError {
    fn from(e: SnapshotError) -> CoreError {
        CoreError::Internal(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::template_hash;
    use crate::policy::{schema_of_database, Policy};
    use minidb::Database;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Template the symbolic proof allows outright (rewrites over `V1`).
    const ALLOWED_SQL: &str = "SELECT EId FROM Attendance WHERE UId = ?MyUId";
    /// Template only the concrete (trace-aware) path can decide.
    const UNDECIDABLE_SQL: &str = "SELECT * FROM Events WHERE EId = ?event";

    fn calendar_db() -> Database {
        let mut db = Database::new();
        db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
            .unwrap();
        db.execute_sql(
            "CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT, PRIMARY KEY (UId, EId))",
        )
        .unwrap();
        db
    }

    fn checker_with_views(views: &[(&str, &str)]) -> ComplianceChecker {
        let schema = schema_of_database(&calendar_db());
        let policy = Policy::from_sql(&schema, views).unwrap();
        ComplianceChecker::new(schema, policy)
    }

    fn checker() -> ComplianceChecker {
        checker_with_views(&[
            ("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
            (
                "V2",
                "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId \
                 WHERE a.UId = ?MyUId",
            ),
        ])
    }

    fn compiled(checker: &ComplianceChecker, sql: &str) -> Arc<TemplatePlan> {
        Arc::new(compile_plan(
            checker,
            sql,
            template_hash(sql),
            true,
            &mut |_| {},
        ))
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "bep-snap-{}-{}-{tag}.bin",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn verdict_of(plan: &TemplatePlan) -> &TemplateVerdict {
        &plan.select().unwrap().template
    }

    #[test]
    fn roundtrip_reinstalls_verified_verdicts() {
        let c = checker();
        let allowed = compiled(&c, ALLOWED_SQL);
        let undecidable = compiled(&c, UNDECIDABLE_SQL);
        assert!(matches!(verdict_of(&allowed), TemplateVerdict::Allowed(_)));
        assert!(matches!(
            verdict_of(&undecidable),
            TemplateVerdict::Undecidable
        ));

        let path = tmp_path("roundtrip");
        let save = save_snapshot_file(&c, &[allowed.clone(), undecidable], &path).unwrap();
        assert_eq!(save.entries, 2);
        assert_eq!(save.bytes, fs::metadata(&path).unwrap().len());

        // A second process: fresh checker, same policy.
        let c2 = checker();
        let (plans, report) = load_snapshot_file(&c2, &path).unwrap();
        assert_eq!(report.loaded, 2);
        assert_eq!(report.rejected, 0);
        let by_sql = |sql: &str| {
            plans
                .iter()
                .find(|p| p.sql() == sql)
                .unwrap_or_else(|| panic!("missing {sql}"))
        };
        let warm = by_sql(ALLOWED_SQL);
        match (verdict_of(&allowed), verdict_of(warm)) {
            (TemplateVerdict::Allowed(orig), TemplateVerdict::Allowed(got)) => {
                assert_eq!(orig.len(), got.len());
                for (o, g) in orig.iter().zip(got) {
                    assert_eq!(o.rewriting, g.rewriting, "rewriting survives roundtrip");
                    assert_eq!(
                        o.expansion, g.expansion,
                        "recomputed expansion matches the saved plan's"
                    );
                }
            }
            other => panic!("verdicts changed across roundtrip: {other:?}"),
        }
        assert!(matches!(
            verdict_of(by_sql(UNDECIDABLE_SQL)),
            TemplateVerdict::Undecidable
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn only_select_plans_are_persisted() {
        let c = checker();
        // Compiled with the template proof off: `Undecidable`, which a
        // load installs as is.
        let bare = Arc::new(compile_plan(
            &c,
            ALLOWED_SQL,
            template_hash(ALLOWED_SQL),
            false,
            &mut |_| {},
        ));
        // Non-SELECT bodies have no verdict.
        let dml = compiled(
            &c,
            "INSERT INTO Events (EId, Title, Kind) VALUES (9, 'x', 'y')",
        );
        let path = tmp_path("selects-only");
        let save = save_snapshot_file(&c, &[bare, dml], &path).unwrap();
        assert_eq!(save.entries, 1);
        let (plans, report) = load_snapshot_file(&c, &path).unwrap();
        assert_eq!((report.loaded, report.rejected), (1, 0));
        assert_eq!(plans[0].sql(), ALLOWED_SQL);
        assert!(matches!(
            verdict_of(&plans[0]),
            TemplateVerdict::Undecidable
        ));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_recognizably_not_found() {
        let c = checker();
        let err = load_snapshot_file(&c, &tmp_path("missing")).unwrap_err();
        assert!(is_not_found(&err), "{err}");
    }

    #[test]
    fn corrupt_byte_fails_the_checksum() {
        let c = checker();
        let path = tmp_path("corrupt");
        save_snapshot_file(&c, &[compiled(&c, ALLOWED_SQL)], &path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = load_snapshot_file(&c, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::ChecksumMismatch), "{err}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_corrupt_not_a_panic() {
        let c = checker();
        let path = tmp_path("truncated");
        save_snapshot_file(&c, &[compiled(&c, ALLOWED_SQL)], &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        let err = load_snapshot_file(&c, &path).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Corrupt(_) | SnapshotError::ChecksumMismatch
            ),
            "{err}"
        );
        fs::remove_file(&path).ok();
    }

    /// Patches the version field and re-seals the checksum, so the version
    /// gate (not the checksum) must reject.
    #[test]
    fn future_format_version_is_rejected() {
        let c = checker();
        let path = tmp_path("version");
        save_snapshot_file(&c, &[compiled(&c, ALLOWED_SQL)], &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        let mut body = bytes[..bytes.len() - 8].to_vec();
        body[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&99u32.to_le_bytes());
        let mut h = Fnv::new();
        h.write(&body);
        body.extend_from_slice(&h.finish().to_le_bytes());
        fs::write(&path, &body).unwrap();
        let err = load_snapshot_file(&c, &path).unwrap_err();
        assert!(
            matches!(err, SnapshotError::VersionMismatch { found: 99 }),
            "{err}"
        );
        fs::remove_file(&path).ok();
    }

    #[test]
    fn policy_change_rejects_the_whole_file() {
        let c = checker();
        let path = tmp_path("policy");
        save_snapshot_file(&c, &[compiled(&c, ALLOWED_SQL)], &path).unwrap();
        // Same first view, but the policy as a whole differs.
        let shrunk = checker_with_views(&[("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId")]);
        let err = load_snapshot_file(&shrunk, &path).unwrap_err();
        assert!(matches!(err, SnapshotError::PolicyMismatch), "{err}");
        fs::remove_file(&path).ok();
    }

    /// A validly-sealed snapshot whose certificate is wrong (an extra
    /// comparison smuggled into the rewriting) must fail the replay gate:
    /// the entry is skipped, nothing is installed, the load succeeds.
    #[test]
    fn tampered_certificate_is_rejected_not_installed() {
        let c = checker();
        let x = intern("X");
        let mut bogus = Cq::new(
            vec![Term::Var(x)],
            vec![Atom::new("V1", vec![Term::Var(x)])],
            vec![Comparison::new(
                Term::Var(x),
                CmpOp::Gt,
                Term::Const(CVal::Int(5)),
            )],
        );
        bogus.name = Some(intern("q"));

        let mut enc = Enc::new();
        enc.u32(VERSION);
        enc.u64(policy_fingerprint(&c));
        enc.u32(1);
        enc.str(ALLOWED_SQL);
        enc.u8(1); // allowed verdict
        enc.u32(1); // one certificate, matching the single disjunct
        enc.cq(&bogus);
        enc.u8(1); // has_expansion
        let path = tmp_path("tampered");
        fs::write(&path, enc.seal()).unwrap();

        let (plans, report) = load_snapshot_file(&c, &path).unwrap();
        assert!(plans.is_empty(), "tampered certificate must not install");
        assert_eq!(report.loaded, 0);
        assert_eq!(report.rejected, 1);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_is_stable_and_policy_sensitive() {
        assert_eq!(
            policy_fingerprint(&checker()),
            policy_fingerprint(&checker())
        );
        let shrunk = checker_with_views(&[("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId")]);
        assert_ne!(policy_fingerprint(&checker()), policy_fingerprint(&shrunk));
    }
}
