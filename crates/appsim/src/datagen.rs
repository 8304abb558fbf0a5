//! Seeded random data population for the simulated applications.
//!
//! Population is *streaming*: each family emits typed rows into a
//! [`BatchSink`] that flushes bounded batches into the database, so peak
//! memory is one batch regardless of scale — there is never a materialized
//! all-rows `Vec`, and no SQL text is formatted or parsed per row.

use minidb::{Database, DbError};
use rand::Rng;
use sqlir::{Text, Value};

/// Data-set scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Number of users (patients/employees for the respective apps).
    pub users: usize,
    /// Number of primary entities (events/groups/doctors).
    pub entities: usize,
    /// Links per user (attendance/membership rows).
    pub links_per_user: usize,
}

impl Scale {
    /// A small data set for tests.
    pub fn small() -> Scale {
        Scale {
            users: 8,
            entities: 6,
            links_per_user: 2,
        }
    }

    /// A medium data set for benchmarks.
    pub fn medium() -> Scale {
        Scale {
            users: 50,
            entities: 30,
            links_per_user: 5,
        }
    }

    /// A larger data set for throughput measurements.
    pub fn large() -> Scale {
        Scale {
            users: 200,
            entities: 100,
            links_per_user: 8,
        }
    }
}

/// User ids start here (kept clear of entity ids so black-box session
/// linking can't confuse a user id with an event id).
pub const FIRST_UID: i64 = 101;

const KINDS: &[&str] = &["work", "fun", "family", "errand"];
const DISEASES: &[&str] = &["pneumonia", "tuberculosis", "flu", "migraine", "asthma"];
const DEPTS: &[&str] = &["eng", "ops", "sales", "legal"];

/// Rows per insert batch; bounds the populate path's peak memory.
pub const BATCH_ROWS: usize = 4096;

/// A batching row sink: buffers consecutive rows for one table and flushes
/// them through [`Database::insert_rows`] when the batch fills or the
/// target table changes. Constraint checks still run per row inside the
/// database; the batching only amortizes call overhead and bounds memory.
pub struct BatchSink<'a> {
    db: &'a mut Database,
    table: String,
    buf: Vec<Vec<Value>>,
    total: usize,
}

impl<'a> BatchSink<'a> {
    /// Wraps a database for streaming population.
    pub fn new(db: &'a mut Database) -> BatchSink<'a> {
        BatchSink {
            db,
            table: String::new(),
            buf: Vec::new(),
            total: 0,
        }
    }

    /// Queues one row for `table`, flushing as needed.
    pub fn push(&mut self, table: &str, row: Vec<Value>) -> Result<(), DbError> {
        if self.table != table {
            self.flush()?;
            self.table = table.to_string();
        }
        self.buf.push(row);
        if self.buf.len() >= BATCH_ROWS {
            self.flush()?;
        }
        Ok(())
    }

    /// Flushes any buffered rows.
    pub fn flush(&mut self) -> Result<(), DbError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let rows = std::mem::take(&mut self.buf);
        self.total += self.db.insert_rows(&self.table, rows)?;
        Ok(())
    }

    /// Total rows inserted so far (flushed only).
    pub fn total(&self) -> usize {
        self.total
    }
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

fn text(s: impl Into<Text>) -> Value {
    Value::str(s)
}

/// Streams the calendar schema's rows.
pub fn stream_calendar(
    sink: &mut BatchSink<'_>,
    rng: &mut impl Rng,
    scale: &Scale,
) -> Result<(), DbError> {
    for u in 0..scale.users {
        let uid = FIRST_UID + u as i64;
        sink.push("Users", vec![int(uid), text(format!("user{u}"))])?;
    }
    for e in 0..scale.entities {
        let eid = 1 + e as i64;
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        sink.push(
            "Events",
            vec![int(eid), text(format!("event{e}")), text(kind)],
        )?;
    }
    for u in 0..scale.users {
        let uid = FIRST_UID + u as i64;
        let mut joined: Vec<i64> = Vec::new();
        for _ in 0..scale.links_per_user {
            let eid = 1 + rng.gen_range(0..scale.entities) as i64;
            if joined.contains(&eid) {
                continue;
            }
            joined.push(eid);
            let notes = if rng.gen_bool(0.3) {
                text(format!("note{u}x{eid}"))
            } else {
                Value::Null
            };
            sink.push("Attendance", vec![int(uid), int(eid), notes])?;
        }
    }
    Ok(())
}

/// Streams the hospital schema's rows.
pub fn stream_hospital(
    sink: &mut BatchSink<'_>,
    rng: &mut impl Rng,
    scale: &Scale,
) -> Result<(), DbError> {
    for p in 0..scale.users {
        let pid = 1 + p as i64;
        sink.push("Patients", vec![int(pid), text(format!("patient{p}"))])?;
    }
    let doctors = scale.entities.max(1);
    for d in 0..doctors {
        let did = 500 + d as i64;
        sink.push("Doctors", vec![int(did), text(format!("dr{d}"))])?;
    }
    for p in 0..scale.users {
        let pid = 1 + p as i64;
        let did = 500 + rng.gen_range(0..doctors) as i64;
        let disease = DISEASES[rng.gen_range(0..DISEASES.len())];
        sink.push("Treatment", vec![int(pid), int(did), text(disease)])?;
    }
    Ok(())
}

/// Streams the employees schema's rows.
pub fn stream_employees(
    sink: &mut BatchSink<'_>,
    rng: &mut impl Rng,
    scale: &Scale,
) -> Result<(), DbError> {
    for e in 0..scale.users {
        let id = 1 + e as i64;
        let age = rng.gen_range(16i64..70);
        let dept = DEPTS[rng.gen_range(0..DEPTS.len())];
        let salary = rng.gen_range(50i64..250) * 1000;
        sink.push(
            "Employees",
            vec![
                int(id),
                text(format!("emp{e}")),
                int(age),
                text(dept),
                int(salary),
            ],
        )?;
    }
    Ok(())
}

/// Streams the forum schema's rows.
pub fn stream_forum(
    sink: &mut BatchSink<'_>,
    rng: &mut impl Rng,
    scale: &Scale,
) -> Result<(), DbError> {
    for u in 0..scale.users {
        let uid = FIRST_UID + u as i64;
        sink.push("Users", vec![int(uid), text(format!("user{u}"))])?;
    }
    for g in 0..scale.entities {
        let gid = 1 + g as i64;
        let public = rng.gen_bool(0.25);
        sink.push(
            "Groups",
            vec![int(gid), text(format!("group{g}")), Value::Bool(public)],
        )?;
    }
    for u in 0..scale.users {
        let uid = FIRST_UID + u as i64;
        let mut joined: Vec<i64> = Vec::new();
        for _ in 0..scale.links_per_user {
            let gid = 1 + rng.gen_range(0..scale.entities) as i64;
            if joined.contains(&gid) {
                continue;
            }
            joined.push(gid);
            let role = if rng.gen_bool(0.1) { "admin" } else { "member" };
            sink.push("Membership", vec![int(uid), int(gid), text(role)])?;
        }
    }
    let posts = scale.entities * 2;
    for p in 0..posts {
        let pid = 1000 + p as i64;
        let gid = 1 + rng.gen_range(0..scale.entities) as i64;
        let author = FIRST_UID + rng.gen_range(0..scale.users) as i64;
        sink.push(
            "Posts",
            vec![
                int(pid),
                int(gid),
                int(author),
                text(format!("post{p}")),
                text(format!("body of post {p}")),
            ],
        )?;
        // A couple of comments per post.
        for c in 0..rng.gen_range(0..3) {
            let cid = pid * 10 + c;
            let commenter = FIRST_UID + rng.gen_range(0..scale.users) as i64;
            sink.push(
                "Comments",
                vec![
                    int(cid),
                    int(pid),
                    int(commenter),
                    text(format!("comment {cid}")),
                ],
            )?;
        }
    }
    Ok(())
}

/// Streams the wiki schema's rows. The space distribution is deliberately
/// skewed (most documents land in the first space) so that small workloads
/// leave the analytics probe's space id invariant — the trap active
/// constraint discovery exists to undo.
pub fn stream_wiki(
    sink: &mut BatchSink<'_>,
    rng: &mut impl Rng,
    scale: &Scale,
) -> Result<(), DbError> {
    for u in 0..scale.users {
        let uid = FIRST_UID + u as i64;
        sink.push("Users", vec![int(uid), text(format!("user{u}"))])?;
    }
    let spaces = scale.entities.clamp(2, 8);
    for s in 0..spaces {
        let sid = 1 + s as i64;
        sink.push("Spaces", vec![int(sid), text(format!("space{s}"))])?;
    }
    for u in 0..scale.users {
        let uid = FIRST_UID + u as i64;
        let mut joined: Vec<i64> = vec![1]; // everyone can read space 1
        sink.push("Access", vec![int(uid), int(1)])?;
        for _ in 0..scale.links_per_user {
            let sid = 1 + rng.gen_range(0..spaces) as i64;
            if joined.contains(&sid) {
                continue;
            }
            joined.push(sid);
            sink.push("Access", vec![int(uid), int(sid)])?;
        }
    }
    for d in 0..scale.entities * 2 {
        let did = 100 + d as i64;
        // Skewed: 80% of documents live in space 1.
        let sid = if rng.gen_bool(0.8) {
            1
        } else {
            1 + rng.gen_range(0..spaces) as i64
        };
        sink.push(
            "Docs",
            vec![
                int(did),
                int(sid),
                text(format!("doc{d}")),
                text(format!("body of doc {d}")),
            ],
        )?;
    }
    Ok(())
}

/// Streams the named application's rows into `sink`.
pub fn stream_app(
    name: &str,
    sink: &mut BatchSink<'_>,
    rng: &mut impl Rng,
    scale: &Scale,
) -> Result<(), DbError> {
    match name {
        "calendar" => stream_calendar(sink, rng, scale),
        "hospital" => stream_hospital(sink, rng, scale),
        "employees" => stream_employees(sink, rng, scale),
        "forum" => stream_forum(sink, rng, scale),
        "wiki" => stream_wiki(sink, rng, scale),
        other => panic!("unknown app {other}"),
    }
}

/// Populates the database for the named application, returning the number
/// of rows inserted.
pub fn populate_app(
    name: &str,
    db: &mut Database,
    rng: &mut impl Rng,
    scale: &Scale,
) -> Result<usize, DbError> {
    let mut sink = BatchSink::new(db);
    stream_app(name, &mut sink, rng, scale)?;
    sink.flush()?;
    Ok(sink.total())
}

/// Populates the calendar schema (thin wrapper over the streaming API).
pub fn seed_calendar(db: &mut Database, rng: &mut impl Rng, scale: &Scale) {
    populate_app("calendar", db, rng, scale).expect("seed calendar");
}

/// Populates the forum schema (thin wrapper over the streaming API).
pub fn seed_forum(db: &mut Database, rng: &mut impl Rng, scale: &Scale) {
    populate_app("forum", db, rng, scale).expect("seed forum");
}

/// Seeds the database for the named application.
pub fn seed_app(name: &str, db: &mut Database, rng: &mut impl Rng, scale: &Scale) {
    populate_app(name, db, rng, scale).expect("seed app");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CALENDAR, EMPLOYEES, FORUM, HOSPITAL, WIKI};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn seeding_respects_constraints() {
        let mut rng = SmallRng::seed_from_u64(7);
        for app in [&CALENDAR, &HOSPITAL, &EMPLOYEES, &FORUM, &WIKI] {
            let mut db = app.empty_db();
            seed_app(app.name, &mut db, &mut rng, &Scale::small());
            assert!(db.total_rows() > 0, "{} seeded", app.name);
        }
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut db1 = CALENDAR.empty_db();
        let mut db2 = CALENDAR.empty_db();
        seed_calendar(&mut db1, &mut SmallRng::seed_from_u64(42), &Scale::small());
        seed_calendar(&mut db2, &mut SmallRng::seed_from_u64(42), &Scale::small());
        assert_eq!(
            db1.query_sql("SELECT UId, EId FROM Attendance ORDER BY UId, EId")
                .unwrap(),
            db2.query_sql("SELECT UId, EId FROM Attendance ORDER BY UId, EId")
                .unwrap(),
        );
    }

    #[test]
    fn scales_grow() {
        let mut small = FORUM.empty_db();
        let mut medium = FORUM.empty_db();
        seed_forum(&mut small, &mut SmallRng::seed_from_u64(1), &Scale::small());
        seed_forum(
            &mut medium,
            &mut SmallRng::seed_from_u64(1),
            &Scale::medium(),
        );
        assert!(medium.total_rows() > small.total_rows());
    }

    #[test]
    fn populate_reports_row_count() {
        let mut db = CALENDAR.empty_db();
        let n = populate_app(
            "calendar",
            &mut db,
            &mut SmallRng::seed_from_u64(3),
            &Scale::small(),
        )
        .unwrap();
        assert_eq!(n, db.total_rows());
    }
}
