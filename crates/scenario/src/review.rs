//! The conference-review family: conflict-of-interest gating (HotCRP-style).
//!
//! Every user is a PC member. Reviews are readable PC-wide *except* for
//! papers where the reader is conflicted or an author — negations the
//! handler enforces against the positive `MyConflicts`/`MyAuthorships`
//! views while the policy over-approximates review visibility.

use crate::fleet::uid;
use crate::rng::{substream, SplitMix64};
use appdsl::Request;
use appsim::BatchSink;
use minidb::DbError;
use rand::Rng;
use sqlir::{Text, Value};

const TAG_AUTHOR: u64 = 21;
const TAG_CONFLICT: u64 = 22;
const TAG_REVIEW: u64 = 23;

pub(crate) const TEMPLATES: usize = 5;

pub(crate) fn ddl() -> Vec<String> {
    vec![
        "CREATE TABLE Users (UId INT PRIMARY KEY, Name TEXT NOT NULL)".into(),
        "CREATE TABLE Papers (PaperId INT PRIMARY KEY, Title TEXT NOT NULL, \
         Track INT NOT NULL)"
            .into(),
        "CREATE TABLE Authors (PaperId INT NOT NULL, UId INT NOT NULL, \
         PRIMARY KEY (PaperId, UId), \
         FOREIGN KEY (PaperId) REFERENCES Papers (PaperId), \
         FOREIGN KEY (UId) REFERENCES Users (UId))"
            .into(),
        "CREATE TABLE Conflicts (PaperId INT NOT NULL, UId INT NOT NULL, \
         PRIMARY KEY (PaperId, UId), \
         FOREIGN KEY (PaperId) REFERENCES Papers (PaperId), \
         FOREIGN KEY (UId) REFERENCES Users (UId))"
            .into(),
        "CREATE TABLE Reviews (RId INT PRIMARY KEY, PaperId INT NOT NULL, \
         UId INT NOT NULL, Score INT NOT NULL, Body TEXT NOT NULL, \
         FOREIGN KEY (PaperId) REFERENCES Papers (PaperId), \
         FOREIGN KEY (UId) REFERENCES Users (UId))"
            .into(),
    ]
}

pub(crate) const SOURCE: &str = r#"
    handler paper_list(track) {
        emit sql("SELECT PaperId, Title FROM Papers WHERE Track = ?track");
    }

    handler my_papers() {
        emit sql("SELECT p.PaperId, p.Title FROM Papers p
                  JOIN Authors a ON p.PaperId = a.PaperId WHERE a.UId = ?MyUId");
    }

    handler my_conflicts() {
        emit sql("SELECT PaperId FROM Conflicts WHERE UId = ?MyUId");
    }

    handler paper_reviews(paper_id) {
        let c = sql("SELECT 1 FROM Conflicts
                     WHERE PaperId = ?paper_id AND UId = ?MyUId");
        if !c.is_empty() {
            abort(403);
        }
        let a = sql("SELECT 1 FROM Authors
                     WHERE PaperId = ?paper_id AND UId = ?MyUId");
        if !a.is_empty() {
            abort(403);
        }
        emit sql("SELECT RId, Score, Body FROM Reviews WHERE PaperId = ?paper_id");
    }

    handler submit_review(review_id, paper_id, score, body) {
        let c = sql("SELECT 1 FROM Conflicts
                     WHERE PaperId = ?paper_id AND UId = ?MyUId");
        if !c.is_empty() {
            abort(403);
        }
        run sql("INSERT INTO Reviews (RId, PaperId, UId, Score, Body)
                 VALUES (?review_id, ?paper_id, ?MyUId, ?score, ?body)");
    }
"#;

pub(crate) fn ground_truth() -> Vec<(String, String)> {
    [
        // `Track` is in the head so the track-scoped listing is expressible
        // as a selection over the view (a column absent from the head cannot
        // be selected on in any rewriting).
        ("AllPapers", "SELECT PaperId, Title, Track FROM Papers"),
        (
            "MyAuthorships",
            "SELECT PaperId, UId FROM Authors WHERE UId = ?MyUId",
        ),
        (
            "MyConflicts",
            "SELECT PaperId, UId FROM Conflicts WHERE UId = ?MyUId",
        ),
        // The app reveals any review to any non-conflicted PC member, and
        // conflict absence is not expressible in a conjunctive view — the
        // policy over-approximates, the handlers narrow (Section 3's
        // enforcement/ground-truth gap).
        (
            "PcReviews",
            "SELECT RId, PaperId, UId, Score, Body FROM Reviews",
        ),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_string(), s.to_string()))
    .collect()
}

/// Number of submission tracks for a fleet of `users`: sized so a track
/// listing stays ~64 papers regardless of scale (papers average one per
/// user), keeping `paper_list` responses bounded at any fleet size.
pub(crate) fn track_count(users: u64) -> u64 {
    (users / 64).max(1)
}

/// The track a paper belongs to — pure in `(pid, users)`.
pub(crate) fn track_of(pid: i64, users: u64) -> i64 {
    pid % track_count(users) as i64
}

/// Papers authored by user `i` — pure in `(seed, i)`.
pub(crate) fn papers_of(seed: u64, i: u64) -> Vec<i64> {
    let mut rng = substream(seed, &[TAG_AUTHOR, i]);
    let a = rng.gen_range(0..=2u64);
    (0..a).map(|k| uid(i) * 8 + k as i64).collect()
}

/// Paper ids user `i` is conflicted with (beyond their own papers).
pub(crate) fn conflicts_of(seed: u64, i: u64, n: u64) -> Vec<i64> {
    let mut rng = substream(seed, &[TAG_CONFLICT, i]);
    let c = rng.gen_range(0..3u64);
    let mut out = Vec::new();
    for _ in 0..c {
        let j = rng.gen_range(0..n);
        if j == i {
            continue;
        }
        let ps = papers_of(seed, j);
        if ps.is_empty() {
            continue;
        }
        let pid = ps[rng.gen_range(0..ps.len())];
        if !out.contains(&pid) {
            out.push(pid);
        }
    }
    out
}

/// User `i`'s seeded reviews as `(rid, paper, score)` — skips own and
/// conflicted papers, mirroring the handler's gate.
pub(crate) fn reviews_of(seed: u64, i: u64, n: u64) -> Vec<(i64, i64, i64)> {
    let mut rng = substream(seed, &[TAG_REVIEW, i]);
    let conflicts = conflicts_of(seed, i, n);
    let r = rng.gen_range(0..4u64);
    let mut out = Vec::new();
    for k in 0..r {
        let j = rng.gen_range(0..n);
        if j == i {
            continue;
        }
        let ps = papers_of(seed, j);
        if ps.is_empty() {
            continue;
        }
        let pid = ps[rng.gen_range(0..ps.len())];
        if conflicts.contains(&pid) || out.iter().any(|&(_, p, _)| p == pid) {
            continue;
        }
        let score = 1 + rng.gen_range(0..5i64);
        out.push((uid(i) * 8 + k as i64, pid, score));
    }
    out
}

pub(crate) fn populate(sink: &mut BatchSink, seed: u64, users: u64) -> Result<(), DbError> {
    for i in 0..users {
        sink.push(
            "Users",
            vec![
                Value::Int(uid(i)),
                Value::Str(Text::format(format_args!("user{i}"))),
            ],
        )?;
    }
    for i in 0..users {
        for pid in papers_of(seed, i) {
            sink.push(
                "Papers",
                vec![
                    Value::Int(pid),
                    Value::Str(Text::format(format_args!("paper {pid}"))),
                    Value::Int(track_of(pid, users)),
                ],
            )?;
        }
    }
    for i in 0..users {
        for pid in papers_of(seed, i) {
            sink.push("Authors", vec![Value::Int(pid), Value::Int(uid(i))])?;
        }
    }
    for i in 0..users {
        for pid in conflicts_of(seed, i, users) {
            sink.push("Conflicts", vec![Value::Int(pid), Value::Int(uid(i))])?;
        }
    }
    for i in 0..users {
        for (rid, pid, score) in reviews_of(seed, i, users) {
            sink.push(
                "Reviews",
                vec![
                    Value::Int(rid),
                    Value::Int(pid),
                    Value::Int(uid(i)),
                    Value::Int(score),
                    Value::str("seeded review"),
                ],
            )?;
        }
    }
    Ok(())
}

fn session(i: u64) -> Vec<(String, Value)> {
    vec![("MyUId".to_string(), Value::Int(uid(i)))]
}

/// A paper user `i` may review/read: not their own, not conflicted.
fn readable_paper(seed: u64, users: u64, i: u64, rng: &mut SplitMix64) -> Option<i64> {
    let conflicts = conflicts_of(seed, i, users);
    for _ in 0..8 {
        let j = rng.gen_range(0..users);
        if j == i {
            continue;
        }
        let ps = papers_of(seed, j);
        if ps.is_empty() {
            continue;
        }
        let pid = ps[rng.gen_range(0..ps.len())];
        if !conflicts.contains(&pid) {
            return Some(pid);
        }
    }
    None
}

/// A track-scoped paper listing for a random track.
fn list_request(users: u64, i: u64, rng: &mut SplitMix64) -> Request {
    let track = rng.gen_range(0..track_count(users)) as i64;
    Request {
        handler: "paper_list".into(),
        session: session(i),
        params: vec![("track".into(), Value::Int(track))],
    }
}

pub(crate) fn authorized(
    seed: u64,
    users: u64,
    i: u64,
    template: usize,
    rng: &mut SplitMix64,
    fresh: &mut i64,
) -> Request {
    match template {
        0 => list_request(users, i, rng),
        1 => match readable_paper(seed, users, i, rng) {
            Some(pid) => Request {
                handler: "paper_reviews".into(),
                session: session(i),
                params: vec![("paper_id".into(), Value::Int(pid))],
            },
            None => list_request(users, i, rng),
        },
        2 => Request {
            handler: "my_papers".into(),
            session: session(i),
            params: vec![],
        },
        3 => Request {
            handler: "my_conflicts".into(),
            session: session(i),
            params: vec![],
        },
        _ => match readable_paper(seed, users, i, rng) {
            Some(pid) => {
                *fresh += 1;
                Request {
                    handler: "submit_review".into(),
                    session: session(i),
                    params: vec![
                        ("review_id".into(), Value::Int(*fresh)),
                        ("paper_id".into(), Value::Int(pid)),
                        ("score".into(), Value::Int(1 + rng.gen_range(0..5i64))),
                        ("body".into(), Value::str("generated review")),
                    ],
                }
            }
            None => Request {
                handler: "my_papers".into(),
                session: session(i),
                params: vec![],
            },
        },
    }
}

pub(crate) fn probe(seed: u64, users: u64, i: u64, _rng: &mut SplitMix64) -> Request {
    // Probe reviews of a paper the session is barred from: a conflicted
    // paper when one exists, else the user's own paper, else a paper id
    // that does not exist (404 path).
    let conflicts = conflicts_of(seed, i, users);
    let own = papers_of(seed, i);
    let pid = conflicts
        .first()
        .or_else(|| own.first())
        .copied()
        .unwrap_or(-1);
    Request {
        handler: "paper_reviews".into(),
        session: session(i),
        params: vec![("paper_id".into(), Value::Int(pid))],
    }
}

pub(crate) fn raw_probe(users: u64, i: u64, rng: &mut SplitMix64) -> String {
    // Someone else's conflict list is in no view: always denied.
    let mut j = (i + 1) % users.max(1);
    for _ in 0..8 {
        let cand = rng.gen_range(0..users.max(1));
        if cand != i {
            j = cand;
            break;
        }
    }
    format!("SELECT PaperId FROM Conflicts WHERE UId = {}", uid(j))
}

pub(crate) fn raw_write_probe(
    _seed: u64,
    users: u64,
    i: u64,
    rng: &mut SplitMix64,
    fresh: &mut i64,
) -> String {
    // Tamper with another PC member's conflict or authorship records:
    // `MyConflicts`/`MyAuthorships` pin UId to the session, so every such
    // row is uncoverable. (Reviews are deliberately avoided — `PcReviews`
    // exposes the whole table, so any Reviews insert is policy-allowed
    // and only the handler's conflict check narrows it.)
    let mut j = (i + 1) % users.max(1);
    for _ in 0..8 {
        let cand = rng.gen_range(0..users.max(1));
        if cand != i {
            j = cand;
            break;
        }
    }
    match rng.gen_range(0..3u64) {
        0 => {
            *fresh += 1;
            format!(
                "INSERT INTO Conflicts (PaperId, UId) VALUES ({}, {})",
                *fresh,
                uid(j)
            )
        }
        1 => format!("DELETE FROM Conflicts WHERE UId = {}", uid(j)),
        _ => {
            *fresh += 1;
            format!(
                "INSERT INTO Authors (PaperId, UId) VALUES ({}, {})",
                *fresh,
                uid(j)
            )
        }
    }
}
