//! The social-graph family: followers, blocks, and per-author post
//! visibility (a Diaspora-style ACL).
//!
//! The access rule the app enforces is *follow AND not blocked*: a user
//! sees an author's posts only if they follow the author and the author
//! has not blocked them. Conjunctive-query policies cannot express the
//! negation, so — as in real proxied apps — the block check lives in
//! handler code against a *positive* view (`MyBlockers`), and the policy
//! over-approximates with the follow-edge views.
//!
//! All adjacency is derived from per-user substreams: user `i`'s followee
//! list is a pure function of `(seed, i)`, so the traffic engine re-derives
//! authorized targets in `O(degree)` without materializing the graph.

use crate::fleet::uid;
use crate::rng::{substream, SplitMix64};
use appdsl::Request;
use appsim::BatchSink;
use minidb::DbError;
use rand::Rng;
use sqlir::{Text, Value};

const TAG_FOLLOW: u64 = 1;
const TAG_BLOCK: u64 = 2;
const TAG_POST: u64 = 3;

pub(crate) const TEMPLATES: usize = 4;

pub(crate) fn ddl() -> Vec<String> {
    vec![
        "CREATE TABLE Users (UId INT PRIMARY KEY, Name TEXT NOT NULL)".into(),
        "CREATE TABLE Follows (FollowerId INT NOT NULL, FolloweeId INT NOT NULL, \
         PRIMARY KEY (FollowerId, FolloweeId), \
         FOREIGN KEY (FollowerId) REFERENCES Users (UId), \
         FOREIGN KEY (FolloweeId) REFERENCES Users (UId))"
            .into(),
        "CREATE TABLE Blocks (BlockerId INT NOT NULL, BlockedId INT NOT NULL, \
         PRIMARY KEY (BlockerId, BlockedId), \
         FOREIGN KEY (BlockerId) REFERENCES Users (UId), \
         FOREIGN KEY (BlockedId) REFERENCES Users (UId))"
            .into(),
        "CREATE TABLE Posts (PId INT PRIMARY KEY, AuthorId INT NOT NULL, \
         Title TEXT NOT NULL, Body TEXT NOT NULL, \
         FOREIGN KEY (AuthorId) REFERENCES Users (UId))"
            .into(),
    ]
}

pub(crate) const SOURCE: &str = r#"
    handler feed() {
        emit sql("SELECT p.PId, p.Title, p.AuthorId FROM Follows f
                  JOIN Posts p ON f.FolloweeId = p.AuthorId
                  WHERE f.FollowerId = ?MyUId");
    }

    handler view_author(author_id) {
        let b = sql("SELECT 1 FROM Blocks
                     WHERE BlockerId = ?author_id AND BlockedId = ?MyUId");
        if !b.is_empty() {
            abort(403);
        }
        let f = sql("SELECT 1 FROM Follows
                     WHERE FollowerId = ?MyUId AND FolloweeId = ?author_id");
        if f.is_empty() {
            abort(403);
        }
        emit sql("SELECT PId, Title, Body FROM Posts WHERE AuthorId = ?author_id");
    }

    handler my_followers() {
        emit sql("SELECT FollowerId FROM Follows WHERE FolloweeId = ?MyUId");
    }

    handler add_post(post_id, title, body) {
        run sql("INSERT INTO Posts (PId, AuthorId, Title, Body)
                 VALUES (?post_id, ?MyUId, ?title, ?body)");
    }
"#;

pub(crate) fn ground_truth() -> Vec<(String, String)> {
    [
        (
            "MyFolloweePosts",
            "SELECT p.PId, p.Title, p.Body, p.AuthorId FROM Posts p \
             JOIN Follows f ON f.FolloweeId = p.AuthorId WHERE f.FollowerId = ?MyUId",
        ),
        (
            "MyFollowees",
            "SELECT FollowerId, FolloweeId FROM Follows WHERE FollowerId = ?MyUId",
        ),
        (
            "MyFollowers",
            "SELECT FollowerId, FolloweeId FROM Follows WHERE FolloweeId = ?MyUId",
        ),
        // The handler-level block check reveals who blocked *me* (the
        // 403 is observable); the policy names that disclosure.
        (
            "MyBlockers",
            "SELECT BlockerId, BlockedId FROM Blocks WHERE BlockedId = ?MyUId",
        ),
        (
            "MyOwnPosts",
            "SELECT PId, Title, Body, AuthorId FROM Posts WHERE AuthorId = ?MyUId",
        ),
    ]
    .into_iter()
    .map(|(n, s)| (n.to_string(), s.to_string()))
    .collect()
}

/// Distinct indices `!= i` drawn from `rng`, at most `k` of them.
fn distinct_targets(rng: &mut SplitMix64, i: u64, n: u64, k: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if n < 2 {
        return out;
    }
    let mut attempts = 0;
    while (out.len() as u64) < k && attempts < 8 * k {
        attempts += 1;
        let j = rng.gen_range(0..n);
        if j != i && !out.contains(&j) {
            out.push(j);
        }
    }
    out
}

/// User `i`'s followees — a pure function of `(seed, i)`.
pub(crate) fn followees(seed: u64, i: u64, n: u64) -> Vec<u64> {
    let mut rng = substream(seed, &[TAG_FOLLOW, i]);
    let k = (2 + rng.gen_range(0..6u64)).min(n.saturating_sub(1));
    distinct_targets(&mut rng, i, n, k)
}

/// Users blocked *by* user `i` — most users block nobody.
pub(crate) fn blocked_by(seed: u64, i: u64, n: u64) -> Vec<u64> {
    let mut rng = substream(seed, &[TAG_BLOCK, i]);
    if !rng.gen_bool(0.15) {
        return Vec::new();
    }
    let k = 1 + rng.gen_range(0..2u64);
    distinct_targets(&mut rng, i, n, k)
}

/// How many posts user `i` seeds.
pub(crate) fn post_count(seed: u64, i: u64) -> u64 {
    substream(seed, &[TAG_POST, i]).gen_range(1..=4u64)
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
        for j in followees(seed, i, users) {
            sink.push("Follows", vec![Value::Int(uid(i)), Value::Int(uid(j))])?;
        }
    }
    for i in 0..users {
        for j in blocked_by(seed, i, users) {
            sink.push("Blocks", vec![Value::Int(uid(i)), Value::Int(uid(j))])?;
        }
    }
    for i in 0..users {
        for k in 0..post_count(seed, i) {
            sink.push(
                "Posts",
                vec![
                    Value::Int(uid(i) * 16 + k as i64),
                    Value::Int(uid(i)),
                    Value::Str(Text::format(format_args!("post {k} of user{i}"))),
                    Value::str("lorem ipsum"),
                ],
            )?;
        }
    }
    Ok(())
}

fn session(i: u64) -> Vec<(String, Value)> {
    vec![("MyUId".to_string(), Value::Int(uid(i)))]
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
        0 => Request {
            handler: "feed".into(),
            session: session(i),
            params: vec![],
        },
        1 => {
            // Visit an author I follow; fall back to the feed when the
            // derived followee list came up empty.
            let f = followees(seed, i, users);
            match f.is_empty() {
                true => Request {
                    handler: "feed".into(),
                    session: session(i),
                    params: vec![],
                },
                false => {
                    let j = f[rng.gen_range(0..f.len())];
                    Request {
                        handler: "view_author".into(),
                        session: session(i),
                        params: vec![("author_id".into(), Value::Int(uid(j)))],
                    }
                }
            }
        }
        2 => Request {
            handler: "my_followers".into(),
            session: session(i),
            params: vec![],
        },
        _ => {
            *fresh += 1;
            Request {
                handler: "add_post".into(),
                session: session(i),
                params: vec![
                    ("post_id".into(), Value::Int(*fresh)),
                    ("title".into(), Value::str("fresh post")),
                    ("body".into(), Value::str("generated")),
                ],
            }
        }
    }
}

pub(crate) fn probe(seed: u64, users: u64, i: u64, rng: &mut SplitMix64) -> Request {
    // Probe an author I do *not* follow (or who blocked me): the handler
    // answers 403 and the enforcement layer sees the gating queries.
    let f = followees(seed, i, users);
    let mut j = (i + 1) % users.max(1);
    for _ in 0..8 {
        let cand = rng.gen_range(0..users.max(1));
        if cand != i && !f.contains(&cand) {
            j = cand;
            break;
        }
    }
    Request {
        handler: "view_author".into(),
        session: session(i),
        params: vec![("author_id".into(), Value::Int(uid(j)))],
    }
}

pub(crate) fn raw_probe(users: u64, i: u64, rng: &mut SplitMix64) -> String {
    // Another user's block list is in no view: always denied.
    let mut j = (i + 1) % users.max(1);
    for _ in 0..8 {
        let cand = rng.gen_range(0..users.max(1));
        if cand != i {
            j = cand;
            break;
        }
    }
    format!("SELECT BlockedId FROM Blocks WHERE BlockerId = {}", uid(j))
}

pub(crate) fn raw_write_probe(
    seed: u64,
    users: u64,
    i: u64,
    rng: &mut SplitMix64,
    fresh: &mut i64,
) -> String {
    // Mutate the posts of an author user `i` does *not* follow: neither
    // `MyOwnPosts` (AuthorId pinned to the session) nor `MyFolloweePosts`
    // (needs a `Follows(me, author)` fact, which a non-followee can never
    // witness) covers the written rows — always denied. Followees are
    // excluded precisely because write coverage, like read compliance, is
    // trace-aware: a followee's posts *are* in `MyFolloweePosts`.
    let f = followees(seed, i, users);
    let mut j = (i + 1) % users.max(1);
    for _ in 0..8 {
        let cand = rng.gen_range(0..users.max(1));
        if cand != i && !f.contains(&cand) {
            j = cand;
            break;
        }
    }
    match rng.gen_range(0..3u64) {
        0 => {
            *fresh += 1;
            format!(
                "INSERT INTO Posts (PId, AuthorId, Title, Body) \
                 VALUES ({}, {}, 'spoofed', 'x')",
                *fresh,
                uid(j)
            )
        }
        1 => format!(
            "UPDATE Posts SET Title = 'defaced' WHERE AuthorId = {}",
            uid(j)
        ),
        _ => format!("DELETE FROM Posts WHERE AuthorId = {}", uid(j)),
    }
}
