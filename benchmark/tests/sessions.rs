//! The client's bound on what one session serves: it holds, and the
//! slots' first renewals are spread evenly over it.

use std::collections::BTreeMap;

use appsim::AppSpec;
use bep_benchmark::drive::{Driver, Reply, Target};
use bep_scenario::{fleet, TrafficConfig};
use sqlir::Value;

/// Counts the statements each session served and blocks every one, so a
/// handler request is exactly one statement.
#[derive(Default)]
struct Counting {
    begun: u64,
    live: BTreeMap<u64, u64>,
    ended: Vec<u64>,
}

impl Target for Counting {
    fn begin(&mut self, _uid: i64) -> Result<u64, String> {
        self.begun += 1;
        self.live.insert(self.begun, 0);
        Ok(self.begun)
    }

    fn end(&mut self, session: u64) -> Result<(), String> {
        let served = self.live.remove(&session).ok_or("no such session")?;
        self.ended.push(served);
        Ok(())
    }

    fn execute(&mut self, session: u64, _: &str, _: &[(String, Value)]) -> Result<Reply, String> {
        *self.live.get_mut(&session).ok_or("no such session")? += 1;
        Ok(Reply::Blocked {
            reason: "test".to_string(),
            detail: String::new(),
        })
    }
}

#[test]
fn sessions_are_renewed_at_the_bound_and_the_first_renewals_are_staggered() {
    let app = &fleet(11, 256)[0];
    let parsed = app.app();
    // Sessions the engine all but never ends: every end is a renewal.
    let cfg = TrafficConfig {
        target_sessions: 4,
        mean_session_len: 1e6,
        ..TrafficConfig::default()
    };
    let mut driver =
        Driver::new(app, &parsed, cfg, 5, Counting::default(), false).with_max_session_len(Some(8));
    for _ in 0..400 {
        driver.step();
    }
    let ended = &driver.target.ended;
    let mut first = ended[..4].to_vec();
    first.sort_unstable();
    assert_eq!(first, [2, 4, 6, 8]);
    assert!(ended.len() > 40, "{} sessions ended", ended.len());
    assert!(ended[4..].iter().all(|&n| n == 8), "{ended:?}");
    assert_eq!(driver.target.live.len(), 4);
}

#[test]
fn unbounded_sessions_are_never_renewed() {
    let app = &fleet(11, 256)[0];
    let parsed = app.app();
    let cfg = TrafficConfig {
        target_sessions: 4,
        mean_session_len: 1e6,
        ..TrafficConfig::default()
    };
    let mut driver = Driver::new(app, &parsed, cfg, 5, Counting::default(), false);
    for _ in 0..400 {
        driver.step();
    }
    assert_eq!((driver.target.begun, driver.target.ended.len()), (4, 0));
}
