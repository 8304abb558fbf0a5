//! Span self-time arithmetic on a hand-built tree.

use bep_benchmark::span::{self_times, Span, SpanLog};

fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        req: 0,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_is_duration_minus_what_direct_children_cover() {
    //  0 op       [0 ........................ 100]
    //  1   exec       [10 ...... 40]
    //  2     db          [15 . 25]
    //  3   exec                     [50 ... 80]
    //  4 lone                                      [200 . 230]
    let spans = [
        span("loadgen.op", None, 0, 100),
        span("core.execute", Some(0), 10, 40),
        span("minidb.exec", Some(1), 15, 25),
        span("core.execute", Some(0), 50, 80),
        span("loadgen.op", None, 200, 230),
    ];
    // Grandchildren count against their parent only: 100 - (30 + 30).
    assert_eq!(self_times(&spans), vec![40, 20, 10, 30, 30]);
    let total: u64 = self_times(&spans[..4]).iter().sum();
    assert_eq!(total, 100, "self times of a tree add up to its root");
}

#[test]
fn a_child_is_clipped_to_its_parents_interval() {
    let spans = [
        span("parent", None, 100, 200),
        span("early", Some(0), 90, 110),
        span("late", Some(0), 190, 250),
        span("outside", Some(0), 300, 400),
    ];
    assert_eq!(self_times(&spans)[0], 100 - 10 - 10);
}

#[test]
fn the_log_nests_timed_spans_under_an_open_one_and_keeps_links_when_absorbed() {
    let mut log = SpanLog::default();
    let op = log.open("loadgen.op", 7);
    let got = log.time("core.execute", 3, Some(op), || 42);
    log.close(op);
    assert_eq!(got, 42);
    let [parent, child] = log.spans() else {
        panic!("two spans")
    };
    assert_eq!(
        (parent.name, parent.req, parent.parent),
        ("loadgen.op", 7, None)
    );
    assert_eq!(
        (child.name, child.req, child.parent),
        ("core.execute", 3, Some(0))
    );
    assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
    assert_eq!(log.durations("core.execute"), vec![child.duration_ns()]);

    let mut all = SpanLog::default();
    all.time("minidb.exec", 0, None, || ());
    all.absorb(log);
    assert_eq!(all.spans()[2].parent, Some(1), "parent links are rebased");
}
