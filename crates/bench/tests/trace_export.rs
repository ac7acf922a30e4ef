//! Chrome-trace export well-formedness: the showcase run produces a
//! structurally valid trace covering every instrumented layer.
//!
//! Checks three properties a chrome://tracing / Perfetto import relies on:
//!
//! 1. **Balanced spans** — per logical thread, `B`/`E` phases nest with
//!    strict stack discipline (every `E` closes the innermost open `B` of
//!    the same name).
//! 2. **Monotone timestamps** — per logical thread, event timestamps never
//!    go backwards (a single thread records through one monotonic clock).
//! 3. **Document shape** — the JSON tree has the `traceEvents` array whose
//!    records carry `name`/`ph`/`ts`/`pid`/`tid`, and the stream covers
//!    all five instrumented layers.
//!
//! The trace sink and mode are process-global; this integration test owns
//! its process and runs the showcase once.

use mvp_bench::json::Json;
use mvp_bench::trace::{chrome_trace_json, run, TraceParams};
use mvp_trace::EventKind;
use std::collections::BTreeMap;

#[test]
fn showcase_trace_is_balanced_monotone_and_layer_complete() {
    let outcome = run(&TraceParams {
        threads: Some(2),
        ..TraceParams::default()
    });
    assert!(!outcome.events.is_empty());
    assert_eq!(
        outcome.missing_layers(),
        Vec::<&str>::new(),
        "layers seen: {:?}",
        outcome.layers()
    );

    // Per-thread stack discipline and monotone timestamps on the raw
    // events (the JSON is a faithful rendering of these).
    let mut stacks: BTreeMap<u32, Vec<&'static str>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u32, u64> = BTreeMap::new();
    for e in &outcome.events {
        let prev = last_ts.entry(e.tid).or_insert(0);
        assert!(
            e.ts_ns >= *prev,
            "timestamps went backwards on tid {}: {} after {}",
            e.tid,
            e.ts_ns,
            prev
        );
        *prev = e.ts_ns;
        let stack = stacks.entry(e.tid).or_default();
        match e.kind {
            EventKind::Begin => stack.push(e.name),
            EventKind::End => {
                let open = stack
                    .pop()
                    .unwrap_or_else(|| panic!("E without matching B on tid {}: {}", e.tid, e.name));
                assert_eq!(open, e.name, "spans interleave on tid {}", e.tid);
            }
            EventKind::Instant => {}
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
    }

    // The JSON document mirrors the stream: one record per event, each
    // with the chrome-trace required fields, phases drawn from B/E/i.
    let doc = chrome_trace_json(&outcome.events);
    let Json::Object(top) = &doc else {
        panic!("top level is an object")
    };
    let events = top
        .iter()
        .find_map(|(k, v)| (k == "traceEvents").then_some(v))
        .expect("traceEvents present");
    let Json::Array(records) = events else {
        panic!("traceEvents is an array")
    };
    assert_eq!(records.len(), outcome.events.len());
    for record in records {
        let Json::Object(fields) = record else {
            panic!("record is an object")
        };
        let field = |name: &str| fields.iter().find_map(|(k, v)| (k == name).then_some(v));
        for required in ["name", "ph", "ts", "pid", "tid"] {
            assert!(field(required).is_some(), "missing {required}: {record}");
        }
        match field("ph") {
            Some(Json::Str(ph)) => assert!(matches!(ph.as_str(), "B" | "E" | "i"), "{ph}"),
            other => panic!("ph is a string, got {other:?}"),
        }
        match field("ts") {
            Some(Json::F64(ts)) => assert!(ts.is_finite() && *ts >= 0.0),
            other => panic!("ts is a float, got {other:?}"),
        }
    }
}
