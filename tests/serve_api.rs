//! Integration tests for the resident campaign service
//! (`themis::api::serve`) and the in-process half of the orchestrator
//! (`themis::api::orchestrator`).
//!
//! The load-bearing contracts: a malformed request line never crashes the
//! service (it answers a structured `status:"error"` response and keeps
//! serving); campaign/stream/shard responses are **bit-identical** to the
//! direct `Runner` paths; and identical cells — sequential or racing across
//! threads — are simulated exactly once, with the repeats served from the
//! resident single-flight cache. Real-process orchestration is covered by
//! `crates/bench/tests/serve_e2e.rs`.

use std::sync::Arc;
use themis::api::json::Json;
use themis::api::serve::{campaign_cells_to_json, stream_cells_to_json};
use themis::api::shard::{ShardPlan, ShardSpec, ShardStrategy};
use themis::prelude::*;

/// A small campaign matrix over every scheduler kind.
fn campaign_specs() -> Vec<RunSpec> {
    Campaign::new()
        .topologies([PresetTopology::Sw2d])
        .schedulers(SchedulerKind::all())
        .sizes_mib([16.0, 48.0])
        .chunk_counts([4])
        .expand()
        .unwrap()
}

/// A two-stream matrix over every scheduler kind.
fn stream_specs() -> Vec<StreamSpec> {
    let stream = StreamJob::named("pair")
        .push(QueuedCollective::all_reduce_mib("g2", 24.0))
        .push(QueuedCollective::all_reduce_mib("g1", 24.0).issued_at(2_000.0))
        .chunks(4);
    StreamCampaign::new()
        .topologies([PresetTopology::Sw2d])
        .schedulers(SchedulerKind::all())
        .streams([stream])
        .expand()
        .unwrap()
}

fn request(id: usize, kind: &str, extra: Vec<(&'static str, Json)>) -> String {
    let mut fields = vec![
        ("id", Json::Num(id as f64)),
        ("kind", Json::Str(kind.to_string())),
    ];
    fields.extend(extra);
    Json::obj(fields).render()
}

fn parse_ok(response: &str) -> Json {
    let response = Json::parse(response).expect("responses are valid JSON");
    assert_eq!(
        response.field("status").unwrap().as_str().unwrap(),
        "ok",
        "expected an ok response, got: {response:?}"
    );
    response
}

#[test]
fn malformed_requests_get_structured_errors_not_crashes() {
    let service = Service::default();
    // Deep enough to overflow the stack of a parser that recursed without a
    // limit, yet far under the line-size cap.
    let deep = "[".repeat(100_000);
    for bad in [
        "{oops",                                      // unparseable JSON
        &deep,                                        // nested past the cap
        "42",                                         // not an object
        r#"{"id":1}"#,                                // missing kind
        r#"{"id":2,"kind":"nope"}"#,                  // unknown kind
        r#"{"id":3,"kind":"campaign"}"#,              // missing cells
        r#"{"id":4,"kind":"campaign","cells":[{}]}"#, // cells without specs
        r#"{"id":5,"kind":"shard","spec":{"kind":"wrong"}}"#,
        r#"{"id":6,"kind":"sweep","cells":"campaign","entries":[]}"#, // no worker
    ] {
        let response = Json::parse(&service.handle_line(bad)).unwrap();
        assert_eq!(
            response.field("status").unwrap().as_str().unwrap(),
            "error",
            "request {bad:?} should be answered with a structured error"
        );
        assert!(
            !response
                .field("error")
                .unwrap()
                .as_str()
                .unwrap()
                .is_empty(),
            "error responses carry a reason"
        );
    }
    // The service keeps serving after every one of them.
    let pong = parse_ok(&service.handle_line(&request(7, "ping", vec![])));
    assert!(pong
        .field("result")
        .unwrap()
        .field("pong")
        .unwrap()
        .as_bool()
        .unwrap());
}

#[test]
fn error_responses_echo_the_request_id() {
    let service = Service::default();
    let response = Json::parse(&service.handle_line(r#"{"id":41,"kind":"nope"}"#)).unwrap();
    assert_eq!(response.field("id").unwrap().as_usize().unwrap(), 41);
    // An unparseable line has no id to echo; it comes back null.
    let response = Json::parse(&service.handle_line("{oops")).unwrap();
    assert_eq!(response.field("id").unwrap(), &Json::Null);
}

#[test]
fn recorded_latency_covers_request_parsing() {
    let service = Service::default();
    // A ping whose line is dominated by a large padding array: parsing it
    // costs far more than dispatching or rendering the tiny response.
    let line = request(
        1,
        "ping",
        vec![("pad", Json::Arr(vec![Json::Num(0.5); 100_000]))],
    );
    let rounds = 5u32;
    let mut fastest_parse = std::time::Duration::MAX;
    for _ in 0..rounds {
        let started = std::time::Instant::now();
        Json::parse(&line).unwrap();
        fastest_parse = fastest_parse.min(started.elapsed());
        parse_ok(&service.handle_line(&line));
    }
    let latency = service.telemetry().histogram("serve.latency_ns.ping");
    assert_eq!(latency.count(), u64::from(rounds));
    // The service's parse and the test's are timed separately and vary from
    // run to run by a few percent, so the check allows half: a latency that
    // left the parse out would read microseconds against milliseconds.
    let mean_ns = latency.sum() / u64::from(rounds);
    assert!(
        u128::from(mean_ns) >= fastest_parse.as_nanos() / 2,
        "recorded latency {mean_ns} ns misses the parse time {fastest_parse:?}"
    );
}

#[test]
fn campaign_responses_are_bit_identical_to_runner_execute() {
    let specs = campaign_specs();
    let reference = CampaignReport::new(Runner::sequential().execute(&specs).unwrap());
    let service = Service::default();
    let response = parse_ok(&service.handle_line(&request(
        1,
        "campaign",
        vec![("cells", campaign_cells_to_json(&specs))],
    )));
    let report = CampaignReport::from_json(&response.field("result").unwrap().render()).unwrap();
    assert_eq!(report, reference);
}

#[test]
fn stream_responses_are_bit_identical_to_runner_execute_streams() {
    let specs = stream_specs();
    let reference =
        StreamCampaignReport::new(Runner::sequential().execute_streams(&specs).unwrap());
    let service = Service::default();
    let response = parse_ok(&service.handle_line(&request(
        1,
        "stream",
        vec![("cells", stream_cells_to_json(&specs))],
    )));
    let report =
        StreamCampaignReport::from_json(&response.field("result").unwrap().render()).unwrap();
    assert_eq!(report, reference);
}

#[test]
fn shard_requests_execute_against_the_resident_plan() {
    let specs = campaign_specs();
    let plan = ShardPlan::from_cells(ShardStrategy::CostBalanced, &specs, 2);
    let shards = ShardSpec::campaign_shards(&specs, &plan).unwrap();
    let service = Service::default();
    for shard in &shards {
        let spec_json = Json::parse(&shard.to_json()).unwrap();
        let response = parse_ok(&service.handle_line(&request(
            shard.shard_index(),
            "shard",
            vec![("spec", spec_json)],
        )));
        let report =
            themis::api::shard::ShardReport::from_json(&response.field("result").unwrap().render())
                .unwrap();
        assert_eq!(report.shard_index(), shard.shard_index());
        assert_eq!(report.len(), shard.len());
    }
}

#[test]
fn the_second_identical_request_is_served_without_simulating() {
    let specs = campaign_specs();
    let service = Service::default();
    let body = || vec![("cells", campaign_cells_to_json(&specs))];
    let first = parse_ok(&service.handle_line(&request(1, "campaign", body())));
    let second = parse_ok(&service.handle_line(&request(2, "campaign", body())));
    assert_eq!(
        first.field("result").unwrap(),
        second.field("result").unwrap(),
        "cached responses must stay bit-identical"
    );
    let delta = |response: &Json, counter: &str| {
        response
            .field("cache")
            .unwrap()
            .field("cells")
            .unwrap()
            .field(counter)
            .unwrap()
            .as_usize()
            .unwrap()
    };
    assert_eq!(delta(&first, "misses"), specs.len());
    assert_eq!(delta(&second, "hits"), specs.len());
    assert_eq!(delta(&second, "misses"), 0);
}

#[test]
fn concurrent_identical_requests_are_deduplicated_by_single_flight() {
    let specs = campaign_specs();
    let service = Arc::new(Service::default());
    let line = request(
        1,
        "campaign",
        vec![("cells", campaign_cells_to_json(&specs))],
    );
    let results: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let service = Arc::clone(&service);
                let line = line.clone();
                scope.spawn(move || parse_ok(&service.handle_line(&line)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for pair in results.windows(2) {
        assert_eq!(
            pair[0].field("result").unwrap(),
            pair[1].field("result").unwrap(),
            "racing requests must agree bit for bit"
        );
    }
    // Single flight: across all four racing requests, every cell was
    // simulated exactly once; all other lookups were (possibly waiting) hits.
    let stats = parse_ok(&service.handle_line(&request(9, "cache-stats", vec![])));
    let cells = stats.field("result").unwrap().field("cells").unwrap();
    assert_eq!(
        cells.field("misses").unwrap().as_usize().unwrap(),
        specs.len()
    );
    assert_eq!(
        cells.field("hits").unwrap().as_usize().unwrap(),
        3 * specs.len()
    );
}

#[test]
fn the_resident_cell_cache_is_bounded() {
    let specs = campaign_specs();
    let service = Service::new(ServeOptions {
        max_resident_cells: 2,
        ..ServeOptions::default()
    });
    parse_ok(&service.handle_line(&request(
        1,
        "campaign",
        vec![("cells", campaign_cells_to_json(&specs))],
    )));
    assert!(specs.len() > 2);
    assert_eq!(service.resident_cells(), 2);
    // cache-stats reports the bounded resident size as a plain counter.
    let stats = parse_ok(&service.handle_line(&request(2, "cache-stats", vec![])));
    let resident = stats.field("result").unwrap().field("resident").unwrap();
    assert_eq!(resident.field("cells").unwrap().as_usize().unwrap(), 2);
}

#[test]
fn serve_loop_answers_every_line_and_stops_on_shutdown() {
    let specs = campaign_specs();
    let lines = [
        request(1, "ping", vec![]),
        request(
            2,
            "campaign",
            vec![("cells", campaign_cells_to_json(&specs))],
        ),
        "{oops".to_string(),
        request(4, "shutdown", vec![]),
        request(5, "ping", vec![]), // after shutdown: must not be served
    ]
    .join("\n");
    let service = Service::default();
    let mut out: Vec<u8> = Vec::new();
    service
        .serve(std::io::Cursor::new(lines.into_bytes()), &mut out)
        .unwrap();
    assert!(service.shutdown_requested());
    let responses: Vec<Json> = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|line| Json::parse(line).unwrap())
        .collect();
    assert_eq!(responses.len(), 4, "the post-shutdown line is not served");
    assert_eq!(
        responses[2].field("status").unwrap().as_str().unwrap(),
        "error"
    );
    assert!(responses[3]
        .field("result")
        .unwrap()
        .field("shutting_down")
        .unwrap()
        .as_bool()
        .unwrap());
}

#[test]
fn cache_publish_round_trips_schedules_across_services() {
    let dir = std::env::temp_dir().join(format!("serve-api-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_file = dir.join("schedules.json");
    let _ = std::fs::remove_file(&cache_file);

    let specs = campaign_specs();
    let first = Service::new(ServeOptions {
        cache_file: Some(cache_file.clone()),
        ..ServeOptions::default()
    });
    assert_eq!(first.load_cache_file().unwrap(), 0, "cold start");
    parse_ok(&first.handle_line(&request(
        1,
        "campaign",
        vec![("cells", campaign_cells_to_json(&specs))],
    )));
    let published = first.publish_cache_file().unwrap();
    assert!(published > 0);

    // A fresh service warm-starts from the published file: its first
    // identical campaign request hits the schedule cache on every cell.
    let second = Service::new(ServeOptions {
        cache_file: Some(cache_file.clone()),
        ..ServeOptions::default()
    });
    assert_eq!(second.load_cache_file().unwrap(), published);
    let response = parse_ok(&second.handle_line(&request(
        2,
        "campaign",
        vec![("cells", campaign_cells_to_json(&specs))],
    )));
    let schedule_hits = response
        .field("cache")
        .unwrap()
        .field("schedules")
        .unwrap()
        .field("hits")
        .unwrap()
        .as_usize()
        .unwrap();
    assert!(schedule_hits > 0, "published schedules are reused");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn orchestrator_reports_unspawnable_workers_as_serve_errors() {
    let specs = campaign_specs();
    let mut options = OrchestratorOptions::new("/nonexistent/shard-worker");
    options.work_dir = std::env::temp_dir().join(format!("serve-orc-{}", std::process::id()));
    let err = Orchestrator::new(options.clone())
        .run_campaign(&specs)
        .unwrap_err();
    assert!(matches!(err, ThemisError::Serve { .. }), "{err}");
    assert!(err.to_string().contains("shard-worker"), "{err}");
    let _ = std::fs::remove_dir_all(&options.work_dir);
}

#[test]
fn orchestrating_zero_shards_is_rejected() {
    let orchestrator = Orchestrator::new(OrchestratorOptions::new("unused"));
    let err = orchestrator.run_shards(&[]).unwrap_err();
    assert!(matches!(err, ThemisError::Serve { .. }));
}

/// Deterministic 64-bit LCG (Knuth MMIX constants) for the parser fuzz test:
/// the seed is fixed, so a failure reproduces exactly.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() >> 16) as usize % bound.max(1)
    }
}

#[test]
fn fuzzed_request_lines_always_get_structured_responses() {
    let service = Service::default();
    let base = request(
        77,
        "campaign",
        vec![("cells", campaign_cells_to_json(&campaign_specs()))],
    );
    let mut rng = Lcg(0xD15EA5E);
    for round in 0..500usize {
        let mut bytes = base.clone().into_bytes();
        match round % 3 {
            // Replace a few bytes with random printable ASCII (valid UTF-8,
            // rarely valid JSON).
            0 => {
                for _ in 0..1 + rng.below(4) {
                    let at = rng.below(bytes.len());
                    bytes[at] = 0x20 + (rng.below(0x5f) as u8);
                }
            }
            // Truncate the line anywhere, including inside a token.
            1 => bytes.truncate(rng.below(bytes.len())),
            // Truncate, then mutate what is left.
            _ => {
                bytes.truncate(1 + rng.below(bytes.len() - 1));
                let at = rng.below(bytes.len());
                bytes[at] = 0x20 + (rng.below(0x5f) as u8);
            }
        }
        let line = String::from_utf8(bytes).unwrap();
        // The contract: never a panic or hang — always one parseable response
        // with a status, echoing the request id whenever one survived.
        let response = Json::parse(&service.handle_line(&line)).unwrap_or_else(|err| {
            panic!("round {round}: unstructured response to {line:?}: {err}")
        });
        response
            .field("status")
            .and_then(Json::as_str)
            .unwrap_or_else(|err| panic!("round {round}: response without status: {err}"));
        if let Ok(request) = Json::parse(&line) {
            if let Some(id) = request.get("id") {
                assert_eq!(
                    response.get("id"),
                    Some(id),
                    "round {round}: id not echoed for {line:?}"
                );
            }
        }
    }
    // The service survived the whole run.
    parse_ok(&service.handle_line(&request(78, "ping", vec![])));
}

#[test]
fn zero_deadline_requests_time_out_with_structured_status() {
    let service = Service::default();
    // deadline_ms:0 expires before the first simulator epoch: deterministic.
    let response = Json::parse(&service.handle_line(&request(
        1,
        "campaign",
        vec![
            ("cells", campaign_cells_to_json(&campaign_specs())),
            ("deadline_ms", Json::Num(0.0)),
        ],
    )))
    .unwrap();
    assert_eq!(
        response.field("status").unwrap().as_str().unwrap(),
        "timeout"
    );
    assert_eq!(response.field("id").unwrap().as_usize().unwrap(), 1);
    assert_eq!(service.telemetry().snapshot().counter("serve.timeouts"), 1);

    // The timed-out cell was forgotten, not memoised: the identical request
    // without a deadline simulates cleanly and bit-identically.
    let reference = CampaignReport::new(Runner::sequential().execute(&campaign_specs()).unwrap());
    let response = parse_ok(&service.handle_line(&request(
        2,
        "campaign",
        vec![("cells", campaign_cells_to_json(&campaign_specs()))],
    )));
    let report = CampaignReport::from_json(&response.field("result").unwrap().render()).unwrap();
    assert_eq!(report, reference);
}

#[test]
fn requests_past_the_admission_budget_are_shed_not_queued() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Condvar, Mutex};

    let service = Service::new(ServeOptions {
        max_in_flight: 1,
        ..ServeOptions::default()
    });
    let release = (Mutex::new(false), Condvar::new());
    let occupied = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // One ext-hook request blocks inside its handler, holding the whole
        // in-flight budget.
        let blocker = scope.spawn(|| {
            service.handle_line_with(&request(1, "block", vec![]), |_, kind, _| {
                (kind == "block").then(|| {
                    occupied.store(true, Ordering::Release);
                    let (lock, signal) = &release;
                    let mut released = lock.lock().unwrap();
                    while !*released {
                        released = signal.wait(released).unwrap();
                    }
                    Ok(Json::obj([("ok", Json::Bool(true))]))
                })
            })
        });
        while !occupied.load(Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(service.in_flight(), 1);
        // Heavy requests past the budget: shed immediately with retry advice.
        let response = Json::parse(&service.handle_line(&request(
            2,
            "campaign",
            vec![("cells", campaign_cells_to_json(&campaign_specs()))],
        )))
        .unwrap();
        assert_eq!(
            response.field("status").unwrap().as_str().unwrap(),
            "overloaded"
        );
        assert!(response.field("retry_after_ms").unwrap().as_f64().unwrap() > 0.0);
        // Light requests bypass admission entirely, even under full load.
        parse_ok(&service.handle_line(&request(3, "ping", vec![])));
        let (lock, signal) = &release;
        *lock.lock().unwrap() = true;
        signal.notify_all();
        parse_ok(&blocker.join().unwrap());
    });
    assert_eq!(service.telemetry().snapshot().counter("serve.shed"), 1);
    // Budget released: the shed campaign now succeeds, and wait_idle drains.
    parse_ok(&service.handle_line(&request(
        4,
        "campaign",
        vec![("cells", campaign_cells_to_json(&campaign_specs()))],
    )));
    assert!(service.wait_idle(std::time::Duration::from_secs(5)));
    assert_eq!(service.in_flight(), 0);
}

#[test]
fn a_panicking_handler_answers_a_structured_error_and_the_service_survives() {
    let service = Service::default();
    let response = Json::parse(
        &service.handle_line_with(&request(9, "explode", vec![]), |_, kind, _| {
            (kind == "explode").then(|| panic!("boom in handler"))
        }),
    )
    .unwrap();
    assert_eq!(response.field("status").unwrap().as_str().unwrap(), "error");
    assert!(
        response
            .field("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("boom in handler"),
        "panic message is surfaced: {response:?}"
    );
    assert_eq!(response.field("id").unwrap().as_usize().unwrap(), 9);
    assert_eq!(service.telemetry().snapshot().counter("serve.panics"), 1);
    // The daemon survives and the in-flight permit was released on unwind.
    assert_eq!(service.in_flight(), 0);
    parse_ok(&service.handle_line(&request(10, "ping", vec![])));
}

#[test]
fn a_panicking_cell_poisons_only_its_cache_slot() {
    let service = Service::default();
    // Two different cells: one panics, one succeeds. The panic is memoised
    // as a structured error for its own key only.
    for round in 0..2 {
        let response = Json::parse(&service.handle_line_with(
            &request(round, "cell", vec![("which", Json::Str("bad".to_string()))]),
            |service, kind, request| {
                (kind == "cell").then(|| {
                    let which = request.field("which")?.as_str()?.to_string();
                    service.compute_cell(&format!("test-cell-{which}"), move || {
                        if which == "bad" {
                            panic!("cell exploded");
                        }
                        Ok(Json::obj([("value", Json::Str(which))]))
                    })
                })
            },
        ))
        .unwrap();
        assert_eq!(response.field("status").unwrap().as_str().unwrap(), "error");
        assert!(
            response
                .field("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("cell exploded"),
            "round {round}: {response:?}"
        );
    }
    // The panic ran once and was replayed from the poisoned slot the second
    // time; a different cell on the same service is unaffected.
    assert_eq!(service.telemetry().snapshot().counter("serve.panics"), 1);
    let response = parse_ok(&service.handle_line_with(
        &request(2, "cell", vec![("which", Json::Str("good".to_string()))]),
        |service, kind, request| {
            (kind == "cell").then(|| {
                let which = request.field("which")?.as_str()?.to_string();
                service.compute_cell(&format!("test-cell-{which}"), move || {
                    if which == "bad" {
                        panic!("cell exploded");
                    }
                    Ok(Json::obj([("value", Json::Str(which))]))
                })
            })
        },
    ));
    assert_eq!(
        response
            .field("result")
            .unwrap()
            .field("value")
            .unwrap()
            .as_str()
            .unwrap(),
        "good"
    );
}
