//! End-to-end tests over the **real binaries**: the orchestrator spawning
//! `shard-worker` processes, the `themis-serve` daemon over a stdio pipe,
//! and the `cache-merge` subcommand. Everything here crosses a process
//! boundary; the in-process service contracts live in the facade's
//! `tests/serve_api.rs`.
//!
//! The matrices are deliberately tiny (one switch topology, two transfer
//! sizes) — the point is supervision, retries and bit-identity, not
//! simulator coverage.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use themis::api::json::Json;
use themis::api::serve::campaign_cells_to_json;
use themis::api::shard::ShardStrategy;
use themis::prelude::*;
use themis::ScheduleCache;

const WORKER: &str = env!("CARGO_BIN_EXE_shard-worker");
const SERVE: &str = env!("CARGO_BIN_EXE_themis-serve");

/// A scratch directory unique to one test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("serve-e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A campaign matrix crossing every scheduler kind with two presets.
fn campaign_specs() -> Vec<RunSpec> {
    Campaign::new()
        .topologies([PresetTopology::Sw2d, PresetTopology::FcRingSw3d])
        .schedulers(SchedulerKind::all())
        .sizes_mib([16.0])
        .chunk_counts([4])
        .expand()
        .unwrap()
}

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

fn orchestrator(scratch: &Scratch, shards: usize, strategy: ShardStrategy) -> Orchestrator {
    let mut options = OrchestratorOptions::new(WORKER);
    options.shards = shards;
    options.strategy = strategy;
    options.work_dir = scratch.path("work");
    Orchestrator::new(options)
}

#[test]
fn orchestrated_campaign_sweeps_are_bit_identical_to_runner_execute() {
    let specs = campaign_specs();
    let reference = CampaignReport::new(Runner::sequential().execute(&specs).unwrap());
    let scratch = Scratch::new("campaign");
    for (shards, strategy) in [
        (2, ShardStrategy::CostBalanced),
        (3, ShardStrategy::RoundRobin),
    ] {
        let outcome = orchestrator(&scratch, shards, strategy)
            .run_campaign(&specs)
            .unwrap();
        assert_eq!(
            outcome.merged.campaign(),
            Some(&reference),
            "{strategy:?} x {shards} shards"
        );
        assert_eq!(outcome.retries(), 0, "{strategy:?} x {shards} shards");
    }
}

#[test]
fn orchestrated_stream_sweeps_are_bit_identical_to_runner_execute_streams() {
    let specs = stream_specs();
    let reference =
        StreamCampaignReport::new(Runner::sequential().execute_streams(&specs).unwrap());
    let scratch = Scratch::new("stream");
    let outcome = orchestrator(&scratch, 2, ShardStrategy::CostBalanced)
        .run_streams(&specs)
        .unwrap();
    assert_eq!(outcome.merged.stream(), Some(&reference));
    assert_eq!(outcome.retries(), 0);
}

#[test]
fn injected_shard_failures_are_retried_and_still_merge_bit_identical() {
    let specs = campaign_specs();
    let reference = CampaignReport::new(Runner::sequential().execute(&specs).unwrap());
    let scratch = Scratch::new("retry");
    let mut options = OrchestratorOptions::new(WORKER);
    options.shards = 2;
    options.work_dir = scratch.path("work");
    // Shard 0's first attempt aborts (exit code 3) after one cell via the
    // worker's deterministic --fail-after hook; the retry runs clean.
    options.fail_first_attempt = vec![(0, 1)];
    let outcome = Orchestrator::new(options).run_campaign(&specs).unwrap();
    assert_eq!(outcome.attempts, vec![2, 1]);
    assert_eq!(outcome.retries(), 1);
    assert_eq!(outcome.merged.campaign(), Some(&reference));
}

#[test]
fn a_shard_that_always_fails_exhausts_its_attempts() {
    let specs = campaign_specs();
    let scratch = Scratch::new("exhaust");
    let mut options = OrchestratorOptions::new(WORKER);
    options.shards = 2;
    options.work_dir = scratch.path("work");
    // The injection only hits first attempts, so a budget of one attempt
    // turns it into a permanent failure.
    options.max_attempts = 1;
    options.fail_first_attempt = vec![(1, 0)];
    let err = Orchestrator::new(options).run_campaign(&specs).unwrap_err();
    assert!(matches!(err, ThemisError::Serve { .. }), "{err}");
    assert!(err.to_string().contains("after 1 attempt"), "{err}");
}

/// A `themis-serve` daemon child on a stdio pipe.
struct Daemon {
    child: Child,
    stdin: ChildStdin,
    reader: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(args: &[&str]) -> Self {
        let mut child = Command::new(SERVE)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let stdin = child.stdin.take().unwrap();
        let reader = BufReader::new(child.stdout.take().unwrap());
        Daemon {
            child,
            stdin,
            reader,
        }
    }

    fn request(&mut self, line: &str) -> Json {
        writeln!(self.stdin, "{line}").unwrap();
        self.stdin.flush().unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        Json::parse(response.trim()).unwrap()
    }

    fn shutdown(mut self) {
        let _ = self.request(r#"{"id":99,"kind":"shutdown"}"#);
        let status = self.child.wait().unwrap();
        assert!(status.success());
    }
}

fn cell_delta(response: &Json, counter: &str) -> usize {
    response
        .field("cache")
        .unwrap()
        .field("cells")
        .unwrap()
        .field(counter)
        .unwrap()
        .as_usize()
        .unwrap()
}

#[test]
fn a_resident_daemon_serves_the_second_request_from_its_warm_cache() {
    let specs = campaign_specs();
    let line = Json::obj([
        ("id", Json::Num(1.0)),
        ("kind", Json::Str("campaign".to_string())),
        ("cells", campaign_cells_to_json(&specs)),
    ])
    .render();

    let scratch = Scratch::new("daemon");
    let work_dir = scratch.path("work");
    let mut daemon = Daemon::spawn(&["--work-dir", work_dir.to_str().unwrap()]);
    let first = daemon.request(&line);
    assert_eq!(first.field("status").unwrap().as_str().unwrap(), "ok");
    assert_eq!(cell_delta(&first, "misses"), specs.len());

    let second = daemon.request(&line);
    assert_eq!(second.field("status").unwrap().as_str().unwrap(), "ok");
    assert_eq!(
        first.field("result").unwrap(),
        second.field("result").unwrap(),
        "cached responses stay bit-identical"
    );
    assert_eq!(cell_delta(&second, "hits"), specs.len());
    assert_eq!(cell_delta(&second, "misses"), 0);

    // Malformed input mid-session: a structured error, and the daemon lives.
    let error = daemon.request("{oops");
    assert_eq!(error.field("status").unwrap().as_str().unwrap(), "error");
    let pong = daemon.request(r#"{"id":3,"kind":"ping"}"#);
    assert_eq!(pong.field("status").unwrap().as_str().unwrap(), "ok");
    daemon.shutdown();
}

#[test]
fn schedule_cache_merge_is_order_independent() {
    let scratch = Scratch::new("merge");
    let shards_dir = scratch.path("shards");
    let status = Command::new(WORKER)
        .args([
            "plan",
            "--topology",
            "2D-SW_SW",
            "--sizes-mib",
            "16,48",
            "--chunks",
            "4",
            "--shards",
            "2",
            "--out-dir",
            shards_dir.to_str().unwrap(),
        ])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());

    // Two workers, two *separate* cache files: disjoint-but-overlapping dumps.
    for index in 0..2 {
        let status = Command::new(WORKER)
            .args([
                "run",
                shards_dir
                    .join(format!("shard-0{index}.json"))
                    .to_str()
                    .unwrap(),
                "--out",
                scratch
                    .path(&format!("part-{index}.json"))
                    .to_str()
                    .unwrap(),
                "--cache",
                scratch
                    .path(&format!("cache-{index}.json"))
                    .to_str()
                    .unwrap(),
            ])
            .stderr(Stdio::null())
            .status()
            .unwrap();
        assert!(status.success());
    }

    let cache_merge = |inputs: [&str; 2], out: &str| {
        let status = Command::new(WORKER)
            .args([
                "cache-merge",
                scratch.path(inputs[0]).to_str().unwrap(),
                scratch.path(inputs[1]).to_str().unwrap(),
                "--out",
                scratch.path(out).to_str().unwrap(),
            ])
            .stderr(Stdio::null())
            .status()
            .unwrap();
        assert!(status.success());
        std::fs::read_to_string(scratch.path(out)).unwrap()
    };
    let ab = cache_merge(["cache-0.json", "cache-1.json"], "merged-ab.json");
    let ba = cache_merge(["cache-1.json", "cache-0.json"], "merged-ba.json");
    assert!(!ab.is_empty());
    assert_eq!(ab, ba, "merge(A,B) must equal merge(B,A) byte for byte");

    // The merged dump warm-starts a fresh cache with every entry of both.
    // Every file on this path is checksum-sealed, so the loads go through
    // the verified reader.
    let merged = ScheduleCache::new();
    let loaded = merged
        .load_from_file(&scratch.path("merged-ab.json"))
        .unwrap();
    assert!(loaded > 0, "sealed merge output must load verified");
    let a = ScheduleCache::new();
    a.load_from_file(&scratch.path("cache-0.json")).unwrap();
    let b = ScheduleCache::new();
    b.load_from_file(&scratch.path("cache-1.json")).unwrap();
    assert!(loaded >= a.len().max(b.len()));
}

#[test]
fn failing_shard_runs_exit_with_the_retryable_code() {
    let scratch = Scratch::new("exitcode");
    let shards_dir = scratch.path("shards");
    let status = Command::new(WORKER)
        .args([
            "plan",
            "--topology",
            "2D-SW_SW",
            "--sizes-mib",
            "16",
            "--shards",
            "1",
            "--out-dir",
            shards_dir.to_str().unwrap(),
        ])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());

    let out = scratch.path("part-0.json");
    let status = Command::new(WORKER)
        .args([
            "run",
            shards_dir.join("shard-00.json").to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--fail-after",
            "0",
        ])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(3), "shard failures use exit code 3");
    assert!(!out.exists(), "a failed shard writes no partial report");

    // Usage errors stay on exit code 1, distinct from shard failures.
    let status = Command::new(WORKER)
        .args(["run", "/nonexistent/spec.json", "--out", "x.json"])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1));
}

/// Writes an executable shell script standing in for the worker binary.
#[cfg(unix)]
fn write_script(path: &std::path::Path, body: &str) {
    use std::os::unix::fs::PermissionsExt;
    std::fs::write(path, body).unwrap();
    let mut perms = std::fs::metadata(path).unwrap().permissions();
    perms.set_mode(0o755);
    std::fs::set_permissions(path, perms).unwrap();
}

#[cfg(unix)]
#[test]
fn a_worker_that_never_heartbeats_fails_as_a_spawn_timeout() {
    let scratch = Scratch::new("spawn-timeout");
    let worker = scratch.path("hang.sh");
    write_script(&worker, "#!/bin/sh\nsleep 30\n");
    let mut options = OrchestratorOptions::new(&worker);
    options.shards = 1;
    options.max_attempts = 1;
    options.stall_timeout = std::time::Duration::from_millis(400);
    options.work_dir = scratch.path("work");
    let err = Orchestrator::new(options)
        .run_campaign(&campaign_specs())
        .unwrap_err();
    assert!(err.to_string().contains("(spawn-timeout)"), "{err}");
    assert!(err.to_string().contains("no first heartbeat"), "{err}");
}

#[cfg(unix)]
#[test]
fn a_worker_that_heartbeats_then_hangs_fails_as_a_stall() {
    let scratch = Scratch::new("stall");
    let worker = scratch.path("stall.sh");
    // Pull `--progress` out of the worker CLI, heartbeat once, then hang:
    // the supervisor must classify this apart from a spawn timeout.
    write_script(
        &worker,
        "#!/bin/sh\n\
         while [ $# -gt 0 ]; do\n\
           if [ \"$1\" = \"--progress\" ]; then progress=\"$2\"; fi\n\
           shift\n\
         done\n\
         echo heartbeat > \"$progress\"\n\
         sleep 30\n",
    );
    let mut options = OrchestratorOptions::new(&worker);
    options.shards = 1;
    options.max_attempts = 1;
    options.stall_timeout = std::time::Duration::from_secs(2);
    options.work_dir = scratch.path("work");
    let err = Orchestrator::new(options)
        .run_campaign(&campaign_specs())
        .unwrap_err();
    assert!(err.to_string().contains("(stall)"), "{err}");
    assert!(err.to_string().contains("stalled for more than"), "{err}");
}

#[cfg(unix)]
#[test]
fn a_spawn_timeout_on_the_first_attempt_is_retried_and_recorded() {
    use themis::api::orchestrator::FailureKind;
    let scratch = Scratch::new("timeout-retry");
    let marker = scratch.path("first-attempt-done");
    let worker = scratch.path("flaky.sh");
    // First attempt: hang without ever heartbeating. Every later attempt
    // execs the real worker, so the sweep still completes — and the
    // supervision history names the spawn timeout.
    write_script(
        &worker,
        &format!(
            "#!/bin/sh\n\
             if [ ! -e \"{marker}\" ]; then\n\
               touch \"{marker}\"\n\
               sleep 30\n\
             fi\n\
             exec \"{real}\" \"$@\"\n",
            marker = marker.display(),
            real = WORKER
        ),
    );
    let specs = campaign_specs();
    let reference = CampaignReport::new(Runner::sequential().execute(&specs).unwrap());
    let mut options = OrchestratorOptions::new(&worker);
    options.shards = 1;
    options.stall_timeout = std::time::Duration::from_millis(400);
    options.work_dir = scratch.path("work");
    let outcome = Orchestrator::new(options).run_campaign(&specs).unwrap();
    assert_eq!(outcome.attempts, vec![2]);
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(outcome.failures[0].kind, FailureKind::SpawnTimeout);
    assert_eq!(outcome.failures[0].shard, 0);
    assert_eq!(outcome.failures[0].attempt, 1);
    assert_eq!(outcome.merged.campaign(), Some(&reference));
}

#[test]
fn crashed_sweeps_resume_from_surviving_partial_reports() {
    let specs = campaign_specs();
    let reference = CampaignReport::new(Runner::sequential().execute(&specs).unwrap());
    let scratch = Scratch::new("resume");
    let sweep = format!("resume-{}", std::process::id());

    // First run: shard 1's only attempt aborts after one cell, failing the
    // sweep mid-run. The deterministic sweep directory keeps whatever
    // partial reports were completed before the crash.
    let mut crash = OrchestratorOptions::new(WORKER).with_sweep_id(&sweep);
    crash.shards = 2;
    crash.work_dir = scratch.path("work");
    crash.max_attempts = 1;
    crash.fail_first_attempt = vec![(1, 1)];
    assert!(Orchestrator::new(crash).run_campaign(&specs).is_err());
    let survivors: Vec<usize> = (0..2)
        .filter(|shard| {
            scratch
                .path(&format!("work/sweep-{sweep}/shard-{shard}.partial.json"))
                .exists()
        })
        .collect();

    // Second run under the same sweep id: every surviving partial is adopted
    // with zero attempts, and the merge is still bit-identical.
    let mut resume = OrchestratorOptions::new(WORKER).with_sweep_id(&sweep);
    resume.shards = 2;
    resume.work_dir = scratch.path("work");
    let outcome = Orchestrator::new(resume).run_campaign(&specs).unwrap();
    assert_eq!(outcome.resumed_shards, survivors);
    for &shard in &survivors {
        assert_eq!(outcome.attempts[shard], 0, "shard {shard} was re-simulated");
    }
    assert_eq!(outcome.merged.campaign(), Some(&reference));
}

#[test]
fn faulted_sweeps_cross_the_process_boundary_bit_identically() {
    // Fault plans ride in the platform-options JSON of each shard spec, so a
    // multi-process sweep over faulted cells merges bit-identically to the
    // in-process runner.
    let plan = FaultPlan::new()
        .degrade(0.0, 0, 0.75)
        .degrade(300_000.0, 1, 0.5)
        .fail(600_000.0, 0)
        .recover(900_000.0, 0);
    let platform = Platform::preset(PresetTopology::Sw2d).with_faults(plan);
    let specs: Vec<RunSpec> = SchedulerKind::all()
        .into_iter()
        .map(|kind| {
            RunSpec::new(
                platform.clone(),
                Job::all_reduce_mib(32.0).chunks(8).scheduler(kind),
            )
        })
        .collect();
    let reference = CampaignReport::new(Runner::sequential().execute(&specs).unwrap());
    let scratch = Scratch::new("faulted");
    let outcome = orchestrator(&scratch, 2, ShardStrategy::CostBalanced)
        .run_campaign(&specs)
        .unwrap();
    assert_eq!(outcome.merged.campaign(), Some(&reference));
    assert!(outcome.failures.is_empty());
}

#[cfg(unix)]
#[test]
fn resume_quarantines_corrupt_partials_and_reruns_the_shard() {
    use themis::core::durable;

    let specs = campaign_specs();
    let reference = CampaignReport::new(Runner::sequential().execute(&specs).unwrap());
    let scratch = Scratch::new("corrupt-resume");
    let sweep = format!("corrupt-{}", std::process::id());
    let partial = scratch.path(&format!("work/sweep-{sweep}/shard-0.partial.json"));

    // The orchestrator kills every running worker once a shard exhausts its
    // attempts, so shard 0 only leaves a partial if it finishes before
    // shard 1 crashes. Shard 1's worker therefore waits (up to 60 s) for
    // shard 0's partial before it starts; shard 0 runs the real worker.
    let worker = scratch.path("gated.sh");
    write_script(
        &worker,
        &format!(
            "#!/bin/sh\n\
             case \"$2\" in\n\
               *shard-1.spec.json)\n\
                 i=0\n\
                 while [ ! -e \"{partial}\" ] && [ $i -lt 600 ]; do\n\
                   sleep 0.1\n\
                   i=$((i + 1))\n\
                 done ;;\n\
             esac\n\
             exec \"{real}\" \"$@\"\n",
            partial = partial.display(),
            real = WORKER
        ),
    );

    // Kill the sweep mid-run: shard 1's only attempt aborts after one cell,
    // leaving shard 0's finished partial in the deterministic sweep dir.
    let mut crash = OrchestratorOptions::new(&worker).with_sweep_id(&sweep);
    crash.shards = 2;
    crash.work_dir = scratch.path("work");
    crash.max_attempts = 1;
    crash.fail_first_attempt = vec![(1, 1)];
    assert!(Orchestrator::new(crash).run_campaign(&specs).is_err());
    assert!(partial.exists(), "crash run left no shard-0 partial");

    // Corrupt the survivor mid-body with the checksum trailer intact — the
    // nastiest case, because the body still looks like plausible JSON.
    let sealed = std::fs::read_to_string(&partial).unwrap();
    let trailer_at = sealed
        .rfind(durable::TRAILER_PREFIX)
        .expect("partials are checksum-sealed");
    let torn = format!("{}{}", &sealed[..trailer_at / 2], &sealed[trailer_at..]);
    std::fs::write(&partial, torn).unwrap();

    // The resume must NOT adopt the garbage: the torn partial is quarantined
    // and shard 0 is re-simulated, merging bit-identically anyway.
    let mut resume = OrchestratorOptions::new(WORKER).with_sweep_id(&sweep);
    resume.shards = 2;
    resume.work_dir = scratch.path("work");
    resume.keep_files = true;
    let outcome = Orchestrator::new(resume).run_campaign(&specs).unwrap();
    assert_eq!(
        outcome.resumed_shards,
        Vec::<usize>::new(),
        "a corrupt partial must never be adopted"
    );
    assert!(outcome.attempts[0] >= 1, "shard 0 was not re-run");
    assert!(
        scratch
            .path(&format!(
                "work/sweep-{sweep}/shard-0.partial.json.corrupt-0"
            ))
            .exists(),
        "the torn partial was not quarantined"
    );
    assert_eq!(outcome.merged.campaign(), Some(&reference));
}
