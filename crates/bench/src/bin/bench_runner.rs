//! Runner-scaling wall-clock benchmark.
//!
//! Measures the campaign [`themis::api::Runner`] executing the same
//! run matrix sequentially and with `parallel_threads(n)` for n = 1, 2, 4, 8,
//! using the built-in wall-clock harness (no criterion: the build environment
//! is offline). Emits a `BENCH_runner.json` report and prints a summary
//! table.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p themis-bench --bin bench-runner -- [--smoke] [output.json]
//! ```
//!
//! `--smoke` runs one iteration of a tiny matrix — fast enough for CI, where
//! it guards against parallel-runner regressions (hangs, non-determinism,
//! gross slowdowns).

use std::io::Write;
use themis::api::json::Json;
use themis::prelude::*;
use themis_bench::harness::{measure, BenchStat};
use themis_bench::report::Table;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn campaign(smoke: bool) -> Campaign {
    if smoke {
        Campaign::new()
            .topologies([PresetTopology::Sw2d])
            .sizes_mib([16.0])
            .chunk_counts([8])
    } else {
        Campaign::new()
            .topologies(PresetTopology::next_generation())
            .sizes_mib([64.0, 256.0])
            .chunk_counts([64])
    }
}

fn stat_to_json(stat: &BenchStat) -> Json {
    Json::obj([
        ("name", Json::Str(stat.name.clone())),
        ("iterations", Json::Num(stat.iterations as f64)),
        ("min_ns", Json::Num(stat.min_ns)),
        ("median_ns", Json::Num(stat.median_ns)),
        ("mean_ns", Json::Num(stat.mean_ns)),
        ("max_ns", Json::Num(stat.max_ns)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let output = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_runner.json".to_string());
    let (warmup, iterations) = if smoke { (0, 1) } else { (1, 5) };

    let campaign = campaign(smoke);
    let cells = campaign.matrix_size();

    // Correctness gate before timing anything: every backend must produce the
    // sequential report bit for bit.
    let reference = campaign
        .run(&Runner::sequential())
        .expect("benchmark campaign is valid");
    for &threads in &THREAD_COUNTS {
        let parallel = campaign
            .run(&Runner::parallel_threads(threads))
            .expect("benchmark campaign is valid");
        assert_eq!(
            reference, parallel,
            "parallel_threads({threads}) diverged from the sequential runner"
        );
    }

    let mut stats = vec![measure("runner/sequential", warmup, iterations, || {
        campaign
            .run(&Runner::sequential())
            .expect("benchmark campaign is valid");
    })];
    for &threads in &THREAD_COUNTS {
        stats.push(measure(
            format!("runner/parallel-{threads}"),
            warmup,
            iterations,
            || {
                campaign
                    .run(&Runner::parallel_threads(threads))
                    .expect("benchmark campaign is valid");
            },
        ));
    }

    let mut table = Table::new(
        format!(
            "Runner scaling over {cells} campaign cells ({} iterations{})",
            iterations,
            if smoke { ", smoke" } else { "" }
        ),
        &[
            "Bench",
            "Min ms",
            "Median ms",
            "Mean ms",
            "Max ms",
            "vs sequential",
        ],
    );
    let sequential = stats[0].clone();
    for stat in &stats {
        table.push_row([
            stat.name.clone(),
            format!("{:.2}", stat.min_ns / 1e6),
            format!("{:.2}", stat.median_ms()),
            format!("{:.2}", stat.mean_ms()),
            format!("{:.2}", stat.max_ns / 1e6),
            format!("{:.2}x", stat.speedup_over(&sequential)),
        ]);
    }
    println!("{table}");

    let document = Json::obj([
        ("version", Json::Num(1.0)),
        ("kind", Json::Str("runner-bench".to_string())),
        ("smoke", Json::Bool(smoke)),
        ("matrix_cells", Json::Num(cells as f64)),
        (
            "benches",
            Json::Arr(stats.iter().map(stat_to_json).collect()),
        ),
    ])
    .render();
    match std::fs::File::create(&output) {
        Ok(mut file) => {
            if let Err(err) = file.write_all(document.as_bytes()) {
                eprintln!("failed to write {output}: {err}");
                std::process::exit(1);
            }
            eprintln!("wrote {output}");
        }
        Err(err) => {
            eprintln!("failed to create {output}: {err}");
            std::process::exit(1);
        }
    }
}
