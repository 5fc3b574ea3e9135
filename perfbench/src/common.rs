//! Pieces every workload shares: the seeded input generator, sample
//! statistics, the in-memory span recorder, peak-RSS readings and the result
//! line.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use themis::api::json::Json;

/// SplitMix64: a small, fully specified generator, so a seed names the same
/// inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_7E31_5CA1_AB1E)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for k in (1..items.len()).rev() {
            items.swap(k, self.range(0, k as u64) as usize);
        }
    }
}

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks. `samples` need not be sorted.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

pub fn ms(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux CPU-time clocks and /proc, on 64-bit targets");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a CPU-time clock. These clocks count the scheduler's runtime, which
/// with paravirt steal accounting (on, on the shared VMs this benchmark
/// targets) leaves out time the hypervisor gave to other guests.
fn read_clock(clock: i32) -> Duration {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec` for the call.
    let status = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(status, 0, "clock_gettime({clock}) failed");
    let secs = u64::try_from(time.tv_sec).expect("CPU clocks are non-negative");
    let nanos = u32::try_from(time.tv_nsec).expect("tv_nsec is below 1e9");
    Duration::new(secs, nanos)
}

/// On-CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPU-time clock of another process, all its threads.
pub fn process_clock(pid: u32) -> Result<i32, String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut clock = 0;
    // SAFETY: `clock` is a valid, writable `clockid_t` for the call.
    match unsafe { clock_getcpuclockid(pid, &mut clock) } {
        0 => Ok(clock),
        err => Err(format!("clock_getcpuclockid({pid}) failed with {err}")),
    }
}

/// On-CPU time of a process, by the clock from [`process_clock`].
pub fn process_cpu(clock: i32) -> Duration {
    read_clock(clock)
}

/// The cost of one measured operation.
pub struct Sample {
    /// On-CPU time along the operation's path: the calling thread, plus the
    /// daemon for a served request.
    pub cpu: Duration,
    /// Wall-clock time, stolen time and waits included.
    pub wall: Duration,
    /// Simulated cells completed.
    pub cells: u64,
}

/// The set-ups of one run, one entry per set-up, in seconds.
#[derive(Default)]
pub struct SetupTimes {
    /// On-CPU time at the reference speed.
    pub host_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub wall_s: Vec<f64>,
}

impl SetupTimes {
    /// Runs `setup` `repeats` times and returns the last set-up's product.
    /// `setup` also returns the on-CPU time its child processes spent.
    /// Earlier products are dropped before the next set-up starts. The
    /// yardstick runs once right after each set-up, as it runs once right
    /// after each timed request, so it meets the caches in the same state;
    /// the set-ups of this call are scaled by the median of those runs.
    pub fn measure<T>(
        &mut self,
        repeats: usize,
        mut setup: impl FnMut() -> Result<(T, Duration), String>,
    ) -> Result<T, String> {
        let mut yardstick = Yardstick::new();
        let (mut cpu, mut speed) = (Vec::new(), Vec::new());
        let mut product = None;
        for _ in 0..repeats {
            drop(product.take());
            let (cpu0, wall0) = (thread_cpu(), Instant::now());
            let (made, children) = setup()?;
            self.wall_s.push(wall0.elapsed().as_secs_f64());
            cpu.push((thread_cpu() - cpu0 + children).as_secs_f64());
            speed.push(ms(yardstick.measure()));
            product = Some(made);
        }
        let scale = REFERENCE_YARDSTICK_MS / median(&speed);
        self.host_s.extend(cpu.iter().map(|s| s * scale));
        self.cpu_s.extend(cpu);
        Ok(product.expect("at least one set-up"))
    }
}

/// `VmHWM` (peak resident set) of a process, in MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One recorded span: a call into a layer, bracketed from the benchmark.
struct SpanRecord {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder for the traced run. Disabled, [`Tracer::span`]
/// only calls through: no clock reads, no allocation.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for request `request`; spans
    /// opened inside `f` record this one as their parent.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::Str(span.name.to_string())),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                ("parent", parent),
                ("request", Json::Num(span.request as f64)),
            ])
            .render();
            writeln!(out, "{line}").expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

/// One reported metric: name, value, unit, and for the human table the
/// sample count and a note (e.g. the paper's value).
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The outcome of one workload run. Every output check is part of an
/// operation, so the outputs are correct exactly when no operation failed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable failure reasons, first few only.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records one operation; `Err` counts it as failed.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = result {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(problem);
            }
        }
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Prints the human table, then the JSON result as the last line.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        let correct = self.failed == 0;
        println!(
            "themis-perfbench  workload={workload} seed={seed} trace={} attempted={} failed={} correct={correct}",
            u8::from(trace),
            self.attempted,
            self.failed,
        );
        for problem in &self.problems {
            println!("  FAILED: {problem}");
        }
        println!(
            "  {:<26} {:>14} {:<6} {:>8}  note",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            println!(
                "  {:<26} {:>14.4} {:<6} {:>8}  {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        );
        let line = Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ]);
        println!("{}", line.render());
    }
}

/// The timed phase of a closed loop: one caller, each request sent after the
/// previous reply.
#[derive(Default)]
pub struct Phase {
    /// Per-request on-CPU time, ms.
    pub cpu_ms: Vec<f64>,
    /// Per-request wall-clock time, ms.
    pub wall_ms: Vec<f64>,
    /// On-CPU time of the yardstick run just before each request, ms.
    pub yardstick_ms: Vec<f64>,
    /// Simulated cells the requests completed.
    pub cells: u64,
}

impl Phase {
    /// The factor that scales on-CPU time here to the reference speed.
    fn speed_scale(&self) -> f64 {
        REFERENCE_YARDSTICK_MS / median(&self.yardstick_ms)
    }

    /// Per-request host time, ms: on-CPU time at the reference speed.
    pub fn host_ms(&self) -> Vec<f64> {
        let scale = self.speed_scale();
        self.cpu_ms.iter().map(|ms| ms * scale).collect()
    }

    /// Cells per second of request time, for per-request times `ms`: the
    /// checks a caller makes between requests are outside the requests and
    /// so outside the rate.
    pub fn cells_per_s(&self, ms: &[f64]) -> f64 {
        self.cells as f64 / (ms.iter().sum::<f64>() / 1e3)
    }
}

/// Sends requests `0, 1, 2, ...` through `one` until `seconds` have passed,
/// stopping only at a multiple of `cycle` requests (so every input of a
/// cycling pool is sampled equally) and never before `min_requests`. The
/// yardstick runs before each request, outside it.
pub fn closed_loop(
    seconds: f64,
    cycle: usize,
    min_requests: usize,
    mut one: impl FnMut(usize) -> Sample,
) -> Phase {
    let started = Instant::now();
    let mut phase = Phase::default();
    let mut yardstick = Yardstick::new();
    let mut i = 0;
    while i % cycle != 0 || i < min_requests || started.elapsed().as_secs_f64() < seconds {
        phase.yardstick_ms.push(ms(yardstick.measure()));
        let sample = one(i);
        phase.cpu_ms.push(ms(sample.cpu));
        phase.wall_ms.push(ms(sample.wall));
        phase.cells += sample.cells;
        i += 1;
    }
    phase
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the CPU it runs on. Processes spawned later
/// inherit the mask, so a served request's client and daemon share one CPU
/// with the yardstick that measures that CPU's speed.
pub fn pin_to_current_cpu() -> Result<(), String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    let mask = u32::try_from(cpu)
        .ok()
        .and_then(|cpu| 1u64.checked_shl(cpu))
        .ok_or_else(|| format!("cannot pin to CPU {cpu}"))?;
    // SAFETY: `mask` is a valid CPU set of `size_of::<u64>()` bytes for the
    // call; pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    if status == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity to CPU {cpu} failed"))
    }
}

/// The yardstick time that defines the reference speed, ms: about what
/// [`Yardstick::measure`] takes on an idle 2-vCPU Xeon guest.
pub const REFERENCE_YARDSTICK_MS: f64 = 0.2;

/// The benchmark's yardstick: a fixed CPU-bound kernel that belongs to the
/// benchmark, not to the program. It sorts, hashes and formats a few
/// thousand integers in buffers allocated once, so the program's heap and
/// allocator do not change its cost; only the CPU's speed at the moment
/// does. Host times are scaled by it because the target box is a guest on a
/// shared host, whose speed moves with other guests' load.
pub struct Yardstick {
    values: Vec<u64>,
    sorted: Vec<u64>,
    table: Vec<u64>,
    text: String,
}

impl Yardstick {
    pub fn new() -> Self {
        let mut rng = Rng::new(0x007A_2D57_17C4);
        Yardstick {
            values: (0..2048).map(|_| rng.next_u64()).collect(),
            sorted: vec![0; 2048],
            table: vec![0; 4096],
            text: String::with_capacity(16 * 1024),
        }
    }

    /// Runs the kernel once; returns its on-CPU time.
    pub fn measure(&mut self) -> Duration {
        let started = thread_cpu();
        for round in 0..4u64 {
            self.sorted.copy_from_slice(&self.values);
            for value in &mut self.sorted {
                *value ^= round;
            }
            self.sorted.sort_unstable();
        }
        self.table.fill(0);
        let mask = self.table.len() - 1;
        for &value in &self.sorted {
            let mut slot = (value.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize & mask;
            while self.table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = value | 1;
        }
        self.text.clear();
        for &value in self.sorted.iter().step_by(4) {
            write!(self.text, "{},", value % 1_000_000_007)
                .expect("writing to a String cannot fail");
        }
        std::hint::black_box((&self.table, &self.text));
        thread_cpu() - started
    }
}
