//! `pace-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <pace-tpch|greedy-imdb|served-dmv> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there and works
//! in `.perfbench-work/`). With `--trace 0` it measures the end-to-end
//! metrics with tracing off; with `--trace 1` it alternates untraced and
//! traced passes and reports the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. A failed correctness check exits with status 1, a usage or
//! run error with status 2. See `perfbench/README.md`.

mod layers;
mod stats;
mod workloads;

use layers::Trace;
use pace_ce::{CeModel, EncodedWorkload};
use pace_engine::Executor;
use pace_runtime::cost::{self, CostConstants};
use pace_serve::ServeSummary;
use pace_trace as trace;
use stats::{median, peak_rss_mb, SplitMix};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Kind, Setup};

/// Input sets per run, each seeded from `--seed`. Latency and q-error are
/// medians over the sets: one seeded dataset alone moves q-error by 20%
/// or more.
const INPUT_SETS: usize = 8;
/// Processes an end-to-end run measures in, one after another; process
/// `k` runs input set `k`. The program calibrates its cost model once per
/// process, and that calibration decides whether the pool fans out: on a
/// 2-core host some processes run sequentially, others fan out, and a
/// shared host adds bursts of its own. Timings are medians over processes
/// of each process's median, so one odd process moves nothing.
const PROCESSES: usize = INPUT_SETS;
/// Campaigns per measuring process at the least; a second campaign on
/// the same inputs checks that the outputs repeat.
const MIN_CAMPAIGNS: usize = 2;
/// Repetitions of the per-layer micro-timings inside one traced pass.
const PROBE_REPS: usize = 5;

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Set on the measuring processes an end-to-end run starts.
    process: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--process" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_string();
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let traced = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let process = match flags.get("--process") {
        Some(k) => Some(
            k.parse::<usize>()
                .ok()
                .filter(|&k| k < PROCESSES)
                .ok_or("--process out of range")?,
        ),
        None => None,
    };
    Ok(Args {
        workload,
        kind,
        seed,
        seconds,
        traced,
        process,
    })
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// One run's result.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// A per-run scratch directory inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<Self, String> {
        let path = PathBuf::from(".perfbench-work").join(std::process::id().to_string());
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent is shared by concurrent runs; remove it only if empty.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    // End-to-end numbers are measured untraced whatever PACE_TRACE says.
    trace::install(None);
    if let Some(k) = args.process {
        let work = WorkDir::new()?;
        println!("fingerprint {}", fingerprint(&args, &cost::constants()));
        measure(&args, k, &work.0)?;
        return Ok(ExitCode::SUCCESS);
    }
    let declared = read_declared(Path::new("BENCHMARK.json"))?;
    println!(
        "perfbench: {} seed {} — {} s of {} runs",
        args.workload,
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" }
    );
    let mut report = if args.traced {
        let work = WorkDir::new()?;
        let constants = cost::constants();
        println!("fingerprint {}", fingerprint(&args, &constants));
        per_layer(&args, &work.0, &constants)?
    } else {
        end_to_end(&args)?
    };
    let section = if args.traced {
        "per_layer"
    } else {
        "end_to_end"
    };
    let want = &declared[section];
    let got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    if &got != want {
        report.failures.push(format!(
            "printed metrics differ from BENCHMARK.json {section}: printed {got:?}, declared {want:?}"
        ));
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            report
                .failures
                .push(format!("metric {} is not finite", m.name));
        }
    }
    for m in &report.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &report.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let correct = report.failures.is_empty();
    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(v),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A JSON number with every digit `f64` carries (`{}` prints the shortest
/// representation that round-trips).
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Where a spread of this run can come from: the machine, the pool width,
/// the seed, and the cost constants this process calibrated.
fn fingerprint(args: &Args, c: &CostConstants) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let env: Vec<String> = [
        "PACE_THREADS",
        "PACE_SCHED_COST",
        "PACE_OPT",
        "PACE_AUDIT",
        "PACE_FAULTS",
    ]
    .iter()
    .filter_map(|k| {
        std::env::var(k)
            .ok()
            .map(|v| format!("{}: {}", json_str(k), json_str(&v)))
    })
    .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"nproc\": {nproc}, \"threads\": {}, \
         \"cost\": {{\"dispatch_ns\": {}, \"task_ns\": {}, \"flops_per_ns\": {}, \
         \"bytes_per_ns\": {}, \"effective_parallelism\": {}}}, \"env\": {{{}}}}}",
        json_str(&args.workload),
        args.seed,
        pace_runtime::threads(),
        json_num(c.dispatch_ns),
        json_num(c.task_ns),
        json_num(c.flops_per_ns),
        json_num(c.bytes_per_ns),
        json_num(c.effective_parallelism),
        env.join(", ")
    )
}

// ---- BENCHMARK.json --------------------------------------------------------

/// `(name, unit)` of every metric `BENCHMARK.json` declares, by section.
type Declared = BTreeMap<&'static str, Vec<(String, String)>>;

fn read_declared(path: &Path) -> Result<Declared, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        let key = format!("\"{section}\"");
        let at = text
            .find(&key)
            .ok_or_else(|| format!("BENCHMARK.json has no {section}"))?;
        let rest = &text[at + key.len()..];
        let open = rest.find('[').ok_or("malformed BENCHMARK.json")?;
        let close = rest.find(']').ok_or("malformed BENCHMARK.json")?;
        let entries = rest[open + 1..close]
            .split('}')
            .filter(|e| e.contains('{'))
            .map(|e| Ok((string_field(e, "name")?, string_field(e, "unit")?)))
            .collect::<Result<Vec<_>, String>>()?;
        out.insert(section, entries);
    }
    Ok(out)
}

/// The string value of `"key": "value"` inside one flat JSON object.
fn string_field(obj: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\"");
    let at = obj
        .find(&pat)
        .ok_or_else(|| format!("BENCHMARK.json entry without {key}"))?;
    let rest = &obj[at + pat.len()..];
    let start = rest.find('"').ok_or("malformed BENCHMARK.json")? + 1;
    let len = rest[start..].find('"').ok_or("malformed BENCHMARK.json")?;
    Ok(rest[start..start + len].to_string())
}

// ---- end-to-end run ----------------------------------------------------------

/// Runs the measuring processes one after another and pools their samples.
fn end_to_end(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let share = args.seconds / PROCESSES as f64;
    // Per process: median set-up, campaign and host µs; peak RSS.
    let (mut setup_s, mut campaign_s, mut host_us, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut campaigns = 0;
    let mut sets: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for k in 0..PROCESSES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &share.to_string()])
            .args(["--trace", "0", "--process", &k.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start measuring process {k}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "measuring process {k} failed ({}):\n{text}",
                out.status
            ));
        }
        let (mut setups, mut runs, mut hosts) = (Vec::new(), Vec::new(), Vec::new());
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| {
                f.get(i)
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(f64::NAN)
            };
            match f.first().copied() {
                Some("fingerprint") => println!("{line} (process {k})"),
                Some("setup_s") => setups.push(num(1)),
                Some("campaign_s") => runs.push(num(1)),
                Some("host_us") => hosts.push(num(1)),
                Some("rss_mb") => rss.push(num(1)),
                Some("ops") => {
                    report.attempted += num(1) as u64;
                    report.failed += num(2) as u64;
                }
                Some("set") => {
                    let j = num(1) as usize;
                    let fields: Vec<String> = f[2..].iter().map(|v| v.to_string()).collect();
                    match sets.get(&j) {
                        Some(first) if first != &fields => report.failures.push(format!(
                            "input set {j}: process {k} output {fields:?} differs from {first:?}"
                        )),
                        _ => {
                            sets.insert(j, fields);
                        }
                    }
                }
                Some("failure") => report.failures.push(line["failure ".len()..].to_string()),
                _ => {}
            }
        }
        campaigns += runs.len();
        println!(
            "perfbench: process {k}: campaign_s {:.4}, setup_s {:.4}, host_us {:.3}",
            median(&runs),
            median(&setups),
            median(&hosts)
        );
        setup_s.push(median(&setups));
        campaign_s.push(median(&runs));
        host_us.push(median(&hosts));
    }
    if sets.len() != INPUT_SETS || campaigns < PROCESSES * MIN_CAMPAIGNS {
        report.failures.push(format!(
            "{} of {INPUT_SETS} input sets and {campaigns} campaigns ran",
            sets.len()
        ));
    }
    // Per set: digest, p50, p99, q-error multiple, poisoned median, waves
    // landed, waves rolled back.
    let col = |i: usize| -> Vec<f64> {
        sets.values()
            .map(|f| f.get(i).and_then(|v| v.parse().ok()).unwrap_or(f64::NAN))
            .collect()
    };
    let digests: Vec<&str> = sets.values().map(|f| f[0].as_str()).collect();
    println!(
        "perfbench: {campaigns} campaigns in {PROCESSES} processes over {INPUT_SETS} input \
         sets, output digests {}",
        digests.join(" ")
    );
    println!(
        "perfbench: per input set q-error multiple {:.3?}, poisoned median q-error {:.3?}",
        col(3),
        col(4)
    );
    if args.kind == Kind::ServedDmv {
        println!(
            "perfbench: {} poison waves landed, {} rolled back",
            col(5).iter().sum::<f64>(),
            col(6).iter().sum::<f64>()
        );
    }
    println!(
        "perfbench: latency counts from each request's scheduled arrival on the virtual clock \
         (open loop at {} req/s), so the generator is never late",
        workloads::SERVE_RATE
    );
    report.metrics = vec![
        metric("setup_s", "s", median(&setup_s)),
        metric("campaign_s", "s", median(&campaign_s)),
        metric("host_us_per_request", "us", median(&host_us)),
        metric("virtual_p50_ms", "ms", median(&col(1))),
        metric("virtual_p99_ms", "ms", median(&col(2))),
        metric("peak_rss_mb", "MB", median(&rss)),
    ];
    Ok(report)
}

/// One measuring process: sets up input set `k` once, then runs campaigns
/// and drills on it until its share of `--seconds` is spent (at least
/// [`MIN_CAMPAIGNS`]), printing raw samples for the parent to pool.
fn measure(args: &Args, k: usize, work: &Path) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let seed = input_seed(args.seed, k);
    let t0 = Instant::now();
    let mut s = workloads::setup(args.kind, seed)?;
    println!("setup_s {}", t0.elapsed().as_secs_f64());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = Duration::ZERO;
    let mut n = 0;
    // Another campaign only when the last one's duration still fits.
    while n < MIN_CAMPAIGNS || Instant::now() + last <= deadline {
        let started = Instant::now();
        let server = s.server.take();
        let c = workloads::campaign(&s, server, work)?;
        let d = workloads::drill(&s, &c.model, seed)?;
        println!("campaign_s {}", c.wall_s);
        println!("host_us {}", d.host_us);
        let mut failures = workloads::check_outputs(&c, &d);
        attempted += 1 + (c.replies.len() + d.replies.len()) as u64;
        failed += workloads::rejected(&c.replies) + workloads::rejected(&d.replies);
        if n == 0 {
            if let Err(e) = workloads::naive_recount(&s, &c, seed) {
                failures.push(e);
            }
        }
        let replies = workloads::reported_replies(&c, &d);
        let accepted = c.outcome.swaps.iter().filter(|w| w.result.is_ok()).count();
        println!(
            "set {k} {:016x} {} {} {} {} {accepted} {}",
            workloads::digest(&c, &d) ^ workloads::model_digest(&s.model),
            workloads::percentile_ms(replies, 0.5),
            workloads::percentile_ms(replies, 0.99),
            c.outcome.qerror_multiple(),
            c.outcome.poisoned.median,
            c.outcome.swaps.len() - accepted
        );
        for f in failures {
            println!("failure input set {k}: {}", f.replace('\n', " "));
        }
        last = started.elapsed();
        n += 1;
    }
    println!("ops {attempted} {failed}");
    println!("rss_mb {}", peak_rss_mb());
    Ok(())
}

/// Seed of input set `j` of a run: the run's `--seed` fixes all of them.
fn input_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(INPUT_SETS as u64).wrapping_add(j as u64)
}

// ---- traced run ------------------------------------------------------------------

/// Benchmark-side timings of single public calls, taken inside a pass.
struct Probes {
    count_us: f64,
    estimate_b1_us: f64,
    estimate_b16_us: f64,
    replay_us: f64,
    matmul_flops: f64,
    matmul_gflops: f64,
    matmul_share: f64,
    swap_ms: f64,
}

/// What one pass reports besides its trace.
struct Pass {
    wall_s: f64,
    digest: u64,
    failures: Vec<String>,
    probes: Probes,
    serve: ServeSummary,
    labeled: u64,
    poison: u64,
    multiple: f64,
    poisoned_median: f64,
    requests: u64,
    rejected: u64,
}

/// One full pass — set-up, campaign, drill, per-layer probes and checks —
/// under the root span every layer's self time is charged inside.
fn pass(args: &Args, seed: u64, work: &Path) -> Result<Pass, String> {
    let t0 = Instant::now();
    let root = trace::span(layers::ROOT);
    let mut s = workloads::setup(args.kind, seed)?;
    let server = s.server.take();
    let c = workloads::campaign(&s, server, work)?;
    let d = workloads::drill(&s, &c.model, seed)?;
    let (estimate_b1_us, estimate_b16_us) = estimate_probe(&s.model, &s.data);
    let (replay_us, matmul_flops, matmul_gflops, matmul_share) = tensor_probe(&s);
    let probes = Probes {
        count_us: count_probe(&s, seed),
        estimate_b1_us,
        estimate_b16_us,
        replay_us,
        matmul_flops,
        matmul_gflops,
        matmul_share,
        swap_ms: d.swap_s * 1e3,
    };
    let mut failures = workloads::check_outputs(&c, &d);
    if let Err(e) = workloads::naive_recount(&s, &c, seed) {
        failures.push(e);
    }
    let out = Pass {
        wall_s: 0.0,
        digest: workloads::digest(&c, &d) ^ workloads::model_digest(&s.model),
        failures,
        probes,
        serve: c.summary.clone().unwrap_or_else(|| d.summary.clone()),
        labeled: s.labeled as u64,
        poison: c.outcome.poison.len() as u64,
        multiple: c.outcome.qerror_multiple(),
        poisoned_median: c.outcome.poisoned.median,
        requests: (c.replies.len() + d.replies.len()) as u64,
        rejected: workloads::rejected(&c.replies) + workloads::rejected(&d.replies),
    };
    {
        let _t = trace::span("bench::teardown");
        drop((s, c, d));
    }
    drop(root);
    Ok(Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        ..out
    })
}

/// Median µs of one `Executor::count` over a seeded sample of test queries.
fn count_probe(s: &Setup, seed: u64) -> f64 {
    let _s = trace::span("engine::count-sample");
    let exec = Executor::new(&s.ds);
    let mut rng = SplitMix::new(seed ^ 0xc0);
    let times: Vec<f64> = rng
        .sample(s.test.len(), 64)
        .into_iter()
        .map(|i| {
            let t0 = Instant::now();
            std::hint::black_box(exec.count(std::hint::black_box(&s.test[i].query)));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// µs per row of `CeModel::estimate_encoded_batch` at batch 1 and 16.
fn estimate_probe(model: &CeModel, data: &EncodedWorkload) -> (f64, f64) {
    let _s = trace::span("ce::estimate-sample");
    let rows: Vec<Vec<f32>> = data.enc.iter().cycle().take(16).cloned().collect();
    let per_row = |batch: usize| {
        let calls = 64 / batch;
        let times: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let t0 = Instant::now();
                for i in 0..calls {
                    let lo = (i * batch) % rows.len();
                    let chunk = &rows[lo..lo + batch];
                    std::hint::black_box(model.estimate_encoded_batch(std::hint::black_box(chunk)));
                }
                t0.elapsed().as_secs_f64() * 1e6 / (calls * batch) as f64
            })
            .collect();
        median(&times)
    };
    (per_row(1), per_row(16))
}

/// The generator's hypergradient tape at the campaign's batch size and
/// unroll depth: median replay µs and the MatMul share of it.
fn tensor_probe(s: &Setup) -> (f64, f64, f64, f64) {
    let _s = trace::span("tensor::hypergradient");
    let a = &s.cfg.attack;
    let poison: Vec<usize> = (0..a.batch).map(|i| i % s.data.len()).collect();
    let poison = s.data.subset(&poison);
    let test = EncodedWorkload::from_workload(&s.k.encoder, &s.test);
    let n = a.test_subset.min(test.len()).max(1);
    let (g, outputs, inputs) = pace_core::attack::build_hypergradient_tape(
        &s.model,
        &poison.enc,
        &poison.ln_card,
        &test.enc[..n],
        &test.ln_card[..n],
        a.unroll_steps,
        a.unroll_lr,
    );
    let plan = pace_tensor::opt::optimize(&g, &outputs, &inputs, "attack::hypergradient");
    let mut arena = pace_tensor::opt::Arena::new();
    let _ = plan.replay_profiled(&mut arena);
    let mut totals = Vec::new();
    let (mut mm_ns, mut mm_flops, mut all_ns) = (0.0, 0.0, 0.0);
    for _ in 0..PROBE_REPS {
        let rows = plan.replay_profiled(&mut arena);
        let total: f64 = rows.iter().map(|r| r.measured_ns as f64).sum();
        totals.push(total / 1e3);
        all_ns += total;
        if let Some(mm) = rows.iter().find(|r| r.op == "MatMul") {
            mm_ns += mm.measured_ns as f64;
            mm_flops += mm.flops as f64;
        }
    }
    let reps = PROBE_REPS as f64;
    (
        median(&totals),
        mm_flops / reps,
        if mm_ns > 0.0 { mm_flops / mm_ns } else { 0.0 },
        if all_ns > 0.0 { mm_ns / all_ns } else { 0.0 },
    )
}

fn per_layer(args: &Args, work: &Path, constants: &CostConstants) -> Result<Report, String> {
    let mut report = Report::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut samples: BTreeMap<String, (&'static str, Vec<f64>)> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    // Warm-up: the first pass of a process pays page faults and lazy
    // initialisation that later passes do not.
    pass(args, input_seed(args.seed, 0), work)?;
    let mut digests: Vec<Option<u64>> = vec![None; INPUT_SETS];
    let mut i = 0;
    while i == 0 || Instant::now() < deadline {
        for traced in [false, true] {
            let path = work.join(format!("trace-{i}.jsonl"));
            if traced {
                trace::reset_metrics();
                trace::install(Some(path.clone()));
                if !trace::enabled() {
                    return Err(format!("cannot trace to {}", path.display()));
                }
            }
            let j = i % INPUT_SETS;
            let p = pass(args, input_seed(args.seed, j), work);
            if traced {
                trace::flush();
                trace::install(None);
            }
            let p = p?;
            report.failures.extend(p.failures.iter().cloned());
            // Traced and untraced passes over one input set must agree.
            if digests[j].is_some_and(|f| f != p.digest) {
                report.failures.push(format!(
                    "input set {j}: output digest {:016x} of a {} pass differs from the first \
                     pass's",
                    p.digest,
                    if traced { "traced" } else { "untraced" }
                ));
            }
            digests[j].get_or_insert(p.digest);
            report.attempted += 1 + p.requests;
            report.failed += p.rejected;
            if !traced {
                untraced_s.push(p.wall_s);
                continue;
            }
            traced_s.push(p.wall_s);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let t = layers::parse(&text);
            let _ = std::fs::remove_file(&path);
            let iters = t.count("attack::accelerated::iter");
            if iters > 0 {
                // Only PACE trains a detector and iterates a generator, and
                // no declared workload runs PACE (see README.md).
                println!(
                    "perfbench: generator: detector training {:.4} s, {iters} iterations, \
                     p50 {:.3} ms per iteration",
                    t.lead_in_s("attack::accelerated", "attack::accelerated::iter"),
                    t.median_us("attack::accelerated::iter") / 1e3
                );
            }
            report.attempted += t.counter("oracle_probes");
            report.failed += t.counter("oracle_degraded");
            for m in layer_metrics(&t, &p, constants, &mut report.failures) {
                if !samples.contains_key(&m.name) {
                    order.push(m.name.clone());
                }
                samples
                    .entry(m.name)
                    .or_insert((m.unit, Vec::new()))
                    .1
                    .push(m.value);
            }
        }
        i += 1;
    }
    println!(
        "perfbench: {} untraced and {} traced passes",
        untraced_s.len(),
        traced_s.len()
    );
    for name in order {
        let (unit, v) = &samples[&name];
        report.metrics.push(metric(&name, unit, median(v)));
    }
    let base = median(&untraced_s);
    report.metrics.push(metric(
        "trace.overhead_pct",
        "%",
        (median(&traced_s) - base) / base * 100.0,
    ));
    Ok(report)
}

/// The per-layer metrics of one traced pass, in `BENCHMARK.json` order
/// (except `trace.overhead_pct`, which compares passes).
fn layer_metrics(
    t: &Trace,
    p: &Pass,
    c: &CostConstants,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let threads = pace_runtime::threads();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut self_s = BTreeMap::new();
    match t.root() {
        Some(root) => {
            let wall = t.spans[root].dur as f64 / 1e9;
            let (layers, unattributed) = t.layer_self_s(root);
            let tiled: f64 = layers.values().sum::<f64>() + unattributed;
            // The trace-report coverage gate: spans must account for all
            // but 1% of the pass, and the pass span for its measured wall.
            if unattributed > 0.01 * wall || (wall - p.wall_s).abs() > 0.01 * p.wall_s {
                failures.push(format!(
                    "layer self times do not tile the pass: {unattributed:.4} s of {wall:.4} s \
                     outside any layer span, pass span {wall:.4} s vs measured wall {:.4} s",
                    p.wall_s
                ));
            }
            if (tiled - wall).abs() > 1e-6 * wall.max(1.0) {
                failures.push(format!(
                    "self times sum to {tiled:.6} s, pass span is {wall:.6} s"
                ));
            }
            self_s = layers;
        }
        None => failures.push("traced pass has no root span".into()),
    }
    let inline = t.hist_total("pool_inline_tasks") as f64;
    let fanned = t.hist_total("pool_chunks_per_worker") as f64 / threads.max(1) as f64;
    let serve = &p.serve;
    let mut out = vec![
        metric("data.build_s", "s", t.total_s("data::build")),
        metric("workload.gen_s", "s", t.total_s("workload::generate")),
        metric("engine.label_s", "s", t.total_s("engine::label")),
        metric(
            "engine.counts",
            "count",
            (p.labeled + t.count("oracle::count") + p.poison) as f64,
        ),
        metric("engine.count_us.p50", "us", p.probes.count_us),
        metric("ce.train_s", "s", t.total_s("ce::train")),
        metric("ce.adam_steps", "count", t.count("ce::step_adam") as f64),
        metric("ce.step_adam_us.p50", "us", t.median_us("ce::step_adam")),
        metric("ce.update_s", "s", t.total_s("ce::update")),
        metric("ce.estimate_us_per_row.b1", "us", p.probes.estimate_b1_us),
        metric("ce.estimate_us_per_row.b16", "us", p.probes.estimate_b16_us),
        metric("tensor.hypergrad_replay_us", "us", p.probes.replay_us),
        metric("tensor.matmul_gflops", "GFLOP/s", p.probes.matmul_gflops),
        metric("tensor.matmul_share", "ratio", p.probes.matmul_share),
        metric("tensor.matmul_flops", "count", p.probes.matmul_flops),
        metric("core.surrogate_train_s", "s", t.total_s("surrogate::train")),
        metric(
            "core.oracle_probes",
            "count",
            t.counter("oracle_probes") as f64,
        ),
        metric(
            "core.oracle_retries",
            "count",
            t.counter("oracle_retries") as f64,
        ),
        metric(
            "core.oracle_degraded",
            "count",
            t.counter("oracle_degraded") as f64,
        ),
        metric("core.wave_s", "s", t.total_s("campaign::wave")),
        metric("qerror_multiple", "ratio", p.multiple),
        metric("poisoned_median_qerror", "ratio", p.poisoned_median),
        metric("serve.requests", "count", serve.requests as f64),
        metric("serve.batches", "count", serve.batches as f64),
        metric(
            "serve.rows_per_batch",
            "count",
            serve.learned_served as f64 / serve.batches.max(1) as f64,
        ),
        metric(
            "serve.learned_share",
            "ratio",
            serve.learned_served as f64 / serve.requests.max(1) as f64,
        ),
        metric(
            "serve.fallback_served",
            "count",
            serve.fallback_served as f64,
        ),
        metric("serve.shed", "count", serve.shed as f64),
        metric(
            "serve.max_queue_depth",
            "count",
            serve.max_queue_depth as f64,
        ),
        metric("serve.swap_validate_ms", "ms", p.probes.swap_ms),
        metric("pool.nproc", "count", nproc as f64),
        metric("pool.threads", "count", threads as f64),
        metric("pool.tasks", "count", t.counter("pool_tasks") as f64),
        metric(
            "pool.inline_share",
            "ratio",
            if inline + fanned > 0.0 {
                inline / (inline + fanned)
            } else {
                0.0
            },
        ),
        metric("pool.dispatch_ns", "ns", c.dispatch_ns),
        metric(
            "pool.effective_parallelism",
            "ratio",
            c.effective_parallelism,
        ),
    ];
    for layer in layers::LAYERS {
        out.push(metric(
            &format!("self_s.{layer}"),
            "s",
            self_s.get(layer).copied().unwrap_or(0.0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared() -> Declared {
        read_declared(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn per_layer_names_match_benchmark_json() {
        let pass = Pass {
            wall_s: 0.0,
            digest: 0,
            failures: Vec::new(),
            probes: Probes {
                count_us: 0.0,
                estimate_b1_us: 0.0,
                estimate_b16_us: 0.0,
                replay_us: 0.0,
                matmul_flops: 0.0,
                matmul_gflops: 0.0,
                matmul_share: 0.0,
                swap_ms: 0.0,
            },
            serve: ServeSummary::default(),
            labeled: 0,
            poison: 0,
            multiple: 0.0,
            poisoned_median: 0.0,
            requests: 0,
            rejected: 0,
        };
        let mut failures = Vec::new();
        let mut got: Vec<(String, String)> =
            layer_metrics(&layers::parse(""), &pass, &cost::constants(), &mut failures)
                .into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect();
        got.push(("trace.overhead_pct".into(), "%".into()));
        assert_eq!(got, declared()["per_layer"]);
    }

    #[test]
    fn end_to_end_section_is_parsed() {
        let names: Vec<String> = declared()["end_to_end"]
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        assert_eq!(names[0], "setup_s");
        assert!(names.contains(&"campaign_s".to_string()));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
    }
}
