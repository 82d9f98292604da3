//! The three benchmark workloads, built from a seed and driven through the
//! workspace crates' public API.
//!
//! * `pace-tpch` — the `xtask trace-report` demo: quick TPC-H (joins of up
//!   to 3 tables), FCN victim and surrogate, a full accelerated PACE
//!   campaign. Dominated by the generator's double-backward hypergradient.
//! * `greedy-imdb` — IMDB at experiment scale with JOB-style templates,
//!   4000 training and 400 test queries, Linear victim and surrogate, the
//!   Greedy attack. Dominated by exact `COUNT(*)`; no hypergradient.
//! * `served-dmv` — the `defense-report` drill scaled up: an Lb-S campaign
//!   through the validated hot-swap serving path, with open-loop
//!   background traffic near the server's modelled capacity.
//!
//! Every workload fixes the surrogate type: speculation keys off
//! wall-clock probe latency and would make outputs nondeterministic.

use crate::stats::{median, nearest_rank, Digest, SplitMix};
use pace_ce::{CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_core::{
    run_campaign, run_served_campaign, AttackMethod, AttackOutcome, AttackTarget,
    AttackerKnowledge, PipelineConfig, ServedTraffic, ServedVictim, Victim,
};
use pace_data::{build, Dataset, DatasetKind, Scale};
use pace_engine::{naive_count, Executor, HistogramEstimator};
use pace_serve::{
    pinned_from_encoded, Phase, PinnedQuery, ReplyRecord, Request, ServeConfig, ServeSummary,
    Server, SnapshotStore, Source,
};
use pace_trace as trace;
use pace_workload::{
    generate_from_templates, generate_queries, imdb_templates, LabeledQuery, QErrorSummary, Query,
    QueryEncoder, Workload, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// Open-loop arrival rate of served traffic, requests per virtual second:
/// just under the server's modelled capacity (full 16-row batches at
/// 2 ms + 0.8 ms/row ≈ 1080 req/s with the default `ServeConfig`).
pub const SERVE_RATE: f64 = 1000.0;
/// Virtual seconds of background traffic per `served-dmv` poison wave
/// (10 000 requests, well under the 100 000-per-wave id stride).
const WAVE_WINDOW: f64 = 10.0;
/// Virtual seconds of the post-campaign serving drill (50 000 requests).
const DRILL_SECONDS: f64 = 50.0;
/// The drill's traffic is served in this many consecutive `Server::run`
/// calls; host time per request is the median over them, so one host
/// hiccup moves one chunk, not the whole sample.
const DRILL_CHUNKS: usize = 10;
/// Swap limit of `served-dmv`: the clean model's own pinned-set median
/// q-error times this margin (the `defense-report` setting).
const SWAP_MARGIN: f64 = 2.0;
/// Pinned validation queries of every server.
const PINNED: usize = 24;
/// Largest nested-loop enumeration (product of the pattern's table sizes)
/// the naive reference count is run on.
const NAIVE_MAX_COMBOS: f64 = 400_000.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PaceTpch,
    GreedyImdb,
    ServedDmv,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "pace-tpch" => Some(Self::PaceTpch),
            "greedy-imdb" => Some(Self::GreedyImdb),
            "served-dmv" => Some(Self::ServedDmv),
            _ => None,
        }
    }

    fn method(self) -> AttackMethod {
        match self {
            Self::PaceTpch => AttackMethod::Pace,
            Self::GreedyImdb => AttackMethod::Greedy,
            Self::ServedDmv => AttackMethod::LbS,
        }
    }

    fn model_type(self) -> CeModelType {
        match self {
            Self::PaceTpch => CeModelType::Fcn,
            Self::GreedyImdb | Self::ServedDmv => CeModelType::Linear,
        }
    }
}

/// Everything a workload's campaigns start from: the seeded dataset and
/// query workloads, the trained victim model, and (for `served-dmv`) the
/// serving parameters.
pub struct Setup {
    pub kind: Kind,
    pub seed: u64,
    pub ds: Dataset,
    pub history: Vec<Query>,
    pub train: Workload,
    pub test: Workload,
    pub data: EncodedWorkload,
    pub model: CeModel,
    pub k: AttackerKnowledge,
    pub cfg: PipelineConfig,
    /// Queries sent to `Executor::count_batch` for labeling.
    pub labeled: usize,
    pub pinned: Vec<PinnedQuery>,
    /// Swap limit of the served campaign's shadow validation.
    pub swap_limit: f64,
    /// The server built during set-up; the first served campaign uses it.
    pub server: Option<Server>,
}

/// Builds a workload's inputs from `seed` and trains its victim. Each
/// layer call sits in a span named after the layer it measures.
pub fn setup(kind: Kind, seed: u64) -> Result<Setup, String> {
    let ds = {
        let _s = trace::span("data::build");
        match kind {
            Kind::PaceTpch => build(DatasetKind::Tpch, Scale::quick(), seed),
            Kind::GreedyImdb => build(DatasetKind::Imdb, Scale::experiment(), seed),
            Kind::ServedDmv => build(DatasetKind::Dmv, Scale::quick(), seed),
        }
    };
    let spec = match kind {
        Kind::ServedDmv => WorkloadSpec::single_table(),
        _ => WorkloadSpec {
            max_join_tables: 3,
            ..WorkloadSpec::default()
        },
    };
    let (n_train, n_test) = match kind {
        Kind::PaceTpch => (400, 80),
        Kind::GreedyImdb => (4000, 400),
        Kind::ServedDmv => (400, 100),
    };
    let (history, test_q) = {
        let _s = trace::span("workload::generate");
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(100));
        if kind == Kind::GreedyImdb {
            let templates = imdb_templates();
            let h = generate_from_templates(&ds, &templates, &spec, &mut rng, n_train);
            let t = generate_from_templates(&ds, &templates, &spec, &mut rng, n_test);
            (h, t)
        } else {
            let h = generate_queries(&ds, &spec, &mut rng, n_train);
            let t = generate_queries(&ds, &spec, &mut rng, n_test);
            (h, t)
        }
    };
    let (train, test) = {
        let _s = trace::span("engine::label");
        let exec = Executor::new(&ds);
        (
            exec.label_nonzero(history.clone()),
            exec.label_nonzero(test_q),
        )
    };
    if train.is_empty() || test.is_empty() {
        return Err("seeded workload labeled no non-empty query".into());
    }
    let (data, k) = {
        let _s = trace::span("workload::encode");
        let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &train);
        let k = {
            let _e = trace::span("engine::ln-max");
            AttackerKnowledge::from_public(&ds, spec)
        };
        (data, k)
    };
    let model = {
        let _s = trace::span("ce::train-victim");
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(200));
        let mut model = CeModel::new(kind.model_type(), &ds, CeConfig::quick(), seed);
        model
            .train(&data, &mut rng)
            .map_err(|e| format!("victim training failed: {e}"))?;
        model
    };
    let cfg = PipelineConfig {
        surrogate_type: Some(kind.model_type()),
        ..PipelineConfig::quick()
    };
    let pinned = pinned_from_encoded(&data, PINNED);
    let swap_limit = {
        let _s = trace::span("serve::pinned-probe");
        SnapshotStore::new(pinned.clone(), 1e6, 3).shadow_median_qerr(&model) * SWAP_MARGIN
    };
    let mut setup = Setup {
        kind,
        seed,
        labeled: history.len() + n_test,
        ds,
        history,
        train,
        test,
        data,
        model,
        k,
        cfg,
        pinned,
        swap_limit,
        server: None,
    };
    if kind == Kind::ServedDmv {
        setup.server = Some(build_server(&setup, setup.swap_limit));
    }
    Ok(setup)
}

/// A fresh server with the histogram fallback and no model installed yet.
fn build_server(s: &Setup, swap_limit: f64) -> Server {
    let _s = trace::span("serve::build-server");
    let fallback = {
        let _h = trace::span("engine::histogram");
        HistogramEstimator::build(&s.ds, 32)
    };
    let cfg = ServeConfig {
        swap_qerr_limit: swap_limit,
        ..ServeConfig::default()
    };
    Server::new(cfg, s.ds.schema.clone(), s.pinned.clone(), Some(fallback))
}

/// What one campaign produced.
pub struct CampaignRun {
    pub wall_s: f64,
    pub outcome: AttackOutcome,
    /// Poison queries the victim accepted, labeled by the victim.
    pub injected: Vec<LabeledQuery>,
    /// Served campaigns only: every reply record and the server counters.
    pub replies: Vec<ReplyRecord>,
    pub summary: Option<ServeSummary>,
    /// The model in effect after the campaign (what the drill serves).
    pub model: CeModel,
}

/// Runs the workload's campaign on a fresh copy of the trained victim.
/// `wall_s` times the `run_campaign` / `run_served_campaign` call alone.
pub fn campaign(s: &Setup, server: Option<Server>, work: &Path) -> Result<CampaignRun, String> {
    let _c = trace::span("core::campaign");
    let manifest = work.join("campaign.manifest");
    let method = s.kind.method();
    if s.kind == Kind::ServedDmv {
        let server = match server {
            Some(server) => server,
            None => build_server(s, s.swap_limit),
        };
        let pool: Vec<Query> = s.test.iter().map(|lq| lq.query.clone()).collect();
        let traffic = ServedTraffic {
            rate: SERVE_RATE,
            window: WAVE_WINDOW,
            ..ServedTraffic::new(pool, s.seed ^ 0x5e7d)
        };
        let mut served = {
            let _v = trace::span("serve::install-victim");
            ServedVictim::new(
                server,
                s.model.clone(),
                Executor::new(&s.ds),
                s.history.clone(),
                traffic,
            )
            .map_err(|e| format!("clean model failed its own shadow validation: {e}"))?
        };
        let t0 = Instant::now();
        let outcome = run_served_campaign(&mut served, method, &s.test, &s.k, &s.cfg, &manifest)
            .map_err(|e| format!("served campaign failed: {e}"))?;
        let wall_s = t0.elapsed().as_secs_f64();
        Ok(CampaignRun {
            wall_s,
            outcome,
            injected: served.injected().to_vec(),
            replies: served.replies(),
            summary: Some(served.summary()),
            model: served.effective_model().clone(),
        })
    } else {
        let mut victim = Victim::new(s.model.clone(), Executor::new(&s.ds), s.history.clone());
        let t0 = Instant::now();
        let outcome = run_campaign(&mut victim, method, &s.test, &s.k, &s.cfg, &manifest)
            .map_err(|e| format!("campaign failed: {e}"))?;
        let wall_s = t0.elapsed().as_secs_f64();
        Ok(CampaignRun {
            wall_s,
            outcome,
            injected: victim.injected().to_vec(),
            replies: Vec::new(),
            summary: None,
            model: victim.model().clone(),
        })
    }
}

/// What one serving drill produced.
pub struct DrillRun {
    /// Host µs per request inside `Server::run`: median over the chunks.
    pub host_us: f64,
    /// Host seconds of the shadow-validated install (`Server::try_swap`).
    pub swap_s: f64,
    pub requests: Vec<u64>,
    pub replies: Vec<ReplyRecord>,
    pub summary: ServeSummary,
}

/// Serves the post-campaign model to open-loop traffic at [`SERVE_RATE`]
/// for [`DRILL_SECONDS`] virtual seconds, drawing queries from the test
/// workload.
pub fn drill(s: &Setup, model: &CeModel, seed: u64) -> Result<DrillRun, String> {
    let _d = trace::span("serve::drill");
    // The drill validates a possibly poisoned model; it measures serving,
    // not the defense, so its swap limit admits any finite model.
    let mut server = build_server(s, 1e12);
    let t0 = Instant::now();
    server
        .try_swap(1, model.clone())
        .map_err(|e| format!("drill install failed: {e}"))?;
    let swap_s = t0.elapsed().as_secs_f64();
    let pool: Vec<Query> = s.test.iter().map(|lq| lq.query.clone()).collect();
    let phases = [Phase {
        name: "drill",
        duration: DRILL_SECONDS,
        rate: SERVE_RATE,
    }];
    let requests: Vec<Request> = pace_serve::generate(&phases, &pool, seed ^ 0xd1, 0.05, 0);
    let ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
    let size = requests.len().div_ceil(DRILL_CHUNKS).max(1);
    let mut replies = Vec::with_capacity(requests.len());
    let mut per_request = Vec::with_capacity(DRILL_CHUNKS);
    let mut rest = requests;
    while !rest.is_empty() {
        let tail = rest.split_off(size.min(rest.len()));
        let chunk = std::mem::replace(&mut rest, tail);
        let n = chunk.len();
        let t0 = Instant::now();
        let records = server.run(chunk, Vec::new());
        per_request.push(t0.elapsed().as_secs_f64() * 1e6 / n as f64);
        replies.extend(records);
    }
    Ok(DrillRun {
        host_us: median(&per_request),
        swap_s,
        requests: ids,
        replies,
        summary: server.summary().clone(),
    })
}

/// Reply latency in virtual milliseconds, counted from each request's
/// scheduled arrival (the generator is open-loop on the virtual clock, so
/// it is never late).
fn latencies_ms(replies: &[ReplyRecord]) -> Vec<f64> {
    let mut v: Vec<f64> = replies
        .iter()
        .filter_map(|r| {
            let reply = r.outcome.as_ref().ok()?;
            Some((reply.completed_at - r.arrival) * 1e3)
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

pub fn percentile_ms(replies: &[ReplyRecord], p: f64) -> f64 {
    let v = latencies_ms(replies);
    if v.is_empty() {
        0.0
    } else {
        nearest_rank(&v, p)
    }
}

/// The replies whose latency the workload reports: the campaign's own
/// traffic on `served-dmv`, the drill everywhere else.
pub fn reported_replies<'a>(c: &'a CampaignRun, d: &'a DrillRun) -> &'a [ReplyRecord] {
    if c.replies.is_empty() {
        &d.replies
    } else {
        &c.replies
    }
}

/// Typed rejections among served requests.
pub fn rejected(replies: &[ReplyRecord]) -> u64 {
    replies.iter().filter(|r| r.outcome.is_err()).count() as u64
}

// ---- correctness -------------------------------------------------------

fn finite_summary(s: &QErrorSummary) -> bool {
    [s.mean, s.median, s.p90, s.p95, s.p99, s.max]
        .iter()
        .all(|v| v.is_finite())
}

fn reply_ok(r: &ReplyRecord) -> bool {
    match &r.outcome {
        Ok(reply) => reply.estimate.is_finite() && reply.estimate >= 0.0,
        Err(_) => true,
    }
}

/// Checks one campaign and its drill: finite q-error summaries, exactly one
/// record per served request, every estimate finite and ≥ 0.
pub fn check_outputs(c: &CampaignRun, d: &DrillRun) -> Vec<String> {
    let _s = trace::span("bench::check");
    let mut failures = Vec::new();
    if !finite_summary(&c.outcome.clean) || !finite_summary(&c.outcome.poisoned) {
        failures.push("non-finite q-error summary".to_string());
    }
    if let Some(summary) = &c.summary {
        let ids: BTreeSet<u64> = c.replies.iter().map(|r| r.id).collect();
        if ids.len() != c.replies.len() || c.replies.len() as u64 != summary.requests {
            failures.push(format!(
                "served campaign: {} records, {} distinct ids, {} requests",
                c.replies.len(),
                ids.len(),
                summary.requests
            ));
        }
    }
    let got: Vec<u64> = {
        let mut v: Vec<u64> = d.replies.iter().map(|r| r.id).collect();
        v.sort_unstable();
        v
    };
    let mut want = d.requests.clone();
    want.sort_unstable();
    if got != want {
        failures.push(format!(
            "drill: {} requests but {} reply records (or ids differ)",
            want.len(),
            got.len()
        ));
    }
    if !c.replies.iter().chain(&d.replies).all(reply_ok) {
        failures.push("a served estimate is non-finite or negative".to_string());
    }
    failures
}

/// Nested-loop enumeration size of the naive reference count.
fn naive_combos(ds: &Dataset, q: &Query) -> f64 {
    q.tables
        .iter()
        .map(|&t| ds.tables[t].num_rows() as f64)
        .product()
}

/// Re-counts a seeded sample of labeled training queries and of the
/// victim's labeled poison queries with the brute-force reference
/// `naive_count`, which must equal `Executor::count`. Only queries whose
/// enumeration stays under [`NAIVE_MAX_COMBOS`] are eligible. Returns the
/// number of queries checked.
pub fn naive_recount(s: &Setup, c: &CampaignRun, seed: u64) -> Result<usize, String> {
    let _s = trace::span("bench::check");
    let mut rng = SplitMix::new(seed ^ 0xa11ce);
    let mut checked = 0usize;
    let groups: [(&str, Vec<&LabeledQuery>, usize, bool); 2] = [
        (
            "labeled",
            s.train.iter().chain(&s.test).collect(),
            12,
            false,
        ),
        ("poison", c.injected.iter().collect(), 6, true),
    ];
    for (what, pool, want, clamped) in groups {
        let eligible: Vec<&LabeledQuery> = pool
            .into_iter()
            .filter(|lq| naive_combos(&s.ds, &lq.query) <= NAIVE_MAX_COMBOS)
            .collect();
        for i in rng.sample(eligible.len(), want) {
            let lq = eligible[i];
            let reference = naive_count(&s.ds, &lq.query);
            let reference = if clamped { reference.max(1) } else { reference };
            if reference != lq.cardinality {
                return Err(format!(
                    "{what} query {:?}: Executor::count gave {}, naive_count {reference}",
                    lq.query, lq.cardinality
                ));
            }
            checked += 1;
        }
    }
    if checked == 0 {
        return Err("no query was small enough for the naive reference count".into());
    }
    Ok(checked)
}

/// Digest of everything a campaign and its drill output: poison queries,
/// q-error bits, the swap ledger and every reply record.
pub fn digest(c: &CampaignRun, d: &DrillRun) -> u64 {
    let _s = trace::span("bench::digest");
    let mut h = Digest::new();
    for q in &c.outcome.poison {
        h.u64(q.tables.len() as u64);
        for &t in &q.tables {
            h.u64(t as u64);
        }
        for p in &q.predicates {
            h.u64(p.table as u64);
            h.u64(p.col as u64);
            h.u64(p.lo as u64);
            h.u64(p.hi as u64);
        }
    }
    for s in [&c.outcome.clean, &c.outcome.poisoned] {
        for v in [s.mean, s.median, s.p90, s.p95, s.p99, s.max] {
            h.f64(v);
        }
    }
    for sw in &c.outcome.swaps {
        h.u64(sw.wave);
        h.u64(sw.version);
        h.f64(sw.at);
        h.str(sw.class());
    }
    for r in c.replies.iter().chain(&d.replies) {
        h.u64(r.id);
        h.f64(r.arrival);
        match &r.outcome {
            Ok(reply) => {
                h.f64(reply.estimate);
                h.f64(reply.completed_at);
                h.u64(u64::from(reply.source == Source::Learned));
            }
            Err(e) => h.str(&format!("{e:?}")),
        }
    }
    h.finish()
}

/// Digest of a trained victim's parameters (set-up determinism).
pub fn model_digest(m: &CeModel) -> u64 {
    let _s = trace::span("bench::digest");
    let mut h = Digest::new();
    for p in m.params().snapshot() {
        for &x in p.data() {
            h.u64(u64::from(x.to_bits()));
        }
    }
    h.finish()
}
