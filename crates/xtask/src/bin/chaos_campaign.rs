//! Deterministic quick campaign for the chaos matrix (`xtask chaos`).
//!
//! Runs one resumable PACE campaign against a quick TPC-H victim and prints
//! a timing-free, bit-deterministic report (q-error table + FNV fingerprint
//! of the poisoned model). The harness runs this binary under different
//! `PACE_FAULTS` specs and compares stdout and exit codes:
//!
//! * `0` — campaign completed with finite results;
//! * `2` — campaign failed with a typed [`CampaignError`];
//! * `3` — campaign completed but produced non-finite q-errors (a recovery
//!   path failed silently — always a bug);
//! * `86` — an injected crash fault killed the process
//!   ([`pace_tensor::fault::CRASH_EXIT_CODE`]); rerun with the same manifest
//!   path to resume.
//!
//! ```text
//! chaos_campaign <manifest-path> [seed]
//! ```

#[path = "../fingerprint.rs"]
mod fingerprint;

use pace_ce::{CeConfig, CeModel, CeModelType, EncodedWorkload};
use pace_core::{run_campaign, AttackMethod, AttackerKnowledge, PipelineConfig, Victim};
use pace_data::{build, DatasetKind, Scale};
use pace_engine::Executor;
use pace_workload::{generate_queries, QErrorSummary, QueryEncoder, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(manifest) = args.next().map(PathBuf::from) else {
        eprintln!("usage: chaos_campaign <manifest-path> [seed]");
        return ExitCode::FAILURE;
    };
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be an unsigned integer"))
        .unwrap_or(42);

    let ds = build(DatasetKind::Tpch, Scale::quick(), seed);
    let exec = Executor::new(&ds);
    let spec = WorkloadSpec {
        max_join_tables: 3,
        ..WorkloadSpec::default()
    };
    let mut rng = StdRng::seed_from_u64(seed + 100);
    let history = generate_queries(&ds, &spec, &mut rng, 400);
    let test = exec.label_nonzero(generate_queries(&ds, &spec, &mut rng, 80));

    let labeled = exec.label_nonzero(history.clone());
    let data = EncodedWorkload::from_workload(&QueryEncoder::new(&ds), &labeled);
    let mut model = CeModel::new(CeModelType::Fcn, &ds, CeConfig::quick(), seed);
    if let Err(e) = model.train(&data, &mut rng) {
        eprintln!("chaos_campaign: victim training failed: {e}");
        return ExitCode::from(2);
    }
    let mut victim = Victim::new(model, Executor::new(&ds), history);

    let k = AttackerKnowledge::from_public(&ds, spec);
    let mut cfg = PipelineConfig::quick();
    // Fix the surrogate type: speculation's latency features are wall-clock
    // and would make the report non-deterministic.
    cfg.surrogate_type = Some(CeModelType::Fcn);

    let outcome = match run_campaign(&mut victim, AttackMethod::Pace, &test, &k, &cfg, &manifest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("chaos_campaign: campaign failed: {e}");
            return ExitCode::from(2);
        }
    };

    let finite = |s: &QErrorSummary| {
        [s.mean, s.median, s.p90, s.p95, s.p99, s.max]
            .iter()
            .all(|v| v.is_finite())
    };
    if !finite(&outcome.clean) || !finite(&outcome.poisoned) || !outcome.divergence.is_finite() {
        eprintln!("chaos_campaign: non-finite q-errors after recovery");
        return ExitCode::from(3);
    }

    let table = |name: &str, s: &QErrorSummary| {
        println!(
            "{name:<8} mean {:.6} median {:.6} p95 {:.6} max {:.6}",
            s.mean, s.median, s.p95, s.max
        );
    };
    table("clean", &outcome.clean);
    table("poisoned", &outcome.poisoned);
    println!(
        "poison queries: {}  divergence {:.6}",
        outcome.poison.len(),
        outcome.divergence
    );

    match fingerprint::campaign_fingerprint(&outcome, victim.model()) {
        Ok(fp) => {
            println!("fingerprint: {fp:016x}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("chaos_campaign: {e}");
            ExitCode::from(2)
        }
    }
}
