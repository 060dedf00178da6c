//! Chaos sweep: runs seeded randomized fault schedules against the
//! durable serving core and proves (a) every standing invariant held on
//! every schedule and (b) every registered fault-injection site actually
//! fired at least once across the sweep.
//!
//! Modes:
//!
//! ```text
//! --smoke        64 consecutive seeds (CI gate, ~seconds)
//! --soak [N]     N seeds, default 2048 (nightly)
//! --seed N       one schedule, verbose (reproduce a failure)
//! ```
//!
//! Writes `BENCH_chaos.json` at the repo root with
//! `chaos_invariants_asserted` and the fault-site coverage map; CI greps
//! the flag and requires zero uncovered sites. On violation the greedy
//! shrinker emits a minimal reproducing schedule (also written to
//! `CHAOS_MINIMAL_SCHEDULE.txt`) and the process exits nonzero.

use ascs_sketch_hash::codec::FaultSiteRegistry;
use ascs_testkit::chaos::{run_schedule, ChaosOptions, ChaosSchedule};
use ascs_testkit::shrink;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

const OUTPUT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
const MINIMAL_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../CHAOS_MINIMAL_SCHEDULE.txt"
);

/// Base of the smoke seed range: 64 consecutive seeds from here cover
/// every fault kind (`seed % 9`) and every kill residue (`seed % 4`).
const SMOKE_BASE: u64 = 1000;
const SMOKE_SEEDS: u64 = 64;
const SOAK_SEEDS: u64 = 2048;

fn temp_dir(seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ascs-chaos-bench-{seed}-{}", std::process::id()))
}

fn arg_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let single_seed = arg_value(&args, "--seed");
    let soak = args.iter().any(|a| a == "--soak");
    let seeds: Vec<u64> = if let Some(seed) = single_seed {
        vec![seed]
    } else if soak {
        let n = arg_value(&args, "--soak").unwrap_or(SOAK_SEEDS);
        (SMOKE_BASE..SMOKE_BASE + n).collect()
    } else {
        (SMOKE_BASE..SMOKE_BASE + SMOKE_SEEDS).collect()
    };

    let opts = ChaosOptions::default();
    let registry = Arc::new(FaultSiteRegistry::new());
    let started = Instant::now();
    let mut invariant_checks = 0u64;
    let mut kills = 0u64;
    let mut faults_scheduled = 0usize;

    for &seed in &seeds {
        let schedule = ChaosSchedule::generate(seed, &opts);
        faults_scheduled += schedule.fault_count();
        if single_seed.is_some() {
            print!("{}", schedule.describe());
        }
        let dir = temp_dir(seed);
        let outcome = run_schedule(&schedule, &opts, &registry, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        match outcome {
            Ok(report) => {
                invariant_checks += report.invariant_checks;
                kills += report.kills;
                if single_seed.is_some() {
                    println!(
                        "seed {seed}: OK — {} lives, {} kills, {} invariant checks",
                        report.lives, report.kills, report.invariant_checks
                    );
                }
            }
            Err(violation) => {
                eprintln!("{violation}");
                eprintln!("shrinking the schedule to a minimal reproduction...");
                let mut attempt = 0u64;
                let minimal = shrink(&schedule, |candidate| {
                    attempt += 1;
                    let dir = temp_dir(seed ^ (attempt << 32));
                    let failed = run_schedule(candidate, &opts, &registry, &dir).is_err();
                    let _ = std::fs::remove_dir_all(&dir);
                    failed
                });
                let rendered = format!(
                    "{violation}\n\nminimal reproducing schedule \
                     ({} of {} fault components kept):\n{}\nreproduce with:\n  \
                     cargo run --release -p ascs_bench --bin chaos_bench -- --seed {seed}\n",
                    minimal.fault_count(),
                    schedule.fault_count(),
                    minimal.describe()
                );
                eprintln!("{rendered}");
                std::fs::write(MINIMAL_PATH, &rendered).expect("write minimal schedule");
                std::process::exit(1);
            }
        }
    }

    let coverage = registry.counts();
    let unfired = registry.unfired();
    let elapsed = started.elapsed().as_secs_f64();

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seeds_run\": {},\n", seeds.len()));
    out.push_str(&format!(
        "  \"seed_base\": {},\n",
        seeds.first().copied().unwrap_or(0)
    ));
    out.push_str(&format!("  \"faults_scheduled\": {faults_scheduled},\n"));
    out.push_str(&format!("  \"kill_cycles\": {kills},\n"));
    out.push_str(&format!("  \"invariant_checks\": {invariant_checks},\n"));
    out.push_str(&format!("  \"elapsed_seconds\": {elapsed:.3},\n"));
    out.push_str("  \"fault_site_coverage\": {\n");
    for (i, (site, count)) in coverage.iter().enumerate() {
        let comma = if i + 1 == coverage.len() { "" } else { "," };
        out.push_str(&format!("    \"{site}\": {count}{comma}\n"));
    }
    out.push_str("  },\n");
    out.push_str(&format!("  \"uncovered_sites\": {},\n", unfired.len()));
    out.push_str(&format!(
        "  \"chaos_invariants_asserted\": {}\n",
        unfired.is_empty()
    ));
    out.push_str("}\n");

    let mut file = std::fs::File::create(OUTPUT_PATH).expect("create BENCH_chaos.json");
    file.write_all(out.as_bytes())
        .expect("write BENCH_chaos.json");
    println!(
        "chaos sweep: {} seeds, {} invariant checks, {} kill cycles in {elapsed:.1}s",
        seeds.len(),
        invariant_checks,
        kills
    );
    for (site, count) in &coverage {
        println!("  {site}: fired {count}");
    }
    if !unfired.is_empty() {
        eprintln!("UNCOVERED fault sites (injection points that never fired): {unfired:?}");
        std::process::exit(1);
    }
    println!(
        "all {} fault sites fired; wrote {OUTPUT_PATH}",
        coverage.len()
    );
}
