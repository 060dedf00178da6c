//! The ASCS benchmark: one command that runs a named workload from a seed,
//! checks its output against an oracle, and prints every end-to-end metric
//! (untraced) or every per-layer metric (traced) by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_dense_rw --seed 1 --seconds 35 --trace 0
//! ```
//!
//! The last line of standard output is
//! `{"correct": true, "attempted": N, "failed": F, "metrics": {...}}`; the
//! line before it carries the environment header and run details. A
//! failed output check exits non-zero and prints no metric. See
//! `perfbench/README.md` for what each workload and metric means.

mod common;
mod durable;
mod env;
mod estimator;
mod layers;
mod ledger;
mod serve;
mod stats;
mod trace;
mod workloads;

use ascs_core::{AscsConfig, HyperParameterSolver, HyperParameters, TheoryBounds};
use common::{BenchError, Metrics, Res, RunDir};
use std::process::ExitCode;

/// End-to-end metrics, as named in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 12] = [
    ("samples_per_s", "samples/s"),
    ("visible_p50_ms", "ms"),
    ("visible_p99_ms", "ms"),
    ("ack_p50_ms", "ms"),
    ("ack_p99_ms", "ms"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("top_recall", "fraction"),
    ("recovery_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "fraction"),
];

/// Per-layer metrics, as named in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("stream.expand_us_per_sample", "us"),
    ("stream.updates_per_sample", "count"),
    ("ascs.kernel_ns_per_update", "ns"),
    ("ascs.accept_ratio", "fraction"),
    ("estimator.process_us_per_sample", "us"),
    ("estimator.report_ms", "ms"),
    ("hyper.solve_ms", "ms"),
    ("plan.build_ms", "ms"),
    ("serve.launch_ms", "ms"),
    ("count_sketch.sweep_ns_per_pair", "ns"),
    ("count_sketch.merge_ms", "ms"),
    ("sharded.apply_ns_per_update", "ns"),
    ("serve.ingest_us_per_sample", "us"),
    ("serve.backpressure_us_per_sample", "us"),
    ("serve.overload_share", "fraction"),
    ("serve.refresh_ms_p50", "ms"),
    ("serve.refresh_ms_max", "ms"),
    ("serve.drain_ms", "ms"),
    ("snapshot.point_ns_p50", "ns"),
    ("snapshot.point_ns_p99", "ns"),
    ("snapshot.topk_us_p50", "us"),
    ("snapshot.sweep_ms_p50", "ms"),
    ("snapshot.reads", "count"),
    ("durability.wal_us_per_sample", "us"),
    ("durability.wal_records", "count"),
    ("durability.wal_syncs", "count"),
    ("durability.checkpoint_ms_p50", "ms"),
    ("durability.checkpoint_ms_max", "ms"),
    ("durability.checkpoint_mb", "MiB"),
    ("durability.recover_ms", "ms"),
    ("durability.wal_records_replayed", "count"),
    ("durability.persistence_retries", "count"),
    ("durability.checkpoint_failures", "count"),
    ("ledger.attributed_share", "fraction"),
    ("trace.overhead_share", "fraction"),
];

/// The runnable workloads and the threads each keeps busy (shards plus
/// load generators). `batch_dense` is not in `BENCHMARK.json`: its spread
/// over seeded runs exceeded the bounds on the machine it was tuned on
/// (see `README.md`), but it stays runnable for kernel work.
const WORKLOADS: [(&str, usize); 3] = [
    ("batch_dense", 1),
    ("serve_dense_rw", 4),
    ("serve_sparse_durable", 3),
];

/// Command-line arguments.
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        WORKLOADS
                            .iter()
                            .map(|&(name, _)| name)
                            .find(|&name| name == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(35),
            trace: trace.unwrap_or(false),
        })
    }
}

/// The hyperparameters `ServingEstimator::launch` and
/// `CovarianceEstimator::new_or_fallback` derive: Algorithm 3 with the
/// 10 %-exploration fallback.
pub fn hyper_of(cfg: &AscsConfig) -> HyperParameters {
    let bounds = TheoryBounds::new(
        cfg.num_pairs(),
        cfg.geometry.range,
        cfg.geometry.rows,
        cfg.alpha,
        cfg.sigma,
        cfg.signal_strength,
        cfg.total_samples,
    );
    HyperParameterSolver::new(bounds)
        .solve_or_fallback(cfg.tau0, cfg.delta, cfg.delta_star, 0.1)
        .0
}

/// Fails unless `metrics` holds exactly the names and units of `expected`.
fn check_names(metrics: &Metrics, expected: &[(&str, &str)]) -> Res<()> {
    let mut want: Vec<&str> = expected.iter().map(|&(n, _)| n).collect();
    want.sort_unstable();
    let got = metrics.names();
    common::ensure(got == want, || {
        format!("metrics {got:?} do not match the declared set {want:?}")
    })?;
    for &(name, unit) in expected {
        common::ensure(metrics.unit(name) == Some(unit), || {
            format!("metric {name} is not in {unit}")
        })?;
    }
    Ok(())
}

fn run(args: &Args) -> Res<String> {
    let rundir = RunDir::create(args.workload)?;
    let busy = WORKLOADS
        .iter()
        .find(|&&(n, _)| n == args.workload)
        .map_or(1, |&(_, b)| b);
    let env = env::Env::probe(rundir.path());
    let outcome = match args.workload {
        "batch_dense" => workloads::batch_dense(args, &rundir),
        "serve_dense_rw" => workloads::serve_dense_rw(args, &rundir),
        "serve_sparse_durable" => workloads::serve_sparse_durable(args, &rundir),
        other => Err(BenchError(format!("unknown workload {other}"))),
    }?;
    check_names(
        &outcome.metrics,
        if args.trace { &PER_LAYER } else { &END_TO_END },
    )?;
    if args.trace {
        let path = std::path::Path::new(".perfbench-run")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        trace::write_jsonl(&path, &outcome.spans).map_err(common::fail("write spans"))?;
        eprintln!("spans written to {}", path.display());
    }
    let detail: Vec<String> = outcome
        .detail
        .iter()
        .map(|(k, v)| format!("{}:{v}", env::quote(k)))
        .chain([format!("\"overloaded_waits\":{}", outcome.tally.waits)])
        .collect();
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"env\":{},\"detail\":{{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        env.to_json(busy),
        detail.join(",")
    );
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        outcome.metrics.to_json()
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the binary prints are the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for (section, list) in [
            ("\"end_to_end\"", &END_TO_END[..]),
            ("\"per_layer\"", &PER_LAYER[..]),
        ] {
            let body = &json[json.find(section).expect(section)..];
            let body = &body[..body.find(']').expect("list end")];
            let declared = body.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{section} count");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
        let listed = &json[json.find("\"workloads\"").expect("workloads")..];
        let listed = &listed[..listed.find(']').expect("list end")];
        for entry in listed.split("\"name\": \"").skip(1) {
            let name = &entry[..entry.find('"').expect("name end")];
            assert!(
                WORKLOADS.iter().any(|&(w, _)| w == name),
                "{name} is not runnable"
            );
        }
    }

    #[test]
    fn arguments_parse_strictly() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload batch_dense --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("batch_dense", 7, 3, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload batch_dense --seed x").is_err());
        assert!(parse("--workload batch_dense --bogus 1").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
