//! Command line of the layered benchmark.
//!
//! ```text
//! fsi-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one run of one workload; the last line of stdout is the JSON
//!     object {"correct", "attempted", "failed", "metrics"}
//! fsi-benchmark [--seed N] [--seconds S] [--out FILE]
//!     every workload, untraced then traced, one process each
//! fsi-benchmark --repeat K [--vary-seed] [--workload NAME] [--seed N] [--seconds S]
//!     run-to-run spread of the end-to-end metrics against their bounds
//! fsi-benchmark --spec
//!     the document BENCHMARK.json must equal
//! ```
//!
//! Options are accepted as `--key value` or `--key=value`.

use std::path::PathBuf;
use std::process::ExitCode;

use fsi_benchmark::spec::{benchmark_json, RUN_SECONDS};
use fsi_benchmark::{nproc, orchestrate, threads, workloads, RunArgs};

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u64>,
    repeat: Option<usize>,
    vary_seed: bool,
    spec: bool,
    out: Option<PathBuf>,
}

fn parse_cli(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let mut value = |what: &str| -> Result<String, String> {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or_else(|| format!("{key} needs {what}"))
        };
        fn num<T: std::str::FromStr>(key: &str, s: String) -> Result<T, String> {
            s.parse().map_err(|_| format!("{key}: cannot read {s:?}"))
        }
        match key.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => cli.seed = Some(num(&key, value("a number")?)?),
            "--seconds" => cli.seconds = Some(num(&key, value("a number")?)?),
            "--trace" => cli.trace = Some(num(&key, value("0 or 1")?)?),
            "--repeat" => cli.repeat = Some(num(&key, value("a count")?)?),
            "--out" => cli.out = Some(PathBuf::from(value("a path")?)),
            "--vary-seed" => cli.vary_seed = true,
            "--spec" => cli.spec = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if let Some(s) = cli.seconds {
        if !(s.is_finite() && s > 0.0) {
            return Err(format!("--seconds {s} must be a positive number"));
        }
    }
    if cli.trace.is_some_and(|t| t > 1) {
        return Err("--trace takes 0 or 1".into());
    }
    if cli.repeat == Some(0) {
        return Err("--repeat takes a count of at least 1".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("fsi-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.spec {
        println!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    let seed = cli.seed.unwrap_or(2016);
    let seconds = cli.seconds.unwrap_or(RUN_SECONDS as f64);
    eprintln!(
        "host: nproc={} T={} kernel_tier={} seed={seed} seconds={seconds}",
        nproc(),
        threads(),
        fsi_dense::active_tier().name(),
    );

    let outcome = match (&cli.workload, cli.repeat) {
        (only, Some(k)) => orchestrate::repeat(seed, seconds, k, cli.vary_seed, only.as_deref()),
        (Some(name), None) => {
            let args = RunArgs {
                seed,
                seconds,
                traced: cli.trace == Some(1),
            };
            workloads::run(name, &args).map(|result| {
                result.print_table(name, args.traced);
                println!("{}", result.to_json());
                result.correct
            })
        }
        (None, None) => orchestrate::full(seed, seconds, cli.out.as_deref()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("fsi-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
