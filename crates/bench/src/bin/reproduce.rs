//! `reproduce <name>|all [--paper-scale]` — runs the paper's tables and
//! figures (see `fsi_bench::FIGURES`).
//!
//! Exit status: 0 when every verdict holds, 1 when one fails, 2 on a bad
//! command line (an unknown name, an unknown argument, or `--paper-scale`
//! with a figure that has no paper shape). `FSI_TRACE=1|2` also writes
//! `results/<name>.trace.ndjson` and a Chrome trace per figure.

use std::process::ExitCode;

use fsi_bench::{select, Scale, FIGURES};

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!("reproduce: {problem}");
    eprintln!(
        "usage: reproduce <name>|all [--paper-scale]\n  names: {}",
        names.join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match args.iter().position(|a| a == "--paper-scale") {
        Some(i) => {
            args.remove(i);
            Scale::Paper
        }
        None => Scale::Smoke,
    };
    let [name] = args.as_slice() else {
        return usage("expected one figure name or `all`");
    };
    let (figures, skipped) = match select(name, scale) {
        Ok(chosen) => chosen,
        Err(e) => return usage(&e),
    };
    // A figure that panics mid-run dumps the flight-recorder ring (NDJSON
    // under FSI_FLIGHT_DIR) so the crash is diagnosable.
    fsi_runtime::metrics::flight::install_panic_hook();
    let mut failed = Vec::new();
    for f in figures {
        println!("== {} ==\n", f.name);
        match (f.run)(scale) {
            Ok(()) => println!(),
            Err(e) => {
                println!("\nverdict FAILED: {e}\n");
                failed.push(f.name);
            }
        }
    }
    if !skipped.is_empty() {
        println!("skipped (no paper shape): {}", skipped.join(", "));
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("reproduce: verdict failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
