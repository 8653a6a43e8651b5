//! `reproduce`'s command line: everything but `<name>|all [--paper-scale]`
//! exits 2 with a usage line, before any figure runs.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

fn assert_usage(args: &[&str], problem: &str) {
    let out = reproduce(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(problem), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: reproduce <name>|all"), "{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran a figure");
}

#[test]
fn paper_scale_is_refused_by_figures_without_a_paper_shape() {
    for name in [
        "ablation_cluster_size",
        "ablation_schedule",
        "ablation_wrap_split",
    ] {
        assert_usage(&[name, "--paper-scale"], "has no paper shape");
        assert_usage(&["--paper-scale", name], "has no paper shape");
    }
}

#[test]
fn unknown_names_and_arguments_exit_2() {
    assert_usage(&[], "expected one figure name");
    assert_usage(&["fig12"], "unknown name `fig12`");
    assert_usage(&["fig9", "fig10"], "expected one figure name");
    assert_usage(&["fig9", "N=64"], "expected one figure name");
    assert_usage(
        &["fig9", "--trace-out=x.ndjson"],
        "expected one figure name",
    );
    assert_usage(&["all", "--paper-scale", "--paper-scale"], "expected one");
}
