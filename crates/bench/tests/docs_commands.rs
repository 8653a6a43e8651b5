//! The reproduction commands in the prose docs name figures `reproduce`
//! runs: every `reproduce <name>` is a figure of `fsi_bench::FIGURES` (or
//! `all`), and no per-figure binary survives as `-p fsi-bench --bin` or
//! `target/release/<figure>`.

use std::path::{Path, PathBuf};

fn docs() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<PathBuf> = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "results/schema.md",
    ]
    .iter()
    .map(|f| root.join(f))
    .collect();
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/") {
        let path = entry.expect("docs entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    files
}

/// The word after each command-position `reproduce` (one preceded by
/// `/` or a backtick, not the prose verb).
fn reproduce_arguments(text: &str) -> Vec<String> {
    text.match_indices("reproduce ")
        .filter(|(i, _)| matches!(text[..*i].chars().last(), Some('/' | '`')))
        .map(|(i, m)| {
            text[i + m.len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '<')
                .collect()
        })
        .collect()
}

#[test]
fn documented_commands_name_figures_reproduce_runs() {
    let mut problems = Vec::new();
    let mut commands = 0;
    for path in docs() {
        let text = std::fs::read_to_string(&path).expect("read doc");
        let doc = path.file_name().unwrap().to_string_lossy();
        for arg in reproduce_arguments(&text) {
            commands += 1;
            let known = arg == "all"
                || arg == "<name"
                || fsi_bench::select(&arg, fsi_bench::Scale::Smoke).is_ok();
            if !known {
                problems.push(format!("{doc}: `reproduce {arg}` is not a figure"));
            }
        }
        if text.contains("-p fsi-bench --bin") {
            problems.push(format!("{doc}: a `-p fsi-bench --bin` command survives"));
        }
        for f in &fsi_bench::FIGURES {
            if text.contains(&format!("target/release/{} ", f.name)) {
                problems.push(format!(
                    "{doc}: `target/release/{}` no longer exists",
                    f.name
                ));
            }
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    assert!(commands > 0, "no `reproduce` command found in the docs");
}

#[test]
fn only_command_position_reproduce_is_read() {
    let text = "to reproduce the paper run `reproduce fig9` or ./target/release/reproduce all.";
    assert_eq!(reproduce_arguments(text), ["fig9", "all"]);
}
