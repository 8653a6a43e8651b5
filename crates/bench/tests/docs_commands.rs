//! The prose docs name only what exists. Every `reproduce <name>` is a
//! figure of `fsi_bench::FIGURES` (or `all`), and no per-figure binary
//! survives as `-p fsi-bench --bin` or `target/release/<figure>`. Every
//! backticked `crates/…` path exists, and every backticked
//! `fsi_<crate>::…::name` runs through `pub mod`s of that crate to an item
//! declared `pub` in it.

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn docs() -> Vec<PathBuf> {
    let root = root();
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

/// The inline code spans of a markdown text; fenced blocks are skipped.
fn code_spans(text: &str) -> Vec<String> {
    let mut fenced = false;
    let prose: Vec<&str> = text
        .lines()
        .filter(|line| {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                return false;
            }
            !fenced
        })
        .collect();
    let prose = prose.join("\n");
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// The tokens of `span` that start with `prefix` at a word boundary, each
/// running while `part` accepts its characters.
fn tokens<'a>(span: &'a str, prefix: &str, part: fn(char) -> bool) -> Vec<&'a str> {
    span.match_indices(prefix)
        .filter(|(i, _)| {
            !span[..*i]
                .chars()
                .last()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '/')
        })
        .map(|(i, _)| {
            let len = span[i..].find(|c| !part(c)).unwrap_or(span.len() - i);
            &span[i..i + len]
        })
        .collect()
}

/// Every `.rs` file under `dir`, concatenated.
fn sources(dir: &Path) -> String {
    let mut text = String::new();
    for entry in std::fs::read_dir(dir).expect("source dir") {
        let path = entry.expect("source entry").path();
        if path.is_dir() {
            text.push_str(&sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            text.push_str(&std::fs::read_to_string(&path).expect("read source"));
            text.push('\n');
        }
    }
    text
}

/// Whether `src` declares `name` as a `pub` item of one of `kinds`.
fn declares_pub(src: &str, kinds: &[&str], name: &str) -> bool {
    src.lines().any(|line| {
        let Some(rest) = line.trim_start().strip_prefix("pub ") else {
            return false;
        };
        let words: Vec<&str> = rest
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .collect();
        words
            .windows(2)
            .any(|w| kinds.contains(&w[0]) && w[1] == name)
    })
}

#[test]
fn documented_paths_and_items_exist() {
    const ITEMS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "const", "static", "type", "mod",
    ];
    let root = root();
    let mut crate_sources = std::collections::HashMap::new();
    let mut problems = Vec::new();
    let mut checked = 0;
    for path in docs() {
        let text = std::fs::read_to_string(&path).expect("read doc");
        let doc = path.file_name().unwrap().to_string_lossy().into_owned();
        for span in code_spans(&text) {
            let is_path = |c: char| c.is_alphanumeric() || "_-./".contains(c);
            // A glob or placeholder (`crates/*/src`) stops at `crates/`.
            for file in tokens(&span, "crates/", is_path) {
                let file = file.trim_end_matches('.');
                checked += 1;
                if !root.join(file).exists() {
                    problems.push(format!("{doc}: `{file}` does not exist"));
                }
            }
            let is_item_path = |c: char| c.is_alphanumeric() || c == '_' || c == ':';
            for item in tokens(&span, "fsi_", is_item_path) {
                let segments: Vec<&str> = item.trim_end_matches(':').split("::").collect();
                let [krate, modules @ .., name] = segments.as_slice() else {
                    continue;
                };
                if modules.is_empty() && name == krate {
                    continue; // a bare crate name
                }
                checked += 1;
                let dir = root.join("crates").join(&krate["fsi_".len()..]).join("src");
                if !dir.is_dir() {
                    problems.push(format!("{doc}: `{item}`: no crate {krate}"));
                    continue;
                }
                let src = crate_sources
                    .entry(dir.clone())
                    .or_insert_with(|| sources(&dir));
                for module in modules {
                    if !declares_pub(src, &["mod"], module) {
                        problems.push(format!("{doc}: `{item}`: `{module}` is not a pub mod"));
                    }
                }
                if !declares_pub(src, &ITEMS, name) {
                    problems.push(format!("{doc}: `{item}`: no pub item `{name}`"));
                }
            }
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    assert!(checked > 0, "no backticked path found in the docs");
}

#[test]
fn code_spans_skip_fences_and_tokens_start_at_word_boundaries() {
    let text = "see `fsi_dense::gemm` and\n```text\n`not code`\n```\n`crates/dense/src` end";
    assert_eq!(code_spans(text), ["fsi_dense::gemm", "crates/dense/src"]);
    let item = |c: char| c.is_alphanumeric() || c == '_' || c == ':';
    assert_eq!(
        tokens("fsi_selinv::fsi, my_fsi_x", "fsi_", item),
        ["fsi_selinv::fsi"]
    );
    let src = "pub fn gemm(\npub(crate) fn dot(\npub mod trace;\npub const fn new(\n";
    assert!(declares_pub(src, &["fn"], "gemm"));
    assert!(declares_pub(src, &["fn"], "new"));
    assert!(!declares_pub(src, &["fn"], "dot"));
    assert!(declares_pub(src, &["mod"], "trace"));
}
