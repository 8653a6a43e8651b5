//! The prose docs name only what exists. Every `reproduce <name>` is a
//! figure of `fsi_bench::FIGURES` (or `all`), and no per-figure binary
//! survives as `-p fsi-bench --bin` or `target/release/<figure>`. Every
//! backticked `crates/…` path exists, and every backticked
//! `fsi_<crate>::…::name` runs through `pub mod`s of that crate to an item
//! declared `pub` in it. Every backticked metric name
//! (`<crate>.<what>…`) is one the sources can emit.

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

/// Whether `c` may appear in a metric name or a template for one.
fn name_char(c: char) -> bool {
    c.is_ascii_lowercase() || c.is_ascii_digit() || "_.{}".contains(c)
}

/// What sources `src` can emit as a metric name: a quoted string or a
/// `format!` template whose `{…}` parts each stand for one dot-free
/// segment. A quoted string is a piece after a quote on a line outside
/// `//` comments, made of [`name_char`]s only.
fn emitted(src: &str) -> impl Fn(&str) -> bool + '_ {
    let is_name = |p: &str| !p.is_empty() && p.chars().all(name_char);
    let quoted: std::collections::HashSet<&str> = src
        .lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .flat_map(|line| line.split('"').skip(1))
        .filter(|p| is_name(p))
        .collect();
    let templates: Vec<&str> = src
        .split("format!(\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .filter(|p| is_name(p))
        .collect();
    move |name| quoted.contains(name) || templates.iter().any(|t| template_matches(t, name))
}

/// Whether `name` is `template` with each `{…}` standing for one
/// dot-free segment.
fn template_matches(template: &str, name: &str) -> bool {
    let Some((head, rest)) = template.split_once('{') else {
        return template == name;
    };
    let (Some((_, tail)), Some(name)) = (rest.split_once('}'), name.strip_prefix(head)) else {
        return false;
    };
    (1..=name.len()).any(|end| !name[..end].contains('.') && template_matches(tail, &name[end..]))
}

/// Whether `span` is a metric name: `<crate>.<what>…`.
fn is_metric_name(span: &str) -> bool {
    const CRATES: [&str; 6] = ["dense", "pcyclic", "selinv", "dqmc", "service", "runtime"];
    span.split_once('.').is_some_and(|(krate, rest)| {
        CRATES.contains(&krate)
            && !rest.is_empty()
            && rest.chars().all(|c| name_char(c) && !"{}".contains(c))
    })
}

#[test]
fn documented_metric_names_are_emitted() {
    let root = root();
    let mut src = sources(&root.join("benchmark/src"));
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        src.push_str(&sources(&entry.expect("crate").path().join("src")));
    }
    let emitted = emitted(&src);
    let mut problems = Vec::new();
    let mut checked = 0;
    for path in docs() {
        let text = std::fs::read_to_string(&path).expect("read doc");
        let doc = path.file_name().unwrap().to_string_lossy();
        for span in code_spans(&text).into_iter().filter(|s| is_metric_name(s)) {
            checked += 1;
            if !emitted(&span) {
                problems.push(format!("{doc}: metric `{span}` is never emitted"));
            }
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    assert!(checked > 0, "no backticked metric name found in the docs");
}

#[test]
fn metric_names_match_strings_meters_and_templates() {
    let src = r#"
        // counter("dense.commented.out");
        let q = '"'; static H: LazyHistogram = LazyHistogram::new("dense.gemm_batched.batch");
        counter("selinv.cluster_cache.hits");
        let name = |leaf: &str| format!("service.tenant.{tenant}.{leaf}");
    "#;
    let emitted = emitted(src);
    assert!(emitted("selinv.cluster_cache.hits"));
    assert!(emitted("dense.gemm_batched.batch"));
    assert!(emitted("service.tenant.alice.bins"));
    assert!(!emitted("selinv.made_up.metric"), "a made-up name");
    assert!(!emitted("dense.commented.out"), "comments emit nothing");
    assert!(
        !emitted("dense.gemm_batched.batch.ns"),
        "no name derives another"
    );
    assert!(!emitted("service.tenant.a.b.bins"), "one segment per hole");
    assert!(is_metric_name("dqmc.sweep_s") && !is_metric_name("wrap.factored"));
    assert!(!is_metric_name("dense.gemm()") && !is_metric_name("service."));
}
