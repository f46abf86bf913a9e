//! Counts the workspace's Rust lines, so "net-negative" is a number a
//! change reports rather than a claim. `CODE_SIZE.json` at the repository
//! root holds the committed output; CI regenerates it and diffs the two.
//!
//! ```text
//! cargo run --release -p vstack-bench --bin loc [ROOT] > CODE_SIZE.json
//! ```
//!
//! `ROOT` defaults to the workspace this binary was built from. Every
//! `.rs` file below it is counted in physical lines, as `wc -l` counts
//! them, skipping `target/`, `vendor/` and hidden directories. Each
//! component — every crate under `crates/`, the `e2e` benchmark package
//! (apart from the bench crate that hosts it), and every other top-level
//! directory, such as the root `tests/` and `examples/` — gets its own
//! row, split three ways:
//!
//! * `test` — files under a `tests/` directory, plus every
//!   `#[cfg(test)] mod …` block in the other files;
//! * `bench` — files under a `benches/` directory;
//! * `lib` — everything else (`src/`, examples, the `e2e` package).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// The `e2e` benchmark package, counted apart from the bench crate.
const E2E: &str = "crates/bench/src/bin/e2e";

/// Lines of one component (or the total), split by kind.
#[derive(Default, Clone, Copy)]
struct Count {
    lib: usize,
    test: usize,
    bench: usize,
}

impl Count {
    fn add(&mut self, other: Count) {
        self.lib += other.lib;
        self.test += other.test;
        self.bench += other.bench;
    }

    fn json(&self) -> String {
        format!(
            "\"lib\": {}, \"test\": {}, \"bench\": {}, \"total\": {}",
            self.lib,
            self.test,
            self.bench,
            self.lib + self.test + self.bench
        )
    }
}

/// Every `.rs` file below `dir`, skipping build output, vendored crates
/// and hidden directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !(name.starts_with('.') || name == "target" || name == "vendor") {
                rust_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lines of `text` inside `#[cfg(test)] mod … { … }` blocks, whatever the
/// module's visibility: from the attribute through the `}` that closes
/// the module at its own indent.
fn cfg_test_lines(text: &str) -> usize {
    let lines: Vec<&str> = text.lines().collect();
    let mut count = 0;
    let mut i = 0;
    while i < lines.len() {
        let opens_module = lines[i].trim() == "#[cfg(test)]"
            && lines.get(i + 1).is_some_and(|l| {
                let l = l.trim_start();
                let l = l.strip_prefix("pub(crate) ").unwrap_or(l);
                l.starts_with("mod ") && l.ends_with('{')
            });
        if !opens_module {
            i += 1;
            continue;
        }
        let indent = &lines[i][..lines[i].len() - lines[i].trim_start().len()];
        let close = format!("{indent}}}");
        let end = (i + 2..lines.len())
            .find(|&j| lines[j] == close)
            .unwrap_or(lines.len() - 1);
        count += end - i + 1;
        i = end + 1;
    }
    count
}

/// Counts one file, given its path relative to the root.
fn count_file(path: &Path, relative: &Path) -> std::io::Result<Count> {
    let text = fs::read_to_string(path)?;
    let lines = text.matches('\n').count();
    let under = |dir: &str| {
        relative
            .parent()
            .is_some_and(|p| p.iter().any(|c| c == dir))
    };
    Ok(if under("tests") {
        Count {
            test: lines,
            ..Count::default()
        }
    } else if under("benches") {
        Count {
            bench: lines,
            ..Count::default()
        }
    } else {
        let test = cfg_test_lines(&text);
        Count {
            lib: lines - test,
            test,
            bench: 0,
        }
    })
}

/// The component owning `relative`: the `e2e` package, a crate under
/// `crates/`, or else the top-level directory.
fn component(relative: &Path) -> String {
    if relative.starts_with(E2E) {
        return E2E.to_string();
    }
    let parts: Vec<&str> = relative.iter().filter_map(|p| p.to_str()).collect();
    match parts[..] {
        ["crates", name, _, ..] => format!("crates/{name}"),
        [top, ..] => top.to_string(),
        [] => String::new(),
    }
}

fn main() -> std::io::Result<()> {
    let root = std::env::args().nth(1).map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
        PathBuf::from,
    );
    let mut files = Vec::new();
    rust_files(&root, &mut files)?;

    let mut counts: BTreeMap<String, Count> = BTreeMap::new();
    let mut total = Count::default();
    for path in &files {
        let relative = path.strip_prefix(&root).expect("file below root");
        let count = count_file(path, relative)?;
        counts.entry(component(relative)).or_default().add(count);
        total.add(count);
    }

    let rows: Vec<String> = counts
        .iter()
        .map(|(name, c)| format!("    \"{name}\": {{{}}}", c.json()))
        .collect();
    println!("{{");
    println!("  \"schema\": \"vstack-code-size/1\",");
    println!("  \"components\": {{");
    println!("{}", rows.join(",\n"));
    println!("  }},");
    println!("  \"total\": {{{}}}", total.json());
    println!("}}");
    Ok(())
}
