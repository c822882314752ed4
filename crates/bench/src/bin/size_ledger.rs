//! Code-size ledger: per crate, source lines outside `#[cfg(test)]` items,
//! test lines (`#[cfg(test)]` items plus `tests/*.rs`), `pub` item count,
//! `pub` fields of `*Config` structs and the longest function, plus the
//! workspace's knobs — `NOW_*` environment variables and the `--flag`
//! literals the binaries look up in their `args` — written to
//! `BENCH_size.json`, which CI diffs against the tree.
//! Run from the workspace root:
//! `cargo run --release -p now-bench --bin size_ledger [OUT]`.
//!
//! The scan is lexical (brace matching with string literals and `//`
//! comments blanked out), which is exact for rustfmt-formatted code.

use now_raytrace::image_io::write_atomic;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

#[derive(Default)]
struct Tally {
    src: usize,
    test: usize,
    pubs: usize,
    config_fields: usize,
    longest: usize,
    longest_fn: String,
}

fn sorted_entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    paths.sort();
    paths
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for p in sorted_entries(dir) {
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// `text` with string/char-literal contents and `//` comments replaced by
/// spaces (newlines kept), so the braces and keywords left are real code.
fn blank_literals(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = String::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
        let raw = b[i] == b'r' && b.get(i + 1 + hashes) == Some(&b'"');
        let escaped = usize::from(b.get(i + 1) == Some(&b'\\'));
        if b[i] == b'/' && b.get(i + 1) == Some(&b'/') {
            i += b[i..].iter().take_while(|&&c| c != b'\n').count();
        } else if b[i] == b'"' || raw {
            let close = format!("\"{}", "#".repeat(if raw { hashes } else { 0 }));
            i += if raw { hashes + 2 } else { 1 };
            while i < b.len() && !b[i..].starts_with(close.as_bytes()) {
                i += usize::from(!raw && b[i] == b'\\');
                out.push(if b.get(i) == Some(&b'\n') { '\n' } else { ' ' });
                i += 1;
            }
            i += close.len();
        } else if b[i] == b'\'' && b.get(i + 2 + escaped) == Some(&b'\'') {
            i += 3 + escaped; // a char literal such as '{' or '\''
        } else {
            out.push(b[i] as char);
            i += 1;
        }
    }
    out
}

/// Index of the line that ends the item starting at line `from`: the one
/// closing its first `{`, or its `;` if it has no body.
fn item_end(lines: &[&str], from: usize) -> usize {
    let (mut depth, mut parens) = (0usize, 0usize);
    for (i, l) in lines.iter().enumerate().skip(from) {
        for c in l.chars() {
            match c {
                '{' => depth += 1,
                '}' if depth <= 1 => return i,
                '}' => depth -= 1,
                '(' | '[' => parens += 1,
                ')' | ']' => parens = parens.saturating_sub(1),
                ';' if depth == 0 && parens == 0 => return i,
                _ => {}
            }
        }
    }
    lines.len().saturating_sub(1)
}

/// The knobs a user can set from outside: `NOW_*` environment variables
/// and `--flag` command-line options.
#[derive(Default)]
struct Knobs {
    env_vars: BTreeSet<String>,
    cli_flags: BTreeSet<String>,
}

fn scan(path: &Path, tally: &mut Tally, knobs: &mut Knobs) {
    let text = std::fs::read_to_string(path).expect("readable source file");
    let env_name = |s: &&str| s.len() > 4 && s.bytes().all(|c| c == b'_' || c.is_ascii_uppercase());
    let literals = text.split('"').filter(|s| s.starts_with("NOW_"));
    knobs
        .env_vars
        .extend(literals.filter(env_name).map(str::to_string));
    // a `--flag` literal handed to a lookup helper right after `args`
    // (`flag_value`, `flag_values`, `has_flag` and thin wrappers of them)
    let flag_name = |s: &str| s.len() > 2 && s.bytes().all(|c| c == b'-' || c.is_ascii_lowercase());
    let pieces: Vec<&str> = text.split('"').collect();
    for pair in pieces.windows(2) {
        if pair[0].ends_with("(args, ") && pair[1].starts_with("--") && flag_name(pair[1]) {
            knobs.cli_flags.insert(pair[1].to_string());
        }
    }
    let code = blank_literals(&text);
    let lines: Vec<&str> = code.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i].trim_start();
        if line.starts_with("#[cfg(test)]") {
            let end = item_end(&lines, i);
            tally.test += end + 1 - i;
            i = end + 1;
            continue;
        }
        tally.src += 1;
        let item = line.strip_prefix("pub ").unwrap_or(line);
        let kinds = "fn struct enum trait mod const static type use unsafe";
        let is_item = |k: &str| item.strip_prefix(k).is_some_and(|r| r.starts_with(' '));
        tally.pubs += usize::from(item.len() < line.len() && kinds.split(' ').any(is_item));
        if item
            .strip_prefix("struct ")
            .is_some_and(|r| r.contains("Config {"))
        {
            let body = &lines[i + 1..item_end(&lines, i)];
            let field = |l: &&&str| l.trim_start().starts_with("pub ") && l.contains(':');
            tally.config_fields += body.iter().filter(field).count();
        }
        let item = ["pub(crate) ", "const ", "unsafe "]
            .iter()
            .fold(item, |s, p| s.strip_prefix(p).unwrap_or(s));
        if let Some(name) = item.strip_prefix("fn ") {
            let len = item_end(&lines, i) + 1 - i;
            if len > tally.longest {
                let name = name
                    .split(|c: char| !c.is_alphanumeric() && c != '_')
                    .next();
                tally.longest = len;
                tally.longest_fn = format!("{}::{}", path.display(), name.unwrap_or(""));
            }
        }
        i += 1;
    }
}

fn main() {
    let mut crates = vec![PathBuf::from(".")];
    crates.extend(sorted_entries(Path::new("crates")));
    let mut knobs = Knobs::default();
    let mut rows = Vec::new();
    for krate in &crates {
        let (mut tally, mut src, mut tests) = (Tally::default(), Vec::new(), Vec::new());
        rs_files(&krate.join("src"), &mut src);
        rs_files(&krate.join("tests"), &mut tests);
        src.iter().for_each(|f| scan(f, &mut tally, &mut knobs));
        for f in &tests {
            tally.test += std::fs::read_to_string(f)
                .expect("test file")
                .lines()
                .count();
        }
        let name = krate
            .file_name()
            .map_or("nowrender".into(), |n| n.to_string_lossy());
        rows.push(format!(
            "    \"{name}\": {{\"src_lines\": {}, \"test_lines\": {}, \"pub_items\": {}, \
             \"config_fields\": {}, \"longest_fn_lines\": {}, \"longest_fn\": \"{}\"}}",
            tally.src, tally.test, tally.pubs, tally.config_fields, tally.longest, tally.longest_fn
        ));
    }
    assert!(rows.len() > 1, "run from the workspace root");
    let quoted = |names: &BTreeSet<String>| {
        let names: Vec<String> = names.iter().map(|v| format!("\"{v}\"")).collect();
        names.join(", ")
    };
    let json = format!(
        "{{\n  \"crates\": {{\n{}\n  }},\n  \"now_env_vars\": {},\n  \"now_env_var_names\": [{}],\n  \
         \"cli_flags\": {},\n  \"cli_flag_names\": [{}]\n}}\n",
        rows.join(",\n"),
        knobs.env_vars.len(),
        quoted(&knobs.env_vars),
        knobs.cli_flags.len(),
        quoted(&knobs.cli_flags)
    );
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_size.json".into());
    write_atomic(Path::new(&out), json.as_bytes()).expect("write BENCH_size.json");
    print!("{json}");
}
