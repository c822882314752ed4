//! Golden-file assertions.
//!
//! Two helpers shared by the trace-determinism harness and the image
//! regression tests:
//!
//! * [`assert_same_stream`] — compare two multi-line text streams and, on
//!   mismatch, report the first diverging line with context instead of
//!   dumping both streams.
//! * [`assert_golden_file`] — compare text against a checked-in file;
//!   running with `NOW_BLESS=1` rewrites the file instead of failing, so
//!   intentional changes are a one-command re-bless away.

use std::fs;
use std::path::Path;

/// Maximum context lines printed around the first divergence.
const CONTEXT: usize = 3;

/// Assert that two newline-separated streams are identical. On mismatch,
/// panic with the first diverging line number, a few lines of context and
/// both versions of the offending line — far more readable than a raw
/// `assert_eq!` on multi-kilobyte strings.
pub fn assert_same_stream(label: &str, a: &str, b: &str) {
    if a == b {
        return;
    }
    let la: Vec<&str> = a.lines().collect();
    let lb: Vec<&str> = b.lines().collect();
    let n = la.len().max(lb.len());
    for i in 0..n {
        let x = la.get(i).copied();
        let y = lb.get(i).copied();
        if x == y {
            continue;
        }
        let from = i.saturating_sub(CONTEXT);
        let mut ctx = String::new();
        for (j, line) in la.iter().enumerate().take(i).skip(from) {
            ctx.push_str(&format!("      {:>4} | {}\n", j + 1, line));
        }
        panic!(
            "{label}: streams diverge at line {} ({} vs {} lines)\n{ctx}  left {:>4} | {}\n right {:>4} | {}",
            i + 1,
            la.len(),
            lb.len(),
            i + 1,
            x.unwrap_or("<missing>"),
            i + 1,
            y.unwrap_or("<missing>"),
        );
    }
    // same lines but different trailing whitespace/newlines
    panic!(
        "{label}: streams differ only in trailing bytes ({} vs {} bytes)",
        a.len(),
        b.len()
    );
}

/// True when the `NOW_BLESS` environment variable asks goldens to be
/// regenerated instead of checked.
fn blessing() -> bool {
    std::env::var("NOW_BLESS").is_ok_and(|v| v == "1")
}

/// Assert that `contents` matches the golden file at `path`.
///
/// With `NOW_BLESS=1` the file is (re)written and the assertion passes;
/// otherwise a missing file or a mismatch fails with instructions. The
/// parent directory is created when blessing.
pub fn assert_golden_file(path: impl AsRef<Path>, contents: &str) {
    golden_impl(path.as_ref(), contents, blessing());
}

fn golden_impl(path: &Path, contents: &str, bless: bool) {
    if bless {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).expect("create golden dir");
        }
        fs::write(path, contents).expect("write golden file");
        return;
    }
    let expected = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(_) => panic!(
            "golden file {} missing — run with NOW_BLESS=1 to create it",
            path.display()
        ),
    };
    if expected != contents {
        assert_same_stream(
            &format!(
                "golden file {} out of date (NOW_BLESS=1 to re-bless)",
                path.display()
            ),
            &expected,
            contents,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_streams_pass() {
        assert_same_stream("t", "a\nb\nc", "a\nb\nc");
        assert_same_stream("t", "", "");
    }

    #[test]
    #[should_panic(expected = "diverge at line 2")]
    fn divergence_reports_line() {
        assert_same_stream("t", "a\nb\nc", "a\nX\nc");
    }

    #[test]
    #[should_panic(expected = "diverge at line 3")]
    fn missing_tail_reports_line() {
        assert_same_stream("t", "a\nb\nc", "a\nb");
    }

    #[test]
    #[should_panic(expected = "trailing bytes")]
    fn trailing_newline_difference_is_reported() {
        assert_same_stream("t", "a\nb", "a\nb\n");
    }

    #[test]
    fn golden_file_roundtrip() {
        // drive the bless flag directly — mutating NOW_BLESS in a test
        // would race with other tests reading it
        let dir = std::env::temp_dir().join("now-testkit-golden-test");
        let path = dir.join("g.txt");
        let _ = fs::remove_file(&path);
        golden_impl(&path, "hello\n", true);
        golden_impl(&path, "hello\n", false);
        let _ = fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn missing_golden_panics() {
        let path = std::env::temp_dir().join("now-testkit-golden-test-absent.txt");
        let _ = fs::remove_file(&path);
        golden_impl(&path, "x", false);
    }

    #[test]
    #[should_panic(expected = "out of date")]
    fn stale_golden_panics() {
        let dir = std::env::temp_dir().join("now-testkit-golden-test-stale");
        let path = dir.join("g.txt");
        golden_impl(&path, "old\n", true);
        golden_impl(&path, "new\n", false);
    }
}
