//! `simlint` — determinism and safety lints for the simulation crates.
//!
//! A deliberately small, dependency-free static checker that enforces
//! the workspace's correctness conventions (the ones `rustc` and clippy
//! cannot see). It tokenizes just enough Rust — comments, string/char
//! literals — to scan *code* text separately from *comment* text, then
//! applies line-oriented rules:
//!
//! * **safety-comment** — every `unsafe` block, fn, or impl must carry
//!   a `// SAFETY:` comment (same line, or immediately above, with only
//!   comments/attributes/blank lines in between); for `unsafe fn`
//!   declarations a `# Safety` doc section counts, since there the
//!   obligations sit on the caller.
//! * **std-hashmap** — no `std::collections::{HashMap, HashSet}` in
//!   simulation code: their `RandomState` hasher randomizes iteration
//!   order per process, a determinism hazard. Use `sim_base::fxmap`, or
//!   escape with `// simlint: allow(std-hashmap)` plus a rationale.
//! * **wall-clock** — no `Instant::now` / `SystemTime` / `thread_rng`
//!   in simulation paths; simulated time comes from the cycle counter.
//!   The `bench` crate (which measures real time by design) and
//!   `sim-check` (whose wedge watchdog is host-side tooling) are
//!   exempt.
//! * **ptr-order** — no pointer-to-integer casts in simulation code:
//!   addresses differ run to run, so ordering, hashing, or branching on
//!   them is nondeterministic. Escape with
//!   `// simlint: allow(ptr-order)` where the cast provably never
//!   influences simulation behavior (e.g. layout assertions in tests).
//!
//! Escapes are per-line: `// simlint: allow(<rule>)` on the offending
//! line or in the comment block directly above it. Every escape should
//! say why.
//!
//! The `simlint` binary (`cargo run -p bench --bin simlint -- --deny`)
//! walks the workspace and reports findings; CI runs it as a hard gate.
//! See `DESIGN.md` §14 for how the rules relate to the model checker.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One rule violation at a specific line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the violation is in (as walked, workspace-relative).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (e.g. `safety-comment`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

/// Crates exempt from the wall-clock rule: `bench` measures host time
/// by design, and `sim-check`'s wedge watchdog runs host-side (its
/// *modeled* scenarios never see a clock).
const WALL_CLOCK_EXEMPT: &[&str] = &["crates/bench/", "crates/sim-check/"];

/// Replaces the contents of comments and string/char literals with
/// spaces, preserving the line structure, so rules can scan code text
/// without tripping on prose. Handles line comments, (nested) block
/// comments, string/byte-string literals with escapes, raw strings
/// `r#"…"#`, and char literals vs. lifetimes.
pub fn strip_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    // Emits `n` bytes of masked input: newlines survive, all else
    // becomes a space.
    let mask = |out: &mut Vec<u8>, b: &[u8], from: usize, n: usize| {
        for &c in &b[from..from + n] {
            out.push(if c == b'\n' { b'\n' } else { b' ' });
        }
    };
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = src[i..].find('\n').map_or(b.len(), |p| i + p);
                mask(&mut out, b, i, end - i);
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Rust block comments nest.
                let mut depth = 1;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                mask(&mut out, b, i, j - i);
                i = j;
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                let j = skip_raw_string(b, i);
                mask(&mut out, b, i, j - i);
                i = j;
            }
            b'b' if i + 1 < b.len() && b[i + 1] == b'"' => {
                let j = skip_quoted(b, i + 1, b'"');
                mask(&mut out, b, i, j - i);
                i = j;
            }
            b'"' => {
                let j = skip_quoted(b, i, b'"');
                mask(&mut out, b, i, j - i);
                i = j;
            }
            b'\'' => {
                // Char literal or lifetime? A literal closes with `'`
                // after one (possibly escaped) character.
                if let Some(j) = char_literal_end(b, i) {
                    mask(&mut out, b, i, j - i);
                    i = j;
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("masking preserves UTF-8: multibyte bytes become spaces")
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // r"…", r#"…"#, br"…", br#"…"#
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

fn skip_raw_string(b: &[u8], i: usize) -> usize {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    j += 1; // 'r'
    let mut hashes = 0;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    j += 1; // opening quote
    while j < b.len() {
        if b[j] == b'"' {
            let mut k = j + 1;
            let mut h = 0;
            while k < b.len() && b[k] == b'#' && h < hashes {
                h += 1;
                k += 1;
            }
            if h == hashes {
                return k;
            }
        }
        j += 1;
    }
    b.len()
}

fn skip_quoted(b: &[u8], open: usize, quote: u8) -> usize {
    let mut j = open + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            c if c == quote => return j + 1,
            _ => j += 1,
        }
    }
    b.len()
}

fn char_literal_end(b: &[u8], i: usize) -> Option<usize> {
    // `'a'` / `'\n'` / `'\u{1F600}'` — but NOT the lifetime `'a`.
    let mut j = i + 1;
    if j >= b.len() {
        return None;
    }
    if b[j] == b'\\' {
        j += 2;
        // \u{…}
        if j <= b.len() && j >= 2 && b[j - 1] == b'{' {
            while j < b.len() && b[j] != b'}' {
                j += 1;
            }
            j += 1;
        }
    } else {
        // One UTF-8 scalar.
        j += utf8_len(b[j]);
    }
    (j < b.len() && b[j] == b'\'').then_some(j + 1)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn is_ident(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Whole-word occurrence check (`HashMap` must not match `FxHashMap`).
fn has_word(line: &str, word: &str) -> bool {
    let b = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let i = start + pos;
        let before_ok = i == 0 || !is_ident(b[i - 1]);
        let j = i + word.len();
        let after_ok = j >= b.len() || !is_ident(b[j]);
        if before_ok && after_ok {
            return true;
        }
        start = i + 1;
    }
    false
}

/// Is `rule` escaped for line `idx` (0-based)? The escape comment may
/// sit on the line itself or anywhere in the contiguous `//` comment
/// block directly above it (so rationales can span lines).
fn allowed(original: &[&str], idx: usize, rule: &str) -> bool {
    let tag = format!("simlint: allow({rule})");
    if original[idx].contains(&tag) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = original[i].trim();
        if !t.starts_with("//") {
            return false;
        }
        if t.contains(&tag) {
            return true;
        }
    }
    false
}

/// Does the code above line `idx` vouch for an `unsafe`? Walks upward
/// through comments, attributes, and blank lines looking for `SAFETY:`
/// (blocks/impls) or a `# Safety` doc section (`unsafe fn`
/// declarations, whose obligations sit on the *caller*).
fn safety_comment_above(original: &[&str], idx: usize) -> bool {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = original[i].trim();
        if t.contains("SAFETY:") || t.contains("# Safety") {
            return true;
        }
        let skippable = t.is_empty()
            || t.starts_with("//")
            || t.starts_with("#[")
            || t.starts_with("#![")
            || t.starts_with("*")   // inside a /* */ block
            || t.starts_with("/*");
        if !skippable {
            return false;
        }
    }
    false
}

fn path_has_prefix(file: &Path, prefix: &str) -> bool {
    file.to_string_lossy().replace('\\', "/").contains(prefix)
}

/// Lints one file's source text. `file` is used for reporting and for
/// the per-file rule scoping (wall-clock exemptions).
pub fn lint_source(file: &Path, src: &str) -> Vec<Finding> {
    let stripped = strip_comments_and_strings(src);
    let code: Vec<&str> = stripped.lines().collect();
    let original: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();
    let mut push = |line: usize, rule: &'static str, msg: String| {
        findings.push(Finding {
            file: file.to_path_buf(),
            line: line + 1,
            rule,
            msg,
        });
    };

    let wall_clock_applies = !WALL_CLOCK_EXEMPT.iter().any(|p| path_has_prefix(file, p));

    for (i, line) in code.iter().enumerate() {
        // safety-comment
        if has_word(line, "unsafe")
            && !original[i].contains("SAFETY:")
            && !safety_comment_above(&original, i)
        {
            push(
                i,
                "safety-comment",
                "`unsafe` without a `// SAFETY:` comment on or directly above it".into(),
            );
        }

        // std-hashmap
        for ty in ["HashMap", "HashSet"] {
            if has_word(line, ty) && !allowed(&original, i, "std-hashmap") {
                push(
                    i,
                    "std-hashmap",
                    format!(
                        "std {ty} randomizes iteration order; use `sim_base::fxmap` \
                         or escape with `// simlint: allow(std-hashmap)` + rationale"
                    ),
                );
                break;
            }
        }

        // wall-clock
        if wall_clock_applies {
            for tok in ["Instant::now", "SystemTime", "thread_rng"] {
                if line.contains(tok) && !allowed(&original, i, "wall-clock") {
                    push(
                        i,
                        "wall-clock",
                        format!(
                            "`{tok}` in a simulation path; simulated time is the cycle counter"
                        ),
                    );
                    break;
                }
            }
        }

        // ptr-order
        let int_cast = line.contains("as usize") || line.contains("as u64");
        let ptr_expr = line.contains("*const")
            || line.contains("*mut")
            || line.contains("as_ptr()")
            || line.contains("as_mut_ptr()");
        if int_cast && ptr_expr && !allowed(&original, i, "ptr-order") {
            push(
                i,
                "ptr-order",
                "pointer-to-integer cast: addresses vary run to run, so ordering or \
                 hashing by them is nondeterministic"
                    .into(),
            );
        }
    }
    findings
}

/// Recursively lints every `.rs` file under `root`, skipping `target`
/// and hidden directories. Files are visited in sorted order so output
/// is stable.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for f in files {
        let src = fs::read_to_string(root.join(&f))?;
        findings.extend(lint_source(&f, &src));
    }
    Ok(findings)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(file: &str, src: &str) -> Vec<Finding> {
        lint_source(Path::new(file), src)
    }

    fn rules(fs: &[Finding]) -> Vec<&'static str> {
        fs.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn strips_comments_strings_and_chars_but_not_lifetimes() {
        let src = "let a = \"unsafe HashMap\"; // unsafe\nlet b: &'a str = x; let c = 'u';\n/* unsafe */ let d = r#\"unsafe\"#;\n";
        let s = strip_comments_and_strings(src);
        assert!(
            !s.contains("unsafe"),
            "literals/comments must be masked: {s}"
        );
        assert!(s.contains("&'a str"), "lifetimes must survive: {s}");
        assert_eq!(
            s.lines().count(),
            src.lines().count(),
            "line structure preserved"
        );
    }

    #[test]
    fn unsafe_without_safety_comment_is_flagged() {
        let f = lint("crates/x/src/a.rs", "fn f() {\n    unsafe { g() }\n}\n");
        assert_eq!(rules(&f), ["safety-comment"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn safety_comment_above_or_inline_passes() {
        let above = "// SAFETY: g upholds the invariant.\nunsafe { g() }\n";
        let inline = "unsafe impl Send for X {} // SAFETY: X owns its data.\n";
        let through_attr = "// SAFETY: fine.\n#[inline]\nunsafe fn h() {}\n";
        let doc_section =
            "/// # Safety\n///\n/// Caller must not alias `p`.\npub unsafe fn h() {}\n";
        for src in [above, inline, through_attr, doc_section] {
            assert!(lint("crates/x/src/a.rs", src).is_empty(), "src: {src}");
        }
    }

    #[test]
    fn safety_comment_does_not_leak_past_code() {
        let src =
            "// SAFETY: only covers the first one.\nunsafe { g() }\nlet x = 1;\nunsafe { h() }\n";
        let f = lint("crates/x/src/a.rs", src);
        assert_eq!(rules(&f), ["safety-comment"]);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn std_hashmap_flagged_but_fxhashmap_is_not() {
        let f = lint("crates/x/src/a.rs", "use std::collections::HashMap;\n");
        assert_eq!(rules(&f), ["std-hashmap"]);
        let ok = lint(
            "crates/x/src/a.rs",
            "let m: FxHashMap<u32, u32> = FxHashMap::default();\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn allow_escape_silences_a_rule_on_that_line_only() {
        let same = "let m = HashMap::new(); // simlint: allow(std-hashmap) — fixed hasher below\n";
        let above = "// simlint: allow(std-hashmap) — rationale\nlet m = HashMap::new();\n";
        let block = "// simlint: allow(std-hashmap) — a rationale\n// spanning two comment lines.\nlet m = HashMap::new();\n";
        assert!(lint("crates/x/src/a.rs", same).is_empty());
        assert!(lint("crates/x/src/a.rs", above).is_empty());
        assert!(lint("crates/x/src/a.rs", block).is_empty());
        let far = "// simlint: allow(std-hashmap)\nlet x = 1;\nlet m = HashMap::new();\n";
        assert_eq!(rules(&lint("crates/x/src/a.rs", far)), ["std-hashmap"]);
    }

    #[test]
    fn wall_clock_flagged_outside_exempt_crates() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(rules(&lint("crates/sim-cmp/src/a.rs", src)), ["wall-clock"]);
        assert!(lint("crates/bench/src/a.rs", src).is_empty());
        assert!(lint("crates/sim-check/src/a.rs", src).is_empty());
    }

    #[test]
    fn ptr_to_int_cast_is_flagged() {
        let src = "let k = p.as_ptr() as usize;\n";
        assert_eq!(rules(&lint("crates/x/src/a.rs", src)), ["ptr-order"]);
        let plain = "let n = len as usize;\n";
        assert!(lint("crates/x/src/a.rs", plain).is_empty());
    }

    #[test]
    fn tokens_inside_comments_and_strings_do_not_fire() {
        let src = "// mentions unsafe and HashMap and Instant::now\nlet s = \"unsafe HashMap\";\n";
        assert!(lint("crates/sim-cmp/src/a.rs", src).is_empty());
    }
}
