//! Hand-rolled Rust token scanner.
//!
//! `gp-lint` cannot use `syn` (cargo is offline in the build container and
//! the linter must build before anything else), so this module implements
//! the minimal lexical analysis the rules in [`crate::rules`] need:
//!
//! * strip `//` line comments and (nested) `/* */` block comments;
//! * strip the contents of normal, raw (`r"…"`, `r#"…"#`), byte (`b"…"`)
//!   and raw-byte (`br#"…"#`) string literals and of char/byte-char
//!   literals, while keeping lifetimes (`'a`) intact;
//! * track `#[cfg(test)]` / `#[test]` regions and `mod tests { … }`
//!   blocks so test code is exempt from the rules;
//! * collect `// gp-lint: allow(<rules>) — <reason>` suppression pragmas
//!   and reject malformed ones (missing reason, unknown shape).
//!
//! Stripping replaces every removed character with a space, so line
//! numbers and intra-line columns of the surviving code are unchanged —
//! rule matches can be reported at their true source position.

/// One suppression pragma, parsed out of a `//` comment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the pragma comment sits on.
    pub line: usize,
    /// Rule ids listed inside `allow(...)`, e.g. `["D1", "R1"]`.
    pub rules: Vec<String>,
    /// True when the comment is the only content on its line, in which
    /// case it applies to the next non-blank code line instead.
    pub own_line: bool,
}

/// A pragma-shaped comment the scanner refused (the reason is mandatory
/// and lexer-verified, so a bare `// gp-lint: allow(D1)` is itself a
/// violation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MalformedPragma {
    /// 1-based line of the offending comment.
    pub line: usize,
    /// Why the pragma was rejected.
    pub why: String,
}

/// Scanner output for one file.
#[derive(Clone, Debug, Default)]
pub struct Scanned {
    /// Stripped source: comments and literal contents blanked to spaces,
    /// newlines preserved, so it has exactly the input's line structure.
    pub code: String,
    /// Per line (0-based index = line - 1): was any part of it inside a
    /// `#[cfg(test)]` / `#[test]` / `mod tests` region?
    pub in_test: Vec<bool>,
    /// Well-formed suppression pragmas.
    pub pragmas: Vec<Pragma>,
    /// Pragma-shaped comments that failed verification.
    pub malformed: Vec<MalformedPragma>,
}

impl Scanned {
    /// Is the 1-based line inside test-only code?
    pub fn is_test_line(&self, line: usize) -> bool {
        line >= 1 && self.in_test.get(line - 1).copied().unwrap_or(false)
    }

    /// 1-based lines a pragma for `rule` suppresses. An end-of-line
    /// pragma covers its own line; an own-line pragma covers the next
    /// non-blank code line (blank and comment-only lines are skipped).
    pub fn suppressed_lines(&self, rule: &str) -> Vec<usize> {
        let blank: Vec<bool> = self.code.lines().map(|l| l.trim().is_empty()).collect();
        let mut lines = Vec::new();
        for p in &self.pragmas {
            if !p.rules.iter().any(|r| r == rule) {
                continue;
            }
            if !p.own_line {
                lines.push(p.line);
                continue;
            }
            let mut target = p.line; // 1-based; start at the next line
            while target < blank.len() && blank.get(target).copied().unwrap_or(true) {
                target += 1;
            }
            lines.push(target + 1);
        }
        lines
    }
}

/// Lexer state while walking the raw source.
enum State {
    Code,
    LineComment {
        start_col_blank: bool,
        text: String,
        line: usize,
    },
    BlockComment {
        depth: usize,
    },
    Str,
    RawStr {
        hashes: usize,
    },
    CharLit,
}

/// Scan `source`, producing stripped code plus region/pragma metadata.
/// Never panics on any input (asserted by a fuzz test): unterminated
/// literals and comments simply run to end of file.
pub fn scan(source: &str) -> Scanned {
    let bytes: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut state = State::Code;
    let mut pragmas = Vec::new();
    let mut malformed = Vec::new();
    let mut line = 1usize;
    let mut line_had_code = false;
    let mut i = 0usize;

    // Byte-string prefixes make `b"…"`/`br#"…"#` start like identifiers;
    // track whether the previous code char could end an identifier so a
    // quote after `r`/`b`/`br` is recognized as a literal prefix rather
    // than part of a name like `attr"`.
    let mut prev_ident_char = false;

    while i < bytes.len() {
        let c = bytes[i];
        match state {
            State::Code => {
                if c == '/' && bytes.get(i + 1) == Some(&'/') {
                    state = State::LineComment {
                        start_col_blank: !line_had_code,
                        text: String::new(),
                        line,
                    };
                    out.push_str("  ");
                    i += 2;
                    prev_ident_char = false;
                    continue;
                }
                if c == '/' && bytes.get(i + 1) == Some(&'*') {
                    state = State::BlockComment { depth: 1 };
                    out.push_str("  ");
                    i += 2;
                    prev_ident_char = false;
                    continue;
                }
                // Raw / byte string prefixes. Only treat the prefix as a
                // literal opener when it is not glued to a preceding
                // identifier (`hexr"…"` is not a raw string).
                if !prev_ident_char && (c == 'r' || c == 'b') {
                    if let Some((skip, opener)) = raw_or_byte_prefix(&bytes, i) {
                        // Blank the prefix but keep the opening quote, so
                        // stripped output stays quote-balanced (re-scanning
                        // it must be a no-op).
                        for _ in 0..skip - 1 {
                            out.push(' ');
                        }
                        out.push(bytes[i + skip - 1]);
                        i += skip;
                        state = opener;
                        line_had_code = true;
                        prev_ident_char = false;
                        continue;
                    }
                }
                if c == '"' {
                    out.push('"');
                    state = State::Str;
                    i += 1;
                    prev_ident_char = false;
                    line_had_code = true;
                    continue;
                }
                if c == '\'' {
                    // Lifetime (`'a`, `'_`, `'static`) vs char literal.
                    // Consume the whole lifetime identifier so a trailing
                    // `r`/`b` can't be misread as a string prefix.
                    if is_lifetime(&bytes, i) {
                        out.push(c);
                        i += 1;
                        while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                            out.push(bytes[i]);
                            i += 1;
                        }
                        prev_ident_char = true;
                        line_had_code = true;
                        continue;
                    }
                    out.push('\'');
                    state = State::CharLit;
                    i += 1;
                    prev_ident_char = false;
                    line_had_code = true;
                    continue;
                }
                if c == '\n' {
                    out.push('\n');
                    line += 1;
                    line_had_code = false;
                } else {
                    out.push(c);
                    if !c.is_whitespace() {
                        line_had_code = true;
                    }
                    prev_ident_char = c.is_alphanumeric() || c == '_';
                }
                i += 1;
            }
            State::LineComment {
                start_col_blank,
                ref mut text,
                line: comment_line,
            } => {
                if c == '\n' {
                    check_pragma(
                        text,
                        comment_line,
                        start_col_blank,
                        &mut pragmas,
                        &mut malformed,
                    );
                    out.push('\n');
                    line += 1;
                    line_had_code = false;
                    state = State::Code;
                } else {
                    text.push(c);
                    out.push(' ');
                }
                i += 1;
            }
            State::BlockComment { ref mut depth } => {
                if c == '/' && bytes.get(i + 1) == Some(&'*') {
                    *depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if c == '*' && bytes.get(i + 1) == Some(&'/') {
                    *depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if *depth == 0 {
                        state = State::Code;
                    }
                } else {
                    if c == '\n' {
                        out.push('\n');
                        line += 1;
                        line_had_code = false;
                    } else {
                        out.push(' ');
                    }
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' && i + 1 < bytes.len() {
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    out.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    if c == '\n' {
                        out.push('\n');
                        line += 1;
                    } else {
                        out.push(' ');
                    }
                    i += 1;
                }
            }
            State::RawStr { hashes } => {
                if c == '"' && closes_raw(&bytes, i, hashes) {
                    out.push('"');
                    for _ in 0..hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes;
                    state = State::Code;
                } else {
                    if c == '\n' {
                        out.push('\n');
                        line += 1;
                    } else {
                        out.push(' ');
                    }
                    i += 1;
                }
            }
            State::CharLit => {
                if c == '\\' && i + 1 < bytes.len() {
                    out.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    out.push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    if c == '\n' {
                        // Unterminated char literal (or a stray quote in
                        // broken code): fall back to code at the newline
                        // rather than eating the rest of the file.
                        out.push('\n');
                        line += 1;
                        line_had_code = false;
                        state = State::Code;
                    } else {
                        out.push(' ');
                        i += 1;
                        continue;
                    }
                    i += 1;
                }
            }
        }
    }
    // Flush a pragma in a line comment that ends at EOF without newline.
    if let State::LineComment {
        start_col_blank,
        ref text,
        line: comment_line,
    } = state
    {
        check_pragma(
            text,
            comment_line,
            start_col_blank,
            &mut pragmas,
            &mut malformed,
        );
    }

    Scanned {
        in_test: track_regions(&out),
        code: out,
        pragmas,
        malformed,
    }
}

/// If `bytes[i..]` starts a raw / byte / raw-byte string literal, return
/// `(chars_consumed_by_prefix_and_opening_quote, next_state)`.
fn raw_or_byte_prefix(bytes: &[char], i: usize) -> Option<(usize, State)> {
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    let raw = bytes.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    if j == i {
        return None;
    }
    let mut hashes = 0usize;
    if raw {
        while bytes.get(j + hashes) == Some(&'#') {
            hashes += 1;
        }
        j += hashes;
    }
    if bytes.get(j) != Some(&'"') {
        // `r#ident` raw identifiers and plain `b'x'` byte chars land here;
        // byte-char literals are handled by the main loop's quote logic
        // only if we report no match, so check for `b'`.
        if !raw && bytes.get(j) == Some(&'\'') {
            // `b'a'` byte-char literal: consume the `b` and let the char
            // branch handle the quote by reporting a 1-char prefix.
            return Some((j + 1 - i, State::CharLit));
        }
        return None;
    }
    let consumed = j + 1 - i;
    if raw {
        Some((consumed, State::RawStr { hashes }))
    } else {
        Some((consumed, State::Str))
    }
}

/// Does the `"` at `bytes[i]` close a raw string with `hashes` hashes?
fn closes_raw(bytes: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| bytes.get(i + k) == Some(&'#'))
}

/// Is the `'` at `bytes[i]` a lifetime rather than a char literal?
/// `'a'` → char; `'a,` / `'a>` / `'static` → lifetime. The decider: an
/// identifier follows and the char after it is not `'`.
fn is_lifetime(bytes: &[char], i: usize) -> bool {
    let mut j = i + 1;
    if !matches!(bytes.get(j), Some(&c) if c.is_alphabetic() || c == '_') {
        return false;
    }
    while matches!(bytes.get(j), Some(&c) if c.is_alphanumeric() || c == '_') {
        j += 1;
    }
    bytes.get(j) != Some(&'\'')
}

/// Verify a `gp-lint:` comment. Well-formed: `gp-lint: allow(R1, D2) — reason`
/// with a nonempty reason after a `—`/`–`/`-`/`:` separator (or plain
/// whitespace). Anything else that mentions `gp-lint:` is malformed.
fn check_pragma(
    text: &str,
    line: usize,
    own_line: bool,
    pragmas: &mut Vec<Pragma>,
    malformed: &mut Vec<MalformedPragma>,
) {
    let t = text.trim();
    let Some(rest) = t.strip_prefix("gp-lint:") else {
        // Not a pragma at all — but catch near-misses like "gp-lint allow(…)".
        if t.starts_with("gp-lint") {
            malformed.push(MalformedPragma {
                line,
                why: "pragma must start with `gp-lint: allow(`".into(),
            });
        }
        return;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        malformed.push(MalformedPragma {
            line,
            why: "pragma must start with `gp-lint: allow(`".into(),
        });
        return;
    };
    let Some(close) = rest.find(')') else {
        malformed.push(MalformedPragma {
            line,
            why: "unclosed rule list in `allow(`".into(),
        });
        return;
    };
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        malformed.push(MalformedPragma {
            line,
            why: "empty rule list in `allow()`".into(),
        });
        return;
    }
    // Mandatory reason: strip an optional separator, require substance.
    let mut reason = rest[close + 1..].trim_start();
    for sep in ["—", "–", "-", ":"] {
        if let Some(r) = reason.strip_prefix(sep) {
            reason = r.trim_start();
            break;
        }
    }
    if reason.trim().len() < 3 {
        malformed.push(MalformedPragma {
            line,
            why: format!(
                "pragma for {} is missing its mandatory reason (`// gp-lint: allow({}) — why`)",
                rules.join(","),
                rules.join(",")
            ),
        });
        return;
    }
    pragmas.push(Pragma {
        line,
        rules,
        own_line,
    });
}

/// Walk stripped code, tracking brace depth to label test regions per
/// line. A region starts at the `{` following a `#[cfg(test)]` /
/// `#[test]` attribute or a `mod tests` header and ends at its matching
/// `}`.
fn track_regions(code: &str) -> Vec<bool> {
    let chars: Vec<char> = code.chars().collect();
    // One entry per open brace: does it open a test region?
    let mut stack: Vec<bool> = Vec::new();
    let mut pending_test = false;
    let mut in_test_lines = Vec::new();
    let mut line_was_test = false;
    let mut i = 0usize;
    let in_test = |stack: &[bool]| stack.contains(&true);

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                in_test_lines.push(line_was_test || in_test(&stack));
                line_was_test = in_test(&stack);
                i += 1;
            }
            '#' if chars.get(i + 1) == Some(&'[') => {
                // Capture the attribute with bracket counting.
                let mut j = i + 2;
                let mut depth = 1usize;
                let mut attr = String::new();
                while j < chars.len() && depth > 0 {
                    match chars[j] {
                        '[' => depth += 1,
                        ']' => depth -= 1,
                        '\n' => {
                            in_test_lines.push(line_was_test || in_test(&stack));
                            line_was_test = in_test(&stack);
                            attr.push(' ');
                        }
                        ch => attr.push(ch),
                    }
                    j += 1;
                }
                if attr_marks_test(&attr) {
                    pending_test = true;
                }
                i = j;
            }
            '{' => {
                stack.push(pending_test);
                if pending_test {
                    line_was_test = true;
                }
                pending_test = false;
                i += 1;
            }
            '}' => {
                stack.pop();
                i += 1;
            }
            ';' => {
                // An item ended without a body: a pending marker dies.
                pending_test = false;
                i += 1;
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while matches!(chars.get(i), Some(&ch) if ch.is_alphanumeric() || ch == '_') {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                if word == "mod" {
                    // A `mod tests` / `mod test_*` header opens a test region.
                    let mut j = i;
                    while matches!(chars.get(j), Some(&ch) if ch.is_whitespace()) {
                        j += 1;
                    }
                    let name_start = j;
                    while matches!(chars.get(j), Some(&ch) if ch.is_alphanumeric() || ch == '_') {
                        j += 1;
                    }
                    let name: String = chars[name_start..j].iter().collect();
                    if name == "tests" || name.starts_with("test_") {
                        pending_test = true;
                    }
                    i = j;
                }
            }
            _ => {
                i += 1;
            }
        }
    }
    in_test_lines.push(line_was_test || in_test(&stack));
    in_test_lines
}

/// Does an attribute body (brackets stripped) put the next item in test
/// scope? Matches `test`, `cfg(test)`, `cfg(any(test, …))`,
/// `tokio::test` — any occurrence of the standalone token `test`.
fn attr_marks_test(attr: &str) -> bool {
    let chars: Vec<char> = attr.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i].is_alphanumeric() || chars[i] == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let word: String = chars[start..i].iter().collect();
            if word == "test" {
                return true;
            }
        } else {
            i += 1;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked() {
        let s = scan("let x = 1; // HashMap::iter()\nlet y = 2;");
        assert!(!s.code.contains("HashMap"));
        assert!(s.code.contains("let x = 1;"));
        assert!(s.code.contains("let y = 2;"));
        assert_eq!(s.code.lines().count(), 2);
    }

    #[test]
    fn nested_block_comments_are_blanked() {
        let s = scan("a /* outer /* inner */ still comment */ b");
        assert!(s.code.contains('a'));
        assert!(s.code.contains('b'));
        assert!(!s.code.contains("comment"));
    }

    #[test]
    fn string_contents_are_blanked_but_quotes_survive() {
        let s = scan("let s = \"partial_cmp // not a comment\"; let t = 1;");
        assert!(!s.code.contains("partial_cmp"));
        assert!(!s.code.contains("not a comment"));
        assert!(s.code.contains("let t = 1;"));
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let s = scan(r#"let s = "a\"b unwrap() c"; let x = 1;"#);
        assert!(!s.code.contains("unwrap"));
        assert!(s.code.contains("let x = 1;"));
    }

    #[test]
    fn raw_strings_with_hashes_are_blanked() {
        let src = "let s = r#\"thread_rng() \"quoted\" inside\"#; let x = 1;";
        let s = scan(src);
        assert!(!s.code.contains("thread_rng"));
        assert!(s.code.contains("let x = 1;"));
        // Double-hash variant with an embedded `"#`.
        let s2 = scan("let s = r##\"contains \"# inner\"##; panic_free();");
        assert!(!s2.code.contains("inner"));
        assert!(s2.code.contains("panic_free();"));
    }

    #[test]
    fn byte_and_raw_byte_strings_are_blanked() {
        let s = scan("let a = b\"unwrap()\"; let b2 = br#\"expect(\"#; keep();");
        assert!(!s.code.contains("unwrap"));
        assert!(!s.code.contains("expect"));
        assert!(s.code.contains("keep();"));
    }

    #[test]
    fn char_literals_are_blanked_lifetimes_survive() {
        let s = scan("fn f<'a>(x: &'a str) -> char { let c: char = '\"'; 'x' }");
        assert!(s.code.contains("'a>"), "{}", s.code);
        assert!(s.code.contains("&'a str"));
        // The quote chars inside the literals are blanked.
        assert!(!s.code.contains("'x'"));
    }

    #[test]
    fn escaped_char_literal_does_not_leak() {
        let s = scan(r"let c = '\''; let d = '\\'; after();");
        assert!(s.code.contains("after();"));
    }

    #[test]
    fn raw_identifiers_are_not_raw_strings() {
        let s = scan("let r#mod = 1; let x = r#mod + 1;");
        assert!(s.code.contains("mod"), "raw identifier must survive");
        assert!(s.code.contains("+ 1;"));
    }

    #[test]
    fn cfg_test_region_is_tracked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let s = scan(src);
        assert!(!s.is_test_line(1));
        assert!(s.is_test_line(4), "body of cfg(test) mod is test code");
        assert!(!s.is_test_line(6), "code after the mod is live again");
    }

    #[test]
    fn test_attribute_marks_next_fn() {
        let src = "#[test]\nfn check() { y.unwrap(); }\nfn live() {}\n";
        let s = scan(src);
        assert!(s.is_test_line(2));
        assert!(!s.is_test_line(3));
    }

    #[test]
    fn cfg_test_on_single_item_does_not_leak_past_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() { x(); }\n";
        let s = scan(src);
        assert!(!s.is_test_line(3), "a `;`-terminated item ends the marker");
    }

    #[test]
    fn well_formed_pragma_is_collected() {
        let src = "// gp-lint: allow(D1, R1) — membership only, order never escapes\nx.iter();\n";
        let s = scan(src);
        assert_eq!(s.pragmas.len(), 1);
        assert_eq!(s.pragmas[0].rules, vec!["D1", "R1"]);
        assert!(s.pragmas[0].own_line);
        assert!(s.malformed.is_empty());
        assert_eq!(s.suppressed_lines("D1"), vec![2]);
        assert_eq!(s.suppressed_lines("R1"), vec![2]);
        assert!(s.suppressed_lines("D2").is_empty());
    }

    #[test]
    fn end_of_line_pragma_covers_its_own_line() {
        let src = "x.iter(); // gp-lint: allow(D1) - lookup only\n";
        let s = scan(src);
        assert_eq!(s.pragmas.len(), 1);
        assert!(!s.pragmas[0].own_line);
        assert_eq!(s.suppressed_lines("D1"), vec![1]);
    }

    #[test]
    fn pragma_without_reason_is_malformed() {
        let s = scan("// gp-lint: allow(D1)\nx.iter();\n");
        assert!(s.pragmas.is_empty());
        assert_eq!(s.malformed.len(), 1);
        assert!(
            s.malformed[0].why.contains("reason"),
            "{}",
            s.malformed[0].why
        );
    }

    #[test]
    fn pragma_with_wrong_shape_is_malformed() {
        for bad in [
            "// gp-lint allow(D1) — forgot the colon",
            "// gp-lint: allow( — no close",
            "// gp-lint: allow() — empty",
            "// gp-lint: deny(D1) — wrong verb",
        ] {
            let s = scan(&format!("{bad}\nx();\n"));
            assert!(s.pragmas.is_empty(), "{bad} must not parse");
            assert_eq!(s.malformed.len(), 1, "{bad} must be malformed");
        }
    }

    #[test]
    fn pragma_inside_string_is_ignored() {
        let s = scan("let x = \"// gp-lint: allow(D1)\";\n");
        assert!(s.pragmas.is_empty());
        assert!(s.malformed.is_empty());
    }

    #[test]
    fn own_line_pragma_skips_blank_lines() {
        let src = "// gp-lint: allow(D4) — diagnostics only\n\n\nInstant::now();\n";
        let s = scan(src);
        assert_eq!(s.suppressed_lines("D4"), vec![4]);
    }

    #[test]
    fn stripping_preserves_line_count_and_positions() {
        let src = "a\n/* x\ny */\nb \"s\ntr\" c\n";
        let s = scan(src);
        assert_eq!(s.code.lines().count(), src.lines().count());
        let lines: Vec<&str> = s.code.lines().collect();
        assert_eq!(lines[0], "a");
        assert!(lines[3].starts_with('b'));
    }

    /// Scanning is idempotent: stripped output re-scanned strips to
    /// itself (strings keep their quotes, so a second pass sees empty
    /// literals and leaves them alone).
    #[test]
    fn scan_is_idempotent_on_real_source() {
        let src = include_str!("scanner.rs");
        let once = scan(src);
        let twice = scan(&once.code);
        assert_eq!(once.code, twice.code);
        assert_eq!(once.in_test, twice.in_test);
    }

    /// Fixed-seed companion of tests/proptests.rs over the scanner and
    /// fact atoms together: token soup never panics and scanning is
    /// idempotent.
    #[test]
    fn fuzz_token_soup_never_panics_and_is_idempotent() {
        let atoms = [crate::soup::SCANNER_ATOMS, crate::soup::FACT_ATOMS].concat();
        gp_tensor::rng::check(500, |rng| {
            let once = scan(&crate::soup::soup(rng, &atoms));
            let twice = scan(&once.code);
            assert_eq!(once.code, twice.code);
            assert_eq!(once.in_test, twice.in_test);
        });
    }
}
