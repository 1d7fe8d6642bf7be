//! Per-function lock facts (for C1) and gp-obs metric registrations (for
//! M1), extracted on top of the panic-free [`crate::scanner`].
//!
//! The extractor never tries to be a full Rust parser. It walks the
//! position-preserving stripped code from [`scan`] one function body at
//! a time and records every `.lock()` call together with the let-bound
//! guards still live at that point. Guard liveness is deliberately an
//! under-approximation: temporaries (`self.lock().closed = true`) are
//! never live, a guard passed by value (`drop(g)`, `self.take(g)`,
//! `cv.wait(g)`) dies at the call, and a `wait*` call handed a guard
//! gives it back to whatever the statement binds. False negatives are
//! acceptable; false positives are not, because C1 is a hard failure.
//!
//! Metric names are read from the *original* source at the positions
//! the scanner preserved (literal contents are blanked in the stripped
//! code).

use crate::rules::{collect_words, line_index, line_of, matching, next_nonws, prev_nonws, word_at};
use crate::scanner::{scan, Scanned};

/// A `.lock()` call with the guards live at that point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Acquire {
    /// Receiver text, e.g. `self.state` or `registry().counters`.
    pub lock: String,
    pub line: usize,
    /// Receivers of the let-bound guards still live, sorted.
    pub held: Vec<String>,
}

/// Facts for one function body.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FnFacts {
    pub name: String,
    pub acquires: Vec<Acquire>,
}

/// A `Counter::new("…")` / `Gauge::new` / `Histogram::new` site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricReg {
    pub kind: &'static str,
    pub name: String,
    pub line: usize,
    /// Covered by a verified `// gp-lint: allow(M1) — <reason>` pragma.
    pub allowed: bool,
}

/// Everything extracted from one file; test-gated code is skipped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FileFacts {
    pub fns: Vec<FnFacts>,
    pub metrics: Vec<MetricReg>,
}

/// Extract facts from one file's source.
pub fn extract(source: &str) -> FileFacts {
    from_scanned(&scan(source), source)
}

/// [`extract`] over an already-scanned file.
pub(crate) fn from_scanned(sc: &Scanned, source: &str) -> FileFacts {
    let chars: Vec<char> = sc.code.chars().collect();
    let orig: Vec<char> = source.chars().collect();
    let lines = line_index(&chars);
    let words = collect_words(&chars);
    let fns = words
        .iter()
        .filter(|&&w| word_at(&chars, w) == "fn")
        .filter_map(|&w| parse_fn(&chars, &lines, w))
        .filter(|fd| !sc.is_test_line(fd.line))
        .map(|fd| walk_fn(&chars, &lines, &fd))
        .collect();
    FileFacts {
        fns,
        metrics: find_metrics(&chars, &orig, &lines, &words, sc),
    }
}

// ---------------------------------------------------------------------------
// fn headers
// ---------------------------------------------------------------------------

struct FnDef {
    name: String,
    line: usize,
    body: (usize, usize),
    /// Parameters whose type is a `…Guard<…>`: live from entry.
    guard_params: Vec<String>,
}

/// Index just past a balanced `<…>` starting at `chars[i] == '<'`.
/// `->` / `=>` arrows inside (Fn bounds) are not closers.
fn skip_angles(chars: &[char], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i < chars.len() {
        match chars[i] {
            '<' => depth += 1,
            '>' if i > 0 && (chars[i - 1] == '-' || chars[i - 1] == '=') => {}
            '>' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

fn read_word(chars: &[char], start: usize) -> (String, usize) {
    let mut j = start;
    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
        j += 1;
    }
    (chars[start..j].iter().collect(), j)
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// `fn name<…>(params) -> ret where … {` starting at the `fn` word.
fn parse_fn(chars: &[char], lines: &[usize], kw: (usize, usize)) -> Option<FnDef> {
    let (ni, nc) = next_nonws(chars, kw.1)?;
    if !is_ident_start(nc) {
        return None;
    }
    let (name, mut j) = read_word(chars, ni);
    if let Some((gi, '<')) = next_nonws(chars, j) {
        j = skip_angles(chars, gi);
    }
    let Some((pi, '(')) = next_nonws(chars, j) else {
        return None;
    };
    let pend = matching(chars, pi, '(', ')');
    // The return type and where clause sit between `)` and the body
    // `{`; a `;` first means a bodyless declaration.
    let mut k = pend + 1;
    loop {
        match chars.get(k)? {
            '{' => break,
            ';' => return None,
            '<' => k = skip_angles(chars, k),
            '(' => k = matching(chars, k, '(', ')') + 1,
            _ => k += 1,
        }
    }
    Some(FnDef {
        name,
        line: line_of(lines, kw.0),
        body: (k + 1, matching(chars, k, '{', '}')),
        guard_params: guard_params(chars, pi + 1, pend),
    })
}

/// Names of `name: [&[mut ]]path::XxxGuard<…>` parameters.
fn guard_params(chars: &[char], start: usize, end: usize) -> Vec<String> {
    let mut params = vec![String::new()];
    let mut depth = 0i32;
    for (i, &c) in chars.iter().enumerate().take(end).skip(start) {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' if chars[i - 1] == '-' || chars[i - 1] == '=' => {}
            '>' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                params.push(String::new());
                continue;
            }
            _ => {}
        }
        if let Some(p) = params.last_mut() {
            p.push(c);
        }
    }
    let guard = |param: &String| -> Option<String> {
        let (pat, ty) = param.split_once(':')?;
        let pat = pat.trim().trim_start_matches("mut ").trim();
        let ty = ty.trim().trim_start_matches(['&', ' ']);
        let head = ty.strip_prefix("mut ").unwrap_or(ty).split('<').next()?;
        let ok = !pat.is_empty() && pat.chars().all(|c| c.is_alphanumeric() || c == '_');
        (ok && head.rsplit("::").next()?.trim().ends_with("Guard")).then(|| pat.to_string())
    };
    params.iter().filter_map(guard).collect()
}

// ---------------------------------------------------------------------------
// per-fn body walk
// ---------------------------------------------------------------------------

struct Guard {
    name: String,
    lock: String,
    /// Brace depth the binding lives at; it dies when that block closes.
    depth: usize,
}

/// Chained methods that return the guard itself, so a `let` binding
/// through them still names a guard.
const GUARD_CHAIN: &[&str] = &["unwrap", "unwrap_or_else", "expect"];

fn walk_fn(chars: &[char], lines: &[usize], fd: &FnDef) -> FnFacts {
    let mut out = FnFacts {
        name: fd.name.clone(),
        acquires: Vec::new(),
    };
    let mut guards: Vec<Guard> = fd
        .guard_params
        .iter()
        .map(|n| Guard {
            name: n.clone(),
            lock: n.clone(),
            depth: 1,
        })
        .collect();
    let mut depth = 1usize;
    let mut paren = 0usize;
    // The name (and scope depth) the current statement binds, if any.
    let mut pending: Option<(String, usize)> = None;
    let mut stmt_start = true;
    let mut i = fd.body.0;
    let end = fd.body.1.min(chars.len());
    while i < end {
        let c = chars[i];
        match c {
            '{' | '}' | ';' => {
                if c == '{' {
                    depth += 1;
                } else if c == '}' {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                }
                stmt_start = true;
                pending = None;
                i += 1;
                continue;
            }
            '(' => paren += 1,
            ')' => paren = paren.saturating_sub(1),
            _ => {}
        }
        if !(c.is_alphanumeric() || c == '_') {
            if !c.is_whitespace() {
                stmt_start = false;
            }
            i += 1;
            continue;
        }
        let (w, wend) = read_word(chars, i);
        let wstart = i;
        let at_stmt = stmt_start;
        stmt_start = false;
        i = wend;
        match w.as_str() {
            "let" => {
                pending = let_binding(chars, wend).map(|name| (name, depth));
                continue;
            }
            // `if (…)` / `match (a, g)` are not calls that move a guard.
            "if" | "while" | "match" | "for" | "in" | "return" => continue,
            _ => {}
        }
        // `g = …` at statement start rebinds a guard in its own scope.
        if at_stmt && paren == 0 {
            if let Some((ei, '=')) = next_nonws(chars, wend) {
                if chars.get(ei + 1) != Some(&'=') {
                    if let Some(g) = guards.iter().find(|g| g.name == w) {
                        pending = Some((w, g.depth));
                        continue;
                    }
                }
            }
        }
        let Some((open, '(')) = next_nonws(chars, wend) else {
            continue;
        };
        let close = matching(chars, open, '(', ')');
        let moved = moved_guards(chars, open, close, &guards);
        let binds = pending.take();
        let is_method = prev_nonws(chars, wstart).map(|(_, pc)| pc) == Some('.');
        let no_args = next_nonws(chars, open + 1).map(|(j, _)| j) == Some(close);
        if is_method && w == "lock" && no_args {
            let lock = receiver(chars, wstart);
            let mut held: Vec<String> = guards
                .iter()
                .filter(|g| !moved.contains(&g.name))
                .map(|g| g.lock.clone())
                .collect();
            held.sort();
            held.dedup();
            out.acquires.push(Acquire {
                lock: lock.clone(),
                line: line_of(lines, wstart),
                held,
            });
            // Bind only a plain `let g = ….lock()[.unwrap()];`; chains
            // like `.get(…)` return non-guards.
            if paren == 0 && guard_chain_ok(chars, close) {
                if let Some((name, d)) = binds {
                    bind_guard(&mut guards, name, lock, d);
                }
            } else {
                pending = binds;
            }
        } else if w.starts_with("wait") && !moved.is_empty() {
            // `cv.wait(g)` / `self.wait(st, d)` hand the guard back.
            let lock = guards
                .iter()
                .find(|g| g.name == moved[0])
                .map(|g| g.lock.clone());
            guards.retain(|g| !moved.contains(&g.name));
            if let (Some((name, d)), Some(lock)) = (binds, lock) {
                bind_guard(&mut guards, name, lock, d);
            }
            continue;
        } else {
            pending = binds;
        }
        guards.retain(|g| !moved.contains(&g.name));
    }
    out
}

/// The simple identifier a `let` binds (`let [mut] name[: T] = …`), or
/// `None` for `_` and destructuring patterns.
fn let_binding(chars: &[char], after_kw: usize) -> Option<String> {
    let (ni, nc) = next_nonws(chars, after_kw)?;
    if !is_ident_start(nc) {
        return None;
    }
    let (mut w, mut j) = read_word(chars, ni);
    if w == "mut" {
        let (ni2, nc2) = next_nonws(chars, j)?;
        if !is_ident_start(nc2) {
            return None;
        }
        (w, j) = read_word(chars, ni2);
    }
    match next_nonws(chars, j) {
        Some((_, '(' | '{')) => None,
        _ if w == "_" => None,
        _ => Some(w),
    }
}

/// Does the statement still hold the guard once the chain after an
/// acquisition's closing paren ends? Only `?` and the guard-returning
/// [`GUARD_CHAIN`] methods may follow before the `;`.
fn guard_chain_ok(chars: &[char], mut close: usize) -> bool {
    loop {
        match next_nonws(chars, close + 1) {
            Some((_, ';')) | None => return true,
            Some((qi, '?')) => close = qi,
            Some((di, '.')) => {
                let Some((mi, mc)) = next_nonws(chars, di + 1) else {
                    return false;
                };
                let (m, mend) = read_word(chars, mi);
                if !is_ident_start(mc) || !GUARD_CHAIN.contains(&m.as_str()) {
                    return false;
                }
                let Some((oi, '(')) = next_nonws(chars, mend) else {
                    return false;
                };
                close = matching(chars, oi, '(', ')');
            }
            _ => return false,
        }
    }
}

fn bind_guard(guards: &mut Vec<Guard>, name: String, lock: String, depth: usize) {
    guards.retain(|g| g.name != name);
    guards.push(Guard { name, lock, depth });
}

/// Guard names passed by value as a top-level argument in `(open..close)`.
fn moved_guards(chars: &[char], open: usize, close: usize, guards: &[Guard]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close.min(chars.len()) {
        let c = chars[i];
        if is_ident_start(c) {
            let (w, wend) = read_word(chars, i);
            if guards.iter().any(|g| g.name == w)
                && matches!(prev_nonws(chars, i), Some((_, '(' | ',')))
                && matches!(next_nonws(chars, wend), Some((_, ',' | ')')))
                && !out.contains(&w)
            {
                out.push(w);
            }
            i = wend;
        } else if c == '(' {
            // nested call: its args are not top-level arguments here
            i = matching(chars, i, '(', ')') + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Dotted receiver text before a method word, e.g. `self.state` for
/// `self.state.lock(` or `registry().counters` for a free-fn head.
fn receiver(chars: &[char], word_start: usize) -> String {
    let mut segs: Vec<String> = Vec::new();
    let mut i = word_start;
    while let Some((dot, '.')) = prev_nonws(chars, i) {
        let Some((mut e, c)) = prev_nonws(chars, dot) else {
            break;
        };
        let mut call = "";
        if c == ')' {
            // `fname(…).field` — step back over the argument list
            let mut depth = 0usize;
            loop {
                match chars[e] {
                    ')' => depth += 1,
                    '(' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if e == 0 {
                    return segs.into_iter().rev().collect::<Vec<_>>().join(".");
                }
                e -= 1;
            }
            call = "()";
            e = e.saturating_sub(1);
        }
        let mut s = e + 1;
        while s > 0 && (chars[s - 1].is_alphanumeric() || chars[s - 1] == '_') {
            s -= 1;
        }
        if s > e {
            break;
        }
        segs.push(format!("{}{call}", chars[s..=e].iter().collect::<String>()));
        i = s;
    }
    segs.reverse();
    segs.join(".")
}

// ---------------------------------------------------------------------------
// metric registrations
// ---------------------------------------------------------------------------

fn find_metrics(
    chars: &[char],
    orig: &[char],
    lines: &[usize],
    words: &[(usize, usize)],
    sc: &Scanned,
) -> Vec<MetricReg> {
    let allowed = sc.suppressed_lines("M1");
    let mut out = Vec::new();
    for (wi, &w) in words.iter().enumerate() {
        let kind = match word_at(chars, w).as_str() {
            "Counter" => "counter",
            "Gauge" => "gauge",
            "Histogram" => "histogram",
            _ => continue,
        };
        // expect `::new(` then a string literal in the original text
        let Some((c1, ':')) = next_nonws(chars, w.1) else {
            continue;
        };
        if chars.get(c1 + 1) != Some(&':') {
            continue;
        }
        let Some(&nw) = words.get(wi + 1) else {
            continue;
        };
        if nw.0 <= c1 || word_at(chars, nw) != "new" {
            continue;
        }
        let Some((oi, '(')) = next_nonws(chars, nw.1) else {
            continue;
        };
        let line = line_of(lines, w.0);
        if sc.is_test_line(line) {
            continue;
        }
        // the literal was stripped to spaces; read it from the original
        let Some((qi, '"')) = next_nonws(orig, oi + 1) else {
            continue;
        };
        let name: String = orig[qi + 1..].iter().take_while(|&&c| c != '"').collect();
        if !name.is_empty() {
            out.push(MetricReg {
                kind,
                name,
                line,
                allowed: allowed.contains(&line),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fn_named<'a>(f: &'a FileFacts, name: &str) -> &'a FnFacts {
        f.fns.iter().find(|x| x.name == name).unwrap()
    }

    #[test]
    fn nested_acquisition_records_held_guard() {
        let f = extract(
            "struct P { a: Mutex<u32>, b: Mutex<u32> }\n\
             impl P { fn ab(&self) { let g = self.a.lock().unwrap(); let h = self.b.lock().unwrap(); drop(h); drop(g); } }\n",
        );
        let fnf = &f.fns[0];
        assert_eq!(fnf.acquires.len(), 2, "{:?}", fnf.acquires);
        assert_eq!(fnf.acquires[0].lock, "self.a");
        assert!(fnf.acquires[0].held.is_empty());
        assert_eq!(fnf.acquires[1].lock, "self.b");
        assert_eq!(fnf.acquires[1].held, vec!["self.a".to_string()]);
    }

    #[test]
    fn moved_guard_is_released_at_call() {
        let f = extract(
            "impl P {\n\
               fn go(&self) { let g = self.a.lock().unwrap(); self.take(g); let h = self.b.lock().unwrap(); drop(h); }\n\
               fn take(&self, _g: std::sync::MutexGuard<'_, u32>) {}\n\
             }\n",
        );
        let go = fn_named(&f, "go");
        assert!(go.acquires[1].held.is_empty(), "{:?}", go.acquires[1]);
    }

    #[test]
    fn condvar_wait_releases_only_its_guard() {
        // The wait hands `g` back re-acquired; `a` was never released.
        let f = extract(
            "impl W { fn bad(&self) { let a = self.aux.lock().unwrap(); let mut g = self.m.lock().unwrap();\n\
             while g.is_empty() { g = self.cv.wait(g).unwrap(); }\n\
             let s = self.stats.lock().unwrap(); drop(s); drop(g); drop(a); } }\n",
        );
        let last = f.fns[0].acquires.last().unwrap();
        assert_eq!(last.lock, "self.stats");
        assert_eq!(
            last.held,
            vec!["self.aux".to_string(), "self.m".to_string()]
        );
    }

    #[test]
    fn guard_helper_binds_callers() {
        let f = extract(
            "impl C {\n\
               fn lock(&self) -> std::sync::MutexGuard<'_, St> { self.state.lock().unwrap() }\n\
               fn submit(&self) { let st = self.lock(); let q = self.queue.lock().unwrap(); drop(q); drop(st); }\n\
             }\n",
        );
        let submit = fn_named(&f, "submit");
        assert_eq!(submit.acquires[0].lock, "self");
        assert_eq!(submit.acquires[1].held, vec!["self".to_string()]);
    }

    #[test]
    fn guard_helper_with_a_split_chain_binds_callers() {
        let f = extract(
            "impl C {\n\
               fn lock(&self) -> std::sync::MutexGuard<'_, St> {\n\
                   self.state\n\
                       .lock()\n\
                       .unwrap_or_else(std::sync::PoisonError::into_inner)\n\
               }\n\
               fn submit(&self) { let st = self.lock(); drop(st); }\n\
             }\n",
        );
        assert_eq!(fn_named(&f, "lock").acquires[0].lock, "self.state");
        assert_eq!(fn_named(&f, "submit").acquires[0].lock, "self");
    }

    #[test]
    fn chained_non_guard_call_is_not_bound() {
        // `let eng = self.sessions.lock().unwrap().get(k).cloned()` must
        // not leave `eng` tracked as a live guard
        let f = extract(
            "impl H {\n\
               fn get(&self) { let eng = self.sessions.lock().unwrap().get(1).cloned(); let g = self.sessions.lock().unwrap(); drop(g); drop(eng); }\n\
             }\n",
        );
        let last = f.fns[0].acquires.last().unwrap();
        assert!(last.held.is_empty(), "{last:?}");
    }

    #[test]
    fn free_fn_registry_pattern_is_tracked() {
        let f = extract(
            "fn slot() { let c = registry().counters.lock().unwrap();\n\
             let h = registry().histograms.lock().unwrap(); drop(h); drop(c); }\n",
        );
        let last = f.fns[0].acquires.last().unwrap();
        assert_eq!(last.lock, "registry().histograms");
        assert_eq!(last.held, vec!["registry().counters".to_string()]);
    }

    #[test]
    fn metric_names_read_from_original_source() {
        let f = extract(
            "static C: Counter = Counter::new(\"x.hits\");\n\
             static G: Gauge = Gauge::new(\"x.depth\");\n",
        );
        let names: Vec<&str> = f.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["x.hits", "x.depth"]);
        assert_eq!(f.metrics[0].kind, "counter");
    }

    #[test]
    fn pragma_lines_collected() {
        let f = extract(
            "// gp-lint: allow(M1) - registered by a plugin the manifest documents separately\n\
             static C: Counter = Counter::new(\"x.plugin\");\n\
             static D: Counter = Counter::new(\"x.core\");\n",
        );
        let allowed: Vec<bool> = f.metrics.iter().map(|m| m.allowed).collect();
        assert_eq!(allowed, vec![true, false]);
    }

    #[test]
    fn wait_helper_and_reassignment_keep_guard_alive() {
        let f = extract(
            "impl C {\n\
               fn wait<'a>(&'a self, g: MutexGuard<'a, St>, d: Duration) -> MutexGuard<'a, St> { self.cv.wait_timeout(g, d).unwrap().0 }\n\
               fn lead(&self, mut st: MutexGuard<'_, St>) { st = self.wait(st, D); let q = self.queue.lock().unwrap(); drop(q); drop(st); }\n\
             }\n",
        );
        let lead = fn_named(&f, "lead");
        assert_eq!(lead.acquires.len(), 1, "{:?}", lead.acquires);
        assert_eq!(lead.acquires[0].held, vec!["st".to_string()]);
    }

    #[test]
    fn discards_found_and_test_code_exempt() {
        // Discarded Results are clippy's now (E1: `let_underscore_must_use`,
        // `unused_result_ok` in CI's `$LIB_LINTS`), checked on the fixture
        // crate in `tests/fixtures/clippy`.
        use crate::clippy_fixture::{assert_clean, assert_family};
        assert_family(|k| k == "let_underscore_must_use" || k == "unused_result_ok");
        assert_clean(&["\"x\".parse::<u32>()"]);
    }

    /// Fixed-seed companion of tests/proptests.rs over the scanner and
    /// fact atoms together: token soup never panics, and extraction from
    /// the stripped code finds the same functions (literal contents live
    /// only in the original text, so metrics compare by count).
    #[test]
    fn fuzz_token_soup_never_panics() {
        let atoms = [crate::soup::SCANNER_ATOMS, crate::soup::FACT_ATOMS].concat();
        gp_tensor::rng::check(200, |rng| {
            let src = crate::soup::soup(rng, &atoms);
            let (f, stripped) = (extract(&src), extract(&crate::scanner::scan(&src).code));
            assert_eq!(f.fns, stripped.fns);
            assert_eq!(f.metrics.len(), stripped.metrics.len());
        });
    }
}
