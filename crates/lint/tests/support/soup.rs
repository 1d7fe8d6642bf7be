//! Token soup for the scanner and fact-extractor fuzz tests: seeded
//! runs of atoms that hit the lexer's and extractor's edge cases, mixed
//! with random printable and Unicode text. Shared by gp-lint's unit
//! tests and `tests/proptests.rs`.

use gp_tensor::rng::StdRng;

/// Atoms biased toward the scanner's tricky cases.
pub const SCANNER_ATOMS: &[&str] = &[
    "\"",
    "'",
    "\\",
    "r#\"",
    "\"#",
    "r#ident",
    "b\"",
    "br##\"",
    "//",
    "/*",
    "*/",
    "\n",
    "{",
    "}",
    ";",
    "#[cfg(test)]",
    "mod tests",
    "'a",
    "'\\''",
    "gp-lint: allow(D2) — reason",
    "partial_cmp",
    ".unwrap()",
];

/// Atoms biased toward the fact extractor on top of the scanner's: fn
/// headers, guard bindings and moves, waits, metric registrations.
pub const FACT_ATOMS: &[&str] = &[
    "fn f",
    "fn",
    "if",
    "MutexGuard<'_, T>",
    "(&self)",
    "self.state.lock()",
    ".lock()",
    ".wait(g)",
    ".wait_timeout(",
    "let g =",
    "let mut",
    "g =",
    "drop(g)",
    "Counter::new(\"m.x\")",
    "-> MutexGuard<'_, u32>",
    "::",
    "<",
    ">",
    "(",
    ")",
    "{",
    "}",
    ";",
    ",",
    "\n",
    "\"",
    "/*",
    "gp-lint: allow(C1) — reason",
];

/// Up to 63 pieces, each a fixed atom or a short random run of printable
/// ASCII (up to 6 chars) or of non-control Unicode (up to 4 chars).
pub fn soup(rng: &mut StdRng, atoms: &[&str]) -> String {
    let mut out = String::new();
    for _ in 0..rng.gen_range(0..64) {
        match rng.gen_range(0..atoms.len() + 2) {
            i if i < atoms.len() => out.push_str(atoms[i]),
            i if i == atoms.len() => {
                for _ in 0..rng.gen_range(0..=6) {
                    out.push(char::from(b' ' + rng.gen_range(0..95) as u8));
                }
            }
            _ => {
                let mut left = rng.gen_range(0..=4);
                while left > 0 {
                    let c = char::from_u32(rng.gen_range(0..0x3_0000) as u32);
                    if let Some(c) = c.filter(|c| !c.is_control()) {
                        out.push(c);
                        left -= 1;
                    }
                }
            }
        }
    }
    out
}
