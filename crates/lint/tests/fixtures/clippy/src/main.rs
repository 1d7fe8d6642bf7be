//! Binaries are outside the library-only lints: `--lib` never sees
//! this unwrap or this println.

fn main() {
    println!("{}", clippy_fixture::risky(Some(1)).checked_add(1).unwrap());
}
