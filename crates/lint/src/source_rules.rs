//! Token-stream rules: `no-panic-path`, `no-nondeterminism`,
//! `surrogate-discipline`, `forbid-unsafe`.
//!
//! All four scan the [`SourceFile`] token stream, so comments, doctests
//! inside doc comments, and string literals can never fire a rule, and
//! code inside inline `#[cfg(test)]` items is exempt from the
//! production-path rules (tests may unwrap, time things, and call
//! `.dist(` freely).

use crate::rules::{Finding, Severity};
use crate::tokenizer::{SourceFile, Tok, Token};

/// Keywords that can directly precede `[` without forming an index
/// expression (`let [a, b] = …`, `return [x]`, `in [1, 2]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "break", "continue", "for",
    "while", "loop", "move", "as", "where", "impl", "fn", "pub", "use", "const", "static", "type",
    "struct", "enum", "trait", "mod", "crate", "dyn", "box", "yield", "await",
];

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s),
        _ => None,
    }
}

fn is_punct(t: &Token, c: char) -> bool {
    matches!(t.tok, Tok::Punct(p) if p == c)
}

fn finding(rule: &'static str, file: &SourceFile, line: u32, message: String) -> Finding {
    Finding {
        rule,
        severity: crate::rules::severity_of(rule).unwrap_or(Severity::Deny),
        path: file.path.clone(),
        line,
        message,
    }
}

/// `no-panic-path`: in the designated never-panic decode/load modules, no
/// `.unwrap(` / `.expect(` / `panic!` / `unreachable!` / `todo!` /
/// `unimplemented!` and no index expressions (`x[…]` — slice indexing
/// panics out of bounds) outside `#[cfg(test)]`. Provably-infallible
/// sites carry a `// pg-lint: allow(no-panic-path, <why>)` pragma, so
/// every remaining site has a written justification.
pub fn check_no_panic(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.in_test[i] {
            continue;
        }
        let t = &toks[i];
        if let Some(name) = ident(t) {
            // `.unwrap(` / `.expect(`
            if (name == "unwrap" || name == "expect")
                && i > 0
                && is_punct(&toks[i - 1], '.')
                && toks.get(i + 1).is_some_and(|n| is_punct(n, '('))
            {
                out.push(finding(
                    "no-panic-path",
                    file,
                    t.line,
                    format!(".{name}() can panic; return the module's typed error instead"),
                ));
            }
            // `panic!` family
            if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                && toks.get(i + 1).is_some_and(|n| is_punct(n, '!'))
            {
                out.push(finding(
                    "no-panic-path",
                    file,
                    t.line,
                    format!("{name}! in a never-panic module"),
                ));
            }
            // Index expression: ident followed by `[` (skipping keywords).
            if toks.get(i + 1).is_some_and(|n| is_punct(n, '['))
                && !NON_INDEX_KEYWORDS.contains(&name)
            {
                out.push(finding(
                    "no-panic-path",
                    file,
                    t.line,
                    format!(
                        "index expression `{name}[…]` can panic; use get()/take-style accessors"
                    ),
                ));
            }
        }
        // Index after a call or another index: `f(x)[0]`, `a[0][1]`.
        if (is_punct(t, ')') || is_punct(t, ']'))
            && toks.get(i + 1).is_some_and(|n| is_punct(n, '['))
            && !file.in_test[i]
        {
            out.push(finding(
                "no-panic-path",
                file,
                toks[i + 1].line,
                "index expression can panic; use get()/take-style accessors".to_string(),
            ));
        }
    }
    out
}

/// `no-nondeterminism`: no wall-clock or entropy sources (`Instant::now`,
/// `SystemTime`, `thread_rng`, `from_entropy`) outside `pg_bench`.
/// Protects the bit-identical-across-thread-counts
/// discipline: a timestamp or random draw on a result path makes runs
/// unreproducible.
pub fn check_nondeterminism(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.in_test[i] {
            continue;
        }
        let Some(name) = ident(&toks[i]) else {
            continue;
        };
        let flagged = match name {
            // `Instant::now(` — the `::now` requirement keeps type
            // mentions (`fn f(t: Instant)`) legal.
            "Instant" => {
                is_punct_at(toks, i + 1, ':')
                    && is_punct_at(toks, i + 2, ':')
                    && toks.get(i + 3).and_then(ident) == Some("now")
            }
            "SystemTime" | "thread_rng" | "from_entropy" => true,
            _ => false,
        };
        if flagged {
            out.push(finding(
                "no-nondeterminism",
                file,
                toks[i].line,
                format!("`{name}` is a nondeterminism source; only pg_bench may measure time or draw entropy"),
            ));
        }
    }
    out
}

fn is_punct_at(toks: &[Token], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| is_punct(t, c))
}

/// `surrogate-discipline`: the designated hot-path search modules must
/// compare in surrogate space (`surrogate_to` / `dist_from_surrogate`) —
/// a raw `.dist(` call there silently reverts the squared-space
/// optimization and re-introduces a `sqrt` per candidate.
pub fn check_surrogate(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.in_test[i] {
            continue;
        }
        if ident(&toks[i]) == Some("dist")
            && i > 0
            && is_punct(&toks[i - 1], '.')
            && toks.get(i + 1).is_some_and(|n| is_punct(n, '('))
        {
            out.push(finding(
                "surrogate-discipline",
                file,
                toks[i].line,
                ".dist( in a surrogate-space module; compare with surrogate_to and convert once via dist_from_surrogate"
                    .to_string(),
            ));
        }
    }
    out
}

/// `forbid-unsafe`: the crate root must carry the inner attribute
/// `#![forbid(unsafe_code)]`, so `unsafe` cannot enter any compilation
/// unit of the workspace without loudly editing a crate root.
pub fn check_forbid_unsafe(file: &SourceFile) -> Vec<Finding> {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let found = is_punct_at(toks, i, '#')
            && is_punct_at(toks, i + 1, '!')
            && is_punct_at(toks, i + 2, '[')
            && toks.get(i + 3).and_then(ident) == Some("forbid")
            && is_punct_at(toks, i + 4, '(')
            && toks.get(i + 5).and_then(ident) == Some("unsafe_code")
            && is_punct_at(toks, i + 6, ')')
            && is_punct_at(toks, i + 7, ']');
        if found {
            return Vec::new();
        }
    }
    vec![finding(
        "forbid-unsafe",
        file,
        1,
        "crate root is missing #![forbid(unsafe_code)]".to_string(),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse("fixture.rs", src)
    }

    #[test]
    fn no_panic_flags_each_shape_once() {
        let src = r#"
fn f(v: &[u8]) {
    let a = v.first().unwrap();
    let b = maybe().expect("msg");
    let c = v[0];
    let d = lookup(v)[1];
    panic!("boom");
    unreachable!();
}
"#;
        let got = check_no_panic(&parse(src));
        assert_eq!(got.len(), 6, "{got:?}");
        let lines: Vec<u32> = got.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn no_panic_ignores_safe_shapes() {
        let src = r#"
fn f(v: &[u8], m: &std::collections::HashMap<u8, u8>) -> Option<u8> {
    let a = v.first()?;                    // no unwrap
    let b = x.unwrap_or(3);                // distinct ident
    let c = x.unwrap_or_else(|| 4);
    let arr: [u8; 4] = [0; 4];             // array type + literal
    let [p, q] = pair;                     // slice pattern after `let`
    #[cfg(feature = "x")]
    let attr_ok = 1;
    v.get(0).copied()
}
#[cfg(test)]
mod tests {
    fn t() { v[0]; x.unwrap(); panic!("fine in tests"); }
}
"#;
        let got = check_no_panic(&parse(src));
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn no_panic_skips_comments_and_strings() {
        let src = r##"
//! let x = v.unwrap(); // doctest in docs
fn f() {
    let msg = "call .unwrap() and panic!";
    let raw = r#"v[0]"#;
}
"##;
        let got = check_no_panic(&parse(src));
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn nondeterminism_flags_clock_and_entropy() {
        let src = r#"
fn f() {
    let t = Instant::now();
    let s = std::time::SystemTime::now();
    let r = thread_rng();
    let g = StdRng::from_entropy();
}
"#;
        let got = check_nondeterminism(&parse(src));
        assert_eq!(got.len(), 4, "{got:?}");
    }

    #[test]
    fn nondeterminism_allows_instant_as_a_type_and_tests() {
        let src = r#"
fn store(t: Instant) -> Instant { t }
#[cfg(test)]
mod tests {
    fn t() { let x = Instant::now(); }
}
"#;
        let got = check_nondeterminism(&parse(src));
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn surrogate_flags_raw_dist_only() {
        let bad = "fn f() { let d = data.dist(a, b); }";
        assert_eq!(check_surrogate(&parse(bad)).len(), 1);
        let good = r#"
fn f() {
    let s = data.surrogate_to(a, q);
    let d = data.dist_from_surrogate(s);
    let other = distance(a, b); // plain fn call, not .dist(
}
"#;
        assert!(check_surrogate(&parse(good)).is_empty());
    }

    #[test]
    fn forbid_unsafe_passes_with_header_and_fails_without() {
        let good = "#![warn(missing_docs)]\n#![forbid(unsafe_code)]\nfn main() {}";
        assert!(check_forbid_unsafe(&parse(good)).is_empty());
        let bad = "#![warn(missing_docs)]\nfn main() {}";
        let got = check_forbid_unsafe(&parse(bad));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "forbid-unsafe");
        // A forbid in a comment does not count.
        let tricky = "// #![forbid(unsafe_code)]\nfn main() {}";
        assert_eq!(check_forbid_unsafe(&parse(tricky)).len(), 1);
    }
}
