//! Manifest-backed rules: `wire-freeze`, `no-external-deps`.

use crate::rules::{Finding, Severity};
use crate::tokenizer::{SourceFile, Tok};
use crate::workspace;

fn finding(rule: &'static str, path: &str, line: u32, message: String) -> Finding {
    Finding {
        rule,
        severity: crate::rules::severity_of(rule).unwrap_or(Severity::Deny),
        path: path.to_string(),
        line,
        message,
    }
}

// ---------------------------------------------------------------------------
// wire-freeze
// ---------------------------------------------------------------------------

/// One frozen wire constant: its manifest kind, name, value, and (when
/// extracted from source) the line it was declared on.
#[derive(Debug, Clone, PartialEq)]
pub struct WireConst {
    /// `"protocol-version"`, `"frame-kind"`, or `"error-code"`.
    pub kind: &'static str,
    /// Constant name (`KIND_PING`, `Malformed`, `PROTOCOL_VERSION`).
    pub name: String,
    /// The frozen numeric value.
    pub value: u64,
    /// 1-based source line (0 when parsed from the lock file).
    pub line: u32,
}

/// Extracts the frozen wire constants from `pg_serve` sources:
/// `PROTOCOL_VERSION` and every `const KIND_*: u8 = N;` from
/// `protocol.rs`, and every `ErrorCode::Name => N` arm (the `code()`
/// mapping) from `error.rs`. Test spans are skipped, so fixture tables in
/// `#[cfg(test)]` cannot shadow the real constants.
pub fn extract_wire_consts(protocol: &SourceFile, error: &SourceFile) -> Vec<WireConst> {
    let mut out = Vec::new();
    let toks = &protocol.tokens;
    let ident = |i: usize| match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct =
        |i: usize, c: char| matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c);
    let num = |i: usize| match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Num(s)) => parse_u64(s),
        _ => None,
    };
    for i in 0..toks.len() {
        if protocol.in_test[i] {
            continue;
        }
        if ident(i) != Some("const") {
            continue;
        }
        let Some(name) = ident(i + 1) else { continue };
        let is_kind = name.starts_with("KIND_");
        let is_version = name == "PROTOCOL_VERSION";
        if !is_kind && !is_version {
            continue;
        }
        // const NAME : u8 = N ;
        if punct(i + 2, ':') && ident(i + 3) == Some("u8") && punct(i + 4, '=') {
            if let Some(value) = num(i + 5) {
                out.push(WireConst {
                    kind: if is_kind {
                        "frame-kind"
                    } else {
                        "protocol-version"
                    },
                    name: name.to_string(),
                    value,
                    line: toks[i + 1].line,
                });
            }
        }
    }
    // ErrorCode::Name => N  (only `code()` has this arm shape; `from_code`
    // reverses it and `for_error` has no number after the arrow).
    let toks = &error.tokens;
    let ident = |i: usize| match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    };
    let punct =
        |i: usize, c: char| matches!(toks.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c);
    let num = |i: usize| match toks.get(i).map(|t| &t.tok) {
        Some(Tok::Num(s)) => parse_u64(s),
        _ => None,
    };
    for i in 0..toks.len() {
        if error.in_test[i] {
            continue;
        }
        if ident(i) == Some("ErrorCode")
            && punct(i + 1, ':')
            && punct(i + 2, ':')
            && punct(i + 4, '=')
            && punct(i + 5, '>')
        {
            if let (Some(name), Some(value)) = (ident(i + 3), num(i + 6)) {
                let entry = WireConst {
                    kind: "error-code",
                    name: name.to_string(),
                    value,
                    line: toks[i + 3].line,
                };
                if !out.contains(&entry) {
                    out.push(entry);
                }
            }
        }
    }
    out
}

fn parse_u64(text: &str) -> Option<u64> {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    if let Some(hex) = clean.strip_prefix("0x") {
        u64::from_str_radix(
            hex.trim_end_matches(|c: char| c.is_alphabetic() && !c.is_ascii_hexdigit()),
            16,
        )
        .ok()
    } else {
        clean
            .trim_end_matches(|c: char| c.is_alphabetic())
            .parse()
            .ok()
    }
}

/// Renders the manifest text for `--write-wire-lock`: deterministic order
/// (version, frame kinds by value, error codes by value).
pub fn render_wire_lock(consts: &[WireConst]) -> String {
    let mut out = String::from(
        "# Frozen wire constants of pg_serve (frame kinds and error codes are\n\
         # frozen forever; extend the protocol by appending codes). pg_lint's\n\
         # wire-freeze rule fails if the sources diverge from this manifest.\n\
         # After a *reviewed* protocol change, regenerate with:\n\
         #   cargo run -p pg_lint -- --write-wire-lock\n",
    );
    let section = |kind: &str| {
        let mut rows: Vec<&WireConst> = consts.iter().filter(|c| c.kind == kind).collect();
        rows.sort_by_key(|c| (c.value, c.name.clone()));
        let mut s = String::new();
        for c in rows {
            s.push_str(&format!("{} {} {}\n", c.kind, c.name, c.value));
        }
        s
    };
    out.push_str(&section("protocol-version"));
    out.push_str(&section("frame-kind"));
    out.push_str(&section("error-code"));
    out
}

/// Parses a `wire.lock` manifest. Unknown kinds or malformed lines yield
/// findings (a corrupted manifest must not silently weaken the freeze).
pub fn parse_wire_lock(text: &str, lock_path: &str) -> (Vec<WireConst>, Vec<Finding>) {
    let mut consts = Vec::new();
    let mut findings = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let parsed = if parts.len() == 3 {
            let kind = match parts[0] {
                "protocol-version" => Some("protocol-version"),
                "frame-kind" => Some("frame-kind"),
                "error-code" => Some("error-code"),
                _ => None,
            };
            kind.zip(parts[2].parse::<u64>().ok())
                .map(|(k, v)| WireConst {
                    kind: k,
                    name: parts[1].to_string(),
                    value: v,
                    line: 0,
                })
        } else {
            None
        };
        match parsed {
            Some(c) => consts.push(c),
            None => findings.push(finding(
                "wire-freeze",
                lock_path,
                line_no,
                format!("malformed manifest line `{line}` (expected `<kind> <name> <value>`)"),
            )),
        }
    }
    (consts, findings)
}

/// `wire-freeze`: the constants extracted from the sources must match the
/// committed manifest exactly — value changes, removals, and unreviewed
/// additions all fail. `lock_text = None` (missing manifest) is itself a
/// finding.
pub fn check_wire_freeze(
    protocol: &SourceFile,
    error: &SourceFile,
    lock_text: Option<&str>,
    lock_path: &str,
) -> Vec<Finding> {
    let actual = extract_wire_consts(protocol, error);
    let mut findings = Vec::new();
    // Extraction sanity: an empty set means the extractor (or a rewrite of
    // protocol.rs) broke — fail loudly rather than vacuously passing.
    if !actual.iter().any(|c| c.kind == "frame-kind") {
        findings.push(finding(
            "wire-freeze",
            &protocol.path,
            1,
            "no `const KIND_*: u8` frame kinds found — protocol.rs was restructured past the extractor".to_string(),
        ));
    }
    if !actual.iter().any(|c| c.kind == "error-code") {
        findings.push(finding(
            "wire-freeze",
            &error.path,
            1,
            "no `ErrorCode::… => n` code arms found — error.rs was restructured past the extractor"
                .to_string(),
        ));
    }
    let Some(lock_text) = lock_text else {
        findings.push(finding(
            "wire-freeze",
            lock_path,
            0,
            format!("missing wire manifest {lock_path}; generate it with --write-wire-lock and commit it"),
        ));
        return findings;
    };
    let (expected, mut lock_findings) = parse_wire_lock(lock_text, lock_path);
    findings.append(&mut lock_findings);
    for a in &actual {
        match expected.iter().find(|e| e.kind == a.kind && e.name == a.name) {
            None => findings.push(finding(
                "wire-freeze",
                if a.kind == "error-code" { &error.path } else { &protocol.path },
                a.line,
                format!(
                    "{} {} = {} is not in {lock_path} — a protocol extension must update the manifest in the same reviewed change",
                    a.kind, a.name, a.value
                ),
            )),
            Some(e) if e.value != a.value => findings.push(finding(
                "wire-freeze",
                if a.kind == "error-code" { &error.path } else { &protocol.path },
                a.line,
                format!(
                    "{} {} changed: source says {}, {lock_path} froze {} — wire codes are frozen forever",
                    a.kind, a.name, a.value, e.value
                ),
            )),
            Some(_) => {}
        }
    }
    for e in &expected {
        if !actual.iter().any(|a| a.kind == e.kind && a.name == e.name) {
            findings.push(finding(
                "wire-freeze",
                lock_path,
                0,
                format!(
                    "{} {} = {} is frozen in the manifest but no longer declared in the sources",
                    e.kind, e.name, e.value
                ),
            ));
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// no-external-deps
// ---------------------------------------------------------------------------

/// `no-external-deps`: every dependency entry in a manifest must resolve
/// inside the workspace (`path = …` or `workspace = true`). Machine-checks
/// the PR 1 compat policy: the build environment has no crates.io access,
/// so a version-only dependency can never build here.
pub fn check_external_deps(manifest_path: &str, text: &str) -> Vec<Finding> {
    workspace::parse_deps(text)
        .into_iter()
        .filter(|d| !d.is_internal)
        .map(|d| {
            finding(
                "no-external-deps",
                manifest_path,
                d.line,
                format!(
                    "dependency `{}` is not a workspace/path dependency; the compat policy (crates/compat/README.md) forbids external crates",
                    d.name
                ),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::SourceFile;

    fn proto(src: &str) -> SourceFile {
        SourceFile::parse("crates/serve/src/protocol.rs", src)
    }

    fn errf(src: &str) -> SourceFile {
        SourceFile::parse("crates/serve/src/error.rs", src)
    }

    const PROTO_FIXTURE: &str = "
pub const PROTOCOL_VERSION: u8 = 1;
const KIND_PING: u8 = 0;
const KIND_PONG: u8 = 128;
#[cfg(test)]
mod tests {
    const KIND_FAKE: u8 = 99;
}
";

    const ERROR_FIXTURE: &str = "
impl ErrorCode {
    pub fn code(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Internal => 10,
        }
    }
    pub fn from_code(code: u16) -> Option<Self> {
        Some(match code {
            1 => ErrorCode::Malformed,
            10 => ErrorCode::Internal,
            _ => return None,
        })
    }
}
";

    #[test]
    fn extraction_finds_version_kinds_and_codes_but_not_test_consts() {
        let consts = extract_wire_consts(&proto(PROTO_FIXTURE), &errf(ERROR_FIXTURE));
        let names: Vec<&str> = consts.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "PROTOCOL_VERSION",
                "KIND_PING",
                "KIND_PONG",
                "Malformed",
                "Internal"
            ]
        );
        assert!(!names.contains(&"KIND_FAKE"));
        let pong = consts.iter().find(|c| c.name == "KIND_PONG").unwrap();
        assert_eq!(pong.value, 128);
        assert_eq!(pong.kind, "frame-kind");
    }

    #[test]
    fn wire_freeze_roundtrips_through_its_own_manifest() {
        let p = proto(PROTO_FIXTURE);
        let e = errf(ERROR_FIXTURE);
        let lock = render_wire_lock(&extract_wire_consts(&p, &e));
        let findings = check_wire_freeze(&p, &e, Some(&lock), "wire.lock");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn wire_freeze_fails_on_changed_added_and_removed_constants() {
        let p = proto(PROTO_FIXTURE);
        let e = errf(ERROR_FIXTURE);
        let lock = render_wire_lock(&extract_wire_consts(&p, &e));

        // Changed value.
        let mutated = proto(&PROTO_FIXTURE.replace("KIND_PONG: u8 = 128", "KIND_PONG: u8 = 127"));
        let findings = check_wire_freeze(&mutated, &e, Some(&lock), "wire.lock");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("frozen forever"));

        // Unreviewed addition.
        let extended = proto(&PROTO_FIXTURE.replace(
            "const KIND_PING: u8 = 0;",
            "const KIND_PING: u8 = 0;\nconst KIND_BATCH: u8 = 4;",
        ));
        let findings = check_wire_freeze(&extended, &e, Some(&lock), "wire.lock");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("must update the manifest"));

        // Removal.
        let shrunk = proto(&PROTO_FIXTURE.replace("const KIND_PONG: u8 = 128;\n", ""));
        let findings = check_wire_freeze(&shrunk, &e, Some(&lock), "wire.lock");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("no longer declared"));
    }

    #[test]
    fn wire_freeze_fails_on_missing_or_corrupt_manifest() {
        let p = proto(PROTO_FIXTURE);
        let e = errf(ERROR_FIXTURE);
        let findings = check_wire_freeze(&p, &e, None, "wire.lock");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("missing wire manifest"));

        let findings = check_wire_freeze(&p, &e, Some("frame-kind KIND_PING zero\n"), "wire.lock");
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("malformed manifest line")),
            "{findings:?}"
        );
    }

    #[test]
    fn wire_freeze_fails_if_extraction_goes_dark() {
        let empty = proto("fn nothing() {}");
        let findings = check_wire_freeze(&empty, &errf("fn x() {}"), Some(""), "wire.lock");
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn external_deps_fire_on_version_only_entries() {
        let bad = "[dependencies]\nserde = \"1.0\"\npg_core.workspace = true\n";
        let findings = check_external_deps("crates/x/Cargo.toml", bad);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("serde"));
        assert_eq!(findings[0].line, 2);

        let good =
            "[dependencies]\npg_core.workspace = true\nrand = { path = \"crates/compat/rand\" }\n";
        assert!(check_external_deps("crates/x/Cargo.toml", good).is_empty());
    }
}
