//! The rule engine: the rule catalogue, findings, severities,
//! suppression handling, and the whole-workspace driver.
//!
//! Each rule enforces one invariant that is otherwise only prose in
//! `ARCHITECTURE.md`/`CHANGES.md` (the catalogue lives in
//! `ARCHITECTURE.md` § "Static analysis"). Findings on source lines can
//! be suppressed with an inline `// pg-lint: allow(<rule>, <reason>)`
//! pragma on the flagged line or the line above; the reason is mandatory
//! and malformed or unused pragmas are findings themselves, so a
//! suppression can neither be silent nor rot.

use std::collections::HashSet;
use std::path::Path;

use crate::manifest_rules;
use crate::source_rules;
use crate::tokenizer::SourceFile;
use crate::workspace::{self, Workspace};

/// How a finding affects the exit code under `--deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Reported, never fails the run. Reserved for advisory rules.
    Warn,
    /// Fails the run under `--deny` (the CI gate).
    Deny,
}

impl Severity {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The rule id (see [`RULES`]).
    pub rule: &'static str,
    /// The rule's severity.
    pub severity: Severity,
    /// Workspace-relative file.
    pub path: String,
    /// 1-based line (0 when the finding is about the file as a whole).
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

/// A catalogue entry: id, severity, one-line description.
pub struct RuleInfo {
    /// Stable rule id, used in pragmas and reports.
    pub id: &'static str,
    /// Severity of its findings.
    pub severity: Severity,
    /// One-line description for `--list-rules`.
    pub describes: &'static str,
}

/// The shipped rule catalogue. Ids are stable: pragmas reference them.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "no-panic-path",
        severity: Severity::Deny,
        describes: "no unwrap/expect/panic!/unreachable!/indexing in the designated never-panic decode/load modules",
    },
    RuleInfo {
        id: "no-nondeterminism",
        severity: Severity::Deny,
        describes: "no Instant::now/SystemTime/entropy outside pg_bench",
    },
    RuleInfo {
        id: "surrogate-discipline",
        severity: Severity::Deny,
        describes: "hot-path search modules compare in surrogate space, never raw .dist(",
    },
    RuleInfo {
        id: "wire-freeze",
        severity: Severity::Deny,
        describes: "pg_serve frame kinds and error codes match crates/serve/wire.lock",
    },
    RuleInfo {
        id: "forbid-unsafe",
        severity: Severity::Deny,
        describes: "every crate root declares #![forbid(unsafe_code)]",
    },
    RuleInfo {
        id: "no-external-deps",
        severity: Severity::Deny,
        describes: "every manifest references only workspace/compat crates (path or workspace deps)",
    },
    RuleInfo {
        id: "lint-pragma",
        severity: Severity::Deny,
        describes: "pg-lint pragmas are well-formed, name a known rule, and suppress something",
    },
];

/// Looks up a rule's severity; `None` for unknown ids.
pub fn severity_of(rule: &str) -> Option<Severity> {
    RULES.iter().find(|r| r.id == rule).map(|r| r.severity)
}

/// The outcome of a whole-workspace run.
#[derive(Debug)]
pub struct Report {
    /// Unsuppressed findings, in scan order.
    pub findings: Vec<Finding>,
    /// Findings silenced by a pragma (kept for reporting counts).
    pub suppressed: Vec<Finding>,
    /// Number of files scanned (sources + manifests).
    pub files_scanned: usize,
}

impl Report {
    /// True if any finding is deny-severity.
    pub fn has_deny(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Deny)
    }
}

/// Applies pragma suppression to raw findings from one source file, and
/// emits `lint-pragma` findings for malformed, unknown-rule, or unused
/// pragmas.
pub fn apply_suppressions(
    file: &SourceFile,
    raw: Vec<Finding>,
    findings: &mut Vec<Finding>,
    suppressed: &mut Vec<Finding>,
) {
    let mut used: HashSet<(u32, String)> = HashSet::new();
    for f in raw {
        if file.allowed(f.rule, f.line) {
            for a in &file.allows {
                if a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) {
                    used.insert((a.line, a.rule.clone()));
                }
            }
            suppressed.push(f);
        } else {
            findings.push(f);
        }
    }
    for bad in &file.bad_pragmas {
        findings.push(Finding {
            rule: "lint-pragma",
            severity: Severity::Deny,
            path: file.path.clone(),
            line: bad.line,
            message: format!("malformed pg-lint pragma: {}", bad.problem),
        });
    }
    for a in &file.allows {
        if severity_of(&a.rule).is_none() {
            findings.push(Finding {
                rule: "lint-pragma",
                severity: Severity::Deny,
                path: file.path.clone(),
                line: a.line,
                message: format!("pragma allows unknown rule `{}`", a.rule),
            });
        } else if !used.contains(&(a.line, a.rule.clone())) {
            findings.push(Finding {
                rule: "lint-pragma",
                severity: Severity::Deny,
                path: file.path.clone(),
                line: a.line,
                message: format!(
                    "unused pragma: `{}` fires no finding on line {} or {}",
                    a.rule,
                    a.line,
                    a.line + 1
                ),
            });
        }
    }
}

/// Runs every rule over the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<Report, String> {
    let ws = Workspace::discover(root)?;
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let mut files_scanned = 0usize;

    // --- Token rules over source files -------------------------------
    // One parse per file; each rule picks the files it applies to.
    let mut all_src: Vec<String> = Vec::new();
    for m in &ws.members {
        for f in &m.src_files {
            all_src.push(f.clone());
        }
    }
    all_src.sort();
    all_src.dedup();

    for rel in &all_src {
        let text = ws.read(rel)?;
        let file = SourceFile::parse(rel, &text);
        files_scanned += 1;

        let mut raw = Vec::new();
        if workspace::NO_PANIC_PATHS.contains(&rel.as_str()) {
            raw.extend(source_rules::check_no_panic(&file));
        }
        let exempt = workspace::NONDETERMINISM_EXEMPT
            .iter()
            .any(|prefix| rel.starts_with(prefix));
        if !exempt {
            raw.extend(source_rules::check_nondeterminism(&file));
        }
        if workspace::SURROGATE_PATHS.contains(&rel.as_str()) {
            raw.extend(source_rules::check_surrogate(&file));
        }
        apply_suppressions(&file, raw, &mut findings, &mut suppressed);
    }

    // --- forbid-unsafe over crate roots ------------------------------
    for m in &ws.members {
        for rel in &m.crate_roots {
            let text = ws.read(rel)?;
            let file = SourceFile::parse(rel, &text);
            findings.extend(source_rules::check_forbid_unsafe(&file));
        }
    }

    // --- no-external-deps over manifests -----------------------------
    let mut manifests: Vec<String> = ws.members.iter().map(|m| m.manifest.clone()).collect();
    manifests.sort();
    manifests.dedup();
    for rel in &manifests {
        let text = ws.read(rel)?;
        files_scanned += 1;
        findings.extend(manifest_rules::check_external_deps(rel, &text));
    }

    // --- wire-freeze --------------------------------------------------
    let protocol = SourceFile::parse(
        workspace::WIRE_PROTOCOL,
        &ws.read(workspace::WIRE_PROTOCOL)?,
    );
    let error = SourceFile::parse(workspace::WIRE_ERROR, &ws.read(workspace::WIRE_ERROR)?);
    let lock_text = ws.read(workspace::WIRE_LOCK).ok();
    findings.extend(manifest_rules::check_wire_freeze(
        &protocol,
        &error,
        lock_text.as_deref(),
        workspace::WIRE_LOCK,
    ));

    Ok(Report {
        findings,
        suppressed,
        files_scanned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_typed() {
        let mut seen = HashSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
            assert!(severity_of(r.id).is_some());
        }
        assert_eq!(severity_of("nope"), None);
    }

    #[test]
    fn deny_and_warn_drive_has_deny() {
        let mk = |severity| Finding {
            rule: "no-panic-path",
            severity,
            path: "x.rs".into(),
            line: 1,
            message: "m".into(),
        };
        let warn_only = Report {
            findings: vec![mk(Severity::Warn)],
            suppressed: vec![],
            files_scanned: 1,
        };
        assert!(!warn_only.has_deny());
        let with_deny = Report {
            findings: vec![mk(Severity::Warn), mk(Severity::Deny)],
            suppressed: vec![],
            files_scanned: 1,
        };
        assert!(with_deny.has_deny());
    }

    #[test]
    fn suppression_consumes_findings_and_flags_unused_pragmas() {
        let src = "\
// pg-lint: allow(no-panic-path, guarded above)
let a = v[0];
// pg-lint: allow(no-panic-path, stale pragma)
let b = 1;
// pg-lint: allow(not-a-rule, whatever)
";
        let file = SourceFile::parse("t.rs", src);
        let raw = vec![Finding {
            rule: "no-panic-path",
            severity: Severity::Deny,
            path: "t.rs".into(),
            line: 2,
            message: "indexing".into(),
        }];
        let mut findings = Vec::new();
        let mut suppressed = Vec::new();
        apply_suppressions(&file, raw, &mut findings, &mut suppressed);
        assert_eq!(suppressed.len(), 1);
        // Two lint-pragma findings: the unused pragma and the unknown rule.
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "lint-pragma"));
        assert!(findings.iter().any(|f| f.message.contains("unused")));
        assert!(findings.iter().any(|f| f.message.contains("unknown rule")));
    }
}
