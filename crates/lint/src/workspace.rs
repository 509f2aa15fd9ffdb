//! Workspace discovery: members, crate roots, manifests, and the
//! designated-path configuration the source rules run against.
//!
//! Everything here reads files and the root `Cargo.toml`; nothing is
//! hard-coded about *which* crates exist except the small designation
//! lists below — the rule catalogue in `ARCHITECTURE.md` § "Static
//! analysis" documents each list and why its entries are on it.

use std::fs;
use std::path::{Path, PathBuf};

/// Files whose decode/load paths are documented as **never panicking**
/// (`no-panic-path` applies): the `pg_store` snapshot parser and the
/// little-endian codec it shares with the wire, the `pg_serve` wire
/// protocol, and the `pg_core` typed snapshot loader.
pub const NO_PANIC_PATHS: &[&str] = &[
    "crates/store/src/lib.rs",
    "crates/store/src/codec.rs",
    "crates/serve/src/protocol.rs",
    "crates/core/src/snapshot.rs",
];

/// Hot-path search modules that must compare in surrogate space
/// (`surrogate-discipline` applies): raw `.dist(` calls here would
/// silently undo the PR 3 squared-space optimization. The quantized
/// compare path (PR 10) lives in `search.rs`/`engine.rs` and the compact
/// kernels in `metric/quant.rs`.
pub const SURROGATE_PATHS: &[&str] = &[
    "crates/core/src/search.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/sharded.rs",
    "crates/metric/src/quant.rs",
];

/// Crates exempt from `no-nondeterminism`: the benchmark harness exists to
/// measure wall-clock time.
pub const NONDETERMINISM_EXEMPT: &[&str] = &["crates/bench"];

/// The committed wire-constant manifest `wire-freeze` checks against.
pub const WIRE_LOCK: &str = "crates/serve/wire.lock";

/// The two source files wire constants are extracted from.
pub const WIRE_PROTOCOL: &str = "crates/serve/src/protocol.rs";
/// See [`WIRE_PROTOCOL`].
pub const WIRE_ERROR: &str = "crates/serve/src/error.rs";

/// A workspace member: its manifest and discovered crate-root files.
#[derive(Debug)]
pub struct Member {
    /// Workspace-relative crate directory (`"."` for the facade package).
    pub dir: String,
    /// Workspace-relative path of the member's `Cargo.toml`.
    pub manifest: String,
    /// Crate-root source files: `src/lib.rs`, `src/main.rs`, and every
    /// `src/bin/*.rs` — each is the root of its own compilation unit, so
    /// `forbid-unsafe` checks each one.
    pub crate_roots: Vec<String>,
    /// Every `.rs` file under the member's `src/` tree (the scan set for
    /// `no-nondeterminism`).
    pub src_files: Vec<String>,
}

/// The loaded workspace: root directory and members.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute root directory.
    pub root: PathBuf,
    /// All members, including the facade package at `"."`.
    pub members: Vec<Member>,
}

impl Workspace {
    /// Discovers the workspace at `root` by parsing the root `Cargo.toml`'s
    /// `members` list. The facade package (the root `Cargo.toml`'s own
    /// `[package]`) is included as member `"."`.
    pub fn discover(root: &Path) -> Result<Workspace, String> {
        let manifest_path = root.join("Cargo.toml");
        let text = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
        let mut dirs = parse_members(&text);
        if text.contains("[package]") {
            dirs.push(".".to_string());
        }
        if dirs.is_empty() {
            return Err(format!(
                "{} declares no workspace members",
                manifest_path.display()
            ));
        }
        let mut members = Vec::new();
        for dir in dirs {
            let abs = root.join(&dir);
            let rel = |suffix: &str| {
                if dir == "." {
                    suffix.to_string()
                } else {
                    format!("{dir}/{suffix}")
                }
            };
            let mut crate_roots = Vec::new();
            for candidate in ["src/lib.rs", "src/main.rs"] {
                if abs.join(candidate).is_file() {
                    crate_roots.push(rel(candidate));
                }
            }
            let bin_dir = abs.join("src/bin");
            if bin_dir.is_dir() {
                for name in sorted_entries(&bin_dir)? {
                    if name.ends_with(".rs") {
                        crate_roots.push(rel(&format!("src/bin/{name}")));
                    }
                }
            }
            let mut src_files = Vec::new();
            let src_dir = abs.join("src");
            if src_dir.is_dir() {
                collect_rs(&src_dir, &abs, &mut src_files)?;
                src_files = src_files.into_iter().map(|f| rel(&f)).collect();
            }
            members.push(Member {
                manifest: rel("Cargo.toml"),
                dir,
                crate_roots,
                src_files,
            });
        }
        Ok(Workspace {
            root: root.to_path_buf(),
            members,
        })
    }

    /// Reads a workspace-relative file.
    pub fn read(&self, rel: &str) -> Result<String, String> {
        fs::read_to_string(self.root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
    }
}

/// Walks `dir` recursively collecting `.rs` paths relative to `base`.
fn collect_rs(dir: &Path, base: &Path, out: &mut Vec<String>) -> Result<(), String> {
    for name in sorted_entries(dir)? {
        let path = dir.join(&name);
        if path.is_dir() {
            collect_rs(&path, base, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(base)
                .map_err(|e| format!("path outside base: {e}"))?;
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// Directory entries by name, sorted for deterministic scan order.
fn sorted_entries(dir: &Path) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    let entries =
        fs::read_dir(dir).map_err(|e| format!("cannot read dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read dir entry: {e}"))?;
        names.push(entry.file_name().to_string_lossy().into_owned());
    }
    names.sort();
    Ok(names)
}

/// Extracts the `members = [...]` string list from a root `Cargo.toml`.
/// TOML-lite: good enough for this workspace's hand-written manifests,
/// which keep one member per line inside the brackets.
pub fn parse_members(text: &str) -> Vec<String> {
    let mut members = Vec::new();
    let mut in_list = false;
    for line in text.lines() {
        let line = strip_toml_comment(line).trim().to_string();
        if !in_list {
            // Only the top-level `members = [` of the `[workspace]` table —
            // default-members lists the same entries, skip it.
            if line.starts_with("members") && line.contains('[') && !line.starts_with("default-") {
                in_list = true;
            }
            continue;
        }
        if line.starts_with(']') {
            break;
        }
        // One quoted path per line, with a trailing comma.
        if let Some(start) = line.find('"') {
            if let Some(end) = line[start + 1..].find('"') {
                members.push(line[start + 1..start + 1 + end].to_string());
            }
        }
    }
    members
}

/// A dependency entry found in a manifest, for `no-external-deps`.
#[derive(Debug, PartialEq)]
pub struct DepEntry {
    /// The dependency name as written.
    pub name: String,
    /// 1-based manifest line.
    pub line: u32,
    /// True if the entry resolves inside the workspace: `path = "…"` or
    /// `workspace = true` (either the `name.workspace = true` key form or
    /// the inline-table field).
    pub is_internal: bool,
}

/// Scans a manifest for dependency entries across every
/// `*dependencies*` table (`[dependencies]`, `[dev-dependencies]`,
/// `[build-dependencies]`, `[workspace.dependencies]`,
/// `[target.….dependencies]`, and `[dependencies.<name>]` sub-tables).
pub fn parse_deps(text: &str) -> Vec<DepEntry> {
    let mut deps = Vec::new();
    let mut in_dep_table = false;
    // A `[dependencies.<name>]` sub-table awaiting its path/workspace key.
    let mut open_subtable: Option<usize> = None;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            let header = line.trim_matches(|c| c == '[' || c == ']');
            let parts: Vec<&str> = header.split('.').collect();
            let dep_positions: Vec<usize> = parts
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    matches!(
                        **p,
                        "dependencies" | "dev-dependencies" | "build-dependencies"
                    )
                })
                .map(|(i, _)| i)
                .collect();
            open_subtable = None;
            if let Some(&pos) = dep_positions.first() {
                if pos + 1 < parts.len() {
                    // `[dependencies.serde]`: the header names the dep.
                    deps.push(DepEntry {
                        name: parts[pos + 1..].join("."),
                        line: line_no,
                        is_internal: false,
                    });
                    open_subtable = Some(deps.len() - 1);
                    in_dep_table = false;
                } else {
                    in_dep_table = true;
                }
            } else {
                in_dep_table = false;
            }
            continue;
        }
        if let Some(dep_idx) = open_subtable {
            if line.starts_with("path") || line == "workspace = true" {
                deps[dep_idx].is_internal = true;
            }
            continue;
        }
        if !in_dep_table {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        // `name.workspace = true`
        if let Some(name) = key.strip_suffix(".workspace") {
            deps.push(DepEntry {
                name: name.trim().to_string(),
                line: line_no,
                is_internal: value == "true",
            });
            continue;
        }
        // `name = { … }` or `name = "version"`
        let is_internal = value.contains("path =") || value.contains("workspace = true");
        deps.push(DepEntry {
            name: key.to_string(),
            line: line_no,
            is_internal,
        });
    }
    deps
}

/// Drops a `# …` comment, respecting quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_parse_from_a_root_manifest() {
        let toml = r#"
[workspace]
resolver = "2"
default-members = [
    ".",
    "crates/a",
]
members = [
    "crates/a", # trailing comment
    "crates/b/c",
]
"#;
        assert_eq!(parse_members(toml), vec!["crates/a", "crates/b/c"]);
    }

    #[test]
    fn deps_classify_workspace_path_and_version_forms() {
        let toml = r#"
[package]
name = "x"

[dependencies]
pg_core.workspace = true
rand = { path = "crates/compat/rand", version = "0.9.0" }
serde = "1.0"
inline_ws = { workspace = true }

[dev-dependencies]
proptest.workspace = true

[dependencies.sub_external]
version = "2.0"

[dependencies.sub_internal]
path = "../other"
"#;
        let deps = parse_deps(toml);
        let by_name = |n: &str| deps.iter().find(|d| d.name == n).unwrap();
        assert!(by_name("pg_core").is_internal);
        assert!(by_name("rand").is_internal);
        assert!(!by_name("serde").is_internal);
        assert!(by_name("inline_ws").is_internal);
        assert!(by_name("proptest").is_internal);
        assert!(!by_name("sub_external").is_internal);
        assert!(by_name("sub_internal").is_internal);
    }

    #[test]
    fn non_dependency_tables_are_ignored() {
        let toml = r#"
[workspace.package]
version = "0.1.0"

[[bin]]
name = "exp_thing"
path = "src/bin/exp_thing.rs"

[lib]
name = "x"
"#;
        assert!(parse_deps(toml).is_empty());
    }

    #[test]
    fn comments_respect_strings() {
        assert_eq!(
            strip_toml_comment(r#"a = "x # y" # real"#),
            r#"a = "x # y" "#
        );
    }
}
