//! Integration tests: the real workspace lints clean, the wire freeze
//! actually bites on a tampered protocol, and the full engine fires every
//! rule on a deliberately-broken mini workspace.

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};

use pg_lint::manifest_rules;
use pg_lint::rules;
use pg_lint::tokenizer::SourceFile;
use pg_lint::workspace;

/// The real workspace root, two levels above this crate.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn the_workspace_lints_clean() {
    let report = rules::run(&repo_root()).expect("lint run succeeds");
    assert!(
        report.findings.is_empty(),
        "the committed workspace must lint clean; found:\n{:#?}",
        report.findings
    );
    // `no-panic-path` runs only on the designated files the scan finds, so
    // a moved or renamed decoder would leave the rule silently: every
    // designated path must still be a workspace source file. (Counting
    // pragmas would say nothing: the decoders read through
    // `pg_store::codec` and need almost none.)
    for rel in workspace::NO_PANIC_PATHS {
        assert!(
            repo_root().join(rel).is_file(),
            "the never-panic path {rel} is not a source file any more"
        );
    }
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}

#[test]
fn wire_freeze_catches_a_tampered_frame_kind_against_the_committed_lock() {
    let root = repo_root();
    let read = |rel: &str| fs::read_to_string(root.join(rel)).expect("source exists");
    let protocol_text = read(workspace::WIRE_PROTOCOL);
    let error = SourceFile::parse(workspace::WIRE_ERROR, &read(workspace::WIRE_ERROR));
    let lock = read(workspace::WIRE_LOCK);

    // Untampered sources match the committed manifest.
    let protocol = SourceFile::parse(workspace::WIRE_PROTOCOL, &protocol_text);
    let clean =
        manifest_rules::check_wire_freeze(&protocol, &error, Some(&lock), workspace::WIRE_LOCK);
    assert!(clean.is_empty(), "{clean:?}");

    // Changing one frame-kind value without touching wire.lock must fail.
    let tampered_text =
        protocol_text.replace("const KIND_PONG: u8 = 128;", "const KIND_PONG: u8 = 127;");
    assert_ne!(
        tampered_text, protocol_text,
        "fixture went stale: KIND_PONG moved"
    );
    let tampered = SourceFile::parse(workspace::WIRE_PROTOCOL, &tampered_text);
    let findings =
        manifest_rules::check_wire_freeze(&tampered, &error, Some(&lock), workspace::WIRE_LOCK);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "wire-freeze");
    assert!(findings[0].message.contains("KIND_PONG"));

    // Adding a new kind without updating the manifest must also fail.
    let extended_text = protocol_text.replace(
        "const KIND_PING: u8 = 0;",
        "const KIND_PING: u8 = 0;\nconst KIND_BATCH: u8 = 4;",
    );
    assert_ne!(
        extended_text, protocol_text,
        "fixture went stale: KIND_PING moved"
    );
    let extended = SourceFile::parse(workspace::WIRE_PROTOCOL, &extended_text);
    let findings =
        manifest_rules::check_wire_freeze(&extended, &error, Some(&lock), workspace::WIRE_LOCK);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("KIND_BATCH"));
}

#[test]
fn the_committed_lock_freezes_every_wire_constant() {
    let root = repo_root();
    let read = |rel: &str| fs::read_to_string(root.join(rel)).expect("source exists");
    let protocol = SourceFile::parse(workspace::WIRE_PROTOCOL, &read(workspace::WIRE_PROTOCOL));
    let error = SourceFile::parse(workspace::WIRE_ERROR, &read(workspace::WIRE_ERROR));
    let consts = manifest_rules::extract_wire_consts(&protocol, &error);

    // The expected population comes from the committed lock file itself —
    // not from counts hardcoded here, which silently went stale the moment
    // anyone appended a wire constant. The lock must parse finding-free…
    let lock_text = read(workspace::WIRE_LOCK);
    let (locked, problems) = manifest_rules::parse_wire_lock(&lock_text, workspace::WIRE_LOCK);
    assert!(problems.is_empty(), "{problems:?}");

    // …and the sources must declare exactly the locked population, kind by
    // kind — tamper detection without magic numbers.
    let count = |set: &[manifest_rules::WireConst], kind: &str| {
        set.iter().filter(|c| c.kind == kind).count()
    };
    for kind in ["protocol-version", "frame-kind", "error-code"] {
        let in_lock = count(&locked, kind);
        assert!(in_lock >= 1, "lock holds no {kind} constants");
        assert_eq!(
            count(&consts, kind),
            in_lock,
            "{kind}: sources and committed lock disagree\n{consts:?}"
        );
    }
    assert_eq!(consts.len(), locked.len(), "{consts:?}");
    // And the committed manifest is exactly the regenerated one, so
    // `--write-wire-lock` is idempotent on a clean tree.
    assert_eq!(lock_text, manifest_rules::render_wire_lock(&consts));
}

/// A scratch directory under the test binary's target dir (no tempfile
/// crate; unique per test via the name argument).
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn write(&self, rel: &str, text: &str) {
        let path = self.0.join(rel);
        fs::create_dir_all(path.parent().expect("has parent")).expect("mkdir");
        fs::write(path, text).expect("write fixture");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

#[test]
fn a_broken_mini_workspace_fires_the_file_level_rules() {
    let ws = Scratch::new("pg_lint_broken_ws");
    ws.write(
        "Cargo.toml",
        "[workspace]\nmembers = [\n    \"crates/bad\",\n]\n",
    );
    // External dep + missing forbid-unsafe + an unknown pragma, all in one
    // workspace.
    ws.write(
        "crates/bad/Cargo.toml",
        "[package]\nname = \"bad\"\n\n[dependencies]\nserde = \"1.0\"\n",
    );
    ws.write(
        "crates/bad/src/lib.rs",
        "// pg-lint: allow(not-a-rule, nonsense)\npub fn f() {}\n",
    );
    // wire-freeze needs the serve sources; a mini workspace without them
    // is a setup error, so give it a consistent trio.
    ws.write(
        workspace::WIRE_PROTOCOL,
        "const PROTOCOL_VERSION: u8 = 1;\nconst KIND_PING: u8 = 0;\n",
    );
    ws.write(
        workspace::WIRE_ERROR,
        "impl ErrorCode { fn code(self) -> u16 { match self { ErrorCode::Malformed => 1 } } }\n",
    );
    let protocol = SourceFile::parse(
        workspace::WIRE_PROTOCOL,
        "const PROTOCOL_VERSION: u8 = 1;\nconst KIND_PING: u8 = 0;\n",
    );
    let error = SourceFile::parse(
        workspace::WIRE_ERROR,
        "impl ErrorCode { fn code(self) -> u16 { match self { ErrorCode::Malformed => 1 } } }\n",
    );
    ws.write(
        workspace::WIRE_LOCK,
        &manifest_rules::render_wire_lock(&manifest_rules::extract_wire_consts(&protocol, &error)),
    );

    let report = rules::run(&ws.0).expect("run succeeds");
    let rules_fired: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert!(rules_fired.contains(&"no-external-deps"), "{rules_fired:?}");
    assert!(rules_fired.contains(&"forbid-unsafe"), "{rules_fired:?}");
    assert!(rules_fired.contains(&"lint-pragma"), "{rules_fired:?}");
    assert!(report.has_deny());
}

#[test]
fn a_clean_mini_workspace_lints_clean() {
    let ws = Scratch::new("pg_lint_clean_ws");
    ws.write(
        "Cargo.toml",
        "[workspace]\nmembers = [\n    \"crates/good\",\n]\n",
    );
    ws.write(
        "crates/good/Cargo.toml",
        "[package]\nname = \"good\"\n\n[dependencies]\n",
    );
    ws.write(
        "crates/good/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() -> u32 { 7 }\n",
    );
    ws.write(
        workspace::WIRE_PROTOCOL,
        "const PROTOCOL_VERSION: u8 = 1;\nconst KIND_PING: u8 = 0;\n",
    );
    ws.write(
        workspace::WIRE_ERROR,
        "impl ErrorCode { fn code(self) -> u16 { match self { ErrorCode::Malformed => 1 } } }\n",
    );
    let protocol = SourceFile::parse(
        workspace::WIRE_PROTOCOL,
        "const PROTOCOL_VERSION: u8 = 1;\nconst KIND_PING: u8 = 0;\n",
    );
    let error = SourceFile::parse(
        workspace::WIRE_ERROR,
        "impl ErrorCode { fn code(self) -> u16 { match self { ErrorCode::Malformed => 1 } } }\n",
    );
    ws.write(
        workspace::WIRE_LOCK,
        &manifest_rules::render_wire_lock(&manifest_rules::extract_wire_consts(&protocol, &error)),
    );

    let report = rules::run(&ws.0).expect("run succeeds");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
}
