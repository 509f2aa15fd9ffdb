//! Guard that every secondary target keeps compiling.
//!
//! `cargo test` exercises libs and test targets, but examples and the
//! experiment binaries (`pg_paper`, `exp_*`) are easy to break silently.
//! This test shells back into cargo so a plain `cargo test` refuses to pass
//! while any of them fails to compile. CI also runs every example (see
//! `.github/workflows/ci.yml`), which catches a runtime panic too.

use std::process::Command;

#[test]
fn examples_benches_and_bins_compile() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args(["check", "--workspace", "--examples", "--bins", "--quiet"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("failed to spawn cargo check");
    assert!(
        output.status.success(),
        "cargo check --workspace --examples --bins failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
