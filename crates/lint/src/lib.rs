//! # pg_lint — invariant-enforcement lint pass over the workspace
//!
//! `pg_lint` machine-checks the invariants this workspace's documentation
//! promises but `rustc`/`clippy` cannot see: never-panic decode paths,
//! determinism of result paths, surrogate-space discipline on the hot
//! path, the frozen wire protocol, the `unsafe`-free build, and the
//! no-external-crates compat policy. The rule catalogue with rationale
//! lives in `ARCHITECTURE.md` § "Static analysis".
//!
//! ## Design
//!
//! - **Zero dependencies, even internal ones.** The linter enforces the
//!   dependency policy, so it depends on nothing itself: a hand-rolled
//!   [tokenizer] and a TOML-lite manifest scanner in [workspace].
//! - **Token-stream, not regex.** Rules run over a real token stream
//!   ([`tokenizer::SourceFile`]) that understands nested block comments,
//!   raw strings, char-vs-lifetime, and inline `#[cfg(test)]` spans — so
//!   comments, string literals, and test code can never fire (or mask) a
//!   finding.
//! - **Suppressions carry reasons.** `// pg-lint: allow(<rule>, <why>)`
//!   on the flagged line or the line above silences one rule; the reason
//!   is mandatory, and malformed, unknown-rule, or unused pragmas are
//!   deny findings themselves (`lint-pragma`), so suppressions cannot
//!   rot silently.
//!
//! ## Usage
//!
//! ```text
//! cargo run --release -p pg_lint -- --deny        # the CI gate
//! cargo run -p pg_lint -- --list-rules            # catalogue
//! cargo run -p pg_lint -- --write-wire-lock       # after a reviewed protocol change
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest_rules;
pub mod rules;
pub mod source_rules;
pub mod tokenizer;
pub mod workspace;
