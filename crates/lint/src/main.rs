//! The `pg_lint` binary: runs the rule engine over the workspace and
//! reports the findings. See the crate docs (`cargo doc -p pg_lint`) and
//! `ARCHITECTURE.md` § "Static analysis".

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pg_lint::manifest_rules;
use pg_lint::rules::{self, Severity, RULES};
use pg_lint::tokenizer::SourceFile;
use pg_lint::workspace::{self, Workspace};

const USAGE: &str = "\
pg_lint — invariant-enforcement lint pass over the workspace

USAGE:
    pg_lint [OPTIONS]

OPTIONS:
    --root <PATH>       Workspace root (default: walk up from cwd to a
                        Cargo.toml containing [workspace])
    --deny              Exit 1 if any deny-severity finding remains
    --list-rules        Print the rule catalogue and exit
    --write-wire-lock   Regenerate crates/serve/wire.lock from the
                        sources (after a *reviewed* protocol change)
    --help              Show this help
";

struct Options {
    root: Option<PathBuf>,
    deny: bool,
    list_rules: bool,
    write_wire_lock: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        deny: false,
        list_rules: false,
        write_wire_lock: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let path = args.next().ok_or("--root needs a path")?;
                opts.root = Some(PathBuf::from(path));
            }
            "--deny" => opts.deny = true,
            "--list-rules" => opts.list_rules = true,
            "--write-wire-lock" => opts.write_wire_lock = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no Cargo.toml with [workspace] above the current directory".to_string());
        }
    }
}

fn list_rules() {
    println!("{:<22} {:<5} description", "rule", "sev");
    for r in RULES {
        println!("{:<22} {:<5} {}", r.id, r.severity.label(), r.describes);
    }
}

fn write_wire_lock(root: &Path) -> Result<(), String> {
    let ws = Workspace::discover(root)?;
    let protocol = SourceFile::parse(
        workspace::WIRE_PROTOCOL,
        &ws.read(workspace::WIRE_PROTOCOL)?,
    );
    let error = SourceFile::parse(workspace::WIRE_ERROR, &ws.read(workspace::WIRE_ERROR)?);
    let consts = manifest_rules::extract_wire_consts(&protocol, &error);
    if consts.is_empty() {
        return Err("extracted no wire constants; refusing to write an empty manifest".to_string());
    }
    let text = manifest_rules::render_wire_lock(&consts);
    let path = root.join(workspace::WIRE_LOCK);
    std::fs::write(&path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} frozen constants)",
        workspace::WIRE_LOCK,
        consts.len()
    );
    Ok(())
}

fn print_human(report: &rules::Report, deny: bool) {
    for f in &report.findings {
        println!(
            "{}: [{}] {}:{} — {}",
            f.severity.label(),
            f.rule,
            f.path,
            f.line,
            f.message
        );
    }
    let denies = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    println!(
        "pg_lint: {} file(s) scanned, {} finding(s) ({} deny), {} suppressed by pragma",
        report.files_scanned,
        report.findings.len(),
        denies,
        report.suppressed.len()
    );
    if denies > 0 && !deny {
        println!("note: run with --deny to make these findings fail the build (CI does)");
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pg_lint: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.list_rules {
        list_rules();
        return ExitCode::SUCCESS;
    }
    let root = match opts.root.map(Ok).unwrap_or_else(find_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pg_lint: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.write_wire_lock {
        return match write_wire_lock(&root) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pg_lint: {e}");
                ExitCode::from(2)
            }
        };
    }
    let report = match rules::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pg_lint: {e}");
            return ExitCode::from(2);
        }
    };
    print_human(&report, opts.deny);
    if opts.deny && report.has_deny() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
