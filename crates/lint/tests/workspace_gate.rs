//! The CI contract: the workspace itself lints clean (zero unsuppressed
//! findings, no stale allows), the `st-lint` binary's exit codes make
//! deleting any single suppression fail the build, and every crate keeps
//! the compiler-enforced lints of `[workspace.lints]`.

use std::path::Path;
use std::process::Command;

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate sits two levels below the root")
}

#[test]
fn the_workspace_lints_clean() {
    let report = st_lint::lint_workspace(workspace_root()).expect("walk workspace");
    let loud: Vec<String> = report
        .unsuppressed()
        .map(|f| format!("{}:{}: {}", f.file, f.line, f.message))
        .collect();
    assert!(
        loud.is_empty(),
        "unsuppressed findings in the workspace:\n{}",
        loud.join("\n")
    );
    // Every suppression in the tree carries a reason by construction
    // (reasonless allows surface as allow-hygiene findings above); spot
    // the count so a mass deletion of annotations can't pass silently.
    assert!(
        report.findings.iter().any(|f| f.suppressed.is_some()),
        "the tree is expected to carry reasoned suppressions"
    );
}

#[test]
fn cli_exits_zero_on_the_clean_workspace() {
    let out = Command::new(env!("CARGO_BIN_EXE_st-lint"))
        .arg(workspace_root())
        .arg("--quiet")
        .output()
        .expect("run st-lint");
    assert!(
        out.status.success(),
        "st-lint failed on the workspace:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn cli_exits_nonzero_when_a_finding_is_unsuppressed() {
    // A throwaway tree with one narrowing tick cast and no allow: exactly
    // what deleting a suppression from the real tree produces.
    let dir = std::env::temp_dir().join(format!("st-lint-gate-{}", std::process::id()));
    let src_dir = dir.join("crates/net/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(
        src_dir.join("bad.rs"),
        "pub fn f(deadline: u64) -> u32 {\n    deadline as u32\n}\n",
    )
    .expect("write bad source");

    let out = Command::new(env!("CARGO_BIN_EXE_st-lint"))
        .arg(&dir)
        .output()
        .expect("run st-lint");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(out.status.code(), Some(1), "expected the finding exit code");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("no-silent-cast"), "{text}");
}

#[test]
fn cli_json_output_validates() {
    let dir = std::env::temp_dir().join(format!("st-lint-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let json_path = dir.join("report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_st-lint"))
        .arg(workspace_root())
        .arg("--quiet")
        .arg("--json")
        .arg(&json_path)
        .output()
        .expect("run st-lint");
    assert!(out.status.success());
    let json = std::fs::read_to_string(&json_path).expect("report written");
    std::fs::remove_dir_all(&dir).ok();
    st_trace::json::validate(&json).expect("CLI JSON must validate");
    assert!(json.contains("\"tool\":\"st-lint\""));
}

/// `[workspace.lints]` reaches a crate only through `[lints] workspace =
/// true`: a manifest without it would drop `unsafe_code = "forbid"` and
/// the allow-attribute denies silently.
#[test]
fn every_manifest_inherits_the_workspace_lints() {
    let root = workspace_root();
    let crates = std::fs::read_dir(root.join("crates")).expect("read crates/");
    let manifests = crates.map(|e| e.expect("crates/ entry").path().join("Cargo.toml"));
    for manifest in manifests
        .filter(|m| m.is_file())
        .chain([root.join("Cargo.toml")])
    {
        let text = std::fs::read_to_string(&manifest).expect("read manifest");
        let opted_in = text.contains("\n[lints]\nworkspace = true\n");
        assert!(opted_in, "{} drops [workspace.lints]", manifest.display());
    }
}

/// The ledger benchmark is a workspace of its own, out of the root
/// `[workspace.lints]`' reach: its crate root keeps the attribute.
#[test]
fn the_ledger_root_forbids_unsafe_code() {
    let main = std::fs::read_to_string(workspace_root().join("benches/ledger/src/main.rs"))
        .expect("read the ledger's main.rs");
    assert!(main.lines().any(|l| l == "#![forbid(unsafe_code)]"));
}

/// The clippy fixture crate is outside the workspace, so its manifest
/// copies `[workspace.lints]`; the copy must not drift from the original.
#[test]
fn the_clippy_fixture_crate_copies_the_workspace_lints() {
    let read = |rel: &str| std::fs::read_to_string(workspace_root().join(rel)).expect(rel);
    let tables = |text: &str, prefix: &str| -> Vec<String> {
        let mut inside = false;
        text.lines()
            .filter(|l| {
                if l.starts_with('[') {
                    inside = l.starts_with(prefix);
                }
                inside && !l.is_empty() && !l.starts_with('#')
            })
            .map(|l| l.replacen(prefix, "[", 1))
            .collect()
    };
    let fixture = read("crates/lint/tests/fixtures/clippy/Cargo.toml");
    assert_eq!(
        tables(&read("Cargo.toml"), "[workspace.lints."),
        tables(&fixture, "[lints.")
    );
}
