//! Workspace lint gate.
//!
//! ```text
//! st-lint [ROOT] [--json PATH] [--list-rules] [--quiet]
//! ```
//!
//! Walks every `.rs` file under ROOT (default: the enclosing workspace),
//! prints the human report, optionally writes a JSON report (`-` =
//! stdout) that has been checked by st-trace's JSON validator, and exits
//! non-zero when any unsuppressed finding — including a stale or
//! malformed suppression — survives.

use st_lint::rules::RuleId;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<std::path::PathBuf> = None;
    let mut json_path: Option<String> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => {
                json_path = Some(
                    it.next()
                        .unwrap_or_else(|| die("--json needs a path ('-' for stdout)"))
                        .clone(),
                );
            }
            "--quiet" | "-q" => quiet = true,
            "--list-rules" => {
                for r in RuleId::ALL {
                    println!("{:<26} {}", r.name(), r.why());
                    println!("{:<26}   fix: {}", "", r.fix_hint());
                }
                return;
            }
            "--help" | "-h" => {
                println!(
                    "usage: st-lint [ROOT] [--json PATH] [--list-rules] [--quiet]\n\
                     exits 1 on any unsuppressed finding; suppression syntax:\n\
                     // st-lint: allow(<rule>) -- <reason>"
                );
                return;
            }
            other if root.is_none() && !other.starts_with('-') => {
                root = Some(std::path::PathBuf::from(other));
            }
            other => die(&format!("unknown argument '{other}' (see --help)")),
        }
    }

    let root = root.unwrap_or_else(|| {
        let cwd = std::env::current_dir().unwrap_or_else(|e| die(&format!("cwd: {e}")));
        st_lint::find_workspace_root(&cwd)
            .unwrap_or_else(|| die("no enclosing workspace found; pass ROOT explicitly"))
    });

    let report = st_lint::lint_workspace(&root)
        .unwrap_or_else(|e| die(&format!("scanning {}: {e}", root.display())));

    let json_to_stdout = json_path.as_deref() == Some("-");
    if !quiet && !json_to_stdout {
        print!("{}", report.render());
    }
    if let Some(path) = &json_path {
        let json = report.to_json();
        if path == "-" {
            println!("{json}");
        } else {
            std::fs::write(path, format!("{json}\n"))
                .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        }
    }
    if report.unsuppressed_count() > 0 {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("st-lint: error: {msg}");
    std::process::exit(2);
}
