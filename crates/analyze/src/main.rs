//! CLI for the repo's static analysis pass.
//!
//! ```text
//! dlpic-analyze [--root DIR] [--format text|json] [--list-rules]
//! ```
//!
//! Exit codes: 0 clean, 1 usage or I/O error, 2 findings.

use std::path::PathBuf;
use std::process::ExitCode;

use dlpic_analyze::config::Config;
use dlpic_analyze::engine::analyze_tree;
use dlpic_analyze::rules::RULES;

const USAGE: &str = "usage: dlpic-analyze [--root DIR] [--format text|json] [--list-rules]";

fn run() -> Result<ExitCode, String> {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut list_rules = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--root" => root = PathBuf::from(value("--root")?),
            "--format" => {
                json = match value("--format")?.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format `{other}` (text|json)\n{USAGE}")),
                }
            }
            "--list-rules" => list_rules = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if list_rules {
        for rule in &RULES {
            println!("{}\n    {}", rule.name, rule.description);
        }
        return Ok(ExitCode::SUCCESS);
    }

    let report = analyze_tree(&root, &Config::repo_default())?;
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    Ok(if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("dlpic-analyze: {msg}");
            ExitCode::FAILURE
        }
    }
}
