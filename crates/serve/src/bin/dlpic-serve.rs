//! The daemon binary: bind, (optionally) resume a spooled fleet, serve
//! until drained.
//!
//! ```sh
//! dlpic-serve --listen 127.0.0.1:0 --spool /var/spool/dlpic
//! dlpic-serve --resume /var/spool/dlpic          # continue after a crash
//! ```
//!
//! Prints `listening <addr>` on stdout once ready (with the real port
//! when an ephemeral one was requested) — scripts and the integration
//! tests parse that line.
//!
//! `--inject NAME=KIND@STEP[;…]` (KIND `panic` or `nan`) arms
//! deterministic fault injection on runs whose name contains NAME — the
//! containment tests stage one sick run inside a healthy fleet with it.

use dlpic_repro::engine::{Engine, FaultPlan};
use dlpic_serve::server::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: dlpic-serve [--listen HOST:PORT|unix:PATH] [--spool DIR] [--resume DIR]\n\
         \x20                  [--max-sessions N] [--spool-interval WAVES]\n\
         \x20                  [--memory-budget BYTES[K|M|G]] [--max-queued N]\n\
         \x20                  [--tenant-max-queued N] [--spool-retain N]\n\
         \x20                  [--breaker-threshold N] [--breaker-cooldown SECONDS]\n\
         \x20                  [--inject NAME=KIND@STEP[;...]]  (KIND: panic | nan)"
    );
    std::process::exit(2);
}

/// Parses a byte count with an optional K/M/G suffix (binary multiples).
fn parse_bytes(text: &str) -> Option<usize> {
    let (digits, factor) = match text.as_bytes().last()? {
        b'K' | b'k' => (&text[..text.len() - 1], 1usize << 10),
        b'M' | b'm' => (&text[..text.len() - 1], 1 << 20),
        b'G' | b'g' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(factor)
}

fn main() {
    let mut config = ServeConfig::default();
    let mut faults = FaultPlan::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--listen" => config.listen = value("--listen"),
            "--spool" => config = config.spool(value("--spool")),
            "--resume" => config = config.resume(value("--resume")),
            "--max-sessions" => {
                config.max_sessions = value("--max-sessions").parse().unwrap_or_else(|_| usage())
            }
            "--spool-interval" => {
                config.spool_interval = value("--spool-interval")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--memory-budget" => {
                config.memory_budget =
                    Some(parse_bytes(&value("--memory-budget")).unwrap_or_else(|| usage()))
            }
            "--max-queued" => {
                config.max_queued = value("--max-queued").parse().unwrap_or_else(|_| usage())
            }
            "--tenant-max-queued" => {
                config.tenant_max_queued = value("--tenant-max-queued")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--spool-retain" => {
                config.spool_retain =
                    Some(value("--spool-retain").parse().unwrap_or_else(|_| usage()))
            }
            "--breaker-threshold" => {
                config.breaker_threshold = value("--breaker-threshold")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--breaker-cooldown" => {
                let secs: f64 = value("--breaker-cooldown")
                    .parse()
                    .unwrap_or_else(|_| usage());
                config.breaker_cooldown =
                    std::time::Duration::try_from_secs_f64(secs).unwrap_or_else(|_| usage());
            }
            "--inject" => {
                faults = FaultPlan::parse(&value("--inject")).unwrap_or_else(|e| {
                    eprintln!("dlpic-serve: {e}");
                    usage()
                })
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }
    let server = match Server::start_with_engine(config, Engine::new().with_faults(faults)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("dlpic-serve: {e}");
            std::process::exit(1);
        }
    };
    println!("listening {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
}
