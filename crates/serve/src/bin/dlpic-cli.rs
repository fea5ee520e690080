//! The control-plane CLI: submit jobs to a running `dlpic-serve`, watch
//! their sample streams, poll status, fetch results, cancel, drain.
//!
//! ```sh
//! dlpic-cli submit --addr 127.0.0.1:7700 --job '{"backend":"dl-1d","sweep":{…}}'
//! dlpic-cli watch  --addr 127.0.0.1:7700 job-0001
//! dlpic-cli wait   --addr 127.0.0.1:7700 job-0001   # block, then print results
//! dlpic-cli drain  --addr 127.0.0.1:7700
//! ```
//!
//! Every subcommand prints the server's JSON to stdout, one document (or
//! one event) per line, so output pipes straight into `jq`-style tools.

use std::time::Duration;

use dlpic_repro::engine::json::Json;
use dlpic_serve::client::{Backoff, Client};
use dlpic_serve::job::JobRequest;
use dlpic_serve::protocol::{ProtoError, WatchPolicy, DEFAULT_WATCH_QUEUE};
use dlpic_serve::ServeError;

fn usage() -> ! {
    eprintln!(
        "usage: dlpic-cli <submit|status|watch|cancel|drain|result|wait|health|prune> --addr ADDR [args]\n\
         \x20 submit --addr A [--tenant T] [--job-key K] [--retries N] (--job JSON | --job-file PATH)\n\
         \x20 status --addr A [JOB]\n\
         \x20 watch  --addr A [--policy drop_oldest|decimate:N] [--queue N] [--retries N] JOB\n\
         \x20 cancel --addr A JOB\n\
         \x20 drain  --addr A\n\
         \x20 result --addr A JOB [RUN]\n\
         \x20 wait   --addr A [--retries N] JOB\n\
         \x20 health --addr A\n\
         \x20 prune  --addr A [KEEP]\n\
         global: --timeout SECS   connect/read deadline (0 = block forever; default 30)\n\
         submit --retries also honors the server's retry_after_ms advice on\n\
         overloaded / quota-exceeded / circuit-open rejections"
    );
    std::process::exit(2);
}

struct Args {
    addr: Option<String>,
    tenant: String,
    job_json: Option<String>,
    job_key: Option<String>,
    timeout: Option<Duration>,
    retries: usize,
    policy: WatchPolicy,
    queue: usize,
    positional: Vec<String>,
}

fn parse_args(mut args: std::env::Args) -> Args {
    let mut out = Args {
        addr: None,
        tenant: "default".into(),
        job_json: None,
        job_key: None,
        timeout: Some(Duration::from_secs(30)),
        retries: 0,
        policy: WatchPolicy::default(),
        queue: DEFAULT_WATCH_QUEUE,
        positional: Vec::new(),
    };
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => out.addr = Some(value("--addr")),
            "--tenant" => out.tenant = value("--tenant"),
            "--job" => out.job_json = Some(value("--job")),
            "--job-file" => {
                let path = value("--job-file");
                out.job_json = Some(std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                }));
            }
            "--job-key" => out.job_key = Some(value("--job-key")),
            "--timeout" => {
                let secs: f64 = value("--timeout").parse().unwrap_or_else(|_| {
                    eprintln!("--timeout needs seconds");
                    usage()
                });
                out.timeout = if secs <= 0.0 {
                    None
                } else {
                    Some(Duration::try_from_secs_f64(secs).unwrap_or_else(|_| {
                        eprintln!("--timeout needs seconds");
                        usage()
                    }))
                };
            }
            "--retries" => {
                out.retries = value("--retries").parse().unwrap_or_else(|_| {
                    eprintln!("--retries needs a count");
                    usage()
                })
            }
            "--policy" => {
                out.policy = WatchPolicy::parse(&value("--policy")).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--queue" => {
                out.queue = value("--queue").parse().unwrap_or_else(|_| {
                    eprintln!("--queue needs a capacity");
                    usage()
                })
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
            other => out.positional.push(other.to_string()),
        }
    }
    out
}

fn run() -> Result<(), ServeError> {
    let mut env_args = std::env::args();
    let _ = env_args.next();
    let Some(command) = env_args.next() else {
        usage()
    };
    let args = parse_args(env_args);
    let addr = args.addr.clone().unwrap_or_else(|| {
        eprintln!("--addr is required");
        usage()
    });
    let mut client = Client::connect_with(&addr, args.timeout)?;
    match command.as_str() {
        "submit" => {
            let text = args.job_json.clone().unwrap_or_else(|| {
                eprintln!("submit needs --job JSON or --job-file PATH");
                usage()
            });
            let doc = Json::parse(&text).map_err(ProtoError::from)?;
            let job = JobRequest::from_json_value(&doc)?;
            let (id, runs, deduped) = if args.retries > 0 {
                client.submit_keyed_retry(
                    &job,
                    &args.tenant,
                    args.job_key.as_deref(),
                    Backoff::attempts(args.retries),
                )?
            } else {
                client.submit_keyed(&job, &args.tenant, args.job_key.as_deref())?
            };
            if deduped {
                println!("{{\"job\":{id:?},\"runs\":{runs},\"deduped\":true}}");
            } else {
                println!("{{\"job\":{id:?},\"runs\":{runs}}}");
            }
        }
        "status" => {
            let doc = client.status(args.positional.first().map(String::as_str))?;
            println!("{}", doc.to_compact());
        }
        "watch" => {
            let job = args.positional.first().unwrap_or_else(|| usage());
            let on_event = |event: &Json| println!("{}", event.to_compact());
            if args.retries > 0 {
                client.watch_retry(
                    job,
                    args.policy,
                    args.queue,
                    Backoff::attempts(args.retries),
                    on_event,
                )?;
            } else {
                client.watch_with(job, args.policy, args.queue, on_event)?;
            }
        }
        "cancel" => {
            let job = args.positional.first().unwrap_or_else(|| usage());
            let n = client.cancel(job)?;
            println!("{{\"cancelled\":{n}}}");
        }
        "drain" => {
            client.drain()?;
            println!("{{\"draining\":true}}");
        }
        "result" => {
            let job = args.positional.first().unwrap_or_else(|| usage());
            let run = args.positional.get(1).map(|r| {
                r.parse().unwrap_or_else(|_| {
                    eprintln!("RUN must be an index");
                    usage()
                })
            });
            for result in client.results(job, run)? {
                println!(
                    "{{\"run\":{},\"name\":{:?},\"state\":{:?},\"summary\":{}}}",
                    result.run,
                    result.name,
                    result.state,
                    result.summary.to_compact()
                );
            }
        }
        "wait" => {
            let job = args.positional.first().unwrap_or_else(|| usage());
            let interval = Duration::from_millis(50);
            let results = if args.retries > 0 {
                client.wait_for_retry(job, interval, Backoff::attempts(args.retries))?
            } else {
                client.wait_for(job, interval)?
            };
            for result in results {
                println!(
                    "{{\"run\":{},\"name\":{:?},\"state\":{:?},\"summary\":{}}}",
                    result.run,
                    result.name,
                    result.state,
                    result.summary.to_compact()
                );
            }
        }
        "health" => {
            let doc = client.health()?;
            println!("{}", doc.to_compact());
        }
        "prune" => {
            let keep = args.positional.first().map(|k| {
                k.parse().unwrap_or_else(|_| {
                    eprintln!("KEEP must be a count");
                    usage()
                })
            });
            let pruned = client.prune(keep)?;
            println!("{{\"pruned\":{pruned}}}");
        }
        _ => usage(),
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("dlpic-cli: {e}");
        std::process::exit(1);
    }
}
