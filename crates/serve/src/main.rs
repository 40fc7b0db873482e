//! `stint-serve` — the detection-as-a-service daemon and its client-side
//! helpers.
//!
//! ```text
//! stint-serve serve [--stdio | --socket PATH] [options]   run the daemon
//! stint-serve frame detect [--opts SPEC] FILE|-           emit a DETECT frame
//! stint-serve frame stats|shutdown|ping                   emit a control frame
//! stint-serve decode                                      pretty-print response frames
//! stint-serve send --socket PATH [--opts SPEC] FILE...    one-shot client
//! ```
//!
//! `frame` writes request frames to stdout, so shell pipelines build a whole
//! conversation by concatenation:
//!
//! ```text
//! { stint-serve frame ping; stint-serve frame detect t.trace; \
//!   stint-serve frame shutdown; } | stint-serve serve --stdio | stint-serve decode
//! ```
//!
//! `decode` exits 1 if the response stream is truncated or damaged (the
//! `serve-trunc-frame` chaos knob produces exactly that), 0 otherwise.
//! `send` exits with the worst status it saw, mapped onto the CLI's 0–4
//! exit-code contract.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::sync::Arc;

use stint_serve::protocol::{self, FrameError, Request};
use stint_serve::server;
use stint_serve::{Engine, EngineConfig};

const USAGE: &str = "\
stint-serve — detection as a service

USAGE:
  stint-serve serve [--stdio | --socket PATH]
        [--session-workers N] [--queue-depth N] [--pool-workers N]
        [--timeout-ms N] [--retry-after-ms N] [--idle-timeout-ms N]
        [--fault-plan SPEC] [--obs SPEC]
        [--journal PATH] [--journal-fsync always|off|every=N]
        [--prom-out PATH] [--flight-dump PATH]
  stint-serve frame detect [--opts SPEC] FILE|-
  stint-serve frame stats|shutdown|ping|health
  stint-serve decode
  stint-serve send --socket PATH [--opts SPEC] [--stats] [--ping]
        [--health] [--shutdown] [FILE...]
  stint-serve journal inspect|replay PATH

Session opts (DETECT frames): shards=K, timeout-ms=N, max-shadow-mb=N,
max-intervals=N, stall-ms=N, witness=0|1.

Response statuses: 0 ok, 1 racy, 2 usage, 3 degraded, 4 corrupt (kind
corrupt|poisoned), 5 busy (retry-after-ms hint), 6 bye.

Ops plane: --journal appends every session lifecycle transition to a
crash-safe stint-journal-v1 file replayed on restart; --prom-out and
--flight-dump write the Prometheus exposition and the flight-recorder
ring (JSON) after drain; `journal inspect` summarizes a journal and
`journal replay` prints every event. `journal inspect` exits 1 when the
journal has a corrupt tail.";

fn main() -> ExitCode {
    stint_serve::install_panic_hook();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let args: Vec<&str> = argv.iter().map(String::as_str).collect();
    match args.first().copied() {
        None | Some("--help") | Some("-h") | Some("help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("serve") => cmd_serve(&args[1..]),
        Some("frame") => cmd_frame(&args[1..]),
        Some("decode") => cmd_decode(&args[1..]),
        Some("send") => cmd_send(&args[1..]),
        Some("journal") => cmd_journal(&args[1..]),
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    }
}

/// The argument after `flag`, or "`flag` needs `what`".
fn take_value<'a>(
    flag: &str,
    what: &str,
    it: &mut std::slice::Iter<'_, &'a str>,
) -> Result<&'a str, String> {
    it.next()
        .copied()
        .ok_or_else(|| format!("{flag} needs {what}"))
}

/// `arg` as a file operand of `command`: `-` (stdin) or a name that does
/// not start with `-`, which would be a flag `command` does not know.
fn operand<'a>(command: &str, arg: &'a str) -> Result<&'a str, String> {
    if arg.starts_with('-') && arg != "-" {
        return Err(format!("unknown {command} flag {arg:?}"));
    }
    Ok(arg)
}

fn parse_num<T: std::str::FromStr>(
    flag: &str,
    it: &mut std::slice::Iter<'_, &str>,
) -> Result<T, String> {
    let v = take_value(flag, "a value", it)?;
    v.parse()
        .map_err(|_| format!("{flag}: {v:?} is not a valid number"))
}

fn cmd_serve(args: &[&str]) -> Result<ExitCode, String> {
    let mut cfg = EngineConfig::default();
    let mut socket: Option<String> = None;
    let mut stdio = false;
    let mut idle_timeout_ms = 30_000u64;
    let mut fault_plan: Option<String> = None;
    let mut obs_spec: Option<String> = None;
    let mut journal_path: Option<String> = None;
    let mut journal_fsync = stint_serve::journal::FsyncPolicy::Every(64);
    let mut prom_out: Option<String> = None;
    let mut flight_dump: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match *a {
            "--stdio" => stdio = true,
            "--socket" => socket = Some(take_value(a, "a path", &mut it)?.to_string()),
            "--session-workers" => cfg.session_workers = parse_num(a, &mut it)?,
            "--queue-depth" => cfg.queue_depth = parse_num(a, &mut it)?,
            "--pool-workers" => cfg.pool_workers = parse_num(a, &mut it)?,
            "--timeout-ms" => cfg.default_timeout_ms = parse_num(a, &mut it)?,
            "--retry-after-ms" => cfg.retry_after_ms = parse_num(a, &mut it)?,
            "--idle-timeout-ms" => idle_timeout_ms = parse_num(a, &mut it)?,
            "--fault-plan" => fault_plan = Some(take_value(a, "a spec", &mut it)?.to_string()),
            "--obs" => obs_spec = Some(take_value(a, "a spec", &mut it)?.to_string()),
            "--journal" => journal_path = Some(take_value(a, "a path", &mut it)?.to_string()),
            "--journal-fsync" => {
                let spec = take_value(a, "always|off|every=N", &mut it)?;
                journal_fsync = stint_serve::journal::FsyncPolicy::parse(spec)
                    .map_err(|e| format!("--journal-fsync {spec:?}: {e}"))?;
            }
            "--prom-out" => prom_out = Some(take_value(a, "a path", &mut it)?.to_string()),
            "--flight-dump" => flight_dump = Some(take_value(a, "a path", &mut it)?.to_string()),
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }
    if stdio && socket.is_some() {
        return Err("--stdio and --socket are mutually exclusive".into());
    }
    // Fault plans and observability: environment first, then the flag
    // (which wins) — and both before the engine exists, because fault knobs
    // are sampled at construction time. A malformed spec names its
    // offending token and exits 2.
    stint_faults::install_from_env().map_err(|e| e.to_string())?;
    if let Some(spec) = &fault_plan {
        let plan = stint_faults::FaultPlan::parse(spec)
            .map_err(|e| format!("--fault-plan {spec:?}: {e}"))?;
        stint_faults::install(plan);
    }
    stint::obs::enable_from_env().map_err(|e| e.to_string())?;
    if let Some(spec) = &obs_spec {
        match stint::obs::ObsConfig::parse(spec).map_err(|e| format!("--obs {spec:?}: {e}"))? {
            Some(c) => stint::obs::enable(c),
            None => stint::obs::disable(),
        }
    }
    // Open (and replay) the journal before the engine exists: recovery
    // seeds the session-id counter so restarted daemons never reuse an id
    // from before the crash.
    let journal = match &journal_path {
        Some(p) => {
            let j = stint_serve::SessionJournal::open(std::path::Path::new(p), journal_fsync)
                .map_err(|e| format!("--journal {p}: {e}"))?;
            let rec = j.recovered();
            if rec.records > 0 {
                eprintln!("stint-serve: journal replay of {p}:");
                for line in rec.render().lines() {
                    eprintln!("stint-serve:   {line}");
                }
            }
            Some(j)
        }
        None => None,
    };
    if let Some(p) = &flight_dump {
        stint_serve::set_flight_dump_path(std::path::PathBuf::from(p.as_str()));
    }
    let engine = Arc::new(Engine::with_journal(cfg, journal));
    server::install_signal_handlers();
    if let Some(path) = socket {
        eprintln!("stint-serve: listening on {path}");
        server::run_socket(&engine, &path, idle_timeout_ms).map_err(|e| e.to_string())?;
    } else {
        server::run_stdio(&engine).map_err(|e| e.to_string())?;
    }
    // Post-drain exports: the engine has quiesced, so the exposition and
    // the flight ring are a consistent final snapshot.
    if let Some(p) = &prom_out {
        let f = std::fs::File::create(p).map_err(|e| format!("--prom-out {p}: {e}"))?;
        stint::obs::write_prometheus_text(io::BufWriter::new(f))
            .map_err(|e| format!("--prom-out {p}: {e}"))?;
    }
    if let Some(p) = &flight_dump {
        let f = std::fs::File::create(p).map_err(|e| format!("--flight-dump {p}: {e}"))?;
        stint::obs::flight::write_json(io::BufWriter::new(f))
            .map_err(|e| format!("--flight-dump {p}: {e}"))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_frame(args: &[&str]) -> Result<ExitCode, String> {
    let mut stdout = io::stdout().lock();
    let req = match args.first().copied() {
        Some("stats") => Request::Stats,
        Some("shutdown") => Request::Shutdown,
        Some("ping") => Request::Ping,
        Some("health") => Request::Health,
        Some("detect") => {
            let (mut opts, mut files) = (String::new(), Vec::new());
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match *a {
                    "--opts" => opts = take_value(a, "a spec", &mut it)?.to_string(),
                    other => files.push(operand("frame detect", other)?),
                }
            }
            let [file] = files[..] else {
                return Err(format!("frame detect takes one FILE, got {files:?}"));
            };
            let trace = read_input(file)?;
            Request::Detect { opts, trace }
        }
        _ => return Err("frame needs one of: detect, stats, shutdown, ping, health".into()),
    };
    protocol::write_request(&mut stdout, &req).map_err(|e| format!("write frame: {e}"))?;
    stdout.flush().map_err(|e| format!("write frame: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

fn read_input(path: &str) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    if path == "-" {
        io::stdin()
            .read_to_end(&mut buf)
            .map_err(|e| format!("read stdin: {e}"))?;
    } else {
        buf = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    }
    Ok(buf)
}

fn cmd_decode(args: &[&str]) -> Result<ExitCode, String> {
    if !args.is_empty() {
        return Err("decode takes no arguments (responses on stdin)".into());
    }
    let mut stdin = io::stdin().lock();
    loop {
        match protocol::read_response(&mut stdin) {
            Ok(None) => return Ok(ExitCode::SUCCESS),
            Ok(Some(resp)) => {
                println!("-- session {}: {}", resp.session, resp.status);
                for line in resp.payload.lines() {
                    println!("   {line}");
                }
            }
            Err(FrameError::Malformed(m)) => {
                eprintln!("decode: response stream damaged: {m}");
                return Ok(ExitCode::from(1));
            }
            Err(FrameError::Io(e)) => return Err(format!("read responses: {e}")),
        }
    }
}

fn cmd_send(args: &[&str]) -> Result<ExitCode, String> {
    let mut socket: Option<&str> = None;
    let mut opts = String::new();
    let mut stats = false;
    let mut ping = false;
    let mut health = false;
    let mut shutdown = false;
    let mut files: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match *a {
            "--socket" => socket = it.next().copied(),
            "--opts" => opts = take_value(a, "a spec", &mut it)?.to_string(),
            "--stats" => stats = true,
            "--ping" => ping = true,
            "--health" => health = true,
            "--shutdown" => shutdown = true,
            other => files.push(operand("send", other)?),
        }
    }
    let socket = socket.ok_or_else(|| "send needs --socket PATH".to_string())?;
    if files.is_empty() && !stats && !ping && !health && !shutdown {
        return Err(
            "send needs at least one trace file or --stats/--ping/--health/--shutdown".into(),
        );
    }
    let stream = UnixStream::connect(socket).map_err(|e| format!("connect {socket}: {e}"))?;
    let mut reader = stream
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    let mut w = io::BufWriter::new(stream);
    let mut expected = 0usize;
    if ping {
        protocol::write_request(&mut w, &Request::Ping).map_err(|e| e.to_string())?;
        expected += 1;
    }
    for f in &files {
        let trace = read_input(f)?;
        protocol::write_request(
            &mut w,
            &Request::Detect {
                opts: opts.clone(),
                trace,
            },
        )
        .map_err(|e| e.to_string())?;
        expected += 1;
    }
    if stats {
        protocol::write_request(&mut w, &Request::Stats).map_err(|e| e.to_string())?;
        expected += 1;
    }
    if health {
        protocol::write_request(&mut w, &Request::Health).map_err(|e| e.to_string())?;
        expected += 1;
    }
    if shutdown {
        protocol::write_request(&mut w, &Request::Shutdown).map_err(|e| e.to_string())?;
        expected += 1;
    }
    w.flush().map_err(|e| e.to_string())?;
    let mut worst = 0u8;
    for _ in 0..expected {
        match protocol::read_response(&mut reader) {
            Ok(None) => break,
            Ok(Some(resp)) => {
                println!("-- session {}: {}", resp.session, resp.status);
                for line in resp.payload.lines() {
                    println!("   {line}");
                }
                worst = worst.max(resp.status.exit_code());
            }
            Err(FrameError::Malformed(m)) => {
                eprintln!("send: response stream damaged: {m}");
                return Ok(ExitCode::from(4));
            }
            Err(FrameError::Io(e)) => return Err(format!("read responses: {e}")),
        }
    }
    Ok(ExitCode::from(worst))
}

fn cmd_journal(args: &[&str]) -> Result<ExitCode, String> {
    let (mode, path) = match args {
        [m @ ("inspect" | "replay"), p] => (*m, *p),
        _ => return Err("journal needs: inspect|replay PATH".into()),
    };
    let (events, summary) = stint_serve::journal::replay_file(std::path::Path::new(path))
        .map_err(|e| format!("journal {path}: {e}"))?;
    if mode == "replay" {
        for ev in &events {
            println!(
                "{:>8} t={:<8} session {:<6} {:<10} code {:<2} payload {}",
                ev.seq,
                format!("{}ms", ev.t_ms),
                ev.session,
                stint_serve::journal::event_name(ev.kind),
                ev.code,
                ev.payload
            );
        }
    }
    print!("{}", summary.render());
    Ok(if summary.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
