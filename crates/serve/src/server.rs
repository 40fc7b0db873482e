//! Byte-stream transports: serve a framed stream (stdin/stdout for CI, a
//! unix socket for daemons) against an [`Engine`], plus signal-driven
//! shutdown.
//!
//! Each stream gets one reader (the calling thread) and one writer thread;
//! session replies arrive on an mpsc channel in completion order and are
//! framed onto the wire tagged with their session id. The writer stays
//! alive exactly as long as any in-flight session for this stream holds a
//! reply sender — so a drain flushes every pending reply before the stream
//! closes.

use std::io::{self, BufReader, Read, Write};
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use stint_obs::Counter;

use crate::engine::Engine;
use crate::protocol::{self, FrameError, Request, Response, Status};

/// Half-open / idle clients disconnected by the read timeout.
static OBS_IDLE_CLOSED: Counter = Counter::new("serve.idle_closed");
/// Streams abandoned after a malformed frame.
static OBS_BAD_FRAMES: Counter = Counter::new("serve.bad_frames");

static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALED.store(true, Ordering::SeqCst);
}

extern "C" {
    // Raw libc `signal(2)`; the handler type is pointer-shaped on every
    // platform this builds on, and we never inspect the return value.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// Route SIGINT/SIGTERM to a flag the accept/read loops poll — the start of
/// a graceful drain, not an abort.
pub fn install_signal_handlers() {
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

pub fn shutdown_requested() -> bool {
    SIGNALED.load(Ordering::SeqCst)
}

/// Serve one framed byte stream. Returns `true` if this stream asked the
/// daemon to shut down (SHUTDOWN frame or a signal observed mid-loop).
///
/// `drain_on_close` distinguishes the stdio transport (EOF means the one
/// client is done — drain and flush every reply before exiting) from a
/// socket connection (EOF is one client hanging up; the daemon lives on).
/// A SHUTDOWN frame always drains.
pub fn run_frames<R: Read, W: Write + Send + 'static>(
    engine: &Arc<Engine>,
    r: R,
    w: W,
    drain_on_close: bool,
) -> io::Result<bool> {
    let (tx, rx) = mpsc::channel::<Response>();
    let writer = std::thread::spawn(move || -> io::Result<W> {
        let mut w = w;
        for resp in rx {
            protocol::write_response(&mut w, &resp)?;
            w.flush()?;
        }
        Ok(w)
    });
    let mut br = BufReader::new(r);
    let mut shutdown = false;
    let read_err = loop {
        if shutdown_requested() {
            shutdown = true;
            break None;
        }
        match protocol::read_request(&mut br) {
            Ok(None) => break None,
            Ok(Some(Request::Ping)) => {
                let _ = tx.send(Response::new(Status::Ok, 0, "kind: pong\n"));
            }
            Ok(Some(Request::Stats)) => {
                let _ = tx.send(Response::new(Status::Ok, 0, engine.stats_payload()));
            }
            Ok(Some(Request::Health)) => {
                let _ = tx.send(Response::new(Status::Ok, 0, engine.health_payload()));
            }
            Ok(Some(Request::Shutdown)) => {
                shutdown = true;
                break None;
            }
            Ok(Some(Request::Detect { opts, trace })) => {
                engine.try_submit(opts, trace, tx.clone());
            }
            Err(FrameError::Malformed(m)) => {
                // The stream is desynchronized — answer once, then abandon
                // it. Sessions already admitted still complete and flush.
                OBS_BAD_FRAMES.incr();
                let _ = tx.send(Response::new(
                    Status::Usage,
                    0,
                    format!("kind: usage\nerror: malformed frame: {m}\n"),
                ));
                break None;
            }
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle-session read timeout: a half-open client cannot pin
                // this slot. Close without draining the daemon.
                OBS_IDLE_CLOSED.incr();
                break None;
            }
            Err(FrameError::Io(e)) => break Some(e),
        }
    };
    if shutdown || drain_on_close {
        engine.drain();
    }
    if shutdown {
        let _ = tx.send(Response::new(Status::Bye, 0, "kind: bye\n"));
    }
    // Dropping our sender lets the writer exit once every admitted
    // session's reply (each job holds a clone) has been flushed.
    drop(tx);
    let writer_result = writer
        .join()
        .unwrap_or_else(|_| Err(io::Error::other("writer thread panicked")));
    if let Some(e) = read_err {
        return Err(e);
    }
    // A vanished client (EPIPE on the reply path) is the client's problem,
    // not a daemon failure.
    let _ = writer_result?;
    Ok(shutdown)
}

/// CI transport: frames on stdin, responses on stdout, EOF or SHUTDOWN
/// drains and exits.
pub fn run_stdio(engine: &Arc<Engine>) -> io::Result<bool> {
    let stdin = io::stdin().lock();
    let stdout = io::stdout();
    run_frames(engine, stdin, stdout, true)
}

/// Daemon transport: accept loop on a unix socket, one reader thread per
/// connection, `idle_timeout_ms` bounding how long a silent client may hold
/// its connection. Returns when a SHUTDOWN frame arrives on any connection
/// or a signal fires; queued sessions finish before the socket is removed.
pub fn run_socket(engine: &Arc<Engine>, path: &str, idle_timeout_ms: u64) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) && !shutdown_requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                if idle_timeout_ms > 0 {
                    stream.set_read_timeout(Some(Duration::from_millis(idle_timeout_ms)))?;
                }
                let engine = Arc::clone(engine);
                let stop = Arc::clone(&stop);
                conns.push(std::thread::spawn(move || {
                    let reader = match stream.try_clone() {
                        Ok(r) => r,
                        Err(_) => return,
                    };
                    if let Ok(true) = run_frames(&engine, reader, stream, false) {
                        stop.store(true, Ordering::Release);
                    }
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                let _ = std::fs::remove_file(path);
                return Err(e);
            }
        }
        // Reap finished connection threads; dropping a handle detaches it,
        // which is fine — live ones are joined below.
        conns.retain(|h| !h.is_finished());
    }
    engine.drain();
    for h in conns {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}
