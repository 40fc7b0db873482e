//! Crash forensics for the session journal: abort a daemon mid-soak with
//! the `serve-journal-kill` fault knob, then prove the journal answers the
//! question a crashed daemon cannot — *what was in flight* — and that a
//! restarted engine picks up cleanly on the damaged file.
//!
//! The test re-executes its own binary: the `#[ignore]`d `child_` test is
//! the victim daemon (fault plan installed, journal attached, sessions
//! submitted, `abort()` fired by the knob mid-append); the parent test
//! spawns it, watches it die, and does the post-mortem.

use std::collections::BTreeSet;
use std::process::Command;
use std::sync::mpsc;
use std::time::Duration;

use stint::journal::FsyncPolicy;
use stint::FaultPlan;
use stint_serve::journal::replay_file;
use stint_serve::{Engine, EngineConfig, SessionJournal};

const RACY_V1: &str = "STINT-TRACE v1\nstrands 3\n0 0\n1 2\n2 1\nevents 4\n\
                       s 1 0x40 4\ne 1 0x0 0\ns 2 0x40 4\ne 2 0x0 0\n";

const SESSIONS: usize = 10;

fn cfg() -> EngineConfig {
    EngineConfig {
        session_workers: 1, // FIFO, so the kill lands mid-soak, not at either end
        queue_depth: 32,
        pool_workers: 1,
        default_timeout_ms: 30_000,
        retry_after_ms: 2,
    }
}

/// The victim. Only meaningful when re-executed by the parent test with
/// `JOURNAL_CRASH_PATH` set; inert (and `#[ignore]`d) otherwise.
#[test]
#[ignore = "re-executed as the crash victim by kill_mid_soak_forensics"]
fn child_soak_abort() {
    let Ok(path) = std::env::var("JOURNAL_CRASH_PATH") else {
        return;
    };
    // Abort while appending the 20th record: after the 10 admits, sessions
    // finish two records at a time (started, verdict), so the knob fires
    // inside a verdict append with finished sessions behind it and
    // admitted-but-unfinished ones ahead.
    stint_faults::install(FaultPlan::parse("serve-journal-kill=20").expect("plan"));
    let journal = SessionJournal::open(std::path::Path::new(&path), FsyncPolicy::Always)
        .expect("open journal");
    let engine = Engine::with_journal(cfg(), Some(journal));
    let (tx, rx) = mpsc::channel();
    for _ in 0..SESSIONS {
        engine.try_submit(
            "stall-ms=30".into(),
            RACY_V1.as_bytes().to_vec(),
            tx.clone(),
        );
    }
    for _ in 0..SESSIONS {
        let resp = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("session reply");
        // The journal holds the verdict before the reply is sent, so every
        // id the parent reads off our stdout must be in the replayed
        // finished set.
        println!("done {}", resp.session);
    }
    unreachable!("the serve-journal-kill knob must abort before the soak completes");
}

#[test]
fn kill_mid_soak_forensics() {
    let path = std::env::temp_dir().join(format!("journal_crash_{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(&exe)
        .args(["child_soak_abort", "--exact", "--ignored", "--nocapture"])
        .env("JOURNAL_CRASH_PATH", &path)
        .output()
        .expect("spawn crash victim");
    assert!(
        !out.status.success(),
        "victim was supposed to abort mid-append, but exited cleanly:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let done: BTreeSet<u32> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.strip_prefix("done "))
        .filter_map(|id| id.parse().ok())
        .collect();

    // Post-mortem replay: a structured partial — the kill tore the tail
    // frame, every record before it is intact, and the in-flight set is
    // exactly the admitted sessions without a journaled verdict.
    let (_, summary) = replay_file(&path).expect("replay damaged journal");
    assert!(
        summary.corruption.is_some(),
        "abort mid-append must leave a flagged torn tail:\n{}",
        summary.render()
    );
    assert_eq!(
        summary.admitted.len(),
        SESSIONS,
        "all sessions were admitted before the kill:\n{}",
        summary.render()
    );
    assert!(
        !summary.finished.is_empty() && summary.finished.len() < SESSIONS,
        "the kill was tuned to land mid-soak:\n{}",
        summary.render()
    );
    let expected: BTreeSet<u32> = summary
        .admitted
        .difference(&summary.finished)
        .copied()
        .collect();
    assert_eq!(
        summary.in_flight(),
        expected,
        "in-flight must be admitted minus finished"
    );
    // Replies are sent only after the verdict hits the journal, so no
    // client ever saw an answer the journal does not know about.
    for id in &done {
        assert!(
            summary.finished.contains(id),
            "client saw session {id}'s reply but the journal has no verdict for it"
        );
    }

    // Restart on the damaged file: open() repairs the torn tail in place,
    // reports the recovered state, and keeps allocating past the old ids.
    let journal = SessionJournal::open(&path, FsyncPolicy::Always).expect("reopen damaged journal");
    assert!(
        journal.recovered().corruption.is_some(),
        "restart must report the damage it repaired"
    );
    assert_eq!(journal.recovered().in_flight(), expected);
    let max_before = journal.recovered().max_session;
    let engine = Engine::with_journal(cfg(), Some(journal));
    let (tx, rx) = mpsc::channel();
    let id = engine.try_submit("".into(), RACY_V1.as_bytes().to_vec(), tx);
    assert!(
        id > max_before,
        "restarted engine reused session id {id} (journal knew up to {max_before})"
    );
    rx.recv_timeout(Duration::from_secs(60))
        .expect("post-restart session reply");
    engine.drain();
    drop(engine);

    // After the repair + a clean run, the journal replays clean end to end
    // and still remembers every pre-crash record.
    let (_, healed) = replay_file(&path).expect("replay healed journal");
    assert!(
        healed.is_clean(),
        "repair-on-open must leave a clean journal:\n{}",
        healed.render()
    );
    assert!(healed.max_session > max_before);
    assert!(healed.finished.contains(&id));

    let _ = std::fs::remove_file(&path);
}

/// The victim of a crash right after a repair. Only meaningful when
/// re-executed by `crash_after_reopen_keeps_intact_records` with
/// `JOURNAL_REOPEN_PATH` set; inert (and `#[ignore]`d) otherwise.
#[test]
#[ignore = "re-executed as the crash victim by crash_after_reopen_keeps_intact_records"]
fn child_reopen_abort() {
    let Ok(path) = std::env::var("JOURNAL_REOPEN_PATH") else {
        return;
    };
    // Open the torn journal (the repair), append once, and die mid-append
    // of the second record this process writes.
    stint_faults::install(FaultPlan::parse("serve-journal-kill=2").expect("plan"));
    let journal = SessionJournal::open(std::path::Path::new(&path), FsyncPolicy::Always)
        .expect("open torn journal");
    for session in 6.. {
        journal.log(session, stint_serve::journal::EV_ADMITTED, 0, 0);
    }
    unreachable!("the serve-journal-kill knob must abort on the second append");
}

/// A daemon killed just after reopening a torn journal keeps every record
/// that was intact before the repair: the repair cuts the torn tail off,
/// it never rewrites (and so never first erases) the intact prefix.
#[test]
fn crash_after_reopen_keeps_intact_records() {
    let path = std::env::temp_dir().join(format!("journal_reopen_{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let journal = SessionJournal::open(&path, FsyncPolicy::Always).expect("create journal");
        for session in 1..=5 {
            journal.log(session, stint_serve::journal::EV_ADMITTED, 0, 0);
        }
    }
    // Two bytes of a sixth frame: a length, then a torn checksum varint.
    std::io::Write::write_all(
        &mut std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open for tearing"),
        &[0x06, 0x80],
    )
    .expect("tear the tail");

    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(&exe)
        .args(["child_reopen_abort", "--exact", "--ignored", "--nocapture"])
        .env("JOURNAL_REOPEN_PATH", &path)
        .output()
        .expect("spawn crash victim");
    assert!(
        !out.status.success(),
        "victim was supposed to abort mid-append, but exited cleanly:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let (_, summary) = replay_file(&path).expect("replay after the crash");
    assert!(
        summary.records >= 5,
        "the crash after the repair lost intact records:\n{}",
        summary.render()
    );
    assert_eq!(
        summary.admitted,
        (1..=6).collect::<BTreeSet<u32>>(),
        "the five pre-repair records and the one appended after it:\n{}",
        summary.render()
    );
    assert!(
        summary.corruption.is_some(),
        "the abort mid-append must leave a flagged torn tail"
    );

    let _ = std::fs::remove_file(&path);
}
