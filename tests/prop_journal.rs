//! Property tests for the crash-safe session journal: arbitrary records
//! must round-trip through the `stint-journal-v1` framing byte for byte,
//! an arbitrary truncation must recover exactly the intact prefix without
//! panicking, and an arbitrary bit flip must be caught by the checksum —
//! never silently absorbed past the damage point.

use std::io::Write;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use stint_serve::journal::{replay, FsyncPolicy, JournalSink, JournalWriter, MAX_RECORD};
use stint_serve::journal::{SessionEvent, EV_ADMITTED, EV_VERDICT};

/// An in-memory sink the test keeps a handle to after the writer takes
/// ownership — the same idiom the core journal unit tests use.
#[derive(Clone)]
struct SharedVec(Arc<Mutex<Vec<u8>>>);

impl Write for SharedVec {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl JournalSink for SharedVec {}

/// Write `payloads` through a real `JournalWriter` into a byte buffer.
fn journal_bytes(payloads: &[Vec<u8>]) -> Vec<u8> {
    let sink = SharedVec(Arc::new(Mutex::new(Vec::new())));
    let mut w = JournalWriter::create(Box::new(sink.clone()), FsyncPolicy::Off)
        .expect("create journal in memory");
    for p in payloads {
        w.append(p).expect("append");
    }
    drop(w);
    let bytes = sink.0.lock().expect("sink lock").clone();
    bytes
}

/// The record cap at cap − 1, cap and cap + 1 bytes: a record within it
/// round-trips, one past it is reported oversized and recovers nothing.
#[test]
fn record_cap_holds_at_its_boundary() {
    let cap = MAX_RECORD as usize;
    for len in [cap - 1, cap, cap + 1] {
        let payload = vec![0xA5u8; len];
        let r = replay(&journal_bytes(std::slice::from_ref(&payload))[..]).expect("replay io");
        if len <= cap {
            assert!(r.is_clean(), "len {len}: {:?}", r.corruption);
            assert!(r.records == [payload], "len {len}: the record changed");
        } else {
            let detail = format!("record 1: oversized frame ({len} bytes > {MAX_RECORD})");
            assert_eq!(r.corruption, Some(detail));
            assert!(r.records.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn records_round_trip(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..64), 0..12)) {
        let bytes = journal_bytes(&payloads);
        let r = replay(&bytes[..]).expect("replay io");
        prop_assert!(r.is_clean(), "clean write replays dirty: {:?}", r.corruption);
        prop_assert_eq!(&r.records, &payloads);
    }

    #[test]
    fn truncation_recovers_the_intact_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48), 1..10),
        cut_permille in 0u64..1000,
    ) {
        let bytes = journal_bytes(&payloads);
        let cut = (bytes.len() as u64 * cut_permille / 1000) as usize;
        let r = replay(&bytes[..cut]).expect("replay io");
        // Whatever survives is a prefix of what was written — truncation
        // can cost the tail record (and, mid-record, gets flagged as
        // corruption), but it can never invent or reorder records.
        prop_assert!(r.records.len() <= payloads.len());
        for (got, want) in r.records.iter().zip(payloads.iter()) {
            prop_assert_eq!(got, want);
        }
        // And it can cost at most the one record the cut landed in.
        if r.is_clean() {
            // A cut on a frame boundary: the shorter journal is simply a
            // journal with fewer appends.
            prop_assert!(bytes.len() == cut || r.records.len() < payloads.len());
        }
    }

    #[test]
    fn bit_flip_is_never_silently_absorbed(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..48), 1..8),
        flip_permille in 0u64..1000,
        bit in 0u32..8,
    ) {
        let bytes = journal_bytes(&payloads);
        let magic_len = "STINT-JOURNAL v1\n".len();
        // Flip one bit somewhere past the magic line.
        let idx = magic_len
            + ((bytes.len() - magic_len - 1) as u64 * flip_permille / 1000) as usize;
        let mut damaged = bytes.clone();
        damaged[idx] ^= 1 << bit;
        let r = replay(&damaged[..]).expect("replay io");
        // The flip may truncate the replay (length varint), fail a
        // checksum, or oversize a frame — but a replay that claims to be
        // clean AND returns all records must have caught... nothing it
        // needed to: that would mean the flip changed bytes without
        // changing any record, which framing makes impossible.
        if r.is_clean() {
            prop_assert!(
                r.records != payloads,
                "flipped bit {bit} at byte {idx} was silently absorbed"
            );
        } else {
            // Structured partial: an intact prefix, never a panic.
            prop_assert!(r.records.len() <= payloads.len());
        }
    }

    #[test]
    fn session_events_round_trip(
        seq in any::<u64>(),
        t_ms in any::<u64>(),
        session in any::<u32>(),
        admitted in any::<bool>(),
        code in any::<u16>(),
        payload in any::<u64>(),
    ) {
        let ev = SessionEvent {
            seq,
            t_ms,
            session,
            kind: if admitted { EV_ADMITTED } else { EV_VERDICT },
            code,
            payload,
        };
        let back = SessionEvent::decode(&ev.encode()).expect("decode");
        prop_assert_eq!(back, ev);
    }
}
