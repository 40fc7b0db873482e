//! Race provenance: verifiable witnesses attached to race reports.
//!
//! A bare [`crate::Race`] is a *claim*: two strands conflicted on a word
//! range. This module turns the claim into *evidence*. Every detector hook
//! advances a monotone event sequence number that matches the event's index
//! in the [`crate::Trace`] the detector was fed exactly (a detector sees one
//! hook call per trace event): for a live run, the hook stream
//! [`crate::record`] captures; for a replayed [`crate::PortableTrace`]
//! recording, its per-strand units. From that identity a [`Witness`]
//! records, at detection time:
//!
//! * the **event spans** of both strands — sequential depth-first execution
//!   means each strand occupies one contiguous index range of the event
//!   stream, so `[first, last]` pins where in the trace each access lives
//!   (plus the exact event id of the current access when the detector
//!   checked it synchronously, as the word-granularity detectors do);
//! * the **SP-Order tag evidence**: the pair `(prev <_E cur, prev <_H cur)`
//!   read from the English/Hebrew orders at capture time — the bits
//!   *disagreeing* is the parallelism proof;
//! * the **spawn-tree lineage** of both strands up to their nearest common
//!   SP ancestor — explanatory context for a human ("these strands descend
//!   from the spawn at strand 3"); the rank evidence is the proof.
//!
//! [`WitnessChecker`] re-validates a witness *independently* against the
//! frozen reachability substrate (recomputing the order bits from the rank
//! permutations and the lineage from the parent table) and, when the trace
//! is available, against the event stream itself (the claimed spans must be
//! subranges of the strands' actual spans and must contain a concretely
//! conflicting pair of accesses). A tampered witness — flipped order bit,
//! swapped strand, shifted span — fails the check.
//!
//! Capture is **off by default** and costs one `Option` discriminant check
//! per hook when disabled (the established inertness contract).

use crate::report::{Race, RaceKind};
use crate::report_card::{array, flag, to_strand, STRAND_MAX};
use crate::trace::{Trace, TraceOp};
use stint_obs::json::{Value, Writer};
use stint_obs::Counter;
use stint_sporder::{FrozenReach, Reachability, StrandId};

static OBS_CAPTURED: Counter = Counter::new("witness.captured");
static OBS_CHECKED: Counter = Counter::new("witness.checked");
static OBS_REJECTED: Counter = Counter::new("witness.rejected");

/// Where one side of a race happened: the strand, its contiguous event-id
/// span in the instrumentation stream, and — when the detector pinpointed
/// it — the exact event id of the access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessEvidence {
    pub strand: StrandId,
    /// First event id the strand executed (at capture time).
    pub first_event: u64,
    /// Last event id the strand executed (at capture time).
    pub last_event: u64,
    /// Exact event id of this side's access, when known. Word-granularity
    /// detectors check at access time and pinpoint the current access;
    /// flush-based detectors and the batch merge carry spans only.
    pub event: Option<u64>,
}

/// Machine-checkable evidence for one [`Race`]. See the module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Witness {
    pub prev: AccessEvidence,
    pub cur: AccessEvidence,
    /// `prev <_E cur` at capture time (sequential capture always observes
    /// the previously recorded access first, so this is `true` live).
    pub prev_before_eng: bool,
    /// `prev <_H cur` at capture time. Disagreement with the English bit is
    /// the parallelism proof.
    pub prev_before_heb: bool,
    /// `prev.strand`'s spawn-tree chain up to (and including) the nearest
    /// common SP ancestor with `cur.strand`. Empty when the reachability
    /// source carries no lineage.
    pub prev_lineage: Vec<StrandId>,
    /// `cur.strand`'s chain up to the same ancestor.
    pub cur_lineage: Vec<StrandId>,
}

impl Witness {
    /// Build a witness for the pair `(prev, cur)` from a span table and a
    /// reachability source. This is the *merge-time* constructor the batch
    /// detector uses: it is a deterministic function of the pair, the global
    /// span table, and the frozen orders — which is what keeps merged
    /// reports byte-identical across shard counts.
    pub fn from_spans<R: Reachability>(
        reach: &R,
        spans: &EventSpans,
        prev: StrandId,
        cur: StrandId,
    ) -> Witness {
        let (prev_before_eng, prev_before_heb) = reach.order_pair(prev, cur);
        let (prev_lineage, cur_lineage) = lineage_to_common(reach, prev, cur);
        let side = |s: StrandId| {
            let (first_event, last_event) = spans.get(s).unwrap_or((u64::MAX, 0));
            AccessEvidence {
                strand: s,
                first_event,
                last_event,
                event: None,
            }
        };
        OBS_CAPTURED.incr();
        Witness {
            prev: side(prev),
            cur: side(cur),
            prev_before_eng,
            prev_before_heb,
            prev_lineage,
            cur_lineage,
        }
    }

    /// Push the witness into an open JSON document as one object — its
    /// encoding in the race report card (`stint-report-v1`);
    /// [`Witness::from_json`] reads it back for `witness verify` to re-run
    /// the checker on.
    pub fn write_json(&self, j: &mut Writer<'_>) {
        let side = |j: &mut Writer<'_>, key: &str, e: &AccessEvidence| {
            j.key(key).begin_object();
            j.key("strand").u64(e.strand.0.into());
            j.key("first").u64(e.first_event);
            j.key("last").u64(e.last_event);
            j.key("event");
            match e.event {
                Some(id) => j.u64(id),
                None => j.null(),
            };
            j.end();
        };
        let chain = |j: &mut Writer<'_>, key: &str, c: &[StrandId]| {
            j.key(key).begin_array();
            for s in c {
                j.u64(s.0.into());
            }
            j.end();
        };
        j.begin_object();
        side(j, "prev", &self.prev);
        side(j, "cur", &self.cur);
        j.key("prev_before_eng").bool(self.prev_before_eng);
        j.key("prev_before_heb").bool(self.prev_before_heb);
        chain(j, "prev_lineage", &self.prev_lineage);
        chain(j, "cur_lineage", &self.cur_lineage);
        j.end();
    }

    /// Inverse of [`Witness::write_json`]. Fails closed: a strand id that
    /// does not fit its `u32`, a fraction, a missing field or a wrong type
    /// is an error, never a cast or a default.
    pub fn from_json(v: &Value) -> Result<Witness, String> {
        let side = |key: &str| -> Result<AccessEvidence, String> {
            let e = (v.get(key)).ok_or_else(|| format!("missing {key:?} evidence"))?;
            Ok(AccessEvidence {
                strand: to_strand(e.uint("strand", STRAND_MAX)?),
                first_event: e.uint("first", u64::MAX)?,
                last_event: e.uint("last", u64::MAX)?,
                event: match e.get("event") {
                    None => return Err(format!("{key} evidence: missing event field")),
                    Some(Value::Null) => None,
                    Some(id) => Some(id.to_uint(u64::MAX).map_err(|e| format!("\"event\" {e}"))?),
                },
            })
        };
        let chain = |key: &str| -> Result<Vec<StrandId>, String> {
            let ids = array(v, key)?.iter();
            ids.map(|s| Ok(to_strand(s.to_uint(STRAND_MAX)?)))
                .collect::<Result<_, String>>()
                .map_err(|e| format!("{key:?} entry {e}"))
        };
        Ok(Witness {
            prev: side("prev")?,
            cur: side("cur")?,
            prev_before_eng: flag(v, "prev_before_eng")?,
            prev_before_heb: flag(v, "prev_before_heb")?,
            prev_lineage: chain("prev_lineage")?,
            cur_lineage: chain("cur_lineage")?,
        })
    }

    /// Compact single-line rendering used on the serve wire and in the batch
    /// report (`order=e+h-` reads "prev before cur in English, not in
    /// Hebrew"; `@id` is the pinpointed current access, when known).
    pub fn render(&self) -> String {
        let side = |e: &AccessEvidence| {
            let mut s = format!("s{}[{},{}]", e.strand.0, e.first_event, e.last_event);
            if let Some(id) = e.event {
                s.push('@');
                s.push_str(&id.to_string());
            }
            s
        };
        let chain = |c: &[StrandId]| {
            if c.is_empty() {
                "-".to_string()
            } else {
                c.iter()
                    .map(|s| s.0.to_string())
                    .collect::<Vec<_>>()
                    .join(">")
            }
        };
        format!(
            "prev={} cur={} order=e{}h{} lineage={}|{}",
            side(&self.prev),
            side(&self.cur),
            if self.prev_before_eng { '+' } else { '-' },
            if self.prev_before_heb { '+' } else { '-' },
            chain(&self.prev_lineage),
            chain(&self.cur_lineage),
        )
    }
}

impl std::fmt::Display for Witness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Per-strand contiguous event-id spans `[first, last]` of an
/// instrumentation stream. Built incrementally (one [`EventSpans::note`]
/// per event) or in one pass over a recorded trace.
#[derive(Clone, Debug, Default)]
pub struct EventSpans {
    spans: Vec<(u64, u64)>,
}

impl EventSpans {
    /// One O(n) pass over a recorded trace.
    pub fn from_trace(t: &Trace) -> EventSpans {
        let mut sp = EventSpans::default();
        for (i, e) in t.events.iter().enumerate() {
            sp.note(e.strand, i as u64);
        }
        sp
    }

    /// Record that strand `s` executed event `id`. Ids must be fed in
    /// non-decreasing order per strand.
    #[inline]
    pub fn note(&mut self, s: StrandId, id: u64) {
        let idx = s.index();
        if idx >= self.spans.len() {
            self.spans.resize(idx + 1, (u64::MAX, 0));
        }
        let sp = &mut self.spans[idx];
        if sp.0 == u64::MAX {
            sp.0 = id;
        }
        sp.1 = id;
    }

    /// The strand's `[first, last]` span, if it executed any event.
    pub fn get(&self, s: StrandId) -> Option<(u64, u64)> {
        let sp = *self.spans.get(s.index())?;
        (sp.0 != u64::MAX).then_some(sp)
    }

    /// Heap bytes owned by the table.
    pub fn heap_bytes(&self) -> u64 {
        (self.spans.capacity() * std::mem::size_of::<(u64, u64)>()) as u64
    }
}

/// Live witness-capture state owned by a [`crate::RaceReport`]: the monotone
/// event sequence number (equal to the event's trace index) plus the
/// per-strand span table.
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    seq: u64,
    spans: EventSpans,
    /// The in-flight event, when it is an access: `(strand, event id)`.
    /// Lets a synchronous word check pinpoint the current access; cleared by
    /// control events so flush-time races never claim the wrong event.
    current: Option<(StrandId, u64)>,
}

impl Provenance {
    /// Advance the sequence number for one hook invocation by strand `s`.
    /// `access` is true for load/store/load_range/store_range, false for
    /// free/strand_end. Out of line: [`crate::RaceReport::observe`] sits in
    /// every hook site, and a run without witness capture never gets here.
    #[cold]
    #[inline(never)]
    pub fn on_event(&mut self, s: StrandId, access: bool) {
        let id = self.seq;
        self.seq += 1;
        self.spans.note(s, id);
        self.current = if access { Some((s, id)) } else { None };
    }

    /// Events observed so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The per-strand span table accumulated so far.
    pub fn spans(&self) -> &EventSpans {
        &self.spans
    }

    /// Build the witness for a race being recorded right now. The exact
    /// current-access id is attached only when the in-flight event is an
    /// access by `cur` (the word-granularity synchronous-check case).
    pub fn witness<R: Reachability>(&self, reach: &R, prev: StrandId, cur: StrandId) -> Witness {
        let mut w = Witness::from_spans(reach, &self.spans, prev, cur);
        if let Some((s, id)) = self.current {
            if s == cur {
                w.cur.event = Some(id);
            }
        }
        w
    }
}

/// Climb the spawn-tree from `a` and `b` to their nearest common ancestor,
/// returning both chains inclusive of the ancestor. Empty chains when the
/// source carries no lineage (or the chains never meet, which a valid
/// parent table cannot produce).
pub fn lineage_to_common<R: Reachability>(
    reach: &R,
    a: StrandId,
    b: StrandId,
) -> (Vec<StrandId>, Vec<StrandId>) {
    // Hop cap: a well-formed parent table is a forest, but this also runs
    // over tables parsed from untrusted trace files, where a cycle must not
    // hang the process.
    const MAX_HOPS: usize = 1 << 20;
    let chain = |mut s: StrandId| {
        let mut c = vec![s];
        while let Some(p) = reach.parent_of(s) {
            c.push(p);
            s = p;
            if c.len() > MAX_HOPS {
                break;
            }
        }
        c
    };
    let ca = chain(a);
    let cb = chain(b);
    // First element of `ca` that also appears on `cb` is the nearest common
    // ancestor (chains are root-terminated, so they share a suffix).
    let on_b: std::collections::HashSet<StrandId> = cb.iter().copied().collect();
    let Some(pos_a) = ca.iter().position(|s| on_b.contains(s)) else {
        return (Vec::new(), Vec::new());
    };
    let anc = ca[pos_a];
    let pos_b = cb.iter().position(|&s| s == anc).unwrap();
    (ca[..=pos_a].to_vec(), cb[..=pos_b].to_vec())
}

/// Independent re-validation of witnesses against the frozen reachability
/// substrate (always) and the recorded event stream (when provided).
pub struct WitnessChecker<'a> {
    reach: &'a FrozenReach,
    trace: Option<&'a Trace>,
    actual_spans: Option<EventSpans>,
}

impl<'a> WitnessChecker<'a> {
    pub fn new(reach: &'a FrozenReach) -> WitnessChecker<'a> {
        WitnessChecker {
            reach,
            trace: None,
            actual_spans: None,
        }
    }

    /// Also check witnesses against the event stream itself: claimed spans
    /// must be subranges of the strands' actual spans and must contain a
    /// concretely conflicting pair of accesses to the racy words.
    pub fn with_trace(mut self, trace: &'a Trace) -> WitnessChecker<'a> {
        self.actual_spans = Some(EventSpans::from_trace(trace));
        self.trace = Some(trace);
        self
    }

    /// Validate `race`'s witness. `Err` carries a human-readable rejection
    /// reason; a race without a witness is rejected (callers decide whether
    /// witnesses were expected before invoking the checker).
    pub fn check(&self, race: &Race) -> Result<(), String> {
        let w = race
            .witness
            .as_deref()
            .ok_or_else(|| "race carries no witness".to_string())?;
        self.check_witness(w, race).map(|_| ())
    }

    /// Validate a witness against its race, returning the concrete
    /// conflicting event pair `(prev event id, cur event id)` when the trace
    /// is available (`(u64::MAX, u64::MAX)` otherwise).
    pub fn check_witness(&self, w: &Witness, race: &Race) -> Result<(u64, u64), String> {
        OBS_CHECKED.incr();
        self.check_inner(w, race).inspect_err(|_| {
            OBS_REJECTED.incr();
        })
    }

    fn check_inner(&self, w: &Witness, race: &Race) -> Result<(u64, u64), String> {
        let n = self.reach.strand_count() as u32;
        if w.prev.strand.0 >= n || w.cur.strand.0 >= n {
            return Err(format!(
                "witness names strand out of range (trace has {n} strands)"
            ));
        }
        if w.prev.strand != race.prev || w.cur.strand != race.cur {
            return Err(format!(
                "witness strands (s{}, s{}) disagree with the race (s{}, s{})",
                w.prev.strand.0, w.cur.strand.0, race.prev.0, race.cur.0
            ));
        }
        if race.word_lo >= race.word_hi {
            return Err("race covers an empty word range".to_string());
        }
        // 1. Re-derive the order bits from the frozen rank permutations:
        //    captured evidence must match, and the bits must disagree —
        //    agreement would mean the strands are in series, i.e. no race.
        let (eng, heb) = self.reach.order_pair(w.prev.strand, w.cur.strand);
        if (eng, heb) != (w.prev_before_eng, w.prev_before_heb) {
            return Err(format!(
                "order evidence e{}h{} contradicts the frozen orders e{}h{}",
                sign(w.prev_before_eng),
                sign(w.prev_before_heb),
                sign(eng),
                sign(heb)
            ));
        }
        if eng == heb {
            return Err("order bits agree: strands are in series, not parallel".to_string());
        }
        // 2. Spans must be well-formed, and the pinpointed access (if any)
        //    must lie inside its span.
        for (name, e) in [("prev", &w.prev), ("cur", &w.cur)] {
            if e.first_event > e.last_event {
                return Err(format!(
                    "{name} span [{},{}] is empty",
                    e.first_event, e.last_event
                ));
            }
            if let Some(id) = e.event {
                if id < e.first_event || id > e.last_event {
                    return Err(format!("{name} access {id} outside its claimed span"));
                }
            }
        }
        // 3. Lineage must re-derive from the parent table (exact match);
        //    a substrate without lineage admits only empty chains.
        let (pl, cl) = lineage_to_common(self.reach, w.prev.strand, w.cur.strand);
        if pl != w.prev_lineage || cl != w.cur_lineage {
            return Err("lineage chains disagree with the spawn tree".to_string());
        }
        // 4. Against the event stream: claimed spans are subranges of the
        //    strands' actual spans, and each span holds a conflicting access
        //    to the racy words (prev's side checked against the kind's
        //    recorded op, cur's against the current op).
        let (Some(trace), Some(actual)) = (self.trace, &self.actual_spans) else {
            return Ok((u64::MAX, u64::MAX));
        };
        let (prev_writes, cur_writes) = match race.kind {
            RaceKind::WriteWrite => (true, true),
            RaceKind::ReadWrite => (false, true),
            RaceKind::WriteRead => (true, false),
        };
        let pid = self.find_conflict(trace, actual, &w.prev, prev_writes, race, "prev")?;
        let cid = match w.cur.event {
            Some(id) => {
                self.event_conflicts(trace, id, &w.cur, cur_writes, race, "cur")?;
                id
            }
            None => self.find_conflict(trace, actual, &w.cur, cur_writes, race, "cur")?,
        };
        Ok((pid, cid))
    }

    fn find_conflict(
        &self,
        trace: &Trace,
        actual: &EventSpans,
        e: &AccessEvidence,
        writes: bool,
        race: &Race,
        name: &str,
    ) -> Result<u64, String> {
        let (af, al) = actual
            .get(e.strand)
            .ok_or_else(|| format!("{name} strand s{} executed no events", e.strand.0))?;
        if e.first_event < af || e.last_event > al {
            return Err(format!(
                "{name} span [{},{}] escapes strand s{}'s actual span [{af},{al}]",
                e.first_event, e.last_event, e.strand.0
            ));
        }
        for id in e.first_event..=e.last_event {
            if self
                .event_conflicts(trace, id, e, writes, race, name)
                .is_ok()
            {
                return Ok(id);
            }
        }
        Err(format!(
            "{name} span [{},{}] holds no {} overlapping words [{:#x},{:#x})",
            e.first_event,
            e.last_event,
            if writes { "write" } else { "read" },
            race.word_lo,
            race.word_hi
        ))
    }

    fn event_conflicts(
        &self,
        trace: &Trace,
        id: u64,
        e: &AccessEvidence,
        writes: bool,
        race: &Race,
        name: &str,
    ) -> Result<(), String> {
        let ev = trace
            .events
            .get(id as usize)
            .ok_or_else(|| format!("{name} event {id} beyond the trace"))?;
        if ev.strand != e.strand {
            return Err(format!(
                "{name} event {id} belongs to strand s{}, not s{}",
                ev.strand.0, e.strand.0
            ));
        }
        let is_write = match ev.op {
            TraceOp::Store | TraceOp::StoreRange => true,
            TraceOp::Load | TraceOp::LoadRange => false,
            TraceOp::Free | TraceOp::StrandEnd => {
                return Err(format!("{name} event {id} is not a memory access"))
            }
        };
        if is_write != writes {
            return Err(format!(
                "{name} event {id} is a {}, the race kind needs a {}",
                if is_write { "write" } else { "read" },
                if writes { "write" } else { "read" }
            ));
        }
        let (lo, hi) = stint_cilk::word_range(ev.addr, ev.bytes);
        if hi <= race.word_lo || lo >= race.word_hi {
            return Err(format!("{name} event {id} misses the racy words"));
        }
        Ok(())
    }
}

fn sign(b: bool) -> char {
    if b {
        '+'
    } else {
        '-'
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cilk, CilkProgram, PortableTrace};

    struct Racy;
    impl CilkProgram for Racy {
        fn run<C: Cilk>(&mut self, ctx: &mut C) {
            ctx.spawn(|c| c.store(0x40, 8));
            ctx.store(0x40, 8);
            ctx.sync();
        }
    }

    fn witnessed_race() -> (PortableTrace, Race) {
        let pt = PortableTrace::record(&mut Racy);
        let mut report = crate::RaceReport::default();
        report.set_witness_capture(true);
        let det = pt.replay(crate::StintDetector::new(report));
        let race = det.report.races()[0].clone();
        assert!(race.witness.is_some(), "witness capture was enabled");
        (pt, race)
    }

    #[test]
    fn captured_witness_passes_full_check() {
        let (pt, race) = witnessed_race();
        let checker = WitnessChecker::new(&pt.reach).with_trace(&pt.trace);
        let w = race.witness.as_deref().unwrap();
        let (pid, cid) = checker.check_witness(w, &race).unwrap();
        // The concrete pair is real: distinct events by the claimed strands.
        assert_ne!(pid, cid);
        assert_eq!(pt.trace.events[pid as usize].strand, race.prev);
        assert_eq!(pt.trace.events[cid as usize].strand, race.cur);
        // Lineage was captured (the live SpOrder tracks parents).
        assert!(!w.prev_lineage.is_empty());
        assert!(!w.cur_lineage.is_empty());
        assert_eq!(w.prev_lineage.last(), w.cur_lineage.last());
    }

    #[test]
    fn tampered_witnesses_are_rejected() {
        let (pt, race) = witnessed_race();
        let checker = WitnessChecker::new(&pt.reach).with_trace(&pt.trace);
        // Flip an order bit.
        let mut t = race.clone();
        t.witness.as_deref_mut().unwrap().prev_before_heb ^= true;
        assert!(checker.check(&t).is_err());
        // Swap the strands.
        let mut t = race.clone();
        {
            let w = t.witness.as_deref_mut().unwrap();
            std::mem::swap(&mut w.prev.strand, &mut w.cur.strand);
        }
        assert!(checker.check(&t).is_err());
        // Shift the cur span past the strand's actual events.
        let mut t = race.clone();
        {
            let w = t.witness.as_deref_mut().unwrap();
            w.cur.first_event += 1000;
            w.cur.last_event += 1000;
            w.cur.event = None;
        }
        assert!(checker.check(&t).is_err());
        // Point the race at words nobody touched.
        let mut t = race.clone();
        t.word_lo += 0x1000;
        t.word_hi += 0x1000;
        assert!(checker.check(&t).is_err());
        // Drop the witness entirely.
        let mut t = race;
        t.witness = None;
        assert!(checker.check(&t).is_err());
    }

    #[test]
    fn merge_time_constructor_is_deterministic_and_valid() {
        let (pt, race) = witnessed_race();
        let spans = EventSpans::from_trace(&pt.trace);
        let a = Witness::from_spans(&pt.reach, &spans, race.prev, race.cur);
        let b = Witness::from_spans(&pt.reach, &spans, race.prev, race.cur);
        assert_eq!(a, b);
        let checker = WitnessChecker::new(&pt.reach).with_trace(&pt.trace);
        checker.check_witness(&a, &race).unwrap();
        // Render is stable and carries the order evidence.
        assert_eq!(a.render(), b.render());
        assert!(a.render().contains("order=e"));
    }

    #[test]
    fn lineage_is_empty_without_parent_table() {
        let (pt, race) = witnessed_race();
        let (e, h): (Vec<u32>, Vec<u32>) = pt.reach.ranks().unzip();
        let bare = stint_sporder::FrozenReach::from_ranks(e, h);
        let (pl, cl) = lineage_to_common(&bare, race.prev, race.cur);
        assert!(pl.is_empty() && cl.is_empty());
        // A witness captured against the bare substrate passes the bare
        // checker (substrate-only; no trace).
        let spans = EventSpans::from_trace(&pt.trace);
        let w = Witness::from_spans(&bare, &spans, race.prev, race.cur);
        WitnessChecker::new(&bare).check_witness(&w, &race).unwrap();
        // But a lineage-carrying witness is rejected by the bare substrate
        // (chains cannot be re-derived) — and vice versa.
        let lw = race.witness.as_deref().unwrap();
        assert!(WitnessChecker::new(&bare).check_witness(lw, &race).is_err());
        assert!(WitnessChecker::new(&pt.reach)
            .check_witness(&w, &race)
            .is_err());
    }
}
