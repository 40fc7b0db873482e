//! The race report card (`stint-report-v1`): the one place the format is
//! written, read and checked.
//!
//! `--report-json` writes a [`Card`]; `witness verify` and the tests read
//! it back through [`Card::read`], which is typed and fails
//! closed — every integer is checked to fit the field it lands in (a strand
//! id above `u32::MAX`, a fraction, or a value the `f64`-backed parser
//! cannot hold exactly is an error, never a narrowing cast) — and
//! [`Card::check`] applies the structural rules a card must satisfy on its
//! own, without the trace. Whether a witness is *true* of a trace is
//! [`crate::WitnessChecker`]'s job.
//!
//! ```json
//! {
//!   "schema": "stint-report-v1",
//!   "source": "buggy-mmul",
//!   "command": "detect",
//!   "runs": [ { "variant": "STINT", "total": 3, "kept": 3,
//!               "truncated": false, "racy_words": 4,
//!               "racy_intervals": [[16, 20]],
//!               "races": [ { "kind": "write-read", "word_lo": 16,
//!                            "word_hi": 20, "prev": 2, "cur": 5,
//!                            "witness": { "prev": { ... }, ... } } ] } ]
//! }
//! ```

use std::io::Write;

use crate::report::{Race, RaceKind, RaceReport};
use crate::witness::Witness;
use stint_obs::json::{self, Value, Writer};
use stint_sporder::StrandId;

pub const SCHEMA: &str = "stint-report-v1";

/// One report card: what was analysed, by which command, and one [`Run`]
/// per detector variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Card {
    pub source: String,
    pub command: String,
    pub runs: Vec<Run>,
}

/// One variant's report: the totals, an **explicit `truncated` marker**
/// (detail records dropped at the report cap are never silent), the
/// coalesced racy word intervals, and every kept race — with its structured
/// witness when capture was on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Run {
    pub variant: String,
    pub total: u64,
    pub kept: u64,
    pub truncated: bool,
    pub racy_words: u64,
    pub racy_intervals: Vec<(u64, u64)>,
    pub races: Vec<Race>,
}

impl Run {
    pub fn of(variant: &str, report: &RaceReport) -> Run {
        Run {
            variant: variant.into(),
            total: report.total,
            kept: report.races().len() as u64,
            truncated: report.truncated(),
            racy_words: report.racy_word_count(),
            racy_intervals: report.racy_intervals(),
            races: report.races().to_vec(),
        }
    }
}

pub(crate) fn array<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    (v.get(key).and_then(Value::as_array)).ok_or_else(|| format!("missing array field {key:?}"))
}

pub(crate) fn flag(v: &Value, key: &str) -> Result<bool, String> {
    (v.get(key).and_then(Value::as_bool)).ok_or_else(|| format!("missing boolean field {key:?}"))
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    let s = v.get(key).and_then(Value::as_str);
    Ok(s.ok_or_else(|| format!("missing string field {key:?}"))?
        .into())
}

/// The largest strand id: what a card's `prev`, `cur`, `strand` and lineage
/// entries are checked against before they become a [`StrandId`].
pub(crate) const STRAND_MAX: u64 = u32::MAX as u64;

pub(crate) fn to_strand(id: u64) -> StrandId {
    StrandId(u32::try_from(id).expect("read with STRAND_MAX as its bound"))
}

/// `items`, each read by `read`; a failure is prefixed with `what` and the
/// index of the item it is in.
fn each<T>(
    what: &str,
    items: &[Value],
    read: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let item = |(i, v)| read(v).map_err(|e| format!("{what} {i}: {e}"));
    items.iter().enumerate().map(item).collect()
}

fn read_race(v: &Value) -> Result<Race, String> {
    let kind = match v.get("kind").and_then(Value::as_str) {
        Some("write-write") => RaceKind::WriteWrite,
        Some("read-write") => RaceKind::ReadWrite,
        Some("write-read") => RaceKind::WriteRead,
        other => return Err(format!("bad race kind {other:?}")),
    };
    let mut race = Race::new(
        kind,
        v.uint("word_lo", u64::MAX)?,
        v.uint("word_hi", u64::MAX)?,
        to_strand(v.uint("prev", STRAND_MAX)?),
        to_strand(v.uint("cur", STRAND_MAX)?),
    );
    race.witness = match v.get("witness") {
        None => return Err("missing witness field (use null)".into()),
        Some(Value::Null) => None,
        Some(w) => Some(Box::new(
            Witness::from_json(w).map_err(|e| format!("witness: {e}"))?,
        )),
    };
    Ok(race)
}

fn read_run(v: &Value) -> Result<Run, String> {
    let pair = |iv: &Value| match iv.as_array() {
        Some([lo, hi]) => Ok((lo.to_uint(u64::MAX)?, hi.to_uint(u64::MAX)?)),
        _ => Err("not a [lo, hi] pair".to_string()),
    };
    Ok(Run {
        variant: string(v, "variant")?,
        total: v.uint("total", u64::MAX)?,
        kept: v.uint("kept", u64::MAX)?,
        truncated: flag(v, "truncated")?,
        racy_words: v.uint("racy_words", u64::MAX)?,
        racy_intervals: each("racy interval", array(v, "racy_intervals")?, pair)?,
        races: each("race", array(v, "races")?, read_race)?,
    })
}

impl Card {
    pub fn new(source: &str, command: &str, runs: &[(String, &RaceReport)]) -> Card {
        Card {
            source: source.into(),
            command: command.into(),
            runs: runs.iter().map(|(v, r)| Run::of(v, r)).collect(),
        }
    }

    pub fn write<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        let mut j = Writer::new(&mut w);
        j.begin_object();
        j.key("schema").str(SCHEMA);
        j.key("source").str(&self.source);
        j.key("command").str(&self.command);
        j.key("runs").begin_array();
        for run in &self.runs {
            j.begin_object();
            j.key("variant").str(&run.variant);
            j.key("total").u64(run.total);
            j.key("kept").u64(run.kept);
            j.key("truncated").bool(run.truncated);
            j.key("racy_words").u64(run.racy_words);
            j.key("racy_intervals").begin_array();
            for (lo, hi) in &run.racy_intervals {
                j.begin_array().u64(*lo).u64(*hi).end();
            }
            j.end();
            j.key("races").begin_array();
            for r in &run.races {
                j.begin_object();
                j.key("kind").str(&r.kind.to_string());
                j.key("word_lo").u64(r.word_lo);
                j.key("word_hi").u64(r.word_hi);
                j.key("prev").u64(r.prev.0.into());
                j.key("cur").u64(r.cur.0.into());
                j.key("witness");
                match &r.witness {
                    Some(w) => w.write_json(&mut j),
                    None => {
                        j.null();
                    }
                }
                j.end();
            }
            j.end().end();
        }
        j.end().end();
        j.finish()
    }

    /// Parse a report card. `Err` says which run, race and field was
    /// missing, of the wrong type, or held a value its field cannot.
    pub fn read(text: &str) -> Result<Card, String> {
        let doc = json::parse(text)?;
        let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
        }
        Ok(Card {
            source: string(&doc, "source")?,
            command: string(&doc, "command")?,
            runs: each("run", array(&doc, "runs")?, read_run)?,
        })
    }

    /// The structural rules: at least one run; per run the kept count must
    /// equal the number of races, the `truncated` marker must be consistent
    /// with `total` vs `kept` (a capped report must say so, an uncapped one
    /// must not), the racy intervals must be sorted, disjoint and sum to
    /// exactly `racy_words`, and every race must cover a non-empty word
    /// range inside some racy interval and carry a witness that is absent
    /// or structurally complete (ordered spans, non-empty lineage chains).
    pub fn check(&self) -> Result<(), String> {
        if self.runs.is_empty() {
            return Err("empty runs array".into());
        }
        self.runs
            .iter()
            .try_for_each(|run| run.check().map_err(|e| format!("{}: {e}", run.variant)))
    }
}

fn ensure(holds: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(why())
    }
}

impl Run {
    fn check(&self) -> Result<(), String> {
        let (kept, total, truncated, n) = (self.kept, self.total, self.truncated, self.races.len());
        ensure(kept == n as u64, || {
            format!("kept={kept} but races array has {n} entries")
        })?;
        ensure(truncated == (kept < total), || {
            format!("truncated={truncated} inconsistent with kept={kept} of total={total}")
        })?;
        let (mut covered, mut prev_hi) = (0u64, 0u64);
        for &(lo, hi) in &self.racy_intervals {
            ensure(lo < hi, || format!("empty interval [{lo}, {hi})"))?;
            ensure(lo >= prev_hi, || {
                format!("intervals not sorted/disjoint ([{lo}, {hi}) after hi={prev_hi})")
            })?;
            prev_hi = hi;
            covered += hi - lo;
        }
        ensure(covered == self.racy_words, || {
            let words = self.racy_words;
            format!("intervals cover {covered} words, racy_words says {words}")
        })?;
        for (j, race) in self.races.iter().enumerate() {
            let (lo, hi) = (race.word_lo, race.word_hi);
            ensure(lo < hi, || {
                format!("race {j}: empty word range [{lo}, {hi})")
            })?;
            let inside = |&(a, b): &(u64, u64)| a <= lo && hi <= b;
            ensure(self.racy_intervals.iter().any(inside), || {
                format!("race {j}: range [{lo}, {hi}) outside every racy interval")
            })?;
            let Some(w) = &race.witness else { continue };
            for (side, e) in [("prev", &w.prev), ("cur", &w.cur)] {
                let (first, last) = (e.first_event, e.last_event);
                ensure(first <= last, || {
                    format!("race {j}: {side} span [{first}, {last}] inverted")
                })?;
            }
            ensure(
                !w.prev_lineage.is_empty() && !w.cur_lineage.is_empty(),
                || format!("race {j}: empty lineage chain"),
            )?;
        }
        Ok(())
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
            ctx.load(0x80, 4);
            ctx.sync();
        }
    }

    fn card(witnesses: bool) -> Card {
        let pt = PortableTrace::record(&mut Racy);
        let mut report = RaceReport::default();
        report.set_witness_capture(witnesses);
        let report = pt.replay(crate::StintDetector::new(report)).report;
        assert!(!report.is_race_free());
        Card::new("racy", "replay", &[("STINT".into(), &report)])
    }

    fn text(card: &Card) -> String {
        let mut buf = Vec::new();
        card.write(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn read_inverts_write() {
        for witnesses in [false, true] {
            let card = card(witnesses);
            assert_eq!(card.runs[0].races[0].witness.is_some(), witnesses);
            let back = Card::read(&text(&card)).unwrap();
            assert_eq!(back, card);
            back.check().unwrap();
        }
    }

    #[test]
    fn read_fails_closed_on_values_that_do_not_fit() {
        let good = text(&card(true));
        let prev = card(true).runs[0].races[0].prev.0;
        for (what, from, to) in [
            (
                "strand id + 2^32",
                format!("\"prev\": {prev},"),
                format!("\"prev\": {},", u64::from(prev) + (1 << 32)),
            ),
            (
                "fractional id",
                format!("\"prev\": {prev},"),
                format!("\"prev\": {prev}.5,"),
            ),
            (
                "beyond 2^53",
                "\"word_lo\": 16,".into(),
                "\"word_lo\": 9007199254740993,".into(),
            ),
            (
                "string for a number",
                "\"total\": 1,".into(),
                "\"total\": \"1\",".into(),
            ),
            (
                "witness strand + 2^32",
                format!("\"strand\": {prev},"),
                format!("\"strand\": {},", u64::from(prev) + (1 << 32)),
            ),
            (
                "missing witness",
                "\"witness\": {".into(),
                "\"w\": {".into(),
            ),
            ("wrong schema", SCHEMA.into(), "stint-report-v0".into()),
        ] {
            assert!(
                good.contains(&from),
                "{what}: fixture lacks {from:?}\n{good}"
            );
            let bad = good.replacen(&from, &to, 1);
            assert!(Card::read(&bad).is_err(), "{what}: accepted\n{bad}");
        }
    }

    #[test]
    fn check_applies_the_structural_rules() {
        let good = card(true);
        good.check().unwrap();
        type Damage = fn(&mut Run);
        let broken: [(&str, Damage); 7] = [
            ("kept", |r| r.kept += 1),
            ("truncated", |r| r.truncated = true),
            ("racy_words", |r| r.racy_words += 1),
            ("interval order", |r| {
                r.racy_intervals.insert(0, (u64::MAX - 1, u64::MAX))
            }),
            ("race outside", |r| r.races[0].word_hi += 1 << 20),
            ("inverted span", |r| {
                let w = r.races[0].witness.as_deref_mut().unwrap();
                w.cur.first_event = w.cur.last_event + 1;
            }),
            ("empty lineage", |r| {
                r.races[0]
                    .witness
                    .as_deref_mut()
                    .unwrap()
                    .prev_lineage
                    .clear()
            }),
        ];
        for (what, damage) in broken {
            let mut bad = good.clone();
            damage(&mut bad.runs[0]);
            assert!(bad.check().is_err(), "{what} passed the check");
        }
        let mut none = good;
        none.runs.clear();
        assert!(none.check().is_err());
    }
}
