//! `expected.json`: what every input must report, derived independently of
//! the code under test — suite kernels are race-free by construction, buggy
//! kernels come from `Variant::Vanilla` at word granularity, scatter programs
//! from their planted pairs, and the truncated payload is corrupt because it
//! was cut.

use stint_bench::json::{self, Value};

use crate::stats::racy_digest;

const EXPECTED_JSON: &str = include_str!("../expected.json");

/// What one named input must report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub name: String,
    /// Size of the racy-word set.
    pub racy_words: u64,
    /// FNV-1a of the sorted set relative to its smallest word (see
    /// [`racy_digest`]).
    pub racy_fnv: u64,
    /// The serve status a session over this input must come back with.
    pub status: String,
}

impl Expected {
    pub fn race_free(name: &str) -> Expected {
        Expected::from_words(name, &[])
    }

    pub fn from_words(name: &str, sorted_words: &[u64]) -> Expected {
        let (racy_words, racy_fnv) = racy_digest(sorted_words);
        Expected {
            name: name.to_string(),
            racy_words,
            racy_fnv,
            status: if racy_words == 0 { "ok" } else { "racy" }.to_string(),
        }
    }

    /// `None` when `sorted_words` is the expected set, else what differs.
    pub fn mismatch(&self, sorted_words: &[u64]) -> Option<String> {
        let (n, fnv) = racy_digest(sorted_words);
        ((n, fnv) != (self.racy_words, self.racy_fnv)).then(|| {
            format!(
                "{}: racy words {n} (fnv {fnv:016x}), expected {} (fnv {:016x})",
                self.name, self.racy_words, self.racy_fnv
            )
        })
    }

    pub fn json(&self, derived: &str) -> String {
        format!(
            "    {{\"name\": \"{}\", \"derived\": \"{derived}\", \"racy_words\": {}, \"racy_fnv\": \"{:016x}\", \"status\": \"{}\"}}",
            self.name, self.racy_words, self.racy_fnv, self.status
        )
    }
}

fn parse(src: &str) -> Result<Vec<Expected>, String> {
    let doc = json::parse(src)?;
    let inputs = doc
        .get("inputs")
        .and_then(Value::as_array)
        .ok_or("expected.json: no inputs array")?;
    inputs
        .iter()
        .map(|v| {
            let text = |k: &str| {
                v.get(k)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("expected.json: input without {k}"))
            };
            Ok(Expected {
                name: text("name")?.to_string(),
                racy_words: v
                    .get("racy_words")
                    .and_then(Value::as_u64)
                    .ok_or("expected.json: input without racy_words")?,
                racy_fnv: u64::from_str_radix(text("racy_fnv")?, 16)
                    .map_err(|e| format!("expected.json: bad racy_fnv: {e}"))?,
                status: text("status")?.to_string(),
            })
        })
        .collect()
}

/// The committed expectations, in file order.
pub fn all() -> Vec<Expected> {
    parse(EXPECTED_JSON).expect("benchmark/expected.json is malformed")
}

/// The committed expectation for `name`.
///
/// # Panics
/// Panics when `expected.json` has no such input: every input a workload
/// uses must be listed.
pub fn of(name: &str) -> Expected {
    all()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("benchmark/expected.json lists no input {name:?}"))
}
