//! Process model: the driver re-executes itself once per step with ASLR
//! disabled. Heap addresses leak into the detector (the suite kernels hand it
//! the addresses of their real buffers), so `treap_visited`, `coalesce_bytes`
//! and `reach_hits` differ run to run under ASLR and repeat exactly without
//! it. A child reports to its parent with one JSON object on the last line of
//! its standard output.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use stint_bench::json::{self, Value};

extern "C" {
    // Raw libc `personality(2)`; `0xffff_ffff` queries without changing.
    fn personality(persona: std::ffi::c_ulong) -> std::ffi::c_int;
}

const ADDR_NO_RANDOMIZE: std::ffi::c_ulong = 0x004_0000;
const PERSONALITY_QUERY: std::ffi::c_ulong = 0xffff_ffff;

/// Clear address-space randomisation for every process exec'd from here on.
/// Where the kernel or a sandbox refuses, children run with ASLR and say so
/// (`aslr_label`).
fn disable_aslr_for_children() {
    // SAFETY: `personality` takes and returns plain integers and touches no
    // memory of this process; a failure is reported through its return value.
    unsafe {
        let cur = personality(PERSONALITY_QUERY);
        if cur >= 0 {
            personality(cur as std::ffi::c_ulong | ADDR_NO_RANDOMIZE);
        }
    }
}

/// `"off"` when *this* process runs without ASLR (inherited across exec),
/// else `"on"`.
pub fn aslr_label() -> &'static str {
    // SAFETY: as above; a pure query.
    let cur = unsafe { personality(PERSONALITY_QUERY) };
    if cur >= 0 && (cur as std::ffi::c_ulong & ADDR_NO_RANDOMIZE) != 0 {
        "off"
    } else {
        "on"
    }
}

/// Peak resident set of this process, MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `benchmark/out`: relative when run from the repo root, as the driver runs
/// it (unix socket paths are limited to ~100 bytes, and a checkout can sit
/// deep), else beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    let dir = if Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    };
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A scratch directory below `benchmark/out`, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let dir = out_dir().join(format!("tmp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Re-execute this binary as `child <args>` with ASLR off, wait for it, and
/// parse the JSON object on the last line of its standard output. The
/// child's diagnostics go straight to our standard error.
pub fn run_child(args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    disable_aslr_for_children();
    let out = Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "child {args:?} exited with {}: {}",
            out.status,
            stdout.trim_end()
        ));
    }
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("child {args:?} printed nothing"))?;
    json::parse(last).map_err(|e| format!("child {args:?} printed bad JSON ({e}): {last}"))
}

/// Quote a string as a JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A JSON number; a non-finite value is a bug in the probe that made it.
pub fn jnum(x: f64) -> String {
    assert!(x.is_finite(), "non-finite metric value");
    format!("{x}")
}

pub fn jarr(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| jnum(*x)).collect();
    format!("[{}]", parts.join(", "))
}

pub fn jobj(members: &[(&str, String)]) -> String {
    let parts: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}: {v}", jstr(k)))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

pub fn f64s(v: &Value, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

pub fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

pub fn strs(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|s| s.as_str().map(String::from))
                .collect()
        })
        .unwrap_or_default()
}
