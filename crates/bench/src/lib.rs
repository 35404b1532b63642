//! Experiment harness utilities: the uniform reporting layer ([`Table`],
//! [`Json`]) and shared workload shorthands used by the `e*` experiment
//! binaries.
//!
//! Every table row carries the [`cgc_graphs::WorkloadSpec`] string of the
//! instance it measured, and every table header carries the executor
//! thread count and the detected hardware cores — so numbers from
//! different machines (or different `CGC_THREADS` settings) stay
//! comparable, and any row can be reproduced by parsing its workload
//! column. [`Json`] is the emitter behind `CGC_TABLE_JSON`: every table
//! lands in one `cgc-bench/v1` document.

#![forbid(unsafe_code)]

use cgc_cluster::{available_threads, ParallelConfig};
use cgc_graphs::WorkloadSpec;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Tables emitted to the `CGC_TABLE_JSON` file so far in this process —
/// every emission atomically replaces the file with the accumulated
/// document, so it is always complete, valid JSON.
static EMITTED_TABLES: Mutex<Vec<Json>> = Mutex::new(Vec::new());

/// An experiment table printed aligned and as CSV, with a mandatory
/// threads/cores header and a workload spec column on every row.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    threads: usize,
    cores: usize,
}

impl Table {
    /// New table with the experiment's own column headers. The `workload`
    /// column is prepended automatically and the executor context
    /// (threads from `CGC_THREADS`, detected cores) is captured here —
    /// override with [`Table::with_threads`] when runs use an explicit
    /// [`ParallelConfig`].
    pub fn new(title: &str, headers: &[&str]) -> Self {
        let mut all = Vec::with_capacity(headers.len() + 1);
        all.push("workload".to_owned());
        all.extend(headers.iter().map(|s| (*s).to_owned()));
        Table {
            title: title.to_owned(),
            headers: all,
            rows: Vec::new(),
            threads: ParallelConfig::from_env().threads(),
            cores: available_threads(),
        }
    }

    /// Overrides the reported thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Appends one row measured on `workload` (stringified cells for the
    /// experiment's own columns). Use the spec's `Display` string for
    /// graph workloads; non-graph experiments (pure sketch measurements)
    /// pass a compact `family:key=value` descriptor in the same grammar.
    ///
    /// # Panics
    ///
    /// Panics if the cell arity differs from the header count.
    pub fn row(&mut self, workload: &str, cells: Vec<String>) {
        assert_eq!(
            cells.len() + 1,
            self.headers.len(),
            "row arity mismatch (headers do not count the workload column)"
        );
        let mut full = Vec::with_capacity(self.headers.len());
        full.push(workload.to_owned());
        full.extend(cells);
        self.rows.push(full);
    }

    /// [`Table::row`] taking the spec directly.
    pub fn row_for(&mut self, workload: &WorkloadSpec, cells: Vec<String>) {
        self.row(&workload.to_string(), cells);
    }

    /// Prints the table aligned, then as CSV (machine-readable). The CSV
    /// carries `threads`/`cores` columns so concatenated CSVs from
    /// different machines stay self-describing.
    ///
    /// When the `CGC_TABLE_JSON` environment variable names a file, the
    /// table is additionally appended to that file in the `cgc-bench/v1`
    /// JSON schema (see [`Table::emit_json`]), so an experiment sweep can
    /// be archived.
    pub fn print(&self) {
        self.print_aligned_csv();
        if let Ok(path) = std::env::var("CGC_TABLE_JSON") {
            if !path.is_empty() {
                self.emit_json(&path);
            }
        }
    }

    /// Appends this table to the `cgc-bench/v1` JSON document at `path`:
    /// all tables emitted by this process so far are accumulated and the
    /// file is **atomically replaced** (written to a temp file in the same
    /// directory, then renamed over `path`), so a concurrent reader always
    /// sees a complete, valid JSON document — never a truncated
    /// mid-rewrite one. One file per process — a later path simply
    /// receives every table emitted so far.
    ///
    /// Telemetry must not take the experiment down: on I/O failure the
    /// emission is dropped with a one-time stderr warning instead of
    /// panicking.
    pub fn emit_json(&self, path: &str) {
        let mut acc = EMITTED_TABLES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        acc.push(self.to_json());
        let doc = bench_report(
            ParallelConfig::from_env().threads(),
            vec![("tables", Json::Arr(acc.clone()))],
        );
        if let Err(e) = try_write_json(path, &doc) {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "cgc_bench: cannot write CGC_TABLE_JSON file {path}: {e} \
                     (table telemetry dropped; warning once per process)"
                );
            });
        }
    }

    fn print_aligned_csv(&self) {
        println!("\n== {} ==", self.title);
        println!("[threads={} cores={}]", self.threads, self.cores);
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
        println!("-- csv --");
        println!("{},threads,cores", self.headers.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| csv_cell(c)).collect();
            println!("{},{},{}", cells.join(","), self.threads, self.cores);
        }
    }

    /// The table as a [`Json`] section in the shared bench schema.
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Json::Obj(
                    self.headers
                        .iter()
                        .zip(row)
                        .map(|(h, c)| (h.clone(), Json::Str(c.clone())))
                        .collect(),
                )
            })
            .collect();
        Json::Obj(vec![
            ("title".into(), Json::Str(self.title.clone())),
            ("threads".into(), Json::U64(self.threads as u64)),
            ("cores".into(), Json::U64(self.cores as u64)),
            ("rows".into(), Json::Arr(rows)),
        ])
    }
}

/// RFC-4180 quoting for one CSV cell: workload spec strings contain
/// commas, so any cell with a comma, quote or newline is double-quoted.
fn csv_cell(cell: &str) -> String {
    if cell.contains([',', '"', '\n']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_owned()
    }
}

/// A JSON value for the shared bench/report schema — the workspace builds
/// offline, so this stands in for a serde dependency.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// Unsigned integer.
    U64(u64),
    /// String (escaped on output).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::U64(v as u64)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_owned())
    }
}

impl Json {
    /// Object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{pad}  ");
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}]");
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    let _ = write!(out, "{pad}  \"{k}\": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{pad}}}");
            }
        }
    }
}

/// Wraps `sections` in the shared `cgc-bench/v1` envelope: schema tag plus
/// the hardware/executor context every consumer needs to compare numbers
/// across machines. [`Table::emit_json`] wraps its tables in it.
pub fn bench_report(threads: usize, sections: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("schema", Json::from("cgc-bench/v1")),
        (
            "hardware",
            Json::obj(vec![
                ("detected_cores", Json::from(available_threads())),
                ("threads", Json::from(threads)),
            ]),
        ),
    ];
    pairs.extend(sections);
    Json::obj(pairs)
}

/// Writes a pretty-printed JSON document atomically: the document goes to
/// a temp file in the target's directory, then renames over `path`, so a
/// reader concurrent with the write sees either the old complete document
/// or the new one — never a truncation.
///
/// # Errors
///
/// Any I/O error from the temp write or the rename (the temp file is
/// cleaned up on a failed rename).
pub fn try_write_json(path: &str, json: &Json) -> std::io::Result<()> {
    let target = std::path::Path::new(path);
    let dir = match target.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => std::path::Path::new("."),
    };
    let file = target
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("cgc_json");
    // Per-process temp name: concurrent *processes* each rename their own
    // complete document (last one wins whole); threads within a process
    // serialize above via EMITTED_TABLES.
    let tmp = dir.join(format!(".{file}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, json.pretty())?;
    if let Err(e) = std::fs::rename(&tmp, target) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// True when `CGC_E_SMOKE` asks experiment binaries for tiny CI-sized
/// sweeps (any value but `0`).
pub fn smoke() -> bool {
    std::env::var("CGC_E_SMOKE").is_ok_and(|v| v != "0")
}

/// The standard E1/E14 dense workload: `c` planted mixture blocks of size
/// `k` over singleton clusters, as a [`WorkloadSpec`].
pub fn dense_workload(c: usize, k: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        cgc_graphs::WorkloadFamily::Mixture {
            c,
            k,
            anti: 0.03,
            ext: 2,
            bg: (c * k) / 4,
            bgp: 0.05,
        },
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_consistent_arity() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row("gnp:n=10,p=0.5,seed=1", vec!["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a"]);
        t.row("w", vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_cells_with_commas_are_quoted() {
        assert_eq!(csv_cell("plain"), "plain");
        assert_eq!(csv_cell("gnp:n=10,p=0.5"), "\"gnp:n=10,p=0.5\"");
        assert_eq!(csv_cell("a\"b"), "\"a\"\"b\"");
    }

    #[test]
    fn table_json_carries_context() {
        let mut t = Table::new("demo", &["x"]).with_threads(4);
        t.row_for(&WorkloadSpec::gnp(10, 0.5, 1), vec!["7".into()]);
        let j = t.to_json();
        let s = j.pretty();
        assert!(s.contains("\"threads\": 4"));
        assert!(s.contains("gnp:n=10,p=0.5,seed=1"));
        assert!(s.contains("\"workload\""));
    }

    #[test]
    fn emit_json_survives_an_unwritable_path() {
        // Telemetry must not take the process down: a nonexistent target
        // directory warns on stderr instead of panicking.
        let mut t = Table::new("emit-unwritable", &["x"]);
        t.row("gnp:n=10,p=0.5,seed=1", vec!["1".into()]);
        t.emit_json("/nonexistent-cgc-dir/sub/tables.json");
    }

    #[test]
    fn try_write_json_is_atomic_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cgc_atomic_write_{}.json", std::process::id()));
        let path_str = path.to_str().unwrap();
        try_write_json(path_str, &Json::obj(vec![("k", Json::from(1u64))])).unwrap();
        try_write_json(path_str, &Json::obj(vec![("k", Json::from(2u64))])).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains("\"k\": 2"), "rename replaced the document");
        let leftover: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(&format!("cgc_atomic_write_{}.json.tmp", std::process::id())))
            .collect();
        let _ = std::fs::remove_file(&path);
        assert!(
            leftover.is_empty(),
            "temp files must not linger: {leftover:?}"
        );
    }

    #[test]
    fn emit_json_accumulates_tables_in_one_valid_envelope() {
        let path =
            std::env::temp_dir().join(format!("cgc_table_json_test_{}.json", std::process::id()));
        let path_str = path.to_str().unwrap();
        let mut a = Table::new("emit-alpha", &["x"]).with_threads(2);
        a.row("gnp:n=10,p=0.5,seed=1", vec!["1".into()]);
        a.emit_json(path_str);
        let mut b = Table::new("emit-beta", &["y"]).with_threads(3);
        b.row("gnp:n=20,p=0.5,seed=2", vec!["2".into()]);
        b.emit_json(path_str);
        let doc = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(doc.contains("cgc-bench/v1"), "schema envelope present");
        assert!(doc.contains("\"tables\""));
        assert!(
            doc.contains("emit-alpha") && doc.contains("emit-beta"),
            "both tables accumulated in the rewritten file"
        );
        assert!(doc.contains("gnp:n=20,p=0.5,seed=2"));
    }

    #[test]
    fn json_escapes_and_nests() {
        let j = Json::obj(vec![
            ("s", Json::from("a\"b\\c\nd")),
            ("arr", Json::Arr(vec![Json::U64(1), Json::obj(vec![])])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let s = j.pretty();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(s.contains("    1,\n    {}\n"), "nested array items: {s}");
        assert!(s.contains("[]"));
    }

    #[test]
    fn bench_report_has_schema_and_hardware() {
        let r = bench_report(2, vec![("x", Json::from(1u64))]);
        let s = r.pretty();
        assert!(s.contains("cgc-bench/v1"));
        assert!(s.contains("\"detected_cores\""));
        assert!(s.contains("\"threads\": 2"));
    }

    #[test]
    fn dense_workload_roundtrips_as_string() {
        let w = dense_workload(3, 26, 19);
        let back: WorkloadSpec = w.to_string().parse().unwrap();
        assert_eq!(back, w);
    }
}
