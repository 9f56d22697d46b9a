//! JSONL checkpoint log: streaming persistence of completed engine
//! tasks, so an interrupted multi-hour sweep resumes instead of
//! restarting.
//!
//! Every completed task appends one self-contained line:
//!
//! ```text
//! {"type":"task","index":3,"label":"12/li","records":5000,"payload":{"predictions":5000,"correct":3120}}
//! ```
//!
//! The `payload` is an opaque JSON fragment chosen by the caller (the
//! sweep path stores exact integer `RunStats`, so a resumed merge is
//! byte-identical to an uninterrupted run). Appends are flushed per
//! line; a crash can at worst leave one torn final line, which
//! [`CheckpointLog::open`] skips on reload. Entries are validated
//! against the current task list by index *and* label, so a stale
//! checkpoint from a different sweep shape is ignored rather than
//! merged. Sweep labels name the configuration and the benchmark; the
//! suite those benchmarks came from is keyed by the log's path.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::report::json_string;
use crate::run::RunStats;

/// One completed-task entry read back from a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// The task's index in its batch.
    pub index: usize,
    /// The task's label (must match the batch's label at `index` to be
    /// trusted on resume).
    pub label: String,
    /// Records the task simulated (for throughput accounting).
    pub records: u64,
    /// The caller-defined result payload, as a raw JSON fragment.
    pub payload: String,
}

/// A seeded slot per task index: the `(payload, records)` of a
/// checkpointed completion, or `None` if the task still has to run.
type SeededPayloads = Vec<Option<(String, u64)>>;

/// An append-only JSONL checkpoint file.
#[derive(Debug)]
pub struct CheckpointLog {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

impl CheckpointLog {
    /// Opens (creating if needed) the log at `path` and returns it along
    /// with every valid entry already present. Malformed lines — e.g. a
    /// torn final line from a crash mid-append — are skipped.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation, reading an
    /// existing log, or opening the append handle.
    pub fn open(path: &Path) -> io::Result<(CheckpointLog, Vec<CheckpointEntry>)> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let entries = match fs::read_to_string(path) {
            Ok(text) => text.lines().filter_map(parse_entry).collect(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok((
            CheckpointLog {
                path: path.to_path_buf(),
                writer: Mutex::new(BufWriter::new(file)),
            },
            entries,
        ))
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed task and flushes, so the entry survives a
    /// crash immediately after this call returns. `payload` must be a
    /// single-line JSON fragment.
    ///
    /// # Errors
    ///
    /// Propagates write and flush errors.
    ///
    /// # Panics
    ///
    /// Panics if `payload` or `label` contains a newline (it would tear
    /// the line-oriented format).
    pub fn append(&self, index: usize, label: &str, records: u64, payload: &str) -> io::Result<()> {
        assert!(
            !payload.contains('\n') && !label.contains('\n'),
            "checkpoint entries must be single lines"
        );
        let line = format!(
            "{{\"type\":\"task\",\"index\":{index},\"label\":{},\"records\":{records},\"payload\":{payload}}}\n",
            json_string(label)
        );
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        w.write_all(line.as_bytes())?;
        w.flush()
    }

    /// Loads a checkpoint (when `path` is given) and distributes its
    /// entries over the task list: returns the open log plus, for every
    /// task index, the `(payload, records)` of its completed entry if
    /// one matches by index and label. With `path == None` the seeded
    /// vector is all-`None` and no log is opened.
    ///
    /// # Errors
    ///
    /// Propagates [`CheckpointLog::open`] errors.
    pub(crate) fn load_seeded(
        path: Option<&Path>,
        labels: &[String],
    ) -> io::Result<(Option<CheckpointLog>, SeededPayloads)> {
        let mut seeded: SeededPayloads = (0..labels.len()).map(|_| None).collect();
        let Some(path) = path else {
            return Ok((None, seeded));
        };
        let (log, entries) = CheckpointLog::open(path)?;
        for e in entries {
            if labels.get(e.index).is_some_and(|l| *l == e.label) {
                seeded[e.index] = Some((e.payload, e.records));
            }
        }
        Ok((Some(log), seeded))
    }
}

/// Parses one checkpoint line; `None` for anything malformed.
fn parse_entry(line: &str) -> Option<CheckpointEntry> {
    let line = line.trim();
    let rest = line.strip_prefix("{\"type\":\"task\",\"index\":")?;
    let (index, rest) = split_u64(rest)?;
    let rest = rest.strip_prefix(",\"label\":\"")?;
    let (label, rest) = split_json_string(rest)?;
    let rest = rest.strip_prefix(",\"records\":")?;
    let (records, rest) = split_u64(rest)?;
    let payload = rest.strip_prefix(",\"payload\":")?.strip_suffix('}')?;
    Some(CheckpointEntry {
        index: usize::try_from(index).ok()?,
        label,
        records,
        payload: payload.to_owned(),
    })
}

/// Splits a leading decimal integer off `s`.
fn split_u64(s: &str) -> Option<(u64, &str)> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let (digits, rest) = s.split_at(end);
    Some((digits.parse().ok()?, rest))
}

/// Splits a JSON string body (after the opening quote) off `s`,
/// unescaping the subset [`json_string`] emits.
fn split_json_string(s: &str) -> Option<(String, &str)> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// Encodes [`RunStats`] as an exact-integer payload, so checkpointed
/// results merge bit-identically to freshly simulated ones.
pub fn encode_stats(stats: &RunStats) -> String {
    format!(
        "{{\"predictions\":{},\"correct\":{}}}",
        stats.predictions, stats.correct
    )
}

/// Decodes an [`encode_stats`] payload.
pub fn decode_stats(payload: &str) -> Option<RunStats> {
    let rest = payload.strip_prefix("{\"predictions\":")?;
    let (predictions, rest) = split_u64(rest)?;
    let rest = rest.strip_prefix(",\"correct\":")?;
    let (correct, rest) = split_u64(rest)?;
    if rest != "}" {
        return None;
    }
    Some(RunStats {
        predictions,
        correct,
    })
}

/// Encodes a row of table cells as a JSON string array payload.
pub fn encode_rows(cells: &[String]) -> String {
    let mut out = String::from("[");
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(cell));
    }
    out.push(']');
    out
}

/// Decodes an [`encode_rows`] payload.
pub fn decode_rows(payload: &str) -> Option<Vec<String>> {
    let mut rest = payload.strip_prefix('[')?;
    let mut cells = Vec::new();
    if let Some(done) = rest.strip_prefix(']') {
        return done.is_empty().then_some(cells);
    }
    loop {
        rest = rest.strip_prefix('"')?;
        let (cell, after) = split_json_string(rest)?;
        cells.push(cell);
        if let Some(more) = after.strip_prefix(',') {
            rest = more;
        } else {
            return after.strip_prefix(']')?.is_empty().then_some(cells);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dfcm_checkpoint_tests");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(name);
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn append_then_reopen_roundtrips() {
        let path = temp_log("roundtrip.jsonl");
        let (log, initial) = CheckpointLog::open(&path).unwrap();
        assert!(initial.is_empty());
        log.append(0, "cfg0/li", 500, "{\"predictions\":500,\"correct\":100}")
            .unwrap();
        log.append(3, "cfg1/go", 200, "{\"predictions\":200,\"correct\":50}")
            .unwrap();
        drop(log);
        let (_, entries) = CheckpointLog::open(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].index, 0);
        assert_eq!(entries[0].label, "cfg0/li");
        assert_eq!(entries[1].records, 200);
        assert_eq!(
            decode_stats(&entries[1].payload),
            Some(RunStats {
                predictions: 200,
                correct: 50
            })
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_skipped() {
        let path = temp_log("torn.jsonl");
        let (log, _) = CheckpointLog::open(&path).unwrap();
        log.append(1, "a", 10, "{\"predictions\":10,\"correct\":1}")
            .unwrap();
        drop(log);
        // Simulate a crash mid-append: a torn, incomplete trailing line.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"{\"type\":\"task\",\"index\":2,\"lab")
            .unwrap();
        drop(file);
        let (_, entries) = CheckpointLog::open(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].index, 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_seeded_validates_index_and_label() {
        let path = temp_log("seeded.jsonl");
        let (log, _) = CheckpointLog::open(&path).unwrap();
        log.append(0, "cfg0/a", 5, "{}").unwrap();
        log.append(1, "stale-label", 5, "{}").unwrap();
        log.append(99, "out-of-range", 5, "{}").unwrap();
        drop(log);
        let labels = vec!["cfg0/a".to_owned(), "cfg0/b".to_owned()];
        let (log, seeded) = CheckpointLog::load_seeded(Some(&path), &labels).unwrap();
        assert!(log.is_some());
        assert_eq!(seeded[0], Some(("{}".to_owned(), 5)));
        assert_eq!(seeded[1], None, "label mismatch must not seed");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn load_seeded_without_path_is_empty() {
        let labels = vec!["x".to_owned()];
        let (log, seeded) = CheckpointLog::load_seeded(None, &labels).unwrap();
        assert!(log.is_none());
        assert_eq!(seeded, vec![None]);
    }

    #[test]
    fn stats_payload_roundtrips_exactly() {
        for (p, c) in [(0u64, 0u64), (1, 1), (u64::MAX, u64::MAX / 3)] {
            let stats = RunStats {
                predictions: p,
                correct: c,
            };
            assert_eq!(decode_stats(&encode_stats(&stats)), Some(stats));
        }
        assert_eq!(decode_stats("{\"predictions\":1}"), None);
        assert_eq!(decode_stats("garbage"), None);
    }

    #[test]
    fn rows_payload_roundtrips_with_escapes() {
        let rows = vec![
            "li".to_owned(),
            "a,b\"c\\d".to_owned(),
            String::new(),
            "tab\there".to_owned(),
        ];
        assert_eq!(decode_rows(&encode_rows(&rows)), Some(rows));
        assert_eq!(decode_rows(&encode_rows(&[])), Some(Vec::new()));
        assert_eq!(decode_rows("not json"), None);
        assert_eq!(decode_rows("[\"unterminated"), None);
    }

    #[test]
    fn labels_with_escapes_roundtrip_through_the_log() {
        let path = temp_log("escapes.jsonl");
        let (log, _) = CheckpointLog::open(&path).unwrap();
        log.append(0, "odd \"label\"\twith\\escapes", 1, "{}")
            .unwrap();
        drop(log);
        let (_, entries) = CheckpointLog::open(&path).unwrap();
        assert_eq!(entries[0].label, "odd \"label\"\twith\\escapes");
        let _ = fs::remove_file(&path);
    }
}
