//! Query-trace record and replay.
//!
//! A trace file is a sequence of length-prefixed query frames in the
//! standard wire format — the same bytes a client would send — so a
//! captured workload can be replayed against any executor (or another
//! system entirely) bit-for-bit.

use crate::protocol::{pack_frames, parse_frame, ProtocolError};
use bytes::Bytes;
use dido_model::Query;
use std::io::{Read, Write};
use std::path::Path;

/// Trace-file magic ("DIDO" trace, version 1).
const MAGIC: &[u8; 8] = b"DIDOTRC1";

/// Errors from trace I/O.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a trace file / wrong version.
    BadMagic,
    /// A frame failed to decode.
    BadFrame(ProtocolError),
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a DIDO trace file"),
            TraceError::BadFrame(e) => write!(f, "corrupt trace frame: {e:?}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Write `queries` as a replayable trace file.
pub fn write_trace(path: &Path, queries: &[Query]) -> Result<(), TraceError> {
    let mut writer = TraceWriter::create(path)?;
    writer.append(queries)?;
    writer.flush()
}

/// Streaming trace appender: the magic goes out once at creation and
/// every [`TraceWriter::append`] packs its queries into frames and
/// writes them at the tail, so recording costs O(batch) per batch
/// instead of the old record-buffer-and-rewrite-history scheme (which
/// held every query ever seen in memory and rewrote the whole file on a
/// cadence — O(n²) I/O over a server's lifetime). Files are readable by
/// [`read_trace`] at any point after a [`TraceWriter::flush`].
#[derive(Debug)]
pub struct TraceWriter {
    out: std::io::BufWriter<std::fs::File>,
    queries: u64,
    bytes: u64,
}

impl TraceWriter {
    /// Create (truncate) `path` and write the trace header.
    pub fn create(path: &Path) -> Result<TraceWriter, TraceError> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(MAGIC)?;
        Ok(TraceWriter {
            out,
            queries: 0,
            bytes: MAGIC.len() as u64,
        })
    }

    /// Append one batch of queries as wire frames.
    pub fn append(&mut self, queries: &[Query]) -> Result<(), TraceError> {
        for frame in pack_frames(queries, crate::protocol::DEFAULT_FRAME_CAPACITY) {
            self.out.write_all(&(frame.len() as u32).to_le_bytes())?;
            self.out.write_all(&frame)?;
            self.bytes += 4 + frame.len() as u64;
        }
        self.queries += queries.len() as u64;
        Ok(())
    }

    /// Queries recorded so far.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Bytes written so far (header included) — drive size-based
    /// rotation off this.
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Flush buffered frames to disk.
    pub fn flush(&mut self) -> Result<(), TraceError> {
        self.out.flush()?;
        Ok(())
    }
}

/// Read a trace file back into queries (in recorded order). A final
/// frame whose length prefix or body is cut off by EOF — the tail a
/// writer had not flushed when its process died — ends the trace; a
/// complete frame that does not decode is an error.
pub fn read_trace(path: &Path) -> Result<Vec<Query>, TraceError> {
    let mut input = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TraceError::BadMagic);
    }
    let mut queries = Vec::new();
    loop {
        let mut len_buf = [0u8; 4];
        match input.read_exact(&mut len_buf) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut buf = Vec::new();
        (&mut input).take(len as u64).read_to_end(&mut buf)?;
        if buf.len() < len {
            break;
        }
        let frame = Bytes::from(buf);
        queries.extend(parse_frame(&frame).map_err(TraceError::BadFrame)?);
    }
    Ok(queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dido-trace-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_a_mixed_trace() {
        let queries: Vec<Query> = (0..500)
            .map(|i| match i % 3 {
                0 => Query::set(format!("k{i}"), vec![b'v'; i % 100]),
                1 => Query::get(format!("k{i}")),
                _ => Query::delete(format!("k{i}")),
            })
            .collect();
        let path = tmp("roundtrip");
        write_trace(&path, &queries).unwrap();
        let back = read_trace(&path).unwrap();
        assert_eq!(back, queries);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_appends_read_back_as_one_trace() {
        let queries: Vec<Query> = (0..900)
            .map(|i| match i % 3 {
                0 => Query::set(format!("s{i}"), vec![b'x'; i % 64]),
                1 => Query::get(format!("s{i}")),
                _ => Query::delete(format!("s{i}")),
            })
            .collect();
        let path = tmp("streamed");
        let mut w = TraceWriter::create(&path).unwrap();
        for chunk in queries.chunks(117) {
            w.append(chunk).unwrap();
        }
        assert_eq!(w.queries(), 900);
        w.flush().unwrap();
        assert_eq!(
            w.bytes_written(),
            std::fs::metadata(&path).unwrap().len(),
            "bytes_written must track the on-disk size"
        );
        let back = read_trace(&path).unwrap();
        assert_eq!(back, queries, "streamed file must equal a one-shot trace");
        drop(w);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_trace_is_fine() {
        let path = tmp("empty");
        write_trace(&path, &[]).unwrap();
        assert!(read_trace(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_non_trace_files() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a trace").unwrap();
        assert!(matches!(read_trace(&path), Err(TraceError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detects_truncation() {
        // Truncation inside a complete frame — its length prefix intact —
        // is corruption, not an unflushed tail.
        let queries: Vec<Query> = (0..50).map(|i| Query::get(format!("k{i}"))).collect();
        let path = tmp("trunc");
        write_trace(&path, &queries).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let frame_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        bytes[8..12].copy_from_slice(&(frame_len - 3).to_le_bytes());
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_trace(&path), Err(TraceError::BadFrame(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_trace_cut_mid_frame_reads_back_its_complete_frames() {
        let path = tmp("cut");
        let mut w = TraceWriter::create(&path).unwrap();
        let first = [Query::set("a", "1"), Query::set("b", "2")];
        w.append(&first).unwrap();
        w.flush().unwrap();
        let whole = w.bytes_written() as usize;
        w.append(&[Query::set("c", "3")]).unwrap();
        w.flush().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut inside the second frame's length prefix, then inside its
        // body: either way the trace is the first frame.
        for cut in [whole + 2, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert_eq!(read_trace(&path).unwrap(), first, "cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }
}
