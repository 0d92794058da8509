//! Streaming v2 trace writer, plus the crash-safe [`AtomicTraceWriter`]
//! used by `tracectl record`.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use pif_types::RetiredInstr;

use crate::format::{
    encode_record, DEFAULT_CHUNK_RECORDS, MAGIC, MAX_CHUNK_BYTES, MAX_CHUNK_RECORDS, MAX_NAME_LEN,
    VERSION_V2,
};

/// Streams retired instructions into a v2 trace file, holding at most one
/// encoded chunk in memory.
///
/// Records are buffered into a chunk; when the chunk reaches its record
/// capacity it is written out behind an 8-byte header (record count +
/// payload length), and the delta base resets so every chunk decodes
/// independently — that is what makes chunks skippable. [`finish`] seals
/// the file with a terminator chunk carrying the total record count, so
/// readers can tell clean end-of-file from truncation.
///
/// [`finish`]: TraceWriter::finish
///
/// # Example
///
/// ```
/// use pif_trace::{TraceReader, TraceWriter};
/// use pif_types::{Address, RetiredInstr, TrapLevel};
///
/// let mut writer = TraceWriter::new(Vec::new(), "example").unwrap();
/// for i in 0..100u64 {
///     writer.push(&RetiredInstr::simple(Address::new(i * 4), TrapLevel::Tl0)).unwrap();
/// }
/// let bytes = writer.finish().unwrap();
/// let reader = TraceReader::open(bytes.as_slice()).unwrap();
/// assert_eq!(reader.name(), "example");
/// assert_eq!(reader.instrs().count(), 100);
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    /// Encoded payload of the chunk under construction.
    buf: Vec<u8>,
    chunk_records: u32,
    chunk_capacity: u32,
    prev_pc: u64,
    total_records: u64,
    bytes_written: u64,
    finished: bool,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a v2 trace stream on `sink`, writing the file header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink. Rejects names longer than
    /// [`MAX_NAME_LEN`](crate::MAX_NAME_LEN) bytes with
    /// [`io::ErrorKind::InvalidInput`].
    pub fn new(sink: W, name: &str) -> io::Result<Self> {
        Self::with_chunk_records(sink, name, DEFAULT_CHUNK_RECORDS)
    }

    /// As [`TraceWriter::new`] with an explicit chunk capacity (records
    /// per chunk, clamped to `1..=MAX_CHUNK_RECORDS`). Smaller chunks
    /// seek faster and buffer less; larger chunks shave header overhead.
    pub fn with_chunk_records(mut sink: W, name: &str, chunk_records: u32) -> io::Result<Self> {
        if name.len() as u64 > MAX_NAME_LEN as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "trace name too long",
            ));
        }
        sink.write_all(MAGIC)?;
        sink.write_all(&VERSION_V2.to_le_bytes())?;
        sink.write_all(&(name.len() as u32).to_le_bytes())?;
        sink.write_all(name.as_bytes())?;
        Ok(TraceWriter {
            sink,
            buf: Vec::with_capacity(4096),
            chunk_records: 0,
            chunk_capacity: chunk_records.clamp(1, MAX_CHUNK_RECORDS),
            prev_pc: 0,
            total_records: 0,
            bytes_written: (4 + 4 + 4 + name.len()) as u64,
            finished: false,
        })
    }

    /// Appends one retired instruction to the stream.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from flushing a full chunk.
    pub fn push(&mut self, instr: &RetiredInstr) -> io::Result<()> {
        debug_assert!(!self.finished, "push after finish");
        encode_record(&mut self.buf, instr, &mut self.prev_pc);
        self.chunk_records += 1;
        self.total_records += 1;
        // Flush on record count, and also on payload bytes: a record can
        // encode to at most 31 bytes (flags + three 10-byte varints), so
        // flushing within a record's width of MAX_CHUNK_BYTES guarantees
        // every emitted chunk stays within what the reader accepts even
        // at the maximum record capacity.
        if self.chunk_records >= self.chunk_capacity
            || self.buf.len() + 32 > MAX_CHUNK_BYTES as usize
        {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Appends every instruction from an iterator.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from flushing full chunks.
    pub fn extend<I: IntoIterator<Item = RetiredInstr>>(&mut self, instrs: I) -> io::Result<()> {
        for instr in instrs {
            self.push(&instr)?;
        }
        Ok(())
    }

    /// Records pushed so far.
    pub fn records_written(&self) -> u64 {
        self.total_records
    }

    /// Bytes emitted to the sink so far, plus the buffered partial chunk.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
            + if self.chunk_records > 0 {
                8 + self.buf.len() as u64
            } else {
                0
            }
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.chunk_records == 0 {
            return Ok(());
        }
        pif_fail::fail_point!("trace.write.chunk", |e: pif_fail::FailError| Err(
            io::Error::other(e.to_string())
        ));
        self.sink.write_all(&self.chunk_records.to_le_bytes())?;
        self.sink
            .write_all(&(self.buf.len() as u32).to_le_bytes())?;
        self.sink.write_all(&self.buf)?;
        self.bytes_written += 8 + self.buf.len() as u64;
        self.buf.clear();
        self.chunk_records = 0;
        // Each chunk restarts the delta base so it decodes independently.
        self.prev_pc = 0;
        Ok(())
    }

    /// Flushes the final partial chunk, writes the terminator (record
    /// count 0, payload = total record count), and returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors. Dropping a writer without calling `finish`
    /// leaves a truncated (reader-detectable) file.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_chunk()?;
        pif_fail::fail_point!("trace.write.finish", |e: pif_fail::FailError| Err(
            io::Error::other(e.to_string())
        ));
        self.sink.write_all(&0u32.to_le_bytes())?;
        self.sink.write_all(&8u32.to_le_bytes())?;
        self.sink.write_all(&self.total_records.to_le_bytes())?;
        self.bytes_written += 16;
        self.finished = true;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Crash-safe [`TraceWriter`] over a destination *path*: records stream
/// into a hidden sibling temp file, and only a successful
/// [`finish`](AtomicTraceWriter::finish) — which flushes, fsyncs, and
/// atomically renames — makes the destination appear.
///
/// The contract this buys: the destination path is either absent or a
/// complete, terminated trace. A crash (or plain drop) mid-record never
/// leaves a truncated file under the real name; the abandoned temp file
/// is removed on drop, and a temp file orphaned by a hard kill never
/// shadows the destination because its name carries the writing PID.
///
/// `tracectl record` writes through this type, which is what
/// makes killing a long record safe to retry.
#[derive(Debug)]
pub struct AtomicTraceWriter {
    /// `None` only after `finish` has consumed the inner writer.
    writer: Option<TraceWriter<BufWriter<File>>>,
    tmp: PathBuf,
    dest: PathBuf,
}

impl AtomicTraceWriter {
    /// Starts a v2 trace destined for `dest`, staging into a sibling
    /// temp file (`<file>.tmp.<pid>` in the same directory, so the final
    /// rename cannot cross filesystems).
    ///
    /// # Errors
    ///
    /// Everything [`TraceWriter::with_chunk_records`] reports, plus
    /// failure to create the temp file.
    pub fn create(
        dest: impl Into<PathBuf>,
        name: &str,
        chunk_records: u32,
    ) -> io::Result<AtomicTraceWriter> {
        let dest = dest.into();
        let mut tmp_name = dest.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(format!(".tmp.{}", std::process::id()));
        let tmp = dest.with_file_name(tmp_name);
        let file = File::create(&tmp)?;
        match TraceWriter::with_chunk_records(BufWriter::new(file), name, chunk_records) {
            Ok(writer) => Ok(AtomicTraceWriter {
                writer: Some(writer),
                tmp,
                dest,
            }),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// As [`AtomicTraceWriter::create`] with the default chunk capacity.
    pub fn create_default(dest: impl Into<PathBuf>, name: &str) -> io::Result<AtomicTraceWriter> {
        Self::create(dest, name, DEFAULT_CHUNK_RECORDS)
    }

    /// Appends one retired instruction (see [`TraceWriter::push`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from flushing a full chunk.
    pub fn push(&mut self, instr: &RetiredInstr) -> io::Result<()> {
        self.inner_mut().push(instr)
    }

    /// Appends every instruction from an iterator.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from flushing full chunks.
    pub fn extend<I: IntoIterator<Item = RetiredInstr>>(&mut self, instrs: I) -> io::Result<()> {
        self.inner_mut().extend(instrs)
    }

    /// Records pushed so far.
    pub fn records_written(&self) -> u64 {
        self.inner().records_written()
    }

    /// Bytes staged so far, buffered partial chunk included.
    pub fn bytes_written(&self) -> u64 {
        self.inner().bytes_written()
    }

    /// The destination path the trace will appear at after `finish`.
    pub fn dest(&self) -> &Path {
        &self.dest
    }

    /// Seals the trace (terminator, flush, fsync) and atomically renames
    /// it into place, returning the total encoded size in bytes.
    ///
    /// # Errors
    ///
    /// Any I/O failure; on error the temp file is removed and the
    /// destination is left untouched (absent, or whatever it held
    /// before).
    pub fn finish(mut self) -> io::Result<u64> {
        let writer = self.writer.take().expect("writer present until finish");
        let result = (|| {
            let buf = writer.finish()?;
            let file = buf
                .into_inner()
                .map_err(|e| io::Error::other(e.to_string()))?;
            // The fsync-before-rename is the crash-safety half of the
            // contract: rename alone can publish a name whose bytes never
            // reached the disk.
            file.sync_all()?;
            drop(file);
            std::fs::rename(&self.tmp, &self.dest)
        })();
        match result {
            Ok(()) => {
                let bytes = std::fs::metadata(&self.dest).map(|m| m.len()).unwrap_or(0);
                Ok(bytes)
            }
            Err(e) => {
                let _ = std::fs::remove_file(&self.tmp);
                Err(e)
            }
        }
    }

    fn inner(&self) -> &TraceWriter<BufWriter<File>> {
        self.writer.as_ref().expect("writer present until finish")
    }

    fn inner_mut(&mut self) -> &mut TraceWriter<BufWriter<File>> {
        self.writer.as_mut().expect("writer present until finish")
    }
}

impl Drop for AtomicTraceWriter {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            // Abandoned mid-record: close the handle, then discard the
            // staged bytes so nothing masquerades as a finished trace.
            drop(writer);
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pif_types::{Address, TrapLevel};

    fn instr(pc: u64) -> RetiredInstr {
        RetiredInstr::simple(Address::new(pc), TrapLevel::Tl0)
    }

    #[test]
    fn rejects_oversized_name() {
        let name = "x".repeat(MAX_NAME_LEN as usize + 1);
        assert!(TraceWriter::new(Vec::new(), &name).is_err());
    }

    #[test]
    fn empty_trace_is_header_plus_terminator() {
        let bytes = TraceWriter::new(Vec::new(), "e").unwrap().finish().unwrap();
        // magic+version+len+name + terminator header + u64 total.
        assert_eq!(bytes.len(), 4 + 4 + 4 + 1 + 8 + 8);
    }

    #[test]
    fn bytes_written_tracks_sink_and_buffer() {
        let mut w = TraceWriter::with_chunk_records(Vec::new(), "t", 4).unwrap();
        let header = w.bytes_written();
        w.push(&instr(0x1000)).unwrap();
        assert!(w.bytes_written() > header, "buffered chunk counted");
        for i in 1..8 {
            w.push(&instr(0x1000 + i * 4)).unwrap();
        }
        assert_eq!(w.records_written(), 8);
        let total = w.bytes_written();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes.len() as u64, total + 16, "terminator appended");
    }

    #[test]
    fn worst_case_records_never_emit_oversized_chunks() {
        use pif_types::{BranchInfo, BranchKind};
        // Maximum record capacity + records that encode to the maximum
        // ~31 bytes each (full-width PC/target/fall-through deltas): the
        // byte-based flush must cap every chunk at MAX_CHUNK_BYTES so the
        // reader accepts what the writer produced.
        let mut w =
            TraceWriter::with_chunk_records(Vec::new(), "worst", MAX_CHUNK_RECORDS).unwrap();
        let n = 2_300_000u64; // > MAX_CHUNK_BYTES / 31, forces a byte flush
        for i in 0..n {
            let pc = if i % 2 == 0 { u64::MAX / 2 } else { 1 };
            w.push(&RetiredInstr::branch(
                Address::new(pc),
                TrapLevel::Tl0,
                BranchInfo {
                    kind: BranchKind::IndirectCall,
                    taken: true,
                    taken_target: Address::new(pc.wrapping_add(u64::MAX / 3)),
                    fall_through: Address::new(pc.wrapping_sub(u64::MAX / 5)),
                },
            ))
            .unwrap();
        }
        let bytes = w.finish().unwrap();
        let info = crate::scan_info(std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(info.records, n, "every record decodes back");
        assert!(info.chunks >= 2, "byte cap must have split the stream");
    }

    /// Scratch directory for atomic-writer tests; removed by each test.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pif-trace-atomic-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_writer_publishes_only_on_finish() {
        let dir = scratch("finish");
        let dest = dir.join("out.pift");
        let mut w = AtomicTraceWriter::create(&dest, "atomic", 4).unwrap();
        for i in 0..100u64 {
            w.push(&instr(0x1000 + i * 4)).unwrap();
            assert!(!dest.exists(), "destination must not appear mid-record");
        }
        let bytes = w.finish().unwrap();
        assert!(dest.exists());
        assert_eq!(std::fs::metadata(&dest).unwrap().len(), bytes);
        let info = crate::scan_info(std::fs::File::open(&dest).unwrap()).unwrap();
        assert_eq!((info.records, info.name.as_str()), (100, "atomic"));
        // No temp litter.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_writer_dropped_mid_record_leaves_nothing() {
        // The kill-mid-record contract, with drop standing in for the
        // kill: after abandoning a half-written trace the destination is
        // absent and the staging file is cleaned up.
        let dir = scratch("drop");
        let dest = dir.join("out.pift");
        let mut w = AtomicTraceWriter::create(&dest, "doomed", 4).unwrap();
        for i in 0..50u64 {
            w.push(&instr(0x2000 + i * 4)).unwrap();
        }
        drop(w);
        assert!(!dest.exists(), "abandoned record must not publish");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "staging file must be removed on drop"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_writer_replaces_existing_destination_atomically() {
        let dir = scratch("replace");
        let dest = dir.join("out.pift");
        // Seed a valid small trace, then overwrite with a bigger one.
        let mut w = AtomicTraceWriter::create(&dest, "old", 4).unwrap();
        w.push(&instr(0x10)).unwrap();
        w.finish().unwrap();
        let mut w = AtomicTraceWriter::create(&dest, "new", 4).unwrap();
        for i in 0..10u64 {
            w.push(&instr(0x3000 + i * 4)).unwrap();
        }
        w.finish().unwrap();
        let info = crate::scan_info(std::fs::File::open(&dest).unwrap()).unwrap();
        assert_eq!((info.records, info.name.as_str()), (10, "new"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequential_trace_compresses_to_about_two_bytes_per_instr() {
        let mut w = TraceWriter::new(Vec::new(), "seq").unwrap();
        let n = 10_000u64;
        for i in 0..n {
            w.push(&instr(0x40_0000 + i * 4)).unwrap();
        }
        let bytes = w.finish().unwrap();
        let per_instr = bytes.len() as f64 / n as f64;
        assert!(per_instr < 2.2, "{per_instr} bytes/instr");
    }
}
