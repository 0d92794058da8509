//! Streaming trace reader: decodes v2 files record by record, holding
//! at most one chunk in memory — plus random access over the chunk
//! headers ([`ChunkIndex`], [`TraceReader::seek_to_record`]) for sampled
//! simulation.

use std::io::{Read, Seek, SeekFrom};

use pif_types::RetiredInstr;

use crate::error::TraceDecodeError;
use crate::format::{
    decode_chunk, MAGIC, MAX_CHUNK_BYTES, MAX_CHUNK_RECORDS, MAX_NAME_LEN, VERSION_V2,
};

fn read_u32<R: Read>(r: &mut R) -> Result<u32, TraceDecodeError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, TraceDecodeError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Validates a chunk header, rejecting absurd declarations before any
/// allocation or read happens. Every record costs at least 2 payload
/// bytes (flags + one varint byte), so a count the payload cannot hold is
/// corrupt on its face.
fn validate_chunk_header(records: u32, payload_len: u32) -> Result<(), TraceDecodeError> {
    if records > MAX_CHUNK_RECORDS {
        return Err(TraceDecodeError::Corrupt("chunk record count absurd"));
    }
    if payload_len > MAX_CHUNK_BYTES {
        return Err(TraceDecodeError::Corrupt("chunk payload absurd"));
    }
    if (payload_len as u64) < records as u64 * 2 {
        return Err(TraceDecodeError::Corrupt("record count exceeds payload"));
    }
    Ok(())
}

/// One chunk's position within a trace file, as recorded in a
/// [`ChunkIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Index of the first record stored in this chunk.
    pub first_record: u64,
    /// Records stored in this chunk.
    pub records: u32,
    /// Absolute byte offset of the chunk payload (just past its header).
    pub payload_offset: u64,
    /// Encoded payload length in bytes.
    pub payload_len: u32,
}

/// Random-access index over a trace's chunks, built from the 8-byte
/// chunk headers alone (payloads are skipped, never decoded).
///
/// Because every chunk resets the PC delta base, any chunk can be decoded
/// in isolation; the index therefore turns "seek to record `n`" into one
/// `Seek` plus decoding at most one chunk's worth of prefix records —
/// the SimFlex-style random access that sampled simulation needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkIndex {
    entries: Vec<ChunkEntry>,
    total_records: u64,
}

impl ChunkIndex {
    /// The per-chunk entries, in file order.
    pub fn entries(&self) -> &[ChunkEntry] {
        &self.entries
    }

    /// Total records across all chunks (verified against the terminator).
    pub fn total_records(&self) -> u64 {
        self.total_records
    }

    /// The chunk containing `record`, or `None` when `record` is at or
    /// past the end of the trace.
    pub fn locate(&self, record: u64) -> Option<&ChunkEntry> {
        if record >= self.total_records {
            return None;
        }
        let i = self
            .entries
            .partition_point(|e| e.first_record + e.records as u64 <= record);
        self.entries.get(i)
    }
}

#[derive(Debug)]
enum State {
    /// Chunked stream. Each chunk is batch-decoded on load into a flat,
    /// reusable scratch (`decoded`); iteration then serves records by
    /// index. Keeping the varint loop separate from the consumer keeps
    /// it branch-predictable, and both buffers are reused across chunks
    /// so steady-state decoding allocates nothing.
    Chunks {
        /// Raw payload scratch, reused across chunks.
        raw: Vec<u8>,
        /// Batch-decoded records of the current chunk, reused.
        decoded: Vec<RetiredInstr>,
        /// Serve cursor into `decoded`.
        next: usize,
        records_read: u64,
        done: bool,
    },
    /// A decode error was reported; the iterator is fused.
    Failed,
}

impl State {
    /// Fresh decode state positioned before the first chunk.
    fn start() -> Self {
        State::Chunks {
            raw: Vec::new(),
            decoded: Vec::new(),
            next: 0,
            records_read: 0,
            done: false,
        }
    }
}

/// Streaming reader over a serialized v2 trace.
///
/// Iterates `Result<RetiredInstr, TraceDecodeError>`; after the first
/// error the iterator fuses (yields `None`). Memory use is bounded by one
/// chunk regardless of trace length, which is what enables out-of-core
/// simulation via `pif_sim::Engine::run`.
///
/// # Example
///
/// ```
/// use pif_trace::{TraceReader, TraceWriter};
/// use pif_types::{Address, RetiredInstr, TrapLevel};
///
/// let mut w = TraceWriter::new(Vec::new(), "demo").unwrap();
/// w.push(&RetiredInstr::simple(Address::new(0x40), TrapLevel::Tl0)).unwrap();
/// let bytes = w.finish().unwrap();
///
/// let mut reader = TraceReader::open(bytes.as_slice()).unwrap();
/// assert_eq!(reader.name(), "demo");
/// let instrs: Vec<_> = reader.by_ref().collect::<Result<_, _>>().unwrap();
/// assert_eq!(instrs.len(), 1);
/// ```
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    name: String,
    declared: Option<u64>,
    state: State,
    /// Byte offset where the chunks begin.
    data_start: u64,
    /// Chunk index for random access; built by [`TraceReader::open_indexed`]
    /// or lazily by [`TraceReader::seek_to_record`] (`Seek` only).
    index: Option<ChunkIndex>,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace stream, reading and validating the header.
    ///
    /// # Errors
    ///
    /// [`TraceDecodeError::BadMagic`] if the stream is not a PIF trace,
    /// [`TraceDecodeError::BadVersion`] for any version but 2 (including
    /// the retired v1 layout), and `Corrupt`/`Io` for malformed or
    /// unreadable headers.
    pub fn open(mut source: R) -> Result<Self, TraceDecodeError> {
        let mut magic = [0u8; 4];
        source.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(TraceDecodeError::BadMagic);
        }
        let version = read_u32(&mut source)?;
        if version != VERSION_V2 {
            return Err(TraceDecodeError::BadVersion(version));
        }
        let name_len = read_u32(&mut source)?;
        if name_len > MAX_NAME_LEN {
            return Err(TraceDecodeError::Corrupt("unreasonable name length"));
        }
        let mut name_bytes = vec![0u8; name_len as usize];
        source.read_exact(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| TraceDecodeError::Corrupt("name is not UTF-8"))?;
        let data_start = (4 + 4 + 4 + name.len()) as u64;
        Ok(TraceReader {
            source,
            name,
            declared: None,
            state: State::start(),
            data_start,
            index: None,
        })
    }

    /// Workload name from the file header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total record count, when known: from the chunk index, or from the
    /// terminator once iteration has reached it.
    pub fn declared_count(&self) -> Option<u64> {
        self.declared
    }

    /// Adapts this reader into an iterator of plain [`RetiredInstr`]s
    /// that stops at the first decode error and stashes it for later
    /// inspection — the shape `Engine::run` consumes.
    pub fn instrs(self) -> Instrs<R> {
        Instrs {
            reader: self,
            error: None,
        }
    }

    /// Hashes the remaining records with [`crate::TraceHasher`],
    /// consuming the reader.
    ///
    /// The digest depends only on record content, never on chunking: a
    /// file hashes identically at any chunk size, and as the generator
    /// stream it was recorded from.
    ///
    /// # Errors
    ///
    /// Returns the first decode error; records before it are not
    /// reflected in any output.
    pub fn content_hash(self) -> Result<u64, TraceDecodeError> {
        let mut hasher = crate::hash::TraceHasher::new();
        let mut instrs = self.instrs();
        for instr in &mut instrs {
            hasher.update(&instr);
        }
        match instrs.take_error() {
            Some(e) => Err(e),
            None => Ok(hasher.finish()),
        }
    }

    /// Serves the next record of the current chunk when it is already
    /// decoded — the per-record fast path of [`Instrs`] and [`InstrsMut`].
    /// `None` means the chunk is drained (or the reader has failed): the
    /// caller falls back to [`Iterator::next`], which loads the next
    /// chunk, verifies the terminator, or reports an error.
    #[inline]
    fn next_decoded(&mut self) -> Option<RetiredInstr> {
        let State::Chunks {
            decoded,
            next,
            records_read,
            ..
        } = &mut self.state
        else {
            return None;
        };
        let instr = *decoded.get(*next)?;
        *next += 1;
        *records_read += 1;
        Some(instr)
    }

    fn next_chunked(&mut self) -> Result<Option<RetiredInstr>, TraceDecodeError> {
        let State::Chunks {
            raw,
            decoded,
            next,
            records_read,
            done,
        } = &mut self.state
        else {
            unreachable!()
        };
        if *done {
            return Ok(None);
        }
        if *next == decoded.len() {
            // Current chunk drained: batch-decode the next one (or the
            // terminator). Corruption anywhere in a chunk therefore
            // surfaces before any of its records are served.
            pif_fail::fail_point!("trace.read.chunk", |e: pif_fail::FailError| Err(
                TraceDecodeError::Io(std::io::Error::other(e.to_string()))
            ));
            let records = read_u32(&mut self.source)?;
            let payload_len = read_u32(&mut self.source)?;
            if records == 0 {
                // Terminator: payload is the total record count.
                if payload_len != 8 {
                    return Err(TraceDecodeError::Corrupt("malformed terminator"));
                }
                let total = read_u64(&mut self.source)?;
                if total != *records_read {
                    return Err(TraceDecodeError::Corrupt("record count mismatch"));
                }
                *done = true;
                self.declared = Some(total);
                return Ok(None);
            }
            validate_chunk_header(records, payload_len)?;
            raw.resize(payload_len as usize, 0);
            self.source.read_exact(raw)?;
            decode_chunk(raw, records, decoded)?;
            *next = 0;
        }
        let instr = decoded[*next];
        *next += 1;
        *records_read += 1;
        Ok(Some(instr))
    }

    /// The chunk index, when one has been built — by
    /// [`TraceReader::open_indexed`] or a previous
    /// [`TraceReader::seek_to_record`].
    pub fn chunk_index(&self) -> Option<&ChunkIndex> {
        self.index.as_ref()
    }

    /// The file's summary, read off its chunk index: `None` until the
    /// index is built ([`TraceReader::open_indexed`] or a seek).
    pub fn info(&self) -> Option<TraceInfo> {
        let index = self.index.as_ref()?;
        let chunk_bytes: u64 = index.entries.iter().map(|e| 8 + e.payload_len as u64).sum();
        Some(TraceInfo {
            name: self.name.clone(),
            records: index.total_records,
            chunks: index.entries.len() as u64,
            // Header, chunks, then the 16-byte terminator.
            bytes: self.data_start + chunk_bytes + 16,
        })
    }

    /// As [`TraceReader::instrs`] but borrowing, so the reader can be
    /// reused afterwards — e.g. seeked to another sample window between
    /// engine runs.
    pub fn instrs_mut(&mut self) -> InstrsMut<'_, R> {
        InstrsMut {
            reader: self,
            error: None,
        }
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Opens a trace and eagerly builds its [`ChunkIndex`], leaving the
    /// reader positioned at the first record.
    ///
    /// Building the index reads only the 8-byte chunk headers and the
    /// terminator — payload bytes are seeked over, so indexing a
    /// multi-gigabyte trace costs one header read per chunk. As a side
    /// effect the total record count becomes available up front via
    /// [`TraceReader::declared_count`].
    ///
    /// # Errors
    ///
    /// Everything [`TraceReader::open`] reports, plus any structural
    /// corruption found while walking the chunk headers.
    pub fn open_indexed(source: R) -> Result<Self, TraceDecodeError> {
        let mut reader = Self::open(source)?;
        reader.build_index()?;
        Ok(reader)
    }

    /// Scans the chunk headers into an index, then rewinds to the first
    /// chunk with fresh decode state.
    fn build_index(&mut self) -> Result<(), TraceDecodeError> {
        self.source.seek(SeekFrom::Start(self.data_start))?;
        let mut entries = Vec::new();
        let mut pos = self.data_start;
        let mut records = 0u64;
        loop {
            let count = read_u32(&mut self.source)?;
            let payload_len = read_u32(&mut self.source)?;
            pos += 8;
            if count == 0 {
                if payload_len != 8 {
                    return Err(TraceDecodeError::Corrupt("malformed terminator"));
                }
                let total = read_u64(&mut self.source)?;
                if total != records {
                    return Err(TraceDecodeError::Corrupt("record count mismatch"));
                }
                break;
            }
            validate_chunk_header(count, payload_len)?;
            entries.push(ChunkEntry {
                first_record: records,
                records: count,
                payload_offset: pos,
                payload_len,
            });
            pos = self
                .source
                .seek(SeekFrom::Current(payload_len as i64))
                .map_err(TraceDecodeError::from)?;
            records += count as u64;
        }
        self.declared = Some(records);
        self.index = Some(ChunkIndex {
            entries,
            total_records: records,
        });
        self.source.seek(SeekFrom::Start(self.data_start))?;
        self.state = State::start();
        Ok(())
    }

    /// Repositions the reader so the next record yielded is record `n`
    /// (0-based); seeking exactly to the end (`n == total`) leaves the
    /// reader cleanly exhausted, while `n > total` is a
    /// [`TraceDecodeError::SeekPastEnd`] — that index never existed, so
    /// the caller's window arithmetic is wrong and silently yielding an
    /// empty (or worse, clamped) stream would mask it. Subsequent
    /// iteration streams to the end of the trace exactly as if the first
    /// `n` records had been read and discarded.
    ///
    /// This is random access: the chunk index (built on first use if
    /// [`TraceReader::open_indexed`] was not used) locates the chunk
    /// holding `n`, one `Seek` lands on it, and at most `n`'s intra-chunk
    /// prefix is decoded — skipped regions of the trace are never
    /// decompressed.
    ///
    /// Seeking also recovers a reader whose previous iteration failed,
    /// since all decode state is rebuilt.
    ///
    /// # Errors
    ///
    /// [`TraceDecodeError::SeekPastEnd`] when `n` exceeds the total
    /// record count, I/O errors from seeking, and corruption in the
    /// chunk holding `n`.
    pub fn seek_to_record(&mut self, n: u64) -> Result<(), TraceDecodeError> {
        if self.index.is_none() {
            self.build_index()?;
        }
        let index = self.index.as_ref().expect("index built above");
        let total = index.total_records();
        let Some(entry) = index.locate(n).copied() else {
            if n > total {
                return Err(TraceDecodeError::SeekPastEnd {
                    requested: n,
                    total,
                });
            }
            // Exactly at the end: cleanly exhausted, terminator verified
            // by the index build.
            self.declared = Some(total);
            self.state = State::Chunks {
                raw: Vec::new(),
                decoded: Vec::new(),
                next: 0,
                records_read: total,
                done: true,
            };
            return Ok(());
        };
        self.source.seek(SeekFrom::Start(entry.payload_offset))?;
        let mut raw = vec![0u8; entry.payload_len as usize];
        self.source.read_exact(&mut raw)?;
        // Batch-decode the whole chunk and start serving at `n`'s
        // intra-chunk offset: deltas chain from the chunk's base, so the
        // prefix must be decoded anyway (but only this chunk's — every
        // earlier chunk was skipped wholesale).
        let mut decoded = Vec::new();
        decode_chunk(&raw, entry.records, &mut decoded)?;
        self.state = State::Chunks {
            raw,
            decoded,
            next: (n - entry.first_record) as usize,
            records_read: n,
            done: false,
        };
        Ok(())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<RetiredInstr, TraceDecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let result = match &self.state {
            State::Chunks { .. } => self.next_chunked(),
            State::Failed => return None,
        };
        match result {
            Ok(Some(instr)) => Some(Ok(instr)),
            Ok(None) => None,
            Err(e) => {
                self.state = State::Failed;
                Some(Err(e))
            }
        }
    }
}

/// Iterator of plain [`RetiredInstr`]s over a [`TraceReader`].
///
/// Yields until end-of-trace or the first decode error; the error is
/// stashed rather than yielded, so this type satisfies
/// `Iterator<Item = RetiredInstr>` (and therefore
/// `pif_types::InstrSource`). Check [`Instrs::error`] after the run to
/// distinguish clean completion from a corrupt tail.
#[derive(Debug)]
pub struct Instrs<R: Read> {
    reader: TraceReader<R>,
    error: Option<TraceDecodeError>,
}

impl<R: Read> Instrs<R> {
    /// The decode error that stopped iteration, if any.
    pub fn error(&self) -> Option<&TraceDecodeError> {
        self.error.as_ref()
    }

    /// Takes ownership of the stashed decode error, if any.
    pub fn take_error(&mut self) -> Option<TraceDecodeError> {
        self.error.take()
    }

    /// The underlying reader (e.g. for the workload name).
    pub fn reader(&self) -> &TraceReader<R> {
        &self.reader
    }
}

impl<R: Read> Iterator for Instrs<R> {
    type Item = RetiredInstr;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if let Some(instr) = self.reader.next_decoded() {
            return Some(instr);
        }
        if self.error.is_some() {
            return None;
        }
        match self.reader.next() {
            Some(Ok(instr)) => Some(instr),
            Some(Err(e)) => {
                self.error = Some(e);
                None
            }
            None => None,
        }
    }
}

/// Borrowing variant of [`Instrs`]: yields plain [`RetiredInstr`]s,
/// stashing the first decode error, without consuming the reader — so
/// the same reader can be seeked to another window and reused (the shape
/// sampled simulation drives).
#[derive(Debug)]
pub struct InstrsMut<'a, R: Read> {
    reader: &'a mut TraceReader<R>,
    error: Option<TraceDecodeError>,
}

impl<R: Read> InstrsMut<'_, R> {
    /// The decode error that stopped iteration, if any.
    pub fn error(&self) -> Option<&TraceDecodeError> {
        self.error.as_ref()
    }

    /// Takes ownership of the stashed decode error, if any.
    pub fn take_error(&mut self) -> Option<TraceDecodeError> {
        self.error.take()
    }
}

impl<R: Read> Iterator for InstrsMut<'_, R> {
    type Item = RetiredInstr;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if let Some(instr) = self.reader.next_decoded() {
            return Some(instr);
        }
        if self.error.is_some() {
            return None;
        }
        match self.reader.next() {
            Some(Ok(instr)) => Some(instr),
            Some(Err(e)) => {
                self.error = Some(e);
                None
            }
            None => None,
        }
    }
}

/// Summary of a trace file, gathered from its header and chunk headers
/// without decoding record payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceInfo {
    /// Workload name from the header.
    pub name: String,
    /// Total records.
    pub records: u64,
    /// Number of data chunks.
    pub chunks: u64,
    /// Total encoded size in bytes, header included.
    pub bytes: u64,
}

impl TraceInfo {
    /// Average encoded bytes per record.
    pub fn bytes_per_record(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        self.bytes as f64 / self.records as f64
    }
}

/// Scans a trace's structure without materializing records: the one
/// chunk-header walk of [`TraceReader::open_indexed`], which reads only
/// the 8-byte chunk headers, seeks over payloads and verifies the
/// terminator's total.
///
/// # Errors
///
/// Any header/structure corruption or I/O failure.
pub fn scan_info<R: Read + Seek>(source: R) -> Result<TraceInfo, TraceDecodeError> {
    let reader = TraceReader::open_indexed(source)?;
    Ok(reader.info().expect("open_indexed builds the index"))
}

/// Encodes a slice of instructions as an in-memory v2 trace.
pub fn encode_v2(name: &str, instrs: &[RetiredInstr]) -> Vec<u8> {
    let mut writer = crate::TraceWriter::new(Vec::new(), name).expect("Vec sink cannot fail");
    for instr in instrs {
        writer.push(instr).expect("Vec sink cannot fail");
    }
    writer.finish().expect("Vec sink cannot fail")
}

/// Decodes an in-memory trace into `(name, records)`.
///
/// # Errors
///
/// Any decode error. Unlike the streaming path this materializes the
/// whole trace, so prefer [`TraceReader`] for large files.
pub fn decode(data: &[u8]) -> Result<(String, Vec<RetiredInstr>), TraceDecodeError> {
    let mut reader = TraceReader::open(data)?;
    let instrs = reader.by_ref().collect::<Result<_, _>>()?;
    Ok((reader.name, instrs))
}
