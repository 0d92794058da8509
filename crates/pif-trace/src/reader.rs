//! Streaming trace reader: decodes v1 and v2 files record by record,
//! holding at most one chunk in memory — plus random access over v2
//! chunk headers ([`ChunkIndex`], [`TraceReader::seek_to_record`]) for
//! sampled simulation.

use std::io::{self, Read, Seek, SeekFrom};

use pif_types::{Address, BranchInfo, RetiredInstr, TrapLevel};

use crate::error::TraceDecodeError;
use crate::format::{
    decode_chunk, kind_from_bits, MAGIC, MAX_CHUNK_BYTES, MAX_CHUNK_RECORDS, MAX_NAME_LEN,
    V1_MIN_RECORD_BYTES, VERSION_V1, VERSION_V2,
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

/// Validates a v2 chunk header, rejecting absurd declarations before any
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

/// One chunk's position within a v2 trace file, as recorded in a
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

/// Random-access index over a v2 trace's chunks, built from the 8-byte
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
    /// Legacy fixed-width records; `remaining` counts down from the
    /// header's declared total.
    V1 { remaining: u64 },
    /// Chunked stream. Each chunk is batch-decoded on load into a flat,
    /// reusable scratch (`decoded`); iteration then serves records by
    /// index. Keeping the varint loop separate from the consumer keeps
    /// it branch-predictable, and both buffers are reused across chunks
    /// so steady-state decoding allocates nothing.
    V2 {
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
    /// Fresh v2 decode state positioned before the first chunk.
    fn v2_start() -> Self {
        State::V2 {
            raw: Vec::new(),
            decoded: Vec::new(),
            next: 0,
            records_read: 0,
            done: false,
        }
    }
}

/// Streaming reader over a serialized trace (either format version).
///
/// Iterates `Result<RetiredInstr, TraceDecodeError>`; after the first
/// error the iterator fuses (yields `None`). Memory use is bounded by one
/// chunk (v2) or one record (v1) regardless of trace length, which is
/// what enables out-of-core simulation via
/// `pif_sim::Engine::run`.
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
/// assert_eq!(reader.version(), 2);
/// let instrs: Vec<_> = reader.by_ref().collect::<Result<_, _>>().unwrap();
/// assert_eq!(instrs.len(), 1);
/// ```
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
    name: String,
    version: u32,
    declared: Option<u64>,
    state: State,
    /// Byte offset where records (v1) or chunks (v2) begin.
    data_start: u64,
    /// Chunk index for random access; built by [`TraceReader::open_indexed`]
    /// or lazily by [`TraceReader::seek_to_record`] (v2 + `Seek` only).
    index: Option<ChunkIndex>,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace stream, reading and validating the header.
    ///
    /// # Errors
    ///
    /// [`TraceDecodeError::BadMagic`] if the stream is not a PIF trace,
    /// [`TraceDecodeError::BadVersion`] for unknown versions, and
    /// `Corrupt`/`Io` for malformed or unreadable headers.
    pub fn open(mut source: R) -> Result<Self, TraceDecodeError> {
        let mut magic = [0u8; 4];
        source.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(TraceDecodeError::BadMagic);
        }
        let version = read_u32(&mut source)?;
        if version != VERSION_V1 && version != VERSION_V2 {
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
        let header_bytes = (4 + 4 + 4 + name.len()) as u64;
        let (state, declared, data_start) = if version == VERSION_V1 {
            let count = read_u64(&mut source)?;
            (
                State::V1 { remaining: count },
                Some(count),
                header_bytes + 8,
            )
        } else {
            (State::v2_start(), None, header_bytes)
        };
        Ok(TraceReader {
            source,
            name,
            version,
            declared,
            state,
            data_start,
            index: None,
        })
    }

    /// Workload name from the file header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Format version (1 or 2).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Total record count, when known: from the header for v1, from the
    /// terminator (i.e. only after full iteration) for v2.
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
    /// The digest depends only on record content, never on container
    /// format: a v1 file and its v2 conversion hash identically, as does
    /// the generator stream the file was recorded from.
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

    fn next_v1(&mut self) -> Result<Option<RetiredInstr>, TraceDecodeError> {
        let State::V1 { remaining } = &mut self.state else {
            unreachable!()
        };
        if *remaining == 0 {
            return Ok(None);
        }
        *remaining -= 1;
        let mut head = [0u8; 10];
        self.source.read_exact(&mut head)?;
        let pc = u64::from_le_bytes(head[0..8].try_into().expect("8-byte slice"));
        let tl_byte = head[8];
        if tl_byte as usize >= TrapLevel::COUNT {
            return Err(TraceDecodeError::Corrupt("invalid trap level"));
        }
        let trap_level = TrapLevel::from_index(tl_byte as usize);
        let branch = match head[9] {
            0 => None,
            1 => {
                let mut body = [0u8; 18];
                self.source.read_exact(&mut body)?;
                let kind = kind_from_bits(body[0])?;
                let taken = body[1] != 0;
                let taken_target = u64::from_le_bytes(body[2..10].try_into().expect("8 bytes"));
                let fall_through = u64::from_le_bytes(body[10..18].try_into().expect("8 bytes"));
                Some(BranchInfo {
                    kind,
                    taken,
                    taken_target: Address::new(taken_target),
                    fall_through: Address::new(fall_through),
                })
            }
            _ => return Err(TraceDecodeError::Corrupt("invalid branch flag")),
        };
        Ok(Some(RetiredInstr {
            pc: Address::new(pc),
            trap_level,
            branch,
        }))
    }

    /// Serves the next record of the current v2 chunk when it is already
    /// decoded — the per-record fast path of [`Instrs`] and [`InstrsMut`].
    /// `None` means the chunk is drained (or the reader is not mid-v2):
    /// the caller falls back to [`Iterator::next`], which loads the next
    /// chunk, verifies the terminator, or reports an error.
    #[inline]
    fn next_decoded(&mut self) -> Option<RetiredInstr> {
        let State::V2 {
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

    fn next_v2(&mut self) -> Result<Option<RetiredInstr>, TraceDecodeError> {
        let State::V2 {
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
    /// [`TraceReader::seek_to_record`]. Always `None` for v1 files, which
    /// have no chunks.
    pub fn chunk_index(&self) -> Option<&ChunkIndex> {
        self.index.as_ref()
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
    /// Opens a trace and eagerly builds its [`ChunkIndex`] (v2; a v1 file
    /// opens normally but has no chunks to index), leaving the reader
    /// positioned at the first record.
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
        if reader.version == VERSION_V2 {
            reader.build_index()?;
        }
        Ok(reader)
    }

    /// Scans the v2 chunk headers into an index, then rewinds to the
    /// first chunk with fresh decode state.
    fn build_index(&mut self) -> Result<(), TraceDecodeError> {
        debug_assert_eq!(self.version, VERSION_V2);
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
        self.state = State::v2_start();
        Ok(())
    }

    /// As [`TraceReader::open_indexed`] but installing a previously built
    /// [`ChunkIndex`] instead of rescanning the chunk headers — for
    /// concurrent samplers opening many readers over the same v2 file:
    /// the file is indexed once and each reader's open costs only the
    /// container-header read.
    ///
    /// The index is trusted to describe this file (it came from an
    /// earlier [`TraceReader::open_indexed`]/[`TraceReader::seek_to_record`]
    /// over the same bytes); a mismatched index surfaces as a decode
    /// error when its offsets land mid-record.
    ///
    /// # Errors
    ///
    /// Everything [`TraceReader::open`] reports, plus
    /// [`TraceDecodeError::Corrupt`] if the file is v1 (which has no
    /// chunks to index).
    pub fn open_with_index(source: R, index: ChunkIndex) -> Result<Self, TraceDecodeError> {
        let mut reader = Self::open(source)?;
        if reader.version != VERSION_V2 {
            return Err(TraceDecodeError::Corrupt("chunk index over a v1 trace"));
        }
        reader.declared = Some(index.total_records());
        reader.index = Some(index);
        Ok(reader)
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
    /// For v2 this is random access: the chunk index (built on first use
    /// if [`TraceReader::open_indexed`] was not used) locates the chunk
    /// holding `n`, one `Seek` lands on it, and at most `n`'s intra-chunk
    /// prefix is decoded — skipped regions of the trace are never
    /// decompressed. v1 files have no chunk structure, so the fallback
    /// rewinds and linearly skips `n` records.
    ///
    /// Seeking also recovers a reader whose previous iteration failed,
    /// since all decode state is rebuilt.
    ///
    /// # Errors
    ///
    /// [`TraceDecodeError::SeekPastEnd`] when `n` exceeds the total
    /// record count, I/O errors from seeking, and corruption in the
    /// chunk holding `n` (or, for v1, anywhere in the first `n`
    /// records).
    pub fn seek_to_record(&mut self, n: u64) -> Result<(), TraceDecodeError> {
        if self.version == VERSION_V1 {
            return self.seek_v1(n);
        }
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
            self.state = State::V2 {
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
        self.state = State::V2 {
            raw,
            decoded,
            next: (n - entry.first_record) as usize,
            records_read: n,
            done: false,
        };
        Ok(())
    }

    /// v1 fallback: rewind to the first record and linearly decode-and-
    /// discard (fixed-width-ish records cannot be skipped blind because
    /// branch records are wider).
    fn seek_v1(&mut self, n: u64) -> Result<(), TraceDecodeError> {
        let total = self.declared.expect("v1 header carries a count");
        if n > total {
            return Err(TraceDecodeError::SeekPastEnd {
                requested: n,
                total,
            });
        }
        self.source.seek(SeekFrom::Start(self.data_start))?;
        self.state = State::V1 { remaining: total };
        for _ in 0..n {
            self.next_v1()?;
        }
        Ok(())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<RetiredInstr, TraceDecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let result = match &self.state {
            State::V1 { .. } => self.next_v1(),
            State::V2 { .. } => self.next_v2(),
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

    /// The underlying reader (e.g. for name/version metadata).
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

/// Summary of a trace file, gathered without decoding record payloads
/// (v2 chunks are skipped via their headers; v1 records are walked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceInfo {
    /// Workload name from the header.
    pub name: String,
    /// Format version (1 or 2).
    pub version: u32,
    /// Total records.
    pub records: u64,
    /// Number of data chunks (0 for v1, which is unchunked).
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

/// Scans a trace stream's structure without materializing records.
///
/// For v2 this reads only the 8-byte chunk headers and skips payloads —
/// the "skippable chunks" fast path — then verifies the terminator's
/// total. For v1 it walks records (they are not skippable) but allocates
/// nothing.
///
/// # Errors
///
/// Any header/structure corruption or I/O failure.
pub fn scan_info<R: Read>(source: R) -> Result<TraceInfo, TraceDecodeError> {
    let mut reader = TraceReader::open(source)?;
    let header_bytes = (4 + 4 + 4 + reader.name.len()) as u64;
    if reader.version == VERSION_V1 {
        let declared = reader.declared_count().expect("v1 header carries a count");
        let mut bytes = header_bytes + 8;
        for result in reader.by_ref() {
            bytes += if result?.branch.is_some() { 28 } else { 10 };
        }
        Ok(TraceInfo {
            name: reader.name,
            version: VERSION_V1,
            records: declared,
            chunks: 0,
            bytes,
        })
    } else {
        let mut bytes = header_bytes;
        let mut records = 0u64;
        let mut chunks = 0u64;
        loop {
            let count = read_u32(&mut reader.source)?;
            let payload_len = read_u32(&mut reader.source)?;
            bytes += 8;
            if count == 0 {
                if payload_len != 8 {
                    return Err(TraceDecodeError::Corrupt("malformed terminator"));
                }
                let total = read_u64(&mut reader.source)?;
                bytes += 8;
                if total != records {
                    return Err(TraceDecodeError::Corrupt("record count mismatch"));
                }
                return Ok(TraceInfo {
                    name: reader.name,
                    version: VERSION_V2,
                    records,
                    chunks,
                    bytes,
                });
            }
            validate_chunk_header(count, payload_len)?;
            let skipped = io::copy(
                &mut reader.source.by_ref().take(payload_len as u64),
                &mut io::sink(),
            )
            .map_err(TraceDecodeError::from)?;
            if skipped != payload_len as u64 {
                return Err(TraceDecodeError::Corrupt("truncated"));
            }
            bytes += payload_len as u64;
            records += count as u64;
            chunks += 1;
        }
    }
}

/// Encodes a slice of instructions as an in-memory v2 trace.
pub fn encode_v2(name: &str, instrs: &[RetiredInstr]) -> Vec<u8> {
    let mut writer = crate::TraceWriter::new(Vec::new(), name).expect("Vec sink cannot fail");
    for instr in instrs {
        writer.push(instr).expect("Vec sink cannot fail");
    }
    writer.finish().expect("Vec sink cannot fail")
}

/// Decodes an in-memory trace of either version into `(name, records)`.
///
/// # Errors
///
/// Any decode error, and `Corrupt("record count exceeds payload")` up
/// front for a v1 header declaring more records than the input can hold.
/// Unlike the streaming path this materializes the whole trace, so
/// prefer [`TraceReader`] for large files.
pub fn decode(data: &[u8]) -> Result<(String, Vec<RetiredInstr>), TraceDecodeError> {
    let mut reader = TraceReader::open(data)?;
    let mut capacity = 0;
    if let Some(count) = reader.declared_count() {
        // A v1 header's count is untrusted. Every v1 record costs at
        // least 10 bytes, so a count the rest of the input cannot hold is
        // corrupt on its face: fail before decoding or allocating, instead
        // of looping toward a truncation error millions of records later.
        let payload = data.len() as u64 - reader.data_start;
        if count
            .checked_mul(V1_MIN_RECORD_BYTES)
            .is_none_or(|needed| needed > payload)
        {
            return Err(TraceDecodeError::Corrupt("record count exceeds payload"));
        }
        capacity = count as usize;
    }
    let mut instrs = Vec::with_capacity(capacity);
    for result in reader.by_ref() {
        instrs.push(result?);
    }
    Ok((reader.name, instrs))
}
