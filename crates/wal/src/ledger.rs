//! The ledger: segmented append-only files behind a live key map.
//!
//! See the crate docs for the format narrative. The invariants:
//!
//! * Segment files are `seg-<index:016x>.wal`, indices strictly
//!   increasing over the ledger's lifetime (compaction writes the
//!   survivors into *new* higher-numbered segments before deleting the
//!   old ones).
//! * A segment is `MAGIC` followed by frames; a frame is
//!   `[len: u32][crc32(body): u32][body]`; a body is one tagged record
//!   (append or tombstone) encoded with the `infobus_types::wire`
//!   helpers, exactly like `reldb`'s log records.
//! * Replay applies frames in file order, newest segment last. The
//!   first unreadable frame in a segment cuts that segment there (torn
//!   tails and bit flips alike — past a bad length or CRC the framing
//!   cannot be trusted); later segments still replay, because frames
//!   never span segments.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use infobus_types::wire::{
    get_byte_vec, get_string, get_u32, get_u8, put_bytes, put_string, put_u32,
};

use crate::crc::crc32;

/// Magic bytes opening every segment file.
const MAGIC: &[u8; 8] = b"IBWAL01\n";
/// Frame header size: body length + body CRC, 4 bytes each.
const FRAME_HEADER: usize = 8;
/// Sanity bound on one frame body, so a corrupt length field cannot
/// demand an absurd allocation during replay.
const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;
const TAG_APPEND: u8 = 1;
const TAG_TOMBSTONE: u8 = 2;
/// Dead frames tolerated before a removal triggers compaction (and the
/// garbage must also outnumber the live set — compacting a huge live
/// ledger to reclaim a little is not worth the rewrite).
const COMPACT_MIN_DEAD: u64 = 32;

/// When the ledger pushes written frames past the OS page cache.
///
/// Process death (SIGKILL, panic, abort) never loses written frames
/// under any policy — the page cache belongs to the kernel. The policy
/// only governs exposure to *machine* failure (power loss, kernel
/// panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended frame: a frame is durable
    /// before `append` returns, which is the paper's
    /// log-before-send contract taken literally. The default.
    #[default]
    Always,
    /// `fdatasync` only when a segment is sealed (rotation and
    /// compaction). A machine failure can lose the unsealed tail of the
    /// active segment — recovery truncates it and redelivery resumes
    /// from the last sealed frame.
    OnRotate,
    /// Never sync; the OS flushes on its own schedule. For benches and
    /// deterministic tests where machine failure is out of scope.
    Never,
}

/// Construction parameters of a [`WalLedger`].
#[derive(Debug, Clone, Copy)]
pub struct LedgerOptions {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// When written frames are pushed to stable storage.
    pub fsync: FsyncPolicy,
    /// Ceiling on payload bytes mirrored in memory. Entries past the
    /// ceiling (and everything recovered at open) live as disk
    /// references — the ledger index — and are read back on demand, so
    /// a slow subscriber cannot grow the persist map without bound.
    /// `0` keeps every live payload in memory.
    pub mem_bytes: usize,
}

impl Default for LedgerOptions {
    fn default() -> Self {
        LedgerOptions {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
            mem_bytes: 1 << 20,
        }
    }
}

impl LedgerOptions {
    /// Sets the segment rotation threshold.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Sets the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the in-memory payload ceiling (`0` = keep everything in
    /// memory).
    pub fn with_mem_bytes(mut self, bytes: usize) -> Self {
        self.mem_bytes = bytes;
        self
    }
}

/// Counters describing one ledger's activity since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Data records appended (tombstones excluded).
    pub appends: u64,
    /// Bytes written to segment files (frames of both kinds).
    pub bytes: u64,
    /// Segment files currently on disk (a gauge).
    pub segments: u64,
    /// Compaction passes performed.
    pub compactions: u64,
    /// Valid frames replayed by open-time recovery.
    pub recovered: u64,
    /// Torn or corrupt tails cut during recovery (each counts once,
    /// whether the cut was mid-segment corruption or a half-written
    /// final frame).
    pub truncations: u64,
    /// Live entries currently held as disk references rather than
    /// in-memory payloads (a gauge; see [`LedgerOptions::mem_bytes`]).
    pub spilled: u64,
}

/// Where one live entry's payload currently lives.
enum Slot {
    /// Payload mirrored in memory (fast path, bounded by
    /// [`LedgerOptions::mem_bytes`]).
    Mem(Vec<u8>),
    /// Payload only on disk: `offset` is the frame's position inside
    /// segment `segment`. Everything recovered at open starts here.
    Disk { segment: u64, offset: u64 },
}

enum Record {
    Append { key: String, bytes: Vec<u8> },
    Tombstone { key: String },
}

/// A write-ahead ledger: a durable `key → bytes` map with append-only
/// segment files underneath. See the crate docs for the format.
pub struct WalLedger {
    dir: PathBuf,
    opts: LedgerOptions,
    live: BTreeMap<String, Slot>,
    /// Payload bytes currently mirrored in memory (`Slot::Mem` total).
    mem_bytes: usize,
    active: File,
    active_index: u64,
    active_len: u64,
    /// Indices of every segment file on disk, including the active one.
    segments: BTreeSet<u64>,
    /// Frames on disk that no longer contribute to the live map
    /// (superseded appends and the tombstones that killed them).
    dead_frames: u64,
    stats: LedgerStats,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:016x}.wal"))
}

fn segment_index(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".wal")?;
    u64::from_str_radix(hex, 16).ok()
}

fn encode_append(key: &str, bytes: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(1 + 4 + key.len() + 4 + bytes.len());
    body.push(TAG_APPEND);
    put_string(&mut body, key);
    put_bytes(&mut body, bytes);
    body
}

fn encode_tombstone(key: &str) -> Vec<u8> {
    let mut body = Vec::with_capacity(1 + 4 + key.len());
    body.push(TAG_TOMBSTONE);
    put_string(&mut body, key);
    body
}

fn decode_body(mut body: &[u8]) -> Option<Record> {
    match get_u8(&mut body).ok()? {
        TAG_APPEND => {
            let key = get_string(&mut body).ok()?;
            let bytes = get_byte_vec(&mut body).ok()?;
            body.is_empty().then_some(Record::Append { key, bytes })
        }
        TAG_TOMBSTONE => {
            let key = get_string(&mut body).ok()?;
            body.is_empty().then_some(Record::Tombstone { key })
        }
        _ => None,
    }
}

impl WalLedger {
    /// Opens (or creates) the ledger at `dir`, replaying every segment:
    /// valid frames rebuild the live map, a torn or corrupt tail is
    /// truncated, a file without the segment magic is discarded. The
    /// outcome is deterministic in the on-disk bytes.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (directory creation, reads, the
    /// truncating rewrites). Corrupt *content* is never an error — it
    /// is cut and counted in [`LedgerStats::truncations`].
    pub fn open(dir: impl Into<PathBuf>, opts: LedgerOptions) -> io::Result<WalLedger> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut indices: Vec<u64> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| segment_index(&e.file_name().to_string_lossy()))
            .collect();
        indices.sort_unstable();

        let mut live: BTreeMap<String, Slot> = BTreeMap::new();
        let mut stats = LedgerStats::default();
        let mut dead_frames = 0u64;
        let mut segments = BTreeSet::new();
        for &index in &indices {
            if Self::recover_segment(&dir, index, &mut live, &mut stats, &mut dead_frames)? {
                segments.insert(index);
            }
        }

        // Resume appending to the newest surviving segment, or start
        // fresh past the highest index ever seen (indices never move
        // backwards, even across discarded files).
        let next_fresh = indices.last().map_or(0, |i| i + 1);
        let (active, active_index, active_len) = match segments.iter().next_back().copied() {
            Some(index) => {
                let path = segment_path(&dir, index);
                let len = fs::metadata(&path)?.len();
                if len >= opts.segment_bytes {
                    let (f, l) = Self::create_segment(&dir, index + 1)?;
                    segments.insert(index + 1);
                    (f, index + 1, l)
                } else {
                    let f = OpenOptions::new().append(true).open(&path)?;
                    (f, index, len)
                }
            }
            None => {
                let (f, l) = Self::create_segment(&dir, next_fresh)?;
                segments.insert(next_fresh);
                (f, next_fresh, l)
            }
        };
        stats.segments = segments.len() as u64;
        stats.spilled = live
            .values()
            .filter(|s| matches!(s, Slot::Disk { .. }))
            .count() as u64;
        Ok(WalLedger {
            dir,
            opts,
            live,
            mem_bytes: 0,
            active,
            active_index,
            active_len,
            segments,
            dead_frames,
            stats,
        })
    }

    /// Replays one segment into `live`. Returns whether the file was
    /// kept (a file without the magic is removed entirely).
    fn recover_segment(
        dir: &Path,
        index: u64,
        live: &mut BTreeMap<String, Slot>,
        stats: &mut LedgerStats,
        dead_frames: &mut u64,
    ) -> io::Result<bool> {
        let path = segment_path(dir, index);
        let buf = fs::read(&path)?;
        if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
            fs::remove_file(&path)?;
            stats.truncations += 1;
            return Ok(false);
        }
        let mut off = MAGIC.len();
        loop {
            let rest = &buf[off..];
            if rest.is_empty() {
                return Ok(true); // clean end of segment
            }
            let frame = Self::read_frame_at(rest);
            let Some((body, frame_len)) = frame else {
                // Torn tail or corrupt frame: the framing past this
                // point cannot be trusted — cut the segment here.
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(off as u64)?;
                stats.truncations += 1;
                return Ok(true);
            };
            match decode_body(body) {
                Some(Record::Append { key, .. }) => {
                    let slot = Slot::Disk {
                        segment: index,
                        offset: off as u64,
                    };
                    if live.insert(key, slot).is_some() {
                        *dead_frames += 1;
                    }
                    stats.recovered += 1;
                }
                Some(Record::Tombstone { key }) => {
                    *dead_frames += if live.remove(&key).is_some() { 2 } else { 1 };
                    stats.recovered += 1;
                }
                None => {
                    // CRC-valid but undecodable: same cut.
                    OpenOptions::new()
                        .write(true)
                        .open(&path)?
                        .set_len(off as u64)?;
                    stats.truncations += 1;
                    return Ok(true);
                }
            }
            off += frame_len;
        }
    }

    /// Parses one frame from the head of `rest`: `Some((body, total
    /// frame length))` if the header is complete, the length sane, the
    /// body present, and the CRC matches.
    fn read_frame_at(rest: &[u8]) -> Option<(&[u8], usize)> {
        if rest.len() < FRAME_HEADER {
            return None;
        }
        let mut hdr = &rest[..FRAME_HEADER];
        let len = get_u32(&mut hdr).ok()?;
        let crc = get_u32(&mut hdr).ok()?;
        if len > MAX_FRAME_BYTES || rest.len() - FRAME_HEADER < len as usize {
            return None;
        }
        let body = &rest[FRAME_HEADER..FRAME_HEADER + len as usize];
        (crc32(body) == crc).then_some((body, FRAME_HEADER + len as usize))
    }

    fn create_segment(dir: &Path, index: u64) -> io::Result<(File, u64)> {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(segment_path(dir, index))?;
        f.write_all(MAGIC)?;
        Ok((f, MAGIC.len() as u64))
    }

    /// Appends one frame (rotating first if it would overflow the
    /// active segment), returning where it landed.
    fn append_frame(&mut self, body: &[u8]) -> io::Result<(u64, u64)> {
        if body.len() as u64 > u64::from(MAX_FRAME_BYTES) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "ledger record exceeds the frame bound",
            ));
        }
        let frame_len = (FRAME_HEADER + body.len()) as u64;
        if self.active_len + frame_len > self.opts.segment_bytes
            && self.active_len > MAGIC.len() as u64
        {
            self.rotate()?;
        }
        let mut frame = Vec::with_capacity(frame_len as usize);
        put_u32(&mut frame, body.len() as u32);
        put_u32(&mut frame, crc32(body));
        frame.extend_from_slice(body);
        let offset = self.active_len;
        self.active.write_all(&frame)?;
        self.active_len += frame_len;
        self.stats.bytes += frame_len;
        if self.opts.fsync == FsyncPolicy::Always {
            self.active.sync_data()?;
        }
        Ok((self.active_index, offset))
    }

    fn rotate(&mut self) -> io::Result<()> {
        if self.opts.fsync != FsyncPolicy::Never {
            self.active.sync_data()?;
        }
        let next = self.active_index + 1;
        let (f, len) = Self::create_segment(&self.dir, next)?;
        self.active = f;
        self.active_index = next;
        self.active_len = len;
        self.segments.insert(next);
        self.stats.segments = self.segments.len() as u64;
        Ok(())
    }

    /// Durably records `key → bytes` (the engine's `Persist` action).
    /// The frame is on disk — and, under [`FsyncPolicy::Always`],
    /// synced — before this returns.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the entry is not recorded.
    pub fn append(&mut self, key: &str, bytes: &[u8]) -> io::Result<()> {
        let body = encode_append(key, bytes);
        let (segment, offset) = self.append_frame(&body)?;
        let slot =
            if self.opts.mem_bytes == 0 || self.mem_bytes + bytes.len() <= self.opts.mem_bytes {
                self.mem_bytes += bytes.len();
                Slot::Mem(bytes.to_vec())
            } else {
                self.stats.spilled += 1;
                Slot::Disk { segment, offset }
            };
        if let Some(old) = self.live.insert(key.to_owned(), slot) {
            self.drop_slot(&old);
            self.dead_frames += 1;
        }
        self.stats.appends += 1;
        Ok(())
    }

    /// Removes `key` (the engine's `Unpersist` action) by appending a
    /// tombstone; compacts once enough garbage has accumulated.
    /// Returns whether the key was present.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the tombstone write or compaction.
    pub fn remove(&mut self, key: &str) -> io::Result<bool> {
        let Some(old) = self.live.remove(key) else {
            return Ok(false);
        };
        self.drop_slot(&old);
        let body = encode_tombstone(key);
        self.append_frame(&body)?;
        self.dead_frames += 2;
        if self.dead_frames >= COMPACT_MIN_DEAD && self.dead_frames >= self.live.len() as u64 {
            self.compact()?;
        }
        Ok(true)
    }

    /// Gauge bookkeeping when a slot leaves the live map.
    fn drop_slot(&mut self, slot: &Slot) {
        match slot {
            Slot::Mem(b) => self.mem_bytes -= b.len(),
            Slot::Disk { .. } => self.stats.spilled -= 1,
        }
    }

    /// Rewrites the live entries into fresh segments and deletes every
    /// old file. New segments are written (and synced, unless the
    /// policy is [`FsyncPolicy::Never`]) *before* the old ones go, so a
    /// crash at any point replays to the same live map.
    ///
    /// Normally triggered by [`WalLedger::remove`]; public for tests
    /// and operational tooling.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn compact(&mut self) -> io::Result<()> {
        let entries: Vec<(String, Vec<u8>, bool)> = self
            .live
            .iter()
            .map(|(k, slot)| match slot {
                Slot::Mem(b) => Ok((k.clone(), b.clone(), true)),
                Slot::Disk { segment, offset } => self
                    .read_disk(*segment, *offset)
                    .map(|(_, b)| (k.clone(), b, false)),
            })
            .collect::<io::Result<_>>()?;
        let old: Vec<u64> = self.segments.iter().copied().collect();
        let start = self.active_index + 1;
        let (f, len) = Self::create_segment(&self.dir, start)?;
        self.active = f;
        self.active_index = start;
        self.active_len = len;
        self.segments.insert(start);
        for (key, bytes, in_mem) in &entries {
            let body = encode_append(key, bytes);
            let (segment, offset) = self.append_frame(&body)?;
            if !in_mem {
                self.live
                    .insert(key.clone(), Slot::Disk { segment, offset });
            }
        }
        if self.opts.fsync != FsyncPolicy::Never {
            self.active.sync_data()?;
        }
        for index in old {
            fs::remove_file(segment_path(&self.dir, index))?;
            self.segments.remove(&index);
        }
        self.dead_frames = 0;
        self.stats.compactions += 1;
        self.stats.segments = self.segments.len() as u64;
        Ok(())
    }

    /// Reads one append frame back from disk.
    fn read_disk(&self, segment: u64, offset: u64) -> io::Result<(String, Vec<u8>)> {
        let corrupt = || io::Error::new(io::ErrorKind::InvalidData, "ledger frame corrupt");
        let mut f = File::open(segment_path(&self.dir, segment))?;
        f.seek(SeekFrom::Start(offset))?;
        let mut hdr = [0u8; FRAME_HEADER];
        f.read_exact(&mut hdr)?;
        let mut h = &hdr[..];
        let len = get_u32(&mut h).map_err(|_| corrupt())?;
        let crc = get_u32(&mut h).map_err(|_| corrupt())?;
        if len > MAX_FRAME_BYTES {
            return Err(corrupt());
        }
        let mut body = vec![0u8; len as usize];
        f.read_exact(&mut body)?;
        if crc32(&body) != crc {
            return Err(corrupt());
        }
        match decode_body(&body) {
            Some(Record::Append { key, bytes }) => Ok((key, bytes)),
            _ => Err(corrupt()),
        }
    }

    /// Reads one entry's payload (from memory or disk).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures reading a spilled entry.
    pub fn get(&self, key: &str) -> io::Result<Option<Vec<u8>>> {
        match self.live.get(key) {
            None => Ok(None),
            Some(Slot::Mem(b)) => Ok(Some(b.clone())),
            Some(Slot::Disk { segment, offset }) => {
                self.read_disk(*segment, *offset).map(|(_, b)| Some(b))
            }
        }
    }

    /// Every live entry in key order (the restart replay input —
    /// drivers decode these back into envelopes and hand them to the
    /// engine's `gd_load`).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures reading spilled entries.
    pub fn entries(&self) -> io::Result<Vec<(String, Vec<u8>)>> {
        self.live
            .iter()
            .map(|(k, slot)| match slot {
                Slot::Mem(b) => Ok((k.clone(), b.clone())),
                Slot::Disk { segment, offset } => self
                    .read_disk(*segment, *offset)
                    .map(|(_, b)| (k.clone(), b)),
            })
            .collect()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the live map is empty.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LedgerStats {
        self.stats
    }

    /// The ledger directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Forces the active segment to stable storage regardless of
    /// policy.
    ///
    /// # Errors
    ///
    /// Propagates the sync failure.
    pub fn sync(&mut self) -> io::Result<()> {
        self.active.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;

    fn opts_small() -> LedgerOptions {
        LedgerOptions::default()
            .with_segment_bytes(256)
            .with_fsync(FsyncPolicy::Never)
    }

    #[test]
    fn append_get_remove_round_trip() {
        let dir = ScratchDir::new("wal-rt");
        let mut lg = WalLedger::open(dir.path(), LedgerOptions::default()).unwrap();
        lg.append("gd/app/a.b/1", b"one").unwrap();
        lg.append("gd/app/a.b/2", b"two").unwrap();
        assert_eq!(lg.get("gd/app/a.b/1").unwrap().unwrap(), b"one");
        assert_eq!(lg.len(), 2);
        assert!(lg.remove("gd/app/a.b/1").unwrap());
        assert!(!lg.remove("gd/app/a.b/1").unwrap());
        assert_eq!(lg.get("gd/app/a.b/1").unwrap(), None);
        assert_eq!(lg.stats().appends, 2);
        assert!(lg.stats().bytes > 0);
    }

    #[test]
    fn reopen_replays_live_entries_only() {
        let dir = ScratchDir::new("wal-replay");
        {
            let mut lg = WalLedger::open(dir.path(), opts_small()).unwrap();
            for i in 0..10u32 {
                lg.append(&format!("k/{i}"), format!("payload-{i}").as_bytes())
                    .unwrap();
            }
            lg.remove("k/3").unwrap();
            lg.remove("k/7").unwrap();
        }
        let lg = WalLedger::open(dir.path(), opts_small()).unwrap();
        assert_eq!(lg.len(), 8);
        assert_eq!(lg.get("k/3").unwrap(), None);
        assert_eq!(lg.get("k/5").unwrap().unwrap(), b"payload-5");
        // 10 appends + 2 tombstones survived as frames.
        assert_eq!(lg.stats().recovered, 12);
        assert_eq!(lg.stats().truncations, 0);
        // Recovered entries are disk references, not memory mirrors.
        assert_eq!(lg.stats().spilled, 8);
    }

    #[test]
    fn rotation_produces_multiple_segments_and_replays() {
        let dir = ScratchDir::new("wal-rot");
        let payload = vec![0xabu8; 64];
        {
            let mut lg = WalLedger::open(dir.path(), opts_small()).unwrap();
            for i in 0..20u32 {
                lg.append(&format!("k/{i:02}"), &payload).unwrap();
            }
            assert!(lg.stats().segments > 1, "no rotation at 256-byte segments");
        }
        let lg = WalLedger::open(dir.path(), opts_small()).unwrap();
        assert_eq!(lg.len(), 20);
        for i in 0..20u32 {
            assert_eq!(lg.get(&format!("k/{i:02}")).unwrap().unwrap(), payload);
        }
    }

    #[test]
    fn torn_tail_is_truncated_and_rest_survives() {
        let dir = ScratchDir::new("wal-torn");
        {
            let mut lg = WalLedger::open(
                dir.path(),
                LedgerOptions::default().with_fsync(FsyncPolicy::Never),
            )
            .unwrap();
            lg.append("k/a", b"alpha").unwrap();
            lg.append("k/b", b"beta").unwrap();
        }
        // Tear the tail: chop the last 3 bytes of the only segment.
        let path = segment_path(dir.path(), 0);
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let lg = WalLedger::open(dir.path(), LedgerOptions::default()).unwrap();
        assert_eq!(lg.stats().truncations, 1);
        assert_eq!(lg.stats().recovered, 1);
        assert_eq!(lg.get("k/a").unwrap().unwrap(), b"alpha");
        assert_eq!(lg.get("k/b").unwrap(), None, "torn frame must not replay");
        // The cut segment accepts appends again.
        let mut lg = lg;
        lg.append("k/c", b"gamma").unwrap();
        drop(lg);
        let lg = WalLedger::open(dir.path(), LedgerOptions::default()).unwrap();
        assert_eq!(lg.len(), 2);
    }

    #[test]
    fn corrupt_crc_cuts_segment_at_the_bad_frame() {
        let dir = ScratchDir::new("wal-crc");
        {
            let mut lg = WalLedger::open(
                dir.path(),
                LedgerOptions::default().with_fsync(FsyncPolicy::Never),
            )
            .unwrap();
            lg.append("k/a", b"alpha").unwrap();
            lg.append("k/b", b"beta").unwrap();
            lg.append("k/c", b"gamma").unwrap();
        }
        // Flip one bit inside the second frame's body.
        let path = segment_path(dir.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        let first_frame = FRAME_HEADER + decode_len(&bytes[MAGIC.len()..]);
        let target = MAGIC.len() + first_frame + FRAME_HEADER + 2;
        bytes[target] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let lg = WalLedger::open(dir.path(), LedgerOptions::default()).unwrap();
        assert_eq!(lg.stats().truncations, 1);
        assert_eq!(lg.get("k/a").unwrap().unwrap(), b"alpha");
        assert_eq!(lg.get("k/b").unwrap(), None);
        assert_eq!(lg.get("k/c").unwrap(), None, "frames past the flip are cut");
    }

    fn decode_len(rest: &[u8]) -> usize {
        let mut h = &rest[..4];
        get_u32(&mut h).unwrap() as usize
    }

    #[test]
    fn missing_magic_discards_the_file() {
        let dir = ScratchDir::new("wal-magic");
        fs::write(segment_path(dir.path(), 0), b"garbage, not a segment").unwrap();
        let mut lg = WalLedger::open(dir.path(), LedgerOptions::default()).unwrap();
        assert_eq!(lg.stats().truncations, 1);
        assert_eq!(lg.len(), 0);
        // The discarded index is never reused.
        lg.append("k/a", b"alpha").unwrap();
        assert!(segment_path(dir.path(), 1).exists());
        assert!(!segment_path(dir.path(), 0).exists());
    }

    #[test]
    fn compaction_reclaims_dead_frames() {
        let dir = ScratchDir::new("wal-compact");
        let mut lg = WalLedger::open(dir.path(), opts_small()).unwrap();
        for round in 0..5u32 {
            for i in 0..20u32 {
                lg.append(&format!("k/{i}"), format!("r{round}-{i}").as_bytes())
                    .unwrap();
            }
            for i in 0..20u32 {
                if i % 2 == 0 {
                    lg.remove(&format!("k/{i}")).unwrap();
                }
            }
        }
        assert!(lg.stats().compactions > 0, "churn never compacted");
        let on_disk: Vec<_> = fs::read_dir(dir.path()).unwrap().collect();
        assert_eq!(on_disk.len() as u64, lg.stats().segments);
        // Live contents survive compaction and a reopen.
        drop(lg);
        let lg = WalLedger::open(dir.path(), opts_small()).unwrap();
        assert_eq!(lg.len(), 10);
        assert_eq!(lg.get("k/1").unwrap().unwrap(), b"r4-1");
    }

    #[test]
    fn mem_ceiling_spills_to_disk_references() {
        let dir = ScratchDir::new("wal-spill");
        let opts = LedgerOptions::default()
            .with_fsync(FsyncPolicy::Never)
            .with_mem_bytes(100);
        let mut lg = WalLedger::open(dir.path(), opts).unwrap();
        let payload = vec![7u8; 40];
        for i in 0..5u32 {
            lg.append(&format!("k/{i}"), &payload).unwrap();
        }
        // 2×40 fit under the 100-byte ceiling; 3 spill.
        assert_eq!(lg.stats().spilled, 3);
        // Spilled entries read back identically.
        for i in 0..5u32 {
            assert_eq!(lg.get(&format!("k/{i}")).unwrap().unwrap(), payload);
        }
        // Removing a spilled entry maintains the gauge.
        lg.remove("k/4").unwrap();
        assert_eq!(lg.stats().spilled, 2);
        let entries = lg.entries().unwrap();
        assert_eq!(entries.len(), 4);
        assert!(entries.iter().all(|(_, b)| b == &payload));
    }

    #[test]
    fn duplicate_appends_replay_idempotently() {
        let dir = ScratchDir::new("wal-dup");
        {
            let mut lg = WalLedger::open(dir.path(), opts_small()).unwrap();
            for _ in 0..3 {
                lg.append("k/same", b"newest").unwrap();
            }
        }
        let lg = WalLedger::open(dir.path(), opts_small()).unwrap();
        assert_eq!(lg.len(), 1);
        assert_eq!(lg.get("k/same").unwrap().unwrap(), b"newest");
        assert_eq!(lg.stats().recovered, 3);
    }
}
