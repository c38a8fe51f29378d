//! Crash-safe on-disk persistence for compiled artifacts: the
//! cross-process half of the cache story.
//!
//! `tcc-cache` memoizes compiles within a process; a restarted fleet
//! still pays full compile cost for every closure it had already
//! compiled. [`PersistentStore`] serializes fingerprint → sealed VM
//! words (+ `orig_start` for install-time relocation and the original
//! `compile_ns` for savings accounting) so process N+1 warm-starts at
//! hit cost.
//!
//! Three properties the format is built around:
//!
//! * **Zero-trust loads.** A store file is input, not state: every
//!   length is bounds-checked, every payload is CRC-validated, and the
//!   header carries a format version plus an *ABI salt* (opcode-table
//!   signature ⊕ cost-model digest ⊕ fingerprint scheme version ⊕
//!   static-image layout, folded by the embedding session). Any
//!   mismatch degrades to a cold miss — counted in
//!   [`PersistMetrics`] as `corrupt_rejected` (per entry) or
//!   `version_rejected` (whole store) — and never panics or serves
//!   wrong bytes. A corrupt entry is skipped by its declared frame
//!   length, so valid entries after it still load; a truncated tail
//!   keeps every entry before the cut.
//! * **Atomic writes.** A flush serializes the complete store to a
//!   sibling temp file, fsyncs, and renames it over the store path —
//!   a crash mid-flush leaves either the old file or the new one,
//!   never a torn hybrid. A lock file (created with `create_new`,
//!   removed on drop) makes the writer unique: later openers of the
//!   same path get a read-only store whose `flush` fails cleanly.
//! * **Invalidation composes.** Entries dropped by
//!   `SharedArtifacts::invalidate` (or any caller of
//!   [`PersistentStore::tombstone`]) are simply omitted from the next
//!   flush — the rewrite-whole-file discipline makes tombstoning free
//!   and keeps the on-disk image canonical (entries sorted by
//!   fingerprint encoding, so equal stores are byte-identical).
//!
//! A restarted process asks for a fraction of what the store holds, so
//! open costs O(entries), not O(bytes): it indexes the frames and
//! leaves every payload unread until somebody wants it. Which check
//! runs when:
//!
//! | when | what is checked |
//! |---|---|
//! | `open` | header magic, format version, ABI salt; every frame's bounds; the bounds of the key each frame claims |
//! | `load` of a key (the first, and any later one) | payload CRC, full bounds-checked decode, decoded key == requested key |
//! | `flush` | the same three for every frame still in the file image, before it is carried into the new file |
//!
//! No stored word reaches a caller, or the next file, without its
//! frame having passed all of them. Nothing remembers that a frame
//! passed: a process loads a key once (its memo answers from then on),
//! so a "verified" bit would buy a skipped CRC on a path nobody takes.
//!
//! Only words are stored, never a decoded form: each session decodes
//! what it installs, so the format is independent of the decoded-buffer
//! layout.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tcc_obs::PersistMetrics;

use crate::{Artifact, Fingerprint};

/// On-disk format version. Bump on any change to the framing or
/// payload layout; stores written under a different version are
/// rejected whole (`version_rejected`).
pub const FORMAT_VERSION: u32 = 1;

/// `b"TCCP"` — the store file magic.
const MAGIC: [u8; 4] = *b"TCCP";

/// Header: magic + format version (u32 LE) + ABI salt (u64 LE).
const HEADER_LEN: usize = 16;

/// Per-entry frame prefix: payload length (u32 LE) + CRC32 (u32 LE).
const FRAME_LEN: usize = 8;

/// Sanity cap on a serialized fingerprint (1 MiB).
const MAX_FP_LEN: usize = 1 << 20;
/// Sanity cap on a function name (4 KiB).
const MAX_NAME_LEN: usize = 4096;
/// Sanity cap on a function body (16 Mi words = 64 MiB).
const MAX_WORDS: usize = 1 << 24;

/// CRC32 (IEEE, poly 0xEDB88320) slicing-by-8 tables, built at compile
/// time — the store cannot take a checksum dependency (leaf
/// workspace). `CRC_TABLES[0]` is the classic bytewise table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which is what lets eight input bytes fold in one step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 (IEEE) of `data`, eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A frame of the file image, indexed at open under the key it claims.
/// Its bounds are checked; its payload is not trusted until
/// [`Frame::verify`] has passed.
#[derive(Debug)]
struct Frame {
    /// Where the payload starts in the image.
    off: usize,
    /// Payload length in bytes.
    len: usize,
    /// The CRC the frame header declares for the payload.
    crc: u32,
}

impl Frame {
    fn payload<'a>(&self, image: &'a [u8]) -> &'a [u8] {
        &image[self.off..self.off + self.len]
    }

    /// The one site where stored bytes become trusted: payload CRC,
    /// full bounds-checked decode, and the decoded key equal to the
    /// `key` this frame is indexed (and was asked for) under. `None`
    /// on any failure — the caller drops the frame and counts it
    /// `corrupt_rejected`.
    fn verify(&self, image: &[u8], key: &Fingerprint) -> Option<Artifact> {
        let payload = self.payload(image);
        if crc32(payload) != self.crc {
            return None;
        }
        let (stored_key, art) = decode_payload(payload)?;
        (stored_key == key.encoding()).then_some(art)
    }
}

#[derive(Debug)]
enum Slot {
    /// Still in the file image.
    Frame(Frame),
    /// Recorded by this process since open: the same `Arc` the memo
    /// or the shared shard holds, not a copy of its words.
    Recorded(Arc<Artifact>),
}

/// The fingerprint-keyed persistent artifact store. One per store
/// path; the first opener in the fleet is the writer, later openers
/// are read-only. Open reads the file and indexes its frames; a
/// payload is CRC-checked and decoded when [`PersistentStore::load`]
/// asks for it (see the module header for which check runs when),
/// timed so hits can be charged their true warm-start cost.
#[derive(Debug)]
pub struct PersistentStore {
    path: PathBuf,
    abi_salt: u64,
    /// The file as read at open; `Slot::Frame`s point into it.
    image: Vec<u8>,
    index: HashMap<Fingerprint, Slot>,
    /// True when in-memory state has diverged from the file.
    dirty: bool,
    /// Whether this instance holds the single-writer lock.
    writer: bool,
    metrics: PersistMetrics,
}

impl PersistentStore {
    /// Opens (or creates) the store at `path` under this build's
    /// `abi_salt`. Never fails: an unreadable, corrupt, truncated, or
    /// version-mismatched file degrades to an empty (cold) store with
    /// the rejection counted in [`PersistMetrics`]. The first opener
    /// of a path becomes the writer; concurrent openers get a
    /// read-only view ([`PersistentStore::is_writer`] is false and
    /// [`PersistentStore::flush`] fails).
    pub fn open(path: impl Into<PathBuf>, abi_salt: u64) -> PersistentStore {
        let t0 = Instant::now();
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                let _ = fs::create_dir_all(dir);
            }
        }
        let writer = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(sibling(&path, ".lock"))
            .is_ok();
        let mut store = PersistentStore {
            image: fs::read(&path).unwrap_or_default(),
            path,
            abi_salt,
            index: HashMap::new(),
            dirty: false,
            writer,
            metrics: PersistMetrics::default(),
        };
        store.index_image();
        store.metrics.open_ns = t0.elapsed().as_nanos() as u64;
        store
    }

    /// Whether this instance holds the single-writer lock (the first
    /// opener of the path in the fleet).
    pub fn is_writer(&self) -> bool {
        self.writer
    }

    /// The store path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The ABI salt this store was opened under.
    pub fn abi_salt(&self) -> u64 {
        self.abi_salt
    }

    /// Resident (indexed at open + recorded − tombstoned − rejected)
    /// entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether an entry is resident for `fp` (no metrics side
    /// effects and no verification — use [`PersistentStore::load`] on
    /// the miss path).
    pub fn contains(&self, fp: &Fingerprint) -> bool {
        self.index.contains_key(fp)
    }

    /// Looks up `fp`, counting a disk hit or miss. A frame still in
    /// the file image is verified here (CRC, full decode, key); one that
    /// fails is dropped, counted `corrupt_rejected`, and answered as a
    /// miss, so the caller compiles. On a hit returns the artifact and
    /// the nanoseconds the load cost (also accumulated into `load_ns`)
    /// so the caller can credit `compile_ns − load_ns` rather than the
    /// full compile time.
    pub fn load(&mut self, fp: &Fingerprint) -> Option<(Arc<Artifact>, u64)> {
        let t0 = Instant::now();
        let art = match self.index.get(fp) {
            None => None,
            Some(Slot::Recorded(art)) => Some(Arc::clone(art)),
            Some(Slot::Frame(frame)) => {
                let art = frame.verify(&self.image, fp);
                if art.is_none() {
                    self.index.remove(fp);
                    self.metrics.corrupt_rejected += 1;
                }
                art.map(Arc::new)
            }
        };
        match art {
            Some(art) => {
                let ns = t0.elapsed().as_nanos() as u64;
                self.metrics.disk_hits += 1;
                self.metrics.load_ns += ns;
                Some((art, ns))
            }
            None => {
                self.metrics.disk_misses += 1;
                None
            }
        }
    }

    /// Records (or replaces) an artifact for `fp`. The store is
    /// rewritten at the next flush; a tombstoned fingerprint recorded
    /// again is resurrected.
    pub fn record(&mut self, fp: Fingerprint, art: Arc<Artifact>) {
        self.index.insert(fp, Slot::Recorded(art));
        self.dirty = true;
    }

    /// Drops the artifact for `fp` so the next flush omits it —
    /// called when `SharedArtifacts::invalidate` retires the
    /// fingerprint: churn, or an artifact that loaded clean but could
    /// not be installed. Returns whether an entry was resident.
    pub fn tombstone(&mut self, fp: &Fingerprint) -> bool {
        if self.index.remove(fp).is_some() {
            self.metrics.tombstones += 1;
            self.dirty = true;
            true
        } else {
            false
        }
    }

    /// Serializes the complete store to a sibling temp file, syncs,
    /// and renames it over the store path — a crash mid-flush leaves
    /// the old file intact. Entries are written sorted by fingerprint
    /// encoding, so equal stores are byte-identical. A frame still in
    /// the file image is verified first and dropped
    /// (`corrupt_rejected`) if it fails: bit rot is never copied into
    /// the new file, under its old CRC or a fresh one. Fails (without
    /// touching the file) on a read-only instance.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.writer {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "store is read-only (another process holds the writer lock)",
            ));
        }
        let bytes = self.serialize();
        let tmp = sibling(&self.path, ".tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        self.metrics.flushes += 1;
        self.metrics.bytes_flushed += bytes.len() as u64;
        self.dirty = false;
        Ok(())
    }

    /// Current counters.
    pub fn metrics(&self) -> PersistMetrics {
        self.metrics
    }

    /// The bytes of the next file. Frames of the image that fail
    /// verification are left out, dropped from the index and counted.
    fn serialize(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.image.len().max(HEADER_LEN));
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.abi_salt.to_le_bytes());
        let image = &self.image;
        let indexed = self.index.len();
        self.index.retain(|fp, slot| match slot {
            Slot::Frame(frame) => frame.verify(image, fp).is_some(),
            Slot::Recorded(_) => true,
        });
        self.metrics.corrupt_rejected += (indexed - self.index.len()) as u64;
        let mut sorted: Vec<(&Fingerprint, &Slot)> = self.index.iter().collect();
        sorted.sort_by(|a, b| a.0.encoding().cmp(b.0.encoding()));
        for (fp, slot) in sorted {
            match slot {
                Slot::Frame(frame) => push_frame(&mut out, frame.crc, frame.payload(image)),
                Slot::Recorded(art) => {
                    let payload = encode_payload(fp, art);
                    push_frame(&mut out, crc32(&payload), &payload);
                }
            }
        }
        out
    }

    /// Zero-trust walk of the file image: any header problem rejects
    /// the whole file; each frame whose bounds and claimed key are
    /// plausible is indexed under that key, payload unread; a frame
    /// whose key is not is skipped by its declared length (later
    /// frames are still indexed); a truncated tail stops the walk
    /// keeping everything before it.
    fn index_image(&mut self) {
        let bytes = &self.image;
        if bytes.is_empty() {
            return; // fresh store
        }
        if bytes.len() < HEADER_LEN || bytes[..4] != MAGIC {
            self.metrics.corrupt_rejected += 1;
            return;
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        let salt = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        if version != FORMAT_VERSION || salt != self.abi_salt {
            self.metrics.version_rejected += 1;
            return;
        }
        let mut off = HEADER_LEN;
        while off < bytes.len() {
            let rest = &bytes[off..];
            if rest.len() < FRAME_LEN {
                self.metrics.corrupt_rejected += 1; // truncated frame
                return;
            }
            let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
            if len > rest.len() - FRAME_LEN {
                self.metrics.corrupt_rejected += 1; // truncated payload
                return;
            }
            let payload = &rest[FRAME_LEN..FRAME_LEN + len];
            let frame = Frame {
                off: off + FRAME_LEN,
                len,
                crc,
            };
            off += FRAME_LEN + len;
            match claimed_key(payload) {
                Some((key, _)) => {
                    self.index
                        .insert(Fingerprint::from_encoding(key), Slot::Frame(frame));
                    self.metrics.entries_loaded += 1;
                }
                None => self.metrics.corrupt_rejected += 1,
            }
        }
    }
}

impl Drop for PersistentStore {
    fn drop(&mut self) {
        // Best-effort durability: unflushed changes go to disk on the
        // way out (ignoring errors — drop cannot report them), and the
        // writer lock is released so the next process can write.
        if self.dirty && self.writer {
            let _ = self.flush();
        }
        if self.writer {
            let _ = fs::remove_file(sibling(&self.path, ".lock"));
        }
    }
}

/// `path` with `suffix` appended to its full name (`cache.a` →
/// `cache.a.lock`), so two stores in one directory never share a lock
/// or temp file the way `with_extension` would make `cache.a` and
/// `cache.b` do.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

fn push_frame(out: &mut Vec<u8>, crc: u32, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
}

fn encode_payload(fp: &Fingerprint, art: &Artifact) -> Vec<u8> {
    let key = fp.encoding();
    let mut p = Vec::with_capacity(key.len() + art.name.len() + art.words.len() * 4 + 32);
    p.extend_from_slice(&(key.len() as u32).to_le_bytes());
    p.extend_from_slice(key);
    p.push(0); // flags, reserved
    p.extend_from_slice(&(art.name.len() as u16).to_le_bytes());
    p.extend_from_slice(art.name.as_bytes());
    p.extend_from_slice(&(art.orig_start as u64).to_le_bytes());
    p.extend_from_slice(&art.compile_ns.to_le_bytes());
    p.extend_from_slice(&(art.words.len() as u32).to_le_bytes());
    for w in &art.words {
        p.extend_from_slice(&w.to_le_bytes());
    }
    p
}

/// The key a payload claims — its leading length-prefixed fingerprint
/// encoding, bounds-checked against the payload and [`MAX_FP_LEN`] —
/// and what follows it. What open indexes a frame under, and the
/// first field [`decode_payload`] reads.
fn claimed_key(p: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = p.split_first_chunk::<4>()?;
    let len = u32::from_le_bytes(*len) as usize;
    if len > MAX_FP_LEN {
        return None;
    }
    rest.split_at_checked(len)
}

/// Bounds-checked payload decode into the stored key and the artifact.
/// `None` on any structural problem (implausible length, short field,
/// trailing garbage, non-UTF-8 name) — the caller counts it
/// `corrupt_rejected`.
fn decode_payload(p: &[u8]) -> Option<(&[u8], Artifact)> {
    let (key, mut rest) = claimed_key(p)?;
    let mut take = |n: usize| -> Option<&[u8]> {
        let (field, tail) = rest.split_at_checked(n)?;
        rest = tail;
        Some(field)
    };
    let _flags = take(1)?[0];
    let name_len = u16::from_le_bytes(take(2)?.try_into().ok()?) as usize;
    if name_len > MAX_NAME_LEN {
        return None;
    }
    let name = std::str::from_utf8(take(name_len)?).ok()?.to_owned();
    let orig_start = u64::from_le_bytes(take(8)?.try_into().ok()?);
    let compile_ns = u64::from_le_bytes(take(8)?.try_into().ok()?);
    let words_len = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
    if words_len > MAX_WORDS {
        return None;
    }
    // Exactly the words and nothing after them: a short body, or
    // trailing garbage under a (forged) valid CRC, is rejected before
    // anything is allocated for it.
    if rest.len() != words_len * 4 {
        return None;
    }
    let words = rest
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
        .collect();
    Some((
        key,
        Artifact {
            name,
            orig_start: orig_start as usize,
            words,
            bytes: rest.len() as u64,
            compile_ns,
            translation: None,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FingerprintBuilder;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn fp(n: u64) -> Fingerprint {
        let mut b = FingerprintBuilder::new();
        b.push_tag(3);
        b.push_u64(n);
        b.build()
    }

    fn art(n: u64, words: usize) -> Arc<Artifact> {
        Arc::new(Artifact {
            name: format!("f{n}"),
            orig_start: n as usize * 16,
            words: (0..words as u32)
                .map(|w| w.wrapping_mul(n as u32))
                .collect(),
            bytes: words as u64 * 4,
            compile_ns: 1000 * n,
            translation: None,
        })
    }

    /// Everything the file stores of an artifact, for comparing one
    /// read back against the one recorded.
    fn stored(a: &Artifact) -> (&str, usize, &[u32], u64, u64) {
        (&a.name, a.orig_start, &a.words, a.bytes, a.compile_ns)
    }

    /// A unique temp path per call (no tempfile dependency).
    fn tmp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "tcc_persist_{tag}_{}_{n}.store",
            std::process::id()
        ))
    }

    /// Removes the store file and its lock (test hygiene).
    fn cleanup(path: &Path) {
        let _ = fs::remove_file(path);
        let _ = fs::remove_file(sibling(path, ".lock"));
    }

    /// Byte offset of the `i`-th entry's first payload byte.
    fn payload_offset(bytes: &[u8], i: usize) -> usize {
        let mut off = HEADER_LEN;
        for _ in 0..i {
            let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
            off += FRAME_LEN + len;
        }
        off + FRAME_LEN
    }

    /// Three six-word entries, flushed; returns the file's bytes.
    fn three_entry_store(path: &Path, salt: u64) -> Vec<u8> {
        let mut s = PersistentStore::open(path, salt);
        for n in 1..=3 {
            s.record(fp(n), art(n, 6));
        }
        s.flush().unwrap();
        fs::read(path).unwrap()
    }

    /// Flips one bit in the last word of the `i`-th entry's body.
    fn flip_a_word_bit(path: &Path, bytes: &[u8], i: usize) {
        let mut bytes = bytes.to_vec();
        let last = payload_offset(&bytes, i + 1) - FRAME_LEN - 1;
        bytes[last] ^= 0x10;
        fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn round_trips_across_reopen() {
        let path = tmp_path("roundtrip");
        {
            let mut s = PersistentStore::open(&path, 42);
            assert!(s.is_writer());
            assert!(s.is_empty());
            s.record(fp(1), art(1, 8));
            s.record(fp(2), art(2, 4));
            s.flush().expect("flush");
            let m = s.metrics();
            assert_eq!(m.flushes, 1);
            assert!(m.bytes_flushed > HEADER_LEN as u64);
        }
        let mut s = PersistentStore::open(&path, 42);
        assert_eq!(s.len(), 2);
        assert_eq!(s.metrics().entries_loaded, 2);
        assert!(s.metrics().open_ns > 0, "open is timed");
        let (a, ns) = s.load(&fp(1)).expect("hit");
        assert_eq!(stored(&a), stored(&art(1, 8)));
        assert!(s.metrics().load_ns >= ns);
        assert_eq!(stored(&s.load(&fp(2)).expect("hit").0), stored(&art(2, 4)));
        assert!(s.load(&fp(3)).is_none());
        let m = s.metrics();
        assert_eq!((m.disk_hits, m.disk_misses), (2, 1));
        assert_eq!(m.disk_hit_rate(), 2.0 / 3.0);
        assert_eq!((m.corrupt_rejected, m.version_rejected), (0, 0));
        cleanup(&path);
    }

    #[test]
    fn flushes_are_canonical() {
        // Same contents → byte-identical files, regardless of insert
        // order (entries sort by fingerprint encoding on flush).
        let (pa, pb) = (tmp_path("canon_a"), tmp_path("canon_b"));
        {
            let mut a = PersistentStore::open(&pa, 7);
            a.record(fp(1), art(1, 4));
            a.record(fp(2), art(2, 4));
            a.flush().unwrap();
            let mut b = PersistentStore::open(&pb, 7);
            b.record(fp(2), art(2, 4));
            b.record(fp(1), art(1, 4));
            b.flush().unwrap();
        }
        assert_eq!(fs::read(&pa).unwrap(), fs::read(&pb).unwrap());
        cleanup(&pa);
        cleanup(&pb);
    }

    #[test]
    fn bit_flip_rejects_one_entry_and_keeps_the_rest() {
        let path = tmp_path("bitflip");
        // Flip the top byte of the second entry's key length: the key
        // it claims no longer fits its payload, so open skips the
        // frame by its declared length; entries 1 and 3 are indexed.
        let mut bytes = three_entry_store(&path, 9);
        let off = payload_offset(&bytes, 1);
        bytes[off + 3] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let mut s = PersistentStore::open(&path, 9);
        assert_eq!(s.len(), 2, "two of three entries survive");
        let m = s.metrics();
        assert_eq!(m.corrupt_rejected, 1);
        assert_eq!(m.entries_loaded, 2);
        assert_eq!(m.version_rejected, 0);
        // Exactly one fingerprint is gone; the survivors round-trip.
        let hits = (1..=3).filter(|&n| s.load(&fp(n)).is_some()).count();
        assert_eq!(hits, 2);
        cleanup(&path);
    }

    #[test]
    fn truncation_keeps_the_prefix() {
        let path = tmp_path("trunc");
        // Cut the file mid-second-entry (a crash without the atomic
        // rename could not produce this, but a failing disk can).
        let bytes = three_entry_store(&path, 9);
        let cut = payload_offset(&bytes, 1) + 2;
        fs::write(&path, &bytes[..cut]).unwrap();
        let mut s = PersistentStore::open(&path, 9);
        assert_eq!(s.len(), 1, "only the entry before the cut survives");
        let m = s.metrics();
        assert_eq!(m.corrupt_rejected, 1);
        assert_eq!(m.entries_loaded, 1);
        assert!(s.load(&fp(1)).is_some());
        cleanup(&path);
    }

    #[test]
    fn wrong_salt_or_version_rejects_the_whole_store() {
        let path = tmp_path("salt");
        {
            let mut s = PersistentStore::open(&path, 1111);
            s.record(fp(1), art(1, 4));
            s.flush().unwrap();
        }
        // Same file, different ABI salt (a rebuilt opcode table or
        // cost model): everything is cold, nothing is corrupt.
        {
            let mut s = PersistentStore::open(&path, 2222);
            assert!(s.is_empty());
            assert!(s.load(&fp(1)).is_none());
            let m = s.metrics();
            assert_eq!(m.version_rejected, 1);
            assert_eq!(m.corrupt_rejected, 0);
            assert_eq!(m.entries_loaded, 0);
        }
        // Bump the header's format version in place: same rejection.
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = bytes[4].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();
        let s = PersistentStore::open(&path, 1111);
        assert!(s.is_empty());
        assert_eq!(s.metrics().version_rejected, 1);
        cleanup(&path);
    }

    #[test]
    fn garbage_and_short_files_are_cold_not_fatal() {
        for (tag, bytes) in [
            ("garbage", b"not a store at all".to_vec()),
            ("shorthdr", b"TCCP\x01".to_vec()),
            ("badmagic", b"XXXXXXXXXXXXXXXX".to_vec()),
        ] {
            let path = tmp_path(tag);
            fs::write(&path, &bytes).unwrap();
            let mut s = PersistentStore::open(&path, 5);
            assert!(s.is_empty(), "{tag}");
            assert_eq!(s.metrics().corrupt_rejected, 1, "{tag}");
            // The store stays usable: record + flush overwrite the
            // junk atomically.
            s.record(fp(1), art(1, 4));
            s.flush().unwrap();
            drop(s);
            let s2 = PersistentStore::open(&path, 5);
            assert_eq!(s2.len(), 1);
            cleanup(&path);
        }
    }

    #[test]
    fn second_opener_is_read_only_until_writer_drops() {
        let path = tmp_path("lock");
        let a = PersistentStore::open(&path, 3);
        assert!(a.is_writer());
        let mut b = PersistentStore::open(&path, 3);
        assert!(!b.is_writer(), "writer lock is exclusive");
        b.record(fp(1), art(1, 4));
        assert!(b.flush().is_err(), "read-only flush must fail");
        drop(a); // releases the lock
        drop(b); // read-only: must NOT try to flush its dirty state
        let c = PersistentStore::open(&path, 3);
        assert!(c.is_writer(), "lock released on drop");
        assert!(c.is_empty(), "the reader's dirty state never hit disk");
        cleanup(&path);
    }

    #[test]
    fn drop_flushes_dirty_writer_state() {
        let path = tmp_path("dropflush");
        {
            let mut s = PersistentStore::open(&path, 3);
            s.record(fp(5), art(5, 4));
            // No explicit flush: drop is the process-exit path.
        }
        let s = PersistentStore::open(&path, 3);
        assert_eq!(s.len(), 1);
        cleanup(&path);
    }

    #[test]
    fn tombstones_are_omitted_on_flush_and_resurrectable() {
        let path = tmp_path("tomb");
        {
            let mut s = PersistentStore::open(&path, 3);
            s.record(fp(1), art(1, 4));
            s.record(fp(2), art(2, 4));
            s.flush().unwrap();
            assert!(s.tombstone(&fp(1)));
            assert!(!s.tombstone(&fp(1)), "already gone");
            assert_eq!(s.metrics().tombstones, 1);
            s.flush().unwrap();
        }
        {
            let mut s = PersistentStore::open(&path, 3);
            assert_eq!(s.len(), 1);
            assert!(s.load(&fp(1)).is_none(), "tombstoned entry is cold");
            assert!(s.load(&fp(2)).is_some());
            // Recording again resurrects the fingerprint.
            s.record(fp(1), art(1, 8));
            s.flush().unwrap();
        }
        let s = PersistentStore::open(&path, 3);
        assert_eq!(s.len(), 2);
        cleanup(&path);
    }

    #[test]
    fn bit_flip_in_the_words_is_caught_at_first_load() {
        let path = tmp_path("lazyflip");
        let bytes = three_entry_store(&path, 9);
        flip_a_word_bit(&path, &bytes, 1);
        let mut s = PersistentStore::open(&path, 9);
        // The frame's bounds and key are fine, so open indexes it.
        assert_eq!(s.len(), 3);
        let m = s.metrics();
        assert_eq!((m.entries_loaded, m.corrupt_rejected), (3, 0));
        // Entries sort by key, so the second frame is fp(2)'s.
        assert!(s.contains(&fp(2)));
        assert!(s.load(&fp(2)).is_none(), "rotten words are never served");
        let m = s.metrics();
        assert_eq!((m.corrupt_rejected, m.disk_misses, m.disk_hits), (1, 1, 0));
        assert_eq!(s.len(), 2, "the rejected frame left the index");
        // Asking again is a plain miss: the rejection is not recounted.
        assert!(s.load(&fp(2)).is_none());
        let m = s.metrics();
        assert_eq!((m.corrupt_rejected, m.disk_misses), (1, 2));
        // The neighbours load bit-identically.
        assert_eq!(stored(&s.load(&fp(1)).expect("hit").0), stored(&art(1, 6)));
        assert_eq!(stored(&s.load(&fp(3)).expect("hit").0), stored(&art(3, 6)));
        // A flush after the rejection omits the bad frame.
        s.flush().unwrap();
        drop(s);
        let mut s = PersistentStore::open(&path, 9);
        assert_eq!(s.len(), 2);
        assert!(!s.contains(&fp(2)));
        assert_eq!(stored(&s.load(&fp(3)).expect("hit").0), stored(&art(3, 6)));
        assert_eq!(s.metrics().corrupt_rejected, 0);
        cleanup(&path);
    }

    #[test]
    fn flush_never_carries_an_unloaded_bad_frame_forward() {
        let path = tmp_path("flushflip");
        let bytes = three_entry_store(&path, 9);
        flip_a_word_bit(&path, &bytes, 1);
        // Nothing is loaded: flush itself must find the rot, not copy
        // it into the new file (under its old CRC or a fresh one).
        let mut s = PersistentStore::open(&path, 9);
        assert_eq!(s.len(), 3);
        s.record(fp(4), art(4, 6));
        s.flush().unwrap();
        assert_eq!(s.metrics().corrupt_rejected, 1);
        assert_eq!(s.len(), 3, "fp(2) dropped, fp(4) recorded");
        drop(s);
        let mut s = PersistentStore::open(&path, 9);
        assert_eq!(s.len(), 3);
        assert!(!s.contains(&fp(2)));
        for n in [1, 3, 4] {
            assert_eq!(stored(&s.load(&fp(n)).expect("hit").0), stored(&art(n, 6)));
        }
        assert_eq!(s.metrics().corrupt_rejected, 0);
        // And the survivors' file is the one a clean store would write.
        let clean = tmp_path("flushflip_clean");
        {
            let mut c = PersistentStore::open(&clean, 9);
            for n in [4, 3, 1] {
                c.record(fp(n), art(n, 6));
            }
            c.flush().unwrap();
        }
        assert_eq!(fs::read(&path).unwrap(), fs::read(&clean).unwrap());
        cleanup(&path);
        cleanup(&clean);
    }

    #[test]
    fn frame_that_decodes_to_another_key_is_rejected() {
        let path = tmp_path("wrongkey");
        three_entry_store(&path, 9);
        let mut s = PersistentStore::open(&path, 9);
        // Index fp(1) at fp(2)'s frame: the CRC holds and the payload
        // decodes, but to a key nobody asked for.
        let other = s.index.remove(&fp(2)).expect("indexed");
        s.index.insert(fp(1), other);
        assert!(s.load(&fp(1)).is_none(), "fp(2)'s words never answer fp(1)");
        let m = s.metrics();
        assert_eq!((m.corrupt_rejected, m.disk_misses, m.disk_hits), (1, 1, 0));
        assert!(!s.contains(&fp(1)));
        assert_eq!(stored(&s.load(&fp(3)).expect("hit").0), stored(&art(3, 6)));
        cleanup(&path);
    }

    #[test]
    fn payload_decode_rejects_short_and_overlong_bodies() {
        let payload = encode_payload(&fp(1), &art(1, 6));
        let (key, decoded) = decode_payload(&payload).expect("well-formed");
        assert_eq!(key, fp(1).encoding());
        assert_eq!(stored(&decoded), stored(&art(1, 6)));
        for cut in 0..payload.len() {
            assert!(decode_payload(&payload[..cut]).is_none(), "cut at {cut}");
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_payload(&long).is_none(), "trailing garbage");
    }

    #[test]
    fn stores_in_one_directory_keep_their_temp_files_apart() {
        let dir = tmp_path("siblings.d");
        fs::create_dir_all(&dir).unwrap();
        let (pa, pb) = (dir.join("cache.a"), dir.join("cache.b"));
        // What `with_extension("tmp")` would make both stores write.
        let shared = dir.join("cache.tmp");
        fs::write(&shared, b"not a temp file").unwrap();
        {
            let mut a = PersistentStore::open(&pa, 3);
            let mut b = PersistentStore::open(&pb, 3);
            a.record(fp(1), art(1, 4));
            b.record(fp(2), art(2, 8));
            a.flush().unwrap();
            b.flush().unwrap();
        }
        assert_ne!(sibling(&pa, ".tmp"), sibling(&pb, ".tmp"));
        assert_eq!(fs::read(&shared).unwrap(), b"not a temp file");
        let mut a = PersistentStore::open(&pa, 3);
        let mut b = PersistentStore::open(&pb, 3);
        assert_eq!((a.len(), b.len()), (1, 1));
        assert_eq!(stored(&a.load(&fp(1)).expect("hit").0), stored(&art(1, 4)));
        assert_eq!(stored(&b.load(&fp(2)).expect("hit").0), stored(&art(2, 8)));
        drop((a, b));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stored_keys_equal_built_fingerprints() {
        use std::hash::{BuildHasher, RandomState};
        let path = tmp_path("keys");
        three_entry_store(&path, 9);
        let s = PersistentStore::open(&path, 9);
        let hasher = RandomState::new();
        for n in 1..=3 {
            let built = fp(n);
            // The same bytes, read back from the file: equal, hash
            // equal, and found by a map keyed on the built one.
            let (stored, _) = s.index.get_key_value(&built).expect("indexed");
            assert_eq!(*stored, built);
            assert_eq!(stored.encoding(), built.encoding());
            assert_eq!(hasher.hash_one(stored), hasher.hash_one(&built));
            let map: HashMap<Fingerprint, u64> = [(built, n)].into();
            assert_eq!(map.get(stored), Some(&n));
        }
        cleanup(&path);
    }

    /// The bytewise CRC32 the slicing-by-8 one replaced: the reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_agrees_with_the_bytewise_reference() {
        // xorshift64: any fixed non-periodic byte stream will do.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        // Every length around the 8-byte step, at every alignment.
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "{start}+{len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }
}
