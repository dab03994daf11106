//! One log stream: a log processor's private log disk.
//!
//! Records are appended as a byte stream framed into 4 KB checksummed log
//! pages (records may span pages — physical fragments always do). Exactly
//! like the paper's log processor, the current partial page stays in the
//! log processor's memory and keeps packing later records: a
//! [`LogStream::force`] makes it durable by *rewriting* it, not by giving
//! up its free room, and a page is written to its home frame only once it
//! is full. A crash loses precisely the un-forced tail.
//!
//! # Frame layout
//!
//! | frame | contents |
//! |-------|----------|
//! | 0, 1  | header: truncation point, current epoch, epoch floor |
//! | 2, 3  | the two **tail slots** |
//! | 4 ..  | **home** frames: full log pages in stream order |
//!
//! The header is a [`SlotPair`] versioned by a count of header writes, so
//! a torn header write falls back to the previous truncation point.
//!
//! Every log page, home or slot, is stamped with the home frame of the
//! logical page it holds (its page id), the stream's **epoch** at write
//! time, its used byte count, and the offset of the first record that
//! begins in it — so a scan can start at any page a record begins in,
//! skipping the tail of a record that spans in from the page before.
//! Each reopen and each truncation bumps the epoch; a truncation also
//! raises the floor to it.
//!
//! # Truncation
//!
//! [`LogStream::truncate_to`] moves the truncation point forward to a
//! frame a record begins in. [`LogStream::truncate`] drops the whole log
//! and rewinds: the truncation point and the next home frame both go back
//! to the first home frame, so a log checkpointed while quiescent reuses
//! its frames forever. The raised floor is what makes that safe: every
//! page and slot copy written before the truncation carries an older
//! epoch, so the scan rejects the first one it meets.
//!
//! # Slot rule
//!
//! A force rewrites the whole partial page into one of the two tail slots,
//! alternating between them, ranked by the chain's epoch rule below
//! rather than a [`SlotPair`] version. The slot written is never the one
//! holding the newest acked bytes, so a torn rewrite leaves the previous
//! copy intact. When appends fill the page it goes to its home frame,
//! where the last slot copy covers a torn write. So no write ever lands
//! on the only durable copy of an acked byte. A force is one verified page write; a
//! home write costs one more per page of records.
//!
//! # Scan rule
//!
//! A scan walks home frames from the truncation point while each holds a
//! full page of its own frame whose epoch is at least the previous page's
//! (the floor, for the first) and at most the current one. After a
//! whole-log truncation the frames past the new log still hold the old
//! one's pages, whose epochs are below the floor: the run ends there.
//! At the first frame past that run it takes the newest valid slot copy
//! stamped with that frame and an epoch the chain accepts, and stops.
//! Slots left from earlier epochs or from before a truncation fail that
//! test and are never read as live. A slot copy with a *newer* epoch
//! than the home page of the same frame supersedes it: that is how a
//! reopen replaces a full page whose tail the crash cut.
//!
//! A scan copies each log page once: a home page is verified and decoded
//! where the device holds it, and its record bytes go straight into the
//! chain. The chain is then decoded once, each record tagged with its
//! page's home frame as it comes off the bytes.
//!
//! # Reopen
//!
//! A record spanning pages can be *cut* by a crash (its head pages
//! durable, its tail lost). [`LogStream::open`] finds the end of the last
//! complete record and resumes packing the page holding it from there, so
//! later appends never splice onto the dead bytes. If that prefix is not
//! already exactly a slot copy, it gets one (with the new epoch) before
//! anything can rewrite its home frame.

use crate::record::LogRecord;
use rmdb_storage::fault::FaultHandle;
use rmdb_storage::{Disk, MemDisk, Page, PageId, SlotPair, StorageError, PAYLOAD_SIZE};

/// Per-page header inside the payload: `used: u32` + `epoch: u64` +
/// `first: u16` (offset of the first record beginning in the page).
const PAGE_HDR: usize = 14;
/// `first` of a page no record begins in.
const NO_START: u16 = u16::MAX;
/// Usable record bytes per log page.
pub const USABLE: usize = PAYLOAD_SIZE - PAGE_HDR;

/// Reserved page id marking a header frame.
const HEADER_ID: PageId = PageId(u64::MAX);
/// The header's two frames.
const HEADER: SlotPair = SlotPair::at(0);
/// The two tail-slot frames.
const SLOTS: [u64; 2] = [2, 3];
/// First home frame.
const FIRST_HOME: u64 = 4;

/// Salvage accounting from a [`LogStream::scan_with_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Corrupt (torn) log frames quarantined, home or slot; the scan stops
    /// at the first corrupt home frame.
    pub corrupt_pages: u64,
}

/// One decoded record plus the home frame of the log page holding its
/// first byte.
///
/// The frame is what lets a checkpoint-bounded restart engine turn "skip
/// everything before this record" into a durable [`LogStream::truncate_to`]
/// of the stream's scan prefix. It is the page's home frame even while
/// that page is still the partial tail held in a slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexedRecord {
    /// The decoded record.
    pub rec: LogRecord,
    /// Home frame of the log page containing the record's first byte.
    pub frame: u64,
    /// Whether this is the first record beginning in `frame`, i.e. a scan
    /// starting at `frame` decodes from this record. Restart uses this to
    /// pick a truncation frame from the scan it already did, instead of
    /// re-reading the log to find one.
    pub frame_start: bool,
}

/// A log page image for home frame `home`, whose first record begins at
/// `first` (none does if `first >= data.len()`).
fn log_page(home: u64, epoch: u64, first: usize, data: &[u8]) -> Page {
    debug_assert!(data.len() <= USABLE);
    let first = if first < data.len() {
        first as u16
    } else {
        NO_START
    };
    let mut p = Page::new(PageId(home));
    p.write_at(0, &(data.len() as u32).to_le_bytes());
    p.write_at(4, &epoch.to_le_bytes());
    p.write_at(12, &first.to_le_bytes());
    p.write_at(PAGE_HDR, data);
    p
}

/// A decoded log page.
struct LogPage<'a> {
    epoch: u64,
    /// Offset of the first record beginning in the page.
    first: Option<usize>,
    data: &'a [u8],
}

/// Decode a log page from its payload, or `None` for garbage. Home
/// frames and tail slots share this decoder.
fn decode_page(payload: &[u8; PAYLOAD_SIZE]) -> Option<LogPage<'_>> {
    let field = |at: usize, len: usize| &payload[at..at + len];
    let used = u32::from_le_bytes(field(0, 4).try_into().unwrap()) as usize;
    let epoch = u64::from_le_bytes(field(4, 8).try_into().unwrap());
    let first = u16::from_le_bytes(field(12, 2).try_into().unwrap());
    let first = (first != NO_START).then_some(first as usize);
    (used <= USABLE && first.is_none_or(|f| f < used)).then(|| LogPage {
        epoch,
        first,
        data: field(PAGE_HDR, used),
    })
}

/// A decodable tail-slot copy.
struct SlotCopy {
    home: u64,
    epoch: u64,
    first: Option<usize>,
    data: Vec<u8>,
}

impl SlotCopy {
    /// Newer copies sort higher: a later epoch, then (same epoch, same
    /// page) more packed bytes.
    fn age(&self) -> (u64, u64, usize) {
        (self.epoch, self.home, self.data.len())
    }
}

/// Where one log page's bytes sit in a [`Chain`].
#[derive(Clone, Copy)]
struct Extent {
    /// Offset of the page's first byte in the chain.
    off: usize,
    /// The page's home frame.
    frame: u64,
    /// Offset of its first record start within the page.
    first: Option<usize>,
}

/// The durable byte stream of one log disk, read by the scan rule (see
/// the module docs).
struct Chain {
    /// Each log page read, in order.
    extents: Vec<Extent>,
    /// The pages' record bytes, concatenated.
    bytes: Vec<u8>,
    /// Full pages read from home frames; the tail, if any, follows them.
    homes: u64,
    /// Slot the tail page was read from.
    tail_slot: Option<usize>,
    /// Slot the next rewrite may use: never the one holding the tail.
    spare_slot: usize,
    /// Highest epoch stamped on any page read, slots included.
    max_epoch: u64,
    /// Which tail slots read as corrupt.
    corrupt_slots: [bool; 2],
    /// Whether the home frame the chain stopped at read as corrupt.
    corrupt_stop: bool,
}

impl Chain {
    /// Read the chain from `start`, accepting epochs from `floor` up to
    /// `max_epoch`. A home page's record bytes go from the verified frame
    /// straight into the chain: one copy per log page.
    fn read(disk: &Disk, start: u64, floor: u64, max_epoch: u64) -> Chain {
        let mut corrupt_slots = [false; 2];
        let slots = [0, 1].map(|i| {
            let copy = disk.read_page_retry_with(SLOTS[i], |p| {
                let home = p.id.0;
                let lp = decode_page(p.payload())?;
                (FIRST_HOME..HEADER_ID.0).contains(&home).then(|| SlotCopy {
                    home,
                    epoch: lp.epoch,
                    first: lp.first,
                    data: lp.data.to_vec(),
                })
            });
            corrupt_slots[i] = matches!(copy, Err(StorageError::Corrupt { .. }));
            copy.ok().flatten()
        });
        let mut chain = Chain {
            extents: Vec::new(),
            bytes: Vec::new(),
            homes: 0,
            tail_slot: None,
            spare_slot: 0,
            max_epoch: 0,
            corrupt_slots,
            corrupt_stop: false,
        };
        let mut prev = floor;
        let mut frame = start;
        loop {
            let accepts = |epoch: u64| (prev..=max_epoch).contains(&epoch);
            let slot = (0..2)
                .filter(|&i| {
                    slots[i]
                        .as_ref()
                        .is_some_and(|s| s.home == frame && accepts(s.epoch))
                })
                .max_by_key(|&i| slots[i].as_ref().map(SlotCopy::age));
            let slot_epoch = slot.and_then(|i| slots[i].as_ref()).map(|s| s.epoch);
            // a full page of this frame the chain accepts, pushed where it
            // lies; its epoch
            let home = if frame < disk.capacity() {
                let read = disk.read_page_retry_with(frame, |p| {
                    let lp = decode_page(p.payload()).filter(|lp| {
                        p.id == PageId(frame)
                            && lp.data.len() == USABLE
                            && accepts(lp.epoch)
                            && slot_epoch.is_none_or(|s| s <= lp.epoch)
                    })?;
                    chain.push(frame, lp.first, lp.data);
                    Some(lp.epoch)
                });
                // a corrupt home frame always ends the chain
                chain.corrupt_stop = matches!(read, Err(StorageError::Corrupt { .. }));
                read.ok().flatten()
            } else {
                None
            };
            if let Some(epoch) = home {
                chain.homes += 1;
                prev = epoch;
                frame += 1;
                continue;
            }
            if let Some(i) = slot {
                let s = slots[i].as_ref().expect("filtered to a valid slot");
                chain.push(frame, s.first, &s.data);
                chain.tail_slot = Some(i);
            }
            break;
        }
        chain.max_epoch = slots.iter().flatten().map(|s| s.epoch).fold(prev, u64::max);
        chain.spare_slot = match chain.tail_slot {
            Some(i) => 1 - i,
            // no live tail: reuse the invalid or the older copy
            None => usize::from(
                slots[0].as_ref().map(SlotCopy::age) > slots[1].as_ref().map(SlotCopy::age),
            ),
        };
        chain
    }

    /// The corrupt frames the read met: torn slots, and the torn home
    /// frame it stopped at.
    fn stats(&self) -> ScanStats {
        let slots = self.corrupt_slots.iter().filter(|&&c| c).count() as u64;
        ScanStats {
            corrupt_pages: slots + u64::from(self.corrupt_stop),
        }
    }

    fn push(&mut self, frame: u64, first: Option<usize>, data: &[u8]) {
        self.extents.push(Extent {
            off: self.bytes.len(),
            frame,
            first,
        });
        self.bytes.extend_from_slice(data);
    }

    /// Decode the chain's complete records from the first record start,
    /// each tagged with its page's home frame as it is decoded. Bytes
    /// before the first start are the tail of a record that began before
    /// the truncation point.
    fn decode(&self) -> Decoded {
        let lead = self
            .extents
            .iter()
            .find_map(|e| e.first.map(|f| e.off + f))
            .unwrap_or(self.bytes.len());
        let mut out = Decoded {
            records: Vec::new(),
            valid: lead,
            last_page_start: None,
        };
        // the page holding the cursor: the last one beginning at or before it
        let mut page = 0;
        let mut prev_page = usize::MAX;
        let mut cursor = &self.bytes[lead..];
        while let Some(rec) = LogRecord::decode(&mut cursor) {
            let start = out.valid;
            out.valid = self.bytes.len() - cursor.len();
            while self.extents.get(page + 1).is_some_and(|e| e.off <= start) {
                page += 1;
            }
            let frame_start = page != prev_page;
            if frame_start {
                out.last_page_start = Some(start);
            }
            prev_page = page;
            out.records.push(IndexedRecord {
                rec,
                frame: self.extents[page].frame,
                frame_start,
            });
        }
        out
    }
}

/// What [`Chain::decode`] found.
struct Decoded {
    /// The complete records, in chain order.
    records: Vec<IndexedRecord>,
    /// Chain offset just past the last complete record.
    valid: usize,
    /// Chain offset of the first record beginning in the last page any
    /// record begins in.
    last_page_start: Option<usize>,
}

/// A single sequential log on its own disk.
pub struct LogStream {
    disk: Disk,
    /// Home frame of the page being packed.
    home: u64,
    /// That page's record bytes, forced or not (at most one page, except
    /// after a failed home write, which leaves a full page buffered).
    page: Vec<u8>,
    /// Offsets in `page` of the records beginning in it, ascending. The
    /// first is the page's first-record field; when the page goes home,
    /// the starts past it carry over to the next page, so no buffered
    /// byte is ever parsed again.
    starts: Vec<usize>,
    /// Index into [`SLOTS`] of the next tail rewrite; the other slot holds
    /// the newest acked tail.
    slot: usize,
    /// First log page recovery must scan (durable, in the header).
    start_page: u64,
    /// Lowest epoch a live page may carry (durable, in the header).
    floor: u64,
    /// Reopen generation; stamped into every page written.
    epoch: u64,
    /// Header writes so far: the version the next header write takes.
    headers: u64,
    /// A whole-log truncation's header write failed: it must land before
    /// any log page, which may reuse a frame the old log still needs.
    header_pending: bool,
    /// Total bytes ever appended (volatile position).
    appended: u64,
    /// Total bytes on stable storage.
    durable: u64,
    /// Log pages written, home and slot.
    pages_written: u64,
    /// Forces issued (commit/WAL-rule flushes).
    forces: u64,
}

impl LogStream {
    /// Create a fresh stream on an empty in-memory disk of `frames` frames.
    pub fn create(frames: u64) -> Self {
        LogStream::create_on(MemDisk::new(frames).into())
            .expect("fresh in-memory log disk has room for a header")
    }

    /// Create a fresh stream on an already-provisioned empty device — the
    /// backend-generic entry point (see [`rmdb_storage::BackendKind`]).
    pub fn create_on(disk: Disk) -> Result<Self, StorageError> {
        let mut s = LogStream {
            disk,
            home: FIRST_HOME,
            page: Vec::new(),
            starts: Vec::new(),
            slot: 0,
            start_page: FIRST_HOME,
            floor: 1,
            epoch: 1,
            headers: 0,
            header_pending: false,
            appended: 0,
            durable: 0,
            pages_written: 0,
            forces: 0,
        };
        s.write_header()?;
        Ok(s)
    }

    /// Re-open a stream from a (possibly crash-cut) log disk.
    ///
    /// Reads the chain (see module docs), drops any record cut by the
    /// crash, and resumes packing the page holding the last complete
    /// record. Bumps the epoch so nothing stale on the disk can be
    /// mistaken for what this incarnation writes.
    pub fn open(disk: impl Into<Disk>) -> Result<Self, StorageError> {
        LogStream::open_scanned(disk).map(|(s, _, _)| s)
    }

    /// [`LogStream::open`] that also returns what a
    /// [`LogStream::scan_indexed`] of the reopened stream would, decoded
    /// from the one chain read the reopen already does.
    ///
    /// The [`ScanStats`] describe the log as the reopen leaves it. When
    /// the reopen rewrites the tail page into a slot, a torn copy in that
    /// slot is gone, and so is a torn home frame past the resumed page
    /// (the new slot copy now ends the chain before it); neither is
    /// counted. Every other corrupt frame the chain read is.
    pub fn open_scanned(
        disk: impl Into<Disk>,
    ) -> Result<(Self, Vec<IndexedRecord>, ScanStats), StorageError> {
        let disk = disk.into();
        let header = HEADER.read(&disk, |h| {
            let field = |at| u64::from_le_bytes(h.read_at(at, 8).try_into().unwrap());
            (h.id == HEADER_ID).then(|| (field(0).max(FIRST_HOME), field(8), field(16)))
        });
        let (headers, (start_page, old_epoch, floor)) = match header {
            Some((version, fields)) => (version + 1, fields),
            // No valid header copy: a brand-new disk.
            None => (0, (FIRST_HOME, 0, 0)),
        };
        let mut chain = Chain::read(&disk, start_page, floor, u64::MAX);

        // find the end of the last complete record
        let Decoded {
            records,
            valid,
            last_page_start,
        } = chain.decode();

        // resume the page holding that end: a home page the cut ran
        // through, or the tail. Every record start at or past `base` lies
        // in that page, so the first of them is the last page's first.
        let pages = (valid / USABLE).min(chain.homes as usize);
        let base = pages * USABLE;
        let page = chain.bytes[base..valid].to_vec();
        let starts = last_page_start
            .filter(|&start| start >= base)
            .map(|start| start - base)
            .into_iter()
            .collect();
        let tail_intact = chain.tail_slot.is_some() && valid == chain.bytes.len();
        let mut s = LogStream {
            disk,
            home: start_page + pages as u64,
            page,
            starts,
            slot: chain.spare_slot,
            start_page,
            floor,
            epoch: old_epoch.max(chain.max_epoch).saturating_add(1),
            headers,
            header_pending: false,
            appended: valid as u64,
            durable: valid as u64,
            pages_written: 0,
            forces: 0,
        };
        // the surviving prefix must have a slot copy before any write can
        // land on its home frame
        if !s.page.is_empty() && !tail_intact {
            s.write_tail()?;
            // the copy replaced the spare slot and now ends the chain at
            // the resumed page, before any frame past it
            chain.corrupt_slots[chain.spare_slot] = false;
            chain.corrupt_stop &= pages == chain.homes as usize;
        }
        s.write_header()?;
        Ok((s, records, chain.stats()))
    }

    /// Attach a fault injector to the underlying log disk.
    pub fn attach_faults(&mut self, handle: FaultHandle) {
        self.disk.attach_faults(handle);
    }

    /// Detach and return the disk's fault injector, if any.
    pub fn detach_faults(&mut self) -> Option<FaultHandle> {
        self.disk.detach_faults()
    }

    /// Surrender the underlying disk (fault injector still attached).
    /// Used by the failover layer's rejoin path, which re-validates the
    /// durable prefix via [`LogStream::open_scanned`] on a fresh stream.
    pub fn into_disk(self) -> Disk {
        self.disk
    }

    /// Cheap device-health probe through the fault injector: read the
    /// newest header copy and write its bytes to the other slot, the one
    /// the next header version lands in. Fails while the device's
    /// permanent failure is tripped; succeeds once a fault-clear (or
    /// replacement) has revived both paths. Consumes one read and one
    /// write from the injector's operation budget. The written copy sits
    /// in the wrong parity slot, so readers ignore it, and a torn probe
    /// write never touches the newest copy.
    pub fn probe_device(&mut self) -> Result<(), StorageError> {
        // a live stream has written at least one header
        let h = self.disk.read_page(HEADER.slot(self.headers - 1))?;
        self.disk.write_page(HEADER.slot(self.headers), &h)?;
        Ok(())
    }

    /// Write the header as its next version. A failed write is retried as
    /// the same version, never over the newest copy the disk surely holds.
    fn write_header(&mut self) -> Result<(), StorageError> {
        let mut h = Page::new(HEADER_ID);
        h.write_at(0, &self.start_page.to_le_bytes());
        h.write_at(8, &self.epoch.to_le_bytes());
        h.write_at(16, &self.floor.to_le_bytes());
        HEADER.write(&mut self.disk, self.headers, h)?;
        self.headers += 1;
        self.header_pending = false;
        Ok(())
    }

    /// Write one log frame, read-back verified: a silently lost or torn log
    /// page write would otherwise lose committed records that `force`
    /// already promised were durable. A whole-log truncation's header
    /// lands first.
    fn write_frame(&mut self, addr: u64, page: &Page) -> Result<(), StorageError> {
        if self.header_pending {
            self.write_header()?;
        }
        self.disk.write_page_verified(addr, page)?;
        self.pages_written += 1;
        Ok(())
    }

    /// Offset in `page` of the first record beginning in it; `page.len()`
    /// when none does.
    fn first(&self) -> usize {
        self.starts.first().copied().unwrap_or(self.page.len())
    }

    /// Rewrite the partial page into the spare tail slot.
    fn write_tail(&mut self) -> Result<(), StorageError> {
        let p = log_page(self.home, self.epoch, self.first(), &self.page);
        self.write_frame(SLOTS[self.slot], &p)?;
        self.slot ^= 1;
        Ok(())
    }

    /// Write every full page to its home frame. If a write fails
    /// (transient fault budget exhausted, device offline) the bytes stay
    /// buffered, keeping the volatile stream position consistent for a
    /// later retry.
    fn write_full_pages(&mut self) -> Result<(), StorageError> {
        while self.page.len() >= USABLE {
            let p = log_page(self.home, self.epoch, self.first(), &self.page[..USABLE]);
            self.write_frame(self.home, &p)?;
            // the records beginning past this page begin in the next one
            self.starts.retain(|&start| start >= USABLE);
            self.starts.iter_mut().for_each(|start| *start -= USABLE);
            self.page.drain(..USABLE);
            self.home += 1;
            // the page is durable at home, forced or not
            self.durable = self.durable.max(self.appended - self.page.len() as u64);
        }
        Ok(())
    }

    /// Append a record. Full log pages are written to their home frames
    /// immediately; the rest of the partial page stays volatile until
    /// [`LogStream::force`].
    ///
    /// Returns the record's **end position** in the stream's byte order:
    /// the record is durable once [`LogStream::durable_position`] reaches
    /// this value.
    pub fn append(&mut self, rec: &LogRecord) -> Result<u64, StorageError> {
        let before = self.page.len();
        self.starts.push(before);
        rec.encode(&mut self.page);
        self.appended += (self.page.len() - before) as u64;
        self.write_full_pages()?;
        Ok(self.appended)
    }

    /// Make every appended record durable and force the device (on a file
    /// backend this is the fdatasync). The partial page is rewritten into
    /// a tail slot and stays in memory, so later appends keep packing it.
    pub fn force(&mut self) -> Result<(), StorageError> {
        self.forces += 1;
        self.write_full_pages()?;
        if self.durable < self.appended {
            self.write_tail()?;
            self.durable = self.appended;
        }
        self.disk.force()
    }

    /// Total bytes appended (durable or not).
    pub fn position(&self) -> u64 {
        self.appended
    }

    /// Bytes guaranteed on stable storage.
    pub fn durable_position(&self) -> u64 {
        self.durable
    }

    /// Whether the record ending at `pos` is on stable storage.
    pub fn is_durable(&self, pos: u64) -> bool {
        pos <= self.durable
    }

    /// Log pages written since creation/open: home pages and tail-slot
    /// rewrites.
    pub fn pages_written(&self) -> u64 {
        self.pages_written
    }

    /// Number of [`LogStream::force`] calls.
    pub fn forces(&self) -> u64 {
        self.forces
    }

    /// Read every durable record from the truncation point to the log end.
    ///
    /// A record cut by a crash is ignored, as are torn pages and stale
    /// pages from before the last reopen.
    pub fn scan(&self) -> Vec<LogRecord> {
        self.scan_with_stats().0
    }

    /// [`LogStream::scan`] plus salvage accounting: how many corrupt log
    /// frames were quarantined (the scan stops at the first corrupt home
    /// frame, salvaging the decodable prefix). Transient read faults the
    /// scan rode through are counted by the disk
    /// ([`Disk::read_retries`]), not here.
    pub fn scan_with_stats(&self) -> (Vec<LogRecord>, ScanStats) {
        let (indexed, stats) = self.scan_indexed();
        (indexed.into_iter().map(|r| r.rec).collect(), stats)
    }

    fn chain(&self) -> Chain {
        Chain::read(&self.disk, self.start_page, self.floor, self.epoch)
    }

    /// [`LogStream::scan_with_stats`] with each record tagged by the home
    /// frame of the page holding its first byte — the input to
    /// checkpoint-bounded restart analysis (see [`IndexedRecord`]).
    pub fn scan_indexed(&self) -> (Vec<IndexedRecord>, ScanStats) {
        let chain = self.chain();
        (chain.decode().records, chain.stats())
    }

    /// Truncate the whole log: drop everything written so far and start
    /// packing again at the first home frame.
    ///
    /// The caller (checkpoint logic) must have ensured the truncated prefix
    /// is no longer needed: all its updates are on the data disk and no
    /// live transaction may need undo from it.
    pub fn truncate(&mut self) -> Result<(), StorageError> {
        self.force()?;
        self.page.clear();
        self.starts.clear();
        self.home = FIRST_HOME;
        self.start_page = FIRST_HOME;
        self.epoch += 1;
        self.floor = self.epoch;
        // The header write is the commit point. A failed one may still
        // have landed, and a read-back cannot always tell; until it
        // surely has, no log page is written, so either header copy
        // finds a consistent log.
        self.header_pending = true;
        self.write_header()
    }

    /// Advance the durable truncation point to `frame`, keeping everything
    /// from `frame` onwards scannable.
    ///
    /// Used by checkpoint-bounded restart: once recovery establishes that
    /// no record before the bounding checkpoint is needed, the stream's
    /// scan prefix can be dropped durably. `frame` **must hold a record
    /// start** — be the `frame` of an [`IndexedRecord`] whose
    /// `frame_start` is set — or the shortened scan would have no record
    /// to begin decoding at. The caller has this
    /// information from the scan it already did, which is what makes
    /// truncation a pure header write instead of a second pass over the
    /// log (debug builds re-verify alignment). Requests at or before the
    /// current truncation point are no-ops.
    pub fn truncate_to(&mut self, frame: u64) -> Result<(), StorageError> {
        let target = frame.min(self.home);
        if target <= self.start_page {
            return Ok(());
        }
        #[cfg(debug_assertions)]
        self.assert_record_aligned(target);
        self.start_page = target;
        self.write_header()
    }

    /// Debug-build guard for [`LogStream::truncate_to`]: re-scans the log
    /// and checks a record begins in `target`.
    #[cfg(debug_assertions)]
    fn assert_record_aligned(&self, target: u64) {
        assert!(
            self.chain()
                .decode()
                .records
                .iter()
                .any(|r| r.frame == target && r.frame_start),
            "truncate_to({target}): no record begins in frame {target}"
        );
    }

    /// The log disk, for its I/O and retry counters.
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Snapshot the log disk (crash image) — same backend as the stream.
    pub fn disk_snapshot(&self) -> Disk {
        self.disk.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmdb_storage::fault::{FaultInjector, FaultPlan};
    use rmdb_storage::{Lsn, FRAME_SIZE};

    fn commit(txn: u64) -> LogRecord {
        LogRecord::Commit { txn }
    }

    fn big_update(txn: u64, len: usize) -> LogRecord {
        LogRecord::Update {
            txn,
            page: PageId(1),
            prev_lsn: Lsn(0),
            new_lsn: Lsn(txn),
            offset: 0,
            before: vec![0xAB; len],
            after: vec![0xCD; len],
        }
    }

    #[test]
    fn unforced_tail_is_lost() {
        let mut s = LogStream::create(64);
        s.append(&commit(1)).unwrap();
        s.force().unwrap();
        s.append(&commit(2)).unwrap(); // never forced

        let recovered = LogStream::open(s.disk_snapshot()).unwrap();
        assert_eq!(recovered.scan(), vec![commit(1)]);
    }

    #[test]
    fn force_makes_durable() {
        let mut s = LogStream::create(64);
        let pos = s.append(&commit(1)).unwrap();
        assert!(!s.is_durable(pos));
        s.force().unwrap();
        assert!(s.is_durable(pos));
        assert_eq!(s.scan(), vec![commit(1)]);
    }

    #[test]
    fn full_pages_flush_automatically() {
        let mut s = LogStream::create(64);
        // A record bigger than a log page spans pages; its full pages are
        // durable but the record is not until forced.
        let rec = big_update(1, 3 * USABLE / 2);
        let pos = s.append(&rec).unwrap();
        assert!(s.pages_written() >= 1);
        assert!(!s.is_durable(pos));
        s.force().unwrap();
        assert_eq!(s.scan(), vec![rec]);
    }

    #[test]
    fn record_spanning_pages_cut_by_crash_is_dropped() {
        let mut s = LogStream::create(64);
        s.append(&commit(9)).unwrap();
        s.force().unwrap();
        let rec = big_update(1, 2 * USABLE); // spans ≥2 pages
        s.append(&rec).unwrap(); // full pages flushed, tail not forced
        let recovered = LogStream::open(s.disk_snapshot()).unwrap();
        // only the commit survives; the cut update is ignored
        assert_eq!(recovered.scan(), vec![commit(9)]);
    }

    #[test]
    fn appends_after_cut_record_decode_cleanly() {
        // regression: the cut record's durable prefix must not splice onto
        // records appended after reopen
        let mut s = LogStream::create(64);
        s.append(&commit(9)).unwrap();
        s.force().unwrap();
        s.append(&big_update(1, 3 * USABLE)).unwrap(); // cut by the crash

        let mut s2 = LogStream::open(s.disk_snapshot()).unwrap();
        s2.append(&commit(10)).unwrap();
        s2.force().unwrap();
        assert_eq!(s2.scan(), vec![commit(9), commit(10)]);

        // and the same holds after a second crash
        let s3 = LogStream::open(s2.disk_snapshot()).unwrap();
        assert_eq!(s3.scan(), vec![commit(9), commit(10)]);
    }

    #[test]
    fn stale_pages_beyond_frontier_are_ignored() {
        // write far, crash losing the tail, write a little, crash again:
        // the recovery scan must stop at the new frontier and never read
        // the first incarnation's leftover pages
        let mut s = LogStream::create(64);
        for i in 0..40 {
            s.append(&big_update(i, USABLE / 2)).unwrap();
        }
        s.force().unwrap();
        let long_image = s.disk_snapshot();

        // crash back to a short prefix: reopen from an image cut earlier
        let mut short = LogStream::open(long_image).unwrap();
        // simulate that only the first 3 records were actually wanted:
        // truncate and start a new life
        short.truncate().unwrap();
        short.append(&commit(100)).unwrap();
        short.force().unwrap();
        let reopened = LogStream::open(short.disk_snapshot()).unwrap();
        assert_eq!(reopened.scan(), vec![commit(100)]);
    }

    #[test]
    fn interleaved_crash_append_cycles_converge() {
        // repeated cycles of append → crash (losing tails) must always
        // leave a decodable, strictly-growing record prefix
        let mut s = LogStream::create(256);
        let mut expected = Vec::new();
        for round in 0..10u64 {
            let rec = big_update(round, (round as usize * 531) % (2 * USABLE));
            s.append(&rec).unwrap();
            if round % 3 != 0 {
                s.force().unwrap();
                expected.push(rec);
            }
            // crash + reopen
            s = LogStream::open(s.disk_snapshot()).unwrap();
            assert_eq!(s.scan(), expected, "round {round}");
        }
    }

    #[test]
    fn reopen_appends_after_existing_log() {
        let mut s = LogStream::create(64);
        s.append(&commit(1)).unwrap();
        s.force().unwrap();
        let mut s2 = LogStream::open(s.disk_snapshot()).unwrap();
        s2.append(&commit(2)).unwrap();
        s2.force().unwrap();
        assert_eq!(s2.scan(), vec![commit(1), commit(2)]);
    }

    #[test]
    fn truncate_drops_prefix() {
        let mut s = LogStream::create(64);
        s.append(&commit(1)).unwrap();
        s.truncate().unwrap();
        s.append(&commit(2)).unwrap();
        s.force().unwrap();
        assert_eq!(s.scan(), vec![commit(2)]);
        // truncation survives crash
        let recovered = LogStream::open(s.disk_snapshot()).unwrap();
        assert_eq!(recovered.scan(), vec![commit(2)]);
    }

    #[test]
    fn truncate_reuses_frames_from_the_first_home() {
        // 12 home frames; each round fills about 3 of them, so only frame
        // reuse lets 100 rounds through
        let mut s = LogStream::create(16);
        let mut kept = Vec::new();
        for round in 0..100 {
            kept = (0..12).map(|i| big_update(round * 12 + i, 900)).collect();
            for r in &kept {
                s.append(r).unwrap();
            }
            s.force().unwrap();
            if round < 99 {
                s.truncate().unwrap();
            }
        }
        assert_eq!(s.scan(), kept);
        assert_eq!(LogStream::open(s.disk_snapshot()).unwrap().scan(), kept);
    }

    #[test]
    fn a_failed_truncate_header_leaves_a_consistent_log() {
        let new: Vec<LogRecord> = (6..12).map(|i| big_update(i, 900)).collect();
        // the header write fails on every attempt and nothing lands; or it
        // lands but no read-back can tell, through the truncation's write
        // and the retry at the next page write
        let plans = [
            FaultPlan::new().transient_write(0, 4),
            FaultPlan::new().transient_read(0, 8),
        ];
        for plan in plans {
            // an old log that no longer starts at the first home frame, so
            // a page written there under the old header would be misread
            let mut s = LogStream::create(64);
            for i in 0..6 {
                s.append(&big_update(i, 900)).unwrap();
            }
            s.force().unwrap();
            let (indexed, _) = s.scan_indexed();
            let second = indexed
                .iter()
                .find(|r| r.frame_start && r.frame > FIRST_HOME);
            s.truncate_to(second.unwrap().frame).unwrap();
            let old = s.scan();
            s.attach_faults(FaultInjector::handle(plan));
            assert!(s.truncate().is_err());
            // a crash at any point recovers the old log or a prefix of the
            // new one, never frames reused under the old header
            let recovered = |s: &LogStream| LogStream::open(s.disk_snapshot()).unwrap().scan();
            let consistent = |got: Vec<LogRecord>| got == old || new.starts_with(&got);
            assert!(consistent(recovered(&s)));
            for r in &new {
                // a failed page write keeps the record buffered
                let _ = s.append(r);
                assert!(consistent(recovered(&s)));
            }
            s.force().unwrap();
            assert_eq!(s.scan(), new);
            assert_eq!(recovered(&s), new);
        }
    }

    #[test]
    fn many_records_round_trip() {
        let mut s = LogStream::create(256);
        let recs: Vec<LogRecord> = (0..500).map(|i| big_update(i, (i % 97) as usize)).collect();
        for r in &recs {
            s.append(r).unwrap();
        }
        s.force().unwrap();
        assert_eq!(s.scan(), recs);
    }

    #[test]
    fn positions_are_monotone_and_track_durability() {
        let mut s = LogStream::create(64);
        let p1 = s.append(&commit(1)).unwrap();
        let p2 = s.append(&commit(2)).unwrap();
        assert!(p2 > p1);
        assert_eq!(s.position(), p2);
        assert_eq!(s.durable_position(), 0);
        s.force().unwrap();
        assert_eq!(s.durable_position(), p2);
    }

    #[test]
    fn log_full_surfaces_error() {
        let mut s = LogStream::create(5); // header, 2 tail slots, 2 home frames
        let r = big_update(1, USABLE);
        let mut failed = false;
        for _ in 0..4 {
            if s.append(&r).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "filling the log must error, not panic");
    }

    /// Frames ever written on a log disk.
    fn frames_used(d: &Disk) -> u64 {
        (0..d.capacity()).filter(|&a| d.is_allocated(a)).count() as u64
    }

    fn encoded_len(r: &LogRecord) -> usize {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        buf.len()
    }

    /// Tear the stream's next write at byte `cut` and crash the device.
    fn tear_next_write(s: &mut LogStream, cut: usize) {
        s.attach_faults(FaultInjector::handle(
            FaultPlan::new().tear_write(0, cut).crash_after_write(0),
        ));
    }

    #[test]
    fn forced_partial_page_keeps_packing() {
        // a force per record rewrites the partial page instead of burning
        // a frame: only the pages the bytes fill reach a home frame
        let mut s = LogStream::create(64);
        let recs: Vec<LogRecord> = (0..300).map(|i| big_update(i, 20)).collect();
        for r in &recs {
            s.append(r).unwrap();
            s.force().unwrap();
        }
        let bytes: usize = recs.iter().map(encoded_len).sum();
        let full_pages = (bytes / USABLE) as u64;
        assert!(full_pages >= 2, "the test must fill pages");
        let image = s.disk_snapshot();
        // one header copy, both tail slots, one home frame per full page
        assert_eq!(frames_used(&image), 1 + SLOTS.len() as u64 + full_pages);
        // one slot rewrite per force, one home write per full page
        assert_eq!(s.pages_written(), 300 + full_pages);
        assert_eq!(LogStream::open(image).unwrap().scan(), recs);
    }

    #[test]
    fn torn_slot_rewrite_keeps_the_acked_tail() {
        for cut in [1, 30, 100, FRAME_SIZE / 2, FRAME_SIZE - 1] {
            let mut s = LogStream::create(64);
            s.append(&commit(1)).unwrap();
            s.force().unwrap();
            s.append(&commit(2)).unwrap();
            s.force().unwrap();
            s.append(&commit(3)).unwrap();
            tear_next_write(&mut s, cut);
            assert!(s.force().is_err(), "cut {cut}: the crash must surface");
            let got = LogStream::open(s.disk_snapshot()).unwrap().scan();
            // the unacked commit may or may not have landed whole
            assert_eq!(got[..2], [commit(1), commit(2)], "cut {cut}");
            assert!(got.len() <= 3, "cut {cut}: {got:?}");
        }
    }

    #[test]
    fn open_scanned_reports_the_log_as_open_leaves_it() {
        // a torn slot the reopen does not rewrite stays counted
        let mut s = LogStream::create(64);
        for txn in 1..=2 {
            s.append(&commit(txn)).unwrap();
            s.force().unwrap();
        }
        s.append(&commit(3)).unwrap();
        tear_next_write(&mut s, 30);
        assert!(s.force().is_err());
        let image = s.disk_snapshot();
        let (_, records, stats) = LogStream::open_scanned(image).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(stats.corrupt_pages, 1, "the intact tail kept the torn slot");

        // a torn slot the reopen overwrites with the resumed tail is gone
        let mut s = LogStream::create(64);
        s.append(&commit(9)).unwrap();
        s.force().unwrap();
        s.append(&big_update(1, 2 * USABLE)).unwrap(); // full pages go home
        tear_next_write(&mut s, 30);
        assert!(s.force().is_err(), "the tail's slot write tears");
        let image = s.disk_snapshot();
        let before = Chain::read(&image, FIRST_HOME, 0, u64::MAX).stats();
        assert_eq!(before.corrupt_pages, 1, "the chain read sees the torn slot");
        let (s2, records, stats) = LogStream::open_scanned(image).unwrap();
        assert_eq!(s2.pages_written(), 1, "the reopen rewrote the tail");
        assert_eq!(
            records.iter().map(|r| &r.rec).collect::<Vec<_>>(),
            [&commit(9)]
        );
        assert_eq!(stats.corrupt_pages, 0, "the rewrite replaced the torn slot");
        assert_eq!(s2.scan_indexed(), (records, stats));
    }

    #[test]
    fn torn_home_write_is_covered_by_the_last_slot_copy() {
        let mut s = LogStream::create(64);
        let r = big_update(0, 200);
        let mut acked = Vec::new();
        while s.position() as usize + encoded_len(&r) < USABLE {
            s.append(&r).unwrap();
            s.force().unwrap();
            acked.push(r.clone());
        }
        tear_next_write(&mut s, FRAME_SIZE / 3);
        assert!(s.append(&r).is_err(), "the filling append writes home");
        let mut s2 = LogStream::open(s.disk_snapshot()).unwrap();
        let (got, stats) = s2.scan_with_stats();
        assert_eq!(got, acked);
        assert_eq!(stats.corrupt_pages, 1, "the torn home frame is counted");
        // the next incarnation refills the same page and moves on
        for _ in 0..40 {
            s2.append(&r).unwrap();
            s2.force().unwrap();
            acked.push(r.clone());
        }
        let (got, stats) = LogStream::open(s2.disk_snapshot())
            .unwrap()
            .scan_with_stats();
        assert_eq!(got, acked);
        assert_eq!(stats.corrupt_pages, 0, "the refill rewrote the torn frame");
    }

    #[test]
    fn reopen_copies_a_cut_home_page_before_reusing_it() {
        // commit 9 is durable only inside a full home page, whose last
        // record the crash cut: reopen resumes packing that page, so it
        // must first give the prefix a slot copy — a torn refill of the
        // home frame would otherwise destroy the only copy
        let mut s = LogStream::create(64);
        let pos = s.append(&commit(9)).unwrap();
        s.append(&big_update(1, 2 * USABLE)).unwrap();
        assert!(s.is_durable(pos), "the full page went home");
        let mut s2 = LogStream::open(s.disk_snapshot()).unwrap();
        assert_eq!(s2.scan(), vec![commit(9)]);
        assert_eq!(s2.pages_written(), 1, "reopen wrote the slot copy");
        tear_next_write(&mut s2, FRAME_SIZE / 2);
        assert!(s2.append(&big_update(2, USABLE)).is_err());
        let s3 = LogStream::open(s2.disk_snapshot()).unwrap();
        assert_eq!(s3.scan(), vec![commit(9)]);
    }

    #[test]
    fn stale_slots_are_never_live_after_truncate() {
        let mut s = LogStream::create(64);
        s.append(&commit(1)).unwrap();
        s.force().unwrap();
        s.append(&commit(2)).unwrap();
        s.force().unwrap(); // both slots now hold copies of frame 3
        s.truncate().unwrap();
        assert!(s.scan().is_empty());
        assert!(LogStream::open(s.disk_snapshot())
            .unwrap()
            .scan()
            .is_empty());
        // a torn first rewrite after the truncate leaves only stale copies
        s.append(&commit(3)).unwrap();
        tear_next_write(&mut s, 1);
        assert!(s.force().is_err());
        assert!(LogStream::open(s.disk_snapshot())
            .unwrap()
            .scan()
            .is_empty());
    }

    /// A stream whose truncate dropped a partial page a record spans
    /// into, then acked `n` records packed afresh into that page's frame.
    /// Lose the header and the chain re-accepts the truncated pages and
    /// splices the spanning record onto the new bytes.
    fn truncated_then_acked(n: u64) -> (LogStream, Vec<LogRecord>) {
        let mut s = LogStream::create(64);
        s.append(&commit(100)).unwrap();
        s.append(&big_update(0, USABLE / 2)).unwrap(); // spans into page 2
        s.truncate().unwrap();
        let recs: Vec<LogRecord> = (1..=n).map(|i| big_update(i, 200)).collect();
        for r in &recs {
            s.append(r).unwrap();
            s.force().unwrap();
        }
        (s, recs)
    }

    #[test]
    fn torn_truncate_to_header_keeps_every_acked_record() {
        for cut in [16, 20, 24, 32, 40] {
            let (mut s, recs) = truncated_then_acked(30);
            let (indexed, _) = s.scan_indexed();
            let i = (1..indexed.len())
                .find(|&i| indexed[i].frame_start)
                .expect("the acked records fill pages");
            tear_next_write(&mut s, cut);
            assert!(s.truncate_to(indexed[i].frame).is_err(), "cut {cut}");
            let got = LogStream::open(s.disk_snapshot()).unwrap().scan();
            assert!(
                got == recs || got == recs[i..],
                "cut {cut}: reopen returned {} records, {} acked",
                got.len(),
                recs.len()
            );
        }
    }

    #[test]
    fn torn_reopen_header_keeps_every_acked_record() {
        let (s, recs) = truncated_then_acked(30);
        let image = s.disk_snapshot();
        // the acked tail is intact, so the header is a reopen's only write:
        // find its frame and bytes, then land only a prefix of them
        let reopened = LogStream::open(image.snapshot()).unwrap();
        let written: Vec<u64> = (0..image.capacity())
            .filter(|&a| reopened.disk().read_frame(a).ok() != image.read_frame(a).ok())
            .collect();
        assert_eq!(written.len(), 1, "the reopen wrote {written:?}");
        let header = reopened.disk().read_frame(written[0]).unwrap();
        for cut in [16, 20, 24, 32, 40] {
            let mut torn = image.snapshot();
            torn.write_partial(written[0], &header, cut).unwrap();
            assert_eq!(LogStream::open(torn).unwrap().scan(), recs, "cut {cut}");
        }
    }

    #[test]
    fn torn_probe_write_keeps_every_acked_record() {
        // the probe writes beside the newest header copy, never over it
        for cut in [16, 20, 24, 32, 40] {
            let (mut s, recs) = truncated_then_acked(30);
            tear_next_write(&mut s, cut);
            let _ = s.probe_device(); // an unverified write: the tear is silent
            assert_eq!(
                LogStream::open(s.disk_snapshot()).unwrap().scan(),
                recs,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn records_in_the_tail_carry_their_home_frame() {
        // fill frame 3 exactly (one update padded with commits), then
        // leave three forced commits in the tail page
        let c = encoded_len(&commit(0));
        let update = (USABLE / 2 - 64..)
            .map(|n| big_update(0, n))
            .find(|r| (USABLE - encoded_len(r)).is_multiple_of(c))
            .unwrap();
        let pad = (USABLE - encoded_len(&update)) / c;
        let mut s = LogStream::create(64);
        s.append(&update).unwrap();
        for i in 0..pad + 3 {
            s.append(&commit(i as u64)).unwrap();
            s.force().unwrap();
        }
        let (recs, _) = s.scan_indexed();
        assert_eq!(recs.len(), 1 + pad + 3);
        let tail: Vec<_> = recs.iter().filter(|x| x.frame == FIRST_HOME + 1).collect();
        assert_eq!(tail.len(), 3);
        assert!(tail[0].frame_start && !tail[1].frame_start);
        // truncating to the tail page keeps exactly its records
        s.truncate_to(FIRST_HOME + 1).unwrap();
        assert_eq!(s.scan().len(), 3);
        let reopened = LogStream::open(s.disk_snapshot()).unwrap();
        assert_eq!(reopened.scan().len(), 3);
    }

    #[test]
    fn truncate_to_skips_the_tail_of_a_record_spanning_in() {
        let mut s = LogStream::create(64);
        let recs: Vec<LogRecord> = (0..12).map(|i| big_update(i, 700)).collect();
        for r in &recs {
            s.append(r).unwrap();
            s.force().unwrap();
        }
        let (indexed, _) = s.scan_indexed();
        let starts: Vec<usize> = (0..indexed.len())
            .filter(|&i| indexed[i].frame_start)
            .collect();
        assert!(starts.len() >= 3, "every page holds a record start");
        let i = starts[2];
        let frame = indexed[i].frame;
        assert_eq!(frame, FIRST_HOME + 2);
        s.truncate_to(frame).unwrap();
        assert_eq!(s.scan(), recs[i..]);
        let reopened = LogStream::open(s.disk_snapshot()).unwrap();
        assert_eq!(reopened.scan(), recs[i..]);
    }

    #[test]
    fn force_on_empty_buffer_is_noop() {
        let mut s = LogStream::create(8);
        s.force().unwrap();
        s.force().unwrap();
        assert_eq!(s.pages_written(), 0);
        assert_eq!(s.forces(), 2);
    }
}
