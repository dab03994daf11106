//! The 4 KB page: id, LSN, checksum header and payload.
//!
//! On-frame layout (little-endian), in 8-byte words:
//!
//! ```text
//! word 0        0..8       page id
//! word 1        8..16      LSN (page sequence number; used by WAL redo
//!                          idempotence and by the version-selection shadow
//!                          architecture as its "timestamp")
//! word 2        16..24     checksum of every other word
//! words 3..511  24..4088   payload, folded by four lanes (127 words each)
//! word 511      4088..4096 payload tail word
//! ```
//!
//! The payload is 4072 bytes: 509 words, the last of which is the tail.
//!
//! # Checksum
//!
//! Four independent FNV-style lanes fold the payload words round-robin
//! (word `3 + 4i + j` into lane `j`); each step is `h = (h ^ w) * P` with
//! the FNV prime `P`. The two header words, the four lanes in order and
//! the tail word then fold into one FNV chain, which is the checksum. A
//! step is injective in both `h` and `w` (XOR, then multiplication by an
//! odd constant mod 2^64), so a change confined to any one word changes
//! its lane, and with it the final value: every single-word change, any
//! bit flip among them, is always detected. A torn frame (a new prefix
//! over an old suffix) is caught with overwhelming probability.
//!
//! The lanes carry no dependency on one another, so the fold runs four
//! multiplies at a time instead of one dependent chain of 509; it runs on
//! every page read and every verified write, which is why it matters.
//!
//! # Borrowed views
//!
//! [`Page::view`] verifies a frame where it lies and hands back a
//! [`PageRef`] borrowing its payload, so a reader that only inspects or
//! decodes a page never builds one. [`Page::from_frame`] is that view
//! copied into an owned [`Page`].

use crate::error::StorageError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of a disk frame in bytes (the paper's 4 KB page).
pub const FRAME_SIZE: usize = 4096;
/// Header bytes preceding the payload.
pub const HEADER_SIZE: usize = 24;
/// Usable payload bytes per page.
pub const PAYLOAD_SIZE: usize = FRAME_SIZE - HEADER_SIZE;

/// Logical page identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PageId(pub u64);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Page sequence number: monotonically increasing per page, stamped by the
/// recovery manager on every update.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Lsn(pub u64);

impl Lsn {
    /// The LSN preceding all real LSNs.
    pub const ZERO: Lsn = Lsn(0);

    /// The next LSN.
    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

/// An in-memory page: header fields plus payload.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    /// Which logical page this is.
    pub id: PageId,
    /// Sequence number of the last update applied.
    pub lsn: Lsn,
    payload: Box<[u8; PAYLOAD_SIZE]>,
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Page")
            .field("id", &self.id)
            .field("lsn", &self.lsn)
            .field("payload", &format!("[{} bytes]", PAYLOAD_SIZE))
            .finish()
    }
}

impl Page {
    /// A fresh all-zero page.
    pub fn new(id: PageId) -> Self {
        Page {
            id,
            lsn: Lsn::ZERO,
            payload: Box::new([0u8; PAYLOAD_SIZE]),
        }
    }

    /// Read-only payload.
    pub fn payload(&self) -> &[u8; PAYLOAD_SIZE] {
        &self.payload
    }

    /// Mutable payload. The caller is responsible for bumping the LSN via
    /// its recovery manager; the page itself never self-stamps.
    pub fn payload_mut(&mut self) -> &mut [u8; PAYLOAD_SIZE] {
        &mut self.payload
    }

    /// Overwrite a byte range of the payload.
    ///
    /// # Panics
    /// If the range exceeds the payload.
    pub fn write_at(&mut self, offset: usize, bytes: &[u8]) {
        self.payload[offset..offset + bytes.len()].copy_from_slice(bytes);
    }

    /// Read a byte range of the payload.
    pub fn read_at(&self, offset: usize, len: usize) -> &[u8] {
        &self.payload[offset..offset + len]
    }

    /// Serialize to a raw frame, computing the checksum.
    pub fn to_frame(&self) -> Box<[u8; FRAME_SIZE]> {
        let mut frame = Box::new([0u8; FRAME_SIZE]);
        frame[0..8].copy_from_slice(&self.id.0.to_le_bytes());
        frame[8..16].copy_from_slice(&self.lsn.0.to_le_bytes());
        frame[HEADER_SIZE..].copy_from_slice(&self.payload[..]);
        let sum = checksum_of(&frame);
        frame[16..24].copy_from_slice(&sum.to_le_bytes());
        frame
    }

    /// Verify a raw frame's checksum and borrow it as a [`PageRef`].
    ///
    /// A torn or corrupt frame yields [`StorageError::Corrupt`]; `addr` is
    /// only used for the error message.
    pub fn view(frame: &[u8; FRAME_SIZE], addr: u64) -> Result<PageRef<'_>, StorageError> {
        if checksum_of(frame) != word(frame, 16) {
            return Err(StorageError::Corrupt { addr });
        }
        Ok(PageRef {
            id: PageId(word(frame, 0)),
            lsn: Lsn(word(frame, 8)),
            payload: frame[HEADER_SIZE..]
                .try_into()
                .expect("frame minus header is a payload"),
        })
    }

    /// Deserialize from a raw frame, verifying the checksum: the
    /// [`Page::view`] of the frame, copied.
    pub fn from_frame(frame: &[u8; FRAME_SIZE], addr: u64) -> Result<Page, StorageError> {
        Page::view(frame, addr).map(|v| v.to_page())
    }
}

/// A verified frame, borrowed: the header fields plus a view of the
/// payload bytes where they lie. See [`Page::view`].
#[derive(Clone, Copy)]
pub struct PageRef<'a> {
    /// Which logical page this is.
    pub id: PageId,
    /// Sequence number of the last update applied.
    pub lsn: Lsn,
    payload: &'a [u8; PAYLOAD_SIZE],
}

impl fmt::Debug for PageRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageRef")
            .field("id", &self.id)
            .field("lsn", &self.lsn)
            .finish_non_exhaustive()
    }
}

impl<'a> PageRef<'a> {
    /// The payload bytes.
    pub fn payload(&self) -> &'a [u8; PAYLOAD_SIZE] {
        self.payload
    }

    /// Read a byte range of the payload.
    ///
    /// # Panics
    /// If the range exceeds the payload.
    pub fn read_at(&self, offset: usize, len: usize) -> &'a [u8] {
        &self.payload[offset..offset + len]
    }

    /// An owned copy.
    pub fn to_page(&self) -> Page {
        let mut payload = Box::new([0u8; PAYLOAD_SIZE]);
        payload.copy_from_slice(self.payload);
        Page {
            id: self.id,
            lsn: self.lsn,
            payload,
        }
    }
}

/// The little-endian word at byte `at` of `frame`.
fn word(frame: &[u8; FRAME_SIZE], at: usize) -> u64 {
    u64::from_le_bytes(frame[at..at + 8].try_into().expect("8-byte word"))
}

/// Checksum of a frame: every word but the checksum word itself, folded
/// as the module docs describe.
fn checksum_of(frame: &[u8; FRAME_SIZE]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let fold = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME);
    let (body, tail) = frame[HEADER_SIZE..].split_at(PAYLOAD_SIZE - 8);
    let mut lanes = [OFFSET, OFFSET ^ 1, OFFSET ^ 2, OFFSET ^ 3];
    for block in body.chunks_exact(32) {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = fold(
                *lane,
                u64::from_le_bytes(w.try_into().expect("8-byte word")),
            );
        }
    }
    let tail = u64::from_le_bytes(tail.try_into().expect("8-byte word"));
    [
        word(frame, 0),
        word(frame, 8),
        lanes[0],
        lanes[1],
        lanes[2],
        lanes[3],
        tail,
    ]
    .into_iter()
    .fold(OFFSET, fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn frame_round_trip() {
        let mut p = Page::new(PageId(42));
        p.lsn = Lsn(7);
        p.write_at(100, b"recovery architectures");
        let frame = p.to_frame();
        let q = Page::from_frame(&frame, 0).unwrap();
        assert_eq!(q, p);
        assert_eq!(q.read_at(100, 22), b"recovery architectures");
    }

    #[test]
    fn corrupt_frame_detected() {
        let p = Page::new(PageId(1));
        let mut frame = p.to_frame();
        frame[2000] ^= 0xff;
        assert_eq!(
            Page::from_frame(&frame, 9),
            Err(StorageError::Corrupt { addr: 9 })
        );
    }

    #[test]
    fn torn_write_detected() {
        let mut old = Page::new(PageId(5));
        old.write_at(0, &[0xAA; 64]);
        old.write_at(3000, &[0xAA; 64]);
        old.lsn = Lsn(1);
        let mut new = old.clone();
        new.write_at(0, &[0xBB; 64]);
        new.write_at(3000, &[0xBB; 64]);
        new.lsn = Lsn(2);
        let old_frame = old.to_frame();
        let new_frame = new.to_frame();
        // first half new, second half old — a torn write
        let mut torn = [0u8; FRAME_SIZE];
        torn[..2048].copy_from_slice(&new_frame[..2048]);
        torn[2048..].copy_from_slice(&old_frame[2048..]);
        assert!(Page::from_frame(&torn, 0).is_err());
    }

    #[test]
    fn header_does_not_alias_payload() {
        let mut p = Page::new(PageId(3));
        p.lsn = Lsn(9);
        p.write_at(0, b"\x00\x00\x00\x00");
        let frame = p.to_frame();
        let q = Page::from_frame(&frame, 0).unwrap();
        assert_eq!(q.id, PageId(3));
        assert_eq!(q.lsn, Lsn(9));
    }

    #[test]
    fn lsn_next_increments() {
        assert_eq!(Lsn::ZERO.next(), Lsn(1));
        assert_eq!(Lsn(41).next(), Lsn(42));
    }

    #[test]
    #[should_panic]
    fn write_past_payload_panics() {
        let mut p = Page::new(PageId(0));
        p.write_at(PAYLOAD_SIZE - 1, &[1, 2]);
    }

    /// A payload whose every word differs from every other: byte `i`
    /// holds `i * 7 + salt`, truncated.
    fn patterned(id: u64, lsn: u64, salt: u8) -> Page {
        let mut p = Page::new(PageId(id));
        p.lsn = Lsn(lsn);
        for (i, b) in p.payload_mut().iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(7).wrapping_add(salt);
        }
        p
    }

    #[test]
    fn checksum_known_answer() {
        // Pins the on-frame checksum: a change to the fold is a format
        // change, and must update these vectors on purpose. (Computed by an
        // independent transcription of the module docs' fold.)
        let frame = patterned(0x0123_4567_89ab_cdef, 42, 3).to_frame();
        assert_eq!(word(&frame, 16), 0x4eef_6994_95d6_ed09);
        let zero = Page::new(PageId(0)).to_frame();
        assert_eq!(word(&zero, 16), 0xa26d_18fd_4a14_954b);
    }

    #[test]
    fn torn_frame_fails_at_every_sector_cut() {
        let old = patterned(9, 1, 0x11);
        let new = patterned(9, 2, 0x5a);
        let (old, new) = (old.to_frame(), new.to_frame());
        for cut in (512..FRAME_SIZE).step_by(512) {
            let mut torn = [0u8; FRAME_SIZE];
            torn[..cut].copy_from_slice(&new[..cut]);
            torn[cut..].copy_from_slice(&old[cut..]);
            assert_eq!(
                Page::view(&torn, 3).map(|v| v.lsn),
                Err(StorageError::Corrupt { addr: 3 }),
                "new prefix of {cut} bytes over the old suffix"
            );
        }
        assert_eq!(Page::view(&new, 0).unwrap().lsn, Lsn(2));
        assert_eq!(Page::view(&old, 0).unwrap().lsn, Lsn(1));
    }

    #[test]
    fn view_borrows_what_from_frame_copies() {
        let p = patterned(12, 34, 5);
        let frame = p.to_frame();
        let v = Page::view(&frame, 0).unwrap();
        assert_eq!((v.id, v.lsn), (PageId(12), Lsn(34)));
        assert!(std::ptr::eq(
            v.payload().as_ptr(),
            frame[HEADER_SIZE..].as_ptr()
        ));
        assert_eq!(v.read_at(100, 8), p.read_at(100, 8));
        assert_eq!(v.to_page(), p);
        assert_eq!(Page::from_frame(&frame, 0).unwrap(), p);
    }

    proptest! {
        #[test]
        fn round_trip_arbitrary(
            id in any::<u64>(),
            lsn in any::<u64>(),
            offset in 0usize..PAYLOAD_SIZE - 64,
            data in proptest::collection::vec(any::<u8>(), 1..64),
        ) {
            let mut p = Page::new(PageId(id));
            p.lsn = Lsn(lsn);
            p.write_at(offset, &data);
            let q = Page::from_frame(&p.to_frame(), 0).unwrap();
            prop_assert_eq!(&q, &p);
        }

        #[test]
        fn any_change_confined_to_one_word_is_detected(
            word_at in 0usize..FRAME_SIZE / 8,
            mask in 1u64..=u64::MAX,
            salt in any::<u8>(),
        ) {
            // header words 0-1, the checksum word 2, every lane's words
            // and the tail word 511
            let mut frame = patterned(5, 6, salt).to_frame();
            let at = word_at * 8;
            let w = word(&frame, at) ^ mask;
            frame[at..at + 8].copy_from_slice(&w.to_le_bytes());
            prop_assert!(Page::view(&frame, 0).is_err());
        }

        #[test]
        fn single_bitflip_always_detected(
            byte in 0usize..FRAME_SIZE,
            bit in 0u8..8,
        ) {
            let mut p = Page::new(PageId(77));
            p.write_at(0, b"payload");
            let mut frame = p.to_frame();
            frame[byte] ^= 1 << bit;
            prop_assert!(Page::from_frame(&frame, 0).is_err());
        }
    }
}
