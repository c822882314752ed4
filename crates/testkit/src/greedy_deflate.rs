//! The reference deflate encoder: greedy LZ77 over 3-byte hash chains
//! (64 candidates per position, 32 KiB window), one fixed-Huffman block,
//! stored blocks when those are smaller — the straightforward form of the
//! encoder `now_raytrace::deflate` speeds up.
//!
//! Every byte a worker ships and every PNG the workspace writes comes out
//! of that encoder, and frame hashes, tile byte counts and golden images
//! pin its output. Its fast matcher and capped variant must therefore emit
//! exactly these bytes; tests hold them to this one, which compares
//! candidates byte by byte and finishes every block.

const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const WINDOW: usize = 32 * 1024;
const MAX_CHAIN: usize = 64;
const HASH_SIZE: usize = 1 << 15;

/// Size of the stored-block encoding of `len` bytes.
fn stored_bound(len: usize) -> usize {
    len + 5 * len.div_ceil(0xFFFF).max(1)
}

fn reverse_bits(code: u32, len: u32) -> u32 {
    let mut out = 0u32;
    for i in 0..len {
        out |= ((code >> i) & 1) << (len - 1 - i);
    }
    out
}

fn fixed_lit_code(sym: u32) -> (u32, u32) {
    let (code, bits) = match sym {
        0..=143 => (0x30 + sym, 8),
        144..=255 => (0x190 + (sym - 144), 9),
        256..=279 => (sym - 256, 7),
        _ => (0xC0 + (sym - 280), 8),
    };
    (reverse_bits(code, bits), bits)
}

struct BitWriter {
    out: Vec<u8>,
    bitbuf: u64,
    nbits: u32,
}

impl BitWriter {
    fn write(&mut self, bits: u32, n: u32) {
        self.bitbuf |= (bits as u64) << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push(self.bitbuf as u8);
            self.bitbuf >>= 8;
            self.nbits -= 8;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push(self.bitbuf as u8);
        }
        self.out
    }
}

fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> 17) as usize & (HASH_SIZE - 1)
}

fn fixed_block(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter {
        out: Vec::new(),
        bitbuf: 0,
        nbits: 0,
    };
    w.write(1, 1); // BFINAL
    w.write(1, 2); // BTYPE = 01 (fixed Huffman)

    let mut head = vec![u32::MAX; HASH_SIZE];
    let mut prev = vec![u32::MAX; data.len()];
    let mut i = 0usize;
    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            let mut cand = head[h];
            let floor = i.saturating_sub(WINDOW);
            let mut chain = MAX_CHAIN;
            while cand != u32::MAX && (cand as usize) >= floor && chain > 0 {
                let c = cand as usize;
                let limit = (data.len() - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < limit && data[c + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l == limit {
                        break;
                    }
                }
                cand = prev[c];
                chain -= 1;
            }
            prev[i] = head[h];
            head[h] = i as u32;
        }
        if best_len >= MIN_MATCH {
            let lc = LEN_BASE
                .iter()
                .rposition(|&b| (b as usize) <= best_len)
                .unwrap();
            let (code, bits) = fixed_lit_code(257 + lc as u32);
            w.write(code, bits);
            let extra = LEN_EXTRA[lc] as u32;
            if extra > 0 {
                w.write((best_len - LEN_BASE[lc] as usize) as u32, extra);
            }
            let dc = DIST_BASE
                .iter()
                .rposition(|&b| (b as usize) <= best_dist)
                .unwrap();
            w.write(reverse_bits(dc as u32, 5), 5);
            let dextra = DIST_EXTRA[dc] as u32;
            if dextra > 0 {
                w.write((best_dist - DIST_BASE[dc] as usize) as u32, dextra);
            }
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1));
            let mut j = i + 1;
            while j < end {
                let h = hash3(data, j);
                prev[j] = head[h];
                head[h] = j as u32;
                j += 1;
            }
            i += best_len;
        } else {
            let (code, bits) = fixed_lit_code(data[i] as u32);
            w.write(code, bits);
            i += 1;
        }
    }
    let (code, bits) = fixed_lit_code(256); // end of block
    w.write(code, bits);
    w.finish()
}

fn stored_blocks(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(stored_bound(data.len()));
    let mut chunks = data.chunks(0xFFFF).peekable();
    loop {
        let block: &[u8] = chunks.next().unwrap_or(&[]);
        let last = chunks.peek().is_none();
        out.push(last as u8);
        out.extend_from_slice(&(block.len() as u16).to_le_bytes());
        out.extend_from_slice(&(!(block.len() as u16)).to_le_bytes());
        out.extend_from_slice(block);
        if last {
            break;
        }
    }
    out
}

/// Raw deflate stream of `data`: the fixed-Huffman block when it is
/// smaller than the stored encoding, the stored blocks otherwise.
pub fn deflate(data: &[u8]) -> Vec<u8> {
    let fixed = fixed_block(data);
    if fixed.len() < stored_bound(data.len()) {
        fixed
    } else {
        stored_blocks(data)
    }
}
