//! A dependency-free DEFLATE compressor and decompressor (RFC 1951) plus
//! the zlib wrapper (RFC 1950).
//!
//! The compressor emits a single fixed-Huffman block (BTYPE 01) with
//! greedy LZ77 hash-chain matching, falling back to stored blocks
//! (BTYPE 00) whenever the compressed form would be larger — so
//! [`deflate`] output never exceeds the stored-block size for any input. The
//! decompressor handles stored and fixed-Huffman blocks, which covers
//! every stream this crate produces (dynamic-Huffman blocks are rejected;
//! we never emit them).
//!
//! Two consumers share this module: [`crate::image_io::png_bytes`] (the
//! golden-image PNG writer, which previously shipped stored blocks only)
//! and the farm's tile-delta wire codec in `now_coherence`, which
//! deflates per-region pixel deltas before they cross the network.
//! Compression is fully deterministic: the same input produces the same
//! bytes on every platform, which the golden-image hashes and the
//! byte-identical frame contract both rely on.

/// Upper bound on [`deflate`] output: the stored-block encoding's size
/// (5 bytes of header per 65,535-byte block, one block minimum).
fn stored_bound(len: usize) -> usize {
    let blocks = len.div_ceil(0xFFFF).max(1);
    len + 5 * blocks
}

/// Adler-32 checksum over `bytes` (the zlib trailer).
fn adler32(bytes: &[u8]) -> u32 {
    const MOD: u32 = 65521;
    let (mut a, mut b) = (1u32, 0u32);
    // 5552 is the largest n with n*(n+1)/2*255 + (n+1)*(65520) < 2^32
    for chunk in bytes.chunks(5552) {
        for &x in chunk {
            a += x as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

// Length codes 257..=285: base length and extra-bit count (RFC 1951 §3.2.5).
const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
// Distance codes 0..=29: base distance and extra-bit count.
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
/// How many hash-chain candidates the matcher tries per position. 64 is a
/// speed/ratio compromise in the zlib "level 6" neighborhood.
const MAX_CHAIN: usize = 64;

/// Huffman codes are packed MSB-first inside the LSB-first bit stream, so
/// every code is emitted bit-reversed.
fn reverse_bits(code: u32, len: u32) -> u32 {
    let mut out = 0u32;
    for i in 0..len {
        out |= ((code >> i) & 1) << (len - 1 - i);
    }
    out
}

/// Fixed literal/length code for `sym` (0..=287): `(code, bits)`, already
/// bit-reversed for an LSB-first writer.
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
    fn new() -> BitWriter {
        BitWriter {
            out: Vec::new(),
            bitbuf: 0,
            nbits: 0,
        }
    }

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

const HASH_SIZE: usize = 1 << 15;

/// The eight bytes of `data` at `at`, as one little-endian word.
#[inline(always)]
fn load8(data: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(word)
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, at most
/// `limit` (`b + limit <= data.len()`), compared a word at a time.
#[inline(always)]
fn match_len(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut l = 0;
    while l + 8 <= limit {
        let diff = load8(data, a + l) ^ load8(data, b + l);
        if diff != 0 {
            return l + diff.trailing_zeros() as usize / 8;
        }
        l += 8;
    }
    while l < limit && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// Greedy LZ77 + fixed-Huffman encoding of `data` as one final block, or
/// `None` as soon as the block is known to come out longer than `cap`
/// bytes.
///
/// Greedy: each position takes the longest match among its first
/// `MAX_CHAIN` hash-chain candidates, the nearest on ties. A candidate can
/// only replace the best if it is longer, so one whose byte at `best_len`
/// differs is passed over before the rest of it is compared; the match
/// chosen is the same.
fn fixed_block(data: &[u8], cap: usize) -> Option<Vec<u8>> {
    let mut w = BitWriter::new();
    w.write(1, 1); // BFINAL
    w.write(1, 2); // BTYPE = 01 (fixed Huffman)

    let mut head = vec![u32::MAX; HASH_SIZE];
    let mut prev = vec![u32::MAX; data.len()];
    let mut i = 0usize;
    while i < data.len() {
        // bytes already written never shrink, so past the cap is final
        if w.out.len() > cap {
            return None;
        }
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash3(data, i);
            let mut cand = head[h];
            let floor = i.saturating_sub(WINDOW);
            let limit = (data.len() - i).min(MAX_MATCH);
            let mut chain = MAX_CHAIN;
            while cand != u32::MAX && (cand as usize) >= floor && chain > 0 {
                let c = cand as usize;
                // best_len < limit here: a full-length match ends the search
                if data[c + best_len] == data[i + best_len] {
                    let l = match_len(data, c, i, limit);
                    if l > best_len {
                        best_len = l;
                        best_dist = i - c;
                        if l == limit {
                            break;
                        }
                    }
                }
                cand = prev[c];
                chain -= 1;
            }
            // insert the current position into its chain
            prev[i] = head[h];
            head[h] = i as u32;
        }
        if best_len >= MIN_MATCH {
            // length symbol (258 lands on index 28 = code 285, extra 0)
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
            // distance symbol: 5-bit fixed code, MSB-first
            let dc = DIST_BASE
                .iter()
                .rposition(|&b| (b as usize) <= best_dist)
                .unwrap();
            w.write(reverse_bits(dc as u32, 5), 5);
            let dextra = DIST_EXTRA[dc] as u32;
            if dextra > 0 {
                w.write((best_dist - DIST_BASE[dc] as usize) as u32, dextra);
            }
            // seed the hash chains for the matched span (cheap and keeps
            // later matches finding these positions)
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
    let block = w.finish();
    (block.len() <= cap).then_some(block)
}

/// Encode `data` as stored (uncompressed) deflate blocks.
fn stored_blocks(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(stored_bound(data.len()));
    let mut chunks = data.chunks(0xFFFF).peekable();
    loop {
        // an empty stream still needs one (empty) stored block
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

/// Compress `data` into a raw deflate stream (no zlib wrapper). Picks the
/// smaller of a fixed-Huffman block and the stored-block encoding, so the
/// output never exceeds the stored-block size, `stored_bound(data.len())`.
pub fn deflate(data: &[u8]) -> Vec<u8> {
    fixed_block(data, stored_bound(data.len()) - 1).unwrap_or_else(|| stored_blocks(data))
}

/// [`deflate`]`(data)` if it is at most `cap` bytes long, else `None`.
///
/// For a caller that keeps the stream only if it beats `cap` bytes: the
/// fixed-Huffman block is abandoned as soon as its output passes the cap,
/// so a losing stream costs only the input it took to lose.
pub fn deflate_within(data: &[u8], cap: usize) -> Option<Vec<u8>> {
    if cap >= stored_bound(data.len()) {
        return Some(deflate(data));
    }
    // below the stored size only the fixed block can fit
    fixed_block(data, cap)
}

struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    bitbuf: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(data: &'a [u8]) -> BitReader<'a> {
        BitReader {
            data,
            pos: 0,
            bitbuf: 0,
            nbits: 0,
        }
    }

    fn read(&mut self, n: u32) -> Result<u32, &'static str> {
        while self.nbits < n {
            let b = *self.data.get(self.pos).ok_or("truncated deflate stream")?;
            self.pos += 1;
            self.bitbuf |= (b as u64) << self.nbits;
            self.nbits += 8;
        }
        let v = (self.bitbuf & ((1u64 << n) - 1)) as u32;
        self.bitbuf >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Read one bit at a time, accumulating MSB-first (Huffman code order).
    fn read_code_bit(&mut self, acc: u32) -> Result<u32, &'static str> {
        Ok((acc << 1) | self.read(1)?)
    }

    fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.bitbuf >>= drop;
        self.nbits -= drop;
    }
}

/// Decode one fixed-Huffman literal/length symbol.
fn read_fixed_lit(r: &mut BitReader) -> Result<u32, &'static str> {
    let mut v = 0u32;
    for _ in 0..7 {
        v = r.read_code_bit(v)?;
    }
    if v <= 0x17 {
        return Ok(256 + v); // 7-bit codes: 256..=279
    }
    v = r.read_code_bit(v)?;
    if (0x30..=0xBF).contains(&v) {
        return Ok(v - 0x30); // 8-bit codes: literals 0..=143
    }
    if (0xC0..=0xC7).contains(&v) {
        return Ok(280 + (v - 0xC0)); // 8-bit codes: 280..=287
    }
    v = r.read_code_bit(v)?;
    if (0x190..=0x1FF).contains(&v) {
        return Ok(144 + (v - 0x190)); // 9-bit codes: literals 144..=255
    }
    Err("invalid fixed-Huffman code")
}

/// Decompress a raw deflate stream (stored and fixed-Huffman blocks; this
/// module never emits dynamic blocks and rejects them here) of at most
/// `max_out` bytes.
///
/// A stream that would inflate past `max_out` is an error, found before
/// the output grows past the bound: deflate expands up to 1032:1 (a
/// length-258 match in two bytes), so a caller decoding untrusted bytes
/// bounds the output by what it can legitimately receive.
pub fn inflate(data: &[u8], max_out: usize) -> Result<Vec<u8>, &'static str> {
    let mut out = Vec::new();
    inflate_into(data, max_out, &mut out)?;
    Ok(out)
}

/// Make room for `n` more bytes in `out`, refusing if they would take it
/// past `max_out`. Capacity doubles as usual but is clamped to `max_out`,
/// so the buffer is never larger than the bound either.
#[inline]
fn reserve_within(out: &mut Vec<u8>, n: usize, max_out: usize) -> Result<(), &'static str> {
    let need = out.len().saturating_add(n);
    if need > max_out {
        return Err("inflated stream exceeds its size bound");
    }
    if need > out.capacity() {
        let target = need.max(out.capacity().saturating_mul(2)).min(max_out);
        out.reserve_exact(target - out.len());
    }
    Ok(())
}

/// [`inflate`] into a caller-owned buffer, which holds what was decoded
/// even when the stream is refused.
fn inflate_into(data: &[u8], max_out: usize, out: &mut Vec<u8>) -> Result<(), &'static str> {
    let mut r = BitReader::new(data);
    loop {
        let bfinal = r.read(1)?;
        match r.read(2)? {
            0 => {
                r.align_byte();
                let len = r.read(16)? as usize;
                let nlen = r.read(16)? as u16;
                if nlen != !(len as u16) {
                    return Err("stored block NLEN mismatch");
                }
                reserve_within(out, len, max_out)?;
                for _ in 0..len {
                    out.push(r.read(8)? as u8);
                }
            }
            1 => loop {
                let sym = read_fixed_lit(&mut r)?;
                match sym {
                    0..=255 => {
                        reserve_within(out, 1, max_out)?;
                        out.push(sym as u8);
                    }
                    256 => break,
                    257..=285 => {
                        let li = (sym - 257) as usize;
                        let len = LEN_BASE[li] as usize + r.read(LEN_EXTRA[li] as u32)? as usize;
                        let mut dc = 0u32;
                        for _ in 0..5 {
                            dc = r.read_code_bit(dc)?;
                        }
                        let di = dc as usize;
                        if di >= 30 {
                            return Err("invalid distance code");
                        }
                        let dist = DIST_BASE[di] as usize + r.read(DIST_EXTRA[di] as u32)? as usize;
                        if dist > out.len() {
                            return Err("distance beyond output start");
                        }
                        reserve_within(out, len, max_out)?;
                        let start = out.len() - dist;
                        for k in 0..len {
                            let b = out[start + k];
                            out.push(b);
                        }
                    }
                    _ => return Err("invalid literal/length symbol"),
                }
            },
            2 => return Err("dynamic-Huffman blocks unsupported"),
            _ => return Err("reserved block type"),
        }
        if bfinal == 1 {
            return Ok(());
        }
    }
}

/// Compress `data` as a zlib stream: CMF/FLG header, deflate body,
/// Adler-32 trailer. The `0x78 0x01` header (32K window, fastest-flag)
/// matches what the stored-only writer emitted, keeping PNG consumers
/// happy.
pub fn zlib_compress(data: &[u8]) -> Vec<u8> {
    let body = deflate(data);
    let mut out = Vec::with_capacity(6 + body.len());
    out.extend_from_slice(&[0x78, 0x01]);
    out.extend_from_slice(&body);
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// Decompress a zlib stream produced by [`zlib_compress`] (or any zlib
/// stream whose deflate body uses stored/fixed blocks) of at most
/// `max_out` bytes, verifying the Adler-32 trailer.
pub fn zlib_decompress(data: &[u8], max_out: usize) -> Result<Vec<u8>, &'static str> {
    if data.len() < 6 {
        return Err("zlib stream too short");
    }
    let cmf = data[0];
    if cmf & 0x0F != 8 {
        return Err("not a deflate zlib stream");
    }
    if !((cmf as u16) << 8 | data[1] as u16).is_multiple_of(31) {
        return Err("zlib header check failed");
    }
    let out = inflate(&data[2..data.len() - 4], max_out)?;
    let want = u32::from_be_bytes(data[data.len() - 4..].try_into().unwrap());
    if adler32(&out) != want {
        return Err("Adler-32 mismatch");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random bytes (xorshift64*).
    fn noise(n: usize, mut seed: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn roundtrip_assorted_inputs() {
        let cases: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            b"abc".to_vec(),
            b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
            b"the quick brown fox jumps over the lazy dog. \
              the quick brown fox jumps over the lazy dog."
                .to_vec(),
            (0u32..4000).map(|i| (i % 251) as u8).collect(),
            noise(70_000, 42), // spans the 65,535-byte stored-block limit
            vec![0u8; 200_000],
        ];
        for data in cases {
            let packed = deflate(&data);
            assert_eq!(
                inflate(&packed, data.len()).unwrap(),
                data,
                "len {}",
                data.len()
            );
            assert!(
                packed.len() <= stored_bound(data.len()),
                "output {} exceeds stored bound {} for len {}",
                packed.len(),
                stored_bound(data.len()),
                data.len()
            );
            let z = zlib_compress(&data);
            assert_eq!(zlib_decompress(&z, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn incompressible_input_never_grows_past_stored_bound() {
        for &n in &[1usize, 17, 4096, 65_535, 65_536, 131_071] {
            let data = noise(n, n as u64 + 1);
            let packed = deflate(&data);
            assert!(packed.len() <= stored_bound(n), "n={n}");
            assert_eq!(inflate(&packed, n).unwrap(), data, "n={n}");
        }
    }

    #[test]
    fn repetitive_input_actually_compresses() {
        let data = vec![7u8; 65_536];
        let packed = deflate(&data);
        assert!(
            packed.len() < data.len() / 50,
            "runs should shrink dramatically, got {}",
            packed.len()
        );
        let frame: Vec<u8> = (0..48_000).map(|i| ((i / 120) % 7) as u8).collect();
        assert!(deflate(&frame).len() < frame.len() / 10);
    }

    #[test]
    fn known_answer_reference_zlib_fixed_stream() {
        // zlib.compressobj(level=9, strategy=Z_FIXED) over the doubled fox
        // sentence — a fixed-Huffman block with a genuine LZ77
        // back-reference (distance 45, length 44). Our inflate must accept
        // a reference encoder's stream, not just its own.
        let reference: [u8; 55] = [
            0x78, 0x01, 0x2B, 0xC9, 0x48, 0x55, 0x28, 0x2C, 0xCD, 0x4C, 0xCE, 0x56, 0x48, 0x2A,
            0xCA, 0x2F, 0xCF, 0x53, 0x48, 0xCB, 0xAF, 0x50, 0xC8, 0x2A, 0xCD, 0x2D, 0x28, 0x56,
            0xC8, 0x2F, 0x4B, 0x2D, 0x52, 0x28, 0x01, 0x4A, 0xE7, 0x24, 0x56, 0x55, 0x2A, 0xA4,
            0xE4, 0xA7, 0xEB, 0x81, 0x79, 0xC4, 0x2A, 0x06, 0x00, 0xBF, 0x71, 0x20, 0x6F,
        ];
        let expect = b"the quick brown fox jumps over the lazy dog. \
                       the quick brown fox jumps over the lazy dog.";
        assert_eq!(
            zlib_decompress(&reference, expect.len()).unwrap(),
            expect,
            "reference stream must decode"
        );
    }

    #[test]
    fn stored_block_known_answer() {
        // hand-built stored block: BFINAL=1 BTYPE=00, LEN=5, NLEN=!5
        let stream = [0x01, 0x05, 0x00, 0xFA, 0xFF, b'h', b'e', b'l', b'l', b'o'];
        assert_eq!(inflate(&stream, 5).unwrap(), b"hello");
        assert!(inflate(&stream, 4).is_err(), "one byte past the bound");
    }

    #[test]
    fn corrupt_streams_rejected() {
        assert!(inflate(&[], 64).is_err());
        // BTYPE=10 (dynamic) is not supported
        assert!(inflate(&[0x05], 64).is_err());
        // stored block with broken NLEN
        assert!(inflate(&[0x01, 0x05, 0x00, 0x00, 0x00, 1, 2, 3, 4, 5], 64).is_err());
        // zlib trailer tampered
        let mut z = zlib_compress(b"payload payload payload");
        let n = z.len();
        z[n - 1] ^= 0xFF;
        assert!(zlib_decompress(&z, 64).is_err());
        // zlib header check bits tampered
        let mut z2 = zlib_compress(b"x");
        z2[1] ^= 0x01;
        assert!(zlib_decompress(&z2, 64).is_err());
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn deflate_is_deterministic() {
        let data = noise(10_000, 9);
        assert_eq!(deflate(&data), deflate(&data));
    }

    /// Inputs the encoder meets: noise, runs, ramps, short repeats, text,
    /// and mixtures whose matches straddle the 8-byte compare.
    fn assorted_inputs() -> Vec<Vec<u8>> {
        let mut cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"a".to_vec(),
            b"abcabcabcabd".to_vec(),
            vec![0u8; 200_000],
            (0u32..4000).map(|i| (i % 251) as u8).collect(),
            (0u32..30_000).map(|i| ((i / 120) % 7) as u8).collect(),
            b"the quick brown fox jumps over the lazy dog. ".repeat(40),
        ];
        for seed in 0..24u64 {
            let n = [1usize, 7, 300, 5_000, 40_000, 70_000][seed as usize % 6];
            // noise over a small alphabet: many short and mid-length
            // matches, and hash chains long enough to hit MAX_CHAIN
            let alphabet = 1 + (seed % 4) * 3;
            cases.push(noise(n, seed).iter().map(|b| b % alphabet as u8).collect());
            cases.push(noise(n, seed + 100));
            // runs of random lengths around the 8-byte word and 258 cap
            let mut runs = Vec::new();
            let mut r = noise(2 * n / 3 + 2, seed + 200).into_iter();
            while runs.len() < n {
                let (len, b) = (r.next().unwrap_or(1) as usize + 1, r.next().unwrap_or(0));
                runs.extend(std::iter::repeat_n(b % 3, len));
            }
            cases.push(runs);
        }
        cases
    }

    #[test]
    fn deflate_emits_the_greedy_reference_bytes() {
        for data in assorted_inputs() {
            let want = now_testkit::greedy_deflate::deflate(&data);
            assert_eq!(deflate(&data), want, "len {}", data.len());
        }
    }

    /// `deflate_within` keeps exactly the streams of at most `cap` bytes,
    /// and a kept stream is the reference's.
    #[test]
    fn deflate_within_keeps_exactly_the_streams_within_the_cap() {
        for data in assorted_inputs() {
            let want = now_testkit::greedy_deflate::deflate(&data);
            let n = want.len();
            let stored = stored_bound(data.len());
            for cap in [
                0,
                1,
                n / 2,
                n.saturating_sub(1),
                n,
                n + 1,
                stored - 1,
                stored,
            ] {
                match deflate_within(&data, cap) {
                    Some(got) => {
                        assert!(n <= cap, "len {}: kept {n} > cap {cap}", data.len());
                        assert_eq!(got, want, "len {}, cap {cap}", data.len());
                    }
                    None => assert!(n > cap, "len {}: dropped {n} <= cap {cap}", data.len()),
                }
            }
        }
    }

    /// A deflate bomb: one literal, then length-258 matches at distance 1,
    /// thirteen bits apiece — a few hundred bytes that inflate 1000-fold.
    /// The bound refuses it, and the buffer never grows past the bound.
    #[test]
    fn inflate_refuses_a_bomb_before_passing_its_bound() {
        let mut w = BitWriter::new();
        w.write(1, 1); // BFINAL
        w.write(1, 2); // fixed Huffman
        let (code, bits) = fixed_lit_code(b'x' as u32);
        w.write(code, bits);
        for _ in 0..200 {
            let (code, bits) = fixed_lit_code(285); // length 258, no extra bits
            w.write(code, bits);
            w.write(reverse_bits(0, 5), 5); // distance 1
        }
        let (code, bits) = fixed_lit_code(256);
        w.write(code, bits);
        let bomb = w.finish();
        assert!(bomb.len() < 400, "{} bytes", bomb.len());

        let full = 1 + 200 * 258;
        assert_eq!(inflate(&bomb, full).unwrap(), vec![b'x'; full]);
        for bound in [0, 1, 258, 10_000, full - 1] {
            let mut out = Vec::new();
            assert!(
                inflate_into(&bomb, bound, &mut out).is_err(),
                "bound {bound}"
            );
            assert!(
                out.len() <= bound && out.capacity() <= bound,
                "bound {bound}"
            );
        }
    }
}
