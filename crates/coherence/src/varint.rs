//! Shared zigzag + LEB128 varint primitives.
//!
//! Two encoders use these: the [`crate::engine`]'s kept ray paths (a
//! learning engine's in-memory working set) and the [`crate::tiledelta`]
//! tile-update codec (worker→master frame deltas), whose nearly-sorted id
//! sequences with small gaps are what the zigzag deltas are for.

/// Map a signed delta onto the unsigned varint domain (small magnitudes
/// stay small: 0, -1, 1, -2, 2 → 0, 1, 2, 3, 4).
#[inline]
pub fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Append `v` as LEB128; returns the bytes written.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) -> usize {
    let mut n = 0;
    loop {
        n += 1;
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return n;
        }
        out.push(byte | 0x80);
    }
}

/// Read one LEB128 varint, advancing `pos`. Panics on truncated input —
/// callers that parse untrusted bytes should use [`try_read_varint`].
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Checked [`read_varint`]: `None` on truncation or a varint longer than
/// 10 bytes (which cannot encode a `u64`).
#[inline]
pub fn try_read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_extremes() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            out.clear();
            let n = write_varint(&mut out, v);
            assert_eq!(n, out.len());
            let mut pos = 0;
            assert_eq!(read_varint(&out, &mut pos), v);
            assert_eq!(pos, out.len());
            let mut pos = 0;
            assert_eq!(try_read_varint(&out, &mut pos), Some(v));
        }
        for d in [0i64, 1, -1, 63, -64, i32::MAX as i64, -(i32::MAX as i64)] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
    }

    #[test]
    fn try_read_rejects_truncation_and_overlong() {
        let mut pos = 0;
        assert_eq!(try_read_varint(&[], &mut pos), None);
        let mut pos = 0;
        assert_eq!(try_read_varint(&[0x80, 0x80], &mut pos), None);
        // 11 continuation bytes can't fit in a u64
        let overlong = [0xFFu8; 11];
        let mut pos = 0;
        assert_eq!(try_read_varint(&overlong, &mut pos), None);
    }
}
