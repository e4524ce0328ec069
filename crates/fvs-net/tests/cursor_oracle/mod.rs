//! The `FVS2` payload decoder as it was before fixed-offset decoding:
//! a bounds-checked cursor, one `Result` per field. Kept verbatim, for
//! tests only, as the reference `wire_roundtrip.rs` holds the product
//! decoder to — same accept/reject set, same values bit for bit.

use fvs_cluster::{FrequencyCommand, NodeSummary};
use fvs_model::{CpiModel, FreqMhz};
use fvs_net::{FvsError, WireMsg};

const BK_HELLO: u8 = 1;
const BK_HELLO_ACK: u8 = 2;
const BK_SUMMARY: u8 = 3;
const BK_CEILING: u8 = 4;
const BK_BYE: u8 = 5;
const BK_HEARTBEAT: u8 = 6;

const FLAG_MODEL: u8 = 0b01;
const FLAG_IDLE: u8 = 0b10;

/// Bounds-checked reader over a binary payload: every take is length-
/// guarded, so truncated or bit-flipped frames surface as `Err`, never
/// a slice panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FvsError> {
        if self.remaining() < n {
            return Err(FvsError::wire(format!(
                "binary payload truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FvsError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FvsError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, FvsError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FvsError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64(&mut self) -> Result<f64, FvsError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn index(&mut self) -> Result<usize, FvsError> {
        usize::try_from(self.u64()?).map_err(|_| FvsError::wire("index exceeds usize"))
    }

    fn finish(self) -> Result<(), FvsError> {
        if self.remaining() != 0 {
            return Err(FvsError::wire(format!(
                "{} trailing bytes after binary payload",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Decode one `FVS2` binary frame *payload*.
pub fn decode_payload_binary(payload: &[u8]) -> Result<WireMsg, FvsError> {
    let mut c = Cursor::new(payload);
    let kind = c.u8()?;
    let msg = match kind {
        BK_HELLO => WireMsg::Hello {
            version: c.u32()?,
            node: c.index()?,
            procs: c.index()?,
            last_epoch: c.u64()?,
            codecs: c.u8()?,
        },
        BK_HELLO_ACK => WireMsg::HelloAck {
            version: c.u32()?,
            accepted: c.u8()? != 0,
            epoch: c.u64()?,
            codec: c.u8()?,
        },
        BK_SUMMARY => {
            let mut s = NodeSummary {
                node: c.index()?,
                sent_at_s: c.f64()?,
                power_w: c.f64()?,
                ..NodeSummary::default()
            };
            let nproc = usize::from(c.u16()?);
            // Each processor is at least 5 bytes (flags + current), so a
            // fuzzed count larger than the payload is refused before any
            // allocation sized by it.
            if c.remaining() < nproc * 5 {
                return Err(FvsError::wire(format!(
                    "summary claims {nproc} processors but only {} bytes remain",
                    c.remaining()
                )));
            }
            s.models.reserve(nproc);
            s.idle.reserve(nproc);
            s.current.reserve(nproc);
            for _ in 0..nproc {
                let flags = c.u8()?;
                s.models.push(if flags & FLAG_MODEL != 0 {
                    Some(CpiModel {
                        cpi0: c.f64()?,
                        mem_time_per_instr: c.f64()?,
                    })
                } else {
                    None
                });
                s.idle.push(flags & FLAG_IDLE != 0);
                s.current.push(FreqMhz(c.u32()?));
            }
            WireMsg::Summary(s)
        }
        BK_CEILING => {
            let node = c.index()?;
            let n = usize::from(c.u16()?);
            if c.remaining() < n * 4 {
                return Err(FvsError::wire(format!(
                    "ceiling claims {n} frequencies but only {} bytes remain",
                    c.remaining()
                )));
            }
            let mut freqs = Vec::with_capacity(n);
            for _ in 0..n {
                freqs.push(FreqMhz(c.u32()?));
            }
            WireMsg::Ceiling(FrequencyCommand { node, freqs })
        }
        BK_BYE => WireMsg::Bye { node: c.index()? },
        BK_HEARTBEAT => WireMsg::Heartbeat { epoch: c.u64()? },
        other => return Err(FvsError::wire(format!("unknown binary kind byte {other}"))),
    };
    c.finish()?;
    Ok(msg)
}
