//! Message-size accounting for the CONGEST model.
//!
//! The model allows `O(log n)` bits per edge per round. Rather than
//! serialize messages for real, payload types report the size of their
//! *wire encoding* through [`Payload::bit_size`], and the simulator charges
//! and (optionally) enforces that size. Helper functions compute the sizes
//! of the usual field kinds.

use std::fmt;

/// A message payload with a defined wire size.
///
/// `bit_size` must be the number of bits a reasonable binary encoding of
/// the value would occupy — the quantity the CONGEST limit constrains and
/// the congestion experiments accumulate per edge. Payloads are `Send`
/// because protocols are (see [`Protocol`](crate::Protocol)): a run's
/// buffered envelopes move with it between worker threads.
pub trait Payload: Clone + fmt::Debug + Send {
    /// Size of this message's wire encoding, in bits.
    fn bit_size(&self) -> usize;
}

/// Bits needed to store one value from a domain of `domain_size` values
/// (`⌈log₂ domain_size⌉`, and at least 1).
///
/// # Example
///
/// ```
/// assert_eq!(netsim::bits_for_range(1), 1);
/// assert_eq!(netsim::bits_for_range(2), 1);
/// assert_eq!(netsim::bits_for_range(1024), 10);
/// assert_eq!(netsim::bits_for_range(1025), 11);
/// ```
pub fn bits_for_range(domain_size: u64) -> usize {
    if domain_size <= 2 {
        1
    } else {
        (64 - (domain_size - 1).leading_zeros()) as usize
    }
}

/// Bits needed to store the specific value `v` (`⌈log₂(v+1)⌉`, at least 1).
pub fn bits_for_value(v: u64) -> usize {
    if v <= 1 {
        1
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

impl Payload for () {
    fn bit_size(&self) -> usize {
        1
    }
}

impl Payload for bool {
    fn bit_size(&self) -> usize {
        1
    }
}

impl Payload for u32 {
    fn bit_size(&self) -> usize {
        bits_for_value(u64::from(*self))
    }
}

impl Payload for u64 {
    fn bit_size(&self) -> usize {
        bits_for_value(*self)
    }
}

impl<T: Payload> Payload for Option<T> {
    fn bit_size(&self) -> usize {
        1 + self.as_ref().map_or(0, Payload::bit_size)
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn bit_size(&self) -> usize {
        self.0.bit_size() + self.1.bit_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_bits() {
        assert_eq!(bits_for_range(1), 1);
        assert_eq!(bits_for_range(2), 1);
        assert_eq!(bits_for_range(3), 2);
        assert_eq!(bits_for_range(4), 2);
        assert_eq!(bits_for_range(5), 3);
        assert_eq!(bits_for_range(u64::MAX), 64);
    }

    #[test]
    fn value_bits() {
        assert_eq!(bits_for_value(0), 1);
        assert_eq!(bits_for_value(1), 1);
        assert_eq!(bits_for_value(2), 2);
        assert_eq!(bits_for_value(255), 8);
        assert_eq!(bits_for_value(256), 9);
    }

    #[test]
    fn composite_payload_sizes() {
        assert_eq!(().bit_size(), 1);
        assert_eq!(true.bit_size(), 1);
        assert_eq!(7u32.bit_size(), 3);
        assert_eq!(Some(7u64).bit_size(), 4);
        assert_eq!(None::<u64>.bit_size(), 1);
        assert_eq!((3u32, true).bit_size(), 3);
    }
}
