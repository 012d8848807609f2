//! The open-loop request schedule.
//!
//! Each request kind runs at a fixed rate; request `i` of a kind at rate
//! `r` per second is due `i / r` seconds after the start, whatever
//! happened to earlier requests. The sender sends each request at (or
//! after) its due time and its latency is measured from the due time, so
//! a stall in the server or the sender is charged to every request that
//! fell due during it.

/// The due time of request `index` of a stream running at `rate` per
/// second, in nanoseconds after the start.
pub fn due_ns(index: u64, rate: u64) -> u64 {
    assert!(rate > 0, "rate must be positive");
    (u128::from(index) * 1_000_000_000 / u128::from(rate)) as u64
}

/// Periodic streams merged into one endless sequence in due-time order.
#[derive(Clone, Debug)]
pub struct Schedule {
    rates: Vec<u64>,
    issued: Vec<u64>,
}

impl Schedule {
    /// Streams at `rates` (per second).
    pub fn new(rates: &[u64]) -> Schedule {
        Schedule {
            rates: rates.to_vec(),
            issued: vec![0; rates.len()],
        }
    }
}

impl Iterator for Schedule {
    /// `(stream index, due time in ns)`; ties go to the lower index.
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        let (stream, due) = self
            .rates
            .iter()
            .zip(&self.issued)
            .map(|(&rate, &i)| due_ns(i, rate))
            .enumerate()
            .min_by_key(|&(stream, due)| (due, stream))?;
        self.issued[stream] += 1;
        Some((stream, due))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_ns(0, 1000), 0);
        assert_eq!(due_ns(1, 1000), 1_000_000);
        assert_eq!(due_ns(3, 20), 150_000_000);
        assert_eq!(due_ns(1, 3), 333_333_333);
    }

    #[test]
    fn merged_streams_in_due_order() {
        let events: Vec<(usize, u64)> = Schedule::new(&[1000, 20])
            .take_while(|e| e.1 < 1_000_000_000)
            .collect();
        assert_eq!(events.iter().filter(|e| e.0 == 0).count(), 1000);
        assert_eq!(events.iter().filter(|e| e.0 == 1).count(), 20);
        assert!(events.windows(2).all(|w| w[0].1 <= w[1].1));
        // Both streams are due at 0 and at 50 ms: the EST stream goes
        // first on a tie.
        assert_eq!(&events[..3], &[(0, 0), (1, 0), (0, 1_000_000)]);
        let at_50ms: Vec<usize> = events
            .iter()
            .filter(|e| e.1 == 50_000_000)
            .map(|e| e.0)
            .collect();
        assert_eq!(at_50ms, vec![0, 1]);
    }

    #[test]
    fn a_stall_does_not_move_due_times() {
        // The sender is blocked for the first 10.5 ms and then sends the
        // backlog at once: the due times of the requests it owes are
        // unchanged, so each one is charged the part of the stall it
        // waited through.
        let stall_end = 10_500_000u64;
        let late: Vec<u64> = Schedule::new(&[1000])
            .take_while(|e| e.1 < 20_000_000)
            .map(|(_, due)| stall_end.max(due) - due)
            .collect();
        assert_eq!(late.len(), 20);
        assert_eq!(late[0], 10_500_000);
        assert_eq!(late[10], 500_000);
        assert!(late[11..].iter().all(|&l| l == 0));
    }
}
