//! The open-loop schedule.
//!
//! An open loop sends each request when it is due, whether or not earlier
//! ones have completed, so a stall delays every request behind it and the
//! latency of each is timed from its *due* time. The generator sleeps until
//! the next request is due, then submits every request already due; how
//! late it ran is reported as its own number.

use std::time::{Duration, Instant};

/// Time as the schedule sees it, measured from the schedule's start. The
/// wall clock drives real runs; tests drive a synthetic one.
pub trait Clock {
    fn now(&self) -> Duration;
    fn sleep_until(&mut self, t: Duration);
}

pub struct WallClock {
    start: Instant,
}

impl WallClock {
    pub fn new(start: Instant) -> Self {
        WallClock { start }
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn sleep_until(&mut self, t: Duration) {
        if let Some(gap) = t.checked_sub(self.now()) {
            std::thread::sleep(gap);
        }
    }
}

/// Due times of `count` requests at a fixed `rate` per second.
pub fn fixed_rate(rate: f64, count: usize) -> Vec<Duration> {
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// Runs the schedule `due` (non-decreasing offsets from the clock's start):
/// sleeps until the next request is due, then calls `submit(i)` for every
/// request already due. Returns each request's lateness, the time between
/// its due time and the moment its submission began.
pub fn run_schedule<C: Clock>(
    clock: &mut C,
    due: &[Duration],
    mut submit: impl FnMut(&mut C, usize),
) -> Vec<Duration> {
    let mut late = Vec::with_capacity(due.len());
    let mut i = 0;
    while i < due.len() {
        if clock.now() < due[i] {
            clock.sleep_until(due[i]);
        }
        let now = clock.now();
        while i < due.len() && due[i] <= now {
            late.push(clock.now().saturating_sub(due[i]));
            submit(clock, i);
            i += 1;
        }
    }
    late
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told: sleeping jumps to the target, and
    /// each submission costs a fixed amount of time.
    struct FakeClock {
        now: Duration,
        sleeps: usize,
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.now
        }

        fn sleep_until(&mut self, t: Duration) {
            self.sleeps += 1;
            self.now = self.now.max(t);
        }
    }

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    #[test]
    fn a_generator_that_keeps_up_is_never_late() {
        // 10 µs apart, 2 µs per submission: the generator sleeps before
        // every request and submits each exactly on time.
        let mut clock = FakeClock {
            now: Duration::ZERO,
            sleeps: 0,
        };
        let due: Vec<Duration> = (0..5).map(|i| us(10 * i)).collect();
        let late = run_schedule(&mut clock, &due, |c, _| c.now += us(2));
        assert_eq!(late, vec![Duration::ZERO; 5]);
        assert_eq!(clock.sleeps, 4, "request 0 is due at once");
    }

    #[test]
    fn lateness_accumulates_when_submissions_outrun_the_schedule() {
        // Due every 10 µs but each submission takes 25 µs: request i starts
        // at 25·i, so it runs 15·i µs late, and no sleep is ever needed
        // after the first request.
        let mut clock = FakeClock {
            now: Duration::ZERO,
            sleeps: 0,
        };
        let due: Vec<Duration> = (0..6).map(|i| us(10 * i)).collect();
        let mut order = Vec::new();
        let late = run_schedule(&mut clock, &due, |c, i| {
            order.push(i);
            c.now += us(25);
        });
        assert_eq!(order, (0..6).collect::<Vec<_>>());
        let expect: Vec<Duration> = (0..6).map(|i| us(15 * i)).collect();
        assert_eq!(late, expect);
        assert_eq!(clock.sleeps, 0);
    }

    #[test]
    fn a_stall_delays_every_request_behind_it() {
        // One 100 µs stall at request 1 makes requests 2..=10 late by the
        // part of the stall their due time has not yet absorbed.
        let mut clock = FakeClock {
            now: Duration::ZERO,
            sleeps: 0,
        };
        let due: Vec<Duration> = (0..12).map(|i| us(10 * i)).collect();
        let late = run_schedule(&mut clock, &due, |c, i| {
            if i == 1 {
                c.now += us(100);
            }
        });
        let late_us: Vec<u128> = late.iter().map(Duration::as_micros).collect();
        assert_eq!(late_us, vec![0, 0, 90, 80, 70, 60, 50, 40, 30, 20, 10, 0]);
    }

    #[test]
    fn fixed_rate_spaces_requests_evenly() {
        let due = fixed_rate(1_000.0, 3);
        assert_eq!(due, vec![Duration::ZERO, us(1_000), us(2_000)]);
    }
}
