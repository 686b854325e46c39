//! [`PlacementSink`]: the streaming destination of the compact-first
//! pipeline.
//!
//! Builders and [`CompactSchedule::expand_into`](crate::CompactSchedule::expand_into)
//! emit placements *once*, directly into their final destination, instead of
//! materializing an intermediate [`Schedule`] that is then copied again
//! (the old `absorb(expand())` pattern). Anything that can receive a
//! [`Placement`] is a sink: the explicit [`Schedule`], a plain
//! `Vec<Placement>`, or a custom consumer (statistics, streaming writers).

use bss_rational::Rational;

use crate::{ItemKind, Placement, Schedule};

/// A streaming consumer of placements.
///
/// Implementors receive placements in whatever order the producer emits
/// them; like [`Schedule`], a sink must not assume per-machine or
/// chronological order. Zero-length placements may be forwarded — sinks that
/// care (like [`Schedule`]) are expected to drop them.
pub trait PlacementSink {
    /// Receives one placement.
    fn place(&mut self, p: Placement);

    /// The sink's machine-count bound, when it has one. Producers (like the
    /// wrap emitters) assert their templates against it, so a builder bug
    /// addressing a machine past the bound fails loudly instead of
    /// streaming placements onto machines that do not exist. Sinks without
    /// an inherent bound (e.g. `Vec<Placement>`) return `None`.
    fn machine_bound(&self) -> Option<usize> {
        None
    }

    /// Convenience: a setup placement.
    fn place_setup(&mut self, machine: usize, start: Rational, len: Rational, class: usize) {
        self.place(Placement::new(machine, start, len, ItemKind::Setup(class)));
    }

    /// Convenience: a job-piece placement.
    fn place_piece(
        &mut self,
        machine: usize,
        start: Rational,
        len: Rational,
        job: usize,
        class: usize,
    ) {
        self.place(Placement::new(
            machine,
            start,
            len,
            ItemKind::Piece { job, class },
        ));
    }
}

impl PlacementSink for Schedule {
    fn place(&mut self, p: Placement) {
        self.push(p);
    }

    fn machine_bound(&self) -> Option<usize> {
        Some(self.machines())
    }
}

/// A bare placement buffer, for callers of
/// [`wrap_into`](../bss_wrap/fn.wrap_into.html) that want the raw list
/// without a [`Schedule`] wrapper.
impl PlacementSink for Vec<Placement> {
    fn place(&mut self, p: Placement) {
        if p.len.is_positive() {
            self.push(p);
        }
    }
}

impl<S: PlacementSink + ?Sized> PlacementSink for &mut S {
    fn place(&mut self, p: Placement) {
        (**self).place(p);
    }

    fn machine_bound(&self) -> Option<usize> {
        (**self).machine_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_sink() {
        let mut s = Schedule::new(2);
        {
            let sink: &mut dyn PlacementSink = &mut s;
            sink.place_setup(0, Rational::ZERO, Rational::ONE, 0);
            sink.place_piece(0, Rational::ONE, Rational::from(2u64), 3, 0);
        }
        assert_eq!(s.placements().len(), 2);
        assert_eq!(s.makespan(), Rational::from(3u64));
    }

    #[test]
    fn vec_sink_drops_zero_length() {
        let mut v: Vec<Placement> = Vec::new();
        v.place_piece(0, Rational::ZERO, Rational::ZERO, 0, 0);
        v.place_piece(0, Rational::ZERO, Rational::ONE, 0, 0);
        assert_eq!(v.len(), 1);
    }
}
