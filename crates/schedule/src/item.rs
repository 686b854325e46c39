//! Placements: the atoms of a schedule.

use bss_instance::{ClassId, JobId};
use bss_json::{Field, FromJson, JsonError, JsonReader, JsonWriter, ToJson};
use bss_rational::Rational;

/// What occupies a stretch of machine time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ItemKind {
    /// A (never preempted) setup of the given class.
    Setup(ClassId),
    /// A piece of a job. `class` is redundant with the instance's job table
    /// but keeps placements self-describing for renderers.
    Piece {
        /// The job this piece belongs to.
        job: JobId,
        /// The job's class.
        class: ClassId,
    },
}

impl ItemKind {
    /// The class this item belongs to.
    #[must_use]
    pub fn class(&self) -> ClassId {
        match *self {
            ItemKind::Setup(c) => c,
            ItemKind::Piece { class, .. } => class,
        }
    }

    /// `true` iff this is a setup.
    #[must_use]
    pub fn is_setup(&self) -> bool {
        matches!(self, ItemKind::Setup(_))
    }
}

// The wire format follows serde's externally-tagged enum convention:
// `{"Setup": 3}` and `{"Piece": {"job": 7, "class": 3}}`.
impl ToJson for ItemKind {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| match *self {
            ItemKind::Setup(class) => o.key("Setup").int(class as i128),
            ItemKind::Piece { job, class } => o.key("Piece").object(|piece| {
                piece.key("job").int(job as i128);
                piece.key("class").int(class as i128);
            }),
        });
    }
}

impl FromJson for ItemKind {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        if !r.at_object() {
            let found = r.scalar()?;
            return Err(JsonError::new(format!(
                "expected `Setup` or `Piece` item, found {}",
                found.kind()
            )));
        }
        let (mut setup, mut piece) = (Field::default(), Field::default());
        r.object("Setup", |key, r| match key {
            "Setup" => setup.read_with(r, |r| r.int("Setup class").map(ItemKind::Setup)),
            "Piece" => piece.read_with(r, read_piece),
            _ => r.skip(),
        })?;
        // A `Setup` key wins over a `Piece` key, wherever each stands.
        if let Some(setup) = setup.optional()? {
            return Ok(setup);
        }
        piece
            .optional()?
            .ok_or_else(|| JsonError::new("expected `Setup` or `Piece` item, found object"))
    }
}

/// Reads the `{"job", "class"}` body of a `Piece` item.
fn read_piece(r: &mut JsonReader<'_>) -> Result<ItemKind, JsonError> {
    let (mut job, mut class) = (Field::default(), Field::default());
    r.object("job", |key, r| match key {
        "job" => job.read_with(r, |r| r.int("Piece.job")),
        "class" => class.read_with(r, |r| r.int("Piece.class")),
        _ => r.skip(),
    })?;
    Ok(ItemKind::Piece {
        job: job.required("job")?,
        class: class.required("class")?,
    })
}

/// A contiguous block of time on one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Machine index in `0..m`.
    pub machine: usize,
    /// Start time (`>= 0`).
    pub start: Rational,
    /// Duration (`> 0`).
    pub len: Rational,
    /// The occupant.
    pub kind: ItemKind,
}

impl Placement {
    /// Creates a placement.
    #[must_use]
    pub fn new(machine: usize, start: Rational, len: Rational, kind: ItemKind) -> Self {
        Placement {
            machine,
            start,
            len,
            kind,
        }
    }

    /// End time `start + len`.
    #[must_use]
    pub fn end(&self) -> Rational {
        self.start + self.len
    }
}

impl ToJson for Placement {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|o| {
            o.key("machine").int(self.machine as i128);
            o.key("start").value(&self.start);
            o.key("len").value(&self.len);
            o.key("kind").value(&self.kind);
        });
    }
}

impl FromJson for Placement {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut machine, mut start, mut len, mut kind) = (
            Field::default(),
            Field::default(),
            Field::default(),
            Field::default(),
        );
        r.object("machine", |key, r| match key {
            "machine" => machine.read_with(r, |r| r.int("machine")),
            "start" => start.read(r),
            "len" => len.read(r),
            "kind" => kind.read(r),
            _ => r.skip(),
        })?;
        Ok(Placement {
            machine: machine.required("machine")?,
            start: start.required("start")?,
            len: len.required("len")?,
            kind: kind.required("kind")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_accessors() {
        let s = ItemKind::Setup(3);
        let p = ItemKind::Piece { job: 7, class: 3 };
        assert!(s.is_setup());
        assert!(!p.is_setup());
        assert_eq!(s.class(), 3);
        assert_eq!(p.class(), 3);
    }

    #[test]
    fn placement_end() {
        let p = Placement::new(
            0,
            Rational::new(1, 2),
            Rational::new(3, 2),
            ItemKind::Setup(0),
        );
        assert_eq!(p.end(), Rational::from(2u64));
    }
}
