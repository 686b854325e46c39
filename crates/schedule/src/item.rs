//! Placements: the atoms of a schedule.

use bss_instance::{ClassId, JobId};
use bss_json::{FromJson, JsonError, JsonWriter, ToJson, Value};
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
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        if let Some(class) = value.field("Setup") {
            return Ok(ItemKind::Setup(bss_json::int_from(class, "Setup class")?));
        }
        if let Some(piece) = value.field("Piece") {
            return Ok(ItemKind::Piece {
                job: bss_json::int_from(bss_json::required(piece, "job")?, "Piece.job")?,
                class: bss_json::int_from(bss_json::required(piece, "class")?, "Piece.class")?,
            });
        }
        Err(JsonError::new(format!(
            "expected `Setup` or `Piece` item, found {}",
            value.kind()
        )))
    }
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
    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        Ok(Placement {
            machine: bss_json::int_from(bss_json::required(value, "machine")?, "machine")?,
            start: Rational::from_json_value(bss_json::required(value, "start")?)?,
            len: Rational::from_json_value(bss_json::required(value, "len")?)?,
            kind: ItemKind::from_json_value(bss_json::required(value, "kind")?)?,
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
