//! JSON import/export for instances.
//!
//! The wire format stores only the raw data (machines, setups, jobs); derived
//! aggregates are rebuilt and re-validated on load, so a hand-edited file that
//! violates the model (empty class, zero time, ...) is rejected.

use crate::{Instance, InstanceError};

/// Errors arising while reading an instance from JSON.
#[derive(Debug)]
pub enum IoError {
    /// The JSON was malformed.
    Json(bss_json::JsonError),
    /// The decoded data violates the instance model.
    Model(InstanceError),
}

impl core::fmt::Display for IoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IoError::Json(e) => write!(f, "invalid instance JSON: {e}"),
            IoError::Model(e) => write!(f, "invalid instance data: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl Instance {
    /// Serializes the instance to pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        bss_json::encode_pretty(self)
    }

    /// Parses and validates an instance from JSON, distinguishing malformed
    /// JSON from model violations — unlike the [`bss_json::FromJson`] impl,
    /// which flattens both into one error.
    pub fn from_json(json: &str) -> Result<Self, IoError> {
        bss_json::decode::<crate::model::Parts>(json)
            .map_err(IoError::Json)?
            .build()
            .map_err(IoError::Model)
    }
}

#[cfg(test)]
mod tests {
    use crate::InstanceBuilder;

    use super::*;

    #[test]
    fn json_roundtrip() {
        let mut b = InstanceBuilder::new(3);
        b.add_batch(5, &[1, 2, 3]);
        b.add_batch(2, &[9]);
        let inst = b.build().unwrap();
        let json = inst.to_json();
        let back = Instance::from_json(&json).unwrap();
        assert_eq!(back, inst);
        // Derived data must be rebuilt, not defaulted.
        assert_eq!(back.class_proc(0), 6);
        assert_eq!(back.class_jobs(1), &[3]);
    }

    #[test]
    fn rejects_bad_json() {
        assert!(matches!(
            Instance::from_json("{not json"),
            Err(IoError::Json(_))
        ));
    }

    #[test]
    fn rejects_model_violation() {
        // Zero machines.
        let json = r#"{"machines":0,"setups":[1],"jobs":[{"class":0,"time":1}]}"#;
        assert!(matches!(
            Instance::from_json(json),
            Err(IoError::Model(InstanceError::NoMachines))
        ));
    }
}
